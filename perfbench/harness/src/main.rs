//! Traced in-process replay of one perfbench workload.
//!
//! Runs the optimizer configuration `moela-dse run` runs for the same
//! flags, but in-process, with every call into the program's layers timed
//! from the outside: a [`Timed`] wrapper around the `Problem`, and timers
//! around `Resumable::step`/`snapshot_state` and
//! `CheckpointStore::save`. It writes `front.json` and `trace.json` into
//! `--dir` with the store writers the CLI uses, so the caller can check
//! that both measured the same work, then replays single layers
//! (routing, scoring, delta patching, the surrogate forest, hypervolume
//! and non-dominated sorting) on the designs the run evaluated.
//!
//! Prints one JSON object on stdout.
//!
//! ```text
//! perfbench-harness --algorithm <nsga2|moela|moo-stage> --app <APP>
//!     --objectives <3|4|5> --budget <N> --population <N> --seed <N> --dir <DIR>
//! ```

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use moela_baselines::{MooStage, MooStageConfig, Nsga2, Nsga2Config};
use moela_core::{Moela, MoelaConfig};
use moela_manycore::objectives::Evaluator;
use moela_manycore::routing::RoutingTable;
use moela_manycore::{Design, ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_ml::{Dataset, ForestConfig, RandomForest};
use moela_moo::checkpoint::Resumable;
use moela_moo::fault::FaultConfig;
use moela_moo::normalize::Normalizer;
use moela_moo::pareto::non_dominated_sort;
use moela_moo::run::{normalized_phv, RunResult};
use moela_moo::Problem;
use moela_obs::{JsonlSink, Obs, Sink};
use moela_persist::{encode, Restore, RunStore, Value, FORMAT_VERSION};
use moela_thermal::FastThermalModel;
use moela_traffic::{Benchmark, Workload};

/// The `moela-dse run` time guard default; the run never reaches it.
const TIME_GUARD: Duration = Duration::from_secs(600);
/// Most designs each replay samples, evenly spaced over the run.
const REPLAY_SAMPLES: usize = 200;
/// Rows of the surrogate training buffer timed for prediction.
const PREDICT_ROWS: usize = 2000;
/// Most recent evaluated objective vectors the non-dominated sort replay
/// takes.
const SORT_POINTS: usize = 2000;

struct Args {
    algorithm: String,
    app: Benchmark,
    set: ObjectiveSet,
    budget: u64,
    population: usize,
    seed: u64,
    dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut algorithm, mut app, mut set, mut budget, mut population, mut seed, mut dir) =
        (None, None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--algorithm" => algorithm = Some(value.clone()),
            "--app" => {
                app = Some(
                    Benchmark::ALL
                        .into_iter()
                        .find(|b| b.name().eq_ignore_ascii_case(&value))
                        .ok_or_else(|| format!("unknown app {value}"))?,
                )
            }
            "--objectives" => {
                set = Some(match number()? {
                    3 => ObjectiveSet::Three,
                    4 => ObjectiveSet::Four,
                    5 => ObjectiveSet::Five,
                    n => return Err(format!("objectives must be 3, 4 or 5, not {n}")),
                })
            }
            "--budget" => budget = Some(number()?),
            "--population" => population = Some(number()? as usize),
            "--seed" => seed = Some(number()?),
            "--dir" => dir = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok(Args {
        algorithm: algorithm.ok_or_else(|| missing("algorithm"))?,
        app: app.ok_or_else(|| missing("app"))?,
        set: set.ok_or_else(|| missing("objectives"))?,
        budget: budget.ok_or_else(|| missing("budget"))?,
        population: population.ok_or_else(|| missing("population"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        dir: dir.ok_or_else(|| missing("dir"))?,
    })
}

/// What the [`Timed`] wrapper saw, in call order.
#[derive(Default)]
struct Calls {
    full_us: Vec<f64>,
    neighbor_us: Vec<f64>,
    operators_s: f64,
    /// Seconds inside every timed call: the child time of a step span.
    child_s: f64,
    /// Every design the run evaluated, fully or as a neighbor, with its
    /// objectives.
    evaluated: Vec<(Design, Vec<f64>)>,
}

/// A `Problem` that forwards every call to the manycore problem and times
/// it: full evaluations, neighbor (delta) evaluations, and the design
/// operators (`random_solution`, `neighbor`, `crossover`, `features`).
struct Timed<'a> {
    inner: &'a ManycoreProblem,
    calls: Mutex<Calls>,
}

impl Timed<'_> {
    fn calls(&self) -> std::sync::MutexGuard<'_, Calls> {
        self.calls.lock().expect("a timed call panicked while recording")
    }

    fn operator<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let mut calls = self.calls();
        calls.operators_s += secs;
        calls.child_s += secs;
        out
    }

    fn evaluation(&self, s: &Design, full: bool, f: impl FnOnce() -> Vec<f64>) -> Vec<f64> {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let mut calls = self.calls();
        if full { &mut calls.full_us } else { &mut calls.neighbor_us }.push(secs * 1e6);
        calls.child_s += secs;
        calls.evaluated.push((s.clone(), out.clone()));
        out
    }
}

impl Problem for Timed<'_> {
    type Solution = Design;

    fn objective_count(&self) -> usize {
        self.inner.objective_count()
    }

    fn random_solution(&self, rng: &mut dyn RngCore) -> Design {
        self.operator(|| self.inner.random_solution(rng))
    }

    fn neighbor(&self, s: &Design, rng: &mut dyn RngCore) -> Design {
        self.operator(|| self.inner.neighbor(s, rng))
    }

    fn crossover(&self, a: &Design, b: &Design, rng: &mut dyn RngCore) -> Design {
        self.operator(|| self.inner.crossover(a, b, rng))
    }

    fn evaluate(&self, s: &Design) -> Vec<f64> {
        self.evaluation(s, true, || self.inner.evaluate(s))
    }

    fn evaluate_ordinal(&self, s: &Design, ordinal: u64) -> Vec<f64> {
        self.evaluation(s, true, || self.inner.evaluate_ordinal(s, ordinal))
    }

    fn evaluate_neighbor_ordinal(&self, base: &Design, s: &Design, ordinal: u64) -> Vec<f64> {
        self.evaluation(s, false, || self.inner.evaluate_neighbor_ordinal(base, s, ordinal))
    }

    fn reserve_ordinals(&self, n: u64) -> u64 {
        self.inner.reserve_ordinals(n)
    }

    fn cache_key(&self, s: &Design) -> Option<Vec<u8>> {
        self.inner.cache_key(s)
    }

    fn features(&self, s: &Design) -> Vec<f64> {
        self.operator(|| self.inner.features(s))
    }

    fn feature_len(&self) -> usize {
        self.inner.feature_len()
    }
}

/// Timers around the step loop, mirroring `moela-dse run` with its
/// default checkpoint cadence of one step.
#[derive(Default)]
struct Drive {
    step_ms: Vec<f64>,
    step_self_s: f64,
    snapshot_ms: Vec<f64>,
    save_ms: Vec<f64>,
    checkpoint_bytes: u64,
    last_state: Option<Value>,
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Steps `state` to completion the way the CLI's step loop does: obs
/// installed after start, a checkpoint envelope saved after every step.
fn drive<S>(
    mut state: S,
    rng: &mut StdRng,
    problem: &Timed<'_>,
    store: &RunStore,
    algorithm: &str,
    obs: &Obs,
) -> Result<(RunResult<Design>, Drive), String>
where
    S: Resumable<ManycoreProblem, Solution = Design>,
{
    let codec = problem.inner;
    let checkpoints = store.checkpoints().map_err(|e| e.to_string())?;
    let mut d = Drive::default();
    state.set_obs(obs.clone());
    let t0 = Instant::now();
    loop {
        let child_before = problem.calls().child_s;
        let t = Instant::now();
        let more = state.step(rng);
        let step_s = t.elapsed().as_secs_f64();
        d.step_ms.push(step_s * 1e3);
        d.step_self_s += step_s - (problem.calls().child_s - child_before);
        if !more {
            break;
        }
        let t = Instant::now();
        let snapshot = state.snapshot_state(codec);
        d.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let envelope = Value::object(vec![
            ("format", Value::U64(u64::from(FORMAT_VERSION))),
            ("version", Value::Str(env!("CARGO_PKG_VERSION").to_owned())),
            ("algorithm", Value::Str(algorithm.to_owned())),
            ("completed", Value::U64(state.completed())),
            ("rng", Value::u64_array(&rng.state())),
            ("elapsed_nanos", Value::U64(t0.elapsed().as_nanos() as u64)),
            ("state", snapshot.clone()),
        ]);
        let t = Instant::now();
        let path = checkpoints.save(state.completed(), &envelope).map_err(|e| e.to_string())?;
        d.save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        d.checkpoint_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        obs.flush();
        d.last_state = Some(snapshot);
    }
    if let Some(fault) = state.fault_error() {
        return Err(fault.to_string());
    }
    Ok((state.finish(), d))
}

/// The CLI's objective normalizer: 200 random designs from `seed ^ 0xC0FFEE`.
fn corpus_normalizer(problem: &ManycoreProblem, seed: u64) -> Normalizer {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let objs: Vec<Vec<f64>> =
        (0..200).map(|_| problem.evaluate(&problem.random_solution(&mut rng))).collect();
    Normalizer::fit(&objs)
}

/// Up to [`REPLAY_SAMPLES`] items evenly spaced over `items`.
fn sample<T>(items: &[T]) -> Vec<&T> {
    let step = items.len().div_ceil(REPLAY_SAMPLES).max(1);
    items.iter().step_by(step).collect()
}

/// Milliseconds per call of `f`: the median over at least five batches,
/// each of enough calls to take 2 ms or more, and 50 ms in all.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u32;
    loop {
        let t = Instant::now();
        (0..batch).for_each(|_| f());
        if t.elapsed() >= Duration::from_millis(2) {
            break;
        }
        batch *= 2;
    }
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < 5 || t0.elapsed() < Duration::from_millis(50) {
        let t = Instant::now();
        (0..batch).for_each(|_| f());
        times.push(t.elapsed().as_secs_f64() * 1e3 / f64::from(batch));
    }
    median(&times)
}

fn num(v: f64) -> Value {
    Value::F64(v)
}

fn run() -> Result<Value, String> {
    let args = parse_args()?;
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(args.app, platform.pe_mix(), args.seed);
    let mut problem = ManycoreProblem::new(platform, workload, args.set)
        .map_err(|e| format!("cannot build the paper platform: {e}"))?;
    problem.set_delta_eval(true);
    let normalizer = corpus_normalizer(&problem, args.seed);

    let store = RunStore::create(&args.dir).map_err(|e| e.to_string())?;
    let sink = JsonlSink::append(&store.events_path()).map_err(|e| e.to_string())?;
    let obs = Obs::with_sinks(vec![Box::new(sink) as Box<dyn Sink>]);
    let timed = Timed { inner: &problem, calls: Mutex::new(Calls::default()) };
    let (delta_hits0, delta_fallbacks0) = problem.delta_stats();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let fault = FaultConfig::default();
    let run_t = Instant::now();
    let (result, d) = match args.algorithm.as_str() {
        "nsga2" => {
            let config = Nsga2Config {
                population: args.population,
                generations: usize::MAX / 2,
                trace_normalizer: Some(normalizer.clone()),
                max_evaluations: Some(args.budget),
                time_budget: Some(TIME_GUARD),
                threads: 1,
                fault,
            };
            let state = Nsga2::new(config, &timed).start(&mut rng);
            drive(state, &mut rng, &timed, &store, "nsga2", &obs)?
        }
        "moela" => {
            let config = MoelaConfig::builder()
                .population(args.population)
                .generations(usize::MAX / 2)
                .trace_normalizer(normalizer.clone())
                .max_evaluations(args.budget)
                .time_budget(TIME_GUARD)
                .threads(1)
                .fault(fault)
                .build()
                .map_err(|e| format!("invalid MOELA configuration: {e}"))?;
            let state = Moela::new(config, &timed).start(&mut rng);
            drive(state, &mut rng, &timed, &store, "moela", &obs)?
        }
        "moo-stage" => {
            let config = MooStageConfig {
                episodes: usize::MAX / 2,
                trace_normalizer: Some(normalizer.clone()),
                max_evaluations: Some(args.budget),
                time_budget: Some(TIME_GUARD),
                threads: 1,
                fault,
                ..Default::default()
            };
            let state = MooStage::new(config, &timed).start(&mut rng);
            drive(state, &mut rng, &timed, &store, "moo-stage", &obs)?
        }
        other => return Err(format!("unsupported algorithm {other}")),
    };
    let run_s = run_t.elapsed().as_secs_f64();
    let (delta_hits1, delta_fallbacks1) = problem.delta_stats();
    obs.flush();

    let front = result.front_objectives();
    let front_value = Value::object(vec![(
        "objectives",
        Value::Array(
            front
                .iter()
                .map(|row| Value::Array(row.iter().copied().map(Value::F64).collect()))
                .collect(),
        ),
    )]);
    let trace_value = Value::object(vec![(
        "points",
        Value::Array(
            result
                .trace
                .iter()
                .map(|p| {
                    Value::object(vec![
                        ("generation", Value::U64(p.generation as u64)),
                        ("evaluations", Value::U64(p.evaluations)),
                        ("phv", Value::F64(p.phv)),
                    ])
                })
                .collect(),
        ),
    )]);
    store.write_front_json(&front_value).map_err(|e| e.to_string())?;
    store.write_trace_json(&trace_value).map_err(|e| e.to_string())?;

    let calls = timed.calls.into_inner().map_err(|_| "a timed call panicked".to_string())?;
    let replay = replay(&problem, &args, &calls, &d, &front, &normalizer)?;
    let step_total_s: f64 = d.step_ms.iter().sum::<f64>() / 1e3;
    let layer = |name: &str, count: usize, us: &[f64]| {
        (
            name.to_owned(),
            Value::object(vec![
                ("count", Value::U64(count as u64)),
                ("self_s", num(us.iter().sum::<f64>() / 1e6)),
                ("us_p50", num(median(us))),
            ]),
        )
    };
    let fields = vec![
        ("run_s".to_owned(), num(run_s)),
        layer("full_eval", calls.full_us.len(), &calls.full_us),
        layer("neighbor_eval", calls.neighbor_us.len(), &calls.neighbor_us),
        ("delta_hits".to_owned(), Value::U64(delta_hits1 - delta_hits0)),
        ("delta_fallbacks".to_owned(), Value::U64(delta_fallbacks1 - delta_fallbacks0)),
        ("operators_s".to_owned(), num(calls.operators_s)),
        (
            "step".to_owned(),
            Value::object(vec![
                ("count", Value::U64(d.snapshot_ms.len() as u64)),
                ("calls", Value::U64(d.step_ms.len() as u64)),
                ("total_s", num(step_total_s)),
                ("self_s", num(d.step_self_s)),
                ("ms_p50", num(median(&d.step_ms))),
            ]),
        ),
        (
            "checkpoint".to_owned(),
            Value::object(vec![
                ("count", Value::U64(d.save_ms.len() as u64)),
                ("bytes", Value::U64(d.checkpoint_bytes)),
                ("save_s", num(d.save_ms.iter().sum::<f64>() / 1e3)),
                ("save_ms_p50", num(median(&d.save_ms))),
                ("snapshot_s", num(d.snapshot_ms.iter().sum::<f64>() / 1e3)),
                ("snapshot_ms_p50", num(median(&d.snapshot_ms))),
            ]),
        ),
        ("replay".to_owned(), replay),
    ];
    Ok(Value::Object(fields))
}

/// Times single layers again, outside the run, on the designs and data the
/// run produced.
fn replay(
    problem: &ManycoreProblem,
    args: &Args,
    calls: &Calls,
    d: &Drive,
    front: &[Vec<f64>],
    normalizer: &Normalizer,
) -> Result<Value, String> {
    let config = problem.config();
    let designs: Vec<&Design> = sample(&calls.evaluated).into_iter().map(|(d, _)| d).collect();

    // Routing: all-pairs shortest paths of each sampled design.
    let mut tables = Vec::with_capacity(designs.len());
    let mut build_us = Vec::with_capacity(designs.len());
    for design in &designs {
        let t = Instant::now();
        let table = RoutingTable::build(config.dims(), &design.topology, config.noc());
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
        tables.push(table);
    }

    // Scoring: flow accumulation, energy and thermal over a built table.
    let evaluator = Evaluator::new(
        *config.dims(),
        *config.noc(),
        problem.workload().clone(),
        FastThermalModel::new(config.thermal().clone()),
    );
    let mut scoring_us = Vec::with_capacity(designs.len());
    for (design, table) in designs.iter().zip(&tables) {
        let t = Instant::now();
        std::hint::black_box(evaluator.evaluate_with_table(design, table));
        scoring_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Delta patching: one neighbor of each sampled design, scored against
    // a base whose evaluation state the engine already holds.
    let mut fresh = problem.with_objective_set(args.set);
    fresh.set_delta_eval(true);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5EED);
    let mut neighbor_us = Vec::with_capacity(designs.len());
    for design in &designs {
        let warm = fresh.neighbor(design, &mut rng);
        fresh.evaluate_neighbor_ordinal(design, &warm, 0);
        let next = fresh.neighbor(design, &mut rng);
        let t = Instant::now();
        std::hint::black_box(fresh.evaluate_neighbor_ordinal(design, &next, 0));
        neighbor_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Surrogate: the optimizer's own forest configuration on the training
    // buffer the run reached; NSGA-II keeps none, so its evaluated designs
    // (features, first objective) stand in, at the MOELA buffer cap.
    let (dataset, forest) = match (&d.last_state, args.algorithm.as_str()) {
        (Some(state), "moela") => (
            Dataset::restore(state.field("train").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?,
            MoelaConfig::builder().build().map_err(|e| e.to_string())?.forest,
        ),
        (Some(state), "moo-stage") => (
            Dataset::restore(state.field("train").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?,
            MooStageConfig::default().forest,
        ),
        _ => {
            let cap = MoelaConfig::builder().build().map_err(|e| e.to_string())?.train_cap;
            let mut data = Dataset::with_capacity(cap);
            for (design, objs) in &calls.evaluated {
                data.push_finite(problem.features(design), objs[0]);
            }
            (data, MooStageConfig::default().forest)
        }
    };
    let fit_ms = fit_ms(&dataset, &forest, args.seed);
    let model = RandomForest::fit(&dataset, &forest, &mut StdRng::seed_from_u64(args.seed));
    let rows = dataset.len().min(PREDICT_ROWS);
    let t = Instant::now();
    for i in 0..rows {
        std::hint::black_box(model.predict(dataset.features(i)));
    }
    let predict_us = t.elapsed().as_secs_f64() * 1e6 / rows as f64;

    let hypervolume_ms = time_ms(|| {
        std::hint::black_box(normalized_phv(front, normalizer));
    });
    let recent: Vec<Vec<f64>> = calls.evaluated
        [calls.evaluated.len().saturating_sub(SORT_POINTS)..]
        .iter()
        .map(|(_, o)| o.clone())
        .collect();
    let sort_ms = time_ms(|| {
        std::hint::black_box(non_dominated_sort(&recent));
    });

    Ok(Value::object(vec![
        ("samples", Value::U64(designs.len() as u64)),
        ("routing_build_us", num(median(&build_us))),
        ("scoring_us", num(median(&scoring_us))),
        ("neighbor_us", num(median(&neighbor_us))),
        ("forest_rows", Value::U64(dataset.len() as u64)),
        ("forest_fit_ms", num(fit_ms)),
        ("forest_predict_us", num(predict_us)),
        ("front_size", Value::U64(front.len() as u64)),
        ("hypervolume_ms", num(hypervolume_ms)),
        ("sort_points", Value::U64(recent.len() as u64)),
        ("pareto_sort_ms", num(sort_ms)),
    ]))
}

fn fit_ms(dataset: &Dataset, forest: &ForestConfig, seed: u64) -> f64 {
    time_ms(|| {
        std::hint::black_box(RandomForest::fit(dataset, forest, &mut StdRng::seed_from_u64(seed)));
    })
}

fn main() {
    match run() {
        Ok(value) => println!("{}", encode::to_string(&value)),
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    }
}
