//! Cross-algorithm contract tests: every optimizer in the workspace obeys
//! the same interface guarantees on the same manycore problem.

use std::time::Duration;

use moela::baselines::{
    multi_start_local_search, random_search, random_search_restore, random_search_start, MooStage,
    MooStageConfig, MultiStartConfig, RandomSearchConfig,
};
use moela::moo::checkpoint::{CancelToken, Resumable};
use moela::moo::pareto::non_dominated_indices;
use moela::persist::{SolutionCodec, Value};
use moela::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BUDGET: u64 = 400;

fn problem() -> ManycoreProblem {
    let platform = PlatformConfig::builder()
        .dims(3, 3, 2)
        .cpus(2)
        .llcs(4)
        .planar_links(24)
        .tsvs(6)
        .build()
        .expect("valid platform");
    let workload = Workload::synthesize(Benchmark::Pf, platform.pe_mix(), 13);
    ManycoreProblem::new(platform, workload, ObjectiveSet::Three).expect("consistent")
}

fn check(name: &str, result: &MoelaOutcome<Design>) {
    assert!(!result.population.is_empty(), "{name}: empty population");
    assert!(result.evaluations > 0, "{name}: no evaluations recorded");
    // Evaluation caps are enforced between phases; one in-flight local
    // search may overshoot slightly.
    assert!(
        result.evaluations <= BUDGET + 120,
        "{name}: budget blown ({} evals)",
        result.evaluations
    );
    assert!(!result.trace.is_empty(), "{name}: no trace");
    let front = result.front_objectives();
    assert!(!front.is_empty(), "{name}: empty front");
    assert_eq!(
        non_dominated_indices(&front).len(),
        front.len(),
        "{name}: front contains dominated points"
    );
    // Trace evaluations are non-decreasing.
    for w in result.trace.windows(2) {
        assert!(w[0].evaluations <= w[1].evaluations, "{name}: trace goes backwards");
    }
}

#[test]
fn moela_contract() {
    let p = problem();
    let config = MoelaConfig::builder()
        .population(8)
        .generations(usize::MAX / 2)
        .max_evaluations(BUDGET)
        .time_budget(Duration::from_secs(60))
        .build()
        .expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    check("MOELA", &Moela::new(config, &p).run(&mut rng));
}

#[test]
fn moead_contract() {
    let p = problem();
    let config = MoeadConfig {
        population: 8,
        neighborhood: 4,
        generations: usize::MAX / 2,
        max_evaluations: Some(BUDGET),
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    check("MOEA/D", &Moead::new(config, &p).run(&mut rng));
}

#[test]
fn nsga2_contract() {
    let p = problem();
    let config = Nsga2Config {
        population: 8,
        generations: usize::MAX / 2,
        max_evaluations: Some(BUDGET),
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    check("NSGA-II", &Nsga2::new(config, &p).run(&mut rng));
}

#[test]
fn moos_contract() {
    let p = problem();
    let config = MoosConfig {
        episodes: usize::MAX / 2,
        max_evaluations: Some(BUDGET),
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    check("MOOS", &Moos::new(config, &p).run(&mut rng));
}

#[test]
fn moo_stage_contract() {
    let p = problem();
    let config = MooStageConfig {
        episodes: usize::MAX / 2,
        max_evaluations: Some(BUDGET),
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    check("MOO-STAGE", &MooStage::new(config, &p).run(&mut rng));
}

#[test]
fn naive_baseline_contracts() {
    let p = problem();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let rs =
        random_search(&RandomSearchConfig { samples: BUDGET, ..Default::default() }, &p, &mut rng);
    check("random", &rs);
    let ls = multi_start_local_search(
        &MultiStartConfig {
            restarts: usize::MAX / 2,
            max_evaluations: Some(BUDGET),
            ..Default::default()
        },
        &p,
        &mut rng,
    );
    check("multi-start LS", &ls);
}

#[test]
fn counted_adapter_agrees_with_reported_evaluations() {
    let p = problem();
    let counter = EvalCounter::new();
    let counted = Counted::new(p, counter.clone());
    let config = MoelaConfig::builder()
        .population(8)
        .generations(usize::MAX / 2)
        .max_evaluations(BUDGET)
        .build()
        .expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let out = Moela::new(config, &counted).run(&mut rng);
    assert_eq!(out.evaluations, counter.count());
}

#[test]
fn all_algorithms_are_deterministic_per_seed() {
    let p = problem();
    let run_twice = |seed: u64| {
        let config = MoelaConfig::builder().population(8).generations(4).build().expect("valid");
        let mut r1 = rand::rngs::StdRng::seed_from_u64(seed);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Moela::new(config.clone(), &p).run(&mut r1);
        let b = Moela::new(config, &p).run(&mut r2);
        let objs = |r: &MoelaOutcome<Design>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };
        assert_eq!(objs(&a), objs(&b));
    };
    run_twice(11);
    run_twice(12);
}

/// Visits each of the six resumable optimizers with a fresh-start and a
/// restore constructor, so one contract test covers them all.
trait Visit {
    fn visit<S>(
        &mut self,
        name: &str,
        start: &dyn Fn(&mut StdRng) -> S,
        restore: &dyn Fn(&Value) -> S,
    ) where
        S: Resumable<ManycoreProblem, Solution = Design>;
}

/// The six optimizers on `p`, each small enough to finish in a few steps.
fn each_optimizer(p: &ManycoreProblem, v: &mut impl Visit) {
    const BUDGET: u64 = 120;
    let moela = MoelaConfig::builder()
        .population(8)
        .generations(usize::MAX / 2)
        .max_evaluations(BUDGET)
        .build()
        .expect("valid");
    let moela = Moela::new(moela, p);
    v.visit("MOELA", &|r| moela.start(r), &|s| {
        moela.restore(p, s, Duration::ZERO).expect("restore")
    });
    let moead = Moead::new(
        MoeadConfig {
            population: 8,
            neighborhood: 4,
            generations: usize::MAX / 2,
            max_evaluations: Some(BUDGET),
            ..Default::default()
        },
        p,
    );
    v.visit("MOEA/D", &|r| moead.start(r), &|s| {
        moead.restore(p, s, Duration::ZERO).expect("restore")
    });
    let nsga2 = Nsga2::new(
        Nsga2Config {
            population: 8,
            generations: usize::MAX / 2,
            max_evaluations: Some(BUDGET),
            ..Default::default()
        },
        p,
    );
    v.visit("NSGA-II", &|r| nsga2.start(r), &|s| {
        nsga2.restore(p, s, Duration::ZERO).expect("restore")
    });
    let moos = Moos::new(
        MoosConfig {
            episodes: usize::MAX / 2,
            max_evaluations: Some(BUDGET),
            ls_max_steps: 6,
            ..Default::default()
        },
        p,
    );
    v.visit("MOOS", &|r| moos.start(r), &|s| moos.restore(p, s, Duration::ZERO).expect("restore"));
    let stage = MooStage::new(
        MooStageConfig {
            episodes: usize::MAX / 2,
            max_evaluations: Some(BUDGET),
            ls_max_steps: 6,
            ..Default::default()
        },
        p,
    );
    v.visit("MOO-STAGE", &|r| stage.start(r), &|s| {
        stage.restore(p, s, Duration::ZERO).expect("restore")
    });
    let random = RandomSearchConfig { samples: BUDGET, trace_every: 30, ..Default::default() };
    v.visit("random", &|_| random_search_start(&random, p), &|s| {
        random_search_restore(&random, p, p, s, Duration::ZERO).expect("restore")
    });
}

fn trace_rows(r: &MoelaOutcome<Design>) -> Vec<(usize, u64, f64)> {
    r.trace.iter().map(|t| (t.generation, t.evaluations, t.phv)).collect()
}

/// The population as checkpoints store it: a decoded design's link
/// adjacency may be ordered differently from the in-memory original it
/// encodes identically to, so designs are compared encoded.
fn encoded(codec: &ManycoreProblem, r: &MoelaOutcome<Design>) -> Vec<(Value, Vec<f64>)> {
    r.population.iter().map(|(d, o)| (codec.encode_solution(d), o.clone())).collect()
}

/// After `CancelToken::cancel`, `step` refuses without drawing RNG or
/// changing the snapshot, and a restore with a fresh token finishes
/// exactly like the run that was never interrupted.
#[test]
fn cancel_parks_every_optimizer_resumably() {
    struct CancelContract<'a>(&'a ManycoreProblem);
    impl Visit for CancelContract<'_> {
        fn visit<S>(
            &mut self,
            name: &str,
            start: &dyn Fn(&mut StdRng) -> S,
            restore: &dyn Fn(&Value) -> S,
        ) where
            S: Resumable<ManycoreProblem, Solution = Design>,
        {
            let codec = self.0;
            let mut rng = StdRng::seed_from_u64(21);
            let mut state = start(&mut rng);
            while state.step(&mut rng) {}
            let baseline = state.finish();

            for boundary in 0..2u64 {
                let mut rng = StdRng::seed_from_u64(21);
                let mut state = start(&mut rng);
                while state.completed() < boundary && state.step(&mut rng) {}
                let token = CancelToken::new();
                state.set_cancel(token.clone());
                token.cancel();
                let rng_before = rng.state();
                let snapshot = state.snapshot_state(codec);
                for _ in 0..2 {
                    assert!(!state.step(&mut rng), "{name}@{boundary}: a cancelled step ran");
                    assert_eq!(rng.state(), rng_before, "{name}@{boundary}: RNG drawn");
                    assert_eq!(
                        state.snapshot_state(codec),
                        snapshot,
                        "{name}@{boundary}: a cancelled step changed the state"
                    );
                }

                let mut resumed = restore(&snapshot);
                let mut rng = StdRng::from_state(rng_before);
                while resumed.step(&mut rng) {}
                let out = resumed.finish();
                assert_eq!(encoded(codec, &out), encoded(codec, &baseline), "{name}@{boundary}");
                assert_eq!(out.evaluations, baseline.evaluations, "{name}@{boundary}");
                assert_eq!(trace_rows(&out), trace_rows(&baseline), "{name}@{boundary}");
            }
        }
    }
    let p = problem();
    each_optimizer(&p, &mut CancelContract(&p));
}

/// Each optimizer's top-level snapshot keys, in order. Old checkpoints
/// and external readers (`state.field("train")`) depend on these names.
#[test]
fn snapshot_keys_are_pinned() {
    const CORE: [&str; 3] = ["finished", "evaluations", "recorder"];
    let expected: [(&str, &[&str], &[&str]); 6] = [
        (
            "MOELA",
            &["generation", "last_generation"],
            &["population", "z", "normalizer", "train", "eval_fn", "recent_starts"],
        ),
        ("MOEA/D", &["generation"], &["population", "z", "normalizer"]),
        ("NSGA-II", &["generation"], &["population"]),
        ("MOOS", &["episode"], &["archive", "z", "normalizer", "train", "gain_model"]),
        ("MOO-STAGE", &["episode"], &["archive", "normalizer", "train", "eval_fn", "start"]),
        ("random", &["drawn", "chunks"], &["archive"]),
    ];

    struct Keys<'a>(&'a ManycoreProblem, Vec<(String, Vec<String>)>);
    impl Visit for Keys<'_> {
        fn visit<S>(
            &mut self,
            name: &str,
            start: &dyn Fn(&mut StdRng) -> S,
            _: &dyn Fn(&Value) -> S,
        ) where
            S: Resumable<ManycoreProblem, Solution = Design>,
        {
            let mut rng = StdRng::seed_from_u64(3);
            let mut state = start(&mut rng);
            state.step(&mut rng);
            let Value::Object(fields) = state.snapshot_state(self.0) else {
                panic!("{name}: snapshot is not an object");
            };
            self.1.push((name.to_owned(), fields.into_iter().map(|(k, _)| k).collect()));
        }
    }
    let p = problem();
    let mut keys = Keys(&p, Vec::new());
    each_optimizer(&p, &mut keys);
    assert_eq!(keys.1.len(), expected.len());
    for ((name, got), (want_name, counters, fields)) in keys.1.iter().zip(expected) {
        let want: Vec<&str> =
            counters.iter().chain(&CORE).chain(fields).chain(&["faults"]).copied().collect();
        assert_eq!(name, want_name);
        assert_eq!(got, &want, "{name}");
    }
}
