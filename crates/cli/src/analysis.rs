//! Offline run analysis: the `moela-dse report` and two-directory
//! `moela-dse compare` subcommands.
//!
//! `report` replays a finished run directory's `events.jsonl` (see
//! [`moela_obs::replay`]) and joins it with the deterministic artifacts
//! (`trace.json`, `front.json`, the manifest's fitted normalizer) into
//! `report.json` — convergence telemetry, exact per-phase quantiles,
//! operator-improvement attribution, delta/fault summaries — plus
//! `trace.chrome.json`, a Perfetto-viewable Chrome trace-event export.
//! Both artifacts are additive: the analysis only ever reads the run
//! store, so byte-identity guarantees on the deterministic artifacts
//! are untouched.
//!
//! `compare <baseline> <candidate>` loads each side from a finished run
//! directory (its `metrics.json`), prints the PHV and throughput deltas,
//! and exits with code [`REGRESSION_EXIT_CODE`] when the candidate
//! regresses past the configured thresholds.

use std::path::Path;
use std::time::Duration;

use moela_moo::run::{convergence_point, evaluations_to_reach, normalized_phv, TracePoint};
use moela_obs::{chrome_trace, names, replay_run_dir, LogLevel, Reporter, RunReplay};
use moela_persist::{decode, RunStore, Value};

use crate::engine::{fail, options_from_manifest, CliError, ErrorClass};

/// Exit code for a compare-detected regression, distinct from 1
/// (operational failure) and 2 (configuration error) so CI can tell
/// "the candidate is worse" from "the tool broke".
pub(crate) const REGRESSION_EXIT_CODE: u8 = 3;

/// Relative-PHV slack inside which the terminal plateau counts as
/// converged (the paper's §V.C criterion: 0.5%).
const CONVERGENCE_TOLERANCE: f64 = 0.005;

/// Regression thresholds for `compare <baseline> <candidate>`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct CompareThresholds {
    /// Maximum tolerated relative final-PHV drop (e.g. 0.01 = 1%).
    pub(crate) max_phv_regression: f64,
    /// Maximum tolerated relative evals/s drop (e.g. 0.2 = 20%).
    pub(crate) max_rate_regression: f64,
}

impl Default for CompareThresholds {
    fn default() -> Self {
        // PHV is deterministic per seed, so even small drops are real;
        // throughput is wall-clock and needs generous slack for noisy
        // CI machines.
        Self { max_phv_regression: 0.01, max_rate_regression: 0.2 }
    }
}

fn read_json(path: &Path) -> Result<Value, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read {}: {e}", path.display())))?;
    decode::from_str(&text).map_err(|e| fail(format!("{} is not valid JSON: {e}", path.display())))
}

fn trace_points(trace: &Value) -> Result<Vec<TracePoint>, CliError> {
    trace
        .field("points")?
        .as_array()?
        .iter()
        .map(|p| {
            Ok(TracePoint {
                generation: p.field("generation")?.as_usize()?,
                evaluations: p.field("evaluations")?.as_u64()?,
                elapsed: Duration::ZERO,
                phv: p.field("phv")?.as_f64()?,
            })
        })
        .collect()
}

fn front_objectives(front: &Value) -> Result<Vec<Vec<f64>>, CliError> {
    front
        .field("objectives")?
        .as_array()?
        .iter()
        .map(|row| row.to_f64_vec().map_err(CliError::from))
        .collect()
}

fn phases_value(replay: &RunReplay) -> Value {
    Value::Object(
        replay
            .fold
            .phases()
            .iter()
            .map(|(name, stat)| {
                (
                    name.to_string(),
                    Value::object(vec![
                        ("count", Value::U64(stat.count)),
                        ("total_us", Value::U64(stat.total_us)),
                        ("self_us", Value::U64(stat.self_us)),
                        ("max_us", Value::U64(stat.max_us)),
                        ("p50_us", Value::U64(stat.quantile_us(0.50))),
                        ("p90_us", Value::U64(stat.quantile_us(0.90))),
                        ("p99_us", Value::U64(stat.quantile_us(0.99))),
                    ]),
                )
            })
            .collect(),
    )
}

/// Per-gauge and per-counter time series on the stitched global
/// timeline, for plotting convergence and counter behavior over the run.
fn trends_value(replay: &RunReplay) -> Value {
    let mut gauges: Vec<(String, Value)> = Vec::new();
    for (name, t_us, value) in &replay.gauge_events {
        let point = Value::object(vec![("t_us", Value::U64(*t_us)), ("value", Value::F64(*value))]);
        match gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, Value::Array(points))) => points.push(point),
            _ => gauges.push((name.clone(), Value::Array(vec![point]))),
        }
    }
    let mut counters: Vec<(String, Value)> = Vec::new();
    for (name, t_us, delta) in &replay.counter_events {
        let point = Value::object(vec![("t_us", Value::U64(*t_us)), ("delta", Value::U64(*delta))]);
        match counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, Value::Array(points))) => points.push(point),
            _ => counters.push((name.clone(), Value::Array(vec![point]))),
        }
    }
    Value::object(vec![("gauges", Value::Object(gauges)), ("counters", Value::Object(counters))])
}

/// Builds the analysis artifacts for a finished run directory: the
/// `report.json` document and the Chrome trace-event export. Read-only
/// over the store.
pub(crate) fn build_report(dir: &Path) -> Result<(Value, Value), CliError> {
    let store = RunStore::open(dir)?;
    let manifest = store.read_manifest()?;
    let (opts, normalizer) = options_from_manifest(&manifest)?;
    if !store.trace_json_path().is_file() {
        return Err(fail(format!(
            "{} has no trace.json — the run has not finished (resume it first)",
            dir.display()
        )));
    }
    let trace = trace_points(&read_json(&store.trace_json_path())?)?;
    let front = front_objectives(&read_json(&store.front_json_path())?)?;
    let replay = replay_run_dir(dir).map_err(|e| fail(e.to_string()))?;

    // Convergence telemetry (§V.C): the deterministic trace carries PHV
    // per generation; the front is re-scored through the manifest's
    // fitted normalizer as an end-to-end recomputation check on the
    // persisted artifacts.
    let final_phv = trace.last().map_or(0.0, |p| p.phv);
    let front_phv = normalized_phv(&front, &normalizer);
    let evaluations = trace.last().map_or(0, |p| p.evaluations);
    let to_99 = evaluations_to_reach(&trace, 0.99 * final_phv);
    let converged_at = convergence_point(&trace, CONVERGENCE_TOLERANCE)
        .and_then(|idx| trace.get(idx))
        .map(|p| p.evaluations);
    let phv_series = trace
        .iter()
        .map(|p| {
            Value::object(vec![
                ("evaluations", Value::U64(p.evaluations)),
                ("phv", Value::F64(p.phv)),
            ])
        })
        .collect();
    let mut convergence = vec![
        ("final_phv", Value::F64(final_phv)),
        ("front_phv_recomputed", Value::F64(front_phv)),
        ("evaluations", Value::U64(evaluations)),
    ];
    if let Some(evals) = to_99 {
        convergence.push(("evaluations_to_99pct", Value::U64(evals)));
    }
    if let Some(evals) = converged_at {
        convergence.push(("convergence_evaluations", Value::U64(evals)));
    }
    convergence.push(("phv_over_evaluations", Value::Array(phv_series)));

    let wall_s = replay.wall_us as f64 / 1e6;
    let replay_evals = replay.counter("evaluations");
    let evals_per_sec = if wall_s > 0.0 { replay_evals as f64 / wall_s } else { 0.0 };

    let mut fields = vec![
        (
            "run",
            Value::object(vec![
                ("algorithm", Value::Str(opts.algorithm.name().to_owned())),
                ("app", Value::Str(opts.app.name().to_owned())),
                ("seed", Value::U64(opts.seed)),
                ("budget", Value::U64(opts.budget)),
                ("population", Value::U64(opts.population as u64)),
                ("threads", Value::U64(opts.threads as u64)),
            ]),
        ),
        ("convergence", Value::object(convergence)),
        (
            // MOEADr-style attribution: which operator family actually
            // produced the archive/population improvements.
            "operators",
            Value::object(vec![
                ("ls_improvements", Value::U64(replay.counter(names::LS_IMPROVEMENTS))),
                ("ea_improvements", Value::U64(replay.counter(names::EA_IMPROVEMENTS))),
            ]),
        ),
        (
            "throughput",
            Value::object(vec![
                ("evaluations", Value::U64(replay_evals)),
                ("wall_us", Value::U64(replay.wall_us)),
                ("evals_per_sec", Value::F64(evals_per_sec)),
            ]),
        ),
        ("phases", phases_value(&replay)),
        (
            "counters",
            Value::Object(
                replay
                    .fold
                    .counters()
                    .iter()
                    .map(|(n, v)| (n.to_string(), Value::U64(*v)))
                    .collect(),
            ),
        ),
        (
            "delta",
            Value::object(vec![
                ("hits", Value::U64(replay.counter("delta_hits"))),
                ("fallbacks", Value::U64(replay.counter("delta_fallbacks"))),
            ]),
        ),
        ("trends", trends_value(&replay)),
        (
            "events",
            Value::object(vec![
                ("lines", Value::U64(replay.lines)),
                ("legs", Value::U64(replay.legs as u64)),
                ("torn_tail", Value::Bool(replay.torn_tail)),
                ("unclosed_spans", Value::U64(replay.unclosed_spans)),
                ("nesting_violations", Value::U64(replay.fold.nesting_violations())),
                ("wall_us", Value::U64(replay.wall_us)),
            ]),
        ),
    ];
    // Fault counters live in metrics.json (written at finish); carry
    // them through verbatim when present so the report is one-stop.
    if let Ok(metrics) = read_json(&store.metrics_path()) {
        if let Some(faults) = metrics.field_opt("faults") {
            fields.push(("faults", faults.clone()));
        }
        if let Some(resume) = metrics.field_opt("resume") {
            fields.push(("resume", resume.clone()));
        }
    }
    let report = Value::object(fields);
    let chrome = chrome_trace(&replay, opts.threads.max(1));
    Ok((report, chrome))
}

/// The `moela-dse report <DIR>` body: builds and writes `report.json`
/// and `trace.chrome.json`, then prints a human summary.
pub(crate) fn report(dir: &str, log_level: LogLevel) -> Result<(), CliError> {
    let reporter = Reporter::new(log_level);
    let store = RunStore::open(dir)?;
    let (report, chrome) = build_report(store.root())?;
    store.write_report(&report)?;
    store.write_chrome_trace(&chrome)?;

    let run = report.field("run")?;
    let conv = report.field("convergence")?;
    let events = report.field("events")?;
    reporter.info(&format!(
        "{} on {} (seed {}): PHV {:.4} over {} evaluations",
        run.field("algorithm")?.as_str()?,
        run.field("app")?.as_str()?,
        run.field("seed")?.as_u64()?,
        conv.field("final_phv")?.as_f64()?,
        conv.field("evaluations")?.as_u64()?,
    ));
    reporter.info(&format!(
        "  front re-scored through the manifest normalizer: PHV {:.4}",
        conv.field("front_phv_recomputed")?.as_f64()?
    ));
    if let Some(evals) = conv.field_opt("evaluations_to_99pct") {
        reporter.info(&format!("  reached 99% of final PHV after {} evaluations", evals.as_u64()?));
    }
    if let Some(evals) = conv.field_opt("convergence_evaluations") {
        reporter.info(&format!(
            "  converged (plateau within {:.1}%) at {} evaluations",
            CONVERGENCE_TOLERANCE * 100.0,
            evals.as_u64()?
        ));
    }
    let ops = report.field("operators")?;
    reporter.info(&format!(
        "  improvements: {} from local search, {} from evolutionary variation",
        ops.field("ls_improvements")?.as_u64()?,
        ops.field("ea_improvements")?.as_u64()?
    ));
    let throughput = report.field("throughput")?;
    reporter.info(&format!(
        "  throughput: {:.1} evals/s over {:.2}s of traced wall clock",
        throughput.field("evals_per_sec")?.as_f64()?,
        throughput.field("wall_us")?.as_u64()? as f64 / 1e6
    ));
    let delta = report.field("delta")?;
    let (delta_hits, delta_fallbacks) =
        (delta.field("hits")?.as_u64()?, delta.field("fallbacks")?.as_u64()?);
    if delta_hits + delta_fallbacks > 0 {
        reporter.info(&format!(
            "  delta evaluation: {delta_hits} incremental, {delta_fallbacks} full fallbacks"
        ));
    }
    if let Value::Object(phases) = report.field("phases")? {
        for (name, stat) in phases {
            reporter.info(&format!(
                "  phase {:<18} count {:>6}  total {:>9}us  p50 {:>7}us  p90 {:>7}us  p99 {:>7}us",
                name,
                stat.field("count")?.as_u64()?,
                stat.field("total_us")?.as_u64()?,
                stat.field("p50_us")?.as_u64()?,
                stat.field("p90_us")?.as_u64()?,
                stat.field("p99_us")?.as_u64()?,
            ));
        }
    }
    let legs = events.field("legs")?.as_u64()?;
    if legs > 1 {
        reporter.info(&format!("  event log spans {legs} process legs (resumed run)"));
    }
    if events.field("torn_tail")?.as_bool()? {
        reporter.warn(
            "events.jsonl ends in a truncated line (the writer was killed mid-flush); \
             the torn tail was skipped",
        );
    }
    let unclosed = events.field("unclosed_spans")?.as_u64()?;
    if unclosed > 0 {
        reporter.warn(&format!("{unclosed} spans never closed (events lost to a crash)"));
    }
    reporter.info(&format!(
        "report written to {} (open {} at https://ui.perfetto.dev)",
        store.report_path().display(),
        store.chrome_trace_path().display()
    ));
    Ok(())
}

/// One side of a comparison: the algorithm and `metrics.json` of a
/// finished run directory.
fn load_side(path: &str) -> Result<(String, Value), CliError> {
    let store = RunStore::open(path)?;
    if !store.metrics_path().is_file() {
        return Err(fail(format!(
            "{path} has no metrics.json — the run has not finished (resume it first)"
        )));
    }
    let metrics = read_json(&store.metrics_path())?;
    let algorithm = metrics.field("algorithm")?.as_str()?.to_owned();
    Ok((algorithm, metrics))
}

/// Final PHV and evaluation throughput for one `metrics.json`-shaped
/// value. Either may be absent (e.g. a run without telemetry).
fn run_stats(metrics: &Value) -> (Option<f64>, Option<f64>) {
    let Some(telemetry) = metrics.field_opt("telemetry") else { return (None, None) };
    let phv = telemetry
        .field_opt("phv_per_generation")
        .and_then(|s| s.as_array().ok())
        .and_then(|s| s.last())
        .and_then(|v| v.as_f64().ok());
    let rate = telemetry.field_opt("evals_per_sec").and_then(|v| v.as_f64().ok());
    (phv, rate)
}

fn pct(delta: f64) -> String {
    format!("{:+.2}%", delta * 100.0)
}

/// The `moela-dse compare <baseline> <candidate>` body: prints the PHV
/// and throughput deltas of two runs of one algorithm and fails with
/// [`REGRESSION_EXIT_CODE`] when the candidate regresses past
/// `thresholds`.
pub(crate) fn compare_runs(
    baseline: &str,
    candidate: &str,
    thresholds: &CompareThresholds,
) -> Result<(), CliError> {
    let (algorithm, base_metrics) = load_side(baseline)?;
    let (cand_algorithm, cand_metrics) = load_side(candidate)?;
    if cand_algorithm != algorithm {
        return Err(fail(format!(
            "the baseline ran {algorithm} but the candidate ran {cand_algorithm}: \
             compare needs two runs of the same algorithm"
        )));
    }
    let (base_phv, base_rate) = run_stats(&base_metrics);
    let (cand_phv, cand_rate) = run_stats(&cand_metrics);
    let relative = |b: Option<f64>, c: Option<f64>| match (b, c) {
        (Some(b), Some(c)) if b > 0.0 => Some((c - b) / b),
        _ => None,
    };
    let phv_delta = relative(base_phv, cand_phv);
    let rate_delta = relative(base_rate, cand_rate);
    println!("comparing {candidate} against baseline {baseline}");
    println!(
        "{:<12} {:>12} {:>12} {:>9}   {:>12} {:>12} {:>9}",
        "algorithm", "base PHV", "cand PHV", "ΔPHV", "base ev/s", "cand ev/s", "Δrate"
    );
    println!(
        "{:<12} {:>12} {:>12} {:>9}   {:>12} {:>12} {:>9}",
        algorithm,
        base_phv.map_or("-".into(), |v| format!("{v:.4}")),
        cand_phv.map_or("-".into(), |v| format!("{v:.4}")),
        phv_delta.map_or("-".into(), pct),
        base_rate.map_or("-".into(), |v| format!("{v:.1}")),
        cand_rate.map_or("-".into(), |v| format!("{v:.1}")),
        rate_delta.map_or("-".into(), pct),
    );
    let mut regressions: Vec<String> = Vec::new();
    if let Some(d) = phv_delta.filter(|&d| d < -thresholds.max_phv_regression) {
        regressions.push(format!(
            "{algorithm}: PHV regressed {} (threshold {})",
            pct(d),
            pct(-thresholds.max_phv_regression)
        ));
    }
    if let Some(d) = rate_delta.filter(|&d| d < -thresholds.max_rate_regression) {
        regressions.push(format!(
            "{algorithm}: throughput regressed {} (threshold {})",
            pct(d),
            pct(-thresholds.max_rate_regression)
        ));
    }
    if !regressions.is_empty() {
        return Err(CliError {
            message: format!("regression detected:\n  {}", regressions.join("\n  ")),
            code: REGRESSION_EXIT_CODE,
            class: ErrorClass::Fatal,
        });
    }
    println!(
        "no regression past thresholds (PHV {:.1}%, rate {:.1}%)",
        thresholds.max_phv_regression * 100.0,
        thresholds.max_rate_regression * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(phv: f64, rate: f64) -> Value {
        Value::object(vec![
            ("algorithm", Value::Str("moela".into())),
            (
                "telemetry",
                Value::object(vec![
                    ("evals_per_sec", Value::F64(rate)),
                    ("phv_per_generation", Value::Array(vec![Value::F64(0.1), Value::F64(phv)])),
                ]),
            ),
        ])
    }

    #[test]
    fn run_stats_reads_the_last_phv_and_the_rate() {
        let (phv, rate) = run_stats(&metrics(0.75, 123.5));
        assert_eq!(phv, Some(0.75));
        assert_eq!(rate, Some(123.5));
        assert_eq!(run_stats(&Value::object(vec![])), (None, None));
    }

    #[test]
    fn compare_detects_regressions_with_exit_code_3() {
        let dir = std::env::temp_dir().join(format!("moela-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A finished run directory holds a manifest and its metrics.json.
        let run_dir = |name: &str, metrics: Value| {
            let run = dir.join(name);
            std::fs::create_dir_all(&run).unwrap();
            std::fs::write(run.join("manifest.json"), "{}").unwrap();
            std::fs::write(run.join("metrics.json"), moela_persist::encode::to_string(&metrics))
                .unwrap();
            run.to_string_lossy().into_owned()
        };
        let run = run_dir("run", metrics(0.80, 100.0));
        // Doctored copies of the run serve as baselines it regresses against.
        let faster = run_dir("faster", metrics(0.80, 1000.0));
        let better = run_dir("better", metrics(0.95, 100.0));
        let thresholds = CompareThresholds::default();
        assert!(compare_runs(&run, &run, &thresholds).is_ok());
        let err = compare_runs(&faster, &run, &thresholds).expect_err("rate regression");
        assert_eq!(err.code, REGRESSION_EXIT_CODE);
        assert!(err.message.contains("throughput"), "{}", err.message);
        let err = compare_runs(&better, &run, &thresholds).expect_err("phv regression");
        assert_eq!(err.code, REGRESSION_EXIT_CODE);
        assert!(err.message.contains("PHV"), "{}", err.message);
        let metrics_file = format!("{run}/metrics.json");
        let err = compare_runs(&metrics_file, &run, &thresholds).expect_err("not a run dir");
        assert_ne!(err.code, REGRESSION_EXIT_CODE);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
