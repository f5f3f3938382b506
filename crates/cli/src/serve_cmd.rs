//! The `moela-dse serve` subcommand: plugs the CLI's run engine into
//! the embedded `moela-serve` job server.
//!
//! The [`DseRunner`] is the serve-side [`JobRunner`]: it validates a
//! submission spec with the same rules the flag parser applies, then
//! drives the job through `engine::run` — or `engine::resume` when the
//! job's directory already holds checkpoints from a previous server
//! life — so served artifacts are byte-identical to `moela-dse run`
//! with the same configuration.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use moela_obs::LogLevel;
use moela_persist::{RunStore, Value};
use moela_serve::{
    JobContext, JobRunner, ReportBuilder, RunError, RunOutcome, ServeConfig, Server,
};

use crate::args::{ResumeOverrides, RunOptions, ServeOptions};
use crate::engine::{self, fail, CliError, ErrorClass, ExecHooks, RunStatus};

/// The spec key for the per-job wall-clock deadline: server-side state
/// that rides beside the run configuration.
const TIMEOUT_KEY: &str = "timeout_s";

/// Translates a submission spec into [`RunOptions`] through the same
/// codec that reads manifests. Unknown keys are errors, so a typo
/// (`"algorthm"`) fails loudly instead of running defaults; absent keys
/// take the same defaults as the `run` flags, except the checkpoint
/// cadence which falls back to the server's `--checkpoint-every` so
/// every served job is resumable.
fn spec_to_options(spec: &Value, default_checkpoint_every: u64) -> Result<RunOptions, String> {
    // Served jobs log through job.json and events.jsonl, not the server's
    // stdout; interactive progress painting makes no sense here either.
    let defaults = RunOptions {
        checkpoint_every: default_checkpoint_every,
        log_level: LogLevel::Quiet,
        ..Default::default()
    };
    let opts = defaults.decode(spec, &[TIMEOUT_KEY], false).map_err(|e| e.message)?;
    // `timeout_s` is validated here (so submission rejects it loudly)
    // but enforced by the server's supervisor, not the run engine.
    timeout_from_spec(spec)?;
    Ok(opts)
}

/// Extracts and validates the optional per-job wall-clock deadline. The
/// engine never sees it — the server's supervisor enforces it at step
/// boundaries through the cancel seam.
fn timeout_from_spec(spec: &Value) -> Result<Option<u64>, String> {
    match spec.field_opt(TIMEOUT_KEY) {
        Some(v) => {
            let secs = v
                .as_u64()
                .map_err(|_| "spec key 'timeout_s' must be a positive integer (seconds)")?;
            if secs == 0 {
                return Err("spec key 'timeout_s' must be at least 1 second".into());
            }
            Ok(Some(secs))
        }
        None => Ok(None),
    }
}

/// Renders the effective configuration back into a spec object. This is
/// what gets persisted in `job.json`, so a restarted server re-derives
/// the identical [`RunOptions`] without reparsing the client's input.
fn normalized_spec(opts: &RunOptions) -> Value {
    Value::object(opts.encode())
}

/// True when `dir` is a previous life of a job: a run store (manifest)
/// whose checkpoint rotation holds at least one completed checkpoint.
/// Anything less is a fresh start (a job interrupted before its first
/// checkpoint reruns from scratch — same bytes either way). The rotation
/// only lists completed `ckpt-*.json` files: a crash mid-write leaves a
/// `.tmp` sibling behind, and that alone must not route a job into
/// `resume`, which would find nothing usable and fail it.
fn resumable(dir: &Path) -> bool {
    RunStore::open(dir)
        .and_then(|store| store.checkpoints())
        .and_then(|checkpoints| checkpoints.sequences())
        .is_ok_and(|seqs| !seqs.is_empty())
}

/// The serve-side job runner backed by the CLI's own engine.
pub(crate) struct DseRunner {
    /// Checkpoint cadence for specs that do not set one (the server's
    /// `--checkpoint-every`).
    default_checkpoint_every: u64,
}

impl JobRunner for DseRunner {
    fn validate(&self, spec: &Value) -> Result<Value, String> {
        let opts = spec_to_options(spec, self.default_checkpoint_every)?;
        let mut normalized = normalized_spec(&opts);
        // The deadline is server-side state, not a RunOptions field, so
        // it must ride the normalized spec to survive in job.json.
        if let Some(secs) = timeout_from_spec(spec)? {
            if let Value::Object(fields) = &mut normalized {
                fields.push((TIMEOUT_KEY.to_owned(), Value::U64(secs)));
            }
        }
        Ok(normalized)
    }

    fn run(&self, ctx: JobContext<'_>) -> Result<RunOutcome, RunError> {
        let hooks = ExecHooks {
            cancel: Some(&ctx.cancel),
            live: Some(ctx.live),
            heartbeat: Some(ctx.heartbeat),
            attempt: ctx.attempt,
        };
        let dir = ctx.dir.to_string_lossy().into_owned();
        let status = if resumable(ctx.dir) {
            let overrides =
                ResumeOverrides { log_level: Some(LogLevel::Quiet), ..Default::default() };
            engine::resume(&dir, &overrides, &hooks)
        } else {
            let mut opts = spec_to_options(ctx.spec, self.default_checkpoint_every)?;
            opts.run_dir = Some(dir);
            engine::run(&opts, &hooks)
        };
        match status {
            Ok(RunStatus::Completed { summary }) => Ok(RunOutcome::Completed { summary }),
            Ok(RunStatus::Interrupted) => Ok(RunOutcome::Interrupted),
            // The engine's classification drives the supervisor: only
            // transient and disk failures feed retry-with-backoff.
            Err(e) => Err(match e.class {
                ErrorClass::Fatal => RunError::permanent(e.message),
                ErrorClass::Transient => RunError::transient(e.message),
                ErrorClass::Disk => RunError::disk(e.message),
            }),
        }
    }
}

/// The `moela-dse serve` body: binds, announces the address, serves
/// until a `POST /shutdown` drain completes, then returns cleanly.
pub(crate) fn serve(opts: &ServeOptions) -> Result<(), CliError> {
    let mut config = ServeConfig::new(opts.addr.clone(), PathBuf::from(&opts.run_root));
    config.workers = opts.workers;
    config.queue_depth = opts.queue_depth;
    config.supervise.max_attempts = opts.max_attempts;
    config.supervise.retry_base = Duration::from_millis(opts.retry_base_ms);
    config.supervise.stall_timeout = Duration::from_secs(opts.stall_timeout_s);
    config.supervise.stall_grace = Duration::from_secs(opts.stall_grace_s);
    // `GET /jobs/{id}/report` builds the same analysis document as
    // `moela-dse report`, minus the on-disk artifacts (the endpoint is
    // read-only over the job's run store).
    config.report_builder = Some(ReportBuilder::new(|dir| {
        crate::analysis::build_report(dir).map(|(report, _)| report).map_err(|e| e.message)
    }));
    let runner = Arc::new(DseRunner { default_checkpoint_every: opts.checkpoint_every });
    let server = Server::bind(config, runner)
        .map_err(|e| fail(format!("cannot start server on {}: {e}", opts.addr)))?;
    let addr = server.local_addr().map_err(|e| fail(format!("cannot read bound address: {e}")))?;
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, addr.to_string())
            .map_err(|e| fail(format!("cannot write address file '{path}': {e}")))?;
    }
    println!("moela-dse serve listening on http://{addr} (run root {})", opts.run_root);
    println!("  POST /jobs to submit, GET /jobs to list, POST /shutdown to drain");
    server.run().map_err(|e| fail(format!("server failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Algorithm, Chaos};
    use moela_manycore::ObjectiveSet;
    use moela_moo::fault::FaultPolicy;
    use moela_moo::normalize::Normalizer;
    use moela_moo::ChaosSpec;
    use moela_serve::{JobManager, JobState, ServerMetrics, SupervisePolicy};
    use moela_traffic::Benchmark;

    #[test]
    fn only_a_manifest_with_a_completed_checkpoint_resumes() {
        let dir = std::env::temp_dir().join(format!("moela-resumable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpoints = dir.join("checkpoints");
        std::fs::create_dir_all(&checkpoints).unwrap();
        std::fs::write(checkpoints.join("ckpt-00000003.json"), "{}").unwrap();
        assert!(!resumable(&dir), "no manifest: not a run store");
        std::fs::remove_file(checkpoints.join("ckpt-00000003.json")).unwrap();
        std::fs::write(dir.join("manifest.json"), "{}").unwrap();
        std::fs::write(checkpoints.join("ckpt-00000003.json.41.0.tmp"), "{").unwrap();
        assert!(!resumable(&dir), "a stranded .tmp is not a checkpoint");
        std::fs::write(checkpoints.join("ckpt-00000003.json"), "{}").unwrap();
        assert!(resumable(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn specs_reject_unknown_keys_and_bad_values() {
        let err =
            spec_to_options(&Value::object(vec![("algorthm", Value::Str("moela".into()))]), 1)
                .expect_err("typo");
        assert!(err.contains("algorthm"), "{err}");
        let err = spec_to_options(&Value::Array(Vec::new()), 1).expect_err("not an object");
        assert!(err.contains("object"), "{err}");
        let err = spec_to_options(&Value::object(vec![("budget", Value::U64(0))]), 1)
            .expect_err("zero budget");
        assert!(err.contains("--budget"), "{err}");
        // The chaos-needs-seed contradiction applies to specs too.
        let err =
            spec_to_options(&Value::object(vec![("chaos", Value::Str("panic=0.5".into()))]), 1)
                .expect_err("chaos without seed");
        assert!(err.contains("chaos-seed"), "{err}");
    }

    #[test]
    fn specs_normalize_with_run_defaults() {
        let spec = Value::object(vec![
            ("algorithm", Value::Str("nsga2".into())),
            ("budget", Value::U64(120)),
            ("seed", Value::U64(5)),
        ]);
        let opts = spec_to_options(&spec, 7).expect("ok");
        assert_eq!(opts.algorithm, Algorithm::Nsga2);
        assert_eq!(opts.budget, 120);
        assert_eq!(opts.seed, 5);
        assert_eq!(opts.checkpoint_every, 7, "server default cadence applies");
        assert_eq!(opts.population, RunOptions::default().population);
        assert_eq!(opts.log_level, LogLevel::Quiet);

        let normalized = normalized_spec(&opts);
        let reparsed = spec_to_options(&normalized, 1).expect("normalized specs revalidate");
        assert_eq!(reparsed, opts, "normalization round-trips");
    }

    #[test]
    fn timeout_s_validates_and_rides_the_normalized_spec() {
        let err = timeout_from_spec(&Value::object(vec![("timeout_s", Value::U64(0))]))
            .expect_err("zero deadline");
        assert!(err.contains("at least 1"), "{err}");
        let err = timeout_from_spec(&Value::object(vec![("timeout_s", Value::Str("5s".into()))]))
            .expect_err("non-integer deadline");
        assert!(err.contains("positive integer"), "{err}");
        assert_eq!(timeout_from_spec(&Value::object(vec![])).expect("absent is fine"), None);

        let runner = DseRunner { default_checkpoint_every: 1 };
        let spec = Value::object(vec![("budget", Value::U64(50)), ("timeout_s", Value::U64(7))]);
        let normalized = runner.validate(&spec).expect("valid spec");
        assert_eq!(
            normalized.field("timeout_s").and_then(|v| v.as_u64()).ok(),
            Some(7),
            "the deadline must survive normalization so a restarted server still enforces it"
        );
        // And the normalized spec (now carrying timeout_s) revalidates.
        runner.validate(&normalized).expect("normalized specs revalidate");
    }

    /// Options that set every encoded key away from its default.
    fn configurations() -> Vec<RunOptions> {
        let chaos =
            Chaos { spec: ChaosSpec::parse("panic=0.03,nan=0.25").expect("spec"), seed: 41 };
        let mut all = Vec::new();
        for (algorithm, _) in Algorithm::ALL {
            for set in [ObjectiveSet::Three, ObjectiveSet::Four, ObjectiveSet::Five] {
                for chaos in [None, Some(chaos)] {
                    all.push(RunOptions {
                        algorithm,
                        app: Benchmark::Srad,
                        set,
                        budget: 321,
                        population: 12,
                        seed: 99,
                        threads: 3,
                        time_guard: Duration::from_secs(45),
                        checkpoint_every: 2,
                        fault_policy: FaultPolicy::Skip,
                        eval_retries: 2,
                        chaos,
                        log_level: LogLevel::Quiet,
                        ..Default::default()
                    });
                }
            }
        }
        all
    }

    #[test]
    fn the_codec_round_trips_through_manifests_and_specs() {
        let normalizer = |n: usize| Normalizer::fit(&[vec![0.0; n], vec![1.0; n]]);
        for opts in configurations() {
            let manifest = engine::manifest_value(&opts, &normalizer(opts.set.count()));
            let (decoded, _) = engine::options_from_manifest(&manifest).expect("manifest decodes");
            assert_eq!(decoded, RunOptions { log_level: LogLevel::Info, ..opts.clone() });

            let decoded = spec_to_options(&normalized_spec(&opts), 1).expect("spec decodes");
            assert_eq!(decoded, opts);
        }
        let defaults = RunOptions::default();
        let manifest = engine::manifest_value(&defaults, &normalizer(3));
        let (decoded, _) = engine::options_from_manifest(&manifest).expect("manifest decodes");
        assert_eq!(decoded, defaults, "fail policy, no retries and no chaos round-trip too");
    }

    /// Submits `spec` to an in-process manager and returns the finished
    /// job's `trace.csv` and `front.csv`.
    fn served_artifacts(tag: &str, spec: &Value) -> (Vec<u8>, Vec<u8>) {
        let root =
            std::env::temp_dir().join(format!("moela-serve-cmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let manager = JobManager::start(
            root.clone(),
            1,
            1,
            SupervisePolicy::default(),
            Arc::new(DseRunner { default_checkpoint_every: 1 }),
            Arc::new(ServerMetrics::new()),
        )
        .expect("start manager");
        let record = manager.submit(spec).expect("submit");
        let deadline = std::time::Instant::now() + Duration::from_secs(300);
        while record.state() != JobState::Done {
            let state = record.state();
            assert!(
                matches!(state, JobState::Queued | JobState::Running),
                "job ended {state:?}: {:?}",
                record.error()
            );
            assert!(std::time::Instant::now() < deadline, "job never finished");
            std::thread::sleep(Duration::from_millis(20));
        }
        manager.drain();
        let read = |file| std::fs::read(record.dir.join(file)).expect("artifact");
        let artifacts = (read("trace.csv"), read("front.csv"));
        let _ = std::fs::remove_dir_all(&root);
        artifacts
    }

    #[test]
    fn specs_with_retired_keys_are_accepted_and_run_identically() {
        let spec = |retired: Option<(&'static str, Value)>| {
            let mut fields = vec![
                ("app", Value::Str("BFS".into())),
                ("objectives", Value::U64(3)),
                ("algorithm", Value::Str("moos".into())),
                ("budget", Value::U64(120)),
                ("population", Value::U64(8)),
                ("seed", Value::U64(7)),
            ];
            fields.extend(retired);
            Value::object(fields)
        };
        let plain = spec(None);
        let cache = spec(Some(("eval_cache", Value::U64(4096))));
        let delta_off = spec(Some(("eval_delta", Value::Bool(false))));
        let expected = spec_to_options(&plain, 1).expect("plain spec");
        for retired in [&cache, &delta_off] {
            let opts = spec_to_options(retired, 1).expect("the retired key is accepted");
            assert_eq!(opts, expected, "the retired key's value is ignored");
        }
        let reference = served_artifacts("plain", &plain);
        assert_eq!(served_artifacts("eval-cache", &cache), reference);
        assert_eq!(served_artifacts("eval-delta-off", &delta_off), reference);
    }
}
