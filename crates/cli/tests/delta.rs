//! Delta evaluation end-to-end. Every run takes the incremental move
//! fast path; its bit-for-bit parity with full evaluation, for every
//! optimizer and under chaos, is checked in-process by the engine's unit
//! tests. Here:
//!
//! * `metrics.json` reports the delta hit/fallback counters per run;
//! * kill + resume with the fast path reproduces the uninterrupted run
//!   byte for byte;
//! * the retired `--eval-delta` switch is an unknown flag, and manifests
//!   that still record it (or the older `eval_cache`) resume unchanged.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moela-delta-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Standard tiny run (the golden-test configuration).
fn run_algorithm(algorithm: &str, dir: &Path) {
    let args = [
        "run",
        "--app",
        "BFS",
        "--objectives",
        "3",
        "--algorithm",
        algorithm,
        "--budget",
        "120",
        "--population",
        "8",
        "--seed",
        "7",
        "--run-dir",
        dir.to_str().expect("utf-8 path"),
    ];
    let out = moela_dse(&args);
    assert!(
        out.status.success(),
        "{algorithm} run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Pulls the `"delta":{...}` object out of a metrics.json body. The
/// object holds only flat fields, so it ends at the first `}`.
fn delta_object(metrics: &str) -> &str {
    let tail = metrics.split("\"delta\":{").nth(1).expect("metrics.json has a delta object");
    tail.split('}').next().expect("the delta object closes")
}

fn counter_in(object: &str, name: &str) -> u64 {
    let tail = object.split(&format!("\"{name}\":")).nth(1).unwrap_or_else(|| {
        panic!("delta object lacks {name}: {object}");
    });
    tail.chars().take_while(char::is_ascii_digit).collect::<String>().parse().expect("integer")
}

/// MOOS descends through neighbor batches, so its runs must actually
/// exercise the fast path.
#[test]
fn metrics_report_delta_counters() {
    let dir = scratch("metrics-on");
    run_algorithm("moos", &dir);
    let metrics = String::from_utf8(read(&dir.join("metrics.json"))).expect("utf-8 metrics");
    let delta = delta_object(&metrics);
    assert!(counter_in(delta, "hits") > 0, "descents must hit the delta path: {delta}");
    let _ = fs::remove_dir_all(&dir);
}

/// Runs the golden MOELA configuration into `dir` and aborts it after
/// its first checkpoint.
fn crash_after_one_checkpoint(dir: &Path) {
    let args = [
        "run",
        "--app",
        "BFS",
        "--objectives",
        "3",
        "--algorithm",
        "moela",
        "--budget",
        "120",
        "--population",
        "8",
        "--seed",
        "7",
        "--run-dir",
        dir.to_str().expect("utf-8 path"),
        "--crash-after-checkpoints",
        "1",
    ];
    let out = moela_dse(&args);
    assert!(!out.status.success(), "crash injection must abort the process");
}

/// A run resumed with the fast path still matches the golden
/// uninterrupted output byte for byte.
#[test]
fn crash_resume_with_delta_is_bit_identical() {
    let full = scratch("resume-full");
    run_algorithm("moela", &full);

    let crashed = scratch("resume-crashed");
    let crashed_dir = crashed.to_str().expect("utf-8 path");
    crash_after_one_checkpoint(&crashed);
    let out = moela_dse(&["resume", crashed_dir, "--threads", "4"]);
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    for file in ["trace.csv", "front.csv"] {
        assert_eq!(
            read(&full.join(file)),
            read(&crashed.join(file)),
            "{file} differs after crash+resume with the delta fast path enabled"
        );
    }
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}

/// Manifests written while `--eval-cache` or `--eval-delta` existed
/// carry their keys; resume accepts and ignores them, whatever their
/// value, and finishes byte-identical to an uninterrupted run.
#[test]
fn manifests_with_retired_keys_resume_byte_identically() {
    let full = scratch("retired-full");
    run_algorithm("moela", &full);
    for (tag, entry) in [
        ("eval-cache", "\"eval_cache\":4096,"),
        ("delta-on", "\"eval_delta\":true,"),
        ("delta-off", "\"eval_delta\":false,"),
    ] {
        let crashed = scratch(&format!("retired-{tag}"));
        crash_after_one_checkpoint(&crashed);
        let manifest = crashed.join("manifest.json");
        let text = String::from_utf8(read(&manifest)).expect("manifest is UTF-8");
        for retired in ["eval_cache", "eval_delta"] {
            assert!(!text.contains(retired), "new manifests do not record {retired}: {text}");
        }
        assert!(text.contains("\"format\":1,"), "manifest format field moved? {text}");
        let doctored = text.replace("\"format\":1,", &format!("\"format\":1,{entry}"));
        fs::write(&manifest, doctored).expect("rewrite manifest");

        let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path")]);
        assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
        for file in ["trace.csv", "front.csv"] {
            assert_eq!(read(&full.join(file)), read(&crashed.join(file)), "{tag}: {file} differs");
        }
        let _ = fs::remove_dir_all(&crashed);
    }
    let _ = fs::remove_dir_all(&full);
}

#[test]
fn the_retired_eval_delta_flag_is_an_unknown_flag() {
    let out = moela_dse(&["run", "--eval-delta", "on"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--eval-delta'"), "{stderr}");
}
