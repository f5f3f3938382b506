#!/usr/bin/env python3
"""perfbench: the repository benchmark for the moela-dse design-space explorer.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark builds `moela-dse` and the traced harness (perfbench/harness)
from source into $CARGO_TARGET_DIR (default `.bench_build`), then drives one
workload for about `--seconds` seconds:

  --trace 0  end-to-end: repeated `moela-dse run` invocations, or a closed
             loop of jobs against `moela-dse serve`. Prints every end-to-end
             metric.
  --trace 1  per layer: one untraced reference run, the same configuration
             served as a job, and repeated traced in-process replays through
             the harness. Prints every per-layer metric and a "where the time
             went" table.

Every run is checked against the digests recorded at the seed commit in
perfbench/baseline.json (see perfbench/record.py). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
Workloads, metrics and the reasons for them are in perfbench/NOTES.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
WORK = os.path.join(ROOT, ".bench_work")

# `--threads 1`, one server worker and one client connection at a time: the
# load comes from one process, so results do not depend on the core count.
WORKLOADS = {
    "ea-offspring": {
        "kind": "run", "algorithm": "nsga2", "app": "HOT", "objectives": 3,
        "budget": 5000, "population": 24, "target_fraction": 0.25, "pool": 4,
    },
    "moela-5obj": {
        "kind": "run", "algorithm": "moela", "app": "HOT", "objectives": 5,
        "budget": 4000, "population": 24, "target_fraction": 0.25, "pool": 5,
    },
    "stage-surrogate": {
        "kind": "run", "algorithm": "moo-stage", "app": "HOT", "objectives": 3,
        "budget": 1500, "population": 24, "target_fraction": 0.25, "pool": 6,
    },
    "serve-jobs": {
        "kind": "serve", "algorithm": "moela", "app": "BFS", "objectives": 3,
        "budget": 400, "population": 24, "target_fraction": 0.5, "pool": 36,
    },
}

END_TO_END = [
    ("evals_per_s", "1/s"),
    ("time_to_target_s", "s"),
    ("setup_s", "s"),
    ("phv", "phv"),
    ("peak_rss_mb", "MB"),
    ("job_turnaround_s", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
]

PER_LAYER = [
    ("manycore.full_eval.count", "count"),
    ("manycore.full_eval.self_s", "s"),
    ("manycore.full_eval.us_p50", "us"),
    ("manycore.neighbor_eval.count", "count"),
    ("manycore.neighbor_eval.us_p50", "us"),
    ("manycore.delta.hit_ratio", "ratio"),
    ("manycore.delta.attempts", "count"),
    ("manycore.routing.build_us", "us"),
    ("manycore.routing.dijkstra_runs.computed", "count"),
    ("manycore.scoring.us", "us"),
    ("manycore.operators.self_s", "s"),
    ("ml.forest_fit.ms", "ms"),
    ("ml.forest_predict.us", "us"),
    ("moo.hypervolume.ms", "ms"),
    ("moo.pareto.sort_ms", "ms"),
    ("step.count", "count"),
    ("step.self_s", "s"),
    ("step.ms_p50", "ms"),
    ("persist.checkpoint.count", "count"),
    ("persist.checkpoint.bytes", "bytes"),
    ("persist.checkpoint.save_ms_p50", "ms"),
    ("persist.snapshot.ms_p50", "ms"),
    ("obs.events.lines", "count"),
    ("serve.request_ms_p50.submit", "ms"),
    ("serve.request_ms_p50.status", "ms"),
    ("serve.request_ms_p50.front", "ms"),
    ("serve.request_ms_p50.report", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

TILES = 64  # the paper platform: 4 x 4 x 4
MIN_REPEATS = 2
SETUP_PROBES = 5  # server start-ups per serve-jobs run, for the setup_s median
POLL_S = 0.02  # the closed-loop client's fixed status-poll interval
CHILD_TIMEOUT_S = 150


class Failures:
    """Failed operations against the number attempted, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def attempt(self, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.reasons.extend(problems)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def percentile(values, p):
    """Linear-interpolated percentile of `values` (0 <= p <= 100)."""
    v = sorted(values)
    if not v:
        return 0.0
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def tail_percentile(n):
    """The highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if n * (100.0 - p) >= 1000.0 - 1e-6:
            best = p
    return best


def median(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Build, fingerprint, inputs
# --------------------------------------------------------------------------


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds moela-dse and the harness; returns their paths or None."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        log("perfbench: no moela-dse sources beside perfbench/ (crates/cli is missing)")
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "moela-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "harness", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "moela-dse"), os.path.join(release, "perfbench-harness")


def fingerprint():
    """nproc, CPU model, rustc and the source revision the numbers belong to."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass

    def out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    commit = out(["git", "rev-parse", "HEAD"]) if os.path.exists(os.path.join(ROOT, ".git")) else None
    if commit is None:
        # Not a git checkout: name the sources by content instead.
        h = hashlib.sha256()
        for base in ("Cargo.toml", "Cargo.lock", "crates", "shims"):
            path = os.path.join(ROOT, base)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
            for name in files:
                h.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    h.update(f.read())
        commit = "source-sha256:" + h.hexdigest()[:16]
    return {"nproc": os.cpu_count(), "cpu": cpu, "rustc": out(["rustc", "-V"]), "commit": commit}


def workload_seeds(name, seed):
    """The workload seeds a run uses, in order: every seed of the workload's
    recorded pool, starting at the one the benchmark seed picks."""
    pool = WORKLOADS[name]["pool"]
    return [1 + (seed + i) % pool for i in range(pool)]


def check_outputs(run_dir, recorded, label):
    """Problems with a finished run's deterministic outputs, compared with the
    digests and PHV recorded at the seed commit."""
    problems = []
    if recorded is None:
        return [f"{label}: no recorded digests for this seed"]
    for name in ("front.json", "trace.json"):
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{label}: {name} missing")
        elif sha256(path) != recorded[name.split(".")[0]]:
            problems.append(f"{label}: {name} differs from the recorded digest")
    try:
        phv = read_json(os.path.join(run_dir, "trace.json"))["points"][-1]["phv"]
        if phv != recorded["phv"]:
            problems.append(f"{label}: final PHV {phv!r} != recorded {recorded['phv']!r}")
    except (OSError, ValueError, KeyError, IndexError):
        problems.append(f"{label}: trace.json unreadable")
    return problems


def counter_drift(first, rep, label):
    """Problems if the exact counters of traced repeat `rep` differ from
    those of the first repeat of the same configuration."""
    def exact(r):
        return {
            "full_eval": r["full_eval"]["count"],
            "neighbor_eval": r["neighbor_eval"]["count"],
            "delta_hits": r["delta_hits"],
            "delta_fallbacks": r["delta_fallbacks"],
            "step": r["step"]["count"],
            "checkpoint": r["checkpoint"]["count"],
        }
    want = exact(first)
    return [f"{label}: exact counter {k} drifted: {v} != {want[k]}"
            for k, v in exact(rep).items() if v != want[k]]


def result(fails, metrics):
    """The benchmark's last output line."""
    return {"correct": fails.failed == 0, "attempted": fails.attempted, "failed": fails.failed,
            "metrics": metrics}


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_run(run_dir):
    """The parts of a finished run directory the metrics come from:
    (events.jsonl events, trace.json points, metrics.json wall seconds)."""
    with open(os.path.join(run_dir, "events.jsonl")) as f:
        events = [json.loads(line) for line in f if line.strip()]
    points = read_json(os.path.join(run_dir, "trace.json"))["points"]
    wall_s = read_json(os.path.join(run_dir, "metrics.json"))["telemetry"]["wall_us"] / 1e6
    return events, points, wall_s


def target_offset_s(events, target):
    """Seconds from the run's telemetry start until the PHV gauge first
    reaches `target`, or None."""
    for e in events:
        if e.get("type") == "gauge" and e.get("name") == "phv" and e["value"] >= target:
            return e["t_us"] / 1e6
    return None


def step_gaps_ms(events):
    """Milliseconds between consecutive step boundaries (the `generations`
    counter the optimizers emit once per step), starting at run_start."""
    marks = [0] + [e["t_us"] for e in events if e.get("type") == "counter" and e.get("name") == "generations"]
    return [(b - a) / 1e3 for a, b in zip(marks, marks[1:])]


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


def peak_rss_mb(pid):
    """The process's resident-memory high-water mark (VmHWM) in MB. Unlike
    the wait4 rusage, it does not count the memory of this Python process
    that the child shared before its exec."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def wait_child(proc, timeout):
    """Waits for `proc`, killing it after `timeout` s. Returns the exit code
    (None if killed), the time it exited, and the peak resident memory seen
    while it ran. A thread blocks in waitpid so the exit time is exact while
    this one samples memory only every 20 ms: a busy poll would compete with
    the child for the host's cores."""
    exited = []
    waiter = threading.Thread(target=lambda: exited.append((proc.wait(), time.perf_counter())))
    waiter.start()
    deadline = time.monotonic() + timeout
    peak = 0.0
    while waiter.is_alive():
        peak = max(peak, peak_rss_mb(proc.pid))
        if time.monotonic() > deadline:
            proc.kill()
            waiter.join()
            return None, exited[0][1], peak
        waiter.join(0.02)
    return exited[0][0], exited[0][1], peak


def run_args(spec, seed, run_dir):
    return [
        "run", "--app", spec["app"], "--objectives", str(spec["objectives"]),
        "--algorithm", spec["algorithm"], "--budget", str(spec["budget"]),
        "--population", str(spec["population"]), "--seed", str(seed), "--threads", "1",
        "--run-dir", run_dir, "--log-level", "quiet",
    ]


def cli_run(dse, spec, seed, run_dir, recorded, label):
    """One `moela-dse run`, timed from outside. Returns (sample, problems)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    manifest = os.path.join(run_dir, "manifest.json")
    t0 = time.perf_counter()
    proc = subprocess.Popen([dse] + run_args(spec, seed, run_dir), stdout=subprocess.DEVNULL)
    setup = None
    try:
        # The manifest is written after the platform, workload and the
        # 200-design normalizer corpus are built, just before the first step.
        while setup is None and proc.poll() is None:
            if os.path.exists(manifest):
                setup = time.perf_counter() - t0
            else:
                time.sleep(0.001)
        code, t_exit, rss = wait_child(proc, CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = t_exit - t0
    if code != 0:
        return None, [f"{label}: moela-dse exited with {code}"]
    problems = check_outputs(run_dir, recorded, label)
    try:
        events, points, run_wall_s = read_run(run_dir)
    except (OSError, ValueError, KeyError) as e:
        return None, problems + [f"{label}: unreadable run directory: {e}"]
    offset = target_offset_s(events, recorded["target"]) if recorded else None
    if offset is None and not problems:
        problems.append(f"{label}: PHV target never reached")
    sample = {
        "seed": seed,
        "turnaround": wall,
        "setup": setup if setup is not None else wall,
        "rss_mb": rss,
        "evaluations": points[-1]["evaluations"],
        "phv": points[-1]["phv"],
        "ttt": (setup or 0.0) + (offset or 0.0),
        "steps_ms": step_gaps_ms(events),
        "events": len(events),
        "run_wall_s": run_wall_s,
    }
    return sample, problems


class Server:
    """One `moela-dse serve` process with one worker on an ephemeral port."""

    def __init__(self, dse, root):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        addr_file = os.path.join(root, "addr")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [dse, "serve", "--run-root", os.path.join(root, "runs"), "--addr", "127.0.0.1:0",
             "--addr-file", addr_file, "--workers", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.peak_mb = 0.0
        try:
            deadline = time.monotonic() + 60
            while True:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("moela-dse serve did not become ready")
                if os.path.exists(addr_file):
                    with open(addr_file) as f:
                        text = f.read().strip()
                    if text:
                        host, port = text.rsplit(":", 1)
                        self.host, self.port = host, int(port)
                        try:
                            status, _, _ = self.call("GET", "/readyz")
                        except OSError:
                            status = None
                        if status == 200:
                            break
                time.sleep(0.002)
            self.setup = time.perf_counter() - t0
        except BaseException:
            self.kill()
            raise

    def call(self, method, path, body=None):
        """One request on a fresh connection: (status, body bytes, ms)."""
        t = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        return resp.status, data, (time.perf_counter() - t) * 1e3

    def stop(self):
        """Graceful drain; returns the exit code (None if it had to be killed)."""
        self.peak_mb = peak_rss_mb(self.proc.pid)
        try:
            self.call("POST", "/shutdown")
        except OSError:
            pass
        code, _, peak = wait_child(self.proc, 60)
        self.peak_mb = max(self.peak_mb, peak)
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def serve_job(server, spec, seed, recorded, label, latencies, probe_queue=False):
    """Submits one job, polls it to a terminal state, fetches /front and
    /report. Records per-route latencies; returns (sample, problems)."""
    try:
        return _serve_job(server, spec, seed, recorded, label, latencies, probe_queue)
    except (OSError, ValueError, KeyError) as e:
        return None, [f"{label}: request failed: {e!r}"]


def _serve_job(server, spec, seed, recorded, label, latencies, probe_queue):
    body = json.dumps({
        "app": spec["app"], "objectives": spec["objectives"], "algorithm": spec["algorithm"],
        "budget": spec["budget"], "population": spec["population"], "seed": seed, "threads": 1,
    })
    t_submit = time.perf_counter()
    status, data, ms = server.call("POST", "/jobs", body)
    latencies["submit"].append(ms)
    if status != 202:
        return None, [f"{label}: submit answered {status}"]
    job = json.loads(data)
    job_id = job["id"]
    queue_wait = None
    while True:
        status, data, ms = server.call("GET", f"/jobs/{job_id}")
        latencies["status"].append(ms)
        job = json.loads(data)
        if queue_wait is None and job["state"] != "queued":
            queue_wait = (time.perf_counter() - t_submit) * 1e3
        if job["state"] not in ("queued", "running", "stalled"):
            break
        if not (probe_queue and queue_wait is None):
            time.sleep(POLL_S)
    t_done = time.perf_counter()
    if job["state"] != "done":
        return None, [f"{label}: job ended {job['state']}: {job.get('error', '')}"]
    status, front, ms = server.call("GET", f"/jobs/{job_id}/front")
    latencies["front"].append(ms)
    status_r, _, ms = server.call("GET", f"/jobs/{job_id}/report")
    latencies["report"].append(ms)
    run_dir = job["dir"]
    problems = check_outputs(run_dir, recorded, label)
    if status != 200 or status_r != 200:
        problems.append(f"{label}: /front answered {status}, /report answered {status_r}")
    elif recorded and hashlib.sha256(front).hexdigest() != recorded["front"]:
        problems.append(f"{label}: served front differs from the recorded digest")
    turnaround = t_done - t_submit
    try:
        events, _, run_wall_s = read_run(run_dir)
    except (OSError, ValueError, KeyError) as e:
        return None, problems + [f"{label}: unreadable run directory: {e}"]
    offset = target_offset_s(events, recorded["target"]) if recorded else None
    if offset is None and not problems:
        problems.append(f"{label}: PHV target never reached")
    end_s = max(e["t_us"] for e in events) / 1e6
    summary = job.get("summary", {})
    sample = {
        "seed": seed,
        "dir": run_dir,
        "turnaround": turnaround,
        "evaluations": summary.get("evaluations", 0),
        "phv": summary.get("phv", 0.0),
        # Submit-to-done, less the part of the run after the target.
        "ttt": turnaround - (end_s - (offset or 0.0)),
        "queue_wait_ms": queue_wait,
        "events": len(events),
        "run_wall_s": run_wall_s,
    }
    return sample, problems


def harness_run(harness, spec, seed, run_dir):
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [harness, "--algorithm", spec["algorithm"], "--app", spec["app"],
           "--objectives", str(spec["objectives"]), "--budget", str(spec["budget"]),
           "--population", str(spec["population"]), "--seed", str(seed), "--dir", run_dir]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no result within {CHILD_TIMEOUT_S} s"
    if r.returncode != 0:
        return None, r.stderr.strip()
    return json.loads(r.stdout.strip().splitlines()[-1]), None


# --------------------------------------------------------------------------
# Measurements
# --------------------------------------------------------------------------


def summary_row(name, unit, values, value):
    """One metric: its reported value, then the median, the highest
    percentile with ten samples beyond it, and the sample count."""
    p = tail_percentile(len(values))
    return (f"  {name:<18} {value:>12.4f} {unit:<4} median {median(values):.4f}  "
            f"p{p:g} {percentile(values, p):.4f}  n={len(values)}")


def per_seed_median(samples, get):
    """Median over the pool's seeds of each seed's median, so that every seed
    weighs the same however many passes over the pool a run made."""
    by_seed = {}
    for x in samples:
        by_seed.setdefault(x["seed"], []).append(get(x))
    return [median(v) for v in by_seed.values()]


def end_to_end(name, seed, seconds, dse, baseline, fails):
    spec = WORKLOADS[name]
    recorded = baseline[name]
    seeds = workload_seeds(name, seed)
    work = os.path.join(WORK, name)
    t_begin = time.perf_counter()

    def more(i, lasts):
        """Every seed of the pool once, then further passes while they fit."""
        return i < len(seeds) or time.perf_counter() - t_begin + median(lasts) <= seconds

    samples, requests, i = [], [], 0
    if spec["kind"] == "run":
        while more(i, [x["turnaround"] for x in samples] or [0.0]):
            s = seeds[i % len(seeds)]
            sample, problems = cli_run(dse, spec, s, os.path.join(work, "run"), recorded.get(str(s)),
                                       f"run {i} (seed {s})")
            fails.attempt(problems)
            i += 1
            if sample:
                samples.append(sample)
                requests.extend(sample["steps_ms"])
        setups = per_seed_median(samples, lambda x: x["setup"])
        rss = per_seed_median(samples, lambda x: x["rss_mb"])
    else:
        latencies = {k: [] for k in ("submit", "status", "front", "report")}
        server = Server(dse, os.path.join(work, "server"))
        try:
            while more(i, [x["turnaround"] for x in samples] or [0.0]):
                s = seeds[i % len(seeds)]
                sample, problems = serve_job(server, spec, s, recorded.get(str(s)),
                                             f"job {i} (seed {s})", latencies)
                fails.attempt(problems)
                i += 1
                if sample:
                    samples.append(sample)
        finally:
            code = server.stop()
            server.kill()
        if code != 0:
            fails.attempt([f"server: moela-dse serve exited with {code}"])
        setups, rss = [server.setup], [server.peak_mb]
        for k in range(SETUP_PROBES - 1):
            probe = Server(dse, os.path.join(work, f"probe-{k}"))
            setups.append(probe.setup)
            probe.stop()
            probe.kill()
        requests = [ms for v in latencies.values() for ms in v]
    series = {
        "evals_per_s": per_seed_median(samples, lambda x: x["evaluations"] / x["turnaround"]),
        "time_to_target_s": per_seed_median(samples, lambda x: x["ttt"]),
        "setup_s": setups,
        "phv": per_seed_median(samples, lambda x: x["phv"]),
        "peak_rss_mb": rss,
        "job_turnaround_s": per_seed_median(samples, lambda x: x["turnaround"]),
        "request_ms_p50": requests,
        "request_ms_p90": requests,
    }
    metrics, rows = {}, []
    for metric, unit in END_TO_END:
        values = series[metric]
        value = percentile(values, 90) if metric == "request_ms_p90" else median(values)
        metrics[metric] = {"value": value, "unit": unit}
        rows.append(summary_row(metric, unit, values, value))
    return metrics, rows


def traced(name, seed, seconds, dse, harness, baseline, fails):
    spec = WORKLOADS[name]
    recorded = baseline[name]
    seeds = workload_seeds(name, seed)
    work = os.path.join(WORK, name)
    latencies = {k: [] for k in ("submit", "status", "front", "report")}
    queue_waits = []

    # Untraced reference: the run the traced replays must reproduce.
    server = Server(dse, os.path.join(work, "server"))
    try:
        if spec["kind"] == "run":
            s0 = seeds[0]
            ref, problems = cli_run(dse, spec, s0, os.path.join(work, "ref"), recorded.get(str(s0)),
                                    f"reference run (seed {s0})")
            fails.attempt(problems)
            ref_dir = os.path.join(work, "ref") if ref else None
            job, problems = serve_job(server, spec, s0, recorded.get(str(s0)), f"served run (seed {s0})",
                                      latencies, probe_queue=True)
            fails.attempt(problems)
            if job:
                queue_waits.append(job["queue_wait_ms"])
        else:
            t_begin = time.perf_counter()
            i, ref = 0, None
            while i < MIN_REPEATS or time.perf_counter() - t_begin < seconds / 2:
                s = seeds[i % len(seeds)]
                job, problems = serve_job(server, spec, s, recorded.get(str(s)), f"job {i} (seed {s})",
                                          latencies, probe_queue=True)
                fails.attempt(problems)
                i += 1
                if job:
                    queue_waits.append(job["queue_wait_ms"])
                    ref = ref or job
            s0 = ref["seed"] if ref else seeds[0]
            ref_dir = ref["dir"] if ref else None
    finally:
        code = server.stop()
        server.kill()
    if code != 0:
        fails.attempt([f"server: moela-dse serve exited with {code}"])

    # Traced replays of the reference configuration.
    reps = []
    t_begin = time.perf_counter()
    while len(reps) < MIN_REPEATS or time.perf_counter() - t_begin < seconds / 2:
        out_dir = os.path.join(work, f"traced-{len(reps)}")
        rep, err = harness_run(harness, spec, s0, out_dir)
        label = f"traced run {len(reps)} (seed {s0})"
        problems = [f"{label}: harness failed: {err}"] if rep is None else []
        if rep is not None and ref_dir is not None:
            for art in ("front.json", "trace.json"):
                with open(os.path.join(out_dir, art), "rb") as a, open(os.path.join(ref_dir, art), "rb") as b:
                    if a.read() != b.read():
                        problems.append(f"{label}: {art} differs from the untraced run's")
        if rep is not None and reps:
            problems.extend(counter_drift(reps[0], rep, label))
        fails.attempt(problems)
        if rep is None:
            break
        reps.append(rep)
    if not reps or ref is None:
        return None, []

    def med(get):
        return median([get(r) for r in reps])

    first = reps[0]
    attempts = first["delta_hits"] + first["delta_fallbacks"]
    traced_wall = med(lambda r: r["run_s"])
    metrics = {
        "manycore.full_eval.count": first["full_eval"]["count"],
        "manycore.full_eval.self_s": med(lambda r: r["full_eval"]["self_s"]),
        "manycore.full_eval.us_p50": med(lambda r: r["full_eval"]["us_p50"]),
        "manycore.neighbor_eval.count": first["neighbor_eval"]["count"],
        "manycore.neighbor_eval.us_p50": med(lambda r: r["replay"]["neighbor_us"]),
        "manycore.delta.hit_ratio": first["delta_hits"] / attempts if attempts else 0.0,
        "manycore.delta.attempts": attempts,
        "manycore.routing.build_us": med(lambda r: r["replay"]["routing_build_us"]),
        "manycore.routing.dijkstra_runs.computed": first["full_eval"]["count"] * TILES,
        "manycore.scoring.us": med(lambda r: r["replay"]["scoring_us"]),
        "manycore.operators.self_s": med(lambda r: r["operators_s"]),
        "ml.forest_fit.ms": med(lambda r: r["replay"]["forest_fit_ms"]),
        "ml.forest_predict.us": med(lambda r: r["replay"]["forest_predict_us"]),
        "moo.hypervolume.ms": med(lambda r: r["replay"]["hypervolume_ms"]),
        "moo.pareto.sort_ms": med(lambda r: r["replay"]["pareto_sort_ms"]),
        "step.count": first["step"]["count"],
        "step.self_s": med(lambda r: r["step"]["self_s"]),
        "step.ms_p50": med(lambda r: r["step"]["ms_p50"]),
        "persist.checkpoint.count": first["checkpoint"]["count"],
        "persist.checkpoint.bytes": med(lambda r: r["checkpoint"]["bytes"]),
        "persist.checkpoint.save_ms_p50": med(lambda r: r["checkpoint"]["save_ms_p50"]),
        "persist.snapshot.ms_p50": med(lambda r: r["checkpoint"]["snapshot_ms_p50"]),
        "obs.events.lines": ref["events"],
        "serve.request_ms_p50.submit": median(latencies["submit"]),
        "serve.request_ms_p50.status": median(latencies["status"]),
        "serve.request_ms_p50.front": median(latencies["front"]),
        "serve.request_ms_p50.report": median(latencies["report"]),
        "serve.queue_wait_ms": median(queue_waits),
        # Traced stepping time against the untraced run's, same scope.
        "trace.overhead_pct": (traced_wall / ref["run_wall_s"] - 1.0) * 100.0,
    }
    out = {m: {"value": metrics[m], "unit": unit} for m, unit in PER_LAYER}
    return out, where_the_time_went(name, reps, ref)


def where_the_time_went(name, reps, ref):
    """Layer self times of the median traced repeat, beside stepping time,
    with the unattributed remainder named."""
    rep = sorted(reps, key=lambda r: r["run_s"])[len(reps) // 2]
    crate = "core" if WORKLOADS[name]["algorithm"] == "moela" else "baselines"
    run_s = rep["run_s"]
    parts = [
        ("manycore full evaluation", rep["full_eval"]["self_s"]),
        ("manycore neighbor evaluation", rep["neighbor_eval"]["self_s"]),
        ("manycore operators", rep["operators_s"]),
        (f"{crate} step self (optimizer, incl. surrogate)", rep["step"]["self_s"]),
        ("persist snapshot_state", rep["checkpoint"]["snapshot_s"]),
        ("persist CheckpointStore::save", rep["checkpoint"]["save_s"]),
    ]
    rows = [f"where the time went: {name}, traced run of seed {ref['seed']} "
            f"(run {run_s:.3f} s; stepping {rep['step']['total_s']:.3f} s in {rep['step']['calls']} steps; "
            f"untraced run {ref['run_wall_s']:.3f} s)"]
    for label, secs in parts:
        rows.append(f"  {label:<48} {abs(secs):>9.3f} s {100 * abs(secs) / run_s:>6.1f} %")
    rest = run_s - sum(s for _, s in parts)
    rows.append(f"  {'unattributed (start, loop, obs, finish)':<48} {rest:>9.3f} s {100 * rest / run_s:>6.1f} %")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    binaries = build()
    if binaries is None:
        return 2
    dse, harness = binaries
    baseline = read_json(BASELINE)
    print("fingerprint: " + json.dumps(fingerprint()), flush=True)
    shutil.rmtree(os.path.join(WORK, args.workload), ignore_errors=True)
    fails = Failures()
    metrics, rows = None, []
    try:
        if args.trace:
            metrics, rows = traced(args.workload, args.seed, args.seconds, dse, harness, baseline, fails)
        else:
            metrics, rows = end_to_end(args.workload, args.seed, args.seconds, dse, baseline, fails)
    except (OSError, RuntimeError) as e:
        fails.attempt([f"benchmark aborted: {e!r}"])
    if metrics is None:
        # Nothing measured: report the failure, never a number.
        metrics = {m: {"value": 0.0, "unit": u} for m, u in (PER_LAYER if args.trace else END_TO_END)}
    print(f"{args.workload} seed {args.seed}: {fails.attempted} operations, {fails.failed} failed")
    for row in rows:
        print(row)
    for reason in fails.reasons:
        print("FAILED " + reason)
    print(json.dumps(result(fails, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
