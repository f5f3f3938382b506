#!/usr/bin/env bash
# End-to-end smoke tests of the release binary: crash + resume, chaos,
# delta parity, serve, telemetry and reports. Every smoke runs on two
# parameter sets (a 120-evaluation BFS run at seed 7 and a 160-evaluation
# HOT run at seed 11), then the serve resilience suite runs.
# check.sh runs this script; run it alone after changing run behaviour.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p moela-cli
dse=target/release/moela-dse
smoke="$(mktemp -d)"
serve_pid=""
trap '[ -z "$serve_pid" ] || kill "$serve_pid" 2>/dev/null; rm -rf "$smoke"' EXIT

bfs=(--app BFS --objectives 3 --budget 120 --population 8 --seed 7)
hot=(--app HOT --objectives 3 --budget 160 --population 8 --seed 11)
chaos=(--chaos panic=0.03,nan=0.03,arity=0.02 --chaos-seed 41
    --fault-policy penalize-worst --eval-retries 1)

die() {
    echo "$*"
    exit 1
}

# same_run A B: two run directories hold byte-identical trace and front.
same_run() {
    cmp "$1/trace.csv" "$2/trace.csv"
    cmp "$1/front.csv" "$2/front.csv"
}

# section NAME FLAGS...: the JSON object NAME of a run's metrics.json.
section() {
    grep -o "\"$1\":{[^}]*}" "$2/metrics.json"
}

# crash_resume FULL CRASHED AFTER THREADS FLAGS...: a run that aborts
# after AFTER checkpoints and is resumed (at THREADS threads, if given)
# ends byte-identical to the uninterrupted run in FULL.
crash_resume() {
    local full=$1 crashed=$2 after=$3 threads=$4
    shift 4
    "$dse" run "$@" --run-dir "$crashed" --crash-after-checkpoints "$after" >/dev/null 2>&1 \
        && die "crash injection did not abort"
    "$dse" resume "$crashed" ${threads:+--threads "$threads"} >/dev/null
    same_run "$full" "$crashed"
}

# chaos_smoke DIR FLAGS...: faults are injected and contained, and a
# chaotic crash + resume is byte-identical with equal fault counters.
chaos_smoke() {
    local dir=$1
    shift
    "$dse" run "$@" "${chaos[@]}" --run-dir "$dir/chaos-full" >/dev/null
    test ! -e "$dir/chaos-full/health.json" \
        || die "health.json is retired and must no longer be written"
    section faults "$dir/chaos-full" | grep -q '"total":0' && die "chaos spec did not inject any faults"
    crash_resume "$dir/chaos-full" "$dir/chaos-crashed" 1 4 "$@" "${chaos[@]}"
    # metrics.json carries wall-clock data, so compare only the fault counters.
    [ "$(section faults "$dir/chaos-full")" = "$(section faults "$dir/chaos-crashed")" ] \
        || die "fault counters differ after chaotic crash + resume"
}

# delta_smoke DIR FLAGS...: the delta fast path gives the same bytes at
# one and four threads and actually serves hits. Its parity with full
# evaluation is checked in-process by the engine's unit tests.
delta_smoke() {
    local dir=$1
    shift
    "$dse" run "$@" --run-dir "$dir/delta-on" >/dev/null
    "$dse" run "$@" --threads 4 --run-dir "$dir/delta-on-t4" >/dev/null
    same_run "$dir/delta-on" "$dir/delta-on-t4"
    section delta "$dir/delta-on" | grep -q '"hits":0' && die "descents never hit the delta path"
    grep -q '"routing_rebuilds":[1-9]' "$dir/delta-on/metrics.json" \
        || die "no routing table was ever built"
}

# serve_smoke DIR SPEC REFERENCE: a job served from SPEC finishes with
# artifacts byte-identical to the run in REFERENCE, and drain exits 0.
serve_smoke() {
    local dir=$1 spec=$2 reference=$3
    "$dse" serve --addr 127.0.0.1:0 --addr-file "$dir/addr" --run-root "$dir/jobs" \
        --workers 1 --queue-depth 4 >/dev/null &
    serve_pid=$!
    for _ in $(seq 1 100); do [ -s "$dir/addr" ] && break; sleep 0.1; done
    [ -s "$dir/addr" ] || die "server never wrote its address file"
    local addr job state=""
    addr="$(cat "$dir/addr")"
    job="$(curl -sf -X POST "http://$addr/jobs" --data "$spec" \
        | grep -o '"id":"[^"]*"' | cut -d'"' -f4)"
    [ -n "$job" ] || die "job submission returned no id"
    for _ in $(seq 1 600); do
        state="$(curl -sf "http://$addr/jobs/$job" | grep -o '"state":"[^"]*"' | sed -n 1p | cut -d'"' -f4)"
        [ "$state" = "done" ] && break
        case "$state" in failed|cancelled|interrupted)
            die "served job ended $state";;
        esac
        sleep 0.1
    done
    [ "$state" = "done" ] || die "served job never finished (state: ${state:-unknown})"
    curl -sf "http://$addr/metrics" | grep -q '"jobs_completed":1' \
        || die "/metrics did not count the completed job"
    curl -sf -X POST "http://$addr/shutdown" >/dev/null
    wait "$serve_pid" || die "drain did not exit 0"
    serve_pid=""
    for artifact in trace.csv front.csv trace.json front.json; do
        cmp "$reference/$artifact" "$dir/jobs/$job/$artifact"
    done
}

# obs_smoke DIR FLAGS...: a traced run writes its telemetry and leaves
# the deterministic artifacts of the plain run in DIR/full untouched.
obs_smoke() {
    local dir=$1
    shift
    "$dse" run "$@" --run-dir "$dir/traced" --progress --log-level debug 2>/dev/null >/dev/null
    test -s "$dir/traced/events.jsonl" || die "events.jsonl missing or empty"
    test -s "$dir/traced/metrics.json" || die "metrics.json missing or empty"
    grep -q '"type":"enter"' "$dir/traced/events.jsonl"
    grep -q '"evals_per_sec":' "$dir/traced/metrics.json"
    grep -q '"phases":' "$dir/traced/metrics.json"
    same_run "$dir/full" "$dir/traced"
    local quiet_out
    quiet_out="$("$dse" run "$@" --log-level quiet)"
    [ -z "$quiet_out" ] || die "--log-level quiet printed to stdout"
}

# report_smoke RUN REFERENCE: report writes report.json and a Perfetto
# trace without moving RUN's deterministic artifacts (equal to those in
# REFERENCE), and compare gates a doctored copy of RUN with inflated
# throughput as a regression.
report_smoke() {
    local run=$1 reference=$2
    "$dse" report "$run" >/dev/null
    test -s "$run/report.json" || die "report.json missing or empty"
    test -s "$run/trace.chrome.json" || die "trace.chrome.json missing or empty"
    grep -q '"convergence":' "$run/report.json"
    grep -q '"torn_tail":false' "$run/report.json"
    grep -q '"traceEvents":' "$run/trace.chrome.json"
    python3 -m json.tool "$run/trace.chrome.json" >/dev/null \
        || die "trace.chrome.json is not valid JSON"
    python3 -m json.tool "$run/report.json" >/dev/null || die "report.json is not valid JSON"
    same_run "$reference" "$run"
    "$dse" compare "$run" "$run" >/dev/null || die "self-compare must exit 0"
    local doctored="$run.doctored" rc
    cp -r "$run" "$doctored"
    sed -i -E 's/"evals_per_sec":[0-9.eE+-]+/"evals_per_sec":99999999.0/' "$doctored/metrics.json"
    set +e
    "$dse" compare "$doctored" "$run" >/dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" -eq 3 ] || die "doctored regression must exit 3 (got $rc)"
}

mkdir -p "$smoke/bfs" "$smoke/hot"
"$dse" run --algorithm moela "${bfs[@]}" --run-dir "$smoke/bfs/full" >/dev/null
"$dse" run --algorithm moela "${hot[@]}" --run-dir "$smoke/hot/full" >/dev/null

echo "==> resume smoke (crash + resume is byte-identical)"
crash_resume "$smoke/bfs/full" "$smoke/bfs/crashed" 1 "" --algorithm moela "${bfs[@]}"
crash_resume "$smoke/hot/full" "$smoke/hot/crashed" 2 4 --algorithm moela "${hot[@]}"

echo "==> chaos smoke (faults contained, kill + resume under chaos byte-identical)"
chaos_smoke "$smoke/bfs" --algorithm moela "${bfs[@]}"
chaos_smoke "$smoke/hot" --algorithm moela "${hot[@]}"

echo "==> delta smoke (fast path hits, 1 vs 4 threads; the parity harness catches a broken patch)"
delta_smoke "$smoke/bfs" --algorithm moela "${bfs[@]}"
delta_smoke "$smoke/hot" --algorithm moos "${hot[@]}"
# The parity suite itself runs in `cargo test --workspace` (check.sh).
# Self-check: a deliberately broken patch path must fail the harness.
cargo test -q --release -p moela-manycore --features delta-fault --test delta_parity

echo "==> serve smoke (served jobs match moela-dse run byte-for-byte; drain exits 0)"
serve_smoke "$smoke/bfs" \
    '{"app":"BFS","objectives":3,"algorithm":"moela","budget":120,"population":8,"seed":7}' \
    "$smoke/bfs/full"
"$dse" run --algorithm nsga2 "${hot[@]}" --run-dir "$smoke/hot/nsga2" >/dev/null
serve_smoke "$smoke/hot" \
    '{"app":"HOT","objectives":3,"algorithm":"nsga2","budget":160,"population":8,"seed":11}' \
    "$smoke/hot/nsga2"

echo "==> serve resilience (supervised jobs survive kills, crash loops and disk faults)"
cargo test --release -p moela-cli --test resilience -- --test-threads 2

echo "==> obs smoke (telemetry artifacts exist; deterministic artifacts untouched)"
obs_smoke "$smoke/bfs" --algorithm moela "${bfs[@]}"
obs_smoke "$smoke/hot" --algorithm moela "${hot[@]}"

echo "==> report smoke (report.json + Perfetto trace; compare gates regressions)"
report_smoke "$smoke/bfs/traced" "$smoke/bfs/full"
report_smoke "$smoke/hot/full" "$smoke/hot/traced"

echo "All smoke tests passed."
