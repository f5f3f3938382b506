#!/usr/bin/env python3
"""Records perfbench/baseline.json: for every workload and every seed in its
pool, the digests of `front.json` and `trace.json`, the final PHV, and the
PHV target that `time_to_target_s` measures against.

Run it once at the commit whose outputs are the reference (from the
repository root):

    python3 perfbench/record.py

A later commit that changes the deterministic outputs on purpose records
again; a commit that claims a speed-up must leave them unchanged.
"""

import json
import os
import shutil
import subprocess
import sys

import run as bench


def record_seed(dse, spec, seed, run_dir):
    shutil.rmtree(run_dir, ignore_errors=True)
    subprocess.run([dse] + bench.run_args(spec, seed, run_dir), check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(run_dir, "trace.json")) as f:
        points = json.load(f)["points"]
    # The target is the PHV the run had when it had spent the workload's
    # fraction of its budget; time_to_target_s is when a run first reaches it.
    at = spec["budget"] * spec["target_fraction"]
    target = next(p["phv"] for p in points if p["evaluations"] >= at)
    return {
        "front": bench.sha256(os.path.join(run_dir, "front.json")),
        "trace": bench.sha256(os.path.join(run_dir, "trace.json")),
        "phv": points[-1]["phv"],
        "target": target,
    }


def main():
    binaries = bench.build()
    if binaries is None:
        return 2
    dse, _ = binaries
    out = {}
    for name, spec in bench.WORKLOADS.items():
        out[name] = {}
        for seed in range(1, spec["pool"] + 1):
            out[name][str(seed)] = record_seed(dse, spec, seed, os.path.join(bench.WORK, "record"))
            print(f"{name} seed {seed}: {out[name][str(seed)]}", file=sys.stderr, flush=True)
    shutil.rmtree(bench.WORK, ignore_errors=True)
    with open(bench.BASELINE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
