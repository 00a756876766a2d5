#!/usr/bin/env python3
"""Builds and runs the flexrel benchmark.

One workload:

    python3 perfbench/run.py --workload registry-read --seed 1 --seconds 25 --trace 0

All three workloads, each in its own process, printing every end-to-end
metric by name with its unit:

    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the repository root. The benchmark binary is built from src/ and
perfbench/ into .bench_build/perfbench on first use. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics when --trace 0 and the per-layer
metrics when --trace 1. The exit code is 0 only when every correctness
check passed.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "trace"
BINARY = BUILD / "flexrel_perfbench"

WORKLOADS = ("registry-read", "registry-mutate", "mine-wide")

# The gated end-to-end metrics and the per-layer metrics, with their units,
# come from BENCHMARK.json. "op" is each workload's unit of work: one query
# on registry-read, one write plus the query that reads it back on
# registry-mutate, one round of level-wise discovery, hybrid discovery and
# audit on mine-wide.
SPEC = ROOT / "BENCHMARK.json"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "storage" / "serialization.h").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / "build.lock", "w") as lock, \
            open(BUILD / "build.log", "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                tail = (BUILD / "build.log").read_text(errors="replace")
                log(tail[-3000:])
                die("build failed: " + " ".join(cmd))
    if not BINARY.is_file():
        die("build produced no benchmark binary")
    return BINARY


def discovery_levels(stem):
    """Per-level medians and worker utilization from the library's own
    discovery.level spans (telemetry snapshot of the traced run), and the
    number of spans the snapshot's ring dropped."""
    path = Path(stem + "-telemetry.json")
    if not path.is_file():
        return {}, 0
    telemetry = json.loads(path.read_text())
    levels = {}
    utils = []
    for span in telemetry.get("spans", []):
        if span["name"] != "discovery.level":
            continue
        fields = dict(f.split("=", 1) for f in span["detail"].split()
                      if "=" in f)
        if "k" not in fields:
            continue
        prefix = "hybrid_" if fields.get("strategy") == "hybrid" else ""
        key = f"engine.discovery.{prefix}level{fields['k']}_ms"
        levels.setdefault(key, []).append(span["dur_ns"] / 1e6)
        if "util_pct" in fields:
            utils.append(float(fields["util_pct"]))
    out = {k: (statistics.median(v), "ms") for k, v in levels.items()}
    if utils:
        out["engine.discovery.worker_utilization_pct"] = (
            statistics.fmean(utils), "%")
    return out, telemetry.get("spans_dropped", 0)


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the binary's record."""
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", str(TRACE_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        die(f"{workload}: benchmark binary timed out", 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload}: benchmark binary exited with {proc.returncode}", 3)
    record = json.loads(lines[-1])
    if trace:
        levels, dropped = discovery_levels(record["info"].get("trace_stem", ""))
        record["info"]["telemetry_spans_dropped"] = str(dropped)
        for name, (value, unit) in levels.items():
            record["layers"][name] = {"value": value, "unit": unit}
    return record


def load_spec():
    """(end-to-end units, per-layer units), each a name -> unit dict."""
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as err:
        die(f"cannot read {SPEC}: {err}")
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def select(workload, measured, wanted, fill_idle):
    """The metrics named in `wanted` (name -> unit) out of `measured`. A
    layer the workload never exercises may be missing; it reports 0."""
    out, idle = {}, []
    for name, unit in wanted.items():
        m = measured.get(name)
        if m is None:
            if not fill_idle:
                die(f"{workload}: benchmark binary did not report {name}", 3)
            idle.append(name)
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            die(f"{workload}: {name} is in {m['unit']}, expected {unit}", 3)
        out[name] = m
    return out, idle


def report(workload, record, trace, spec):
    """Prints the human-readable lines; returns the metrics for the JSON."""
    attempted, failed = record["attempted"], record["failed"]
    for why in record["failures"]:
        log(f"{workload}: FAILED: {why}")
    for name, m in record["metrics"].items():
        print(f"{workload:16s} {name:28s} {m['value']:14.4f} {m['unit']}")
    frac = failed / attempted if attempted else 0.0
    print(f"{workload:16s} {'failed_frac':28s} {frac:14.6f} "
          f"({failed} of {attempted} ops)")
    for key, value in record["info"].items():
        print(f"{workload:16s} {key:28s} {value}")
    end_to_end, per_layer = spec
    if not trace:
        return select(workload, record["metrics"], end_to_end, False)[0]
    out, idle = select(workload, record["layers"], per_layer, True)
    for name, m in out.items():
        print(f"{workload:16s} {name:40s} {m['value']:14.4f} {m['unit']}")
    if idle:
        print(f"{workload:16s} idle layers (reported as 0): {', '.join(idle)}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = load_spec()
    binary = build()
    workloads = WORKLOADS if args.all else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        record = run_one(binary, workload, args.seed, args.seconds,
                         args.trace == 1)
        attempted += record["attempted"]
        failed += record["failed"]
        shown = report(workload, record, args.trace == 1, spec)
        if args.all:
            metrics.update({f"{workload}.{k}": v for k, v in shown.items()})
        else:
            metrics = shown
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
