#!/usr/bin/env python3
"""End-to-end benchmark of the imc library (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) into .bench_build/ on first use, runs one workload and prints, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end_to_end metrics BENCHMARK.json
names; --trace 1 runs the traced pass plus the 1-worker serial reference
and reports the per_layer metrics, writing Chrome trace files to
.bench_build/traces/.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "imcbench"
RUN_LIMIT_S = 175.0  # every run must end within 180 s


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def workers():
    return max(1, min(os.cpu_count() or 1, 4))


def build():
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-G",
                        generator, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "imcbench",
                    "-j", str(workers())], stdout=sys.stderr, check=True)


def run_imcbench(args, mode, threads, deadline, trace_out=None):
    work = BUILD_ROOT / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--threads", str(threads),
           "--mode", mode, "--work-dir", str(work)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # subprocess.run kills and reaps the child if the timeout expires.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"imcbench --mode {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_loads(path):
    """True when the trace file parses and holds at least one span."""
    try:
        with open(path) as f:
            return len(json.load(f)["traceEvents"]) > 0
    except (OSError, ValueError, KeyError):
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise ValueError(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    runs = []
    traces_ok = True
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        for mode, threads, path in (
                ("trace", workers(), traces / f"{stem}.json"),
                ("serial", 1, traces / f"{stem}-t1.json")):
            runs.append(run_imcbench(args, mode, threads, deadline, path))
            traces_ok = traces_ok and trace_loads(path)
            log(f"trace written to {path}")
    else:
        runs.append(run_imcbench(args, "e2e", workers(), deadline))

    measured = {}
    for run in runs:
        measured.update(run["metrics"])
    missing = [m["name"] for m in wanted
               if not isinstance(measured.get(m["name"]), (int, float))
               or not math.isfinite(measured[m["name"]])]
    if missing:
        raise RuntimeError(f"imcbench did not report {missing}")

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        for note in run["notes"]:
            log("note:", note)
    # Host facts and every measured figure, one line above the result.
    print(json.dumps({"host": runs[0]["host"],
                      "notes": list(dict.fromkeys(
                          n for run in runs for n in run["notes"])),
                      "op_solve_s": runs[0]["op_solve_s"],
                      "measured": measured}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and traces_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as error:  # no result line on any failure
        log(f"error: {error}")
        sys.exit(1)
