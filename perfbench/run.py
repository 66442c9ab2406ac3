"""Benchmark of the dtnsat CLI: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc-oracle --seed 1 --seconds 30 --trace 0

Run from the root of a dtnsat checkout; the package is imported from its
``src/``.  Repetitions run one at a time, each in a fresh worker interpreter
(``worker.py``) with numpy/BLAS threads set to 1, until ``--seconds`` have
passed (at least MIN_REPS of them).  With ``--trace 0`` every repetition is
untraced; with ``--trace 1`` untraced and traced repetitions alternate (at
least MIN_TRACED_REPS of each), so the tracing overhead is measured in the
same run.  Every CLI output is checked; repetitions of one seed must also
write byte-identical CSVs.

Stdout ends with a report (provenance, median, quartiles and sample count of
every metric) and, on the last line, the result object.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import PER_LAYER
from workloads import SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
MIN_TRACED_REPS = 2  # a traced run also needs as many untraced ones
WORKER_TIMEOUT_S = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# end-to-end metrics of every workload; GATED are those in BENCHMARK.json
END_TO_END = {"wall_norm": "ratio", "setup_s": "s", "peak_rss_mb": "MiB",
              "wall_s": "s", "reference_s": "s"}
GATED = ("wall_norm", "setup_s", "peak_rss_mb")


def summarize(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def provenance(root: str) -> dict:
    commit = ""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    text=True, capture_output=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_commit": commit or "unknown (not a git checkout)",
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def run_worker(root: str, workload: str, seed: int, size: str, traced: bool,
               workdir: str, env: dict) -> dict:
    rep_dir = tempfile.mkdtemp(dir=workdir)
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"), root, workload,
           str(seed), size, "1" if traced else "0", rep_dir]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    shutil.rmtree(rep_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(lines[-1])
    rep["metrics"]["setup_s"] = rep["ready"] - start
    rep["traced"] = traced
    return rep


def check_determinism(reps: list[dict]) -> None:
    """Calls of one invocation must write identical bytes in every rep."""
    reference = {}
    for rep in reps:
        for call in rep["calls"]:
            if call["sha256"] is None:
                continue
            first = reference.setdefault(call["label"], call["sha256"])
            if call["sha256"] != first:
                call["errors"].append("CSV bytes differ from the first repetition")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dtnsat", "cli.py")):
        print(f"perfbench: no dtnsat sources under {root}/src; run from the root "
              "of a dtnsat checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench_work"))

    reps: list[dict] = []
    deadline = time.monotonic() + args.seconds
    try:
        while True:
            untraced = sum(not r["traced"] for r in reps)
            traced = len(reps) - untraced
            if args.trace:
                done = min(untraced, traced) >= MIN_TRACED_REPS
            else:
                done = untraced >= MIN_REPS
            if done and time.monotonic() >= deadline:
                break
            reps.append(run_worker(root, args.workload, args.seed, args.size,
                                   bool(args.trace) and untraced > traced,
                                   workdir, env))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".perfbench_work"))
        except OSError:
            pass

    check_determinism(reps)
    calls = [c for r in reps for c in r["calls"]]
    failures = [f"{c['label']}: {e}" for c in calls for e in c["errors"]]
    failed = sum(bool(c["errors"]) for c in calls)

    plain = [r for r in reps if not r["traced"]]
    workload = WORKLOADS[args.workload]
    units = dict(END_TO_END, **workload.metrics)
    e2e = {name: dict(summarize([r["metrics"][name] for r in plain
                                 if name in r["metrics"]]), unit=unit)
           for name, unit in units.items()
           if any(name in r["metrics"] for r in plain)}
    e2e["failed_ops_share"] = {"value": failed / len(calls), "unit": "ratio",
                               "n": len(calls)}
    report = {"workload": args.workload, "why": workload.why, "seed": args.seed,
              "cli_seeds": reps[0]["cli_seeds"], "size": args.size,
              "seconds": args.seconds,
              "provenance": dict(provenance(root), numpy=reps[0]["numpy"]),
              "repetitions": {"untraced": len(plain), "traced": len(reps) - len(plain)},
              "end_to_end": e2e,
              "call_wall_s": {label: summarize([r["walls"][label] for r in plain])
                              for label in plain[0]["walls"]},
              "failures": failures[:20]}

    if args.trace:
        traced_reps = [r for r in reps if r["traced"]]
        layers = {name: dict(summarize([r["layers"][name] for r in traced_reps]),
                           unit=PER_LAYER[name])
                  for name in traced_reps[0]["layers"]}
        traced_wall = summarize([r["metrics"]["wall_s"] for r in traced_reps])
        layers["trace_overhead_s"] = {
            "median": traced_wall["median"] - e2e["wall_s"]["median"],
            "unit": "s", "n": len(traced_reps)}
        report["per_layer"] = layers
        selected = layers
    else:
        selected = {name: e2e[name] for name in GATED}

    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(calls), "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in selected.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
