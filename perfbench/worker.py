"""One repetition of one workload in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SIZE TRACE WORKDIR

Imports ``dtnsat.cli`` from ROOT/src first and reports, on its last stdout
line, the monotonic clock at which that import finished (the parent turns it
into ``setup_s``), the wall time of every ``dtnsat.cli.main`` call, the
output checks, the peak RSS and, with TRACE = 1, the per-layer metrics.
"""
import os
import sys
import time

ROOT = os.path.abspath(sys.argv[1])
sys.path.insert(0, os.path.join(ROOT, "src"))
import dtnsat.cli  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Csv, invocations  # noqa: E402


REFERENCE_ITERS = 200_000


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python float loop: a gauge of how fast
    the shared host runs this worker right now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ITERS):
        acc += math.exp(-i * 1e-6) * (i % 7)
    return time.perf_counter() - start


def main() -> None:
    workload, seed, size, trace, workdir = sys.argv[2:7]
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(dtnsat.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported dtnsat from {dtnsat.cli.__file__}, not {src}")
    invs = invocations(workload, int(seed), size)
    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    argvs = []
    for i, inv in enumerate(invs):
        config = os.path.join(workdir, f"{inv.label}.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(inv.config)
        argvs.append([inv.mode, "--config", config,
                      "--out", os.path.join(workdir, f"{inv.label}.csv"), *inv.args])

    # the reference loop runs before, between and after the calls; each call
    # is normalised by the mean of the two loops around it
    walls, codes, refs = [], [], [reference_loop()]
    for i, argv in enumerate(argvs):
        if tracer:
            tracer.invocation = i
        start = time.perf_counter()
        try:
            code = dtnsat.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            code = f"raised {type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - start)
        codes.append(code)
        if tracer:
            tracer.invocation = -1
        refs.append(reference_loop())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    calls, csvs, csv_bytes = [], [], 0
    for inv, argv, code in zip(invs, argvs, codes):
        errors, digest, csv = [], None, None
        if code != 0:
            errors.append(f"exit {code}")
        else:
            try:
                with open(argv[4], "rb") as fh:
                    data = fh.read()
                csv_bytes += len(data)
                digest = hashlib.sha256(data).hexdigest()
                csv = Csv.parse(data.decode("utf-8"))
                errors += inv.check(inv, csv)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        csvs.append(csv)
        calls.append({"label": inv.label, "errors": errors, "sha256": digest})

    metrics = {"wall_s": sum(walls),
               "wall_norm": sum(2.0 * w / (a + b)
                                for w, a, b in zip(walls, refs, refs[1:])),
               "reference_s": sum(refs) / len(refs), "peak_rss_mb": peak_rss_mb}
    if all(not c["errors"] for c in calls):
        metrics.update(WORKLOADS[workload].derive(invs, walls, csvs))
    result = {"ready": READY, "metrics": metrics, "calls": calls,
              "walls": dict(zip((inv.label for inv in invs), walls)),
              "cli_seeds": [int(inv.args[inv.args.index("--seed") + 1])
                            for inv in invs],
              "numpy": numpy.__version__}
    if tracer:
        result["layers"] = layer_metrics(tracer.summary(), invs, csv_bytes)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
