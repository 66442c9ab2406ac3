"""Alternating parent/change pairs of one benchmark workload.

    python3 tools/wall_pairs.py PARENT CHANGE WORKLOAD SEED PAIRS

PARENT and CHANGE are each the root of a dtnsat checkout or a git revision
of the repository this tool lives in; a directory wins where a name is
both.  A revision is exported with ``git archive`` into a temporary
directory that is removed when the pairs end.  Each pair runs one
repetition of WORKLOAD at SEED (size ``full``) on each side, through
``run_worker`` of this checkout's ``perfbench/run.py``, so both sides run
the same benchmark code on their own ``src/``, in the worker environment
that ``run.main`` builds.  The side that runs first alternates from pair to
pair, starting with the parent.  Prints the gated metrics of both sides for
every pair; then, for every gated metric, each side's median and quartiles,
the number of pairs in which the change reads lower, and whether a gain may
be claimed: the change lower in at least 9/10 of the pairs, and the gap
between the medians wider than the parent's interquartile range; then the
failed calls of each side; and last all of that as one JSON object: the
workload and seed, the commit each side was exported from (null for a
checkout), each pair's gated metrics and failed calls per side with the
side that ran first, and each metric's medians, quartiles, lower count and
verdict.
"""
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import GATED, THREAD_VARS, run_worker, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")


def spread(values: list[float]) -> dict:
    """Median and quartiles, rounded to 4 decimals as printed."""
    s = summarize(values)
    return {key: round(s[key], 4) for key in ("median", "q1", "q3")}


def failed(calls: list[dict]) -> str:
    """``failed/total`` calls."""
    return f"{sum(bool(call['errors']) for call in calls)}/{len(calls)}"


def gain_holds(parent: list[float], change: list[float]) -> tuple[int, bool]:
    """(pairs in which the change reads lower, whether that is at least
    9/10 of the pairs with the median gap wider than the parent's
    interquartile range); a tie counts for neither side."""
    lower = sum(c < p for p, c in zip(parent, change))
    spread = summarize(parent)
    gap = spread["median"] - summarize(change)["median"]
    return lower, 10 * lower >= 9 * len(parent) and gap > spread["q3"] - spread["q1"]


def export(revision: str, into: str) -> str:
    """Write the tree of ``revision`` into the new directory ``into`` with
    ``git archive``; return its commit id."""
    git = ["git", "-C", ROOT]
    try:
        commit = subprocess.run(git + ["rev-parse", "--verify", "--quiet", revision + "^{commit}"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except subprocess.CalledProcessError:
        raise SystemExit(f"{revision}: neither a checkout nor a git revision") from None
    os.mkdir(into)
    archive = subprocess.run(git + ["archive", commit], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return commit


def main(argv: list[str]) -> None:
    if len(argv) != 5 or argv[2] not in WORKLOADS:
        raise SystemExit(__doc__)
    try:
        seed, pairs = int(argv[3]), int(argv[4])
    except ValueError:
        raise SystemExit(__doc__) from None
    if seed < 0 or pairs < 1:
        raise SystemExit(__doc__)
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)

    reps = {side: [] for side in SIDES}
    pair_records = []
    with tempfile.TemporaryDirectory() as workdir:
        roots, revisions = {}, {}
        for side, name in zip(SIDES, argv[:2]):
            roots[side], revisions[side] = os.path.abspath(name), None
            if not os.path.isdir(name):
                roots[side] = os.path.join(workdir, side)
                revisions[side] = export(name, roots[side])
            if not os.path.isfile(os.path.join(roots[side], "src", "dtnsat", "cli.py")):
                raise SystemExit(f"{side}: no dtnsat sources under {roots[side]}/src")
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                reps[side].append(run_worker(roots[side], argv[2], seed, "full", False,
                                             workdir, env))
            record = {"first": order[0]}
            for side in SIDES:
                rep = reps[side][i]
                record[side] = {name: round(rep["metrics"][name], 4) for name in GATED}
                record[side]["failed"] = failed(rep["calls"])
            pair_records.append(record)
            cells = [f"{side} " + " ".join(f"{name}={record[side][name]:.4f}" for name in GATED)
                     for side in SIDES]
            print(f"pair {i + 1} ({order[0]} first): " + " | ".join(cells), flush=True)

    summary = {}
    for name in GATED:
        values = {side: [rep["metrics"][name] for rep in reps[side]] for side in SIDES}
        spreads = {side: spread(values[side]) for side in SIDES}
        lower, holds = gain_holds(values["parent"], values["change"])
        print(f"{name}: " + ", ".join(f"{side} {s['median']:.4f} ({s['q1']:.4f}-{s['q3']:.4f})"
                                      for side, s in spreads.items())
              + f"; change lower in {lower}/{pairs} pairs; gain holds: {'yes' if holds else 'no'}")
        summary[name] = {**spreads, "change_lower_in": f"{lower}/{pairs}", "gain_holds": holds}
    calls = {side: failed([call for rep in reps[side] for call in rep["calls"]])
             for side in SIDES}
    print("failed calls: " + ", ".join(f"{side} {calls[side]}" for side in SIDES))
    summary["failed_calls"] = calls
    print(json.dumps({"workload": argv[2], "seed": seed, "revisions": revisions,
                      "pairs": pair_records, "summary": summary}))


if __name__ == "__main__":
    main(sys.argv[1:])
