"""Print the sha256 of every CSV that the benchmark workloads write.

    python3 tools/csv_digests.py ROOT

Imports ``dtnsat`` from ROOT/src and the workloads from
ROOT/perfbench/workloads.py, runs every call of ``invocations(workload,
seed, "full")`` through ``dtnsat.cli.main``, for each workload at seeds 1
and 7, into a temporary directory, and prints one ``workload seed label sha256
rows_sha256`` line per CSV: the digest of the whole file, then that of
its header and data rows alone, without the ``#`` metadata lines.  No
workload runs physical contact mode, so each call of the workloads that
draw episodes runs once more with ``--contact-mode physical`` appended,
labelled ``label+physical``.  To check that a change keeps every output
byte, run it on a copy of the parent commit and on the change, and
``diff`` the two outputs; a change that moves only metadata shows equal
row digests.
"""
import hashlib
import os
import sys
import tempfile

SEEDS = (1, 7)
EPISODE_WORKLOADS = ("mc-oracle", "learn-coupled")


def digests(root: str) -> list[str]:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from dtnsat.cli import main
    from workloads import WORKLOADS, invocations

    lines = []
    with tempfile.TemporaryDirectory() as work:
        config, out = os.path.join(work, "run.cfg"), os.path.join(work, "run.csv")
        for workload in WORKLOADS:
            for seed in SEEDS:
                for inv in invocations(workload, seed, "full"):
                    runs = [(inv.label, inv.args)]
                    if workload in EPISODE_WORKLOADS:
                        runs.append((f"{inv.label}+physical",
                                     (*inv.args, "--contact-mode", "physical")))
                    with open(config, "w", encoding="utf-8") as fh:
                        fh.write(inv.config)
                    for label, args in runs:
                        if main([inv.mode, "--config", config, "--out", out, *args]):
                            raise SystemExit(f"{workload} {seed} {label}: dtnsat failed")
                        with open(out, "rb") as fh:
                            text = fh.read()
                        rows = b"".join(line for line in text.splitlines(keepends=True)
                                        if not line.startswith(b"#"))
                        lines.append(f"{workload} {seed} {label} "
                                     f"{hashlib.sha256(text).hexdigest()} "
                                     f"{hashlib.sha256(rows).hexdigest()}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print("\n".join(digests(os.path.abspath(sys.argv[1]))))
