"""``tools/csv_digests.py`` prints one well-formed line per CSV of the
benchmark workloads, labelled as ``invocations`` labels its calls, and one
more per call of the workloads that draw episodes, run in physical contact
mode and labelled ``label+physical``; each line gives the digest of the
whole file and then of its rows alone, which differ, as every CSV opens
with ``#`` metadata lines."""
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(\S+) (\d+) (\S+) [0-9a-f]{64} [0-9a-f]{64}")


def workload_labels():
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    labels = []
    for name in workloads["WORKLOADS"]:
        for seed in (1, 7):
            for inv in workloads["invocations"](name, seed, "full"):
                labels.append((name, str(seed), inv.label))
                if name in ("mc-oracle", "learn-coupled"):
                    labels.append((name, str(seed), f"{inv.label}+physical"))
    return labels


def test_prints_one_digest_per_workload_csv():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "csv_digests.py"), str(ROOT)],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert all(LINE.fullmatch(line) for line in lines), lines
    assert [LINE.fullmatch(line).groups() for line in lines] == workload_labels()
    assert len(lines) == 30
    assert all(line.split()[3] != line.split()[4] for line in lines)
