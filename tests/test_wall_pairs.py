"""``tools/wall_pairs.py`` runs alternating pairs of one workload and prints
each pair's gated metrics, each metric's spread and verdict, and the failed
calls of both sides, then all of it again as one JSON line; a side named by
a git revision runs on an export that is removed afterwards."""
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUM = r"\d+\.\d{4}"
PAIR = re.compile(rf"pair 1 \(parent first\): parent wall_norm={NUM} setup_s={NUM} "
                  rf"peak_rss_mb={NUM} \| change wall_norm={NUM} setup_s={NUM} "
                  rf"peak_rss_mb={NUM}")
METRIC = re.compile(rf"(\w+): parent {NUM} \({NUM}-{NUM}\), change {NUM} \({NUM}-{NUM}\); "
                    r"change lower in [01]/1 pairs; gain holds: (yes|no)")


def test_one_closed_form_pair_against_itself():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "wall_pairs.py"), str(ROOT),
                          str(ROOT), "closed-form", "1", "1"],
                         capture_output=True, text=True, check=True).stdout
    pair, *metrics, failed, last = out.splitlines()
    assert PAIR.fullmatch(pair), pair
    assert [METRIC.fullmatch(line).group(1) for line in metrics] == [
        "wall_norm", "setup_s", "peak_rss_mb"], metrics
    assert re.fullmatch(r"failed calls: parent 0/(\d+), change 0/\1", failed), failed

    # the JSON line holds what the lines above print
    record = json.loads(last)
    assert (record["workload"], record["seed"]) == ("closed-form", 1)
    assert record["revisions"] == {"parent": None, "change": None}
    (only,) = record["pairs"]
    assert only["first"] == "parent"
    calls = failed.removeprefix("failed calls: ").split(", ")
    for side, cell, side_calls in zip(("parent", "change"), pair.split(" | "), calls):
        printed = dict(kv.split("=") for kv in cell.split()[-3:])
        assert only[side] == {**{k: float(v) for k, v in printed.items()},
                              "failed": side_calls.split()[1]}
    summary = record.pop("summary")
    assert summary.pop("failed_calls") == dict(side.split() for side in calls)
    for line in metrics:
        name, p_med, p_q1, p_q3, c_med, c_q1, c_q3, lower, holds = re.fullmatch(
            r"(\w+): parent (\S+) \((\S+)-(\S+)\), change (\S+) \((\S+)-(\S+)\); "
            r"change lower in (\S+) pairs; gain holds: (\w+)", line).groups()
        assert summary.pop(name) == {
            "parent": {"median": float(p_med), "q1": float(p_q1), "q3": float(p_q3)},
            "change": {"median": float(c_med), "q1": float(c_q1), "q3": float(c_q3)},
            "change_lower_in": lower, "gain_holds": holds == "yes"}
    assert summary == {}


def test_a_revision_is_exported_recorded_and_removed(tmp_path):
    # a repository of its own, so that the revision and its tree are known
    repo = tmp_path / "repo"
    for part in ("src", "perfbench", "tools"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@localhost",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, check=True)
    commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True).stdout.strip()
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    tool = [sys.executable, str(repo / "tools" / "wall_pairs.py")]
    env = dict(os.environ, TMPDIR=str(scratch))
    out = subprocess.run(tool + ["HEAD", str(repo), "closed-form", "1", "1"], env=env,
                         capture_output=True, text=True, check=True).stdout
    record = json.loads(out.splitlines()[-1])
    assert record["revisions"] == {"parent": commit, "change": None}
    assert record["summary"]["failed_calls"]["parent"].startswith("0/")
    assert list(scratch.iterdir()) == []

    missing = subprocess.run(tool + ["no-such-revision", str(repo), "closed-form", "1", "1"],
                             env=env, capture_output=True, text=True)
    assert missing.returncode != 0
    assert missing.stderr.strip() == "no-such-revision: neither a checkout nor a git revision"
    assert list(scratch.iterdir()) == []


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ on it
    gain_holds = runpy.run_path(str(ROOT / "tools" / "wall_pairs.py"))["gain_holds"]
    parent = [5.0 + 0.01 * i for i in range(10)]
    assert gain_holds(parent, [p - 1.0 for p in parent]) == (10, True)
    # a tie counts for neither side
    assert gain_holds(parent, [p - 1.0 for p in parent[:8]] + parent[8:]) == (8, False)
    # lower in every pair, but by less than the parent's interquartile range
    assert gain_holds(parent, [p - 0.01 for p in parent]) == (10, False)
