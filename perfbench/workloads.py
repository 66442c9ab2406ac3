"""The three benchmark workloads: their CLI invocations, output checks and
workload-level metrics.

Each workload is a fixed list of ``dtnsat <mode>`` invocations.  The only
input drawn from the benchmark seed is each invocation's ``--seed``; sizes
are fixed per ``size`` (``full`` for measurement, ``smoke`` for the
benchmark's own tests).  Checks import ``dtnsat`` lazily, so the parent
process can read this module without importing the package under test.
See README.md for why each workload exists.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

SIZES = ("full", "smoke")

# pareto-grid mode scans a fixed 101 x 101 grid (experiments._run_pareto_grid)
PARETO_CELLS = 101 * 101
# dominators of the binding equilibrium on that grid at the reference scenario
PARETO_DOMINATORS = 7731
# |mean - closed form| allowed in simulate rows: Z_GATE se plus an absolute floor
Z_GATE = 5.0
ABS_FLOOR = 1e-9
BINDING_TOL = 1e-9


@dataclass(frozen=True)
class Invocation:
    """One ``dtnsat`` CLI call: its mode, config text and extra arguments."""

    label: str
    mode: str
    config: str
    args: tuple[str, ...]
    # trials requested (rows x trials) for simulate, sweep points for the
    # solve-*/region sweeps, learner iterations for learn
    work: int
    check: Callable[["Invocation", "Csv"], list[str]]


@dataclass(frozen=True)
class Csv:
    """A CSV written by ``dtnsat``: its ``# key = value`` metadata and rows."""

    meta: dict[str, str]
    columns: list[str]
    rows: list[list[float]]

    @staticmethod
    def parse(text: str) -> "Csv":
        meta, lines = {}, []
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                meta[key] = value
            elif line:
                lines.append(line)
        columns = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return Csv(meta, columns, rows)

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _params(inv: Invocation):
    from dtnsat.experiments import parse_config

    return parse_config(inv.config).params


def _sweep_values(inv: Invocation) -> list[float]:
    from dtnsat.experiments import parse_config

    return list(parse_config(inv.config).sweep.values)


# ---------------------------------------------------------------- checks

def _check_simulate(inv: Invocation, csv: Csv) -> list[str]:
    """Every row agrees with the closed forms within Z_GATE se (+ floor)."""
    from dtnsat.equilibrium import solve_ese
    from dtnsat.model import expected_relay_utility_mixed, \
        expected_source_utility_mixed

    params = _params(inv)
    values = _sweep_values(inv)
    trials = inv.work // len(values)
    if len(csv.rows) != len(values):
        return [f"{len(csv.rows)} rows for {len(values)} sweep values"]
    reward = solve_ese(params).alpha_star
    errors = []
    for p, row in zip(values, csv.rows):
        got = dict(zip(csv.columns, row))
        if got["p"] != p or got["trials"] != trials:
            errors.append(f"row p={got['p']} trials={got['trials']}, "
                          f"want p={p} trials={trials}")
            continue
        for name, want in (
                ("delivery", expected_source_utility_mixed(p, params)),
                ("relay_utility", expected_relay_utility_mixed(p, reward, params))):
            mean, se = got[f"{name}_mean"], got[f"{name}_se"]
            if not abs(mean - want) <= Z_GATE * se + ABS_FLOOR:
                errors.append(f"p={p}: {name} {mean} vs closed form {want} "
                              f"(se {se})")
    return errors


def _check_learn(inv: Invocation, csv: Csv) -> list[str]:
    """One row per iteration, alpha in [0, alpha_max], every p in [0, 1]."""
    params = _params(inv)
    horizon = inv.work
    errors = []
    if csv.column("k") != [float(k) for k in range(1, horizon + 1)]:
        errors.append(f"{len(csv.rows)} rows, want k = 1..{horizon}")
    if not all(0.0 <= a <= params.alpha_max for a in csv.column("alpha")):
        errors.append("alpha outside [0, alpha_max]")
    p_cols = [c for c in csv.columns if c.startswith("p_")]
    if len(p_cols) != params.n:
        errors.append(f"{len(p_cols)} accept-probability columns, want {params.n}")
    if not all(0.0 <= p <= 1.0 for c in p_cols for p in csv.column(c)):
        errors.append("accept probability outside [0, 1]")
    return errors


def _check_row_count(csv: Csv, rows: int) -> list[str]:
    return [] if len(csv.rows) == rows else [f"{len(csv.rows)} rows, want {rows}"]


def _check_solve_ese(inv: Invocation, csv: Csv) -> list[str]:
    """Every unclamped row binds: |binding_delivery - delta| <= 1e-9."""
    delta = _params(inv).delta
    errors = _check_row_count(csv, inv.work)
    for row in csv.rows:
        got = dict(zip(csv.columns, row))
        if not all(math.isfinite(v) for v in row):
            errors.append(f"non-finite row {row}")
        elif not got["alpha_clamped"] and abs(got["binding_delivery"] - delta) > BINDING_TOL:
            errors.append(f"tau={got['tau']}: binding delivery "
                          f"{got['binding_delivery']} != delta {delta}")
    return errors


def _check_solve_mse(inv: Invocation, csv: Csv) -> list[str]:
    """One row per point; feasible rows carry a finite reward and p_min <= 1."""
    errors = _check_row_count(csv, inv.work)
    for row in csv.rows:
        got = dict(zip(csv.columns, row))
        feasible = got["feasible"] == 1.0
        if feasible != (got["p_min"] <= 1.0) or (feasible and not math.isfinite(got["alpha_star"])):
            errors.append(f"tau={got['tau']}: inconsistent row {row}")
    return errors


def _check_solve_pse(inv: Invocation, csv: Csv) -> list[str]:
    """Cohorts n_a_min..n for every swept n, nothing else."""
    from dtnsat.equilibrium import minimum_satisfying_cohort

    n_a_min = minimum_satisfying_cohort(_params(inv))
    want = [(n, m) for n in _sweep_values(inv) for m in range(n_a_min, int(n) + 1)]
    got = list(zip(csv.column("n"), csv.column("n_a")))
    errors = [] if got == want else [f"{len(got)} cohort rows, want {len(want)}"]
    if any(v != n_a_min for v in csv.column("n_a_min")):
        errors.append(f"n_a_min differs from {n_a_min}")
    return errors


def _check_region(inv: Invocation, csv: Csv) -> list[str]:
    """Satisfied flips once, at the reported bisection threshold."""
    from dtnsat.equilibrium import BISECTION_TOL

    delta = _params(inv).delta
    errors = _check_row_count(csv, inv.work)
    flags = csv.column("satisfied")
    if flags != [float(d >= delta) for d in csv.column("delivery")]:
        errors.append("satisfied flag disagrees with delivery >= delta")
    if flags != sorted(flags):
        errors.append("satisfied is not monotone in lambda")
    threshold = csv.meta.get("threshold", "none")
    hits = [lam for lam, f in zip(csv.column("lambda"), flags) if f]
    misses = [lam for lam, f in zip(csv.column("lambda"), flags) if not f]
    if (threshold == "none") != (not hits):
        errors.append(f"threshold {threshold} with {len(hits)} satisfied rows")
    elif hits:
        last_miss = misses[-1] if misses else -math.inf
        if not last_miss - BISECTION_TOL < float(threshold) <= hits[0] + BISECTION_TOL:
            errors.append(f"threshold {threshold} outside ({last_miss}, {hits[0]}]")
    return errors


def _check_pareto(inv: Invocation, csv: Csv) -> list[str]:
    count = csv.meta.get("dominating_points")
    if count != str(PARETO_DOMINATORS) or len(csv.rows) != PARETO_DOMINATORS:
        return [f"dominating_points {count}, {len(csv.rows)} rows, "
                f"want {PARETO_DOMINATORS}"]
    return []


# ------------------------------------------------------------- workloads

def _mc_oracle(seeds: Iterator[int], size: str) -> list[Invocation]:
    trials = 2000 if size == "full" else 100
    cohorts = (("n7", "", "0.05,0.1,0.25"), ("n40", "n = 40\n", "0.01,0.02,0.05"))
    return [Invocation(label, "simulate",
                       f"{extra}sweep.var = p\nsweep.values = {values}\n",
                       ("--trials", str(trials), "--contact-mode", "model",
                        "--seed", str(seed)),
                       work=trials * len(values.split(",")),
                       check=_check_simulate)
            for (label, extra, values), seed in zip(cohorts, seeds)]


def _learn_coupled(seeds: Iterator[int], size: str) -> list[Invocation]:
    horizon = 5000 if size == "full" else 200
    runs = (("episode-n7", ""), ("mean-field-n7", "feed = mean-field\n"),
            ("episode-n40", "n = 40\n"))
    return [Invocation(label, "learn", f"horizon = {horizon}\n{extra}",
                       ("--seed", str(seed)), work=horizon, check=_check_learn)
            for (label, extra), seed in zip(runs, seeds)]


def _closed_form(seeds: Iterator[int], size: str) -> list[Invocation]:
    points = 5000 if size == "full" else 50

    def sweep(var, start, stop, count):
        return (f"sweep.var = {var}\nsweep.start = {start}\n"
                f"sweep.stop = {stop}\nsweep.points = {count}\n")

    specs = (
        ("solve-ese", sweep("tau", 20, 2000, points), points, _check_solve_ese),
        ("solve-mse", sweep("tau", 20, 2000, points), points, _check_solve_mse),
        ("solve-pse", sweep("n", 1, 60, 60), 60, _check_solve_pse),
        ("region", sweep("lambda", 0.001, 0.1, points), points, _check_region),
        ("pareto-grid", "", 0, _check_pareto),
    )
    return [Invocation(mode, mode, config, ("--seed", str(seed)), work=work,
                       check=check)
            for (mode, config, work, check), seed in zip(specs, seeds)]


# workload-specific end-to-end metrics of one repetition, from the calls'
# wall times and checked outputs

def _mc_oracle_metrics(invs: list[Invocation], walls: list[float],
                       csvs: list[Csv]) -> dict[str, float]:
    wall = sum(walls)
    se2 = max(se ** 2 for csv in csvs for se in csv.column("delivery_se"))
    return {"trials_per_s": sum(i.work for i in invs) / wall,
            "time_to_se_s": wall * se2 / 1e-6}


def _learn_coupled_metrics(invs: list[Invocation], walls: list[float],
                           csvs: list[Csv]) -> dict[str, float]:
    return {"learn_iters_per_s": sum(i.work for i in invs) / sum(walls)}


def _closed_form_metrics(invs: list[Invocation], walls: list[float],
                         csvs: list[Csv]) -> dict[str, float]:
    grid = [w for i, w in zip(invs, walls) if i.mode == "pareto-grid"]
    sweeps = [(i.work, w) for i, w in zip(invs, walls) if i.mode != "pareto-grid"]
    return {"pareto_grid_s": sum(grid),
            "sweep_points_per_s": sum(p for p, _ in sweeps) / sum(w for _, w in sweeps)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Iterator[int], str], list[Invocation]]
    # workload-specific end-to-end metrics (name -> unit) and their values
    metrics: dict[str, str]
    derive: Callable[[list[Invocation], list[float], list[Csv]], dict[str, float]]


WORKLOADS = {w.name: w for w in (
    Workload("mc-oracle",
             "dtnsat simulate at n = 7 and n = 40: per-trial stream setup, "
             "episode draw and relay scoring dominate",
             _mc_oracle, {"trials_per_s": "1/s", "time_to_se_s": "s"}, _mc_oracle_metrics),
    Workload("learn-coupled",
             "dtnsat learn, horizon 5000: one episode per iteration on a "
             "shared stream, learner steps and large CSV writes",
             _learn_coupled, {"learn_iters_per_s": "1/s"}, _learn_coupled_metrics),
    Workload("closed-form",
             "solve-* and region sweeps plus the 101x101 pareto-grid: "
             "model and equilibrium only, no random draws",
             _closed_form, {"pareto_grid_s": "s", "sweep_points_per_s": "1/s"},
             _closed_form_metrics),
)}


def invocations(workload: str, seed: int, size: str) -> list[Invocation]:
    """The workload's CLI calls; call i gets ``--seed 100 * seed + i``."""
    return WORKLOADS[workload].build(itertools.count(100 * seed), size)
