"""Scenario configuration, experiment dispatch and CSV emission.

Configs are flat ``key = value`` text with ``#`` comments; dotted keys hold
the sweep specification.  Every emitted CSV embeds the fully resolved
configuration as leading comment lines so any result file is reproducible
on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import __version__
from .equilibrium import (
    DegenerateContactError,
    pareto_grid_scan,
    satisfaction_region,
    solve_ese,
    solve_mse,
    solve_pse,
)
from .learning import EPISODE, MEAN_FIELD, Schedules, run_coupled
from .model import ContactModel, EnergyModel, GameParams, \
    expected_source_utility_mixed, with_param
from .simulate import MODEL, PHYSICAL, estimate_delivery, estimate_relay_utility

MODES = ("solve-pse", "solve-mse", "solve-ese", "region", "learn", "simulate",
         "pareto-grid")
SWEEP_VARS = ("tau", "lambda", "n", "delta", "p")


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


@dataclass(frozen=True)
class SweepSpec:
    var: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    params: GameParams
    sweep: Optional[SweepSpec]
    trials: int
    seed: int
    contact_mode: str
    p: float
    alpha: Optional[float]
    horizon: int
    alpha0: Optional[float]
    feed: str
    mode: Optional[str] = None

    def echo(self) -> dict[str, str]:
        """Resolved key/value view, the one embedded in every output."""
        c, e = self.params.contact, self.params.energy
        items = {
            "lambda": c.lam, "tau": c.tau, "n": self.params.n,
            "delta": self.params.delta, "sigma": self.params.sigma,
            "gamma": self.params.gamma, "e": e.e_store, "e_r": e.e_receive,
            "e_t": e.e_transmit, "alpha_max": self.params.alpha_max,
            "p": self.p, "trials": self.trials, "seed": self.seed,
            "contact_mode": self.contact_mode, "horizon": self.horizon,
            "feed": self.feed,
        }
        if self.alpha is not None:
            items["alpha"] = self.alpha
        if self.alpha0 is not None:
            items["alpha0"] = self.alpha0
        if self.mode is not None:
            items["mode"] = self.mode
        if self.sweep is not None:
            items["sweep.var"] = self.sweep.var
            items["sweep.values"] = ",".join(_fmt(v) for v in self.sweep.values)
        return {k: _fmt(v) for k, v in items.items()}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# every config key: its parser and its default (None when unset)
_KEYS = {
    "lambda": (float, 0.015), "tau": (float, 100.0), "n": (int, 7),
    "delta": (float, 0.21), "sigma": (float, 0.2), "gamma": (float, 0.15),
    "e": (float, 3.8e-5), "e_r": (float, 2e-5), "e_t": (float, 2e-5),
    "alpha_max": (float, 5.0), "p": (float, 1.0), "alpha": (float, None),
    "alpha0": (float, None), "trials": (int, 10000), "seed": (int, 1),
    "horizon": (int, 5000), "contact_mode": (str, MODEL), "feed": (str, EPISODE),
    "sweep.var": (str, None), "sweep.values": (_floats, None),
    "sweep.start": (float, None), "sweep.stop": (float, None),
    "sweep.points": (int, None),
}


def parse_config(text: str, overrides: Optional[dict[str, object]] = None
                 ) -> ScenarioConfig:
    """Parse and validate config text, filling defaults for missing keys.

    ``overrides`` holds already-typed values (the CLI flags) that replace
    the file's; both go through the same validation.
    """
    raw: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        try:
            raw[key] = _KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    raw.update(overrides or {})
    return _build_config(raw)


def _build_config(raw: dict[str, object]) -> ScenarioConfig:
    v = {key: raw.get(key, default) for key, (_, default) in _KEYS.items()}
    try:
        params = GameParams(
            contact=ContactModel(lam=v["lambda"], tau=v["tau"]),
            energy=EnergyModel(e_store=v["e"], e_receive=v["e_r"],
                               e_transmit=v["e_t"]),
            n=v["n"], sigma=v["sigma"], gamma=v["gamma"], delta=v["delta"],
            alpha_max=v["alpha_max"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    for key, low in (("trials", 1), ("horizon", 1), ("seed", 0)):
        if v[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {v[key]}")
    for key, (a, b) in (("contact_mode", (MODEL, PHYSICAL)),
                        ("feed", (MEAN_FIELD, EPISODE))):
        if v[key] not in (a, b):
            raise ConfigError(f"{key} must be '{a}' or '{b}', got {v[key]!r}")
    if not 0 <= v["p"] <= 1:
        raise ConfigError(f"p must be in [0, 1], got {v['p']}")
    for key in ("alpha", "alpha0"):
        if v[key] is not None and not 0 <= v[key] <= params.alpha_max:
            raise ConfigError(f"{key} must be in [0, alpha_max], got {v[key]}")

    return ScenarioConfig(params=params, sweep=_build_sweep(v), trials=v["trials"],
                          seed=v["seed"], contact_mode=v["contact_mode"],
                          p=v["p"], alpha=v["alpha"], horizon=v["horizon"],
                          alpha0=v["alpha0"], feed=v["feed"])


def _build_sweep(v: dict[str, object]) -> Optional[SweepSpec]:
    if all(v[k] is None for k in v if k.startswith("sweep.")):
        return None
    var = v["sweep.var"]
    if var is None:
        raise ConfigError("sweep.var is required when any sweep key is set")
    if var not in SWEEP_VARS:
        raise ConfigError(f"sweep.var must be one of {SWEEP_VARS}, got {var!r}")
    values = v["sweep.values"]
    if values is None:
        for need in ("sweep.start", "sweep.stop", "sweep.points"):
            if v[need] is None:
                raise ConfigError(f"sweep needs {need} (or sweep.values)")
        points = v["sweep.points"]
        if points < 2:
            raise ConfigError(f"sweep.points must be >= 2, got {points}")
        start, stop = v["sweep.start"], v["sweep.stop"]
        if not start < stop:
            raise ConfigError(f"sweep range must have start < stop, got "
                              f"[{start}, {stop}]")
        step = (stop - start) / (points - 1)
        values = tuple(start + i * step for i in range(points - 1)) + (stop,)
    elif len(values) < 1:
        raise ConfigError("sweep.values must name at least one value")
    _validate_sweep_values(var, values)
    return SweepSpec(var=var, values=tuple(values))


def _validate_sweep_values(var: str, values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"swept {var} must be finite, got {v}")
        if var == "tau" and v <= 0:
            raise ConfigError(f"swept tau must be > 0, got {v}")
        if var == "lambda" and v < 0:
            raise ConfigError(f"swept lambda must be >= 0, got {v}")
        if var == "n" and (v < 1 or v != int(v)):
            raise ConfigError(f"swept n must be a positive integer, got {v}")
        if var == "delta" and not 0 < v < 1:
            raise ConfigError(f"swept delta must be in (0, 1), got {v}")
        if var == "p" and not 0 <= v <= 1:
            raise ConfigError(f"swept p must be in [0, 1], got {v}")


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} != {len(self.columns)} columns")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def format_csv(table: ResultTable) -> str:
    """Metadata comments, header and rows; stable byte-for-byte output."""
    lines = [f"# {key} = {value}" for key, value in table.metadata]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_csv(table: ResultTable, path: str) -> None:
    """Write the table as :func:`format_csv` text."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_csv(table))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _metadata(config: ScenarioConfig, extra: dict[str, str] | None = None
              ) -> tuple[tuple[str, str], ...]:
    meta = {"build": f"dtnsat {__version__}"}
    meta.update(config.echo())
    if extra:
        meta.update(extra)
    return tuple(meta.items())


def _sweep_points(config: ScenarioConfig) -> list[tuple[list[float], ScenarioConfig]]:
    """(leading sweep column, scenario) per point; the column is [] without a sweep."""
    if config.sweep is None:
        return [([], config)]
    var = config.sweep.var
    return [([v], replace(config, p=v) if var == "p"
             else replace(config, params=with_param(config.params, var, v)))
            for v in config.sweep.values]


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Dispatch on the mode and evaluate it over the sweep grid."""
    if config.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {config.mode!r}")
    runner = {
        "solve-pse": _run_solve_pse,
        "solve-mse": _run_solve_mse,
        "solve-ese": _run_solve_ese,
        "region": _run_region,
        "learn": _run_learn,
        "simulate": _run_simulate,
        "pareto-grid": _run_pareto_grid,
    }[config.mode]
    try:
        return runner(config)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"mode {config.mode}: {exc}") from exc


def _sweep_col(config: ScenarioConfig) -> list[str]:
    return [config.sweep.var] if config.sweep is not None else []


def _run_solve_pse(config: ScenarioConfig) -> ResultTable:
    columns = _sweep_col(config) + ["n_a", "alpha_star", "clamped", "n_a_min",
                                    "feasible"]
    rows = []
    for lead, cfg in _sweep_points(config):
        sol = solve_pse(cfg.params)
        for m in sorted(sol.alpha_star):
            rows.append((*lead, m, sol.alpha_star[m], int(sol.clamped[m]),
                         sol.n_a_min, int(sol.feasible)))
    return ResultTable(tuple(columns), tuple(rows), _metadata(config))


def _run_solve_mse(config: ScenarioConfig) -> ResultTable:
    columns = _sweep_col(config) + ["p_min", "alpha_star", "z_star", "feasible"]
    rows = []
    for lead, cfg in _sweep_points(config):
        sol = solve_mse(cfg.params)
        alpha = sol.alpha_of_p(sol.p_min) if sol.feasible else math.nan
        rows.append((*lead, sol.p_min, alpha, sol.z_star, int(sol.feasible)))
    return ResultTable(tuple(columns), tuple(rows), _metadata(config))


def _run_solve_ese(config: ScenarioConfig) -> ResultTable:
    columns = _sweep_col(config) + ["p_star", "alpha_star", "binding_delivery",
                                    "alpha_clamped"]
    rows = []
    for lead, cfg in _sweep_points(config):
        try:
            sol = solve_ese(cfg.params)
        except DegenerateContactError:
            # unreachable QoS marks its own row, as in solve-mse
            rows.append((*lead, solve_mse(cfg.params).p_min, math.nan, math.nan, 0))
            continue
        rows.append((*lead, sol.p_star, sol.alpha_star, sol.binding_delivery,
                     int(sol.alpha_clamped)))
    return ResultTable(tuple(columns), tuple(rows), _metadata(config))


def _run_region(config: ScenarioConfig) -> ResultTable:
    if config.sweep is None or config.sweep.var not in ("tau", "lambda"):
        raise ConfigError("region mode needs a sweep over tau or lambda")
    rows = []
    for lead, cfg in _sweep_points(config):
        delivery = expected_source_utility_mixed(cfg.p, cfg.params)
        rows.append((*lead, delivery, int(delivery >= cfg.params.delta)))
    lo, hi = min(config.sweep.values), max(config.sweep.values)
    threshold = satisfaction_region(config.params, config.sweep.var, lo, hi,
                                    config.p)
    extra = {"threshold": _fmt(threshold) if threshold is not None else "none"}
    return ResultTable((config.sweep.var, "delivery", "satisfied"),
                       tuple(rows), _metadata(config, extra))


def _run_learn(config: ScenarioConfig) -> ResultTable:
    if config.sweep is not None:
        raise ConfigError("learn mode does not support sweeps; run one scenario per file")
    schedules = Schedules(horizon=config.horizon)
    traj = run_coupled(config.params, schedules, config.seed, feed=config.feed,
                       contact_mode=config.contact_mode, alpha0=config.alpha0)
    return ResultTable(tuple(traj.csv_header()),
                       tuple(tuple(r) for r in traj.csv_rows()),
                       _metadata(config))


def _run_simulate(config: ScenarioConfig) -> ResultTable:
    columns = ["p", "delivery_mean", "delivery_se", "relay_utility_mean",
               "relay_utility_se", "trials"]
    if config.sweep is not None and config.sweep.var != "p":
        raise ConfigError("simulate mode sweeps only p")
    rows = []
    for _, cfg in _sweep_points(config):
        reward = cfg.alpha
        if reward is None:
            try:
                reward = solve_ese(cfg.params).alpha_star
            except DegenerateContactError as exc:
                raise ConfigError(f"alpha is unset and there is no binding "
                                  f"equilibrium to take it from: {exc}") from None
        delivery = estimate_delivery(cfg.params, cfg.p, cfg.trials, cfg.seed,
                                     cfg.contact_mode)
        relay = estimate_relay_utility(cfg.params, cfg.p, reward, cfg.trials,
                                       cfg.seed, cfg.contact_mode)
        rows.append((cfg.p, delivery.mean, delivery.stderr, relay.mean,
                     relay.stderr, cfg.trials))
    return ResultTable(tuple(columns), tuple(rows), _metadata(config))


def _run_pareto_grid(config: ScenarioConfig) -> ResultTable:
    ese = solve_ese(config.params)
    dominators = [(p, a, v.source_margin_delta, v.relay_utility_delta)
                  for p, a, v in pareto_grid_scan(config.params, ese)]
    extra = {"ese_p_star": _fmt(ese.p_star), "ese_alpha_star": _fmt(ese.alpha_star),
             "dominating_points": str(len(dominators))}
    return ResultTable(("p", "alpha", "source_margin_delta", "relay_utility_delta"),
                       tuple(dominators), _metadata(config, extra))
