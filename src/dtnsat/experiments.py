"""Scenario configuration, experiment dispatch and CSV emission.

Configs are flat ``key = value`` text with ``#`` comments; dotted keys hold
the sweep specification.  Every emitted CSV embeds the fully resolved
configuration as leading comment lines so any result file is reproducible
on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import __version__
from .equilibrium import (
    DegenerateContactError,
    ese_columns,
    mse_columns,
    pareto_grid_scan,
    pse_columns,
    region_columns,
    solve_ese,
)
from .learning import EPISODE, FEEDS, run_coupled
from .model import _BOUNDS, _HOLDS, GameParams
from .simulate import CONTACT_MODES, MODEL, estimate_delivery, estimate_relay_utility


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
    feed: str
    mode: Optional[str] = None

    def echo(self) -> dict[str, str]:
        """Resolved key/value view, the one embedded in every output."""
        items = {_FIELD_KEYS[f.name]: getattr(self.params, f.name) for f in fields(GameParams)}
        items.update(p=self.p, trials=self.trials, seed=self.seed,
                     contact_mode=self.contact_mode, horizon=self.horizon, feed=self.feed)
        if self.alpha is not None:
            items["alpha"] = self.alpha
        if self.mode is not None:
            items["mode"] = self.mode
        if self.sweep is not None:
            items["sweep.var"] = self.sweep.var
            # the values are floats, which _fmt prints as %.12g
            values = self.sweep.values
            items["sweep.values"] = ",".join(["%.12g"] * len(values)) % values
        return {k: _fmt(v) for k, v in items.items()}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# every config key: its parser and its default (None when unset)
_KEYS = {
    "lambda": (float, 0.015), "tau": (float, 100.0), "n": (int, 7),
    "delta": (float, 0.21), "sigma": (float, 0.2), "gamma": (float, 0.15),
    "e": (float, 3.8e-5), "e_r": (float, 2e-5), "e_t": (float, 2e-5),
    "alpha_max": (float, 5.0), "p": (float, 1.0), "alpha": (float, None),
    "trials": (int, 10000), "seed": (int, 1),
    "horizon": (int, 5000), "contact_mode": (str, MODEL), "feed": (str, EPISODE),
    "sweep.var": (str, None), "sweep.values": (_floats, None),
    "sweep.start": (float, None), "sweep.stop": (float, None),
    "sweep.points": (int, None),
}
# each model field's config key
_FIELD_KEYS = {"lam": "lambda", "tau": "tau", "n": "n", "delta": "delta", "sigma": "sigma",
               "gamma": "gamma", "e_store": "e", "e_receive": "e_r", "e_transmit": "e_t",
               "alpha_max": "alpha_max"}
# each config key's bound: the model's for its field, and p's
_KEY_BOUNDS = {"p": "in [0, 1]", **{_FIELD_KEYS[name]: bound
                                    for group in _BOUNDS for name, bound in group.items()}}


def parse_config(text: str, overrides: Optional[dict[str, str]] = None
                 ) -> ScenarioConfig:
    """Parse and validate config text, filling defaults for missing keys.

    ``overrides`` maps keys to the text of the CLI flags that replace the
    file's values; both are parsed and validated alike, and a bad flag is
    reported by its key.
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
        raw[key] = _parse_value(key, value, f"line {lineno}")
    for key, value in (overrides or {}).items():
        raw[key] = _parse_value(key, value, "--" + key.replace("_", "-"))
    return _build_config(raw)


def _parse_value(key: str, value: str, where: str) -> object:
    try:
        return _KEYS[key][0](value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def _build_config(raw: dict[str, object]) -> ScenarioConfig:
    v = {key: raw.get(key, default) for key, (_, default) in _KEYS.items()}
    try:
        params = GameParams(**{f.name: v[_FIELD_KEYS[f.name]] for f in fields(GameParams)})
    except ValueError as exc:
        # the model's messages open with the field name; report the key
        field, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_FIELD_KEYS[field]} {rest}") from None

    for key, low in (("trials", 1), ("horizon", 1), ("seed", 0)):
        if v[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {v[key]}")
    for key, choices in (("contact_mode", CONTACT_MODES), ("feed", FEEDS)):
        if v[key] not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {v[key]!r}")
    if not _HOLDS[_KEY_BOUNDS["p"]](v["p"]):
        raise ConfigError(f"p must be {_KEY_BOUNDS['p']}, got {v['p']}")
    if v["alpha"] is not None and not 0 <= v["alpha"] <= params.alpha_max:
        raise ConfigError(f"alpha must be in [0, alpha_max], got {v['alpha']}")

    return ScenarioConfig(params=params, sweep=_build_sweep(v), trials=v["trials"],
                          seed=v["seed"], contact_mode=v["contact_mode"],
                          p=v["p"], alpha=v["alpha"], horizon=v["horizon"],
                          feed=v["feed"])


def _build_sweep(v: dict[str, object]) -> Optional[SweepSpec]:
    if all(v[k] is None for k in v if k.startswith("sweep.")):
        return None
    var = v["sweep.var"]
    if var is None:
        raise ConfigError("sweep.var is required when any sweep key is set")
    if var not in SWEEP_VARS:
        raise ConfigError(f"sweep.var must be one of {SWEEP_VARS}, got {var!r}")
    values = v["sweep.values"]
    grid = ("sweep.start", "sweep.stop", "sweep.points")
    if values is None:
        for need in grid:
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
        # start + i*step with Python's bits, allocated up front; numpy makes an
        # empty range of 2**63 - 2 points, and NaNs (named below) of an inf step
        try:
            with np.errstate(all="ignore"):
                spaced = np.arange(points - 1) * step + start
            if len(spaced) != points - 1:
                raise MemoryError
            values = tuple(spaced.tolist()) + (stop,)
        except (MemoryError, ValueError):
            raise ConfigError(f"sweep.points = {points} is too large to allocate") from None
    elif any(v[key] is not None for key in grid):
        raise ConfigError("sweep.values conflicts with "
                          f"{', '.join(key for key in grid if v[key] is not None)}; "
                          "give either the list or the grid")
    _validate_sweep_values(var, values)
    return SweepSpec(var=var, values=tuple(values))


def _validate_sweep_values(var: str, values) -> None:
    """Each swept float finite and in the bound of its key; an integral n
    is tested as the int the model takes."""
    bound = _KEY_BOUNDS[var]
    holds = _HOLDS[bound]
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"swept {var} must be finite, got {v}")
        if not holds(int(v) if var == "n" and v == int(v) else v):
            raise ConfigError(f"swept {var} must be {bound}, got {v}")


# rows of a float table stacked and formatted at once
_BLOCK = 512


class ResultTable:
    """A CSV table: column names, float ``data`` columns and ``# key =
    value`` metadata.  Each data column is 1-D or 2-D (one table column per
    array column), all of one length; a row, or a slice of rows, is stacked
    from them only when it is read.  Every mode's cells are floats;
    ``%.12g`` prints the integer and flag cells as integers."""

    def __init__(self, columns: tuple[str, ...], data, metadata: tuple[tuple[str, str], ...]):
        arrays = [np.asarray(c, dtype=float) for c in data]
        self.columns, self.metadata = columns, metadata
        self.data = tuple(c[:, None] if c.ndim == 1 else c for c in arrays)
        if len({len(c) for c in self.data}) > 1:
            raise ValueError(f"column lengths {[len(c) for c in self.data]} differ")
        width = sum(c.shape[1] for c in self.data)
        if width != len(columns):
            raise ValueError(f"row width {width} != {len(columns)} columns")

    def __len__(self) -> int:
        return len(self.data[0])

    def __getitem__(self, index) -> np.ndarray:
        return np.hstack([c[index] for c in self.data])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_lines(table: ResultTable):
    """Metadata comments and header, one newline-terminated line each, then
    the rows, all giving :func:`_fmt`'s bytes.

    The rows go out ``_BLOCK`` rows at a time: the block's column slices
    are stacked and printed by one ``%.12g`` row format, repeated over the
    block."""
    yield from (f"# {key} = {value}\n" for key, value in table.metadata)
    yield ",".join(table.columns) + "\n"
    row_format = ",".join(["%.12g"] * len(table.columns)) + "\n"
    for start in range(0, len(table), _BLOCK):
        block = table[start:start + _BLOCK]
        yield (row_format * len(block)) % tuple(block.ravel().tolist())


def emit_csv(table: ResultTable, path: str) -> None:
    """Write the table as :func:`_csv_lines` text, each piece as it is formatted."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_csv_lines(table))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _metadata(config: ScenarioConfig, extra: dict[str, str] | None = None
              ) -> tuple[tuple[str, str], ...]:
    meta = {"build": f"dtnsat {__version__}"}
    meta.update(config.echo())
    if extra:
        meta.update(extra)
    return tuple(meta.items())


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Dispatch on the mode and evaluate it over the sweep grid."""
    if config.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {config.mode!r}")
    runner, sweeps, size_keys = _MODE_TABLE[config.mode]
    if config.sweep is not None and config.sweep.var not in sweeps:
        raise ConfigError(f"mode {config.mode} does not sweep sweep.var = {config.sweep.var}; "
                          f"it sweeps {', '.join(sweeps) or 'nothing'}")
    try:
        return runner(config)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"mode {config.mode}: {exc}") from exc
    except (MemoryError, OverflowError):
        # numpy and list refuse a size past the index range with OverflowError
        raise ConfigError(f"mode {config.mode}: the run is too large to allocate"
                          + (f"; lower {size_keys}" if size_keys else "")) from None


def _swept(config: ScenarioConfig) -> tuple[Optional[str], tuple[float, ...]]:
    """(var, values) of the config's sweep, (None, ()) without one; a swept
    table leads with the column ``var``."""
    return (config.sweep.var, config.sweep.values) if config.sweep is not None else (None, ())


def _column_table(config: ScenarioConfig, names: list[str], columns,
                  extra: dict[str, str] | None = None, point=None) -> ResultTable:
    """One float row per point, or per entry of ``point``, the index of each
    row's point: the swept value (if any) and then ``columns``, 1-D or 2-D,
    named ``names``.  The columns are held as they are, never stacked whole;
    %.12g prints the integer and flag columns as %d would."""
    var, values = _swept(config)
    if var is not None:
        names, columns = (var, *names), (values if point is None else np.take(values, point),
                                         *columns)
    return ResultTable(tuple(names), columns, _metadata(config, extra))


def _run_solve_pse(config: ScenarioConfig) -> ResultTable:
    point, *columns = pse_columns(config.params, *_swept(config))
    return _column_table(config, ["n_a", "alpha_star", "clamped", "n_a_min", "feasible"],
                         columns, point=point)


def _run_solve_mse(config: ScenarioConfig) -> ResultTable:
    # where no relay ever delivers, p_min is inf
    return _column_table(config, ["p_min", "alpha_star", "z_star", "feasible"],
                         mse_columns(config.params, *_swept(config)))


def _run_solve_ese(config: ScenarioConfig) -> ResultTable:
    # unreachable QoS marks its own row with p_min, as in solve-mse
    return _column_table(config, ["p_star", "alpha_star", "binding_delivery", "alpha_clamped"],
                         ese_columns(config.params, *_swept(config)))


def _run_region(config: ScenarioConfig) -> ResultTable:
    var, values = _swept(config)
    if var is None:
        raise ConfigError("mode region needs a sweep over tau or lambda")
    delivery, threshold = region_columns(config.params, var, values, config.p)
    satisfied = delivery >= config.params.delta
    extra = {"threshold": _fmt(threshold) if threshold is not None else "none"}
    return _column_table(config, ["delivery", "satisfied"], (delivery, satisfied), extra)


def _run_learn(config: ScenarioConfig) -> ResultTable:
    traj = run_coupled(config.params, config.horizon, config.seed, feed=config.feed,
                       contact_mode=config.contact_mode)
    names = ["k", "alpha", "u_s_est", *(f"p_{i + 1}" for i in range(config.params.n)),
             "n_accept", "delivered"]
    return _column_table(config, names, (np.arange(1, config.horizon + 1), traj.alpha,
                                         traj.u_s_est, traj.accept_probs, traj.n_accept,
                                         traj.delivered))


def _run_simulate(config: ScenarioConfig) -> ResultTable:
    # simulate sweeps only p, so every row shares the config's params and reward
    reward = config.alpha
    if reward is None:
        try:
            reward = solve_ese(config.params).alpha_star
        except DegenerateContactError as exc:
            raise ConfigError(f"alpha is unset and there is no binding "
                              f"equilibrium to take it from: {exc}") from None
    ps = _swept(config)[1] or (config.p,)

    def row(p):
        delivery = estimate_delivery(config.params, p, config.trials, config.seed,
                                     config.contact_mode)
        relay = estimate_relay_utility(config.params, p, reward, config.trials,
                                       config.seed, config.contact_mode)
        return p, delivery.mean, delivery.stderr, relay.mean, relay.stderr, config.trials
    rows = np.fromiter(map(row, ps), np.dtype((float, 6)))
    return ResultTable(("p", "delivery_mean", "delivery_se", "relay_utility_mean",
                        "relay_utility_se", "trials"), (rows,), _metadata(config))


def _run_pareto_grid(config: ScenarioConfig) -> ResultTable:
    ese = solve_ese(config.params)
    scan = pareto_grid_scan(config.params, ese)
    extra = {"ese_p_star": _fmt(ese.p_star), "ese_alpha_star": _fmt(ese.alpha_star),
             "dominating_points": str(len(scan))}
    return _column_table(config, ["p", "alpha", "source_margin_delta", "relay_utility_delta"],
                         (scan,), extra)


# every mode: its runner, the sweep variables it honours and the config
# keys that size the arrays it allocates
_SOLVE_SWEEPS = ("tau", "lambda", "n", "delta")
_MODE_TABLE = {
    "solve-pse": (_run_solve_pse, _SOLVE_SWEEPS, "n"),
    "solve-mse": (_run_solve_mse, _SOLVE_SWEEPS, None),
    "solve-ese": (_run_solve_ese, _SOLVE_SWEEPS, None),
    "region": (_run_region, ("tau", "lambda"), None),
    "learn": (_run_learn, (), "horizon or n"),
    "simulate": (_run_simulate, ("p",), "trials or n"),
    "pareto-grid": (_run_pareto_grid, (), None),
}
MODES = tuple(_MODE_TABLE)
SWEEP_VARS = tuple(dict.fromkeys(var for _, sweeps, _ in _MODE_TABLE.values() for var in sweeps))
