import hashlib
import io
import itertools
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dtnsat
from dtnsat import experiments
from dtnsat.cli import main
from dtnsat.equilibrium import mse_columns, pse_columns
from dtnsat.experiments import (
    _KEYS,
    _MODE_TABLE,
    MODES,
    SWEEP_VARS,
    ConfigError,
    ResultTable,
    SweepSpec,
    _CELLS,
    _FIELD_KEYS,
    _csv_lines,
    _fmt,
    emit_csv,
    parse_config,
    run_scenario,
)
from dtnsat.model import _BOUNDS, GameParams
from dataclasses import asdict, replace
from oracles import with_param

FOUR_TARGET_CONFIG = """
# three relays, varying QoS target
n = 3
lambda = 0.015
tau = 100
sweep.var = delta
sweep.values = 0.02,0.48,0.65,0.85
"""


def _fields(params: GameParams) -> dict:
    """Each field of the record, and of any record it holds, by name."""
    flat = {}
    for name, value in asdict(params).items():
        flat.update(value if isinstance(value, dict) else {name: value})
    return flat


class TestParseConfig:
    def test_empty_gives_reference_defaults(self):
        cfg = parse_config("")
        p = cfg.params
        assert (p.lam, p.tau) == (0.015, 100.0)
        assert (p.n, p.delta, p.sigma, p.gamma) == (7, 0.21, 0.2, 0.15)
        assert (p.e_store, p.e_receive, p.e_transmit) == \
            (3.8e-5, 2e-5, 2e-5)
        assert p.alpha_max == 5.0
        assert cfg.contact_mode == "model"
        assert cfg.sweep == SweepSpec()
        assert tuple(cfg.sweep) == (None, ())

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nn = 3  # trailing\n")
        assert cfg.params.n == 3

    @pytest.mark.parametrize("line, message", [
        ("delta = 1.5", "delta"),
        ("contact_mode = phys", r"^contact_mode must be one of \('model', 'physical'\), "
                                "got 'phys'$"),
        ("feed = meanfield", r"^feed must be one of \('episode', 'mean-field'\), "
                             "got 'meanfield'$"),
        ("p = -0.1", r"^p must be in \[0, 1\], got -0.1$"),
        ("p = 1.5", r"^p must be in \[0, 1\], got 1.5$"),
        ("p = nan", r"^p must be in \[0, 1\], got nan$"),
        # the tightest values past each end: this check alone keeps them out of
        # the model
        ("p = -5e-324", r"^p must be in \[0, 1\], got -5e-324$"),
        ("p = 1.0000000000000002", r"^p must be in \[0, 1\], got 1.0000000000000002$"),
        ("alpha = -1", r"^alpha must be in \[0, alpha_max\], got -1.0$"),
        ("alpha = 6", r"^alpha must be in \[0, alpha_max\], got 6.0$"),
        ("alpha = nan", r"^alpha must be in \[0, alpha_max\], got nan$"),
        ("alpha = -5e-324", r"^alpha must be in \[0, alpha_max\], got -5e-324$"),
        ("alpha = 5.000000000000001",
         r"^alpha must be in \[0, alpha_max\], got 5.000000000000001$"),
    ])
    def test_out_of_range_value_names_key(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(line)

    @pytest.mark.parametrize("text, message", [
        ("lambda = -1", "lambda must be >= 0, got -1.0"),
        ("lambda = inf", "lambda must be finite, got inf"),
        # q = exp(-lambda*tau) would leave [0, 1] only past these checks
        ("lambda = -5e-324", "lambda must be >= 0, got -5e-324"),
        ("lambda = nan", "lambda must be finite, got nan"),
        ("tau = nan", "tau must be finite, got nan"),
        ("e = -1", "e must be >= 0, got -1.0"),
        ("e_r = -2e-5", "e_r must be >= 0, got -2e-05"),
        ("e_t = nan", "e_t must be finite, got nan"),
        ("tau = 0", "tau must be > 0, got 0.0"),
        ("n = 0", "n must be a positive integer, got 0"),
        ("delta = 1", "delta must be in (0, 1), got 1.0"),
        ("sigma = -1", "sigma must be >= 0, got -1.0"),
        ("gamma = -1", "gamma must be >= 0, got -1.0"),
        ("alpha_max = 0", "alpha_max must be > 0, got 0.0"),
        # several bad keys: lambda and tau, then the energies, then n, then
        # the rest, each group's values finite before any is bounded
        ("lambda = -1\ntau = inf", "tau must be finite, got inf"),
        ("n = 0\nsigma = -1", "n must be a positive integer, got 0"),
        ("sigma = -1\ndelta = nan", "delta must be finite, got nan"),
    ])
    def test_model_field_error_names_the_config_key(self, text, message):
        # the model calls lambda, e, e_r and e_t lam, e_store, e_receive and e_transmit
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_every_model_key_lands_in_its_field_and_echoes_in_place(self):
        # distinct values, none a default, so a swapped pair of keys shows
        values = {"lambda": 0.031, "tau": 77.0, "n": 11, "delta": 0.37, "sigma": 0.43,
                  "gamma": 0.29, "e": 4.1e-5, "e_r": 3.3e-5, "e_t": 1.7e-5,
                  "alpha_max": 6.5}
        fields = {"lam": "lambda", "tau": "tau", "n": "n", "delta": "delta",
                  "sigma": "sigma", "gamma": "gamma", "e_store": "e", "e_receive": "e_r",
                  "e_transmit": "e_t", "alpha_max": "alpha_max"}
        cfg = parse_config("".join(f"{key} = {value}\n" for key, value in values.items()))
        landed = _fields(cfg.params)
        for field, key in fields.items():
            assert _FIELD_KEYS.get(field, field) == key
            assert landed[field] == values[key]
        echo = cfg.echo()
        assert list(echo)[:len(values)] == list(values)
        assert [echo[key] for key in values] == [_fmt(value) for value in values.values()]

    def test_reading_the_derived_constants_leaves_the_echo(self):
        cfg = parse_config("lambda = 0.031\ntau = 77.0\n")
        before = cfg.echo()
        assert cfg.params.q > 0 and cfg.params.reach > 0 and cfg.params.total_energy > 0
        assert cfg.echo() == before

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*frobnicate"):
            parse_config("n = 3\nfrobnicate = 1\n")

    def test_alpha0_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown key 'alpha0'"):
            parse_config("alpha0 = 1.0")

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_empty_value_reports_line_and_key(self):
        with pytest.raises(ConfigError, match="^line 2: empty value for key 'tau'$"):
            parse_config("n = 3\ntau =   # unset\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'n'.*line 1"):
            parse_config("n = 7\ntau = 50\nn = 9\n")

    @pytest.mark.parametrize("line", ["sigma = nan", "tau = inf", "lambda = nan"])
    def test_non_finite_value_rejected(self, line):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(line)

    def test_bad_number_reports_key(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config("tau = fast\n")

    def test_four_target_scenario(self):
        cfg = parse_config(FOUR_TARGET_CONFIG)
        assert cfg.params.n == 3
        assert cfg.sweep.var == "delta"
        assert cfg.sweep.values == (0.02, 0.48, 0.65, 0.85)
        assert tuple(cfg.sweep) == ("delta", (0.02, 0.48, 0.65, 0.85))

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config("trials = 0")

    @pytest.mark.parametrize("text, overrides", [("seed = -1", None),
                                                 ("", {"seed": -1})])
    def test_negative_seed_names_key(self, text, overrides):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            parse_config(text, overrides)

    def test_override_beats_file_value(self):
        cfg = parse_config("trials = 50\nseed = 4", {"trials": 7})
        assert (cfg.trials, cfg.seed) == (7, 4)

    def test_override_is_validated(self):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            parse_config("trials = 50", {"trials": 0})

    def test_every_key_documented_in_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = next(block for block in readme.split("\n\n")
                         if block.startswith("Config files are"))
        missing = [key for key in _KEYS if f"`{key}`" not in paragraph]
        assert not missing

    def test_every_mode_and_its_sweeps_documented_in_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = next(" ".join(block.split()) for block in readme.split("\n\n")
                         if block.startswith("Modes:"))
        listed, honours = paragraph.split(" honours: ", 1)
        assert all(f"`{mode}`" in listed for mode in MODES)
        documented = {}
        for clause in honours.split(".")[0].split("; "):
            names = re.findall(r"`([^`]+)`", clause)
            for mode in set(names) & set(MODES):
                documented[mode] = set(names) & set(SWEEP_VARS)
        assert documented == {mode: set(sweeps) for mode, (_, sweeps, _) in _MODE_TABLE.items()}

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="sweep.var"):
            parse_config("sweep.start = 1\nsweep.stop = 2\nsweep.points = 5")
        with pytest.raises(ConfigError, match="points"):
            parse_config("sweep.var = tau\nsweep.start = 1\nsweep.stop = 2\n"
                         "sweep.points = 1")
        with pytest.raises(ConfigError, match="start < stop"):
            parse_config("sweep.var = tau\nsweep.start = 5\nsweep.stop = 2\n"
                         "sweep.points = 3")
        with pytest.raises(ConfigError, match="one of"):
            parse_config("sweep.var = sigma\nsweep.values = 0.1")
        with pytest.raises(ConfigError, match=r"^sweep needs sweep.start \(or sweep.values\)$"):
            parse_config("sweep.var = tau\nsweep.stop = 2\nsweep.points = 3")

    def test_list_and_grid_sweep_forms_conflict(self):
        with pytest.raises(ConfigError, match="^sweep.values conflicts with "
                                              "sweep.start, sweep.stop, sweep.points;"):
            parse_config("sweep.var = tau\nsweep.values = 20,40\nsweep.start = 100\n"
                         "sweep.stop = 200\nsweep.points = 5")
        with pytest.raises(ConfigError, match="^sweep.values conflicts with sweep.points;"):
            parse_config("sweep.var = tau\nsweep.values = 20,40\nsweep.points = 5")

    def test_sweep_var_order_follows_the_mode_table(self):
        assert SWEEP_VARS == ("tau", "lambda", "n", "delta", "p")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("var", ["tau", "lambda", "n", "delta", "p"])
    def test_non_finite_swept_value_names_var(self, var, value):
        with pytest.raises(ConfigError, match=f"^swept {var} must be finite"):
            parse_config(f"sweep.var = {var}\nsweep.values = {value}")

    @pytest.mark.parametrize("var, value, message", [
        ("tau", "0", "swept tau must be > 0, got 0.0"),
        ("lambda", "-0.5", "swept lambda must be >= 0, got -0.5"),
        ("n", "0", "swept n must be a positive integer, got 0.0"),
        ("n", "2.5", "swept n must be a positive integer, got 2.5"),
        ("delta", "1", "swept delta must be in (0, 1), got 1.0"),
        ("p", "1.5", "swept p must be in [0, 1], got 1.5"),
        ("p", "-5e-324", "swept p must be in [0, 1], got -5e-324"),
        ("p", "1.0000000000000002", "swept p must be in [0, 1], got 1.0000000000000002"),
        ("lambda", "-5e-324", "swept lambda must be >= 0, got -5e-324"),
        ("tau", "-5e-324", "swept tau must be > 0, got -5e-324"),
        ("n", "0.9999999999999999", "swept n must be a positive integer, got 0.9999999999999999"),
        ("delta", "0", "swept delta must be in (0, 1), got 0.0"),
    ])
    def test_out_of_range_swept_value_names_var(self, var, value, message):
        with pytest.raises(ConfigError) as info:
            parse_config(f"sweep.var = {var}\nsweep.values = {value}")
        assert str(info.value) == message

    # each swept model key: the edge values GameParams accepts, then the
    # first values past them
    @pytest.mark.parametrize("var, edges, past", [
        ("tau", ["5e-324"], ["0", "-5e-324"]),
        ("lambda", ["0", "-0.0"], ["-5e-324"]),
        ("n", ["1.0"], ["0.9999999999999999", "0"]),
        ("delta", ["5e-324", "0.9999999999999999"], ["0", "1"]),
    ])
    def test_swept_values_meet_the_models_bounds(self, var, edges, past):
        field = next(f for f, key in _FIELD_KEYS.items() if key == var)
        bound = next(group[field] for group in _BOUNDS if field in group)
        cfg = parse_config(f"sweep.var = {var}\nsweep.values = {','.join(edges)}")
        assert cfg.sweep.values == tuple(map(float, edges))
        for value in cfg.sweep.values:
            replace(cfg.params, **{field: int(value) if var == "n" else value})
        for value in map(float, past):
            with pytest.raises(ValueError, match=f"^{field} must be {re.escape(bound)}, "):
                replace(cfg.params, **{field: int(value) if var == "n" and value == int(value)
                                       else value})
            with pytest.raises(ConfigError) as info:
                parse_config(f"sweep.var = {var}\nsweep.values = {value!r}")
            assert str(info.value) == f"swept {var} must be {bound}, got {value}"

    def test_infinite_range_end_rejected(self):
        with pytest.raises(ConfigError, match="^swept tau must be finite"):
            parse_config("sweep.var = tau\nsweep.start = 1\nsweep.stop = inf\n"
                         "sweep.points = 3")

    def test_linear_grid_inclusive_and_even(self):
        cfg = parse_config("sweep.var = tau\nsweep.start = 1\nsweep.stop = 9\n"
                           "sweep.points = 5")
        assert cfg.sweep.values == (1.0, 3.0, 5.0, 7.0, 9.0)

    def test_grid_values_are_start_plus_i_step_then_stop(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            start = float(rng.uniform(0.0, 1e3)) * 10.0 ** int(rng.integers(-8, 8))
            stop = start + float(rng.uniform(1e-9, 1e3)) * 10.0 ** int(rng.integers(-8, 8))
            points = int(rng.integers(2, 400))
            cfg = parse_config(f"sweep.var = lambda\nsweep.start = {start!r}\n"
                               f"sweep.stop = {stop!r}\nsweep.points = {points}")
            step = (stop - start) / (points - 1)
            assert cfg.sweep.values == tuple(start + i * step
                                             for i in range(points - 1)) + (stop,)

    # numpy refuses 1e16 points as a MemoryError and 1e20 as a ValueError,
    # and sizes 2**63 - 2 points as an empty grid
    @pytest.mark.parametrize("points", [10 ** 16, 2 ** 63 - 1, 10 ** 20])
    def test_a_grid_too_large_to_allocate_names_the_points(self, points):
        with pytest.raises(ConfigError) as info:
            parse_config(f"sweep.var = tau\nsweep.start = 1\nsweep.stop = 2\n"
                         f"sweep.points = {points}")
        assert str(info.value) == f"sweep.points = {points} is too large to allocate"

    @pytest.mark.parametrize("sweep", [
        # %g turns to an exponent below 1e-4
        f"sweep.var = tau\nsweep.values = {1 / 3!r},1e300,5e-324,1e-05",
        "sweep.var = n\nsweep.values = 1,7,40,1000",
    ], ids=["tau-list", "n-list"])
    def test_echoed_sweep_values_are_the_per_value_join(self, sweep):
        cfg = parse_config(sweep)
        assert cfg.echo()["sweep.values"] == ",".join(_fmt(v) for v in cfg.sweep.values)

    def test_a_grid_sweep_echoes_its_grid(self):
        cfg = parse_config(f"sweep.var = tau\nsweep.start = {1 / 3!r}\nsweep.stop = 400\n"
                           "sweep.points = 5000")
        echo = cfg.echo()
        assert "sweep.values" not in echo
        assert list(echo)[-4:] == ["sweep.var", "sweep.start", "sweep.stop", "sweep.points"]
        assert [echo[key] for key in list(echo)[-4:]] == \
            ["tau", "0.3333333333333333", "400.0", "5000"]
        assert len(cfg.sweep.values) == 5000

    # the perfbench closed-form grid, whose %.12g values mostly lose their
    # last bits, and a list whose values %.12g prints exactly
    @pytest.mark.parametrize("sweep", [
        "sweep.var = tau\nsweep.start = 20\nsweep.stop = 2000\nsweep.points = 5000\n",
        FOUR_TARGET_CONFIG,
    ], ids=["tau-grid-5000", "delta-list"])
    def test_the_echo_reads_back_as_the_same_sweep(self, sweep, tmp_path, capsys):
        meta, _ = run_cli("solve-ese", sweep, tmp_path, capsys)
        echoed = "".join(f"{key} = {value}\n" for key, value in meta.items()
                         if key not in ("build", "mode"))
        want, got = parse_config(sweep).sweep, parse_config(echoed).sweep
        assert got.var == want.var and len(got.values) == len(want.values)
        differ = sum(a != b for a, b in zip(np.array(want.values).view(np.int64),
                                            np.array(got.values).view(np.int64)))
        assert differ == 0, f"{differ}/{len(want.values)} values differ from their echo"


class TestRunScenario:
    def test_solve_ese_four_target_rows(self):
        cfg = replace(parse_config(FOUR_TARGET_CONFIG), mode="solve-ese")
        table = run_scenario(cfg)
        assert table.columns == ("delta", "p_star", "alpha_star",
                                 "binding_delivery", "alpha_clamped")
        assert len(table) == 4
        p_stars = [r[1] for r in table]
        assert all(a < b for a, b in zip(p_stars, p_stars[1:]))
        alphas = [r[2] for r in table]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert table[-1][4] == 1  # clamped at the largest target

    def test_solve_ese_unreachable_point_marks_its_row(self):
        cfg = replace(parse_config("n = 2\nsweep.var = delta\n"
                                   "sweep.values = 0.2,0.9"), mode="solve-ese")
        feasible, unreachable = run_scenario(cfg)
        assert all(math.isfinite(v) for v in feasible)
        assert feasible[3] == pytest.approx(0.2)  # binds at its delta
        p_min = mse_columns(with_param(cfg.params, "delta", 0.9), None, ())[0].item()
        assert p_min > 1
        assert unreachable[0] == 0.9 and unreachable[1] == p_min
        assert math.isnan(unreachable[2]) and math.isnan(unreachable[3])
        assert unreachable[4] == 0

    def test_solve_pse_table(self):
        cfg = replace(parse_config(""), mode="solve-pse")
        table = run_scenario(cfg)
        assert table.columns == ("n_a", "alpha_star", "clamped", "n_a_min",
                                 "feasible")
        assert [r[0] for r in table] == list(range(1, 8))

    def test_solve_mse_sweep_columns(self):
        cfg = replace(parse_config(
            "sweep.var = tau\nsweep.start = 50\nsweep.stop = 500\n"
            "sweep.points = 10"), mode="solve-mse")
        table = run_scenario(cfg)
        assert table.columns == ("tau", "p_min", "alpha_star", "z_star",
                                 "feasible")
        assert len(table) == 10
        p_mins = [r[1] for r in table]
        assert all(a > b for a, b in zip(p_mins, p_mins[1:]))

    def test_region_mode(self):
        cfg = replace(parse_config(
            "p = 1.0\nsweep.var = tau\nsweep.start = 1\nsweep.stop = 500\n"
            "sweep.points = 100"), mode="region")
        table = run_scenario(cfg)
        assert table.columns == ("tau", "delivery", "satisfied")
        flags = [r[2] for r in table]
        assert flags[0] == 0 and flags[-1] == 1
        assert flags == sorted(flags)  # single crossing
        meta = dict(table.metadata)
        assert float(meta["threshold"]) == pytest.approx(13.390610, abs=1e-4)

    def test_region_requires_contact_sweep(self):
        cfg = replace(parse_config(""), mode="region")
        with pytest.raises(ConfigError, match="^mode region needs a sweep over tau or lambda$"):
            run_scenario(cfg)

    def test_learn_mode_schema(self):
        cfg = replace(parse_config("horizon = 50\nn = 3"), mode="learn")
        table = run_scenario(cfg)
        assert table.columns == ("k", "alpha", "u_s_est", "p_1", "p_2", "p_3",
                                 "n_accept", "delivered")
        assert len(table) == 50

    def test_learn_rejects_sweeps(self):
        cfg = replace(parse_config("sweep.var = tau\nsweep.start = 1\n"
                                   "sweep.stop = 2\nsweep.points = 2"),
                      mode="learn")
        with pytest.raises(ConfigError, match="learn"):
            run_scenario(cfg)

    @pytest.mark.parametrize("mode,var,values", [("pareto-grid", "tau", "20,40"),
                                                 ("solve-ese", "p", "0.1,0.5"),
                                                 ("region", "n", "1,5"),
                                                 ("simulate", "tau", "20,40")])
    def test_unhonoured_sweep_names_mode_and_var(self, mode, var, values):
        cfg = replace(parse_config(f"sweep.var = {var}\nsweep.values = {values}"), mode=mode)
        message = rf"^mode {mode} does not sweep sweep\.var = {var};"
        with pytest.raises(ConfigError, match=message):
            run_scenario(cfg)

    def test_simulate_mode(self):
        cfg = replace(parse_config("trials = 200\np = 0.5\nalpha = 1.0"),
                      mode="simulate")
        table = run_scenario(cfg)
        assert table.columns == ("p", "delivery_mean", "delivery_se",
                                 "relay_utility_mean", "relay_utility_se",
                                 "trials")
        assert len(table) == 1
        assert 0.0 <= table[0][1] <= 1.0

    def test_pareto_grid_mode(self):
        cfg = replace(parse_config(""), mode="pareto-grid")
        table = run_scenario(cfg)
        meta = dict(table.metadata)
        assert int(meta["dominating_points"]) == len(table)

    def test_unknown_mode(self):
        cfg = replace(parse_config(""), mode="optimize")
        with pytest.raises(ConfigError, match="mode"):
            run_scenario(cfg)

    # one small config per mode, swept where the mode honours a sweep
    SHAPE_CONFIGS = {
        "solve-pse": "p = 0.4\nsweep.var = tau\nsweep.values = 20,40,400",
        "solve-mse": "sweep.var = lambda\nsweep.values = 0.005,0.05",
        "solve-ese": "sweep.var = delta\nsweep.values = 0.2,0.5",
        "region": "sweep.var = tau\nsweep.values = 20,40",
        "learn": "horizon = 20\nn = 3",
        "simulate": "trials = 20\nalpha = 1.0\nsweep.var = p\nsweep.values = 0.2,0.6",
        "pareto-grid": "",
    }

    @pytest.mark.parametrize("mode", MODES)
    def test_runner_builds_one_length_and_one_name_per_column(self, mode):
        # ResultTable takes its builders' shapes on trust; every runner keeps them
        table = run_scenario(replace(parse_config(self.SHAPE_CONFIGS[mode]), mode=mode))
        assert all(column.ndim == 2 for column in table.data)
        assert {len(column) for column in table.data} == {len(table)}
        assert sum(column.shape[1] for column in table.data) == len(table.columns)
        assert len(set(table.columns)) == len(table.columns)
        assert table[:].shape == (len(table), len(table.columns))


class TestSweepRows:
    """A swept table gives each point its own rows, led by its value, and
    simulate walks its p sweep point by point."""

    def test_solve_pse_tau_sweep_gives_each_points_solution(self):
        cfg = replace(parse_config("p = 0.4\nsweep.var = tau\nsweep.values = 20,40"),
                      mode="solve-pse")
        expected = []
        for tau in (20.0, 40.0):
            _, *columns = pse_columns(with_param(cfg.params, "tau", tau), None, ())
            expected += [(tau, *row) for row in zip(*columns)]
        table = run_scenario(cfg)
        assert table.columns == ("tau", "n_a", "alpha_star", "clamped", "n_a_min", "feasible")
        assert len(expected) == 14
        assert table[:].tolist() == [list(map(float, row)) for row in expected]

    def test_simulate_p_sweep_builds_no_params(self, monkeypatch):
        cfg = replace(parse_config("trials = 20\nsweep.var = p\nsweep.values = 0.1,0.5"),
                      mode="simulate")
        built = []
        check = GameParams.__post_init__
        monkeypatch.setattr(GameParams, "__post_init__",
                            lambda params: (built.append(params), check(params))[1])
        assert [row[0] for row in run_scenario(cfg)] == [0.1, 0.5]
        assert built == []
        with_param(cfg.params, "tau", 50.0)  # the probe sees a build
        assert len(built) == 1


def block_rows(columns: int) -> int:
    """Rows per block that the writer prints for a table of ``columns`` columns."""
    return max(1, _CELLS // columns)


def learn_shaped(rows: int, columns: int) -> ResultTable:
    """A learn-shaped float table: step, then reward, estimate and relay
    probabilities as uniform doubles, acceptor count and delivery flag."""
    rng = np.random.default_rng(5)
    return ResultTable(tuple(f"c{i}" for i in range(columns)), (
        np.arange(1, rows + 1), rng.random((rows, columns - 3)),
        rng.integers(0, columns - 4, rows), rng.random(rows) < 0.3), ())


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def per_value_csv(table):
    """The table's CSV written one value at a time with ``_fmt``, row by row."""
    rows = (table[i].tolist() for i in range(len(table)))
    return "".join([f"# {key} = {value}\n" for key, value in table.metadata]
                   + [",".join(table.columns) + "\n"]
                   + [",".join(_fmt(v) for v in row) + "\n" for row in rows])


def assert_same_text(got, want):
    """``got == want``, failing with the first differing line: pytest's own
    diff of two texts the size of a pareto-grid CSV takes minutes."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
        line, g, w = next((i, g, w) for i, (g, w) in enumerate(pairs, 1) if g != w)
        pytest.fail(f"line {line}: got {g!r}, want {w!r}")


class TestEmitCsv:
    def test_round_trip_at_twelve_digits(self, tmp_path):
        table = ResultTable(columns=("a", "b"),
                            data=((1 / 3, math.pi), (2.5e-17, 1e300)),
                            metadata=(("seed", "1"),))
        path = tmp_path / "out.csv"
        emit_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed = 1"
        assert lines[1] == "a,b"
        for text_row, row in zip(lines[2:], table):
            for text, value in zip(text_row.split(","), row):
                assert float(text) == pytest.approx(value, rel=1e-11, abs=0)

    def test_empty_table_keeps_header_and_metadata(self, tmp_path):
        table = ResultTable(columns=("x",), data=(np.empty(0),),
                            metadata=(("k", "v"),))
        path = tmp_path / "empty.csv"
        emit_csv(table, str(path))
        assert path.read_text() == "# k = v\nx\n"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = replace(parse_config("horizon = 200\nseed = 9"), mode="learn")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_scenario(cfg), str(p1))
        emit_csv(run_scenario(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_format_gives_the_per_value_bytes(self, tmp_path):
        # integer and flag cells held as floats print as the integers they are
        rows = ((True, False, 10 ** 11, -3, 0.1, math.nan),
                (math.inf, -math.inf, -0.0, 5e-324, 1e300, 2.0),
                (np.float64(1 / 3), np.int64(-7), True, np.float64(math.nan), False,
                 -10 ** 11),
                (1, 2.5, 0, 1e-300, np.float64(-0.0), 7))
        table = ResultTable(columns=tuple("abcdef"), data=zip(*rows),
                            metadata=(("seed", "1"), ("mode", "learn")))
        # the per-value join the writer replaced
        want = "\n".join(["# seed = 1", "# mode = learn", "a,b,c,d,e,f"]
                         + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"
        assert "".join(_csv_lines(table)) == want
        path = tmp_path / "rows.csv"
        emit_csv(table, str(path))
        assert path.read_bytes() == want.encode()

    @staticmethod
    def float_table(count):
        """A float-column table of ``count`` rows: a 1-D column, a 2-D one
        holding the awkward values, and integer and flag columns."""
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1 / 3, 2.5e-17]
        values = np.resize(np.array(special + [math.pi, -7.0, 1e-5]), count * 2)
        columns = (np.arange(count) * 0.1, values.reshape(count, 2),
                   np.arange(count) - 3, np.arange(count) % 3 == 0)
        return ResultTable(tuple("abcde"), columns, (("seed", "1"),)), columns

    FLOAT_ROWS = block_rows(5)  # float_table has five columns

    # ids name each count by the block size B, so they outlive a new budget
    @pytest.mark.parametrize("count", [0, 1, FLOAT_ROWS - 1, FLOAT_ROWS, FLOAT_ROWS + 1,
                                       3 * FLOAT_ROWS + 5],
                             ids=["0", "1", "B-1", "B", "B+1", "3B+5"])
    def test_float_columns_give_the_per_value_bytes_across_blocks(self, count, tmp_path):
        table, columns = self.float_table(count)
        assert (len(table), len(table.columns)) == (count, 5)
        rows = np.column_stack(columns).astype(float).tolist()
        want = "\n".join(["# seed = 1", "a,b,c,d,e"]
                         + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"
        assert "".join(_csv_lines(table)) == want
        path = tmp_path / "floats.csv"
        emit_csv(table, str(path))
        assert path.read_bytes() == want.encode()

    def test_learn_table_writes_its_per_value_bytes(self, tmp_path):
        # n + 5 columns: step, reward, estimate, n probabilities, acceptor
        # count and delivery flag
        horizon = block_rows(3 + 5) + 1
        cfg = replace(parse_config(f"horizon = {horizon}\nn = 3\nseed = 4"), mode="learn")
        table = run_scenario(cfg)
        assert (len(table), len(table.columns)) == (horizon, 3 + 5)
        want = per_value_csv(table)
        assert "".join(_csv_lines(table)) == want
        path = tmp_path / "learn.csv"
        emit_csv(table, str(path))
        assert path.read_bytes() == want.encode()

    def test_writer_memory_does_not_grow_with_the_rows(self, tmp_path):
        # a learn-shaped n = 40 table, 12 and 112 blocks long
        peaks = []
        for horizon in (500, 5000):
            table = learn_shaped(horizon, 45)
            peaks.append(traced_peak(lambda: emit_csv(table, str(tmp_path / "rows.csv"))))
        assert peaks[1] < 2 * peaks[0], peaks

    def test_writer_memory_does_not_grow_with_the_columns(self, tmp_path):
        # equal rows: a block holds about as many cells at 45 columns as at 5
        peaks = {}
        for columns in (5, 45):
            table = learn_shaped(2000, columns)
            peaks[columns] = traced_peak(lambda: emit_csv(table, str(tmp_path / "cols.csv")))
        assert peaks[45] < 2 * peaks[5], peaks

    def test_unwritable_path_reports_path(self, tmp_path):
        table = ResultTable(columns=("x",), data=(np.empty(0),), metadata=())
        with pytest.raises(OSError, match="no/such"):
            emit_csv(table, str(tmp_path / "no" / "such" / "file.csv"))


class TestModeBytes:
    """Each mode's CLI CSV, to a file and to stdout, is the per-value join
    of its table's rows."""

    CASES = {
        "simulate-p-sweep": ("simulate", "trials = 40\nalpha = 0.5\nsweep.var = p\n"
                                         "sweep.values = 0,0.3,1\n"),
        "solve-pse-q1": ("solve-pse", "sweep.var = lambda\nsweep.values = 0,0.015\n"),
        "pareto-grid": ("pareto-grid", ""),
    }

    @staticmethod
    def cli_csv(mode, config, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "run.csv"
        assert main([mode, "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        assert main([mode, "--config", str(cfg), "--seed", "5"]) == 0
        assert_same_text(capsys.readouterr().out, out.read_text())
        table = run_scenario(replace(parse_config(config, {"seed": "5"}), mode=mode))
        return out.read_text(), table

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cli_csv_is_the_per_value_join(self, case, tmp_path, capsys):
        text, table = self.cli_csv(*self.CASES[case], tmp_path, capsys)
        assert len(table) > 0
        assert_same_text(text, per_value_csv(table))

    def test_integer_and_flag_cells_print_as_integers(self, tmp_path, capsys):
        text, _ = self.cli_csv(*self.CASES["simulate-p-sweep"], tmp_path, capsys)
        rows = [line.split(",") for line in text.splitlines()[-3:]]
        assert [(row[0], row[-1]) for row in rows] == [("0", "40"), ("0.3", "40"), ("1", "40")]
        text, _ = self.cli_csv(*self.CASES["solve-pse-q1"], tmp_path, capsys)
        # lambda = 0: no relay meets the source, so no cohort delivers
        assert "\n0,nan,nan,0,inf,0\n0.015,1," in text

    def test_pareto_grid_without_dominators_writes_metadata_and_header(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "pareto_grid_scan",
                            lambda params, ese: np.empty((0, 4)))
        text, table = self.cli_csv("pareto-grid", "", tmp_path, capsys)
        assert len(table) == 0
        assert_same_text(text, per_value_csv(table))
        assert "# dominating_points = 0\n" in text
        assert text.endswith("\np,alpha,source_margin_delta,relay_utility_delta\n")
        assert all(line.startswith("# ") for line in text.splitlines()[:-1])


class TestSimulateBytes:
    """``dtnsat simulate`` at the two perfbench mc-oracle cohorts, model mode,
    300 trials, seed 2025: each CSV's sha256 as the per-relay
    accept-probability array gave it before the episodes took one shared
    float, so a change to the streams, windows or comparisons shows here."""

    SHA256 = {
        "n = 7\nsweep.var = p\nsweep.values = 0.05,0.1,0.25\n":
            "c69a44f73cafe208984be921e8dbf611345eb6dd1098ad8e61d21de6cc5aa919",
        "n = 40\nsweep.var = p\nsweep.values = 0.01,0.02,0.05\n":
            "75dc2729b7423bcc2effa32111a6c439c21705f8a1b2c4d089b7cfaf4ae7afb0",
    }

    @pytest.mark.parametrize("config", sorted(SHA256))
    def test_mc_oracle_cohort_keeps_its_bytes(self, config, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
        cfg.write_text(config)
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--trials", "300",
                     "--contact-mode", "model", "--seed", "2025"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[config]


class TestLearnBytes:
    """``dtnsat learn`` at horizon 200, seed 2025: the three perfbench
    learn-coupled configs and the physical contact mode, each CSV's sha256 as
    the run gave it while it also recorded every step's actions and fed
    payoffs, so a change to the learners, the stream or the writer shows
    here.  Three more ``mean-field`` runs pin the reduced feed at lambda = 0,
    at a subnormal lambda, whose reduced cost takes its subnormal branch,
    and at n = 40, taken while the feed still paid through the scalar
    payoffs that are now ``oracles.mixed_relay_payoffs``."""

    SHA256 = {
        "": "ae9a47b476d186cb771437eeac2af6dd3743d3ba27c7da3ee12ea734fccf419e",
        "feed = mean-field\n":
            "92841a3b009e8b62cd866d6629c8570743a71c12e4d6e294631484a7013ae9c3",
        "n = 40\n": "c06921df17c9c073c70d15d350d22a08da722c1f23c56953a8d0aef17027abcb",
        "contact_mode = physical\n":
            "6e4955bdaea4d1aa42a340a1a92079a7d8c29baf331602c6f7acca6b30aaee91",
        "feed = mean-field\nlambda = 0\n":
            "b3afbf99def53f19b064846f249c431fac7696c1d66e07d89bed71c2abe5daea",
        "feed = mean-field\nlambda = 1e-310\n":
            "779158d7d8a39f4d8c0155c33677cfd58c8cc0d9878b40bf3e752485a8cfcccd",
        "feed = mean-field\nn = 40\n":
            "a406545be702ca77d939a4fdbf3c7c13b3734890072b113a663692949d5adcc6",
    }

    @pytest.mark.parametrize("config", sorted(SHA256))
    def test_learn_keeps_its_bytes(self, config, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
        cfg.write_text(f"horizon = 200\n{config}")
        assert main(["learn", "--config", str(cfg), "--out", str(out), "--seed", "2025"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[config]


class TestClosedFormBytes:
    """The five closed-form perfbench configs at smoke size, seed 2025, and
    three solve-pse sweeps whose points have unequal row counts, marked rows
    (q = 1 at lambda = 0 and 5e-324, a bound past n = 2 at delta = 0.999)
    or clamped rows, the mixed solvers over that lambda column, and a tau
    region whose threshold (22.6192795632) lies inside its range: each
    case's mode, config and CSV sha256, so a change to any closed form,
    sweep grid or number format shows here."""

    TAU_50 = "sweep.var = tau\nsweep.start = 20\nsweep.stop = 2000\nsweep.points = 50\n"
    CASES = {
        "solve-ese": ("solve-ese", TAU_50,
                      "138afc85dd3cd0ff2cee5d54c27d37de73f89319acb52e879a0bf8844d5aa507"),
        "solve-mse": ("solve-mse", TAU_50,
                      "8c158c10caaff3f51f2d6859ca7dc6e007843f1dac554b79ab8728637190944c"),
        "solve-pse": ("solve-pse",
                      "sweep.var = n\nsweep.start = 1\nsweep.stop = 60\nsweep.points = 60\n",
                      "c9b23c03be1d91d4ce077af117c090f2c4a075bf49390a3287aafc960abd9b7b"),
        "solve-pse-lambda": (
            "solve-pse", "sweep.var = lambda\nsweep.values = 0.015,0,5e-324,1e-320,0.5,1e308\n",
            "4bcbb2f03fbe52c16031f52682def667964b66021e3f57f54e74c3e51b11d064"),
        "solve-mse-lambda": (
            "solve-mse", "sweep.var = lambda\nsweep.values = 0.015,0,5e-324,1e-320,0.5,1e308\n",
            "15618bc72b590f6710b1984697a7bfed9de8554e6b8fe2bc4a257f4e108111c2"),
        "solve-ese-lambda": (
            "solve-ese", "sweep.var = lambda\nsweep.values = 0.015,0,5e-324,1e-320,0.5,1e308\n",
            "adbfcf8bfca79af7411a62368f454b4d31c17d57db6d117b99d7162235b0fe5e"),
        "solve-pse-delta": (
            "solve-pse",
            "n = 2\nsweep.var = delta\nsweep.start = 0.009\nsweep.stop = 0.999\n"
            "sweep.points = 12\n",
            "a05dc31ab7f16d329b3af554b47e9f1d1348ae1588a5ecb39ff3fc10ce181664"),
        "solve-pse-clamped": (
            "solve-pse", "alpha_max = 0.2\nsweep.var = n\nsweep.values = 1,3,7,40\n",
            "83fc309c8007aecb13c5a2408ec65d51b8ef87cf9be9f5b61f3b9934c990b435"),
        "region": ("region", "sweep.var = lambda\nsweep.start = 0.001\nsweep.stop = 0.1\n"
                   "sweep.points = 50\n",
                   "3a231a42f6817ef221034a5d090f1089d13f816b446b9619fed78c5d616d5259"),
        "region-tau-p": ("region", "p = 0.4\nsweep.var = tau\nsweep.start = 1\nsweep.stop = 500\n"
                         "sweep.points = 40\n",
                         "6a1e180159073f01fb375fd661d2c61aad2e4fb62ed39a582afaa212b8296065"),
        "pareto-grid": ("pareto-grid", "",
                        "92be6f613ed287533d2f6699cb2f2017aca6b4dba44be55a62951e69dd91e022"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_closed_form_mode_keeps_its_bytes(self, case, tmp_path):
        mode, config, sha256 = self.CASES[case]
        cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
        cfg.write_text(config)
        assert main([mode, "--config", str(cfg), "--out", str(out), "--seed", "2025"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestCli:
    def test_solve_ese_to_file(self, tmp_path, capsys):
        cfg = tmp_path / "targets.cfg"
        cfg.write_text(FOUR_TARGET_CONFIG)
        out = tmp_path / "result.csv"
        code = main(["solve-ese", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "p_star" in text
        assert "# mode = solve-ese" in text

    def test_stdout_when_no_out(self, capsys):
        assert main(["solve-pse"]) == 0
        captured = capsys.readouterr()
        assert "alpha_star" in captured.out

    @pytest.mark.parametrize("mode,config", [
        pytest.param("learn", f"horizon = {3 * block_rows(8)}\nn = 3\n", id="learn-3B"),
        ("solve-pse", "")])
    def test_stdout_gets_the_file_bytes_in_pieces(self, tmp_path, monkeypatch, mode, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "run.csv"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0

        class Recorder(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        sizes, stdout = [], Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([mode, "--config", str(cfg)]) == 0
        assert stdout.getvalue().encode() == out.read_bytes()
        assert max(sizes) < sum(sizes) / 2  # never the whole file at once

    def test_bad_config_is_diagnosed(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("delta = 2.0\n")
        code = main(["solve-ese", "--config", str(cfg)])
        assert code == 1
        assert "delta" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["solve-ese", "--config", "/nonexistent.cfg"]) == 1
        assert "nonexistent" in capsys.readouterr().err

    def test_trials_override_validated(self, capsys):
        assert main(["simulate", "--trials", "0"]) == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["seed", "trials"])
    @pytest.mark.parametrize("value", ["2.5", "x", "-1"])
    def test_integer_flags_fail_by_key_like_the_config(self, tmp_path, capsys, flag, value):
        # a flag and the same value in a config file both exit 1 naming the key
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        from_file = capsys.readouterr().err
        assert main(["simulate", f"--{flag}", value]) == 1
        from_flag = capsys.readouterr().err
        assert f"{flag}" in from_file and f"{flag}" in from_flag
        assert from_flag.replace(f"--{flag}:", "line 1:") == from_file

    def test_every_mode_runs(self, tmp_path):
        common = "n = 3\ntrials = 50\nhorizon = 30\n"
        sweeps = {
            "region": "sweep.var = tau\nsweep.start = 1\nsweep.stop = 400\n"
                      "sweep.points = 20\n",
            "simulate": "p = 0.4\nalpha = 0.5\n",
        }
        for mode in ("solve-pse", "solve-mse", "solve-ese", "region", "learn",
                     "simulate", "pareto-grid"):
            cfg = tmp_path / f"{mode}.cfg"
            cfg.write_text(common + sweeps.get(mode, ""))
            out = tmp_path / f"{mode}.csv"
            code = main([mode, "--config", str(cfg), "--out", str(out),
                         "--seed", "3"])
            assert code == 0, mode
            assert out.exists(), mode

    def test_solve_pse_with_underflowing_failure(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("lambda = 8\ntau = 100\n")
        assert main(["solve-pse", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        header = [line for line in out if not line.startswith("#")][0].split(",")
        rows = [line.split(",") for line in out if line[0].isdigit()]
        assert {row[header.index("n_a_min")] for row in rows} == {"1"}

    def test_seed_override_lands_in_metadata(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["solve-pse", "--out", str(out), "--seed", "42"]) == 0
        assert "# seed = 42" in out.read_text()

    def test_trials_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("trials = 50\np = 0.5\nalpha = 1.0\n")
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--trials", "7"]) == 0
        text = out.read_text()
        assert "# trials = 7" in text and "# trials = 50" not in text

    def test_contact_mode_flag_goes_through_build_config(self, tmp_path,
                                                        monkeypatch):
        seen = []
        build = experiments._build_config
        monkeypatch.setattr(experiments, "_build_config",
                            lambda raw: seen.append(dict(raw)) or build(raw))
        out = tmp_path / "o.csv"
        assert main(["solve-pse", "--out", str(out),
                     "--contact-mode", "physical"]) == 0
        assert [raw.get("contact_mode") for raw in seen] == ["physical"]
        assert "# contact_mode = physical" in out.read_text()

    @pytest.mark.parametrize("mode", ["simulate", "learn"])
    def test_bad_contact_mode_flag_names_key(self, mode, capsys):
        # one check, in the config layer: exit 1, not the parser's 2
        assert main([mode, "--contact-mode", "phys"]) == 1
        err = capsys.readouterr().err
        assert "contact_mode must be one of ('model', 'physical'), got 'phys'" in err

    def test_contact_mode_flag_help_lists_the_modes(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "--contact-mode model|physical" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["simulate", "learn"])
    def test_negative_seed_flag_names_key(self, mode, capsys):
        assert main([mode, "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["simulate", "learn"])
    def test_seed_beyond_the_philox_key_names_key(self, mode, capsys):
        assert main([mode, "--seed", str(2 ** 128)]) == 1
        assert "seed must be in [0, 2**128)" in capsys.readouterr().err

    def test_simulate_without_binding_equilibrium_needs_alpha(self, tmp_path,
                                                              capsys):
        cfg = tmp_path / "still.cfg"
        cfg.write_text("lambda = 0\ntrials = 50\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_overflowing_lambda_tau_stays_finite(self, tmp_path, capsys):
        # lambda * tau overflows to inf; storage energy must not turn nan
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("lambda = 1e308\ntau = 1e308\ntrials = 50\nhorizon = 20\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert math.isfinite(float(row["relay_utility_mean"]))
        assert main(["learn", "--config", str(cfg)]) == 0

    def test_subnormal_lambda_stays_finite(self, tmp_path, capsys):
        # e/lambda overflows at lambda = 5e-324; storage energy must not turn nan
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("lambda = 5e-324\nalpha = 0.5\np = 0.5\ntrials = 50\nhorizon = 20\n")
        for mode in ("simulate", "learn"):
            assert main([mode, "--config", str(cfg)]) == 0
            lines = [line for line in capsys.readouterr().out.splitlines()
                     if not line.startswith("#")]
            values = [float(v) for line in lines[1:] for v in line.split(",")]
            assert values and all(math.isfinite(v) for v in values), mode

    def test_huge_samples_keep_a_finite_standard_error(self, tmp_path, capsys):
        # relay utilities near -1.7e301 would overflow their squared deviations
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("lambda = 1e-310\ntau = 1e308\nn = 1\nalpha = 0.5\np = 0.9\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--trials", "500",
                         "--seed", "9"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        row = {k: float(v) for k, v in zip(lines[0].split(","), lines[1].split(","))}
        assert math.isfinite(row["relay_utility_se"]) and row["relay_utility_se"] > 0

    @pytest.mark.parametrize("mode", ["solve-mse", "solve-ese"])
    def test_vanishing_delta_writes_a_finite_row(self, mode, tmp_path, capsys):
        # delta = 1e-300: p_min must not underflow to 0, nor the reward's
        # success 1 - (1 - z)**n round to 0
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("delta = 1e-300\n")
        assert main([mode, "--config", str(cfg)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        assert len(lines) == 2
        row = {k: float(v) for k, v in zip(lines[0].split(","), lines[1].split(","))}
        assert all(math.isfinite(v) for v in row.values()), row
        if mode == "solve-mse":
            assert 0.0 < row["p_min"] < 1e-299 and row["feasible"] == 1.0
            assert row["alpha_star"] > 5.0
        else:
            assert 0.0 < row["p_star"] < 1e-299
            assert row["alpha_star"] == 5.0 and row["alpha_clamped"] == 1.0
            assert row["binding_delivery"] == pytest.approx(1e-300, rel=1e-9, abs=0)

    @pytest.mark.parametrize("mode", ["simulate", "learn"])
    def test_non_finite_payoff_fails_by_name(self, mode, tmp_path, capsys):
        # e = 1e308 makes the caching cost inf, so an accepting relay earns -inf
        cfg = tmp_path / "costly.cfg"
        cfg.write_text("e = 1e308\nalpha = 1\np = 0.5\nhorizon = 20\n")
        assert main([mode, "--config", str(cfg), "--trials", "50"]) == 1
        assert capsys.readouterr().err == (f"dtnsat {mode}: error: mode {mode}: "
                                           "realized utility must be finite, got -inf\n")

    @pytest.mark.parametrize("alpha_max", [0.014, 0.027, 42.378296906115224, 1e307])
    def test_pareto_grid_reward_axis_ends_at_alpha_max(self, alpha_max, tmp_path, capsys):
        # alpha_max * 100 / 100 rounds one ulp above 0.014, 0.027 and 42.378...;
        # alpha_max * 100 overflows at 1e307
        meta, lines = run_cli("pareto-grid", f"alpha_max = {alpha_max!r}\n", tmp_path, capsys)
        alphas = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(alphas) == int(meta["dominating_points"]) > 0
        assert all(0.0 <= a <= alpha_max for a in alphas)

    def test_simulate_at_zero_rate_with_alpha(self, tmp_path, capsys):
        cfg = tmp_path / "still.cfg"
        cfg.write_text("lambda = 0\ntrials = 50\nalpha = 0.5\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["delivery_mean"]) == 0.0


def run_cli(mode, config, tmp_path, capsys):
    """(metadata dict, data lines) of one CLI run on ``config`` text."""
    cfg = tmp_path / f"{mode}.cfg"
    cfg.write_text(config)
    assert main([mode, "--config", str(cfg)]) == 0, capsys.readouterr().err
    lines = capsys.readouterr().out.splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    return meta, [line for line in lines if not line.startswith("#")]


class TestDegeneratePoints:
    # lambda = 0, 5e-324 and 1e-320 give q = 1: no relay ever delivers
    DEGENERATE = "sweep.var = lambda\nsweep.values = 0.015,0,5e-324,1e-320\n"
    LAMBDAS = ("0", "4.94065645841e-324", "9.99988867183e-321")

    @pytest.mark.parametrize("mode,marked", [
        ("solve-mse", "inf,nan,0,0"),
        ("solve-ese", "inf,nan,nan,0"),
        ("solve-pse", "nan,nan,0,inf,0")])
    def test_lambda_sweep_marks_its_rows(self, mode, marked, tmp_path, capsys):
        _, lines = run_cli(mode, self.DEGENERATE, tmp_path, capsys)
        _, good = run_cli(mode, "sweep.var = lambda\nsweep.values = 0.015\n",
                          tmp_path, capsys)
        assert lines[:len(good)] == good
        assert lines[len(good):] == [f"{lam},{marked}" for lam in self.LAMBDAS]

    def test_cohort_beyond_the_fleet_marks_its_row(self, tmp_path, capsys):
        # delta = 0.99 needs a cohort of 4: n = 2 has no pure candidate
        _, lines = run_cli("solve-pse", "delta = 0.99\nsweep.var = n\n"
                           "sweep.values = 2,4\n", tmp_path, capsys)
        assert lines == ["n,n_a,alpha_star,clamped,n_a_min,feasible",
                         "2,nan,nan,0,4,0", "4,4,0.004274611442,0,4,1"]

    @pytest.mark.parametrize("fleet", ["n = 100000000000000000000\n",
                                       "sweep.var = n\nsweep.values = 1e300\n"])
    def test_a_fleet_past_the_index_range_marks_its_row_where_none_delivers(
            self, fleet, tmp_path, capsys):
        # at q = 1 no cohort satisfies the source, so the one row is the mark
        _, lines = run_cli("solve-pse", "lambda = 0\n" + fleet, tmp_path, capsys)
        prefix = "1e+300," if "sweep" in fleet else ""
        assert lines[1:] == [prefix + "nan,nan,0,inf,0"]

    # a list of one value, repeated, spans no range either
    @pytest.mark.parametrize("lam,threshold,row", [
        ("0.015", "0.015", "0.015,0.998460083222,1"),
        ("0.0001", "none", "0.0001,0.000692834847745,0"),
        ("0.015,0.015", "0.015", "0.015,0.998460083222,1")])
    def test_one_value_region_sweep(self, lam, threshold, row, tmp_path, capsys):
        meta, lines = run_cli("region", f"sweep.var = lambda\nsweep.values = {lam}\n",
                              tmp_path, capsys)
        assert lines == ["lambda,delivery,satisfied"] + [row] * len(lam.split(","))
        assert meta["threshold"] == threshold

    @pytest.mark.parametrize("var,values,threshold", [
        ("tau", "1,1e300", "13.3906103166"),
        ("lambda", "1e-6,1e250", "0.00200859154749")])
    def test_wide_region_sweep_reports_the_crossing(self, var, values, threshold,
                                                    tmp_path, capsys):
        meta, _ = run_cli("region", f"sweep.var = {var}\nsweep.values = {values}\n",
                          tmp_path, capsys)
        assert meta["threshold"] == threshold

    @pytest.mark.parametrize("mode", ["solve-mse", "solve-ese"])
    @pytest.mark.parametrize("extra,message", [
        ("", "minimum accept probability underflows at delta = 5e-324"),
        ("n = 1\n", "indifference reward overflows at success 5e-324")])
    def test_float_range_error_fails_the_run(self, mode, extra, message, tmp_path, capsys):
        # the first point is fine; the second leaves the float range
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(f"{extra}sweep.var = delta\nsweep.values = 0.21,5e-324\n")
        assert main([mode, "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"dtnsat {mode}: error: mode {mode}: {message}\n"

    # numpy and list refuse 1e16 elements before they allocate any, and
    # 1e20, past the index range, with OverflowError; at the default 10000
    # trials numpy refuses simulate's (trials, n) shape with a ValueError,
    # which the simulator reports as the MemoryError it stands for
    @pytest.mark.parametrize("mode,config,keys", [
        ("solve-pse", "n = 10000000000000000\n", "n"),
        ("solve-pse", "sweep.var = n\nsweep.values = 1e16\n", "n"),
        ("simulate", "n = 10000000000000000\ntrials = 1\n", "trials or n"),
        ("simulate", "n = 10000000000000000\n", "trials or n"),
        ("simulate", "n = 100000000000000000000\n", "trials or n"),
        ("learn", "n = 10000000000000000\n", "horizon or n"),
        ("solve-pse", "n = 100000000000000000000\n", "n"),
        ("solve-pse", "sweep.var = n\nsweep.values = 1e300\n", "n"),
        ("solve-pse", "sweep.var = n\nsweep.values = 1.7e308,1.7e308\n", "n"),
        ("learn", "n = 100000000000000000000\n", "horizon or n")],
        ids=["solve-pse", "solve-pse-sweep", "simulate", "simulate-default-trials",
             "simulate-1e20", "learn", "solve-pse-1e20", "solve-pse-sweep-1e300",
             "solve-pse-sweep-1.7e308", "learn-1e20"])
    def test_a_run_too_large_to_allocate_fails(self, mode, config, keys, tmp_path, capsys):
        cfg = tmp_path / "fleet.cfg"
        cfg.write_text(config)
        assert main([mode, "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"dtnsat {mode}: error: mode {mode}: the run is too large to "
                       f"allocate; lower {keys}\n")


class TestSweepBudget:
    """The sweeps do not go back to one solver call per point: the calls a
    solve-pse, solve-ese, solve-mse or region sweep, or a simulate p sweep,
    makes of the per-point functions, and the GameParams it builds, do not
    grow with the number of points."""

    COUNTED = ("solve_ese", "expected_source_utility_mixed")

    @classmethod
    def count_calls(cls, monkeypatch):
        # patch every dtnsat namespace that holds the function, so
        # intra-module calls and imported aliases are counted alike
        modules = [m for name, m in sys.modules.items()
                   if name == "dtnsat" or name.startswith("dtnsat.")]
        calls = dict.fromkeys(cls.COUNTED + ("GameParams",), 0)
        for name in cls.COUNTED:
            original = getattr(dtnsat.model, name, None) or getattr(dtnsat.equilibrium, name)

            def counted(*args, _fn=original, _name=name):
                calls[_name] += 1
                return _fn(*args)
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        check = GameParams.__post_init__

        def built(params):
            calls["GameParams"] += 1
            check(params)
        monkeypatch.setattr(GameParams, "__post_init__", built)
        return calls

    @pytest.mark.parametrize("mode,var,lo,hi", [("solve-ese", "tau", 20, 2000),
                                                ("solve-mse", "tau", 20, 2000),
                                                ("solve-ese", "delta", 0.01, 0.9),
                                                ("solve-mse", "n", 1, None),
                                                ("solve-pse", "tau", 20, 2000),
                                                ("solve-pse", "delta", 0.01, 0.9),
                                                ("region", "lambda", 0.001, 0.1),
                                                ("simulate", "p", 0.0, 1.0)])
    def test_calls_do_not_grow_with_the_points(self, monkeypatch, mode, var, lo, hi):
        counts = []
        for points in (10, 5000):
            # n steps by 1; only simulate reads trials
            values = range(1, points + 1) if var == "n" else np.linspace(lo, hi, points)
            cfg = replace(parse_config(f"trials = 1\nsweep.var = {var}\nsweep.values = "
                                       + ",".join(map(repr, map(float, values)))), mode=mode)
            calls = self.count_calls(monkeypatch)
            rows = len(run_scenario(cfg))
            # solve-pse writes one row per candidate cohort of each point
            assert rows >= points if mode == "solve-pse" else rows == points
            counts.append(calls)
            monkeypatch.undo()
        assert counts[0] == counts[1]
