import math
from pathlib import Path

import pytest

from dtnsat import experiments
from dtnsat.cli import main
from dtnsat.equilibrium import solve_mse
from dtnsat.experiments import (
    _KEYS,
    ConfigError,
    ResultTable,
    emit_csv,
    parse_config,
    run_scenario,
)
from dtnsat.model import with_param
from dataclasses import replace

FOUR_TARGET_CONFIG = """
# three relays, varying QoS target
n = 3
lambda = 0.015
tau = 100
sweep.var = delta
sweep.values = 0.02,0.48,0.65,0.85
"""


class TestParseConfig:
    def test_empty_gives_reference_defaults(self):
        cfg = parse_config("")
        p = cfg.params
        assert (p.contact.lam, p.contact.tau) == (0.015, 100.0)
        assert (p.n, p.delta, p.sigma, p.gamma) == (7, 0.21, 0.2, 0.15)
        assert (p.energy.e_store, p.energy.e_receive, p.energy.e_transmit) == \
            (3.8e-5, 2e-5, 2e-5)
        assert p.alpha_max == 5.0
        assert cfg.contact_mode == "model"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nn = 3  # trailing\n")
        assert cfg.params.n == 3

    def test_out_of_range_value_names_key(self):
        with pytest.raises(ConfigError, match="delta"):
            parse_config("delta = 1.5")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*frobnicate"):
            parse_config("n = 3\nfrobnicate = 1\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

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

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("var", ["tau", "lambda", "n", "delta", "p"])
    def test_non_finite_swept_value_names_var(self, var, value):
        with pytest.raises(ConfigError, match=f"^swept {var} must be finite"):
            parse_config(f"sweep.var = {var}\nsweep.values = {value}")

    def test_infinite_range_end_rejected(self):
        with pytest.raises(ConfigError, match="^swept tau must be finite"):
            parse_config("sweep.var = tau\nsweep.start = 1\nsweep.stop = inf\n"
                         "sweep.points = 3")

    def test_linear_grid_inclusive_and_even(self):
        cfg = parse_config("sweep.var = tau\nsweep.start = 1\nsweep.stop = 9\n"
                           "sweep.points = 5")
        assert cfg.sweep.values == (1.0, 3.0, 5.0, 7.0, 9.0)


class TestRunScenario:
    def test_solve_ese_four_target_rows(self):
        cfg = replace(parse_config(FOUR_TARGET_CONFIG), mode="solve-ese")
        table = run_scenario(cfg)
        assert table.columns == ("delta", "p_star", "alpha_star",
                                 "binding_delivery", "alpha_clamped")
        assert len(table.rows) == 4
        p_stars = [r[1] for r in table.rows]
        assert all(a < b for a, b in zip(p_stars, p_stars[1:]))
        alphas = [r[2] for r in table.rows]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert table.rows[-1][4] == 1  # clamped at the largest target

    def test_solve_ese_unreachable_point_marks_its_row(self):
        cfg = replace(parse_config("n = 2\nsweep.var = delta\n"
                                   "sweep.values = 0.2,0.9"), mode="solve-ese")
        feasible, unreachable = run_scenario(cfg).rows
        assert all(math.isfinite(v) for v in feasible)
        assert feasible[3] == pytest.approx(0.2)  # binds at its delta
        p_min = solve_mse(with_param(cfg.params, "delta", 0.9)).p_min
        assert p_min > 1
        assert unreachable[0] == 0.9 and unreachable[1] == p_min
        assert math.isnan(unreachable[2]) and math.isnan(unreachable[3])
        assert unreachable[4] == 0

    def test_solve_pse_table(self):
        cfg = replace(parse_config(""), mode="solve-pse")
        table = run_scenario(cfg)
        assert table.columns == ("n_a", "alpha_star", "clamped", "n_a_min",
                                 "feasible")
        assert [r[0] for r in table.rows] == list(range(1, 8))

    def test_solve_mse_sweep_columns(self):
        cfg = replace(parse_config(
            "sweep.var = tau\nsweep.start = 50\nsweep.stop = 500\n"
            "sweep.points = 10"), mode="solve-mse")
        table = run_scenario(cfg)
        assert table.columns == ("tau", "p_min", "alpha_star", "z_star",
                                 "feasible")
        assert len(table.rows) == 10
        p_mins = [r[1] for r in table.rows]
        assert all(a > b for a, b in zip(p_mins, p_mins[1:]))

    def test_region_mode(self):
        cfg = replace(parse_config(
            "p = 1.0\nsweep.var = tau\nsweep.start = 1\nsweep.stop = 500\n"
            "sweep.points = 100"), mode="region")
        table = run_scenario(cfg)
        assert table.columns == ("tau", "delivery", "satisfied")
        flags = [r[2] for r in table.rows]
        assert flags[0] == 0 and flags[-1] == 1
        assert flags == sorted(flags)  # single crossing
        meta = dict(table.metadata)
        assert float(meta["threshold"]) == pytest.approx(13.390610, abs=1e-4)

    def test_region_requires_contact_sweep(self):
        cfg = replace(parse_config(""), mode="region")
        with pytest.raises(ConfigError, match="region"):
            run_scenario(cfg)

    def test_learn_mode_schema(self):
        cfg = replace(parse_config("horizon = 50\nn = 3"), mode="learn")
        table = run_scenario(cfg)
        assert table.columns == ("k", "alpha", "u_s_est", "p_1", "p_2", "p_3",
                                 "n_accept", "delivered")
        assert len(table.rows) == 50

    def test_learn_rejects_sweeps(self):
        cfg = replace(parse_config("sweep.var = tau\nsweep.start = 1\n"
                                   "sweep.stop = 2\nsweep.points = 2"),
                      mode="learn")
        with pytest.raises(ConfigError, match="learn"):
            run_scenario(cfg)

    def test_simulate_mode(self):
        cfg = replace(parse_config("trials = 200\np = 0.5\nalpha = 1.0"),
                      mode="simulate")
        table = run_scenario(cfg)
        assert table.columns == ("p", "delivery_mean", "delivery_se",
                                 "relay_utility_mean", "relay_utility_se",
                                 "trials")
        assert len(table.rows) == 1
        assert 0.0 <= table.rows[0][1] <= 1.0

    def test_pareto_grid_mode(self):
        cfg = replace(parse_config(""), mode="pareto-grid")
        table = run_scenario(cfg)
        meta = dict(table.metadata)
        assert int(meta["dominating_points"]) == len(table.rows)

    def test_unknown_mode(self):
        cfg = replace(parse_config(""), mode="optimize")
        with pytest.raises(ConfigError, match="mode"):
            run_scenario(cfg)


class TestEmitCsv:
    def test_round_trip_at_twelve_digits(self, tmp_path):
        table = ResultTable(columns=("a", "b"),
                            rows=((1 / 3, 2.5e-17), (math.pi, 1e300)),
                            metadata=(("seed", "1"),))
        path = tmp_path / "out.csv"
        emit_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed = 1"
        assert lines[1] == "a,b"
        for text_row, row in zip(lines[2:], table.rows):
            for text, value in zip(text_row.split(","), row):
                assert float(text) == pytest.approx(value, rel=1e-11)

    def test_empty_table_keeps_header_and_metadata(self, tmp_path):
        table = ResultTable(columns=("x",), rows=(), metadata=(("k", "v"),))
        path = tmp_path / "empty.csv"
        emit_csv(table, str(path))
        assert path.read_text() == "# k = v\nx\n"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = replace(parse_config("horizon = 200\nseed = 9"), mode="learn")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_scenario(cfg), str(p1))
        emit_csv(run_scenario(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            ResultTable(columns=("a", "b"), rows=((1.0,),), metadata=())

    def test_unwritable_path_reports_path(self, tmp_path):
        table = ResultTable(columns=("x",), rows=(), metadata=())
        with pytest.raises(OSError, match="no/such"):
            emit_csv(table, str(tmp_path / "no" / "such" / "file.csv"))


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
    def test_negative_seed_flag_names_key(self, mode, capsys):
        assert main([mode, "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

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
            assert row["binding_delivery"] == pytest.approx(1e-300, rel=1e-9)

    def test_simulate_at_zero_rate_with_alpha(self, tmp_path, capsys):
        cfg = tmp_path / "still.cfg"
        cfg.write_text("lambda = 0\ntrials = 50\nalpha = 0.5\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["delivery_mean"]) == 0.0
