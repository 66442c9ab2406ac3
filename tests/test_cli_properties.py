"""Property test of the CLI's robustness promise over drawn configs: every
config, however extreme its values, runs through ``cli.main`` in process
to exit code 0 or 1 with no uncaught exception; an error opens with the
key, the swept variable or the mode at fault; and a cell that is not
finite appears only in a column that README documents as a mark."""
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dtnsat.cli import main
from dtnsat.experiments import _KEYS, _MODE_TABLE, MODES, SWEEP_VARS

# the extreme values of the drawn keys, as floats and as integers
FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1e-17, 0.5, 1.0, 7.0, 1e16, 1e300, 1.7e308, -1.0,
          math.nan, math.inf, -math.inf)
INTS = (0, 1, 7, -1, 10 ** 16, 10 ** 20)
CHOICES = {"contact_mode": ("model", "physical"), "feed": ("episode", "mean-field")}


def values_of(key):
    """The config text of the values drawn for ``key``."""
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    return st.sampled_from(FLOATS if _KEYS[key][0] is float else INTS).map(repr)


# every key but the sweep's and the two run lengths, which stay at 20
DRAWN = [key for key in _KEYS if not key.startswith("sweep.") and key not in
         ("trials", "horizon")]
SETTINGS = st.lists(st.one_of(*(st.tuples(st.just(k), values_of(k)) for k in DRAWN)),
                    max_size=4, unique_by=lambda item: item[0])
SWEPT = st.lists(st.sampled_from(FLOATS).map(repr), min_size=1, max_size=3)

# README's marks: p_min, p_star and n_a_min read inf where no relay ever
# delivers, and the rewards, cohorts and binding deliveries of a point
# without an equilibrium read nan
MARKS = {"p_min": {"inf"}, "p_star": {"inf"}, "n_a_min": {"inf"},
         "alpha_star": {"nan"}, "n_a": {"nan"}, "binding_delivery": {"nan"}}


def error_opening(mode):
    keys = "|".join(map(re.escape, _KEYS))
    return re.compile(rf"(?:{keys}) |swept (?:{'|'.join(SWEEP_VARS)}) |alpha is unset"
                      rf"|mode {re.escape(mode)}[: ]")


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "drawn.cfg"


# 12 examples per mode keep the test near a second
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(items=SETTINGS, data=st.data())
@pytest.mark.parametrize("mode", MODES)
def test_drawn_configs_keep_the_promise(mode, items, data, config_path):
    lines = ["trials = 20", "horizon = 20", *(f"{k} = {v}" for k, v in items)]
    # a sweep, most often over a variable the mode honours
    sweep = data.draw(st.none() | st.sampled_from(_MODE_TABLE[mode][1] or SWEEP_VARS)
                      | st.sampled_from(SWEEP_VARS))
    if sweep is not None:
        lines += [f"sweep.var = {sweep}", f"sweep.values = {','.join(data.draw(SWEPT))}"]
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([mode, "--config", str(config_path)])

    if code == 1:
        prefix = f"dtnsat {mode}: error: "
        assert out.getvalue() == "" and err.getvalue().startswith(prefix), lines
        assert error_opening(mode).match(err.getvalue()[len(prefix):]), err.getvalue()
        return
    assert code == 0 and err.getvalue() == "", lines
    header, *rows = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    columns = header.split(",")
    for row in rows:
        for column, cell in zip(columns, row.split(",")):
            assert math.isfinite(float(cell)) or cell in MARKS.get(column, ()), \
                (lines, column, cell)
