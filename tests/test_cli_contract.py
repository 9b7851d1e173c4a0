"""The command line's input contract, over generated flags and config files.

Every input the command line accepts ends in one of two ways: exit 0 with
a table whose cells are finite and inside their physical bounds, or the
documented exit code (2 configuration error, 3 numeric failure, 4 domain
error) with a message that names the offending key. Keys are drawn from
the subcommand's parameter table, values from zero, tiny, huge, negative,
infinite, nan and ordinary ones. Each defect this search found has its own
regression test in test_cli.py or test_analysis.py.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest

from xdiscord import cli

from helpers import EXTREME_MAGNITUDES, SPECIAL_FLOATS

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(0.05, 3.0)).map(repr)
# ordinary sizes stay small: the test must never build a large table
INTS = st.one_of(st.sampled_from(["0", "-3", "10" + "0" * 12, "inf", "nan", "1e3"]),
                 st.integers(1, 40).map(str))
VALUES = {
    bool: st.sampled_from(["true", "false", "maybe"]),
    str: st.sampled_from(["linear", "log", "cubic"]),
    int: INTS,
    float: FLOATS,
}
# the keys that scale the bath and the qubits, drawn jointly at extreme magnitudes so
# that their products under- or overflow
SCALE_KEYS = ("eta", "omega_c", "temperature", "omega", "ratio")
SCALES = st.sampled_from(EXTREME_MAGNITUDES + [1e-300, 1e300, 1.0]).map(repr)
# cells that may read nan or inf, by column: the time of a `--time inf` row, a
# critic time without a crossing, and the surface cells the docs name
MAY_BE_INFINITE = {"omega_c_t", "omega_c_tc"}


def keys_of(command):
    # every key but output: each run writes to a file of its own
    return [key for key in cli._SHARED_KEYS + cli._COMMANDS[command].keys if key != "output"]


def names_a_key(message, command):
    words = [k for key in keys_of(command) for k in (key, key.replace("_", "-"))]
    return re.search(r"\b(?:%s)\b" % "|".join(map(re.escape, words)), message) is not None


@st.composite
def runs(draw, scales=False):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    if scales:
        # omega_a and omega_b would clash with omega and ratio
        others = [k for k in keys_of(command) if k not in SCALE_KEYS + cli._FREQ_ABSOLUTE]
        keys = [*draw(st.lists(st.sampled_from(others), unique=True, max_size=3)), *SCALE_KEYS]
    else:
        keys = draw(st.lists(st.sampled_from(keys_of(command)), unique=True, max_size=6))
    flags, config = [], []
    for key in keys:
        kind = cli._KEYS[key].type
        value = draw(SCALES if scales and key in SCALE_KEYS else VALUES[kind])
        is_flag = key not in cli._GRID_KEYS or command == "evolve"
        if is_flag and draw(st.booleans()):
            if kind is bool:
                flags.append("--" + key.replace("_", "-"))
            else:
                flags.append(f"--{key.replace('_', '-')}={value}")
        else:
            config.append(f"{key} = {value}")
    return command, flags, config


def run(command, flags, config):
    """Exit code, stderr and output file text of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = [command, *flags, "-o", str(out)]
        if config:
            (Path(tmp) / "run.cfg").write_text("\n".join(config) + "\n")
            argv += ["--config", str(Path(tmp) / "run.cfg")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
        text = out.read_text() if out.exists() else ""
    return code, err.getvalue(), text


def check_table(command, text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    header = rows[0].split(",")
    cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
    assert cells, text
    for row in cells:
        values = {k: float(v) for k, v in row.items() if k not in ("regime", "status", "method")}
        for name, value in values.items():
            if name not in MAY_BE_INFINITE:
                assert math.isfinite(value), (name, row)
        if command in ("evolve", "discord"):
            assert math.isfinite(values["omega_c_t"]) or values["omega_c_t"] == math.inf
            assert 0.0 <= values["gamma1"] <= values["gamma2"] <= 1.0, row
            assert values["discord"] >= 0.0, row
            assert values.get("discord_bruteforce", 0.0) >= 0.0, row
        elif command == "critic-time":
            allowed = {"finite": math.isfinite, "infinite": lambda v: v == math.inf,
                       "no-crossing": math.isnan}
            assert allowed[row["status"]](values["omega_c_tc"]), row
        elif command == "amplification":
            assert values["initial_discord"] > 0.0 and values["asymptotic_discord"] >= 0.0, row
    if command == "amplification":
        footer = re.search(r"# rate_max = (\S+) at c1 = (\S+)", text)
        assert footer and all(math.isfinite(float(v)) for v in footer.groups()), text


def check_run(command, flags, config):
    code, err, text = run(command, flags, config)
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        check_table(command, text)
    else:
        assert names_a_key(err, command), err


@settings(max_examples=200)
@given(runs())
def test_every_input_answers_or_names_its_error(run_args):
    check_run(*run_args)


@settings(max_examples=100)
@given(runs(scales=True))
def test_every_extreme_scale_answers_or_names_its_error(run_args):
    # eta, omega_c, T, omega and ratio at once, each tiny, huge or 1, so that products
    # such as eta omega_c (omega_c/2 + T) and (omega_a + omega_b)^2 Q(t) leave the floats
    check_run(*run_args)
