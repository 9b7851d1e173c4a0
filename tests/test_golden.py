"""Byte-exact CSV output for a fixed set of commands.

Each tests/golden/<name>.csv is the `-o` output of the command listed
under its name below, written by the row-by-row implementation that the
time-grid pipeline replaced. A changed byte anywhere (a digit, a label,
the stamp or a line ending) fails the test.
"""

import math
from pathlib import Path

import pytest

from xdiscord import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN = {
    # the README commands; evolve at 100 points keeps the file small
    "evolve_readme": ["evolve", "--ratio", "2", "--t-max", "10", "--points", "100"],
    "discord_oracle_readme": ["discord", "--time", "1.5", "--ratio", "2", "--oracle"],
    # t = inf: gamma1 = 0 and the discord clamp at 0
    "discord_infinite_time": ["discord", "--time", "inf", "--ratio", "2"],
    "evolve_thermal": ["evolve", "-T", "0.1", "--points", "200"],
    "evolve_large_detuning": ["evolve", "--large-detuning", "--ratio", "3", "--points", "60"],
    "evolve_large_detuning_log": [
        "evolve", "--large-detuning", "--ratio", "3", "--spacing", "log",
        "--t-min", "0.001", "--t-max", "1000", "--points", "60",
    ],
    "evolve_absolute_frequencies": [
        "evolve", "--omega-a", "1.5", "--omega-b", "0.5", "--c1", "0.4", "--c2", "-0.1",
        "--c3", "0.2", "--eta", "0.3", "--points", "50",
    ],
    "critic_surface_small": [
        "critic-surface", "--coupling-points", "8", "--fraction-min", "0.4",
        "--fraction-points", "8",
    ],
    "amplification_subrange": [
        "amplification", "--c1-min", "0.2", "--c1-max", "0.5", "--c1-step", "0.005",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main(GOLDEN[name] + ["-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(GOLDEN)


@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 0.1, 2 / 3, 1e300]
)
def test_row_format_prints_floats_as_the_stamp_does(value):
    # data rows use '%.17g' % row, the stamp format(x, '.17g'); both must agree
    assert "%.17g" % value == format(value, ".17g")
