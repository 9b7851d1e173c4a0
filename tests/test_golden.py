"""Byte-exact CSV output for a fixed set of commands.

Each tests/golden/<name>.csv is the `-o` output of the command listed
under its name below. The evolve, discord, critic-surface and
amplification files were written by the row-by-row implementation that
the time-grid pipeline replaced. The no-crossing, tie and infinite
critic-time files come from the bracketing root finder that came first;
the finite, thermal and large-detuning ones were re-captured when the
critic time moved to decay-factor space, each nearer to a 40-digit mpmath
root than before. A changed byte anywhere (a digit, a label, the stamp or a
line ending) fails the test.

DIGESTS pins tables of the size the benchmark runs, 1,000 rows and more, by
the sha256 of their `-o` output. They were captured before the discord
kernel and the decay-factor loop were rewritten for speed.
"""

import hashlib
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
    # one critic time per status, and one per route to a finite one
    "critic_time_finite": ["critic-time", "--ratio", "2"],
    "critic_time_infinite": ["critic-time", "--c1", "0.5", "--c3", "0.25"],
    "critic_time_no_crossing": ["critic-time", "--c1", "0.2", "--c3", "0.5"],
    "critic_time_tie": ["critic-time", "--c1", "0.5", "--c3", "0.5"],
    "critic_time_large_detuning": [
        "critic-time", "--large-detuning", "--ratio", "3", "--c1", "1", "--c2", "-0.5",
        "--c3", "0.5",
    ],
    "critic_time_thermal": ["critic-time", "-T", "0.3", "--ratio", "2"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main(GOLDEN[name] + ["-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


DIGESTS = {
    # ratio 1, T = 0, linear: before- then after-critic
    ("evolve", "--c1", "0.45", "--c2", "0.05", "--c3", "0.4", "--points", "1000"):
        "1ffe19efd71ff50922f5c5d67c0bf97207bc97a90d6d50911eb8daea11b03b38",
    # a zero weight at t = 0: (1 + c3 - mu)/4 = 0
    ("evolve", "--ratio", "2.3", "--c1", "0.6", "--c2", "-0.1", "--c3", "-0.3",
     "--t-max", "50", "--points", "1000"):
        "8277651de1eaaa4c45b351b6c0bcd83bb8cb3be18bb25f29320d4a631e105f6b",
    ("evolve", "--ratio", "2", "--spacing", "log", "--t-min", "0.001", "--t-max", "1000",
     "--points", "1000"):
        "34ac4a7c8d236110c8bd0798156383d04181d2714df524bd81965c764933e686",
    ("evolve", "-T", "0.2", "--ratio", "2", "--t-max", "30", "--points", "1000"):
        "f116e2c4a7044fa88aaa1d9cb8487f7fa721d4acf49a3c2432f4600e36dd1eb2",
    ("evolve", "--large-detuning", "--ratio", "3", "--c1", "1", "--c2", "-0.5", "--c3", "0.5",
     "--points", "1000"):
        "cf1a1687aa079606564a7118fef142b37de159eeb3698b5187d7884dbbaec15a",
    # c3 = 0: no critic time
    ("evolve", "--ratio", "2", "--c1", "0.5", "--c3", "0", "--points", "1000"):
        "4290ef680a10fa4738df828efb8133751603552fad52a5e4145859685113bd4d",
    ("amplification",): "87b76e1fa8071444518966c434ed002616149a49e163fbfb25aa8605da3d3edc",
    ("critic-surface",): "d0f0ea6238e21a7da2dedd2f3d2252fc79205cdf1c97dfd35a58b608464f63f0",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=" ".join)
def test_output_matches_digest(argv, tmp_path):
    out = tmp_path / "table.csv"
    assert cli.main(list(argv) + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[argv]


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(GOLDEN)


@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 0.1, 2 / 3, 1e300]
)
def test_row_format_prints_floats_as_the_stamp_does(value):
    # data rows use '%.17g' % row, the stamp format(x, '.17g'); both must agree
    assert "%.17g" % value == format(value, ".17g")
