"""Byte-exact CSV output for a fixed set of commands.

Each tests/golden/<name>.csv is the `-o` output of the command listed
under its name below. The critic-surface file was re-captured when its
cells moved from the closed form (2 c3/c1 - 1)^p - 1 to the critic time's
own T = 0 route: 16 cells with |c3/c1| < 1/2 went from nan to inf, their
status in critic-time, and 21 finite cells changed in their last digits,
each within 1.3e-16 relative of a 50-digit mpmath value (1.0e-15 before).
The no-crossing, tie and infinite critic-time files come from the bracketing
root finder that came first; the finite, thermal and large-detuning ones
were re-captured when the critic time moved to decay-factor space, each
nearer to a 40-digit mpmath root than before. The evolve, discord and
amplification files were re-captured when I, C and D moved to the
cancellation-free phi route. Only I, C and D cells changed there, and in
the amplification file the two discord columns, the rate and the rate_max
comment; each changed I, C or D is within 4e-15 relative of the 60-digit
referee oracles.discord_reference, or 5e-16 absolute for an
ill-conditioned one before the critic time. evolve_large_detuning_log
was re-captured again when the log grid left np.geomspace for Python
floats, each point taken from its nearer end as lo/exp(-i r) or
hi exp(-(n - 1 - i) r): no pure-math grid has the bits of NumPy's SIMD
log10 and power, and this one is nearer to a 40-digit grid (6.3 ulp at
worst against 16.0). Its omega_c t moved in 56 of 60 rows, and every
other cell of those rows is what the np.geomspace build gave at the new
time. discord_oracle_readme was re-captured when the brute-force oracle
moved to a basin scan with Newton steps in plain Python: only its
discord_bruteforce cell changed, 0.059448374252465186 ->
0.059448374252465422, from 2.2e-16 to 1.5e-17 of the 60-digit referee.
A changed byte anywhere (a digit, a label, the stamp or a line
ending) fails the test.

DIGESTS pins tables of the size the benchmark runs, 1,000 rows and more, by
the sha256 of their `-o` output. The critic-surface pin was re-captured
with critic_surface_small: 5,819 of its 10,000 cells changed in their last
digits, each within 4.7e-16 relative of the 50-digit value (2.5e-14
before). The evolve and amplification pins were re-captured with the
goldens above, with every other column byte-identical. The log-spaced
evolve pin was re-captured with evolve_large_detuning_log, on the Python
log grid (5.4 ulp from the 40-digit grid at worst, against 10.0 for
np.geomspace).
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
        "683a1b541b7a4b99693e762d0bead10153e745c757dd6e506a32e1d4c5c896bc",
    # a zero weight at t = 0: (1 + c3 - mu)/4 = 0
    ("evolve", "--ratio", "2.3", "--c1", "0.6", "--c2", "-0.1", "--c3", "-0.3",
     "--t-max", "50", "--points", "1000"):
        "58f284e4f0431ea80c6e61490c87aeb183509843b8cca5046cbb3b90e9fb9b4c",
    ("evolve", "--ratio", "2", "--spacing", "log", "--t-min", "0.001", "--t-max", "1000",
     "--points", "1000"):
        "e18b58fcce9e06f1a1e1384ca33c1304273a6b5d8e2d1a2c702a73a2b73eba11",
    ("evolve", "-T", "0.2", "--ratio", "2", "--t-max", "30", "--points", "1000"):
        "894ff151a586d80a825b2aa13c1596c447d320309fb1dad579a5327ed77ab77e",
    ("evolve", "--large-detuning", "--ratio", "3", "--c1", "1", "--c2", "-0.5", "--c3", "0.5",
     "--points", "1000"):
        "d7d4d6d0a69d5c9b4c9e91d914075e19c178c2de4d2cf33bc0435b35700b4731",
    # c3 = 0: no critic time
    ("evolve", "--ratio", "2", "--c1", "0.5", "--c3", "0", "--points", "1000"):
        "f9f4129b2ac060f2f78d510176939c03b549b913782326f7c07da94af103fc6c",
    ("amplification",): "b4b490f35aa2f52025d1d47391028cbb71a2a5b7de0ebf76a83863ced67458dc",
    ("critic-surface",): "cd9d55531eca70d36acec6707084ae840f5fa3222bff1ab9b6193ab3aca81628",
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
