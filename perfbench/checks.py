"""Output checks for the xdiscord benchmark, run after the timed batch.

Every CSV a successful request wrote is parsed and checked against
invariants and against the benchmark's own formulas, which share no code
with the package:

- evolve / discord: D = I - C to 1e-12, 0 <= gamma1 <= gamma2 <= 1,
  D >= -1e-12, mu and nu from gamma1 and gamma2, one row per grid point,
  and on a seeded sample of rows gamma1 against the closed form of the
  dephasing exponent (to 1e-8 relative in the exponent, 1e-9 absolute near
  t = 0); with --oracle, analytic and
  brute-force discord agree to 1e-4
- critic-time: the status follows from (c1, c2, c3), and a finite crossing
  time solves the crossing condition with the closed-form decay factors
- critic-surface: the grid shape and a sample of cells against the
  identical-qubit closed form
- amplification: the rate column is asymptotic/initial and a sample of
  rows matches the family's closed forms

A request that exited with 3 or 4 (the documented numeric and domain
failures) is counted as failed and its file is not checked. Any other
nonzero exit is a problem.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import numpy as np
from scipy.special import loggamma

SAMPLE_ROWS = 8
DIGEST_REQUESTS = 100
FAILURE_CODES = (3, 4)
# the program searches for the critic time up to omega_c t = 1e6 and exits 3 past it
HORIZON_TAU = 1e6


def dephasing_exponent(t, eta: float, omega_c: float, temperature: float):
    """Q(t) for the Ohmic bath with exponential cutoff, at any temperature:

        eta [ (1/2) ln(1 + (w_c t)^2) + 2 ln G(1 + T/w_c) - 2 Re ln G(1 + T/w_c + i T t) ]

    with G the gamma function; the thermal part vanishes at T = 0.
    """
    t = np.asarray(t, dtype=float)
    vacuum = 0.5 * np.log1p((omega_c * t) ** 2)
    if temperature == 0.0:
        return eta * vacuum
    x = temperature / omega_c
    thermal = 2.0 * loggamma(1.0 + x) - 2.0 * loggamma(1.0 + x + 1j * temperature * t).real
    return eta * (vacuum + thermal)


def xlog2(v):
    v = np.asarray(v, dtype=float)
    return np.where(v > 0.0, v * np.log2(np.where(v > 0.0, v, 1.0)), 0.0)


class CsvFile:
    """Stamp, header and data rows of one CLI output file."""

    def __init__(self, text: str):
        self.stamp = {}
        self.header = None
        self.rows = []
        for line in text.splitlines():
            if line.startswith("#"):
                if self.header is None:  # comments after the rows are a summary
                    key, _, value = line[1:].partition("=")
                    self.stamp[key.strip()] = value.strip()
            elif self.header is None:
                self.header = line.split(",")
            else:
                self.rows.append(line.split(","))

    def column(self, name: str) -> np.ndarray:
        i = self.header.index(name)
        return np.array([float(r[i]) for r in self.rows])

    def num(self, key: str) -> float:
        return float(self.stamp[key])

    def flag(self, key: str) -> bool:
        return self.stamp[key] == "true"


def decay_exponents(tau, eta: float, omega_a: float, omega_b: float, omega_c: float,
                    temperature: float, large_detuning: bool):
    """Closed-form (gamma1 exponent, gamma2 exponent) at omega_c t = tau."""
    q = dephasing_exponent(np.asarray(tau) / omega_c, eta, omega_c, temperature)
    if large_detuning:
        return omega_a * omega_a * q, omega_a * omega_a * q
    return (omega_a + omega_b) ** 2 * q, (omega_a - omega_b) ** 2 * q


def crossing_gap(c1: float, c2: float, c3: float, e1, e2):
    """(|mu| + |nu|)/2 - |c3| for decay exponents e1, e2; the critic time is its zero."""
    return 0.5 * (abs(c1 - c2) * np.exp(-e1) + abs(c1 + c2) * np.exp(-e2)) - abs(c3)


def _decay(csv: CsvFile, tau):
    return decay_exponents(tau, csv.num("eta"), csv.num("omega_a"), csv.num("omega_b"),
                           csv.num("omega_c"), csv.num("temperature"),
                           csv.flag("large_detuning"))


def _gap(csv: CsvFile, tau) -> float:
    return float(crossing_gap(csv.num("c1"), csv.num("c2"), csv.num("c3"), *_decay(csv, tau)))


def _check_series(csv: CsvFile, rng: random.Random, problems: list, where: str):
    tau, g1, g2 = csv.column("omega_c_t"), csv.column("gamma1"), csv.column("gamma2")
    mu, nu = csv.column("mu"), csv.column("nu")
    info, cc, d = (csv.column(c) for c in
                   ("mutual_information", "classical_correlation", "discord"))
    if csv.stamp["command"] == "evolve" and len(tau) != int(csv.num("points")):
        problems.append(f"{where}: {len(tau)} rows for {csv.stamp['points']} points")
    if np.any(np.abs(d - (info - cc)) > 1e-12):
        problems.append(f"{where}: discord differs from I - C")
    if not np.all((0.0 <= g1) & (g1 <= g2) & (g2 <= 1.0)):
        problems.append(f"{where}: decay factors outside 0 <= gamma1 <= gamma2 <= 1")
    if np.any(d < -1e-12):
        problems.append(f"{where}: negative discord {d.min():.3e}")
    c1, c2 = csv.num("c1"), csv.num("c2")
    if np.any(np.abs(mu - (c1 - c2) * g1) > 1e-14) or np.any(np.abs(nu - (c1 + c2) * g2) > 1e-14):
        problems.append(f"{where}: mu or nu inconsistent with the decay factors")
    idx = np.array(sorted(rng.sample(range(len(tau)), min(SAMPLE_ROWS, len(tau)))))
    expo, _ = _decay(csv, tau[idx])
    got = g1[idx]
    deep = expo > 700.0  # the reference underflows with its last digits
    with np.errstate(divide="ignore"):
        err = np.abs(np.log(got) + expo)
    # next to t = 0 both routes round at the 1e-12 level, hence the floor
    bad = np.where(deep, got > 1e-290, ~(err <= 1e-8 * expo + 1e-9))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        problems.append(f"{where}: gamma1 {got[k]!r} at omega_c t = {tau[idx][k]!r}, "
                        f"closed form exp(-{expo[k]!r})")
    if "discord_bruteforce" in csv.header:
        gap = np.abs(d - csv.column("discord_bruteforce"))
        if np.any(gap > 1e-4):
            problems.append(f"{where}: brute-force discord off by {gap.max():.3e}")


def _check_critic_time(csv: CsvFile, rng: random.Random, problems: list, where: str):
    value, status = float(csv.rows[0][0]), csv.rows[0][1]
    c1, c2, c3 = csv.num("c1"), csv.num("c2"), csv.num("c3")
    pole, k_out, k_in = abs(c3), abs(c1 - c2), abs(c1 + c2)
    start = 0.5 * (k_out + k_in)
    identical = csv.num("omega_a") == csv.num("omega_b") and not csv.flag("large_detuning")
    floor = 0.5 * k_in if identical else 0.0
    if pole > start:
        expected = "no-crossing"
    elif pole < start and pole <= floor:
        expected = "infinite"
    else:
        expected = "finite"
    if status != expected:
        problems.append(f"{where}: status {status!r}, expected {expected!r}")
        return
    if status == "finite":
        gap = _gap(csv, value)
        if abs(gap) > 1e-6 * pole:
            problems.append(f"{where}: crossing condition off by {gap:.3e} at omega_c t_c = {value!r}")


def refused_inside_horizon(path: Path) -> bool:
    """Whether a critic-time request the program refused crosses, by the closed
    form, at omega_c t <= HORIZON_TAU. Its file holds the stamp, which the
    program writes before it searches."""
    return _gap(CsvFile(path.read_text(encoding="utf-8")), HORIZON_TAU) <= 0.0


def _check_surface(csv: CsvFile, rng: random.Random, problems: list, where: str):
    n = int(csv.num("coupling_points")) * int(csv.num("fraction_points"))
    if len(csv.rows) != n:
        problems.append(f"{where}: {len(csv.rows)} cells, expected {n}")
        return
    for i in rng.sample(range(n), min(SAMPLE_ROWS, n)):
        coupling, fraction, got = (float(v) for v in csv.rows[i])
        xi = 2.0 * fraction - 1.0
        want = math.inf if xi == 0.0 else math.sqrt(xi ** (-1.0 / (2.0 * coupling)) - 1.0)
        if not (got == want or abs(got - want) <= 1e-12 * abs(want)):
            problems.append(f"{where}: cell ({coupling!r}, {fraction!r}) is {got!r}, expected {want!r}")
            return


def _check_amplification(csv: CsvFile, rng: random.Random, problems: list, where: str):
    c, d0, dinf, rate = (csv.column(k) for k in ("c1", "initial_discord", "asymptotic_discord", "rate"))
    if np.any(d0 <= 0.0) or np.any(rate != dinf / d0):
        problems.append(f"{where}: rate is not asymptotic/initial with positive initial discord")
    idx = np.array(rng.sample(range(len(c)), min(SAMPLE_ROWS, len(c))))
    x = c[idx]
    want_inf = (xlog2(2 + x) - 2 * xlog2(2 - x) + xlog2(2 - 3 * x)) / 8
    want_0 = (-1 + (xlog2(2 - x) + xlog2(2 + x) + xlog2(2 + 3 * x) + xlog2(2 - 3 * x)) / 8
              - (xlog2(1 + x) + xlog2(1 - x)) / 2)
    if np.any(np.abs(want_inf - dinf[idx]) > 1e-12) or np.any(np.abs(want_0 - d0[idx]) > 1e-12):
        problems.append(f"{where}: amplification rows differ from the family's closed forms")


_CHECKS = {
    "evolve": _check_series,
    "discord": _check_series,
    "critic-time": _check_critic_time,
    "critic-surface": _check_surface,
    "amplification": _check_amplification,
}


def check_batch(out: Path, argvs: list, codes: list, seed: int) -> dict:
    """Check every output file of a batch; return rows, bytes, digest and problems."""
    rng = random.Random(f"checks:{seed}")
    digest = hashlib.sha256()
    rows, sizes, problems = [], [], []
    for i, (argv, code) in enumerate(zip(argvs, codes)):
        path = out / f"req_{i:06d}.csv"
        data = path.read_bytes() if path.exists() else b""
        if i < DIGEST_REQUESTS:
            digest.update(data)
        sizes.append(len(data))
        if code != 0:
            rows.append(0)
            if code not in FAILURE_CODES:
                problems.append(f"request {i} ({argv[0]}): unexpected exit code {code}")
            continue
        csv = CsvFile(data.decode("utf-8"))
        rows.append(len(csv.rows))
        where = f"request {i} ({argv[0]})"
        try:
            if csv.stamp.get("command") != argv[0]:
                problems.append(f"{where}: stamp names command {csv.stamp.get('command')!r}")
            else:
                _CHECKS[argv[0]](csv, rng, problems, where)
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"{where}: malformed output ({type(exc).__name__}: {exc})")
    return {"rows": rows, "bytes": sizes, "problems": problems,
            "sha256_first100": digest.hexdigest()}
