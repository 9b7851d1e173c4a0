"""Ohmic reservoir kernels and the dephasing decay factors.

The bath enters the reduced dynamics only through two time integrals over
the spectral density with exponential cutoff: an imaginary-phase kernel

    P(t) = int_0^inf dw (eta/w) e^{-w/w_c} sin(w t)          = eta atan(w_c t)

and the dephasing exponent

    Q(t) = 2 int_0^inf dw (eta/w) e^{-w/w_c} sin^2(w t/2) coth(w/(2T))
         = eta [ (1/2) ln(1 + (w_c t)^2)
                 + 2 ln G(1 + T/w_c) - 2 Re ln G(1 + T/w_c + i T t) ],

with G the Gamma function (Palma, Suominen & Ekert, Proc. R. Soc. A 452,
567 (1996)). phase_exponent and dephasing_exponent evaluate these closed
forms at every temperature; they are the only production route. The
thermal part ln |G(w)/G(w + i y)|^2 is never formed as a difference of two
log-Gamma values, which would cancel for small y: the recurrence
|G(w)/G(w + i y)|^2 = (1 + y^2/w^2) |G(w+1)/G(w+1 + i y)|^2 shifts w to
at least 12, and Stirling's series (Abramowitz & Stegun 6.1.40) gives the
rest in terms that each vanish with y. The package carries no quadrature:
the tests integrate both kernels numerically as independent oracles.
Units have hbar = k_B = 1, so beta = 1/T.
"""

from __future__ import annotations

import math
from operator import le

from .errors import DomainError, InvalidStateError
from .states import QubitPairConfig, _record, _reject

# Stirling coefficients B_2k / (2k (2k-1)), k = 1..7, of
# ln G(z) ~ (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k c_k z^(1-2k); from
# Re z >= _STIRLING_MIN_W on, the first omitted term is below 5e-17 of the
# thermal exponent
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN_W = 12.0


class ReservoirConfig(_record("ReservoirConfig", "eta omega_c temperature", (0.0,))):
    """Ohmic bath with exponential cutoff: J(w) g^2(w) = eta * w * e^{-w/w_c},
    at temperature T = 0 unless given."""

    __slots__ = ()

    def __new__(cls, eta: float, omega_c: float, temperature: float = 0.0):
        if not (math.isfinite(eta) and eta > 0.0):
            raise InvalidStateError(f"eta={eta!r} must be positive")
        if not (math.isfinite(omega_c) and omega_c > 0.0):
            raise InvalidStateError(f"omega_c={omega_c!r} must be positive")
        if not (math.isfinite(temperature) and temperature >= 0.0):
            raise InvalidStateError(f"temperature={temperature!r} must be nonnegative")
        if not math.isfinite(temperature / omega_c):  # Q(t) needs w = 1 + T/omega_c
            raise InvalidStateError(
                f"(omega_c, temperature)=({omega_c!r}, {temperature!r}): "
                "temperature/omega_c overflows a float")
        return super().__new__(cls, eta, omega_c, temperature)


class DecayFactors(_record("DecayFactors", "gamma1 gamma2 t", (None,))):
    """Coherence survival factors of the two antidiagonals at time t.

    gamma1 damps the outer (double-flip) coherence, gamma2 the inner
    (exchange) coherence. Both lie in [0, 1]; gamma1 <= gamma2 because the
    outer coherence couples to the sum frequency. Exact zero is allowed,
    it is the underflow of e^{-x} for large exponents. Each field is a
    float, or a list over the time grid t; t may be None.
    """

    __slots__ = ()

    def __new__(cls, gamma1: float, gamma2: float, t: float | None = None):
        _reject(lambda g1, g2: None if 0.0 <= g1 <= g2 <= 1.0 else (g1, g2),
                "decay factors (%r, %r) violate 0 <= gamma1 <= gamma2 <= 1",
                gamma1, gamma2, t=t, fine=_ordered)
        return super().__new__(cls, gamma1, gamma2, t)


def _ordered(g1: list, g2: list) -> bool:
    # a nan fails le, and min() and max() see every point where le holds throughout
    return (all(map(le, g1, g2)) and min(g1, default=0.0) >= 0.0
            and max(g2, default=1.0) <= 1.0)


def phase_exponent(t: float, res: ReservoirConfig) -> float:
    """Imaginary-phase kernel P(t) = eta * atan(omega_c * t); it does not depend on T."""
    return res.eta * math.atan(res.omega_c * t)


def _log1p_square(s: float) -> float:
    # ln(1 + s^2); s^2 overflows above 1.3e154, where ln(1 + s^2) = 2 ln s
    return math.log1p(s * s) if s < 1e150 else 2.0 * math.log(s)


def _exponent_kernel(res: ReservoirConfig):
    """Q(t) of one reservoir as a function of t alone: dephasing_exponent(t, res).

    Everything that does not depend on t is bound once: eta/2, omega_c, T,
    and for the thermal term ln |G(w)/G(w + i y)|^2 (w = 1 + T/omega_c,
    y = T t) the Gamma-recurrence ladder w, w+1, ... < 12, the shifted w - 1/2
    and the Stirling products c_k w^(1-2k). Each term of the thermal sum
    vanishes with y on its own, so no two large values cancel.
    """
    eta, omega_c, temperature = res
    half_eta = 0.5 * eta
    log, log1p = math.log, math.log1p

    def vacuum(t):
        if t < 0.0:
            raise DomainError(f"t={t!r} must be nonnegative")
        if t == 0.0:
            return 0.0
        try:
            return half_eta * log1p((omega_c * t) ** 2)
        except OverflowError:
            # (w_c t)^2 > 1.8e308, where log1p(u^2) = 2 ln u to double precision
            return eta * log(omega_c * t)

    if temperature == 0.0:
        return vacuum
    w = 1.0 + temperature / omega_c
    ladder = []
    while w < _STIRLING_MIN_W:
        ladder.append(w)
        w += 1.0
    # with z = w (1 + i s): Re ln G(z) - ln G(w) = (w - 1/2) ln|1 + i s| - y atan(s)
    # + sum_k c_k w^(-m) [Re (1 + i s)^(-m) - 1], m = 2k - 1, where
    # Re (1 + i s)^(-m) - 1 = (r - 1) - 2 sin^2(m theta/2) r, r = |1 + i s|^(-m)
    w_half = w - 0.5
    series = []
    w_pow = 1.0 / w
    inv_w2 = w_pow * w_pow
    for m, c in zip(range(1, 2 * len(_STIRLING), 2), _STIRLING):
        series.append((-m, 0.5 * m, c * w_pow))
        w_pow *= inv_w2
    atan, expm1, sin, inf = math.atan, math.expm1, math.sin, math.inf

    def thermal(t):
        cold = vacuum(t)
        if t == 0.0:
            return 0.0
        y = temperature * t
        if y == inf:
            # the thermal series would read inf - inf
            return inf
        total = 0.0
        for v in ladder:
            # _log1p_square inlined: this loop runs once per rung and time
            s = y / v
            total += log1p(s * s) if s < 1e150 else 2.0 * log(s)
        s = y / w
        log_mod = 0.5 * _log1p_square(s)
        theta = atan(s)
        inner = w_half * log_mod - y * theta
        for neg_m, half_m, cw in series:
            r_minus_1 = expm1(neg_m * log_mod)
            h = sin(half_m * theta)
            inner += cw * (r_minus_1 - 2.0 * h * h * (r_minus_1 + 1.0))
        return cold + eta * (total - 2.0 * inner)

    return thermal


def dephasing_exponent(t: float, res: ReservoirConfig) -> float:
    """Dephasing exponent Q(t) in closed form at every temperature.

    At T = 0 it is (eta/2) ln(1 + (omega_c t)^2). Above, eta times the
    thermal term 2 ln G(1+x) - 2 Re ln G(1+x+iy), x = T/omega_c and y = T t,
    is added. That term is summed as sum_n<N ln(1 + y^2/(1+x+n)^2) plus
    Stirling's series at 1+x+N >= 12, without a difference of log-Gamma
    values, to about 1e-15 relative for every y. Q(inf) = inf.
    """
    return _exponent_kernel(res)(t)


def decay_factors(
    t,
    qubits: QubitPairConfig,
    res: ReservoirConfig,
    large_detuning_limit: bool = False,
) -> DecayFactors:
    """Coherence decay factors at time t, a float or a list of times.

        gamma1 = exp[-(w_a + w_b)^2 Q(t)],  gamma2 = exp[-(w_a - w_b)^2 Q(t)]

    so gamma2 = gamma1^kappa with the kappa of _decay_rates. With
    large_detuning_limit set, both exponents collapse to w_a^2, the exact
    r >> 1 limit in which gamma2 = gamma1. A list of times gives lists of
    factors; a float runs the same loop on [t] and gives floats.
    """
    a1, a2, _ = _decay_rates(qubits, large_detuning_limit)
    times = t if type(t) is list else [t]
    gamma1, gamma2, exp, q = [], [], math.exp, _exponent_kernel(res)
    for v in times:
        q2 = q(v)
        # a zero rate keeps the coherence at Q = inf too, where a * Q is nan
        gamma1.append(1.0 if a1 == 0.0 else exp(-a1 * q2))
        gamma2.append(1.0 if a2 == 0.0 else exp(-a2 * q2))
    if type(t) is list:
        return DecayFactors(gamma1, gamma2, t)
    return DecayFactors(gamma1[0], gamma2[0], t)


def _decay_rates(qubits: QubitPairConfig, large_detuning_limit: bool) -> tuple:
    """(a1, a2, kappa): gamma_i = exp(-a_i Q(t)), and gamma2 = gamma1^kappa.

    a1 = (w_a + w_b)^2 and a2 = (w_a - w_b)^2, or both w_a^2 with kappa = 1
    in the large-detuning limit. kappa = ((w_a - w_b)/(w_a + w_b))^2 scales
    both by one power of 2, so it keeps its digits where a1 and a2 under- or
    overflow, and is 0.0 exactly when w_a == w_b. No other code turns a
    qubit pair into decay rates.
    """
    w_a, w_b = qubits
    if large_detuning_limit:
        return w_a**2, w_a**2, 1.0
    s, e = math.frexp(w_a + w_b)
    return (w_a + w_b) ** 2, (w_a - w_b) ** 2, math.ldexp(w_a - w_b, -e) ** 2 / s ** 2
