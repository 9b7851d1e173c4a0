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
rest in terms that each vanish with y. The adaptive quadratures
bath_phase_integral and bath_dephasing_integral evaluate the integrals
themselves and, with the T << w_c form bath_dephasing_low_temperature,
serve only as oracles for the tests. Units have hbar = k_B = 1, so
beta = 1/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InvalidStateError, QuadratureError
from .states import QubitPairConfig, _reject

# requested per-piece quadrature tolerances; the compound results are
# checked against the looser acceptance bounds below before returning
_EPSABS = 1e-14
_EPSREL = 1e-11
_ACCEPT_ABS = 1e-11
_ACCEPT_REL = 1e-9

# number of leading half-oscillations integrated directly before switching
# to the weighted (QAWO) rule; the thermal 1/w^2 bulk lives in this region
_DIRECT_ZEROS = 20

# Stirling coefficients B_2k / (2k (2k-1)), k = 1..7, of
# ln G(z) ~ (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k c_k z^(1-2k); from
# Re z >= _STIRLING_MIN_W on, the first omitted term is below 5e-17 of the
# thermal exponent
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN_W = 12.0


@dataclass(frozen=True)
class ReservoirConfig:
    """Ohmic bath with exponential cutoff: J(w) g^2(w) = eta * w * e^{-w/w_c}."""

    eta: float
    omega_c: float
    temperature: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise InvalidStateError(f"eta={self.eta!r} must be positive")
        if not (math.isfinite(self.omega_c) and self.omega_c > 0.0):
            raise InvalidStateError(f"omega_c={self.omega_c!r} must be positive")
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise InvalidStateError(
                f"temperature={self.temperature!r} must be nonnegative"
            )

    @property
    def is_zero_temperature(self) -> bool:
        return self.temperature == 0.0

    @property
    def beta(self) -> float:
        return math.inf if self.temperature == 0.0 else 1.0 / self.temperature


@dataclass(frozen=True, slots=True)  # slots: critic_time builds one per bisection step
class DecayFactors:
    """Coherence survival factors of the two antidiagonals.

    gamma1 damps the outer (double-flip) coherence, gamma2 the inner
    (exchange) coherence. Both lie in [0, 1]; gamma1 <= gamma2 because the
    outer coherence couples to the sum frequency. Exact zero is allowed,
    it is the underflow of e^{-x} for large exponents. Each field is a
    float, or an array over the time grid t.
    """

    gamma1: float
    gamma2: float
    t: float | None = None

    def __post_init__(self):
        g1, g2 = self.gamma1, self.gamma2
        # the chained test alone is the fast path for floats
        if not (type(g1) is float and 0.0 <= g1 <= g2 <= 1.0):
            _reject(np.logical_not((0.0 <= g1) & (g1 <= g2) & (g2 <= 1.0)), "decay factors "
                    "(%r, %r) violate 0 <= gamma1 <= gamma2 <= 1", g1, g2, t=self.t)


def spectral_weight(omega: float, res: ReservoirConfig) -> float:
    """Effective coupling density eta * omega * exp(-omega/omega_c)."""
    if omega < 0.0:
        raise DomainError(f"omega={omega!r} must be nonnegative")
    return res.eta * omega * math.exp(-omega / res.omega_c)


def _coth(x: float) -> float:
    # x > 0; series below 1e-6 avoids 1/tanh noise, saturation above 20
    if x > 20.0:
        return 1.0
    if x < 1e-6:
        return 1.0 / x + x / 3.0
    return 1.0 / math.tanh(x)


def _quad_checked(fn, lo, hi, what, **kw):
    # imported here: only the test oracles integrate, and the import is slow
    from scipy.integrate import quad

    out = quad(fn, lo, hi, epsabs=_EPSABS, epsrel=_EPSREL, full_output=1, **kw)
    val, err = out[0], out[1]
    if err > max(_ACCEPT_ABS, abs(val) * _ACCEPT_REL):
        raise QuadratureError(
            f"{what}: achieved abs error {err:.3e} on [{lo:.3e}, {hi:.3e}] "
            f"exceeds tolerance (value {val:.6e})"
        )
    return val


def _direct_edges(t: float, upper: float, spacing: float):
    """Chunk edges [0, spacing/t, 2*spacing/t, ...] capped at upper.

    The last edge equals upper only when the chunks reach the cutoff on
    their own; otherwise the caller owns [last edge, upper] and must treat
    it with an oscillation-aware rule, never a plain adaptive pass.
    """
    edges = [0.0]
    for k in range(1, _DIRECT_ZEROS + 1):
        e = k * spacing / t
        if e >= upper:
            edges.append(upper)
            break
        edges.append(e)
    return edges


def bath_phase_integral(t: float, res: ReservoirConfig) -> float:
    """Imaginary-phase kernel P(t) by quadrature; an oracle for phase_exponent."""
    if t < 0.0:
        raise DomainError(f"t={t!r} must be nonnegative")
    if t == 0.0:
        return 0.0
    eta, omega_c = res.eta, res.omega_c

    def f(w):
        if w == 0.0:
            return eta * t
        return eta / w * math.exp(-w / omega_c) * math.sin(w * t)

    upper = 40.0 * omega_c
    edges = _direct_edges(t, upper, math.pi)
    total = math.fsum(
        _quad_checked(f, lo, hi, "phase integral", limit=200)
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    b1 = edges[-1]
    if b1 < upper:
        g = lambda w: eta / w * math.exp(-w / omega_c)
        total += _quad_checked(
            g, b1, upper, "phase integral (oscillatory tail)",
            weight="sin", wvar=t, limit=500,
        )
    return total


def bath_dephasing_integral(t: float, res: ReservoirConfig) -> float:
    """Dephasing exponent Q(t) by quadrature; an oracle for dephasing_exponent.

    At T = 0 the integrand uses coth -> 1 exactly; the result then matches
    (eta/2) ln(1 + (omega_c t)^2) to quadrature accuracy.
    """
    if t < 0.0:
        raise DomainError(f"t={t!r} must be nonnegative")
    if t == 0.0:
        return 0.0
    eta, omega_c, T = res.eta, res.omega_c, res.temperature

    def g(w):
        c = _coth(w / (2.0 * T)) if T > 0.0 else 1.0
        return 2.0 * eta / w * math.exp(-w / omega_c) * c

    def f(w):
        # stable form of g * (1 - cos(w t)); finite limit at w -> 0
        if w == 0.0:
            return eta * t * t * T
        s = math.sin(0.5 * w * t)
        return g(w) * s * s

    # e^{-W/w_c} tail below 1e-17 of the integrand scale; the thermal factor
    # coth(W/2T) is within 1e-17 of 1 once W > 40 T as well
    upper = 40.0 * omega_c + 40.0 * T
    edges = _direct_edges(t, upper, 2.0 * math.pi)
    total = math.fsum(
        _quad_checked(f, lo, hi, "dephasing integral", limit=200)
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    b1 = edges[-1]
    if b1 < upper:
        # remainder: g sin^2 = g/2 - (g/2) cos. Geometric breakpoints tame
        # the 1/w^2 thermal rise of g toward the lower end.
        pts = []
        p = 4.0 * b1
        while p < upper:
            pts.append(p)
            p *= 4.0
        smooth = _quad_checked(
            g, b1, upper, "dephasing integral (smooth tail)",
            points=pts or None, limit=300,
        )
        osc = _quad_checked(
            g, b1, upper, "dephasing integral (oscillatory tail)",
            weight="cos", wvar=t, limit=500,
        )
        total += 0.5 * (smooth - osc)
    return total


def _log_sinhc(x: float) -> float:
    # log(sinh(x)/x), stable from 0 through overflow range
    if x < 1e-4:
        x2 = x * x
        return x2 / 6.0 - x2 * x2 / 180.0
    if x > 30.0:
        return x - math.log(2.0 * x) + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x) / x)


def bath_dephasing_low_temperature(t: float, res: ReservoirConfig) -> float:
    """Closed-form Q(t) valid for T << omega_c:

        eta * { (1/2) ln[1 + (w_c t)^2] + ln[ sinh(pi t T) / (pi t T) ] }.

    The thermal term goes to zero both as t -> 0 and as T -> 0, so the
    expression degrades gracefully to the exact zero-temperature form.
    """
    vacuum = dephasing_exponent(t, replace(res, temperature=0.0))
    if t == 0.0 or res.temperature == 0.0:
        return vacuum
    return vacuum + res.eta * _log_sinhc(math.pi * t * res.temperature)


def phase_exponent(t: float, res: ReservoirConfig) -> float:
    """Imaginary-phase kernel P(t) = eta * atan(omega_c * t); it does not depend on T."""
    return res.eta * math.atan(res.omega_c * t)


def _log1p_square(s: float) -> float:
    # ln(1 + s^2); s^2 overflows above 1.3e154, where ln(1 + s^2) = 2 ln s
    return math.log1p(s * s) if s < 1e150 else 2.0 * math.log(s)


def _thermal_exponent(w: float, y: float) -> float:
    """ln |G(w)/G(w + i y)|^2 = 2 [ln G(w) - Re ln G(w + i y)] for w >= 1, 0 <= y < inf.

    Each term vanishes with y on its own, so no two large values cancel.
    """
    total = 0.0
    while w < _STIRLING_MIN_W:
        total += _log1p_square(y / w)
        w += 1.0
    # with z = w (1 + i s): Re ln G(z) - ln G(w) = (w - 1/2) ln|1 + i s| - y atan(s)
    # + sum_k c_k w^(-m) [Re (1 + i s)^(-m) - 1], m = 2k - 1, where
    # Re (1 + i s)^(-m) - 1 = (r - 1) - 2 sin^2(m theta/2) r, r = |1 + i s|^(-m)
    s = y / w
    log_mod = 0.5 * _log1p_square(s)
    theta = math.atan(s)
    inner = (w - 0.5) * log_mod - y * theta
    w_pow = 1.0 / w
    inv_w2 = w_pow * w_pow
    for m, c in zip(range(1, 2 * len(_STIRLING), 2), _STIRLING):
        r_minus_1 = math.expm1(-m * log_mod)
        h = math.sin(0.5 * m * theta)
        inner += c * w_pow * (r_minus_1 - 2.0 * h * h * (r_minus_1 + 1.0))
        w_pow *= inv_w2
    return total - 2.0 * inner


def dephasing_exponent(t: float, res: ReservoirConfig) -> float:
    """Dephasing exponent Q(t) in closed form at every temperature.

    At T = 0 it is (eta/2) ln(1 + (omega_c t)^2). Above, eta times the
    thermal term 2 ln G(1+x) - 2 Re ln G(1+x+iy), x = T/omega_c and y = T t,
    is added. That term is summed as sum_n<N ln(1 + y^2/(1+x+n)^2) plus
    Stirling's series at 1+x+N >= 12, without a difference of log-Gamma
    values, to about 1e-15 relative for every y. Q(inf) = inf.
    """
    if t < 0.0:
        raise DomainError(f"t={t!r} must be nonnegative")
    if t == 0.0:
        return 0.0
    try:
        vacuum = 0.5 * res.eta * math.log1p((res.omega_c * t) ** 2)
    except OverflowError:
        # (w_c t)^2 > 1.8e308, where log1p(u^2) = 2 ln u to double precision
        vacuum = res.eta * math.log(res.omega_c * t)
    temperature = res.temperature
    if temperature == 0.0:
        return vacuum
    y = temperature * t
    if y == math.inf:
        # the thermal series would read inf - inf
        return math.inf
    return vacuum + res.eta * _thermal_exponent(1.0 + temperature / res.omega_c, y)


def decay_factors(
    t,
    qubits: QubitPairConfig,
    res: ReservoirConfig,
    large_detuning_limit: bool = False,
) -> DecayFactors:
    """Coherence decay factors at time t, a float or a 1-D array of times.

        gamma1 = exp[-(w_a + w_b)^2 Q(t)],  gamma2 = exp[-(w_a - w_b)^2 Q(t)]

    so ln(gamma2)/ln(gamma1) = ((r-1)/(r+1))^2 with r = w_a/w_b. With
    large_detuning_limit set, both exponents collapse to w_a^2, the exact
    r >> 1 limit in which gamma2 = gamma1. An array of times gives arrays
    of factors, each element computed as for a float.
    """
    if large_detuning_limit:
        a1 = a2 = qubits.omega_a**2
    else:
        a1 = (qubits.omega_a + qubits.omega_b) ** 2
        a2 = (qubits.omega_a - qubits.omega_b) ** 2
    if type(t) is np.ndarray:
        q2 = [dephasing_exponent(v, res) for v in t.tolist()]
        return DecayFactors(
            np.array([_decay(a1, q) for q in q2]), np.array([_decay(a2, q) for q in q2]), t
        )
    # positional arguments: critic_time's bisection makes this call in a loop
    q2 = dephasing_exponent(t, res)
    gamma1 = _decay(a1, q2)
    return DecayFactors(gamma1, gamma1 if large_detuning_limit else _decay(a2, q2), t)


def _decay(a: float, q2: float) -> float:
    # a zero coefficient keeps the coherence at Q = inf too, where a * Q is nan
    return 1.0 if a == 0.0 else math.exp(-a * q2)
