"""Critic times, discord amplification, and discord protection.

The classical-correlation branch switches when the equatorial spread
(|mu(t)| + |nu(t)|)/2 decays down to the pole spread |c3|; the crossing
time is the critic time. Everything in this module reduces to properties
of that crossing and of the decay factor gamma1.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .discord import REGIME_AFTER, _measurement_branch, classical_correlation_value
from .errors import DomainError, RootFindError
from .evolution import EvolvedXState
from .reservoir import ReservoirConfig, decay_factors
from .states import QubitPairConfig, XStateParams, xlog2

# relative bisection tolerance on the critic time
_BISECT_RTOL = 1e-12
# the search horizon for the critic time, in omega_c t units
_HORIZON_TAU = 1e6


class CriticTimeResult(namedtuple("CriticTimeResult", "tc")):
    """Crossing time of the correlation branches.

    tc is the time itself, math.inf when the equatorial spread only reaches
    the pole spread asymptotically, or None when the pole branch already
    dominates at t = 0 and there is nothing to cross.
    """

    __slots__ = ()

    @property
    def is_infinite(self) -> bool:
        return self.tc == math.inf

    @property
    def never_crosses(self) -> bool:
        return self.tc is None


def critic_time(
    params: XStateParams,
    qubits: QubitPairConfig,
    res: ReservoirConfig,
    large_detuning_limit: bool = False,
) -> CriticTimeResult:
    """Solve (|mu(t)| + |nu(t)|)/2 = |c3| by bracketing and bisection.

    The left side decreases monotonically from max(|c1|, |c2|), so the
    solution structure is decided up front: no crossing when |c3| exceeds
    the initial value, t = 0 on a tie, infinite when the left side never
    descends to |c3| (identical qubits keep the inner coherence alive), and
    a unique finite root otherwise, searched for up to omega_c t = 1e6.
    """
    t_max = _HORIZON_TAU / res.omega_c
    pole = abs(params.c3)
    k_outer = abs(params.c1 - params.c2)
    k_inner = abs(params.c1 + params.c2)
    start = 0.5 * (k_outer + k_inner)
    if pole > start:
        return CriticTimeResult(tc=None)
    if pole == start:
        return CriticTimeResult(tc=0.0)
    if qubits.identical and not large_detuning_limit:
        floor = 0.5 * k_inner
    else:
        floor = 0.0
    if pole <= floor:
        return CriticTimeResult(tc=math.inf)

    def gap(t):
        if t == math.inf:
            raise RootFindError(
                f"the bracket reached t = inf: at omega_c={res.omega_c!r} the "
                "bare time passes the float range"
            )
        f = decay_factors(t, qubits, res, large_detuning_limit)
        return 0.5 * (k_outer * f.gamma1 + k_inner * f.gamma2) - pole

    # double the bracket from 1/w_c, never past t_max
    lo, hi = 0.0, min(1.0 / res.omega_c, t_max)
    excess = gap(hi)
    while excess > 0.0:
        if hi >= t_max:
            raise RootFindError(
                f"no sign change up to t_max={t_max:.3e}; value "
                f"{excess + pole:.6e} at t={hi:.3e} still above |c3|={pole:.6e}"
            )
        lo, hi = hi, min(2.0 * hi, t_max)
        excess = gap(hi)
    while hi - lo > _BISECT_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # subnormal ends hold too few floats between them for the tolerance
            raise RootFindError(
                f"the bracket [{lo!r}, {hi!r}] holds no float between its ends: at "
                f"omega_c={res.omega_c!r} the bare time falls below the float range"
            )
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return CriticTimeResult(tc=0.5 * (lo + hi))


def critic_time_closed_form_identical(
    c1: float, c3: float, eta: float, omega: float, omega_c: float
) -> float:
    """Closed-form critic time for identical qubits at T = 0 with c2 = 0:

        t_c = (1/w_c) sqrt[ (2 c3/c1 - 1)^(-1/(2 eta w^2)) - 1 ],

    valid for 0 < c1/2 <= c3 <= c1 <= 2/3. The 2 c3 = c1 boundary gives an
    infinite critic time, the c3 = c1 boundary gives zero.
    """
    for name, v in (("eta", eta), ("omega", omega), ("omega_c", omega_c)):
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{name}={v!r} must be positive")
    if not (0.0 < c1 <= 2.0 / 3.0 and c1 / 2.0 <= c3 <= c1):
        raise DomainError(
            f"(c1, c3)=({c1!r}, {c3!r}) outside the validity window "
            "0 < c1/2 <= c3 <= c1 <= 2/3"
        )
    xi = 2.0 * c3 / c1 - 1.0
    if xi == 0.0:
        return math.inf
    return _crossing_time(xi, -1.0 / (2.0 * eta * omega**2), omega_c)


def critic_time_closed_form_detuned(
    c: float, eta: float, omega_a: float, omega_c: float
) -> float:
    """Closed-form critic time of the protected family c1 = 1, -c2 = c3 = c
    in the exact large-detuning limit (gamma2 = gamma1) at T = 0:

        t_c = (1/w_c) sqrt[ c^(-2/(eta w_a^2)) - 1 ].
    """
    for name, v in (("eta", eta), ("omega_a", omega_a), ("omega_c", omega_c)):
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{name}={v!r} must be positive")
    if not (0.0 < c < 1.0):
        raise DomainError(f"c={c!r} outside (0, 1)")
    return _crossing_time(c, -2.0 / (eta * omega_a**2), omega_c)


def _crossing_time(base: float, power: float, omega_c: float) -> float:
    """(1/w_c) sqrt(base^power - 1), or math.inf where base^power overflows a float."""
    try:
        return math.sqrt(base**power - 1.0) / omega_c
    except OverflowError:
        # w_c t_c is beyond the float range; inf is the IEEE overflow result
        return math.inf


def _check_family_parameter(c1):
    # c1 is a float or a NumPy array of them; its extremes decide
    for v in (c1,) if isinstance(c1, (float, int)) else (float(c1.min()), float(c1.max())):
        if not (0.0 < v <= 2.0 / 3.0):
            raise DomainError(
                f"c1={v!r} outside (0, 2/3]; the 2 c3 = c1 family is only a "
                "state there"
            )


def asymptotic_discord_identical(c1):
    """Late-time discord of the stable family (c2 = 0, 2 c3 = c1, r = 1):

        D(inf) = (2+c1)/8 log2(2+c1) - (2-c1)/4 log2(2-c1)
                 + (2-3c1)/8 log2(2-3c1).

    Equals 1/3 exactly at c1 = 2/3. Takes a float or an array of c1.
    """
    _check_family_parameter(c1)
    return (
        xlog2(2.0 + c1) - 2.0 * xlog2(2.0 - c1) + xlog2(2.0 - 3.0 * c1)
    ) / 8.0


def initial_discord_identical(c1):
    """Initial discord of the same family:

        D(0) = -1 + [ (2-c1) log2(2-c1) + (2+c1) log2(2+c1)
                      + (2+3c1) log2(2+3c1) + (2-3c1) log2(2-3c1) ]/8
                  - [ (1+c1) log2(1+c1) + (1-c1) log2(1-c1) ]/2.
    """
    _check_family_parameter(c1)
    quarters = (
        xlog2(2.0 - c1)
        + xlog2(2.0 + c1)
        + xlog2(2.0 + 3.0 * c1)
        + xlog2(2.0 - 3.0 * c1)
    ) / 8.0
    halves = (xlog2(1.0 + c1) + xlog2(1.0 - c1)) / 2.0
    return -1.0 + quarters - halves


class AmplificationReport(namedtuple("AmplificationReport", "c1 initial asymptotic rate")):
    """Initial discord, late-time discord, and their ratio rate for one c1."""

    __slots__ = ()


def amplification_rate(c1: float) -> AmplificationReport:
    """Amplification rate D(inf)/D(0) of the stable family."""
    d0 = initial_discord_identical(c1)
    dinf = asymptotic_discord_identical(c1)
    if d0 <= 0.0:
        # only reachable through underflow; the family has d0 > 0 on (0, 2/3]
        raise DomainError(f"initial discord underflowed at c1={c1!r}; rate undefined")
    return AmplificationReport(c1=c1, initial=d0, asymptotic=dinf, rate=dinf / d0)


class AmplificationScan(namedtuple(
        "AmplificationScan", "c1 initial asymptotic rate rate_max c1_at_max")):
    """Amplification rate over a c1 grid plus the refined maximum.

    c1, initial, asymptotic and rate are NumPy arrays over the grid;
    rate_max is the refined maximum, found at the float c1_at_max.
    """

    __slots__ = ()


def scan_amplification_rate(
    c1_min: float = 1e-4, c1_max: float = 2.0 / 3.0, step: float = 1e-4
) -> AmplificationScan:
    """Dense scan of D(inf)/D(0) with parabolic refinement of the peak.

    The closed forms cancel for small c1, where both discords are O(c1^2)
    differences of O(1) terms; a c1 whose D(0) rounds to zero or below, or
    whose D(inf) rounds below zero, has no rate and is refused.
    """
    import numpy as np

    if not (0.0 < c1_min < c1_max <= 2.0 / 3.0):
        raise DomainError(
            f"scan range ({c1_min!r}, {c1_max!r}) outside (0, 2/3]"
        )
    c = np.arange(c1_min, c1_max - step / 2.0, step)
    c = np.append(c, c1_max)
    dinf = asymptotic_discord_identical(c)
    d0 = initial_discord_identical(c)
    bad = (d0 <= 0.0) | (dinf < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"discord rounds to {float(d0[i])!r} initially and {float(dinf[i])!r} late "
            f"at c1={float(c[i])!r}; rate undefined"
        )
    rate = dinf / d0
    i = int(np.argmax(rate))
    best_c, best_rate = float(c[i]), float(rate[i])
    if 0 < i < len(c) - 1:
        num = rate[i + 1] - rate[i - 1]
        den = rate[i + 1] - 2.0 * rate[i] + rate[i - 1]
        if den < 0.0:
            vertex = float(c[i] - 0.5 * (c[i + 1] - c[i]) * num / den)
            if c[i - 1] < vertex < c[i + 1]:
                refined = amplification_rate(vertex)
                if refined.rate > best_rate:
                    best_c, best_rate = vertex, refined.rate
    return AmplificationScan(
        c1=c,
        initial=d0,
        asymptotic=dinf,
        rate=rate,
        rate_max=best_rate,
        c1_at_max=best_c,
    )


class AmplificationIndicator(namedtuple(
        "AmplificationIndicator",
        "f_value g_value h_value d_discord_d_gamma1 time_slope_sign regime")):
    """Pieces of the discord slope with respect to gamma1.

    f_value is the (always negative) branch from the classical correlation,
    g_value the (positive, for 0 <= c2 < c1 < 1) branch from the mutual
    information, h_value the slope of nu with respect to gamma1 (the two
    decay factors are powers of each other). Before the critic time
    d D/d gamma1 = F + G, after it only G survives. time_slope_sign is the
    sign of dD/dt, using that gamma1 strictly decreases in time (zero
    exactly at t = 0).
    """

    __slots__ = ()


def amplification_indicator(
    x: EvolvedXState,
    params: XStateParams,
    qubits: QubitPairConfig,
    res: ReservoirConfig,
    large_detuning_limit: bool = False,
    tc_regime: str = "unknown",
) -> AmplificationIndicator:
    """Analytic slope of the discord with respect to gamma1 at x.t."""
    factors = decay_factors(x.t, qubits, res, large_detuning_limit)
    gamma1 = factors.gamma1
    if gamma1 <= 0.0:
        raise DomainError(
            "gamma1 underflowed to zero; the slope is not defined this deep "
            "in the decay tail"
        )
    if large_detuning_limit:
        kappa = 1.0
    else:
        ratio = (qubits.r - 1.0) / (qubits.r + 1.0)
        kappa = ratio * ratio
    h = x.nu / gamma1 * kappa
    mu, nu, c3 = x.mu, x.nu, x.c3
    shrink = 2.0 - abs(mu) - abs(nu)
    grow = 2.0 + abs(mu) + abs(nu)
    args = (shrink, 1.0 + c3 - mu, 1.0 + c3 + mu, 1.0 - c3 - nu, 1.0 - c3 + nu)
    if min(args) <= 0.0:
        raise DomainError(
            "slope undefined: the evolved spectrum touches zero "
            f"(log arguments {args!r})"
        )
    f_value = 0.25 * (abs(params.c1 - params.c2) + abs(h)) * math.log2(shrink / grow)
    g_value = 0.25 * (params.c1 - params.c2) * math.log2(
        (1.0 + c3 + mu) / (1.0 + c3 - mu)
    ) + 0.25 * h * math.log2((1.0 - c3 + nu) / (1.0 - c3 - nu))
    _, regime = _measurement_branch(c3, mu, nu, tc_regime)
    slope = f_value + g_value if regime != REGIME_AFTER else g_value
    if x.t == 0.0:
        time_sign = 0
    else:
        time_sign = -1 if slope > 0.0 else (1 if slope < 0.0 else 0)
    return AmplificationIndicator(
        f_value=f_value,
        g_value=g_value,
        h_value=h,
        d_discord_d_gamma1=slope,
        time_slope_sign=time_sign,
        regime=regime,
    )


class ProtectedDiscord(namedtuple("ProtectedDiscord", "before_critic after_critic")):
    """Both branches of the protected-family discord (c1 = 1, -c2 = c3 = c)."""

    __slots__ = ()


def protected_discord(c: float, gamma1: float) -> ProtectedDiscord:
    """Discord of the protected family in the exact gamma2 = gamma1 limit.

    Before the critic time the discord is frozen at
    (1+c)/2 log2(1+c) + (1-c)/2 log2(1-c); after it the same functional is
    evaluated at gamma1 instead of c. The two branches meet at
    gamma1 = c, which defines the critic time.
    """
    if not (0.0 < c < 1.0):
        raise DomainError(f"c={c!r} outside (0, 1)")
    if not (0.0 <= gamma1 <= 1.0):
        raise DomainError(f"gamma1={gamma1!r} outside [0, 1]")
    return ProtectedDiscord(
        before_critic=classical_correlation_value(c),
        after_critic=classical_correlation_value(gamma1),
    )
