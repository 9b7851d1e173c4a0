"""Critic times, discord amplification, and discord protection.

The classical-correlation branch switches when the equatorial spread
(|mu(t)| + |nu(t)|)/2 decays down to the pole spread |c3|; the crossing
time is the critic time. Everything in this module reduces to properties
of that crossing and of the decay factor gamma1.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .discord import REGIME_AFTER, _measurement_branch, classical_correlation_value
from .errors import DomainError, RootFindError
from .evolution import EvolvedXState
from .reservoir import ReservoirConfig, _decay_rates, _exponent_kernel, decay_factors
from .states import QubitPairConfig, XStateParams, xlog2

# the search horizon for the critic time, in omega_c t units
_HORIZON_TAU = 1e6
# a cap on the Newton and the Illinois steps; both stop within about 20
_MAX_STEPS = 64


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
    """Solve (|mu(t)| + |nu(t)|)/2 = |c3| in decay-factor space.

    The left side decreases monotonically from max(|c1|, |c2|), so the
    solution structure is decided up front: no crossing when |c3| exceeds
    the initial value, t = 0 on a tie, infinite when the left side never
    descends to |c3| (identical qubits keep the inner coherence alive), and
    a unique finite root otherwise. With gamma2 = gamma1^kappa the crossing
    depends on the bath only through gamma1, so it is solved for
    u = ln gamma1 (_crossing_log_gamma1), and then Q(t_c) = -u/a1. At T = 0
    that inverts in closed form, omega_c t_c = sqrt(expm1(2 Q/eta)); above,
    Q only grows, so t_c is one bracketed root of ln Q(t) below the T = 0
    answer. A crossing past omega_c t = 1e6, or a t_c that leaves the
    float range, raises RootFindError.
    """
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
    a1, a2 = _decay_rates(qubits, large_detuning_limit)
    q_star = -_crossing_log_gamma1(k_outer, k_inner, pole, a2 / a1) / a1
    x = 2.0 * q_star / res.eta
    # expm1 overflows past x = 709.78, far beyond the horizon
    tau = math.sqrt(math.expm1(x)) if x < 700.0 else math.inf
    hi = min(tau, _HORIZON_TAU) / res.omega_c
    if hi == math.inf:
        raise _refusal(f"the bare time passes the float range at omega_c={res.omega_c!r}",
                       params, qubits, res)
    if res.temperature == 0.0:
        if tau > _HORIZON_TAU:
            raise _refusal(_past_horizon(q_star, tau), params, qubits, res)
        tc = hi
    else:
        q = _exponent_kernel(res)
        q_hi = q(hi)
        if q_hi < q_star and tau > _HORIZON_TAU:
            raise _refusal(f"{_past_horizon(q_star, tau)}, and Q({hi!r}) = {q_hi:.6e}",
                           params, qubits, res)
        if q_hi <= q_star:
            # at the T = 0 answer the thermal part of Q is below its rounding
            tc = hi
        else:
            # Q(t) <= eta omega_c t^2 (omega_c/2 + T), as ln(1 + v) <= v and coth v <= 1 + 1/v
            lo = math.sqrt(q_star / (res.eta * res.omega_c * (0.5 * res.omega_c + res.temperature)))
            q_lo = q(lo)
            if not (q_lo > 0.0 and q_hi < math.inf):
                raise _refusal(f"Q(t) leaves the float range on [{lo!r}, {hi!r}]: Q = "
                               f"{q_lo!r} and {q_hi!r} at the ends", params, qubits, res)
            tc = _root_of_log_q(q, q_star, lo, hi, q_lo, q_hi)
    if tc < sys.float_info.min:
        raise _refusal(f"t_c = {tc!r} falls below the float range: at omega_c="
                       f"{res.omega_c!r} the bare time underflows", params, qubits, res)
    return CriticTimeResult(tc=tc)


def _past_horizon(q_star: float, tau: float) -> str:
    return (f"no crossing up to omega_c t = {_HORIZON_TAU:.0e}: t_c needs Q = {q_star:.6e}, "
            f"which the T = 0 bath reaches at omega_c t = {tau:.3e}")


def _refusal(why: str, params, qubits, res) -> RootFindError:
    return RootFindError(
        f"{why}; (c1, c2, c3)=({params.c1!r}, {params.c2!r}, {params.c3!r}), "
        f"(omega_a, omega_b)=({qubits.omega_a!r}, {qubits.omega_b!r}), "
        f"(eta, omega_c, T)=({res.eta!r}, {res.omega_c!r}, {res.temperature!r})"
    )


def _crossing_log_gamma1(k_outer: float, k_inner: float, pole: float, kappa: float) -> float:
    """The u = ln gamma1 < 0 at which (k_outer e^u + k_inner e^(kappa u))/2 = pole.

    Closed form for kappa = 0 (identical qubits) and kappa = 1 (large
    detuning); otherwise Newton's method on
    G(u) = ln(k_outer e^u + k_inner e^(kappa u)) - ln(2 pole), which is
    increasing and convex, so the steps fall monotonically onto the root
    from any start with G >= 0. G is a log-sum-exp and never forms e^u,
    which underflows for small kappa. -inf where no finite u crosses.
    """
    two_pole = 2.0 * pole
    if kappa == 0.0 or k_inner == 0.0:
        # the inner term is the constant k_inner (gamma1^0 = 1), or absent
        excess = two_pole - k_inner
        return math.log(excess / k_outer) if excess > 0.0 else -math.inf
    if kappa == 1.0:
        return math.log(two_pole / (k_outer + k_inner))
    log_inner = math.log(k_inner)
    if k_outer == 0.0:
        return (math.log(two_pole) - log_inner) / kappa
    log_outer, log_target = math.log(k_outer), math.log(two_pole)
    # each term alone reaches 2 pole no later than both together
    u = min(0.0, log_target - log_outer, (log_target - log_inner) / kappa)
    for _ in range(_MAX_STEPS):
        a, b = log_outer + u, log_inner + kappa * u
        top = max(a, b)
        ea, eb = math.exp(a - top), math.exp(b - top)
        total = ea + eb
        nxt = u - (top + math.log(total) - log_target) * total / (ea + kappa * eb)
        if not nxt < u:
            break
        u = nxt
    return u


def _root_of_log_q(q, q_star: float, lo: float, hi: float, q_lo: float, q_hi: float) -> float:
    """The t in (lo, hi) with q(t) = q_star, where q_lo = q(lo) <= q_star < q_hi = q(hi).

    Illinois steps on f(s) = ln q(hi e^s) - ln q_star over s = ln(t/hi) <= 0.
    Q grows like t^2 at small t and like t at large T t, so f is close to
    linear in s and the secant steps converge superlinearly. The steps end
    when the bracket is 1e-15 wide in s or a step rounds onto its ends; the
    evaluated point with the smallest |f| is the root.
    """
    log_target = math.log(q_star)
    a, b = math.log(lo / hi), 0.0
    fa = math.log(q_lo) - log_target
    fb = math.log(q_hi) - log_target
    best, best_f = (a, abs(fa)) if abs(fa) < abs(fb) else (b, abs(fb))
    side = 0
    for _ in range(_MAX_STEPS):
        s = b - fb * (b - a) / (fb - fa)
        if not a < s < b or b - a <= 1e-15 * max(1.0, -a):
            break
        fs = math.log(q(hi * math.exp(s))) - log_target
        if abs(fs) < best_f:
            best, best_f = s, abs(fs)
        if fs > 0.0:
            b, fb = s, fs
            if side == 1:
                fa *= 0.5
            side = 1
        elif fs < 0.0:
            a, fa = s, fs
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            break
    return hi * math.exp(best)


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
