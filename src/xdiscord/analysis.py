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

from .discord import (
    REGIME_AFTER,
    _discord_columns,
    _dphi,
    _measurement_branch,
    classical_correlation_value,
)
from .errors import DomainError, RootFindError
from .evolution import EvolvedXState
from .reservoir import ReservoirConfig, _decay_rates, _exponent_kernel, decay_factors
from .states import QubitPairConfig, XStateParams

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
    a unique finite root otherwise. With the a1 and kappa of one _decay_rates
    call, gamma2 = gamma1^kappa, the crossing depends on the bath only
    through gamma1: it is solved for u = ln gamma1 (_crossing_log_gamma1),
    and Q(t_c) = -u/a1. At T = 0 that inverts in closed form, omega_c t_c =
    sqrt(expm1(2 Q/eta)), in _zero_temperature_crossing, which also decides
    the status and which critic-surface calls per cell; above, Q only grows,
    so t_c is one bracketed root of ln Q(t) below the T = 0 answer. A
    crossing past omega_c t = 1e6 raises RootFindError naming the T = 0
    answer, and so does a t_c that leaves the float range or an a1 too small for Q(t_c).
    """
    a1, _, kappa = _decay_rates(qubits, large_detuning_limit)
    q_star, tau = _zero_temperature_crossing(params.c1, params.c2, params.c3, a1, kappa, res.eta)
    if q_star is None:
        return CriticTimeResult(tc=None if math.isnan(tau) else tau)
    if q_star == math.inf:
        raise _refusal(f"gamma1's decay rate a1 = {a1!r} is too small for a float "
                       "Q(t_c) = -ln(gamma1)/a1", params, qubits, res)
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


def _zero_temperature_crossing(
    c1: float, c2: float, c3: float, a1: float, kappa: float, eta: float
) -> tuple:
    """(q_star, tau): the Q(t_c) of the crossing, and omega_c t_c in the T = 0 bath.

    a1 and kappa are those of _decay_rates. Where nothing is crossed q_star
    is None and tau is the status: nan when the pole spread already
    dominates at t = 0, 0.0 on a tie, inf when the equatorial spread never
    descends to |c3|; at kappa = 0 (identical qubits) the inner coherence
    survives, and the spread stops at |c1 + c2|/2. Otherwise
    tau = sqrt(expm1(2 q_star/eta)), which reads inf only past the float
    range, about 1.8e308.
    """
    pole = abs(c3)
    k_outer = abs(c1 - c2)
    k_inner = abs(c1 + c2)
    start = 0.5 * (k_outer + k_inner)
    if pole > start:
        return None, math.nan
    if pole == start:
        return None, 0.0
    if pole <= (0.5 * k_inner if kappa == 0.0 else 0.0):
        return None, math.inf
    u = _crossing_log_gamma1(k_outer, k_inner, pole, kappa)
    q_star = -u / a1 if a1 >= sys.float_info.min else math.inf  # critic_time refuses inf
    x = 2.0 * q_star / eta
    try:
        # from x = 709 on expm1(x) = e^x to double precision; e^(x/2) overflows only where tau does
        return q_star, math.sqrt(math.expm1(x)) if x < 709.0 else math.exp(0.5 * x)
    except OverflowError:
        return q_star, math.inf


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


def _family_discords(c1: float):
    """D(0) and D(inf) of the stable family c2 = 0, 2 c3 = c1 at r = 1.

    At t = 0 the state has (mu, nu) = (c1, c1); late, the outer coherence
    has died and the inner one survives intact, (mu, nu) = (0, c1), which
    ties the two spreads at c1/2 and so takes the pole branch. D(0) is O(c1^2):
    below c1 ~ 1e-154 it is subnormal or 0, too few digits for a rate, and refused.
    """
    d0, dinf = _discord_columns((c1, 0.0), (c1, c1), 0.5 * c1)[2]
    if d0 < sys.float_info.min:
        raise DomainError(f"initial discord {d0!r} underflowed at c1={c1!r}; rate undefined")
    return d0, dinf


class AmplificationReport(namedtuple("AmplificationReport", "c1 initial asymptotic rate")):
    """Initial discord, late-time discord, and their ratio rate for one c1."""

    __slots__ = ()


def amplification_rate(c1: float) -> AmplificationReport:
    """Amplification rate D(inf)/D(0) of the stable family (c2 = 0, 2 c3 = c1, r = 1)."""
    if not 0.0 < c1 <= 2.0 / 3.0:
        raise DomainError(
            f"c1={c1!r} outside (0, 2/3]; the 2 c3 = c1 family is only a state there"
        )
    d0, dinf = _family_discords(c1)
    return AmplificationReport(c1=c1, initial=d0, asymptotic=dinf, rate=dinf / d0)


class AmplificationScan(namedtuple(
        "AmplificationScan", "c1 initial asymptotic rate rate_max c1_at_max")):
    """Amplification rate over a c1 grid plus the refined maximum.

    c1, initial, asymptotic and rate are lists of floats over the grid, the
    discords D(0) and D(inf) of the stable family (c2 = 0, 2 c3 = c1,
    r = 1); rate_max is the refined maximum, found at the float c1_at_max.
    """

    __slots__ = ()


def _arange(x0: float, stop: float, step: float) -> list:
    """np.arange(x0, stop, step).tolist() in Python floats, bit for bit on the scan's inputs."""
    d = (x0 + step) - x0
    return [x0 + i * d for i in range(math.ceil((stop - x0) / step))]


def scan_amplification_rate(
    c1_min: float = 1e-4, c1_max: float = 2.0 / 3.0, step: float = 1e-4
) -> AmplificationScan:
    """Dense scan of D(inf)/D(0) with parabolic refinement of the peak.

    Each c1 takes the discord route of discord_analytic, which keeps both
    discords, O(c1^2) as c1 -> 0, to full relative accuracy; the rate then
    tends to 2. Only a c1 whose c1^2 underflows, so that D(0) rounds to
    zero, has no rate: the first one is refused.
    """
    if not (0.0 < c1_min < c1_max <= 2.0 / 3.0):
        raise DomainError(
            f"scan range ({c1_min!r}, {c1_max!r}) outside (0, 2/3]"
        )
    c = _arange(c1_min, c1_max - step / 2.0, step) + [c1_max]
    d0, dinf = (list(column) for column in zip(*map(_family_discords, c)))
    rate = [b / a for a, b in zip(d0, dinf)]
    i = rate.index(max(rate))
    best_c, best_rate = c[i], rate[i]
    if 0 < i < len(c) - 1:
        num = rate[i + 1] - rate[i - 1]
        den = rate[i + 1] - 2.0 * rate[i] + rate[i - 1]
        if den < 0.0:
            vertex = c[i] - 0.5 * (c[i + 1] - c[i]) * num / den
            if c[i - 1] < vertex < c[i + 1]:
                refined = amplification_rate(vertex)
                if refined.rate > best_rate:
                    best_c, best_rate = vertex, refined.rate
    return AmplificationScan(c1=c, initial=d0, asymptotic=dinf, rate=rate,
                             rate_max=best_rate, c1_at_max=best_c)


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
    """Analytic slope of the discord with respect to gamma1 at x.t.

    F = -(|c1 - c2| + |h|) phi'((|mu| + |nu|)/2)/4 and G = [(c1 - c2)
    phi'(mu/(1 + c3)) + h phi'(nu/(1 - c3))]/4, with phi'(x) = 2 atanh(x)/ln 2:
    no log of a ratio near 1, so both keep their digits for small correlations.
    h = nu kappa/gamma1 takes kappa from _decay_rates, exact near w_a = w_b too.
    """
    factors = decay_factors(x.t, qubits, res, large_detuning_limit)
    gamma1 = factors.gamma1
    if gamma1 <= 0.0:
        raise DomainError(
            "gamma1 underflowed to zero; the slope is not defined this deep "
            "in the decay tail"
        )
    h = x.nu / gamma1 * _decay_rates(qubits, large_detuning_limit)[2]
    mu, nu, c3 = x.mu, x.nu, x.c3
    equator = 0.5 * (abs(mu) + abs(nu))
    # each > 0 puts the phi' argument it guards strictly inside (-1, 1), rounding included
    args = (1.0 - equator, 1.0 + c3 - mu, 1.0 + c3 + mu, 1.0 - c3 - nu, 1.0 - c3 + nu)
    if min(args) <= 0.0:
        raise DomainError(
            "slope undefined: the evolved spectrum touches zero "
            f"(log arguments {args!r})"
        )
    f_value = -0.25 * (abs(params.c1 - params.c2) + abs(h)) * _dphi(equator)
    g_value = (0.25 * (params.c1 - params.c2) * _dphi(mu / (1.0 + c3))
               + 0.25 * h * _dphi(nu / (1.0 - c3)))
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
