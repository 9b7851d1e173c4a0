"""Adaptive-quadrature referees for the closed-form bath kernels.

The package computes P(t) and Q(t) in closed form only. These routes
evaluate the defining integrals

    P(t) = int_0^inf dw (eta/w) e^{-w/w_c} sin(w t)
    Q(t) = 2 int_0^inf dw (eta/w) e^{-w/w_c} sin^2(w t/2) coth(w/(2T))

themselves with SciPy's QUADPACK, so the tests check each closed form
against a route that does not share its derivation. The T << w_c form
bath_dephasing_low_temperature is a third, approximate, referee.

discord_point_reference is the closed-form discord at one point, composed
call by call as the package did before its per-table kernel: the tests pin
that kernel to it bit for bit.

conditional_entropies_reference is the brute-force oracle's conditional
entropy as the package computed it before its Bloch-form kernel: each
basis ket is contracted with the full density by einsum, so the tests can
check the Bloch-vector route against a route that does not share it.
"""

from __future__ import annotations

import math

from xdiscord import (
    DomainError,
    ReservoirConfig,
    classical_correlation_value,
    dephasing_exponent,
    entropy_bits,
    xlog2,
)
from xdiscord.discord import _measurement_branch
from xdiscord.states import _x_spectrum


class QuadratureError(RuntimeError):
    """Numerical integration did not reach the requested tolerance."""


# requested per-piece quadrature tolerances; the compound results are
# checked against the looser acceptance bounds below before returning
_EPSABS = 1e-14
_EPSREL = 1e-11
_ACCEPT_ABS = 1e-11
_ACCEPT_REL = 1e-9

# number of leading half-oscillations integrated directly before switching
# to the weighted (QAWO) rule; the thermal 1/w^2 bulk lives in this region
_DIRECT_ZEROS = 20


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
    vacuum = dephasing_exponent(t, res._replace(temperature=0.0))
    if t == 0.0 or res.temperature == 0.0:
        return vacuum
    return vacuum + res.eta * _log_sinhc(math.pi * t * res.temperature)


def discord_point_reference(mu: float, nu: float, c3: float, tc_regime: str = "unknown"):
    """(I, C, D, chi, regime) at one (mu, nu, c3), one call per quantity.

    I = 2 - S(spectrum), the branch from _measurement_branch, C from
    classical_correlation_value, and D = I - C with a negative rounding
    residue clamped to 0.
    """
    info = 2.0 - entropy_bits(_x_spectrum(mu, nu, c3))
    chi, regime = _measurement_branch(c3, mu, nu, tc_regime)
    cc = classical_correlation_value(chi)
    d = info - cc
    return info, cc, 0.0 if d < 0.0 else d, chi, regime


def conditional_entropies_reference(r4, thetas, phis):
    """p_k S(rho_A^k) summed over both outcomes, for a flat list of bases.

    Returns (s_cond, p_par, s_par, p_perp, s_perp) where s_* are the
    normalized conditional entropies.
    """
    import numpy as np

    ct = np.cos(thetas)
    st = np.sin(thetas)
    eph = np.exp(1j * phis)
    u_par = np.stack([ct + 0j, eph * st], axis=-1)
    u_perp = np.stack([np.conj(eph) * st, -ct + 0j], axis=-1)

    out = []
    for u in (u_par, u_perp):
        block = np.einsum("nb,ibjc,nc->nij", u.conj(), r4, u)
        a = block[:, 0, 0].real
        d = block[:, 1, 1].real
        p = a + d
        half_gap = np.hypot(0.5 * (a - d), np.abs(block[:, 0, 1]))
        mid = 0.5 * (a + d)
        safe = np.maximum(p, 1e-300)
        z1 = (mid - half_gap) / safe
        z2 = (mid + half_gap) / safe
        ent = -(xlog2(z1) + xlog2(z2))
        ent = np.where(p > 1e-15, ent, 0.0)
        out.append((p, ent))
    (p_par, s_par), (p_perp, s_perp) = out
    s_cond = p_par * s_par + p_perp * s_perp
    return s_cond, p_par, s_par, p_perp, s_perp
