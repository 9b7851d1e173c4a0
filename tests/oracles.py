"""Adaptive-quadrature referees for the closed-form bath kernels.

The package computes P(t) and Q(t) in closed form only. These routes
evaluate the defining integrals

    P(t) = int_0^inf dw (eta/w) e^{-w/w_c} sin(w t)
    Q(t) = 2 int_0^inf dw (eta/w) e^{-w/w_c} sin^2(w t/2) coth(w/(2T))

themselves with SciPy's QUADPACK, so the tests check each closed form
against a route that does not share its derivation. The T << w_c form
bath_dephasing_low_temperature is a third, approximate, referee.

dephasing_exponent_reference is the closed-form Q(t) as the package
evaluated it before its per-reservoir kernel, the ladder and Stirling
products recomputed at every call: the tests pin that kernel to it bit for
bit.

discord_point_reference is the closed-form discord at one point, composed
call by call from phi as the package did before its per-table kernel: the
tests pin that kernel to it bit for bit. Its branch comes from
branch_reference, a branch rule of its own, so the kernel's rule, the only
one in the package, is checked against one that does not share its code.
discord_entropy_reference is the composition before phi, I = 2 -
S(spectrum) less C = 1 - h2, which the tests hold the kernel to within its
rounding, 1e-15 absolute.

discord_reference is I, C and D of an X state to 60 digits with mpmath,
from the spectrum and the binary entropy, and family_rate_reference the
amplification rate of the stable family from it; slope_reference is the
F, G and h of amplification_indicator to 60 digits. The closed forms D(0)
and D(inf) of that family (initial_discord_identical,
asymptotic_discord_identical) and the critic times
critic_time_closed_form_identical (identical qubits, c2 = 0) and
critic_time_closed_form_detuned (the exact large-detuning limit) are kept
here as referees too: the package computes each of them by its general
route.

conditional_entropies_reference is the brute-force oracle's conditional
entropy as the package computed it before its Bloch-form kernel: each
basis ket is contracted with the full density by einsum, so the tests can
check the Bloch-vector route against a route that does not share it.
bloch_gain_reference is the oracle's objective Phi over a dense grid in
NumPy, to rank its bases. general_discord_reference is I, C and D of any
two-qubit density at 50 digits, the conditional entropy from the
measurement projectors and its minimum by mpmath Newton steps from the
oracle's optimum: the referee of the oracle off the X family.

critic_time_reference is omega_c t_c to 40 digits: mpmath's findroot of
the crossing condition (|mu| + |nu|)/2 = |c3|, with Q(t) from mpmath's
complex log-Gamma, so it shares neither the package's thermal series nor
its solver.

measurement_spread_reference is the spread of the conditional state of
qubit A at any basis of qubit B, in the closed L^2 form of an X state, the
referee for the Bloch-form oracle's spread away from its optimum.
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
from xdiscord.discord import _phi
from xdiscord.reservoir import _STIRLING, _STIRLING_MIN_W, _log1p_square
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


def _thermal_exponent(w: float, y: float, eta: float) -> float:
    """eta ln |G(w)/G(w + i y)|^2 = 2 eta [ln G(w) - Re ln G(w + i y)] for w >= 1, 0 <= y < inf.

    Each term vanishes with y on its own, so no two large values cancel.
    Where y/w is below 2^-511 after the ladder, every square would be
    subnormal, and the term is eta y^2 psi'(w), psi' the trigamma function.
    """
    total = rungs = 0.0
    while w < _STIRLING_MIN_W:
        total += _log1p_square(y / w)
        rungs += 1.0 / (w * w)
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
    # w psi'(w) = 1 + 1/(2 w) + sum_k B_2k w^(-2k), B_2k = 2k (2k - 1) c_k
    slope = 1.0 + 0.5 / w
    for m, c in zip(range(1, 2 * len(_STIRLING), 2), _STIRLING):
        r_minus_1 = math.expm1(-m * log_mod)
        h = math.sin(0.5 * m * theta)
        inner += c * w_pow * (r_minus_1 - 2.0 * h * h * (r_minus_1 + 1.0))
        slope += m * (m + 1) * c * w_pow / w
        w_pow *= inv_w2
    if s < 2.0**-511:
        g = s * slope + y * rungs
        return eta * y * g if eta * y < math.inf else eta * g * y
    return eta * (total - 2.0 * inner)


def dephasing_exponent_reference(t: float, res: ReservoirConfig) -> float:
    """Q(t) with the thermal loop run from scratch at every call."""
    if t < 0.0:
        raise DomainError(f"t={t!r} must be nonnegative")
    u = res.omega_c * t
    if u < 2.0**-511:
        # u^2 would be subnormal
        vacuum = 0.5 * res.eta * u * u
    else:
        try:
            vacuum = 0.5 * res.eta * math.log1p(u ** 2)
        except OverflowError:
            # (w_c t)^2 > 1.8e308, where log1p(u^2) = 2 ln u to double precision
            vacuum = res.eta * math.log(u)
    temperature = res.temperature
    if temperature == 0.0:
        return vacuum
    y = temperature * t
    if y == math.inf:
        # the thermal series would read inf - inf
        return math.inf
    return vacuum + _thermal_exponent(1.0 + temperature / res.omega_c, y, res.eta)


def branch_reference(mu: float, nu: float, c3: float, tc_regime: str = "unknown"):
    """(chi, regime) of the measurement branch, written apart from the package's kernel.

    "before" takes the equatorial spread (|mu| + |nu|)/2 and "after" the pole
    spread |c3|; "unknown" takes the larger, the pole on a tie. Its label says
    no-critic where c3 is 0, else the side of the critic time the branch is on.
    """
    equator, pole = (abs(mu) + abs(nu)) / 2.0, abs(c3)
    on_equator = {"before": True, "after": False, "unknown": equator > pole}[tc_regime]
    if tc_regime == "unknown" and c3 == 0.0:
        regime = "no-critic"
    else:
        regime = "before-critic" if on_equator else "after-critic"
    return (equator if on_equator else pole), regime


def discord_point_reference(mu: float, nu: float, c3: float, tc_regime: str = "unknown"):
    """(I, C, D, chi, regime) at one (mu, nu, c3), one call per quantity.

    T = [(1 + c3) phi(mu/(1 + c3)) + (1 - c3) phi(nu/(1 - c3))]/4, I =
    phi(c3)/2 + T, the branch from branch_reference, C from
    classical_correlation_value, and D = T + [phi(c3)/2 - C] with a
    negative rounding residue clamped to 0.
    """
    excess = (_phi(mu, 1.0 + c3) + _phi(nu, 1.0 - c3)) / 4.0
    half_c3 = 0.5 * _phi(c3)
    chi, regime = branch_reference(mu, nu, c3, tc_regime)
    cc = classical_correlation_value(chi)
    d = excess + (half_c3 - cc)
    return half_c3 + excess, cc, 0.0 if d < 0.0 else d, chi, regime


def discord_entropy_reference(mu: float, nu: float, c3: float, tc_regime: str = "unknown"):
    """(I, C, D) at one (mu, nu, c3) as 2 - S(spectrum) and 1 - h2((1 + chi)/2).

    The composition the package used before phi: I and C each carry an
    absolute rounding error of a few ulp of 1, so D = I - C does too, which
    is no relative accuracy at all for a small discord.
    """
    info = 2.0 - entropy_bits(_x_spectrum(mu, nu, c3))
    chi, _ = branch_reference(mu, nu, c3, tc_regime)
    cc = 0.5 * (xlog2(1.0 + chi) + xlog2(1.0 - chi))
    d = info - cc
    return info, cc, 0.0 if d < 0.0 else d


def discord_reference(mu: float, nu: float, c3: float):
    """(I, C, D) of the X state (mu, nu, c3) to 60 digits, as mpmath floats.

    Every input float is taken exactly. I = 2 + sum_k w_k log2 w_k over the
    spectrum w = (1 + c3 -/+ mu)/4, (1 - c3 -/+ nu)/4, C = 1 - h2((1 + chi)/2)
    at the larger spread chi = max((|mu| + |nu|)/2, |c3|), and D = I - C. D
    is a difference of O(1) terms that can be as small as the square of the
    smallest nonzero parameter, so the working precision grows by twice
    that parameter's decimal exponent; a D within 1e-10 of that precision
    is 0.
    """
    import mpmath

    smallest = min((abs(v) for v in (mu, nu, c3) if v), default=1.0)
    mp = mpmath.mp.clone()
    mp.dps = 70 + 2 * max(0, -math.floor(math.log10(smallest)))
    f = mp.mpf
    mu, nu, c3 = f(mu), f(nu), f(c3)

    def xlog(w):
        return w * mp.log(w, 2) if w > 0 else f(0)

    info = 2 + sum(xlog(w) for w in ((1 + c3 - mu) / 4, (1 + c3 + mu) / 4,
                                     (1 - c3 - nu) / 4, (1 - c3 + nu) / 4))
    chi = max((abs(mu) + abs(nu)) / 2, abs(c3))
    cc = 1 + xlog((1 + chi) / 2) + xlog((1 - chi) / 2)
    d = info - cc
    # a D this far below the working precision is that precision's rounding of 0
    return info, cc, d if abs(d) > mp.mpf(10) ** (10 - mp.dps) else f(0)


def family_rate_reference(c1: float):
    """D(inf)/D(0) of the stable family c2 = 0, 2 c3 = c1 at r = 1, from discord_reference.

    At t = 0 the state is (mu, nu, c3) = (c1, c1, c1/2); late, the outer
    coherence has died and the inner one survives, (0, c1, c1/2).
    """
    return discord_reference(0.0, c1, c1 / 2)[2] / discord_reference(c1, c1, c1 / 2)[2]


def slope_reference(x, params, qubits, gamma1: float):
    """(F, G, h) of amplification_indicator at x to 60 digits, as mpmath floats.

    Every input float is taken exactly, with h = nu kappa/gamma1 and
    kappa = ((w_a - w_b)/(w_a + w_b))^2 from the qubit pair's own
    frequencies, not from their rounded ratio; F = (|c1 - c2| + |h|)
    log2((1 - e)/(1 + e))/4 at e = (|mu| + |nu|)/2 and G = [(c1 - c2)
    log2((1 + c3 + mu)/(1 + c3 - mu)) + h log2((1 - c3 + nu)/(1 - c3 - nu))]/4,
    each log of a ratio as written: at 60 digits its nearness to 1 costs no
    digit that matters.
    """
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 60
    f = mp.mpf
    mu, nu, c3 = f(x.mu), f(x.nu), f(x.c3)
    w_a, w_b = f(qubits.omega_a), f(qubits.omega_b)
    h = nu * ((w_a - w_b) / (w_a + w_b)) ** 2 / f(gamma1)
    k = f(params.c1) - f(params.c2)
    e = (abs(mu) + abs(nu)) / 2
    big_f = (abs(k) + abs(h)) * mp.log((1 - e) / (1 + e), 2) / 4
    big_g = (k * mp.log((1 + c3 + mu) / (1 + c3 - mu), 2)
             + h * mp.log((1 - c3 + nu) / (1 - c3 - nu), 2)) / 4
    return big_f, big_g, h


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
        ent = -(_xlog2_array(z1) + _xlog2_array(z2))
        ent = np.where(p > 1e-15, ent, 0.0)
        out.append((p, ent))
    (p_par, s_par), (p_perp, s_perp) = out
    s_cond = p_par * s_par + p_perp * s_perp
    return s_cond, p_par, s_par, p_perp, s_perp


def bloch_gain_reference(table, n):
    """The oracle's Phi = sum over both outcomes of p phi(2 h/p) at Bloch directions n.

    table is the oracle's 4 x 4 Bloch table; n is a 3 x N NumPy array of
    unit vectors. phi(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x) is
    taken as written, which is enough to rank the bases of a dense grid.
    """
    import numpy as np

    t = np.array(table)
    base, along = t[:, :1], t[:, 1:] @ n
    total = 0.0
    for a, d, re, im in (base + along, base - along):
        p = a + d
        x = np.sqrt((a - d) ** 2 + 4.0 * (re * re + im * im)) / np.maximum(p, 1e-300)
        x = np.minimum(x, 1.0)
        total = total + p * ((1.0 + x) * np.log2(1.0 + x) + _xlog2_array(1.0 - x))
    return total


def _xlog2_array(x):
    import numpy as np

    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def entropy_rounding(weights) -> float:
    """How far a sum of +/- w log2 w moves when each weight w is off by 2^-52.

    That is sum_w 2^-52 |log2 w + 1/ln 2|, with w floored at 2^-52, where
    the slope of w log2 w grows without bound: the rounding a float route
    that takes D from spectra cannot beat, computed in mpmath.
    """
    import mpmath

    eps = mpmath.mpf(2) ** -52
    return float(sum(eps * abs(mpmath.log(max(w, eps), 2) + 1 / mpmath.log(2))
                     for w in weights))


def general_discord_reference(entries, n0):
    """(I, C, D, weights) of a 4x4 density to about 40 digits.

    Every entry is taken exactly. S_A, S_B and S_AB come from mpmath's
    hermitian eigensolver; the conditional entropy S_cond(n) of a
    measurement of B along the unit Bloch vector n from the projectors
    (1 +/- n.sigma)/2, contracted with the full matrix. Its minimum is
    found by Newton steps at 50 digits from n0, the oracle's optimum, on a
    3 x 3 stencil of spacing 1e-20 in the plane tangent at n0. D = S_B -
    S_AB + S_cond is a difference of O(1) entropies: weights are the
    eigenvalues and outcome probabilities they are taken from, for
    entropy_rounding.
    """
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    m = [[mp.mpc(complex(v)) for v in row] for row in entries]

    def entropy(weights):
        return -sum(w * mp.log(w, 2) for w in weights if w > 0)

    def spectrum2(b):
        mid = (b[0][0].real + b[1][1].real) / 2
        h = mp.sqrt(((b[0][0].real - b[1][1].real) / 2) ** 2 + abs(b[0][1]) ** 2)
        return mid - h, mid + h

    spectrum = list(mp.eigh(mp.matrix(m), eigvals_only=True))
    marginal_b = spectrum2([[m[i][j] + m[2 + i][2 + j] for j in (0, 1)] for i in (0, 1)])
    s_ab, s_b = entropy(spectrum), entropy(marginal_b)
    s_a = entropy(spectrum2([[m[2 * i][2 * j] + m[2 * i + 1][2 * j + 1] for j in (0, 1)]
                             for i in (0, 1)]))

    def s_cond(n, weights=None):
        nx, ny, nz = n
        total = mp.mpf(0)
        for sign in (1, -1):
            proj = [[(1 + sign * nz) / 2, sign * mp.mpc(nx, -ny) / 2],
                    [sign * mp.mpc(nx, ny) / 2, (1 - sign * nz) / 2]]
            block = [[sum(m[2 * i + b][2 * j + c] * proj[c][b] for b in (0, 1) for c in (0, 1))
                      for j in (0, 1)] for i in (0, 1)]
            p = block[0][0].real + block[1][1].real
            total += entropy(spectrum2(block)) + (p * mp.log(p, 2) if p > 0 else 0)
            if weights is not None:
                weights += [*spectrum2(block), p]
        return total

    def unit(v):
        norm = mp.sqrt(sum(c * c for c in v))
        return [c / norm for c in v]

    n = unit([mp.mpf(c) for c in n0])
    best = s_cond(n)
    h = mp.mpf(10) ** -20
    for _ in range(6):
        axis = [0, 0, 1] if abs(n[2]) < 0.9 else [1, 0, 0]
        u = unit([axis[1] * n[2] - axis[2] * n[1], axis[2] * n[0] - axis[0] * n[2],
                  axis[0] * n[1] - axis[1] * n[0]])
        v = [n[1] * u[2] - n[2] * u[1], n[2] * u[0] - n[0] * u[2], n[0] * u[1] - n[1] * u[0]]

        def f(a, b):
            return s_cond(unit([n[k] + a * u[k] + b * v[k] for k in range(3)]))

        ga, gb = (f(h, 0) - f(-h, 0)) / (2 * h), (f(0, h) - f(0, -h)) / (2 * h)
        haa = (f(h, 0) - 2 * best + f(-h, 0)) / h**2
        hbb = (f(0, h) - 2 * best + f(0, -h)) / h**2
        hab = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h**2)
        det = haa * hbb - hab * hab
        if not (haa > 0 and det > 0):
            break  # flat to 50 digits: every direction is optimal
        wa, wb = (hab * gb - hbb * ga) / det, (hab * ga - haa * gb) / det
        moved = unit([n[k] + wa * u[k] + wb * v[k] for k in range(3)])
        value = s_cond(moved)
        if not value < best:
            break
        n, best = moved, value
    info = s_a + s_b - s_ab
    cc = s_a - best
    weights = spectrum + list(marginal_b)
    s_cond(n, weights)
    return info, cc, info - cc, weights


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
    try:
        return math.sqrt(xi ** (-1.0 / (2.0 * eta * omega**2)) - 1.0) / omega_c
    except OverflowError:
        # w_c t_c is beyond the float range; inf is the IEEE overflow result
        return math.inf


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


def measurement_spread_reference(theta: float, phi: float, x) -> float:
    """Eigenvalue splitting L of the conditional A state at the basis (theta, phi).

    The measured pair is cos(theta)|0> + e^{i phi} sin(theta)|1> and its
    orthogonal partner. For an X state with maximally mixed marginals both
    outcomes leave A with eigenvalues (1 +/- L)/2, where

        L^2 = c3^2 cos^2(2 theta)
              + [mu^2 + nu^2 + 2 mu nu cos(delta2 - delta1 + 2 phi)]
                * sin^2(2 theta) / 4.
    """
    cos2t = math.cos(2.0 * theta)
    sin2t = math.sin(2.0 * theta)
    cross = math.cos(x.delta2 - x.delta1 + 2.0 * phi)
    val = (x.c3 * cos2t) ** 2 + 0.25 * (
        x.mu**2 + x.nu**2 + 2.0 * x.mu * x.nu * cross
    ) * sin2t**2
    return math.sqrt(max(val, 0.0))


def critic_time_reference(params, qubits, res, large_detuning_limit: bool, guess: float):
    """omega_c t_c solving the crossing condition at 40 digits, searched from guess.

    Every input float is taken exactly; the root is bracketed between
    guess/2 and 2 guess, so a guess off by more than that fails loudly.
    The thermal part ln Gamma(w) - Re ln Gamma(w + i y), w = 1 + T/omega_c,
    cancels about log10(w) digits, so those are added to the 50. The root is
    found at that precision and again 20 digits finer, and two roots that
    differ by more than 1e-20 relative raise ArithmeticError naming the inputs.
    """
    digits = math.log10(res.temperature) - math.log10(res.omega_c) if res.temperature else 0.0
    dps = 50 + max(0, math.ceil(digits))
    coarse, fine = (_critic_time_root(params, qubits, res, large_detuning_limit, guess, p)
                    for p in (dps, dps + 20))
    if not abs(coarse - fine) <= 1e-20 * fine:
        raise ArithmeticError(
            f"critic-time referee: roots at {dps} and {dps + 20} digits differ by "
            f"{float(abs(coarse - fine) / fine):.3e} relative; (c1, c2, c3)={tuple(params)!r}, "
            f"qubits={tuple(qubits)!r}, res={tuple(res)!r}, "
            f"large_detuning_limit={large_detuning_limit!r}, guess={guess!r}")
    return fine


def _critic_time_root(params, qubits, res, large_detuning_limit: bool, guess: float, dps: int):
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    f = mp.mpf
    c1, c2, c3 = (f(v) for v in params)
    wa, wb = f(qubits.omega_a), f(qubits.omega_b)
    a1, a2 = (wa * wa, wa * wa) if large_detuning_limit else ((wa + wb) ** 2, (wa - wb) ** 2)
    eta, omega_c, temperature = (f(v) for v in res)
    w = 1 + temperature / omega_c
    log_gamma_w = mp.loggamma(w)

    def log_gap(tau):
        q = eta * mp.log1p(tau * tau) / 2
        if temperature:
            y = temperature * tau / omega_c
            q += 2 * eta * (log_gamma_w - mp.re(mp.loggamma(mp.mpc(w, y))))
        spread = (abs(c1 - c2) * mp.exp(-a1 * q) + abs(c1 + c2) * mp.exp(-a2 * q)) / 2
        return mp.log(spread) - mp.log(abs(c3))

    # over s = ln(omega_c t) the gap is smooth and far from flat; taken as the log of
    # spread/|c3|, so that findroot's absolute tolerances hold at any scale of |c3|
    s = mp.findroot(lambda s: log_gap(mp.exp(s)), (mp.log(f(guess) / 2), mp.log(2 * f(guess))),
                    solver="illinois", tol=mp.mpf(10) ** -80)
    return mp.exp(s)
