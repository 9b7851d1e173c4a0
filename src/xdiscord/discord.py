"""Quantum discord of evolved X states.

Two independent routes are provided. The analytic route uses the known
optimal-measurement structure of X states with maximally mixed marginals:
the conditional-entropy minimum over one-qubit projective measurements on
qubit B is attained either at the equatorial angle (spread (|mu|+|nu|)/2)
or at the pole (spread |c3|), whichever is larger. The brute-force route
minimizes over an explicit (theta, phi) measurement grid with local
refinement and serves as the oracle for the analytic one.

All information quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidStateError
from .evolution import EvolvedXState
from .states import (
    EIGENVALUE_FLOOR,
    TwoQubitDensity,
    _reject,
    _where,
    _x_spectrum,
    entropy_bits,
    partial_trace,
    von_neumann_entropy,
    xlog2,
)

REGIME_BEFORE = "before-critic"
REGIME_AFTER = "after-critic"
REGIME_NONE = "no-critic"

# population asymmetry below this is treated as exactly zero when labeling
# the regime; the pole branch can then never take over
_REGIME_ZERO = 1e-14

_MIN_GRID = (64, 128)
_REFINE_ROUNDS = 3
_REFINE_POINTS = 21
_REFINE_SHRINK = 10.0
_CONVERGENCE_TOL = 1e-6
_X_PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement direction on qubit B.

    The measured pair is |par> = cos(theta)|0> + e^{i phi} sin(theta)|1>
    and |perp> = e^{-i phi} sin(theta)|0> - cos(theta)|1>. theta covers
    [0, pi/2] and phi [0, 2 pi); that range already reaches every basis.
    """

    theta: float
    phi: float

    def parallel_ket(self) -> np.ndarray:
        return np.array(
            [math.cos(self.theta), np.exp(1j * self.phi) * math.sin(self.theta)],
            dtype=complex,
        )

    def perpendicular_ket(self) -> np.ndarray:
        return np.array(
            [np.exp(-1j * self.phi) * math.sin(self.theta), -math.cos(self.theta)],
            dtype=complex,
        )

    def projectors(self):
        v = self.parallel_ket()
        w = self.perpendicular_ket()
        return np.outer(v, v.conj()), np.outer(w, w.conj())


@dataclass(frozen=True)
class DiscordBreakdown:
    """Mutual information, classical correlation, and their difference.

    Each field is a float (regime a str), or an array over the time grid t.
    """

    mutual_information: float
    classical_correlation: float
    discord: float
    chi: float
    regime: str
    t: float | None = None

    def __post_init__(self):
        info, cc, d = self.mutual_information, self.classical_correlation, self.discord
        _reject(abs(d - (info - cc)) > 1e-12,
                "discord %r must equal I - C = %r", d, info - cc, t=self.t)
        _reject(np.logical_not((-1e-10 <= cc) & (cc <= info + 1e-10)),
                "classical correlation %r outside [0, I=%r]", cc, info, t=self.t)


def x_state_eigenvalues(x: EvolvedXState) -> np.ndarray:
    """Spectrum (1 + c3 -/+ mu)/4, (1 - c3 -/+ nu)/4 of the evolved X matrix.

    Shape (4,) for a state at one time, (4, n) over a grid of n times.
    """
    lam = np.array(_x_spectrum(x.mu, x.nu, x.c3))
    worst = lam.min(axis=0)
    _reject(worst < EIGENVALUE_FLOOR, "evolved state has negative eigenvalue %.6e", worst,
            t=x.t)
    return lam


def mutual_information(x: EvolvedXState) -> float:
    """I = 2 + sum_i lambda_i log2 lambda_i; both marginals are I/2."""
    return 2.0 - entropy_bits(x_state_eigenvalues(x))


def measurement_spread(basis: MeasurementBasis, x: EvolvedXState) -> float:
    """Eigenvalue splitting of the post-measurement conditional state.

    The conditional state of qubit A has eigenvalues (1 +/- L)/2 with

        L^2 = c3^2 cos^2(2 theta)
              + [mu^2 + nu^2 + 2 mu nu cos(delta2 - delta1 + 2 phi)]
                * sin^2(2 theta) / 4.
    """
    cos2t = math.cos(2.0 * basis.theta)
    sin2t = math.sin(2.0 * basis.theta)
    cross = math.cos(x.delta2 - x.delta1 + 2.0 * basis.phi)
    val = (x.c3 * cos2t) ** 2 + 0.25 * (
        x.mu**2 + x.nu**2 + 2.0 * x.mu * x.nu * cross
    ) * sin2t**2
    return math.sqrt(max(val, 0.0))


def _measurement_branch(c3, mu, nu, tc_regime: str = "unknown"):
    """Spread chi and regime label of the measurement branch tc_regime picks.

    The pole spread is |c3| and the equatorial spread (|mu| + |nu|)/2.
    "before" takes the equatorial branch, "after" the pole branch, and
    "unknown" the larger of the two, labeled by which one wins; ties are
    after-critic, and a vanishing pole means there is no critic time.
    mu and nu may be arrays over a grid; chi and the labels then are too.
    """
    if tc_regime not in ("before", "after", "unknown"):
        raise DomainError(
            f"tc_regime={tc_regime!r}; expected 'before', 'after' or 'unknown'"
        )
    pole = abs(c3)
    equator = 0.5 * (abs(mu) + abs(nu))
    if tc_regime == "unknown":
        before = equator > pole
    else:
        # [()]: a bool for one point, an array over a grid
        before = np.full(np.shape(equator), tc_regime == "before")[()]
    if tc_regime == "unknown" and pole <= _REGIME_ZERO:
        labels = (REGIME_NONE, REGIME_NONE)
    else:
        labels = (REGIME_BEFORE, REGIME_AFTER)
    return _where(before, equator, pole), _where(before, *labels)


def optimal_measurement_spread(x: EvolvedXState) -> float:
    """chi = max(|c3|, (|mu| + |nu|)/2), the spread at the best basis."""
    return _measurement_branch(x.c3, x.mu, x.nu)[0]


def classical_correlation_value(chi: float) -> float:
    """C at a given optimal spread: sum_n (1 + (-1)^n chi)/2 log2(1 + (-1)^n chi).

    Equals 1 - h2((1 + chi)/2) with h2 the binary entropy. An array of
    spreads is mapped element by element, so grid and float give the same bits.
    """
    if isinstance(chi, np.ndarray):
        return np.array([classical_correlation_value(c) for c in chi.tolist()])
    if chi < 0.0 or chi > 1.0 + 1e-12:
        raise InvalidStateError(f"spread chi={chi!r} outside [0, 1]")
    chi = min(chi, 1.0)
    return 0.5 * (xlog2(1.0 + chi) + xlog2(1.0 - chi))


def classical_correlation(x: EvolvedXState) -> float:
    """Classical correlation of the evolved X state under optimal measurement."""
    return classical_correlation_value(optimal_measurement_spread(x))


def discord_analytic(x: EvolvedXState, tc_regime: str = "unknown") -> DiscordBreakdown:
    """Closed-form discord D = I - C of an evolved X state.

    tc_regime may force the branch ("before" uses the equatorial spread,
    "after" the pole spread); "unknown" takes the larger spread, which is
    the correct minimizing branch at any instant. Ties are labeled
    after-critic. An x over a time grid gives a breakdown of arrays.
    """
    info = mutual_information(x)
    chi, regime = _measurement_branch(x.c3, x.mu, x.nu, tc_regime)
    cc = classical_correlation_value(chi)
    d = info - cc
    return DiscordBreakdown(
        mutual_information=info,
        classical_correlation=cc,
        # D >= 0 on either measurement branch, so a negative I - C is
        # rounding (-1.9e-16 once mu = nu = 0 on the after-critic branch)
        discord=_where(d < 0.0, 0.0, d),
        chi=chi,
        regime=regime,
        t=x.t,
    )


def _conditional_entropies(r4: np.ndarray, thetas: np.ndarray, phis: np.ndarray):
    """p_k S(rho_A^k) summed over both outcomes, for a flat list of bases.

    Returns (s_cond, p_par, s_par, p_perp, s_perp) where s_* are the
    normalized conditional entropies.
    """
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


def _looks_like_symmetric_x(m: np.ndarray) -> bool:
    off = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)]
    if any(abs(m[i, j]) > _X_PATTERN_TOL for i, j in off):
        return False
    return (
        abs(m[0, 0] - m[3, 3]) <= _X_PATTERN_TOL
        and abs(m[1, 1] - m[2, 2]) <= _X_PATTERN_TOL
    )


def discord_bruteforce(rho: TwoQubitDensity, grid=(64, 128)) -> DiscordBreakdown:
    """Discord by explicit minimization over measurement bases on qubit B.

    A coarse (theta, phi) grid is followed by up to three rounds of 10x
    local refinement around the running optimum; convergence means the
    minimum moved by less than 1e-6 between rounds. For symmetric X input
    the two outcome probabilities must both be 1/2 and the two conditional
    entropies equal; this is asserted to 1e-12.
    """
    n_theta, n_phi = grid
    if n_theta < _MIN_GRID[0] or n_phi < _MIN_GRID[1]:
        raise DomainError(
            f"grid {grid!r} is coarser than the required minimum {_MIN_GRID}"
        )
    m = rho.entries
    r4 = m.reshape(2, 2, 2, 2)
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    s_ab = von_neumann_entropy(m)
    info = s_a + s_b - s_ab

    symmetric_x = _looks_like_symmetric_x(m)

    thetas = np.linspace(0.0, 0.5 * math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    tg = tg.ravel()
    pg = pg.ravel()
    s_cond, p_par, s_par, p_perp, s_perp = _conditional_entropies(r4, tg, pg)
    if symmetric_x:
        worst_p = max(np.abs(p_par - 0.5).max(), np.abs(p_perp - 0.5).max())
        worst_s = np.abs(s_par - s_perp).max()
        if worst_p > 1e-12 or worst_s > 1e-12:
            raise InvalidStateError(
                "symmetric X state lost its measurement symmetry: "
                f"|p - 1/2| <= {worst_p:.3e}, |S_par - S_perp| <= {worst_s:.3e}"
            )
    best = int(np.argmin(s_cond))
    best_val = float(s_cond[best])
    best_theta = float(tg[best])
    best_phi = float(pg[best])

    spacing_theta = 0.5 * math.pi / (n_theta - 1)
    spacing_phi = 2.0 * math.pi / n_phi
    converged = False
    for _ in range(_REFINE_ROUNDS):
        lo_t = max(best_theta - spacing_theta, 0.0)
        hi_t = min(best_theta + spacing_theta, 0.5 * math.pi)
        sub_t = np.linspace(lo_t, hi_t, _REFINE_POINTS)
        sub_p = np.linspace(
            best_phi - spacing_phi, best_phi + spacing_phi, _REFINE_POINTS
        )
        tg, pg = np.meshgrid(sub_t, sub_p, indexing="ij")
        tg = tg.ravel()
        pg = pg.ravel()
        s_cond = _conditional_entropies(r4, tg, pg)[0]
        idx = int(np.argmin(s_cond))
        new_val = float(s_cond[idx])
        if new_val < best_val:
            best_theta = float(tg[idx])
            best_phi = float(pg[idx])
        change = best_val - min(new_val, best_val)
        best_val = min(new_val, best_val)
        spacing_theta /= _REFINE_SHRINK
        spacing_phi /= _REFINE_SHRINK
        if change < _CONVERGENCE_TOL:
            converged = True
            break

    cc = s_a - best_val
    # spread of the conditional state at the optimum, for the chi field
    chi = _conditional_spread(r4, best_theta, best_phi)
    # the X parameters c3, mu, nu read off the matrix entries
    _, regime = _measurement_branch(
        (m[0, 0] + m[3, 3] - m[1, 1] - m[2, 2]).real, 4.0 * m[0, 3], 4.0 * m[1, 2]
    )
    breakdown = DiscordBreakdown(
        mutual_information=info,
        classical_correlation=cc,
        discord=info - cc,
        chi=chi,
        regime=regime,
    )
    if not converged:
        raise ConvergenceError(
            f"measurement grid refinement stalled: last change {change:.3e} "
            f"above {_CONVERGENCE_TOL:.0e}",
            best_so_far=breakdown,
        )
    return breakdown


def _conditional_spread(r4: np.ndarray, theta: float, phi: float) -> float:
    basis = MeasurementBasis(theta, phi)
    v = basis.parallel_ket()
    block = np.einsum("b,ibjc,c->ij", v.conj(), r4, v)
    p = (block[0, 0] + block[1, 1]).real
    if p <= 1e-15:
        return 0.0
    half_gap = math.hypot(0.5 * (block[0, 0].real - block[1, 1].real), abs(block[0, 1]))
    return 2.0 * half_gap / p
