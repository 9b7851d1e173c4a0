"""Quantum discord of evolved X states.

Two independent routes are provided. The analytic route uses the known
optimal-measurement structure of X states with maximally mixed marginals:
the conditional-entropy minimum over one-qubit projective measurements on
qubit B is attained either at the equatorial angle (spread (|mu|+|nu|)/2)
or at the pole (spread |c3|), whichever is larger. The brute-force route
minimizes over an explicit (theta, phi) measurement grid with local
refinement and serves as the oracle for the analytic one. The analytic
route runs on Python floats, at one time or over a list of times; the
brute-force route works on dense matrices and imports NumPy when it runs.
It reads each conditional state of qubit A off the Bloch components of
the density's qubit-B blocks, which assumes no X structure.

All information quantities are in bits.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, InvalidStateError
from .evolution import EvolvedXState
from .states import (
    EIGENVALUE_FLOOR,
    TwoQubitDensity,
    _record,
    _reject,
    partial_trace,
    von_neumann_entropy,
    xlog2,
)

if TYPE_CHECKING:  # annotations only: the dense-matrix routes import NumPy themselves
    import numpy as np

REGIME_BEFORE = "before-critic"
REGIME_AFTER = "after-critic"
REGIME_NONE = "no-critic"

# population asymmetry below this is treated as exactly zero when labeling
# the regime; the pole branch can then never take over
_REGIME_ZERO = 1e-14
# the largest spread, |c3| or (|mu| + |nu|)/2, whose state passes the
# spectrum check: every eigenvalue (1 +/- c3 -/+ mu or nu)/4 >= EIGENVALUE_FLOOR
_SPREAD_MAX = 1.0 - 4.0 * EIGENVALUE_FLOOR

_MIN_GRID = (64, 128)
_REFINE_ROUNDS = 3
_REFINE_POINTS = 21
_REFINE_SHRINK = 10.0
_CONVERGENCE_TOL = 1e-6
_X_PATTERN_TOL = 1e-12
# bases per block of the grid scan; a call then allocates about 0.2 MB at its peak
_SCAN_CHUNK = 1024


class DiscordBreakdown(_record(
        "DiscordBreakdown", "mutual_information classical_correlation discord chi regime t",
        (None,))):
    """Mutual information, classical correlation, and their difference.

    chi is the optimal measurement spread and regime the side of the critic
    time. Each field is a float (regime a str), or a list over the time
    grid t; t may be None.
    """

    __slots__ = ()

    def __new__(cls, mutual_information: float, classical_correlation: float,
                discord: float, chi: float, regime: str, t: float | None = None):
        _reject(_broken_breakdown, "%s", mutual_information, classical_correlation,
                discord, t=t)
        return super().__new__(cls, mutual_information, classical_correlation, discord,
                               chi, regime, t)


def _broken_breakdown(info, cc, d):
    if abs(d - (info - cc)) > 1e-12:
        return (f"discord {d!r} must equal I - C = {info!r} - {cc!r}",)
    if not -1e-10 <= cc <= info + 1e-10:
        return (f"classical correlation {cc!r} outside [0, I={info!r}]",)
    return None


def _branch_rule(pole, tc_regime: str):
    """Threshold and the equatorial and pole regime labels of the branch rule.

    The equatorial spread (|mu| + |nu|)/2 is taken where it exceeds the
    threshold, the pole spread |c3| elsewhere. Under "unknown" the threshold
    is |c3|, so a tie is after-critic, and a vanishing pole means there is
    no critic time; "before" and "after" force a branch with -inf or inf.
    """
    if tc_regime == "unknown":
        if pole <= _REGIME_ZERO:
            return pole, REGIME_NONE, REGIME_NONE
        return pole, REGIME_BEFORE, REGIME_AFTER
    if tc_regime not in ("before", "after"):
        raise DomainError(f"tc_regime={tc_regime!r}; expected 'before', 'after' or 'unknown'")
    return -math.inf if tc_regime == "before" else math.inf, REGIME_BEFORE, REGIME_AFTER


def _measurement_branch(c3, mu, nu, tc_regime: str = "unknown"):
    """Spread chi and regime label of the measurement branch tc_regime picks."""
    pole = abs(c3)
    threshold, equator_label, pole_label = _branch_rule(pole, tc_regime)
    equator = 0.5 * (abs(mu) + abs(nu))
    return (equator, equator_label) if equator > threshold else (pole, pole_label)


def classical_correlation_value(chi: float) -> float:
    """C at a given optimal spread: sum_n (1 + (-1)^n chi)/2 log2(1 + (-1)^n chi).

    Equals 1 - h2((1 + chi)/2) with h2 the binary entropy. A chi up to
    1 - 4 EIGENVALUE_FLOOR, which a state's spectrum check admits, is
    clamped to 1.
    """
    if not 0.0 <= chi <= _SPREAD_MAX:
        raise InvalidStateError(f"spread chi={chi!r} outside [0, 1]")
    chi = min(chi, 1.0)
    return 0.5 * (xlog2(1.0 + chi) + xlog2(1.0 - chi))


def discord_analytic(x: EvolvedXState, tc_regime: str = "unknown") -> DiscordBreakdown:
    """Closed-form discord D = I - C of an evolved X state.

    tc_regime may force the branch ("before" uses the equatorial spread,
    "after" the pole spread); "unknown" takes the larger spread, which is
    the correct minimizing branch at any instant. Ties are labeled
    after-critic. An x over a time grid gives a breakdown of lists.
    """
    c3 = x.c3
    pole = abs(c3)
    # EvolvedXState has refused a nan, so a forced branch is never missed
    threshold, equator_label, pole_label = _branch_rule(pole, tc_regime)
    plus, minus, log2, fsum = 1.0 + c3, 1.0 - c3, math.log2, math.fsum
    cc_pole = None  # C at the pole spread, once a point takes that branch
    fields = infos, ccs, ds, chis, regimes = [], [], [], [], []
    grid = type(x.mu) is list
    for mu, nu in zip(x.mu, x.nu) if grid else ((x.mu, x.nu),):
        # the spectrum (1 + c3 -/+ mu)/4, (1 - c3 -/+ nu)/4; xlog2 keeps the
        # floor check for a weight that is not positive
        w1, w2 = (plus - mu) / 4.0, (plus + mu) / 4.0
        w3, w4 = (minus - nu) / 4.0, (minus + nu) / 4.0
        info = 2.0 + fsum((w1 * log2(w1) if w1 > 0.0 else xlog2(w1),
                           w2 * log2(w2) if w2 > 0.0 else xlog2(w2),
                           w3 * log2(w3) if w3 > 0.0 else xlog2(w3),
                           w4 * log2(w4) if w4 > 0.0 else xlog2(w4)))
        equator = 0.5 * (abs(mu) + abs(nu))
        if equator > threshold:
            chi, regime, cc = equator, equator_label, classical_correlation_value(equator)
        else:
            if cc_pole is None:
                cc_pole = classical_correlation_value(pole)
            chi, regime, cc = pole, pole_label, cc_pole
        d = info - cc
        infos.append(info)
        ccs.append(cc)
        # D >= 0 on either measurement branch, so a negative I - C is
        # rounding (-1.9e-16 once mu = nu = 0 on the after-critic branch)
        ds.append(0.0 if d < 0.0 else d)
        chis.append(chi)
        regimes.append(regime)
    if not grid:
        fields = [column[0] for column in fields]
    return DiscordBreakdown(*fields, t=x.t)


def _bloch_blocks(r4: np.ndarray) -> np.ndarray:
    """Real (4, 4) table of the B-blocks' halved Bloch components.

    Rows are Re R_00, Re R_11, Re R_01 and Im R_01, where R_ij is the 2x2
    B-block r4[i, :, j, :]; columns are 1/2 Tr[R_ij s] for s = 1, sigma_x,
    sigma_y, sigma_z. Projecting B onto (1 + n.sigma)/2 leaves the A-block
    ij = column 0 + n . columns 1-3, and the outcome along -n flips the
    sign of the n term.
    """
    import numpy as np

    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                       [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    blocks = np.stack([r4[0, :, 0, :], r4[1, :, 1, :], r4[0, :, 1, :]])
    comps = 0.5 * np.einsum("mbc,scb->ms", blocks, paulis)
    # R_00 and R_11 are hermitian, so their components are real
    return np.concatenate([comps.real, comps[2:].imag])


def _conditional_states(bloch: np.ndarray, nx, ny, nz):
    """(p, h) of the conditional A state, stacked for the outcomes along +n and -n.

    p is the outcome probability and p/2 +/- h the two eigenvalues of the
    unnormalized conditional state; n = (nx, ny, nz) is a unit Bloch
    vector, or arrays of them, and both outcomes share its dot products.
    """
    import numpy as np

    signs = np.array([1.0, -1.0]).reshape((2,) + (1,) * np.ndim(nx))
    a, d, re, im = (c[0] + signs * (nx * c[1] + ny * c[2] + nz * c[3]) for c in bloch)
    return a + d, np.hypot(0.5 * (a - d), np.hypot(re, im))


def _conditional_entropies(bloch: np.ndarray, nx, ny, nz):
    """p_k S(rho_A^k) summed over both outcomes, at Bloch directions n.

    Returns (s_cond, p_par, s_par, p_perp, s_perp) where s_* are the
    normalized conditional entropies; par is the outcome along +n.
    """
    import numpy as np

    p, half_gap = _conditional_states(bloch, nx, ny, nz)
    mid = 0.5 * p
    safe = np.maximum(p, 1e-300)
    ent = -(xlog2((mid - half_gap) / safe) + xlog2((mid + half_gap) / safe))
    ent = np.where(p > 1e-15, ent, 0.0)
    return p[0] * ent[0] + p[1] * ent[1], p[0], ent[0], p[1], ent[1]


def _looks_like_symmetric_x(m: np.ndarray) -> bool:
    off = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)]
    if any(abs(m[i, j]) > _X_PATTERN_TOL for i, j in off):
        return False
    return (
        abs(m[0, 0] - m[3, 3]) <= _X_PATTERN_TOL
        and abs(m[1, 1] - m[2, 2]) <= _X_PATTERN_TOL
    )


def _scan_minimum(bloch: np.ndarray, thetas: np.ndarray, phis: np.ndarray,
                  check_symmetry: bool = False):
    """(value, theta, phi) of the first conditional-entropy minimum on thetas x phis.

    The grid is walked in blocks of whole theta rows, about _SCAN_CHUNK
    bases each, so the working set does not grow with the grid. A later
    block must be strictly lower to take over, which keeps the first
    minimum in row-major order, as one argmin over the whole grid would.
    check_symmetry asserts, to 1e-12, the equal outcome probabilities and
    entropies a symmetric X state has at every basis.
    """
    import numpy as np

    cos_phi, sin_phi = np.cos(phis), np.sin(phis)
    rows = max(1, _SCAN_CHUNK // len(phis))
    best = None
    worst_p = worst_s = 0.0
    for lo in range(0, len(thetas), rows):
        two_t = 2.0 * thetas[lo:lo + rows, None]
        sin2t = np.sin(two_t)
        s_cond, p_par, s_par, p_perp, s_perp = _conditional_entropies(
            bloch, sin2t * cos_phi, sin2t * sin_phi, np.cos(two_t))
        if check_symmetry:
            worst_p = max(worst_p, np.abs(p_par - 0.5).max(), np.abs(p_perp - 0.5).max())
            worst_s = max(worst_s, np.abs(s_par - s_perp).max())
        idx = int(np.argmin(s_cond))
        val = float(s_cond.flat[idx])
        if best is None or val < best[0]:
            i, j = divmod(idx, len(phis))
            best = val, float(thetas[lo + i]), float(phis[j])
    if worst_p > 1e-12 or worst_s > 1e-12:
        raise InvalidStateError(
            "symmetric X state lost its measurement symmetry: "
            f"|p - 1/2| <= {worst_p:.3e}, |S_par - S_perp| <= {worst_s:.3e}"
        )
    return best


def discord_bruteforce(rho: TwoQubitDensity, grid=(64, 128)) -> DiscordBreakdown:
    """Discord by explicit minimization over measurement bases on qubit B.

    A coarse (theta, phi) grid is followed by up to three rounds of 10x
    local refinement around the running optimum; convergence means the
    minimum moved by less than 1e-6 between rounds. For symmetric X input
    the two outcome probabilities must both be 1/2 and the two conditional
    entropies equal; this is asserted to 1e-12.
    """
    import numpy as np

    n_theta, n_phi = grid
    if n_theta < _MIN_GRID[0] or n_phi < _MIN_GRID[1]:
        raise DomainError(
            f"grid {grid!r} is coarser than the required minimum {_MIN_GRID}"
        )
    m = rho.entries
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    s_ab = von_neumann_entropy(m)
    info = s_a + s_b - s_ab
    bloch = _bloch_blocks(m.reshape(2, 2, 2, 2))
    best_val, best_theta, best_phi = _scan_minimum(
        bloch,
        np.linspace(0.0, 0.5 * math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
        check_symmetry=_looks_like_symmetric_x(m),
    )

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
        new_val, new_theta, new_phi = _scan_minimum(bloch, sub_t, sub_p)
        if new_val < best_val:
            best_theta, best_phi = new_theta, new_phi
        change = best_val - min(new_val, best_val)
        best_val = min(new_val, best_val)
        spacing_theta /= _REFINE_SHRINK
        spacing_phi /= _REFINE_SHRINK
        if change < _CONVERGENCE_TOL:
            converged = True
            break

    cc = s_a - best_val
    # spread of the conditional state at the optimum, for the chi field
    chi = _conditional_spread(bloch, best_theta, best_phi)
    # the X parameters c3, mu, nu read off the matrix entries
    _, regime = _measurement_branch(
        (m[0, 0] + m[3, 3] - m[1, 1] - m[2, 2]).real, 4.0 * m[0, 3], 4.0 * m[1, 2]
    )
    breakdown = DiscordBreakdown(
        mutual_information=info,
        classical_correlation=cc,
        # clamped as in discord_analytic: a negative I - C is rounding, -4.4e-16
        # once the coherences have decayed
        discord=max(info - cc, 0.0),
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


def _conditional_spread(bloch: np.ndarray, theta: float, phi: float) -> float:
    """Spread L of the conditional A state for the outcome along the basis
    (theta, phi): its eigenvalues are (1 +/- L)/2."""
    sin2t = math.sin(2.0 * theta)
    p, half_gap = _conditional_states(
        bloch, sin2t * math.cos(phi), sin2t * math.sin(phi), math.cos(2.0 * theta))
    return 0.0 if p[0] <= 1e-15 else float(2.0 * half_gap[0] / p[0])
