"""Quantum discord of evolved X states.

Two independent routes are provided. The analytic route uses the known
optimal-measurement structure of X states with maximally mixed marginals:
the conditional-entropy minimum over one-qubit projective measurements on
qubit B is attained either at the equatorial angle (spread (|mu|+|nu|)/2)
or at the pole (spread |c3|), whichever is larger. It writes I, C and D
through phi(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x) (Luo, PRA 77,
042303 (2008), rearranged), which is x^2/ln 2 + O(x^4) and is evaluated
without a difference of O(1) terms, so each quantity keeps its relative
accuracy however small the correlations are. The brute-force route, the
oracle for the analytic one, scans the rows 2 theta <= pi/2 of a (theta,
phi) measurement grid, as n and -n are one basis, and refines locally.
The analytic route runs on Python floats, at one time or over a list of
times; the brute-force route works on dense matrices and imports NumPy
when it runs. It reads each conditional state of qubit A off the Bloch
components of the density's qubit-B blocks, which assumes no X structure.

All information quantities are in bits.
"""

from __future__ import annotations

import functools
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
_LN2 = math.log(2.0)

_MIN_GRID = (64, 128)
_REFINE_ROUNDS = 3
_REFINE_POINTS = 21
_REFINE_SHRINK = 10.0
_CONVERGENCE_TOL = 1e-6
_X_PATTERN_TOL = 1e-12
# bases per scan block: a 270 kB budget at the 130 bytes one basis holds at the kernel's peak;
# the default grid's coarse scan takes 2 blocks of 16 rows
_SCAN_BASES = 270_000 // 130


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


def _phi(m: float, a: float = 1.0) -> float:
    """a phi(m/a), where phi(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x).

    phi is even, >= 0 and 2 at |x| = 1. Below |x| = 1/2 it is taken as
    [2 x atanh(x) + log1p(-x^2)]/ln 2 = x^2/ln 2 + O(x^4), with no O(1)
    terms to cancel; above, as written, with a - m (exact there) in place of
    a (1 - x), whose rounding the log magnifies near |x| = 1. |m| >= a (a
    weight at 0, or within EIGENVALUE_FLOOR below) gives 2 a.
    """
    if not -a < m < a:
        return 2.0 * a
    x = m / a
    if -0.5 < x < 0.5:
        return a * (2.0 * x * math.atanh(x) + math.log1p(-x * x)) / _LN2
    return (a + m) * math.log2((a + m) / a) + (a - m) * math.log2((a - m) / a)


def _dphi(x: float) -> float:
    """phi'(x) = log2((1 + x)/(1 - x)) = 2 atanh(x)/ln 2, odd, for |x| < 1."""
    return 2.0 * math.atanh(x) / _LN2


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
    """C at a given optimal spread: phi(chi)/2, with
    phi(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x).

    Equals 1 - h2((1 + chi)/2) with h2 the binary entropy, and keeps every
    digit for small chi, where C = chi^2/(2 ln 2) + O(chi^4). A chi up to
    1 - 4 EIGENVALUE_FLOOR, which a state's spectrum check admits, gives 1.
    """
    if not 0.0 <= chi <= _SPREAD_MAX:
        raise InvalidStateError(f"spread chi={chi!r} outside [0, 1]")
    return 0.5 * _phi(chi)


def _discord_columns(mus, nus, c3, tc_regime: str = "unknown"):
    """Lists of I, C, D, chi and regime over the points (mu, nu) of one c3.

    With T = [(1 + c3) phi(mu/(1 + c3)) + (1 - c3) phi(nu/(1 - c3))]/4 >= 0,
    I = phi(c3)/2 + T, C = phi(chi)/2 and D = T + [phi(c3) - phi(chi)]/2,
    so no O(1) terms cancel for small correlations. On the pole branch
    chi = |c3| and D is T exactly.
    """
    pole = abs(c3)
    # EvolvedXState has refused a nan, so a forced branch is never missed
    threshold, equator_label, pole_label = _branch_rule(pole, tc_regime)
    plus, minus = 1.0 + c3, 1.0 - c3
    cc_pole = 0.5 * _phi(c3)
    fields = infos, ccs, ds, chis, regimes = [], [], [], [], []
    for mu, nu in zip(mus, nus):
        excess = (_phi(mu, plus) + _phi(nu, minus)) / 4.0
        infos.append(cc_pole + excess)
        equator = 0.5 * (abs(mu) + abs(nu))
        if equator > threshold:
            cc = classical_correlation_value(equator)
            # D >= 0 on either branch, so a negative one is rounding: -5.6e-16
            # at worst in a search near mu = nu, c3 = 0
            d = excess + (cc_pole - cc)
            ccs.append(cc)
            ds.append(0.0 if d < 0.0 else d)
            chis.append(equator)
            regimes.append(equator_label)
        else:
            ccs.append(cc_pole)
            ds.append(excess)
            chis.append(pole)
            regimes.append(pole_label)
    return fields


def discord_analytic(x: EvolvedXState, tc_regime: str = "unknown") -> DiscordBreakdown:
    """Closed-form discord D = I - C of an evolved X state.

    tc_regime may force the branch ("before" uses the equatorial spread,
    "after" the pole spread); "unknown" takes the larger spread, which is
    the correct minimizing branch at any instant. Ties are labeled
    after-critic. An x over a time grid gives a breakdown of lists. No O(1)
    entropies are subtracted (see _discord_columns), so I, C and D keep
    their relative accuracy however small the correlations are.
    """
    if type(x.mu) is list:
        return DiscordBreakdown(*_discord_columns(x.mu, x.nu, x.c3, tc_regime), t=x.t)
    fields = _discord_columns((x.mu,), (x.nu,), x.c3, tc_regime)
    return DiscordBreakdown(*[column[0] for column in fields], t=x.t)


def _bloch_blocks(r4: np.ndarray) -> np.ndarray:
    """Real (4, 4) table of the B-blocks' halved Bloch components.

    Rows are Re R_00, Re R_11, Re R_01 and Im R_01, where R_ij is the 2x2
    B-block r4[i, :, j, :]; columns are 1/2 Tr[R_ij s] for s = 1, sigma_x,
    sigma_y, sigma_z. Projecting B onto (1 + n.sigma)/2 leaves the A-block
    ij = column 0 + n . columns 1-3, and the outcome along -n flips the
    sign of the n term.
    """
    import numpy as np

    blocks = np.stack([r4[0, :, 0, :], r4[1, :, 1, :], r4[0, :, 1, :]])
    comps = 0.5 * np.einsum("mbc,scb->ms", blocks, _pauli_table())
    # R_00 and R_11 are hermitian, so their components are real
    return np.concatenate([comps.real, comps[2:].imag])


@functools.cache
def _pauli_table():
    import numpy as np

    return np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@functools.lru_cache(maxsize=4)
def _coarse_grid(n_theta: int, n_phi: int):
    """thetas, phis and, for the default grid only, (nx, ny, nz) of the coarse scan (0.07 MB). It
    keeps the rows with 2 theta <= pi/2: row n_theta - 1 - i at phi + pi is row i's mirror -n,
    the same basis, for an even n_phi; for an odd one the mirrors fall between the phi samples."""
    import numpy as np

    thetas = np.linspace(0.0, 0.5 * math.pi, n_theta)[:(n_theta + 1) // 2]
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return thetas, phis, _directions(thetas, phis) if (n_theta, n_phi) == _MIN_GRID else None


def _directions(thetas: np.ndarray, phis: np.ndarray):
    """Bloch vectors (nx, ny, nz) of the bases thetas x phis; nz is one column."""
    import numpy as np

    two_t = 2.0 * thetas[:, None]
    sin2t = np.sin(two_t)
    return sin2t * np.cos(phis), sin2t * np.sin(phis), np.cos(two_t)


def _conditional_states(bloch: np.ndarray, nx, ny, nz):
    """(p, h) of the conditional A state, stacked for the outcomes along +n and -n.

    p is the outcome probability and p/2 +/- h the two eigenvalues of the
    unnormalized conditional state; n = (nx, ny, nz) is a unit Bloch
    vector, or arrays of them. One pass takes all four components' dot =
    nx c1 + ny c2 + nz c3, and the outcomes are c0 + dot and c0 - dot.
    """
    import numpy as np

    c0, c1, c2, c3 = bloch.T.reshape((4, 4) + (1,) * np.ndim(nx))
    plus, minus = comps = np.empty((2, 4) + np.shape(nx))
    np.multiply(nx, c1, out=minus)
    minus += np.multiply(ny, c2, out=plus)
    minus += np.multiply(nz, c3, out=plus)
    np.add(c0, minus, out=plus)
    np.subtract(c0, minus, out=minus)
    a, d, re, im = comps.swapaxes(0, 1)
    p = a + d
    half_diff = np.multiply(np.subtract(a, d, out=a), 0.5, out=a)
    return p, np.hypot(half_diff, np.hypot(re, im, out=re))


def _conditional_entropies(bloch: np.ndarray, nx, ny, nz):
    """p_k S(rho_A^k) summed over both outcomes, at Bloch directions n.

    Returns (s_cond, p, s): p and the normalized conditional entropies s
    stack the outcomes along +n and -n, whose four eigenvalue ratios go
    through one xlog2 call.
    """
    import numpy as np

    p, half_gap = _conditional_states(bloch, nx, ny, nz)
    ratios = np.empty((2,) + p.shape)
    np.add(np.multiply(0.5, p, out=ratios[0]), half_gap, out=ratios[1])
    ratios[0] -= half_gap
    ratios /= np.maximum(p, 1e-300, out=half_gap)
    del half_gap  # freed before xlog2 allocates its result
    ent = xlog2(ratios)
    ent = np.negative(np.add(*ent, out=ent[0]), out=ent[0])
    ent[~(p > 1e-15)] = 0.0
    s_cond = np.multiply(p, ent, out=ratios[0])
    return s_cond[0] + s_cond[1], p, ent


def _looks_like_symmetric_x(m: np.ndarray) -> bool:
    off = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)]
    if any(abs(m[i, j]) > _X_PATTERN_TOL for i, j in off):
        return False
    return (
        abs(m[0, 0] - m[3, 3]) <= _X_PATTERN_TOL
        and abs(m[1, 1] - m[2, 2]) <= _X_PATTERN_TOL
    )


def _scan_minimum(bloch: np.ndarray, thetas: np.ndarray, phis: np.ndarray,
                  check_symmetry: bool = False, directions=None):
    """(value, theta, phi) of the first conditional-entropy minimum on thetas x phis.

    The grid is walked in blocks of whole theta rows, about _SCAN_BASES
    bases each, so the working set does not grow with the grid; directions,
    the whole grid's (nx, ny, nz), are sliced per block where given. A later
    block must be strictly lower to take over, which keeps the first
    minimum in row-major order, as one argmin over the whole grid would.
    check_symmetry asserts, to 1e-12, the equal outcome probabilities and
    entropies a symmetric X state has at every basis.
    """
    import numpy as np

    rows = max(1, _SCAN_BASES // len(phis))
    best = None
    worst_p = worst_s = 0.0
    for lo in range(0, len(thetas), rows):
        block = slice(lo, lo + rows)
        n = [v[block] for v in directions] if directions else _directions(thetas[block], phis)
        s_cond, p, ent = _conditional_entropies(bloch, *n)
        if check_symmetry:
            worst_p = max(worst_p, np.abs(p - 0.5).max())
            worst_s = max(worst_s, np.abs(ent[0] - ent[1]).max())
        idx = int(np.argmin(s_cond))
        val = float(s_cond.flat[idx])
        if best is None or val < best[0]:
            i, j = divmod(idx, len(phis))
            best = val, float(thetas[lo + i]), float(phis[j])
        del s_cond, p, ent  # before the next block allocates its own
    if worst_p > 1e-12 or worst_s > 1e-12:
        raise InvalidStateError(
            "symmetric X state lost its measurement symmetry: "
            f"|p - 1/2| <= {worst_p:.3e}, |S_par - S_perp| <= {worst_s:.3e}"
        )
    return best


def discord_bruteforce(rho: TwoQubitDensity, grid=_MIN_GRID) -> DiscordBreakdown:
    """Discord by explicit minimization over measurement bases on qubit B.

    A coarse scan of the (theta, phi) grid's rows with 2 theta <= pi/2 (see _coarse_grid)
    is followed by up to three rounds of 10x local refinement around the running optimum;
    convergence means the minimum moved by less than 1e-6 between rounds. For symmetric X
    input the two outcome probabilities must both be 1/2 and the two conditional entropies
    equal, to 1e-12. Refusals name grid and (c3, 4 rho_03, 4 rho_12).
    """
    import numpy as np

    n_theta, n_phi = grid
    if n_theta < _MIN_GRID[0] or n_phi < _MIN_GRID[1]:
        raise DomainError(f"grid {grid!r} is coarser than the required minimum {_MIN_GRID}")
    m = rho.entries
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    info = s_a + von_neumann_entropy(partial_trace(rho, "B")) - von_neumann_entropy(m)
    bloch = _bloch_blocks(m.reshape(2, 2, 2, 2))
    thetas, phis, directions = _coarse_grid(n_theta, n_phi)
    # the X parameters c3, mu, nu read off the matrix entries
    x_params = (float((m[0, 0] + m[3, 3] - m[1, 1] - m[2, 2]).real), complex(4.0 * m[0, 3]),
                complex(4.0 * m[1, 2]))
    try:
        best_val, best_theta, best_phi = _scan_minimum(
            bloch, thetas, phis, _looks_like_symmetric_x(m), directions)
    except InvalidStateError as exc:
        raise InvalidStateError(f"{exc}; {_oracle_inputs(grid, *x_params)}") from None

    spacing_theta, spacing_phi = 0.5 * math.pi / (n_theta - 1), 2.0 * math.pi / n_phi
    for _ in range(_REFINE_ROUNDS):
        sub_t = np.linspace(max(best_theta - spacing_theta, 0.0),
                            min(best_theta + spacing_theta, 0.5 * math.pi), _REFINE_POINTS)
        sub_p = np.linspace(best_phi - spacing_phi, best_phi + spacing_phi, _REFINE_POINTS)
        new_val, new_theta, new_phi = _scan_minimum(bloch, sub_t, sub_p)
        if new_val < best_val:
            best_theta, best_phi = new_theta, new_phi
        change = best_val - min(new_val, best_val)
        best_val = min(new_val, best_val)
        spacing_theta, spacing_phi = spacing_theta / _REFINE_SHRINK, spacing_phi / _REFINE_SHRINK
        if change < _CONVERGENCE_TOL:
            break

    cc = s_a - best_val
    # chi is the spread of the conditional state at the optimum; D is clamped as in
    # discord_analytic: a negative I - C is rounding, -4.4e-16 once the coherences have decayed
    breakdown = DiscordBreakdown(info, cc, max(info - cc, 0.0),
                                 _conditional_spread(bloch, best_theta, best_phi),
                                 _measurement_branch(*x_params)[1])
    if not change < _CONVERGENCE_TOL:
        raise ConvergenceError(f"measurement grid refinement stalled: last change {change:.3e} "
                               f"above {_CONVERGENCE_TOL:.0e}; {_oracle_inputs(grid, *x_params)}",
                               best_so_far=breakdown)
    return breakdown


def _oracle_inputs(grid, c3, mu, nu) -> str:
    return f"grid {tuple(grid)!r}, (c3, 4 rho_03, 4 rho_12) = ({c3!r}, {mu!r}, {nu!r})"


def _conditional_spread(bloch: np.ndarray, theta: float, phi: float) -> float:
    """Spread L of the conditional A state, p-weighted over both outcomes of the basis
    (theta, phi), 2 (h+ + h-)/(p+ + p-), so n and -n give one L; eigenvalues (1 +/- L)/2."""
    sin2t = math.sin(2.0 * theta)
    p, half_gap = _conditional_states(
        bloch, sin2t * math.cos(phi), sin2t * math.sin(phi), math.cos(2.0 * theta))
    return float(2.0 * (half_gap[0] + half_gap[1]) / (p[0] + p[1]))
