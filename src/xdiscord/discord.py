"""Quantum discord of evolved X states.

Two independent routes are provided. The analytic route uses the known
optimal-measurement structure of X states with maximally mixed marginals:
the conditional-entropy minimum over one-qubit projective measurements on
qubit B is attained either at the equatorial angle (spread (|mu|+|nu|)/2)
or at the pole (spread |c3|), whichever is larger. It writes I, C and D
through phi(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x) (Luo, PRA 77,
042303 (2008), rearranged), which is x^2/ln 2 + O(x^4) and is evaluated
without a difference of O(1) terms, so each quantity keeps its relative
accuracy however small the correlations are; it runs at one time or over
a list of times. The brute-force route, the oracle for the analytic one,
assumes neither the X structure nor an optimal basis: it reads each
conditional state of qubit A off the Bloch components of the density's
qubit-B blocks, scans a coarse grid of measurement directions and polishes
the best few by Newton steps, to about 1e-13 of the discord (1e-10 within
1e-8 relative of a tie of the two spreads, where a flat ridge joins them).

All information quantities are in bits.
"""

from __future__ import annotations

import functools
import math

from .errors import ConvergenceError, DomainError, InvalidStateError
from .evolution import EvolvedXState
from .states import (
    EIGENVALUE_FLOOR,
    TwoQubitDensity,
    _record,
    _reject,
    partial_trace,
    von_neumann_entropy,
)

REGIME_BEFORE = "before-critic"
REGIME_AFTER = "after-critic"
REGIME_NONE = "no-critic"

# the largest spread, |c3| or (|mu| + |nu|)/2, whose state passes the
# spectrum check: every eigenvalue (1 +/- c3 -/+ mu or nu)/4 >= EIGENVALUE_FLOOR
_SPREAD_MAX = 1.0 - 4.0 * EIGENVALUE_FLOOR
_LN2 = math.log(2.0)

# the oracle's (theta, phi) grid, whose rows with 2 theta <= pi/2 are scanned: it only
# has to put a start in the optimum's basin, and Newton steps do the rest (_polish)
_BASIN_GRID = (16, 32)
_STARTS = 3
_START_SEPARATION = 0.4
_STENCIL = 1e-4
_TRUST = 0.1
_POLISH_STEPS = 24
_LINE_STEPS = 7
_STEP_TOL = 1e-7
_RISE = 2.0**-50
_P_FLOOR = 1e-12
_X_PATTERN_TOL = 1e-12


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

    The one branch rule of the package: the equatorial spread (|mu| + |nu|)/2
    where it exceeds the threshold, the pole spread |c3| elsewhere. Under
    "unknown" the threshold is |c3|, so a tie is after-critic, and only c3 = 0
    has no critic time (a detuned pair crosses at any other |c3| below the
    start); "before" and "after" force a branch with -inf or inf.
    """
    if tc_regime not in ("unknown", "before", "after"):
        raise DomainError(f"tc_regime={tc_regime!r}; expected 'before', 'after' or 'unknown'")
    pole = abs(c3)
    # EvolvedXState has refused a nan, so a forced branch is never missed
    threshold = {"unknown": pole, "before": -math.inf, "after": math.inf}[tc_regime]
    labels = (REGIME_NONE,) * 2 if threshold == 0.0 else (REGIME_BEFORE, REGIME_AFTER)
    plus, minus = 1.0 + c3, 1.0 - c3
    cc_pole = 0.5 * _phi(c3)
    fields = infos, ccs, ds, chis, regimes = [], [], [], [], []
    for mu, nu in zip(mus, nus):
        excess = (_phi(mu, plus) + _phi(nu, minus)) / 4.0
        infos.append(cc_pole + excess)
        equator = 0.5 * (abs(mu) + abs(nu))
        if equator > threshold:
            # unchecked, as the pole's C: an oracle density's slack can pass _SPREAD_MAX
            cc = 0.5 * _phi(equator)
            # D >= 0 on either branch, so a negative one is rounding: -5.6e-16
            # at worst in a search near mu = nu, c3 = 0
            d = excess + (cc_pole - cc)
            ccs.append(cc)
            ds.append(0.0 if d < 0.0 else d)
            chis.append(equator)
            regimes.append(labels[0])
        else:
            ccs.append(cc_pole)
            ds.append(excess)
            chis.append(pole)
            regimes.append(labels[1])
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


def _bloch_table(m) -> tuple:
    """Real 4 x 4 table of the B-blocks' halved Bloch components, rows of floats.

    Rows are Re R_00, Re R_11, Re R_01 and Im R_01, where R_ij is the 2x2
    B-block of m with A-indices i, j; columns are 1/2 Tr[R_ij s] for
    s = 1, sigma_x, sigma_y, sigma_z. Projecting B onto (1 + n.sigma)/2
    leaves the A-block ij = column 0 + n . columns 1-3, and the outcome
    along -n flips the sign of the n term.
    """
    comps = []
    for i, j in ((0, 0), (1, 1), (0, 1)):
        (b00, b01), (b10, b11) = ((m[2 * i + b][2 * j], m[2 * i + b][2 * j + 1]) for b in (0, 1))
        comps.append((0.5 * (b00 + b11), 0.5 * (b01 + b10), 0.5j * (b01 - b10),
                      0.5 * (b00 - b11)))
    # R_00 and R_11 are hermitian, so their components are real
    return (*([c.real for c in row] for row in comps), [c.imag for c in comps[2]])


def _conditional_states(table, nx: float, ny: float, nz: float) -> tuple:
    """(p, 2 h) of the conditional A state for the outcomes along +n, then -n.

    p is the outcome probability and p/2 +/- h the two eigenvalues of the
    unnormalized conditional state; n = (nx, ny, nz) is a unit Bloch vector.
    """
    (a0, a1, a2, a3), (d0, d1, d2, d3), (r0, r1, r2, r3), (i0, i1, i2, i3) = table
    da, dd = nx * a1 + ny * a2 + nz * a3, nx * d1 + ny * d2 + nz * d3
    dr, di = nx * r1 + ny * r2 + nz * r3, nx * i1 + ny * i2 + nz * i3
    a, d, b, e = a0 + da, d0 + dd, a0 - da, d0 - dd
    return (a + d, math.hypot(a - d, 2.0 * (r0 + dr), 2.0 * (i0 + di)),
            b + e, math.hypot(b - e, 2.0 * (r0 - dr), 2.0 * (i0 - di)))


def _gain(table, n) -> float:
    """Phi = sum over both outcomes of p phi(2 h/p) at the Bloch direction n, or nan where
    an outcome probability is below _P_FLOOR, where Phi is not smooth. The conditional
    entropy is p+ + p- - Phi/2, so the best basis maximizes Phi, which keeps its relative
    accuracy for weak correlations. n and -n, one basis, give one value bit for bit."""
    p_plus, g_plus, p_minus, g_minus = _conditional_states(table, *n)
    if p_plus < _P_FLOOR or p_minus < _P_FLOOR:
        return math.nan
    return _phi(g_plus, p_plus) + _phi(g_minus, p_minus)


@functools.cache
def _basin_directions() -> tuple:
    """Bloch vectors of the basin grid's kept rows, row by row: 2 theta <= pi/2, as row
    n_theta - 1 - i at phi + pi is row i's mirror -n, the same basis."""
    n_theta, n_phi = _BASIN_GRID
    return tuple((math.sin(two_t) * math.cos(phi), math.sin(two_t) * math.sin(phi),
                  math.cos(two_t))
                 for two_t in (i * math.pi / (n_theta - 1) for i in range((n_theta + 1) // 2))
                 for phi in (j * 2.0 * math.pi / n_phi for j in range(n_phi)))


def _scan(table, directions) -> list:
    """Phi at each of the bases directions, as _gain reads it but with no _P_FLOOR."""
    return [_phi(g_plus, p_plus) + _phi(g_minus, p_minus)
            for p_plus, g_plus, p_minus, g_minus in (_conditional_states(table, *n)
                                                      for n in directions)]


def _starts(values, directions) -> list:
    """Indices of the best few grid maxima of values: first come first, each more than
    _START_SEPARATION from every earlier start on the Bloch sphere up to sign."""
    near = math.cos(_START_SEPARATION)
    starts = []
    for k in sorted(range(len(values)), key=values.__getitem__, reverse=True):
        nx, ny, nz = directions[k]
        for j in starts:
            mx, my, mz = directions[j]
            if abs(nx * mx + ny * my + nz * mz) >= near:
                break
        else:
            starts.append(k)
            if len(starts) == _STARTS:
                break
    return starts


def _unit(x: float, y: float, z: float) -> tuple:
    norm = math.hypot(x, y, z)
    return x / norm, y / norm, z / norm


def _polish(table, n, value: float) -> tuple:
    """(Phi, n, settled): Newton steps for the maximum of Phi from the unit vector n, where
    Phi(n) = value.

    Each step takes the gradient and Hessian from a 3 x 3 stencil of spacing _STENCIL in
    the plane tangent at n, whose points and the step's end are renormalized onto the
    sphere, so the pole is no special point. A Hessian that is not negative definite gives
    a step of length _TRUST along its direction of largest curvature instead. A step that
    raises Phi by more than its rounding, _RISE, is doubled while Phi keeps rising, and
    one that does not is halved until it does, in _LINE_STEPS tries at most. The polish
    has settled when no try rises, when a taken step is shorter than _STEP_TOL, or when
    _gain reads nan at a stencil point; n is then the best point seen. It has not
    settled after _POLISH_STEPS steps.
    """
    h = _STENCIL
    for _ in range(_POLISH_STEPS):
        nx, ny, nz = n
        # the tangent pair: n crossed with the axis farthest from it, then with that
        u = _unit(-ny, nx, 0.0) if abs(nz) < 0.9 else _unit(0.0, -nz, ny)
        v = (ny * u[2] - nz * u[1], nz * u[0] - nx * u[2], nx * u[1] - ny * u[0])

        def at(a, b):
            return _unit(nx + a * u[0] + b * v[0], ny + a * u[1] + b * v[1],
                         nz + a * u[2] + b * v[2])

        f = {(a, b): _gain(table, at(a, b)) for a in (-h, 0.0, h) for b in (-h, 0.0, h)
             if a or b}
        if math.isnan(sum(f.values())):
            return value, n, True
        ga, gb = (f[h, 0.0] - f[-h, 0.0]) / (2.0 * h), (f[0.0, h] - f[0.0, -h]) / (2.0 * h)
        haa = (f[h, 0.0] - 2.0 * value + f[-h, 0.0]) / (h * h)
        hbb = (f[0.0, h] - 2.0 * value + f[0.0, -h]) / (h * h)
        hab = (f[h, h] - f[h, -h] - f[-h, h] + f[-h, -h]) / (4.0 * h * h)
        det = haa * hbb - hab * hab
        if haa < 0.0 and det > 0.0:
            wa, wb = (hab * gb - hbb * ga) / det, (hab * ga - haa * gb) / det
        else:
            # a saddle or a ridge, as at the pole between near-equal branches: the
            # eigenvector of largest curvature, turned uphill, is an ascent
            top = 0.5 * (haa + hbb) + math.hypot(0.5 * (haa - hbb), hab)
            wa, wb = (hab, top - haa) if abs(top - haa) >= abs(top - hbb) else (top - hbb, hab)
            size = math.copysign(_TRUST, wa * ga + wb * gb) / (math.hypot(wa, wb) or math.inf)
            wa, wb = size * wa, size * wb
        best, factor = None, 2.0
        for _ in range(_LINE_STEPS):
            got = _gain(table, at(wa, wb))
            if got - (value if best is None else best[0]) > _RISE * abs(value):
                best = got, wa, wb
            elif best is not None:
                break
            else:
                factor = 0.5
            wa, wb = factor * wa, factor * wb
        if best is None:
            return value, n, True
        value, n = best[0], at(best[1], best[2])
        if math.hypot(best[1], best[2]) < _STEP_TOL:
            return value, n, True
    return value, n, False


def _optimum(table, directions, values) -> tuple:
    """(Phi, n, settled) at the best basis, polished from each start _starts picks among
    the scanned directions and their values; a later one must be higher to take over."""
    return max((_polish(table, directions[k], values[k]) for k in _starts(values, directions)),
               key=lambda polished: polished[0])


def discord_bruteforce(rho: TwoQubitDensity) -> DiscordBreakdown:
    """Discord by explicit minimization over measurement bases on qubit B.

    The conditional entropy is p+ + p- - Phi/2 (see _gain). Newton steps from the best few
    maxima of Phi on the basin grid's kept rows give the optimum (_optimum); where those of
    the winning start have not settled, ConvergenceError carries the best breakdown found.
    A symmetric X state has p = 1/2 for both outcomes and one conditional entropy at every
    basis, which is checked once, on the table (_bloch_table): with its rows (a0, a), (d0, d),
    (r0, r) and (i0, i), p+- = (a0 + d0) +- n.(a + d) and g+^2 - g-^2 = 4 n.w at every unit n
    (_conditional_states), w = (a0 - d0)(a - d) + 4 r0 r + 4 i0 i, so the largest |p - 1/2|
    and |g+^2 - g-^2|/4 are |a0 + d0 - 1/2| + |a + d| and |w|, and either above 1e-12 is
    refused. Refusals name (c3, 4 rho_03, 4 rho_12).
    """
    m = rho.entries
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    info = s_a + von_neumann_entropy(partial_trace(rho, "B")) - von_neumann_entropy(m)
    table = _bloch_table(m)
    directions = _basin_directions()
    # the X parameters c3, mu, nu read off the matrix entries, which the refusals name
    x_params = ((m[0][0] + m[3][3] - m[1][1] - m[2][2]).real, 4.0 * m[0][3], 4.0 * m[1][2])
    named = "(c3, 4 rho_03, 4 rho_12) = (%r, %r, %r)"
    if max(map(abs, (m[0][1], m[0][2], m[1][0], m[2][0], m[1][3], m[3][1], m[2][3], m[3][2],
                     m[0][0] - m[3][3], m[1][1] - m[2][2]))) <= _X_PATTERN_TOL:
        (a0, *a), (d0, *d), (r0, *r), (i0, *i) = table
        p_gap = abs(a0 + d0 - 0.5) + math.hypot(*(x + y for x, y in zip(a, d)))
        w_gap = math.hypot(*((a0 - d0) * (x - y) + 4.0 * (r0 * u + i0 * v)
                             for x, y, u, v in zip(a, d, r, i)))
        if p_gap > 1e-12 or w_gap > 1e-12:
            raise InvalidStateError(
                "symmetric X state lost its measurement symmetry: "
                f"|p - 1/2| <= {p_gap:.3e}, |g+^2 - g-^2|/4 <= {w_gap:.3e}; " + named % x_params)
    values = _scan(table, directions)
    gain, n, settled = _optimum(table, directions, values)
    total = 2.0 * (table[0][0] + table[1][0])  # p+ + p-, the trace of rho
    cc = (s_a - total) + 0.5 * gain
    c3, mu, nu = map(abs, x_params)
    # D is clamped as in discord_analytic: a negative I - C is rounding
    breakdown = DiscordBreakdown(info, cc, max(info - cc, 0.0), _conditional_spread(table, n),
                                 _discord_columns((mu,), (nu,), c3)[4][0])
    if not settled:
        raise ConvergenceError(f"Newton polish did not settle in {_POLISH_STEPS} steps; "
                               + named % x_params, best_so_far=breakdown)
    return breakdown


def _conditional_spread(table, n) -> float:
    """Spread L of the conditional A state, p-weighted over both outcomes of the basis n,
    (2 h+ + 2 h-)/(p+ + p-), so n and -n give one L; eigenvalues (1 +/- L)/2."""
    p_plus, g_plus, p_minus, g_minus = _conditional_states(table, *n)
    return (g_plus + g_minus) / (p_plus + p_minus)
