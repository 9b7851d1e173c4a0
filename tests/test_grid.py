"""The time-grid route of decay_factors -> x_state_from_factors -> discord_analytic.

Each of the three takes a list of times as well as a float. The grid
route must give, cell by cell, the bits the scalar route gives, and its
checks must raise the same error type at the same inputs, naming the
first offending t. The discord kernel must give, field by field, the bits
of the per-point composition it replaced (oracles.discord_point_reference).
The linear grid of the command line and the c1 grid of the amplification
scan are built in Python floats and must be np.linspace and np.arange bit
for bit. The log grid has no NumPy twin: it must keep its end points, rise
strictly and come no farther from a 40-digit grid than np.geomspace.
"""

import math
import random

import numpy as np
import pytest

from xdiscord import (
    DecayFactors,
    DiscordBreakdown,
    EvolvedXState,
    InvalidStateError,
    QubitPairConfig,
    ReservoirConfig,
    XStateParams,
    decay_factors,
    discord_analytic,
    evolve_x_state,
    x_state_from_factors,
)
from xdiscord.analysis import _arange
from xdiscord.cli import RunConfig, _linspace

from oracles import discord_entropy_reference, discord_point_reference

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

QUBITS = QubitPairConfig(2.0, 1.0)
RES = ReservoirConfig(0.7, 1.0, 0.2)
PARAMS = XStateParams(0.6, 0.0, 0.3)


def grid_route(params, t, qubits, res, large_detuning):
    f = decay_factors(t, qubits, res, large_detuning)
    x = x_state_from_factors(params, t, qubits, f)
    return f, x, discord_analytic(x)


def cells(f, x, b):
    return {
        "gamma1": f.gamma1, "gamma2": f.gamma2, "mu": x.mu, "nu": x.nu,
        "delta1": x.delta1, "delta2": x.delta2, "chi": b.chi,
        "mutual_information": b.mutual_information,
        "classical_correlation": b.classical_correlation, "discord": b.discord,
    }


@st.composite
def runs(draw):
    # valid X family: |c1 - c2| <= 1 + c3 and |c1 + c2| <= 1 - c3
    c3 = draw(st.floats(-1.0, 1.0))
    outer = draw(st.floats(0.0, 1.0)) * (1.0 + c3)
    inner = draw(st.floats(0.0, 1.0)) * (1.0 - c3)
    s_outer, s_inner = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
    try:
        params = XStateParams(0.5 * (s_inner * inner + s_outer * outer),
                              0.5 * (s_inner * inner - s_outer * outer), c3)
    except InvalidStateError:
        assume(False)  # rounding pushed a boundary draw out of the family
    ratio = draw(st.one_of(st.just(1.0), st.floats(1.0, 4.0)))
    qubits = QubitPairConfig.from_ratio(draw(st.floats(0.1, 3.0)), ratio)
    res = ReservoirConfig(draw(st.floats(0.01, 2.0)), draw(st.floats(0.2, 5.0)),
                          draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0))))
    times = draw(st.lists(st.one_of(st.floats(0.0, 1e4), st.just(math.inf)),
                          min_size=1, max_size=25))
    return params, qubits, res, draw(st.booleans()), times


@settings(max_examples=150)
@given(runs())
def test_grid_route_equals_scalar_route_cell_by_cell(run):
    params, qubits, res, large_detuning, t = run
    grid = grid_route(params, t, qubits, res, large_detuning)
    grid_cells = cells(*grid)
    for i, ti in enumerate(t):
        f = decay_factors(ti, qubits, res, large_detuning)
        x = evolve_x_state(params, ti, qubits, res, large_detuning)
        b = discord_analytic(x)
        for name, value in cells(f, x, b).items():
            # repr tells -0.0 from 0.0, and nan (delta2 = 0 * inf) from a number
            assert repr(grid_cells[name][i]) == repr(value), (name, ti)
        assert grid[2].regime[i] == b.regime


@settings(max_examples=150)
@given(runs())
def test_correlations_stay_within_their_bounds(run):
    params, qubits, res, large_detuning, t = run
    b = grid_route(params, t, qubits, res, large_detuning)[2]
    # D = T + [phi(c3) - phi(chi)]/2 <= T <= I holds in rounding too; C may top
    # I by rounding where D is about 0
    for info, cc, d in zip(b.mutual_information, b.classical_correlation, b.discord):
        assert 0.0 <= d <= info
        assert 0.0 <= cc <= info + 1e-15


# c3 and the fractions of |mu| <= 1 + c3 and |nu| <= 1 - c3 that the kernel's
# branches turn on: a zero weight, a vanishing pole, mu = nu = 0
EDGE_C3 = st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 3e-15, 1.0, -1.0, 0.5, -0.25])
EDGE_FRACTION = st.sampled_from([0.0, 1.0, 0.5])
SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def discord_points(draw, c3):
    pole = abs(c3)
    kind = draw(st.integers(0, 3))
    # equator == pole: (|mu| + |nu|)/2 is |c3| exactly, within the spectrum's bounds
    if kind == 0 and pole <= 0.5:
        return draw(SIGN) * pole, draw(SIGN) * pole
    if kind == 1:
        return (draw(SIGN) * 2.0 * pole, 0.0) if c3 >= 0.0 else (0.0, draw(SIGN) * 2.0 * pole)
    fraction = st.one_of(EDGE_FRACTION, st.floats(0.0, 1.0))
    return (draw(fraction) * (1.0 + c3) * draw(SIGN),
            draw(fraction) * (1.0 - c3) * draw(SIGN))


@settings(max_examples=300)
@given(data=st.data(), c3=st.one_of(EDGE_C3, st.floats(-1.0, 1.0)),
       tc_regime=st.sampled_from(["unknown", "before", "after"]), n=st.integers(0, 12))
def test_discord_kernel_is_the_per_point_composition_bit_for_bit(data, c3, tc_regime, n):
    fields = DiscordBreakdown._fields[:5]
    points = [data.draw(discord_points(c3)) for _ in range(n)]
    want = [discord_point_reference(mu, nu, c3, tc_regime) for mu, nu in points]
    for (mu, nu), cells in zip(points, want):
        b = discord_analytic(EvolvedXState(mu, nu, 0.0, 0.0, c3, 0.5), tc_regime)
        assert [repr(getattr(b, f)) for f in fields] == list(map(repr, cells))
        # the entropy composition I = 2 - S(spectrum) it replaced, to its rounding
        for new, old in zip(cells, discord_entropy_reference(mu, nu, c3, tc_regime)):
            assert abs(new - old) <= 1e-15
    mu, nu = [p[0] for p in points], [p[1] for p in points]
    zero, t = [0.0] * n, [0.5] * n
    b = discord_analytic(EvolvedXState(mu, nu, zero, zero, c3, t), tc_regime)
    for f, column in zip(fields, zip(*want) if want else [()] * 5):
        assert list(map(repr, getattr(b, f))) == list(map(repr, column))


@settings(max_examples=300)
@given(c3=st.one_of(EDGE_C3, st.floats(-1.0, 1.0)),
       share=st.one_of(EDGE_FRACTION, st.floats(0.0, 1.0)), s_mu=SIGN, s_nu=SIGN)
def test_discord_is_nonnegative_and_continuous_where_the_branches_meet(c3, share, s_mu, s_nu):
    # at (|mu| + |nu|)/2 = |c3| both branches have the same C, so they must give
    # the same D; one ulp of the larger coherence to either side moves D by
    # rounding only, though it switches the branch under "unknown"
    pole = abs(c3)
    mu = s_mu * 2.0 * pole * share
    nu = s_nu * (2.0 * pole - abs(mu))
    assume(0.5 * (abs(mu) + abs(nu)) == pole)
    try:
        x = EvolvedXState(mu, nu, 0.0, 0.0, c3, 0.5)
    except InvalidStateError:
        assume(False)  # a coherence past the spectrum's bound
    tie = discord_analytic(x, "after").discord
    assert discord_analytic(x, "before").discord == tie >= 0.0
    field = "mu" if abs(mu) >= abs(nu) else "nu"
    value = getattr(x, field)
    for toward in (0.0, math.inf):
        moved = math.copysign(math.nextafter(abs(value), toward), value)
        try:
            near = discord_analytic(x._replace(**{field: moved})).discord
        except InvalidStateError:
            continue  # the coherence sat on the spectrum's bound
        assert near >= 0.0
        assert abs(near - tie) <= 1e-13 * (abs(mu) + abs(nu))


def test_one_point_grid_gives_the_scalar_types():
    b = discord_analytic(evolve_x_state(PARAMS, 1.2, QUBITS, RES))
    grid = discord_analytic(evolve_x_state(PARAMS, [1.2], QUBITS, RES))
    assert isinstance(b.discord, float) and isinstance(b.regime, str)
    assert grid.discord == [b.discord] and grid.regime == [b.regime]


def test_negative_time_names_the_first_one():
    t = [0.0, 1.0, -2.0, -3.0]
    with pytest.raises(InvalidStateError, match=r"t=-2\.0 must be nonnegative"):
        evolve_x_state(PARAMS, t, QUBITS, RES)
    with pytest.raises(InvalidStateError):
        evolve_x_state(PARAMS, -2.0, QUBITS, RES)


def test_nan_time_fails_the_decay_factor_check_at_that_time():
    t = [0.5, math.nan, 2.0]
    with pytest.raises(InvalidStateError, match=r"violate .* at t=nan"):
        decay_factors(t, QUBITS, RES)
    with pytest.raises(InvalidStateError, match=r"violate"):
        decay_factors(math.nan, QUBITS, RES)


def test_decay_factor_ordering_names_the_first_bad_time():
    with pytest.raises(InvalidStateError, match=r"\(0\.9, 0\.5\) violate .* at t=2\.0"):
        DecayFactors([0.5, 0.9, 0.9], [0.6, 0.5, 0.4], [1.0, 2.0, 3.0])


def test_eigenvalue_floor_names_the_first_bad_time():
    mu = [0.2, 1.5, 1.6]
    zeros = [0.0] * 3
    with pytest.raises(InvalidStateError, match=r"negative eigenvalue .* at t=1\.0"):
        EvolvedXState(mu=mu, nu=zeros, delta1=zeros, delta2=zeros, c3=0.0, t=[0.0, 1.0, 2.0])
    with pytest.raises(InvalidStateError, match=r"negative eigenvalue"):
        EvolvedXState(mu=1.5, nu=0.0, delta1=0.0, delta2=0.0, c3=0.0, t=1.0)


def test_breakdown_checks_name_the_first_bad_time():
    t = [0.0, 1.0, 2.0]
    info = [0.5, 0.5, 0.5]
    labels = ["after-critic"] * 3
    with pytest.raises(InvalidStateError, match=r"must equal I - C .* at t=1\.0"):
        DiscordBreakdown(info, [0.2, 0.2, 0.2], [0.3, 0.1, 0.3], [0.0] * 3, labels, t)
    with pytest.raises(InvalidStateError, match=r"outside \[0, I=0\.5\] at t=2\.0"):
        DiscordBreakdown(info, [0.2, 0.2, 0.7], [0.3, 0.3, -0.2], [0.0] * 3, labels, t)


def test_spectrum_check_refuses_a_nan_and_names_its_point():
    # a nan eigenvalue is never below the floor, so the check looks for nans first,
    # at a float and at every grid point, the screen's max() notwithstanding
    zero = [0.0, 0.0]
    for mu, nu, c3 in ((math.nan, 1.5, 0.0), (1.5, math.nan, 0.0), (0.1, 0.1, math.nan)):
        with pytest.raises(InvalidStateError, match=r"include a nan at t=0\.5$"):
            EvolvedXState(mu=mu, nu=nu, delta1=0.0, delta2=0.0, c3=c3, t=0.5)
    with pytest.raises(InvalidStateError, match=r"=\(nan, 0\.1, 0\.0\) include a nan at t=1\.0"):
        EvolvedXState(mu=[0.1, math.nan], nu=[0.1, 0.1], delta1=zero, delta2=zero, c3=0.0,
                      t=[0.0, 1.0])
    with pytest.raises(InvalidStateError, match=r"=\(0\.1, nan, 0\.2\) include a nan at t=0\.0"):
        EvolvedXState(mu=[0.1, 0.1], nu=[math.nan, 0.1], delta1=zero, delta2=zero, c3=0.2,
                      t=[0.0, 1.0])
    # a negative eigenvalue ahead of a nan is named first
    with pytest.raises(InvalidStateError, match=r"negative eigenvalue .* at t=0\.0"):
        EvolvedXState(mu=[1.5, math.nan], nu=[0.1, 0.1], delta1=zero, delta2=zero, c3=0.0,
                      t=[0.0, 1.0])


# finite bounds, subnormals included; the command line refuses others
BOUNDS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(
    lo=st.one_of(st.just(0.0), BOUNDS),
    hi=st.one_of(st.just(0.0), BOUNDS),
    n=st.one_of(st.just(1), st.integers(0, 60)),
    same=st.booleans(),
)
@example(lo=0.0, hi=5e-324, n=3, same=False)   # a zero step: NumPy scales by i/div
@example(lo=0.0, hi=10.0, n=400, same=False)  # the default evolve grid
@example(lo=-1e308, hi=1e308, n=5, same=False)  # hi - lo overflows
def test_linear_grid_is_numpy_linspace_bit_for_bit(lo, hi, n, same):
    if same:
        hi = lo
    with np.errstate(all="ignore"):  # an overflowing hi - lo warns
        want = np.linspace(lo, hi, n).tolist()
    assert [repr(v) for v in _linspace(lo, hi, n)] == [repr(v) for v in want]


def scan_draws(seed: int, count: int):
    """(lo, hi, step) of amplification scans, count of each of three kinds."""
    rng = random.Random(seed)
    for _ in range(count):
        # the benchmark's scans: 1,000 steps over about [0.001, 0.05] to [0.5, 0.66]
        lo, hi = rng.uniform(1e-3, 0.05), rng.uniform(0.5, 0.66)
        yield lo, hi, (hi - lo) / 1000.0
        # the steps of the command-line tests, over ranges of up to 300 steps
        step = rng.choice([1e-4, 0.005, 0.01, 0.0105, 0.1, 3e-161])
        lo = step * 10.0 ** rng.uniform(-2.0, 0.5)
        yield lo, min(2.0 / 3.0, lo + step * rng.uniform(1.0, 300.0)), step
        # any scale, subnormal c1_min included, and 1 to 1,000 steps
        lo = 10.0 ** rng.uniform(-323.0, -0.2)
        hi = min(2.0 / 3.0, lo * 10.0 ** rng.uniform(1e-3, 5.0))
        yield lo, hi, (hi - lo) * 10.0 ** rng.uniform(-3.0, 0.0)


def test_scan_grid_is_numpy_arange_bit_for_bit():
    draws = list(scan_draws(21, 1000))
    assert len(draws) == 3000
    wrong = []
    for lo, hi, step in draws:
        assert 0.0 < lo < hi <= 2.0 / 3.0 and 0.0 < step <= hi - lo
        # the call scan_amplification_rate makes, before it appends c1_max
        got = _arange(lo, hi - step / 2.0, step)
        want = np.arange(lo, hi - step / 2.0, step).tolist()
        if list(map(float.hex, got)) != list(map(float.hex, want)):
            wrong.append((lo, hi, step))
    assert wrong == []


def log_grid(lo: float, hi: float, n: int) -> list:
    return RunConfig(t_min=lo, t_max=hi, points=n, spacing="log").time_grid()


@pytest.mark.parametrize("seed", range(4))
def test_log_grid_keeps_its_ends_and_rises_strictly(seed):
    rng = random.Random(seed)
    cases = [(5e-324, 1e308, 50), (1e-300, 1e300, 1000), (0.001, 1000.0, 60)]
    for _ in range(200):
        lo = 10.0 ** rng.uniform(-300.0, 299.0)
        cases.append((lo, lo * 10.0 ** rng.uniform(0.01, 8.0), rng.randint(2, 1000)))
    for lo, hi, n in cases:
        grid = log_grid(lo, hi, n)
        assert len(grid) == n and grid[0] == lo and grid[-1] == hi
        assert all(a < b for a, b in zip(grid, grid[1:])), (lo, hi, n)


def ulps_from_exact(grid: list, lo: float, hi: float) -> float:
    """The largest distance of a grid point from lo (hi/lo)^(i/(n - 1)) at 40
    digits, in ulp of the exact value."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 40
    lo_, ratio, div = mp.mpf(lo), mp.mpf(hi) / mp.mpf(lo), len(grid) - 1
    worst = 0.0
    for i, v in enumerate(grid):
        exact = lo_ * ratio ** (mp.mpf(i) / div)
        worst = max(worst, float(abs(mp.mpf(v) - exact)) / math.ulp(float(exact)))
    return worst


def test_log_grid_is_no_farther_from_the_exact_grid_than_geomspace():
    pytest.importorskip("mpmath")
    rng = random.Random(5)
    # the golden and pinned grids, the benchmark's and any up to 8 decades wide
    cases = [(0.001, 1000.0, 60), (0.001, 1000.0, 1000)]
    for _ in range(60):
        hi = 10.0 ** rng.uniform(0.0, 2.0)
        cases.append((hi * 10.0 ** rng.uniform(-4.0, -2.0), hi, rng.randint(2, 120)))
    for _ in range(150):
        lo = 10.0 ** rng.uniform(-8.0, 4.0)
        cases.append((lo, lo * 10.0 ** rng.uniform(0.01, 8.0), rng.randint(2, 120)))
    ours = [ulps_from_exact(log_grid(lo, hi, n), lo, hi) for lo, hi, n in cases]
    numpy = [ulps_from_exact(np.geomspace(lo, hi, n).tolist(), lo, hi) for lo, hi, n in cases]
    # np.geomspace is nearer on some inputs; no grid of ours is as far as its farthest
    assert max(ours) <= max(numpy)
