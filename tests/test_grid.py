"""The time-grid route of decay_factors -> x_state_from_factors -> discord_analytic.

Each of the three takes a 1-D array of times as well as a float. The grid
route must give, cell by cell, the bits the scalar route gives, and its
checks must raise the same error type at the same inputs, naming the
first offending t.
"""

import math

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

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

QUBITS = QubitPairConfig(2.0, 1.0)
RES = ReservoirConfig(0.7, 1.0, 0.2)
PARAMS = XStateParams(0.6, 0.0, 0.3)


def grid_route(params, t, qubits, res, large_detuning):
    # identical qubits at t = inf have delta2 = 0 * inf = nan, as a float product gives
    with np.errstate(invalid="ignore"):
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
    return params, qubits, res, draw(st.booleans()), np.array(times)


@settings(max_examples=150, deadline=None, database=None)
@given(runs())
def test_grid_route_equals_scalar_route_cell_by_cell(run):
    params, qubits, res, large_detuning, t = run
    grid = grid_route(params, t, qubits, res, large_detuning)
    grid_cells = cells(*grid)
    for i, ti in enumerate(t.tolist()):
        f = decay_factors(ti, qubits, res, large_detuning)
        x = evolve_x_state(params, ti, qubits, res, large_detuning)
        b = discord_analytic(x)
        for name, value in cells(f, x, b).items():
            # repr tells -0.0 from 0.0, and nan (delta2 = 0 * inf) from a number
            assert repr(float(grid_cells[name][i])) == repr(float(value)), (name, ti)
        assert grid[2].regime[i] == b.regime


@settings(max_examples=150, deadline=None, database=None)
@given(runs())
def test_correlations_stay_within_their_bounds(run):
    params, qubits, res, large_detuning, t = run
    b = grid_route(params, t, qubits, res, large_detuning)[2]
    # C rounds below 0 for small spreads (-8e-17 at chi = 1e-16), so D may top I by that
    assert np.all(b.discord >= 0.0)
    assert np.all(b.discord <= b.mutual_information + 1e-15)
    assert np.all(b.classical_correlation <= b.mutual_information + 1e-15)


def test_one_point_grid_gives_the_scalar_types():
    b = discord_analytic(evolve_x_state(PARAMS, 1.2, QUBITS, RES))
    grid = discord_analytic(evolve_x_state(PARAMS, np.array([1.2]), QUBITS, RES))
    assert isinstance(b.discord, float) and isinstance(b.regime, str)
    assert grid.discord.shape == (1,) and grid.regime.tolist() == [b.regime]


def test_negative_time_names_the_first_one():
    t = np.array([0.0, 1.0, -2.0, -3.0])
    with pytest.raises(InvalidStateError, match=r"t=-2\.0 must be nonnegative"):
        evolve_x_state(PARAMS, t, QUBITS, RES)
    with pytest.raises(InvalidStateError):
        evolve_x_state(PARAMS, -2.0, QUBITS, RES)


def test_nan_time_fails_the_decay_factor_check_at_that_time():
    t = np.array([0.5, math.nan, 2.0])
    with pytest.raises(InvalidStateError, match=r"violate .* at t=nan"):
        decay_factors(t, QUBITS, RES)
    with pytest.raises(InvalidStateError, match=r"violate"):
        decay_factors(math.nan, QUBITS, RES)


def test_decay_factor_ordering_names_the_first_bad_time():
    with pytest.raises(InvalidStateError, match=r"\(0\.9, 0\.5\) violate .* at t=2\.0"):
        DecayFactors(np.array([0.5, 0.9, 0.9]), np.array([0.6, 0.5, 0.4]),
                     np.array([1.0, 2.0, 3.0]))


def test_eigenvalue_floor_names_the_first_bad_time():
    mu = np.array([0.2, 1.5, 1.6])
    zeros = np.zeros(3)
    with pytest.raises(InvalidStateError, match=r"negative eigenvalue .* at t=1\.0"):
        EvolvedXState(mu=mu, nu=zeros, delta1=zeros, delta2=zeros, c3=0.0,
                      t=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(InvalidStateError, match=r"negative eigenvalue"):
        EvolvedXState(mu=1.5, nu=0.0, delta1=0.0, delta2=0.0, c3=0.0, t=1.0)


def test_breakdown_checks_name_the_first_bad_time():
    t = np.array([0.0, 1.0, 2.0])
    info = np.array([0.5, 0.5, 0.5])
    with pytest.raises(InvalidStateError, match=r"must equal I - C .* at t=1\.0"):
        DiscordBreakdown(info, np.array([0.2, 0.2, 0.2]), np.array([0.3, 0.1, 0.3]),
                         np.zeros(3), np.array(["after-critic"] * 3), t)
    with pytest.raises(InvalidStateError, match=r"outside \[0, I=0\.5\] at t=2\.0"):
        DiscordBreakdown(info, np.array([0.2, 0.2, 0.7]), np.array([0.3, 0.3, -0.2]),
                         np.zeros(3), np.array(["after-critic"] * 3), t)


def test_spectrum_check_keeps_the_order_of_the_builtin_min():
    # min() over the spectrum kept a nan in front and skipped a later one, so a
    # nan mu passes while a nan nu does not hide a negative outer eigenvalue
    zero = np.zeros(2)
    EvolvedXState(mu=math.nan, nu=1.5, delta1=0.0, delta2=0.0, c3=0.0, t=0.0)
    EvolvedXState(mu=np.array([0.1, math.nan]), nu=np.array([0.1, 1.5]), delta1=zero,
                  delta2=zero, c3=0.0, t=zero)
    with pytest.raises(InvalidStateError):
        EvolvedXState(mu=1.5, nu=math.nan, delta1=0.0, delta2=0.0, c3=0.0, t=0.0)
    with pytest.raises(InvalidStateError, match=r"at t=1\.0"):
        EvolvedXState(mu=np.array([0.1, 1.5]), nu=np.array([0.1, math.nan]), delta1=zero,
                      delta2=zero, c3=0.0, t=np.array([0.0, 1.0]))
