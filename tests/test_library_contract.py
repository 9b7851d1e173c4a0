"""The library's contract, over generated arguments of its public functions.

Every call either returns a finite answer inside its physical bounds
(0 <= gamma1 <= gamma2 <= 1, D >= 0, C <= I, t_c >= 0, inf or None), or
raises one of the five xdiscord.errors classes with a message. Arguments are
drawn from zero, tiny, huge, negative, infinite and nan values, from 1e-160,
1e154 and 1e200 in both signs, whose products in pairs and triples leave the
floats, and from ordinary ones. A bare Python error, a nan or a bound broken
fails the property. The defects a wider seeded fuzz of the same calls found,
a critic-time bracket that collapsed and Q(t) squares that underflowed, have
their own regression tests in test_analysis.py and test_reservoir.py.
"""

import math

import pytest

from xdiscord import (
    REGIME_AFTER,
    REGIME_BEFORE,
    REGIME_NONE,
    ConfigError,
    ConvergenceError,
    DecayFactors,
    DomainError,
    InvalidStateError,
    QubitPairConfig,
    ReservoirConfig,
    RootFindError,
    XStateParams,
    amplification_indicator,
    amplification_rate,
    assemble_density,
    critic_time,
    decay_factors,
    discord_analytic,
    discord_bruteforce,
    evolve_x_state,
    protected_discord,
    scan_amplification_rate,
    x_state_from_factors,
)

from helpers import EXTREME_FLOATS

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ERRORS = (ConfigError, ConvergenceError, DomainError, InvalidStateError, RootFindError)
EXTREME = st.sampled_from(EXTREME_FLOATS)
TINY_TO_HUGE = st.sampled_from(sorted(v for v in EXTREME_FLOATS if 0.0 < v < math.inf))
# mostly valid magnitudes, so that most draws reach the deep calls, and now and
# then any extreme float, which the records or the calls must refuse
POSITIVE = st.one_of(TINY_TO_HUGE, st.floats(0.05, 3.0), TINY_TO_HUGE, EXTREME)
FRACTION = st.one_of(st.floats(0.0, 1.0), TINY_TO_HUGE, EXTREME)
REGIMES = (REGIME_BEFORE, REGIME_AFTER, REGIME_NONE)


@st.composite
def correlations(draw):
    """(c1, c2, c3): mostly a state, scaled down to tiny sizes, now and then anything."""
    if draw(st.integers(0, 3)) == 0:
        return tuple(draw(st.one_of(EXTREME, st.floats(-1.0, 1.0))) for _ in range(3))
    c3 = draw(st.floats(-1.0, 1.0))
    outer = draw(st.floats(0.0, 1.0)) * (1.0 + c3) * draw(st.sampled_from([1.0, -1.0]))
    inner = draw(st.floats(0.0, 1.0)) * (1.0 - c3) * draw(st.sampled_from([1.0, -1.0]))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-160, 1e-300, 5e-324]))
    return 0.5 * (inner + outer) * scale, 0.5 * (inner - outer) * scale, c3 * scale


def answer(call, *args):
    """call(*args), or None where it raises one of the package's errors with a message."""
    try:
        return call(*args)
    except ERRORS as exc:
        assert str(exc), call.__name__
        return None


def finite(*values):
    return all(map(math.isfinite, values))


def check_breakdown(b):
    if b is None:
        return
    assert finite(b.mutual_information, b.classical_correlation, b.discord, b.chi), b
    assert b.discord >= 0.0 and b.classical_correlation <= b.mutual_information + 1e-10, b
    assert b.regime in REGIMES, b


@settings(max_examples=300)
@given(c=correlations(), omega=st.tuples(POSITIVE, POSITIVE),
       bath=st.tuples(POSITIVE, POSITIVE, st.one_of(st.just(0.0), POSITIVE)),
       t=st.one_of(POSITIVE, st.just(0.0)), gammas=st.tuples(FRACTION, FRACTION),
       limit=st.booleans(), tc_regime=st.sampled_from(["unknown", "before", "after"]),
       oracle=st.integers(0, 9))
def test_every_call_answers_or_names_its_error(c, omega, bath, t, gammas, limit, tc_regime,
                                               oracle):
    params, res = answer(XStateParams, *c), answer(ReservoirConfig, *bath)
    qubits = answer(QubitPairConfig, *omega)
    if qubits is None:
        return
    given_factors = answer(DecayFactors, *sorted(gammas))
    if params is not None and given_factors is not None:
        x = answer(x_state_from_factors, params, t, qubits, given_factors)
        if x is not None:
            check_breakdown(answer(discord_analytic, x, tc_regime))
    if res is None:
        return
    factors = answer(decay_factors, t, qubits, res, limit)
    if factors is not None:
        assert 0.0 <= factors.gamma1 <= factors.gamma2 <= 1.0, factors
    if params is None:
        return
    found = answer(critic_time, params, qubits, res, limit)
    if found is not None:
        assert found.tc is None or found.tc == math.inf or 0.0 <= found.tc < math.inf, found
    x = answer(evolve_x_state, params, t, qubits, res, limit)
    if x is None:
        return
    assert finite(x.mu, x.nu, x.c3), x
    b = answer(discord_analytic, x, tc_regime)
    check_breakdown(b)
    slope = answer(amplification_indicator, x, params, qubits, res, limit, tc_regime)
    if slope is not None:
        assert finite(slope.f_value, slope.g_value, slope.h_value, slope.d_discord_d_gamma1)
        assert slope.time_slope_sign in (-1, 0, 1), slope
        assert b is None or slope.regime == b.regime, (slope, b)
    if oracle == 0:
        rho = answer(assemble_density, x)
        if rho is not None:
            bf = answer(discord_bruteforce, rho)
            if bf is not None:
                check_breakdown(bf)


@settings(max_examples=150)
@given(c1=st.tuples(*[st.one_of(st.floats(0.0, 2.0 / 3.0), TINY_TO_HUGE, EXTREME)] * 2),
       step=POSITIVE, c=FRACTION, gamma1=FRACTION)
def test_every_amplification_call_answers_or_names_its_error(c1, step, c, gamma1):
    report = answer(amplification_rate, c1[0])
    if report is not None:
        assert report.initial > 0.0 and report.asymptotic >= 0.0, report
        assert finite(report.initial, report.asymptotic, report.rate), report
    scan = answer(scan_amplification_rate, *sorted(c1), step)
    if scan is not None:
        assert finite(*scan.c1, *scan.initial, *scan.asymptotic, *scan.rate), scan
        assert finite(scan.rate_max, scan.c1_at_max) and min(scan.initial) > 0.0, scan
    protected = answer(protected_discord, c, gamma1)
    if protected is not None:
        assert 0.0 <= protected.before_critic <= 1.0 and 0.0 <= protected.after_critic <= 1.0
