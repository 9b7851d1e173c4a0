import math
import re

import numpy as np
import pytest

from xdiscord import (
    REGIME_AFTER,
    REGIME_BEFORE,
    DomainError,
    EvolvedXState,
    InvalidStateError,
    QubitPairConfig,
    ReservoirConfig,
    RootFindError,
    XStateParams,
    amplification_indicator,
    amplification_rate,
    critic_time,
    decay_factors,
    discord_analytic,
    discord_bruteforce,
    evolve_x_state,
    protected_discord,
    scan_amplification_rate,
    x_state_density,
)

import xdiscord.analysis as analysis

from helpers import sample_slope_params, sample_x_params
from oracles import (
    asymptotic_discord_identical,
    critic_time_closed_form_detuned,
    critic_time_closed_form_identical,
    critic_time_reference,
    family_rate_reference,
    initial_discord_identical,
    slope_reference,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

RES0 = ReservoirConfig(1.0, 1.0, 0.0)
IDENTICAL = QubitPairConfig(1.0, 1.0)
DETUNED = QubitPairConfig(2.0, 1.0)


# ---------------------------------------------------------------- critic time


def test_critic_time_matches_closed_form_identical():
    params = XStateParams(0.6, 0.0, 0.4)
    got = critic_time(params, IDENTICAL, RES0)
    want = critic_time_closed_form_identical(0.6, 0.4, 1.0, 1.0, 1.0)
    assert want == pytest.approx(math.sqrt(math.sqrt(3.0) - 1.0), rel=1e-15)
    assert got.tc == pytest.approx(want, rel=1e-9)
    # the defining equation holds at the root
    f = decay_factors(got.tc, IDENTICAL, RES0)
    assert 0.5 * (0.6 * f.gamma1 + 0.6 * f.gamma2) == pytest.approx(0.4, abs=1e-9)


def test_critic_time_detuned_anchor():
    got = critic_time(XStateParams(0.6, 0.0, 0.3), DETUNED, RES0)
    assert got.tc == pytest.approx(0.686827671661149, rel=1e-9)
    f = decay_factors(got.tc, DETUNED, RES0)
    assert 0.5 * 0.6 * (f.gamma1 + f.gamma2) == pytest.approx(0.3, abs=1e-9)


def test_critic_time_none_when_pole_always_wins():
    got = critic_time(XStateParams(0.2, 0.0, 0.5), IDENTICAL, RES0)
    assert got.never_crosses
    assert got.tc is None
    assert not got.is_infinite


def test_critic_time_zero_on_tie():
    got = critic_time(XStateParams(0.5, 0.0, 0.5), IDENTICAL, RES0)
    assert got.tc == 0.0


def test_critic_time_infinite_for_identical_qubits():
    # the inner coherence never decays at r = 1, so the equatorial spread
    # levels off at (c1 + c2)/2 and never reaches a smaller |c3|
    got = critic_time(XStateParams(0.6, 0.0, 0.3), IDENTICAL, RES0)
    assert got.is_infinite
    boundary = critic_time(XStateParams(0.5, 0.0, 0.25), IDENTICAL, RES0)
    assert boundary.is_infinite


def test_critic_time_infinite_branch_holds_at_finite_temperature():
    warm = ReservoirConfig(1.0, 1.0, 0.7)
    assert critic_time(XStateParams(0.6, 0.0, 0.3), IDENTICAL, warm).is_infinite


def test_critic_time_limit_mode_unfreezes_identical_qubits():
    params = XStateParams(1.0, -0.5, 0.5)
    got = critic_time(params, IDENTICAL, RES0, large_detuning_limit=True)
    assert got.tc == pytest.approx(math.sqrt(3.0), rel=1e-9)
    assert got.tc == pytest.approx(
        critic_time_closed_form_detuned(0.5, 1.0, 1.0, 1.0), rel=1e-9
    )


def test_critic_time_shrinks_with_temperature():
    params = XStateParams(0.6, 0.0, 0.3)
    cold = critic_time(params, DETUNED, RES0).tc
    warm = critic_time(params, DETUNED, ReservoirConfig(1.0, 1.0, 0.5)).tc
    assert warm < cold


def test_critic_time_unreachable_within_horizon():
    feeble = ReservoirConfig(1e-9, 1.0, 0.0)
    with pytest.raises(RootFindError):
        critic_time(XStateParams(0.4, 0.0, 0.3999), DETUNED, feeble)


def test_critic_time_searches_up_to_the_horizon():
    # a crossing at 7e5 / w_c, inside the horizon omega_c t = 1e6, is answered
    params = XStateParams(1.0, -0.5, 0.5)

    def eta_crossing_at(omega_c_tc):
        return 2.0 * math.log(2.0) / math.log1p(omega_c_tc**2)

    eta = eta_crossing_at(7e5)
    want = critic_time_closed_form_detuned(0.5, eta, 1.0, 1.0)
    assert want == pytest.approx(7e5, rel=1e-9)
    got = critic_time(
        params, IDENTICAL, ReservoirConfig(eta, 1.0, 0.0), large_detuning_limit=True
    )
    assert got.tc == pytest.approx(want, rel=1e-9)
    # and no further
    late = ReservoirConfig(eta_crossing_at(1.1e6), 1.0, 0.0)
    with pytest.raises(RootFindError):
        critic_time(params, IDENTICAL, late, large_detuning_limit=True)


def test_critic_time_refuses_past_the_horizon_when_warm():
    # at T > 0 the horizon is checked on Q(t) itself, not on the T = 0 answer
    feeble = ReservoirConfig(1e-9, 1.0, 1e-3)
    with pytest.raises(RootFindError, match=r"omega_c t = 1e\+06.*\(eta, omega_c, T\)"):
        critic_time(XStateParams(0.4, 0.0, 0.3999), DETUNED, feeble)


def test_critic_time_refuses_where_the_lower_bracket_underflows():
    # |c3| one ulp below the start and (omega_a + omega_b)^2 = 9e298 put
    # Q(t_c) = 2.2e-315 below the normal floats, where the lower bracket end
    # once rounded to 0. Taken in logs it answers 4.71e-163, 22.5 % off a
    # small-y mpmath referee (6.08e-163): too few digits are left for t_c
    params = XStateParams(0.3, 0.0, math.nextafter(0.3, 0.0))
    with pytest.raises(RootFindError, match=r"^Q\(t_c\) = -ln\(gamma1\)/a1 = 2\.2\d*e-315 at "
                       r"a1 = 9e\+298 is below the normal floats, too few digits for t_c; .*"
                       r"\(eta, omega_c, T\)=\(1\.0, 1\.0, 10000000000\.0\)$"):
        critic_time(params, QubitPairConfig(2e149, 1e149), ReservoirConfig(1.0, 1.0, 1e10))


def test_critic_time_refuses_a_bare_time_below_the_float_range():
    # omega_c t_c is an ordinary number; t_c = (omega_c t_c)/omega_c underflows
    with pytest.raises(RootFindError, match=r"^t_c = \S+ falls below the float range: at "
                       r"omega_c=1e\+300 the bare time underflows; \(c1, c2, c3\)="):
        critic_time(XStateParams(0.6, 0.0, 0.3), DETUNED, ReservoirConfig(1e300, 1e300, 0.0))


def test_critic_time_where_the_bracket_product_underflows():
    # eta omega_c (omega_c/2 + T) = 1e-460 underflows to 0: the lower bracket end is
    # taken in logs. The referee's thermal part cancels 300 digits at w = 1e300
    params, res = XStateParams(0.6, 0.0, 0.3), ReservoirConfig(1e-160, 1e-300, 1.0)
    tau = res.omega_c * critic_time(params, DETUNED, res).tc
    assert tau == pytest.approx(4.3956803157280046e-71, rel=1e-15)
    want = critic_time_reference(params, DETUNED, res, False, tau)
    assert abs(tau - want) <= 1e-13 * want


def test_critic_time_referee_never_returns_a_wrong_root_silently():
    # at w = 1 + T/omega_c = 1e140 the spread and |c3| are about 1e-300, below the
    # referee's absolute root tolerance, and it once returned its bracket end, 0.5 off:
    # it must raise by name or hold a 260-digit bisection of the crossing to 1e-13
    mpmath = pytest.importorskip("mpmath")
    params, qubits = XStateParams(0.6, 1e-300, 1e-300), QubitPairConfig(1e154, 1.0)
    res = ReservoirConfig(1e-300, 1e-300, 1e-160)
    tau = res.omega_c * critic_time(params, qubits, res).tc
    mp = mpmath.mp.clone()
    mp.dps = 260
    f = mp.mpf
    c1, c2, c3 = (f(v) for v in params)
    a1, a2 = ((f(qubits.omega_a) + s * f(qubits.omega_b)) ** 2 for s in (1, -1))
    eta, omega_c, temperature = (f(v) for v in res)
    w = 1 + temperature / omega_c

    def above(tau):
        q = eta * (mp.log1p(tau * tau) / 2 + 2 * mp.loggamma(w)
                   - 2 * mp.re(mp.loggamma(mp.mpc(w, temperature * tau / omega_c))))
        return abs(c1 - c2) * mp.exp(-a1 * q) + abs(c1 + c2) * mp.exp(-a2 * q) > 2 * abs(c3)

    lo, hi = f(tau) / 2, 2 * f(tau)
    assert above(lo) and not above(hi)
    while hi - lo > 1e-30 * hi:
        lo, hi = ((lo + hi) / 2, hi) if above((lo + hi) / 2) else (lo, (lo + hi) / 2)
    assert abs(tau - hi) <= 1e-13 * hi
    try:
        got = critic_time_reference(params, qubits, res, False, tau)
    except ArithmeticError as exc:
        assert "(c1, c2, c3)=(0.6, 1e-300, 1e-300)" in str(exc)
    else:
        assert abs(got - hi) <= 1e-13 * hi


@pytest.mark.parametrize("params, qubits, res", [
    (XStateParams(0.6, 0.0, 0.3), QubitPairConfig(1.5, 1.0),
     ReservoirConfig(1.311836112231675e+35, 38.25143337376783, 1.4243413229540312e-15)),
    (XStateParams(0.5, -0.2, 0.25), QubitPairConfig(3.0, 1.0),
     ReservoirConfig(7.048103215388493e+26, 0.0016112205074779546, 4.031945104627772e-20)),
    (XStateParams(0.5, -0.2, 0.25), QubitPairConfig(3.0, 1.0),
     ReservoirConfig(5.116786429092218e+28, 0.010269889770677, 1.5441469452075859e-19)),
])
def test_critic_time_where_the_lower_bracket_end_reaches_q_star(params, qubits, res):
    # at a tiny omega_c t_c and T << omega_c the bound Q <= eta omega_c t^2 (omega_c/2 + T)
    # is tight: lo rounds onto hi, or Q(lo) rounds onto q* or past it, and the first
    # secant step divided by zero; 159 of 3,000 strong-coupling draws crashed so
    tau = res.omega_c * critic_time(params, qubits, res).tc
    want = critic_time_reference(params, qubits, res, False, tau)
    assert abs(tau - want) <= 1e-13 * want


def test_critic_time_near_a_tie_at_a_tiny_temperature():
    # xdiscord critic-time --c1 0.11 --c2 0.09 --c3 0.11 --ratio 3 -T 1e-16 crashed the
    # same way; a thermal part (T/omega_c)^2 ~ 1e-32 the size of Q leaves the T = 0 answer
    params, qubits = XStateParams(0.11, 0.09, 0.11), QubitPairConfig(3.0, 1.0)
    warm = critic_time(params, qubits, ReservoirConfig(1.0, 1.0, 1e-16)).tc
    cold = critic_time(params, qubits, ReservoirConfig(1.0, 1.0, 0.0)).tc
    assert abs(warm - cold) <= 1e-13 * cold


def _crossing_draw(rng):
    """A state, a qubit pair and a limit flag whose branches cross at a finite time."""
    while True:
        params = sample_x_params(rng)
        detuned = QubitPairConfig(float(rng.uniform(1.05, 4.0)), 1.0)
        qubits = detuned if rng.random() < 0.7 else IDENTICAL
        limit = bool(rng.random() < 0.25)
        if _crosses(params, qubits, limit):
            return params, qubits, limit


def _crosses(params, qubits, limit):
    # the equatorial spread starts above |c3| and decays below it
    floor = 0.5 * abs(params.c1 + params.c2) if qubits.identical and not limit else 0.0
    return floor < abs(params.c3) < max(abs(params.c1), abs(params.c2))


def test_critic_time_matches_a_40_digit_referee(rng):
    # identical qubits (kappa = 0, closed form), detuned ones (Newton in
    # ln gamma1) and the large-detuning limit (kappa = 1, closed form), at
    # T = 0 (closed-form inverse of Q) and T > 0 (root of Q); eta from 1e-2 to
    # 1e6 spreads omega_c t_c over about 1e-4 .. 1e5
    pytest.importorskip("mpmath")
    taus, worst, routes = [], 0.0, set()
    while len(taus) < 160:
        params, qubits, limit = _crossing_draw(rng)
        eta = float(10.0 ** rng.uniform(-2.0, 6.0))
        omega_c = float(10.0 ** rng.uniform(-1.0, 1.0))
        temperature = 0.0 if len(taus) % 2 else float(omega_c * 10.0 ** rng.uniform(-2.0, 0.5))
        res = ReservoirConfig(eta, omega_c, temperature)
        try:
            tau = omega_c * critic_time(params, qubits, res, limit).tc
        except RootFindError:
            continue  # past the horizon at weak coupling
        want = critic_time_reference(params, qubits, res, limit, tau)
        worst = max(worst, float(abs(tau - want) / want))
        taus.append(tau)
        kind = "limit" if limit else ("identical" if qubits.identical else "detuned")
        routes.add((kind, temperature > 0.0))
    assert worst <= 1e-13
    assert min(taus) < 1e-3 and max(taus) > 1e4
    assert len(routes) == 6  # (identical, detuned, limit) x (cold, warm)


def test_critic_time_evaluates_q_sparingly(rng, monkeypatch):
    # an answered T = 0 query inverts Q in closed form; a warm one evaluates
    # it at the two bracket ends and a few secant points: at most 14 over
    # 12,000 solves with eta over 1e-3 .. 1e6 and T/omega_c over 1e-6 .. 1e4
    evaluations = []
    kernel = analysis._exponent_kernel

    def counting_kernel(res):
        q = kernel(res)

        def counted(t):
            evaluations[-1] += 1
            return q(t)

        return counted

    monkeypatch.setattr(analysis, "_exponent_kernel", counting_kernel)
    worst = {False: 0, True: 0}
    for i in range(1200):
        params, qubits, limit = _crossing_draw(rng)
        omega_c = float(10.0 ** rng.uniform(-1.0, 1.0))
        temperature = float(omega_c * 10.0 ** rng.uniform(-3.0, 1.0)) if i % 2 else 0.0
        res = ReservoirConfig(float(10.0 ** rng.uniform(-2.0, 0.3)), omega_c, temperature)
        evaluations.append(0)
        try:
            critic_time(params, qubits, res, limit)
        except RootFindError:
            continue
        warm = temperature > 0.0
        worst[warm] = max(worst[warm], evaluations[-1])
    assert worst[False] == 0
    assert 0 < worst[True] <= 20


@st.composite
def crossing_cases(draw):
    # valid X family: |c1 - c2| <= 1 + c3 and |c1 + c2| <= 1 - c3
    c3 = draw(st.floats(-0.99, 0.99))
    outer = draw(st.floats(0.0, 1.0)) * (1.0 + c3)
    inner = draw(st.floats(0.0, 1.0)) * (1.0 - c3)
    s_outer, s_inner = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
    try:
        params = XStateParams(0.5 * (s_inner * inner + s_outer * outer),
                              0.5 * (s_inner * inner - s_outer * outer), c3)
    except InvalidStateError:
        assume(False)  # rounding pushed a boundary draw out of the family
    qubits = QubitPairConfig(draw(st.one_of(st.just(1.0), st.floats(1.0, 4.0))), 1.0)
    limit = draw(st.booleans())
    assume(_crosses(params, qubits, limit))
    return params, qubits, limit


@settings(max_examples=100)
@given(
    case=crossing_cases(),
    etas=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)).map(sorted),
    temperatures=st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
                           st.floats(0.0, 3.0)).map(sorted),
    omega_c=st.floats(0.2, 5.0),
)
def test_critic_time_never_grows_with_coupling_or_temperature(case, etas, temperatures, omega_c):
    # Q(t) grows with eta and with T, so the crossing comes no later
    params, qubits, limit = case

    def tc(eta, temperature):
        try:
            res = ReservoirConfig(eta, omega_c, temperature)
            return critic_time(params, qubits, res, limit).tc
        except RootFindError:
            return math.inf  # past the horizon

    (eta_lo, eta_hi), (t_lo, t_hi) = etas, temperatures
    base = tc(eta_lo, t_lo)
    assume(base < math.inf)
    assert tc(eta_hi, t_lo) <= base * (1.0 + 1e-12)
    assert tc(eta_lo, t_hi) <= base * (1.0 + 1e-12)


def test_closed_form_identical_domain():
    with pytest.raises(DomainError):
        critic_time_closed_form_identical(0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        critic_time_closed_form_identical(0.7, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        critic_time_closed_form_identical(0.6, 0.2, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        critic_time_closed_form_identical(0.6, 0.65, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        critic_time_closed_form_identical(0.6, 0.4, -1.0, 1.0, 1.0)


def test_closed_form_identical_boundaries():
    assert critic_time_closed_form_identical(0.6, 0.3, 1.0, 1.0, 1.0) == math.inf
    assert critic_time_closed_form_identical(0.6, 0.6, 1.0, 1.0, 1.0) == 0.0


def test_closed_forms_overflow_to_inf_at_weak_coupling():
    # omega_c t_c = sqrt(base^power - 1) leaves the float range; inf, not OverflowError
    assert critic_time_closed_form_identical(0.6, 0.45, 1e-4, 1.0, 1.0) == math.inf
    assert critic_time_closed_form_detuned(0.5, 1e-3, 1.0, 1.0) == math.inf
    assert critic_time_closed_form_identical(0.6, 0.45, 1e-3, 1.0, 1.0) == pytest.approx(
        1.8092513943330656e75, rel=1e-12
    )


def test_closed_form_detuned_monotone_and_domain():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    tcs = [critic_time_closed_form_detuned(c, 1.0, 1.0, 1.0) for c in grid]
    assert all(a > b for a, b in zip(tcs, tcs[1:]))
    for bad in (0.0, 1.0, -1.0, 2.0):
        with pytest.raises(DomainError):
            critic_time_closed_form_detuned(bad, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        critic_time_closed_form_detuned(0.5, 0.0, 1.0, 1.0)


# -------------------------------------------------------------- amplification


def test_asymptotic_discord_peak_family_value():
    assert asymptotic_discord_identical(2.0 / 3.0) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_asymptotic_discord_matches_late_time_snapshot():
    # at r = 1 the outer coherence dies and the inner one survives intact,
    # so the t -> inf state of the (c1, 0, c1/2) family is explicit
    for c1 in (0.1, 0.3, 0.5, 2.0 / 3.0):
        limit = EvolvedXState(
            mu=0.0, nu=c1, delta1=0.0, delta2=0.0, c3=c1 / 2.0, t=1.0
        )
        assert asymptotic_discord_identical(c1) == pytest.approx(
            discord_analytic(limit).discord, abs=1e-12
        )


def test_initial_discord_anchor_and_consistency():
    assert initial_discord_identical(0.6) == pytest.approx(
        0.11169558864163881, abs=1e-15
    )
    x0 = EvolvedXState(mu=0.6, nu=0.6, delta1=0.0, delta2=0.0, c3=0.3, t=0.0)
    assert initial_discord_identical(0.6) == pytest.approx(
        discord_analytic(x0).discord, abs=1e-12
    )
    bf = discord_bruteforce(x_state_density(XStateParams(0.6, 0.0, 0.3)))
    assert initial_discord_identical(0.6) == pytest.approx(bf.discord, abs=1e-6)


def test_family_parameter_window():
    for fn in (asymptotic_discord_identical, initial_discord_identical):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(0.67)


def test_amplification_rate_report():
    rep = amplification_rate(0.32838941175375813)
    assert rep.rate == pytest.approx(2.1768496156926975, rel=1e-12)
    assert rep.rate == pytest.approx(rep.asymptotic / rep.initial, rel=1e-15)
    assert rep.initial > 0.0 and rep.asymptotic > rep.initial


@pytest.mark.parametrize("c1", [0.0, -0.1, 0.67, math.nan])
def test_amplification_rate_refuses_c1_off_the_family(c1):
    with pytest.raises(DomainError, match=rf"^c1={re.escape(repr(c1))} outside \(0, 2/3\]; "):
        amplification_rate(c1)


def test_amplification_scan_default():
    scan = scan_amplification_rate()
    assert 2.12 < scan.rate_max < 2.22
    assert scan.c1_at_max == pytest.approx(0.3284, abs=2e-3)
    assert scan.rate_max >= max(scan.rate)
    # the late-time discord grows monotonically with c1
    assert np.all(np.diff(scan.asymptotic) > 0.0)
    # amplification never drops below one on the family
    assert min(scan.rate) > 1.0
    # the rate tends to 2 as c1 -> 0
    assert scan.rate[0] == pytest.approx(2.0, abs=1e-3)


def test_amplification_scan_domain():
    with pytest.raises(DomainError):
        scan_amplification_rate(0.5, 0.3)
    with pytest.raises(DomainError):
        scan_amplification_rate(0.1, 0.7)


@pytest.mark.parametrize(
    "step, shown",
    [
        (0.0, r"^step=0\.0 must be a positive finite float$"),  # was a ZeroDivisionError
        (math.nan, r"^step=nan must be a positive finite float$"),  # was a bare ValueError
        (math.inf, r"^step=inf must be a positive finite float$"),
        (-1e-3, r"^step=-0\.001 must be a positive finite float$"),  # was a one-row scan
        # was a list grown until memory ran out
        (1e-300, r"^step=1e-300 gives a scan of 5\.999e\+299 rows, more than the 1000000 "
                 r"allowed$"),
    ],
    ids=["zero", "nan", "inf", "negative", "tiny"],
)
def test_amplification_scan_refuses_a_bad_step(step, shown):
    with pytest.raises(DomainError, match=shown):
        scan_amplification_rate(1e-4, 0.6, step)


def test_amplification_scan_shares_the_command_line_row_limit(monkeypatch):
    # one limit, which the command line refuses its tables by before the scan runs
    from xdiscord import cli

    assert analysis._MAX_ROWS is cli._MAX_ROWS
    monkeypatch.setattr(analysis, "_MAX_ROWS", 40)
    with pytest.raises(DomainError, match=r"^step=0\.01 gives a scan of 42 rows"):
        scan_amplification_rate(0.1, 0.5, 0.01)
    assert len(scan_amplification_rate(0.1, 0.5, 0.0105).c1) <= 40


@pytest.mark.parametrize("c1_min", [5e-324])
def test_amplification_scan_refuses_discord_lost_to_rounding(c1_min):
    # D(0) rounds to 0 where c1^2 underflows (the rate read nan)
    with pytest.raises(DomainError, match=r"at c1=.*rate undefined"):
        scan_amplification_rate(c1_min, 0.5, 0.1)


def test_amplification_rate_refuses_a_subnormal_initial_discord():
    # D(0) = 1.8e-317 is subnormal: the rate read 1.99999945 where it is 2
    with pytest.raises(DomainError, match=r"initial discord 1\.8\d*e-317 underflowed at "
                       r"c1=1e-158; rate undefined"):
        amplification_rate(1e-158)
    with pytest.raises(DomainError, match=r"at c1=1e-154;"):
        scan_amplification_rate(1e-154, 1e-150, 1e-151)
    # D(0) is normal from c1 ~ 1e-154 on, and every rate keeps its digits
    for c1 in np.geomspace(1e-150, 1e-100, 51).tolist():
        rate = amplification_rate(c1).rate
        assert abs(rate - family_rate_reference(c1)) <= 1e-13 * rate


def test_amplification_scan_keeps_small_c1_accurate():
    # the closed forms cancelled here: D(0) rounded below 0 at c1 = 1e-9
    scan = scan_amplification_rate(1e-9, 0.5, 0.1)
    for c1, d0, dinf, rate in zip(scan.c1, scan.initial, scan.asymptotic, scan.rate):
        assert rate == dinf / d0
        assert abs(rate - family_rate_reference(c1)) <= 1e-13 * rate
    assert scan.rate[0] == pytest.approx(2.0, abs=1e-8)


# ------------------------------------------------------------ slope indicator


def _slope_by_finite_difference(params, qubits, x, regime, step=1e-6):
    """Central difference of D with respect to gamma1 at fixed branch."""
    ratio = (qubits.r - 1.0) / (qubits.r + 1.0)
    kappa = ratio * ratio
    gamma1 = x.mu / (params.c1 - params.c2)
    vals = []
    for g in (gamma1 + step, gamma1 - step):
        xp = EvolvedXState(
            mu=(params.c1 - params.c2) * g,
            nu=(params.c1 + params.c2) * g**kappa,
            delta1=x.delta1,
            delta2=x.delta2,
            c3=params.c3,
            t=x.t,
        )
        vals.append(discord_analytic(xp, tc_regime=regime).discord)
    return (vals[0] - vals[1]) / (2.0 * step)


@pytest.mark.parametrize("regime", ["before", "after"])
def test_indicator_matches_finite_difference(regime):
    params = XStateParams(0.6, 0.1, 0.3)
    t = 0.4 if regime == "before" else 1.6
    x = evolve_x_state(params, t, DETUNED, RES0)
    ind = amplification_indicator(
        x, params, DETUNED, RES0, tc_regime=regime
    )
    fd = _slope_by_finite_difference(params, DETUNED, x, regime)
    assert ind.d_discord_d_gamma1 == pytest.approx(fd, rel=1e-5)
    if regime == "before":
        assert ind.d_discord_d_gamma1 == pytest.approx(
            ind.f_value + ind.g_value, rel=1e-15
        )
    else:
        assert ind.d_discord_d_gamma1 == ind.g_value


def test_indicator_signs_over_sampled_states(rng):
    for _ in range(40):
        params = sample_slope_params(rng)
        r = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        qubits = QubitPairConfig(r, 1.0)
        t = float(rng.uniform(0.05, 2.0))
        x = evolve_x_state(params, t, qubits, RES0)
        ind = amplification_indicator(x, params, qubits, RES0)
        assert ind.f_value < 0.0
        assert ind.g_value > 0.0
        expected_h = x.nu / decay_factors(t, qubits, RES0).gamma1 * (
            (r - 1.0) / (r + 1.0)
        ) ** 2
        assert ind.h_value == pytest.approx(expected_h, rel=1e-12, abs=1e-300)
        assert ind.time_slope_sign == -int(np.sign(ind.d_discord_d_gamma1))


# (2, 1) and three pairs near w_a = w_b, where a kappa from the rounded
# r = w_a/w_b was off by up to 1.5e-4 relative and G by 1.5e-10
SLOPE_PAIRS = {"": (2.0, 1.0), "-3(1+1e-6),3": (3.0 * (1.0 + 1e-6), 3.0),
               "-3(1+1e-10),3": (3.0 * (1.0 + 1e-10), 3.0),
               "-0.7(1+1e-3),0.7": (0.7 * (1.0 + 1e-3), 0.7)}


@pytest.mark.parametrize("scale, pair", [
    pytest.param(scale, pair, id=f"{scale}{label}")
    for label, pair in SLOPE_PAIRS.items() for scale in (1.0, 1e-4, 1e-8, 1e-12, 1e-15)
])
def test_indicator_matches_the_60_digit_slope(scale, pair):
    # the log2 of ratios near 1 that phi' replaced was off by 1.1e-3 relative
    # at scale 1e-12, and at 1e-15 gave 30 of these 300 time_slope_signs wrongly
    rng = np.random.default_rng(11)
    qubits, res = QubitPairConfig(*pair), ReservoirConfig(0.3, 1.0, 0.0)
    for _ in range(300):
        p = sample_slope_params(rng)
        params = XStateParams(scale * p.c1, scale * p.c2, scale * p.c3)
        t = float(rng.uniform(0.01, 5.0))
        x = evolve_x_state(params, t, qubits, res)
        ind = amplification_indicator(x, params, qubits, res)
        f, g, h = slope_reference(x, params, qubits, decay_factors(t, qubits, res).gamma1)
        assert abs(ind.f_value - f) <= 1e-13 * abs(f)
        assert abs(ind.g_value - g) <= 1e-13 * abs(g)
        assert abs(ind.h_value - h) <= 1e-13 * abs(h)
        slope = g if ind.regime == REGIME_AFTER else f + g
        # F < 0 < G may cancel: the sum is held to the parts' size, and its
        # sign is the exact one where the slope is beyond that bound
        assert abs(ind.d_discord_d_gamma1 - slope) <= 1e-13 * (abs(f) + abs(g))
        if abs(slope) > 1e-12 * (abs(f) + abs(g)):
            assert ind.time_slope_sign == (-1 if slope > 0 else 1)


def test_indicator_identical_qubits_have_flat_inner_slope():
    params = XStateParams(0.6, 0.0, 0.3)
    x = evolve_x_state(params, 0.9, IDENTICAL, RES0)
    ind = amplification_indicator(x, params, IDENTICAL, RES0)
    assert ind.h_value == 0.0
    assert ind.regime == REGIME_BEFORE


def test_indicator_limit_mode_uses_unit_power():
    params = XStateParams(1.0, -0.5, 0.5)
    x = evolve_x_state(params, 0.7, IDENTICAL, RES0, large_detuning_limit=True)
    ind = amplification_indicator(
        x, params, IDENTICAL, RES0, large_detuning_limit=True
    )
    g1 = decay_factors(
        0.7, IDENTICAL, RES0, large_detuning_limit=True
    ).gamma1
    assert ind.h_value == pytest.approx(x.nu / g1, rel=1e-14)


def test_indicator_zero_time_has_zero_sign():
    params = XStateParams(0.5, 0.1, 0.2)
    x = evolve_x_state(params, 0.0, DETUNED, RES0)
    ind = amplification_indicator(x, params, DETUNED, RES0)
    assert ind.time_slope_sign == 0


def test_indicator_forced_regime_selects_branch():
    params = XStateParams(0.6, 0.1, 0.3)
    x = evolve_x_state(params, 0.4, DETUNED, RES0)
    before = amplification_indicator(x, params, DETUNED, RES0, tc_regime="before")
    after = amplification_indicator(x, params, DETUNED, RES0, tc_regime="after")
    assert before.regime == REGIME_BEFORE
    assert after.regime == REGIME_AFTER
    assert before.d_discord_d_gamma1 != after.d_discord_d_gamma1
    with pytest.raises(DomainError):
        amplification_indicator(x, params, DETUNED, RES0, tc_regime="later")


def test_indicator_rejects_underflowed_decay():
    params = XStateParams(0.6, 0.1, 0.3)
    strong = ReservoirConfig(30.0, 1.0, 0.0)
    x = evolve_x_state(params, 1e3, DETUNED, strong)
    with pytest.raises(DomainError):
        amplification_indicator(x, params, DETUNED, strong)


def test_indicator_rejects_vanishing_spectrum():
    params = XStateParams(1.0, -1.0, 1.0)
    x = evolve_x_state(params, 0.5, DETUNED, RES0)
    with pytest.raises(DomainError):
        amplification_indicator(x, params, DETUNED, RES0)


# ------------------------------------------------------------------ protection


def test_protected_discord_anchor():
    got = protected_discord(0.5, 0.9)
    assert got.before_critic == pytest.approx(0.18872187554086717, abs=1e-15)


def test_protected_discord_branches_meet_at_critic_point():
    got = protected_discord(0.5, 0.5)
    assert got.after_critic == got.before_critic


def test_protected_discord_tail():
    assert protected_discord(0.5, 0.0).after_critic == 0.0
    assert protected_discord(0.5, 1.0).after_critic == pytest.approx(1.0)


def test_protected_discord_domain():
    for c in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(DomainError):
            protected_discord(c, 0.5)
    for g in (-0.1, 1.1):
        with pytest.raises(DomainError):
            protected_discord(0.5, g)
