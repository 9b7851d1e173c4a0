import math

import numpy as np
import pytest

from xdiscord import (
    REGIME_AFTER,
    REGIME_BEFORE,
    DomainError,
    EvolvedXState,
    QubitPairConfig,
    ReservoirConfig,
    RootFindError,
    XStateParams,
    amplification_indicator,
    amplification_rate,
    asymptotic_discord_identical,
    critic_time,
    critic_time_closed_form_detuned,
    critic_time_closed_form_identical,
    decay_factors,
    discord_analytic,
    discord_bruteforce,
    evolve_x_state,
    initial_discord_identical,
    protected_discord,
    scan_amplification_rate,
    x_state_density,
)

from helpers import sample_slope_params

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
    assert got.method == "root-find"
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
    # the doubling bracket passes 2^19 / w_c; a crossing at 7e5 / w_c lies
    # beyond it but inside the default horizon t_max = 1e6 / w_c
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
    with pytest.raises(RootFindError):
        critic_time(XStateParams(0.6, 0.0, 0.3), DETUNED, RES0, t_max=0.5)


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


def test_amplification_scan_default():
    scan = scan_amplification_rate()
    assert 2.12 < scan.rate_max < 2.22
    assert scan.c1_at_max == pytest.approx(0.3284, abs=2e-3)
    assert scan.rate_max >= scan.rate.max()
    # the late-time discord grows monotonically with c1
    assert np.all(np.diff(scan.asymptotic) > 0.0)
    # amplification never drops below one on the family
    assert scan.rate.min() > 1.0
    # the rate tends to 2 as c1 -> 0
    assert scan.rate[0] == pytest.approx(2.0, abs=1e-3)


def test_amplification_scan_domain():
    with pytest.raises(DomainError):
        scan_amplification_rate(0.5, 0.3)
    with pytest.raises(DomainError):
        scan_amplification_rate(0.1, 0.7)


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
