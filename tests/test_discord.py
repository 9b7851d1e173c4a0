import math
import tracemalloc

import numpy as np
import pytest

from xdiscord import (
    REGIME_AFTER,
    REGIME_BEFORE,
    REGIME_NONE,
    DiscordBreakdown,
    DomainError,
    EvolvedXState,
    InvalidStateError,
    QubitPairConfig,
    ReservoirConfig,
    XStateParams,
    assemble_density,
    classical_correlation_value,
    discord_analytic,
    discord_bruteforce,
    evolve_x_state,
    x_state_density,
)
from xdiscord.discord import (
    _SCAN_CHUNK,
    _bloch_blocks,
    _conditional_entropies,
    _conditional_spread,
    _scan_minimum,
)
from xdiscord.states import EIGENVALUE_FLOOR, TwoQubitDensity

from helpers import sample_x_params
from oracles import conditional_entropies_reference, measurement_spread_reference


def frozen_state(mu, nu, c3, delta1=0.0, delta2=0.0, t=0.0):
    return EvolvedXState(mu=mu, nu=nu, delta1=delta1, delta2=delta2, c3=c3, t=t)


def x_state_eigenvalues(x: EvolvedXState):
    # the dense eigensolver, independent of the (1 +/- c3 -/+ mu or nu)/4 closed form
    return np.linalg.eigvalsh(assemble_density(x).entries)


def test_x_state_eigenvalues_anchor():
    lam = x_state_eigenvalues(frozen_state(0.6, 0.6, 0.3))
    np.testing.assert_allclose(lam, [0.025, 0.175, 0.325, 0.475], atol=1e-15)
    assert sum(lam) == pytest.approx(1.0, abs=1e-15)


def test_unphysical_snapshot_rejected_before_spectra():
    # the snapshot constructor is the gate; eigenvalue code never sees it
    with pytest.raises(InvalidStateError):
        frozen_state(1.8, 0.0, 0.0)


def test_boundary_eigenvalue_zero_accepted():
    lam = x_state_eigenvalues(frozen_state(2.0, 0.0, 1.0, t=0.0))
    assert min(lam) == pytest.approx(0.0, abs=1e-15)
    assert max(lam) == pytest.approx(1.0, abs=1e-15)


def test_mutual_information_anchor():
    x = frozen_state(0.6, 0.6, 0.3)
    assert discord_analytic(x).mutual_information == pytest.approx(0.38976749375427655, abs=1e-15)


def measurement_spread(theta, phi, x: EvolvedXState) -> float:
    bloch = _bloch_blocks(assemble_density(x).entries.reshape(2, 2, 2, 2))
    return _conditional_spread(bloch, theta, phi)


def test_measurement_spread_pole_and_equator():
    x = frozen_state(0.5, 0.3, -0.44)
    # theta = 0 measures along the pole: spread is |c3|
    assert measurement_spread(0.0, 0.0, x) == pytest.approx(0.44)
    # theta = pi/4 with aligned phase reaches (|mu| + |nu|)/2
    assert measurement_spread(math.pi / 4, 0.0, x) == pytest.approx(0.4)


def test_measurement_spread_phase_misalignment_reduces_it():
    x = frozen_state(0.5, 0.3, 0.0, delta1=0.0, delta2=0.0)
    aligned = measurement_spread(math.pi / 4, 0.0, x)
    misaligned = measurement_spread(math.pi / 4, math.pi / 2, x)
    assert misaligned < aligned
    # at phi = pi/2 the cross term flips sign fully: |mu - nu| / 2
    assert misaligned == pytest.approx(0.1)


def test_optimal_measurement_spread_is_max_rule(rng):
    for _ in range(50):
        params = sample_x_params(rng)
        x = frozen_state(params.c1 - params.c2, params.c1 + params.c2, params.c3)
        want = max(abs(params.c3), 0.5 * (abs(x.mu) + abs(x.nu)))
        assert discord_analytic(x).chi == pytest.approx(want, abs=1e-15)


def test_measurement_spread_matches_the_l2_referee(rng):
    # every basis, not only the optimal one, at random phases delta1, delta2
    for _ in range(200):
        params = sample_x_params(rng)
        delta1, delta2 = rng.uniform(-10.0, 10.0, 2)
        scale = float(rng.uniform(0.0, 1.0))
        x = frozen_state(scale * (params.c1 - params.c2), scale * (params.c1 + params.c2),
                         params.c3, delta1=float(delta1), delta2=float(delta2))
        theta = float(rng.uniform(0.0, 0.5 * math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        want = measurement_spread_reference(theta, phi, x)
        assert measurement_spread(theta, phi, x) == pytest.approx(want, abs=1e-13)


def test_classical_correlation_value_anchors():
    assert classical_correlation_value(0.0) == 0.0
    assert classical_correlation_value(1.0) == pytest.approx(1.0)
    assert classical_correlation_value(0.6) == pytest.approx(
        0.27807190511263774, abs=1e-15
    )
    # tolerate eigenvalue-noise overshoot, clip to 1
    assert classical_correlation_value(1.0 + 5e-13) == pytest.approx(1.0)
    with pytest.raises(InvalidStateError):
        classical_correlation_value(1.1)
    with pytest.raises(InvalidStateError):
        classical_correlation_value(-0.1)
    with pytest.raises(InvalidStateError, match=r"spread chi=nan outside \[0, 1\]"):
        classical_correlation_value(math.nan)


def test_classical_correlation_value_takes_what_the_spectrum_check_admits():
    # EvolvedXState admits eigenvalues down to EIGENVALUE_FLOOR, so |c3| up
    # to 1 - 4 EIGENVALUE_FLOOR; the pole spread is clamped, not refused
    b = discord_analytic(frozen_state(0.0, 0.0, 1.0 + 2e-10))
    assert b.chi == 1.0 + 2e-10
    assert b.classical_correlation == 1.0
    assert b.discord == pytest.approx(0.0, abs=1e-9)
    assert classical_correlation_value(1.0 - 4.0 * EIGENVALUE_FLOOR) == 1.0
    with pytest.raises(InvalidStateError):
        classical_correlation_value(1.0 - 5.0 * EIGENVALUE_FLOOR)


def test_discord_analytic_initial_anchor():
    b = discord_analytic(frozen_state(0.6, 0.6, 0.3))
    assert b.mutual_information == pytest.approx(0.38976749375427655, abs=1e-15)
    assert b.classical_correlation == pytest.approx(0.27807190511263774, abs=1e-15)
    assert b.discord == pytest.approx(0.11169558864163881, abs=1e-15)
    assert b.chi == pytest.approx(0.6)
    assert b.regime == REGIME_BEFORE


def test_discord_breakdown_invariant_enforced():
    with pytest.raises(InvalidStateError):
        DiscordBreakdown(
            mutual_information=0.5,
            classical_correlation=0.2,
            discord=0.1,
            chi=0.3,
            regime=REGIME_BEFORE,
        )


def test_discord_analytic_regime_labels():
    assert discord_analytic(frozen_state(0.5, 0.5, 0.2)).regime == REGIME_BEFORE
    assert discord_analytic(frozen_state(0.1, 0.1, 0.4)).regime == REGIME_AFTER
    assert discord_analytic(frozen_state(0.3, 0.3, 0.3)).regime == REGIME_AFTER
    assert discord_analytic(frozen_state(0.5, 0.5, 0.0)).regime == REGIME_NONE


def test_discord_analytic_forced_regimes():
    x = frozen_state(0.2, 0.2, 0.3)
    before = discord_analytic(x, tc_regime="before")
    after = discord_analytic(x, tc_regime="after")
    assert before.chi == pytest.approx(0.2)
    assert after.chi == pytest.approx(0.3)
    with pytest.raises(DomainError):
        discord_analytic(x, tc_regime="sometime")


def test_classical_state_has_zero_discord():
    x = frozen_state(0.0, 0.0, 0.5)
    b = discord_analytic(x)
    assert abs(b.discord) < 1e-12
    bf = discord_bruteforce(x_state_density(XStateParams(0.0, 0.0, 0.5)))
    assert abs(bf.discord) < 1e-9


def test_bell_state_discord_is_one():
    params = XStateParams(1.0, -1.0, 1.0)
    x = frozen_state(2.0, 0.0, 1.0)
    b = discord_analytic(x)
    assert b.discord == pytest.approx(1.0, abs=1e-12)
    bf = discord_bruteforce(x_state_density(params))
    assert bf.discord == pytest.approx(1.0, abs=1e-9)


def test_bruteforce_matches_analytic_at_time_zero(rng):
    for _ in range(5):
        params = sample_x_params(rng)
        x = frozen_state(params.c1 - params.c2, params.c1 + params.c2, params.c3)
        got = discord_bruteforce(x_state_density(params))
        assert got.discord == pytest.approx(discord_analytic(x).discord, abs=1e-7)


def test_bruteforce_matches_analytic_mid_evolution():
    params = XStateParams(0.6, 0.1, -0.25)
    qubits = QubitPairConfig(1.8, 1.0)
    res = ReservoirConfig(0.9, 1.0, 0.3)
    x = evolve_x_state(params, 1.3, qubits, res)
    got = discord_bruteforce(assemble_density(x))
    assert got.discord == pytest.approx(discord_analytic(x).discord, abs=1e-6)


def test_bruteforce_rejects_coarse_grid():
    rho = x_state_density(XStateParams(0.6, 0.0, 0.3))
    with pytest.raises(DomainError):
        discord_bruteforce(rho, grid=(32, 64))


def test_classical_correlation_consistency(rng):
    for _ in range(20):
        params = sample_x_params(rng)
        x = frozen_state(params.c1 - params.c2, params.c1 + params.c2, params.c3)
        b = discord_analytic(x)
        assert b.classical_correlation == classical_correlation_value(b.chi)


def random_full_rank_density(rng) -> TwoQubitDensity:
    """G G^dagger / Tr for complex Gaussian G: full rank, no X pattern."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return TwoQubitDensity(0.5 * (m + m.conj().T) / m.trace().real)


def bloch_directions(thetas, phis):
    sin2t = np.sin(2.0 * thetas)
    return sin2t * np.cos(phis), sin2t * np.sin(phis), np.cos(2.0 * thetas)


def test_bloch_kernel_matches_the_ket_referee(rng):
    thetas = np.concatenate([[0.0, 0.5 * math.pi], rng.uniform(0.0, 0.5 * math.pi, 400)])
    phis = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 2.0 * math.pi, 400)])
    for _ in range(20):
        r4 = random_full_rank_density(rng).entries.reshape(2, 2, 2, 2)
        got = _conditional_entropies(_bloch_blocks(r4), *bloch_directions(thetas, phis))
        want = conditional_entropies_reference(r4, thetas, phis)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-13)


def test_scan_keeps_the_first_minimum_across_blocks():
    # 65 x 129 bases are not a whole number of scan blocks. The classical
    # state's entropy depends on cos(2 theta) alone, and its minimum ties
    # exactly on the theta = 0 row (first block) and theta = pi/2 row (last)
    thetas = np.linspace(0.0, 0.5 * math.pi, 65)
    phis = np.linspace(0.0, 2.0 * math.pi, 129, endpoint=False)
    for rho in (np.eye(4) / 4.0, np.diag([0.4, 0.1, 0.1, 0.4])):
        bloch = _bloch_blocks(TwoQubitDensity(rho).entries.reshape(2, 2, 2, 2))
        s_cond = _conditional_entropies(
            bloch, *bloch_directions(thetas[:, None], phis[None, :]))[0]
        assert (s_cond[-1] == s_cond.min()).all()
        assert _scan_minimum(bloch, thetas, phis) == (s_cond.min(), 0.0, 0.0)


def test_scan_finds_a_minimum_inside_a_later_block(rng):
    thetas = np.linspace(0.0, 0.5 * math.pi, 65)
    phis = np.linspace(0.0, 2.0 * math.pi, 129, endpoint=False)
    for _ in range(5):
        bloch = _bloch_blocks(random_full_rank_density(rng).entries.reshape(2, 2, 2, 2))
        s_cond = _conditional_entropies(
            bloch, *bloch_directions(thetas[:, None], phis[None, :]))[0]
        i, j = np.unravel_index(np.argmin(s_cond), s_cond.shape)
        assert i >= _SCAN_CHUNK // len(phis)  # past the first block of rows
        val, theta, phi = _scan_minimum(bloch, thetas, phis)
        assert (theta, phi) == (thetas[i], phis[j])
        assert val == pytest.approx(s_cond[i, j], abs=1e-15)


def test_bruteforce_on_a_grid_off_the_block_size(rng):
    for _ in range(3):
        params = sample_x_params(rng)
        x = frozen_state(params.c1 - params.c2, params.c1 + params.c2, params.c3)
        got = discord_bruteforce(x_state_density(params), grid=(65, 129))
        assert got.discord == pytest.approx(discord_analytic(x).discord, abs=1e-7)


def test_bruteforce_working_set_stays_bounded():
    # the grid is scanned in blocks: one call on the default 64 x 128 grid
    # must not allocate more than 0.5 MB at its peak
    rho = x_state_density(XStateParams(0.6, 0.1, -0.25))
    discord_bruteforce(rho)  # imports and first-call caches
    tracemalloc.start()
    try:
        discord_bruteforce(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500_000
