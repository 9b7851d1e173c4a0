import inspect
import math
import tracemalloc

import numpy as np
import pytest

import xdiscord.discord
from xdiscord import (
    REGIME_AFTER,
    REGIME_BEFORE,
    REGIME_NONE,
    ConvergenceError,
    DiscordBreakdown,
    DomainError,
    EvolvedXState,
    InvalidStateError,
    QubitPairConfig,
    ReservoirConfig,
    XStateParams,
    amplification_rate,
    assemble_density,
    classical_correlation_value,
    discord_analytic,
    discord_bruteforce,
    evolve_x_state,
    x_state_density,
)
from xdiscord.discord import (
    _BASIN_GRID,
    _basin_directions,
    _bloch_table,
    _conditional_spread,
    _conditional_states,
    _optimum,
    _phi,
    _scan,
    _starts,
)
from xdiscord.states import EIGENVALUE_FLOOR, TwoQubitDensity

from helpers import sample_x_params
from oracles import (
    bloch_gain_reference,
    conditional_entropies_reference,
    discord_reference,
    entropy_rounding,
    general_discord_reference,
    measurement_spread_reference,
)


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


def test_correlations_match_the_60_digit_referee(rng):
    # the X family scaled by 10^-9 ... 1: I, C and D fall like the square of the scale
    for _ in range(3000):
        params = sample_x_params(rng)
        scale = 10.0 ** -rng.uniform(0.0, 9.0)
        mu, nu, c3 = (scale * v for v in (params.c1 - params.c2, params.c1 + params.c2,
                                          params.c3))
        b = discord_analytic(frozen_state(mu, nu, c3))
        info, cc, d = discord_reference(mu, nu, c3)
        assert abs(b.mutual_information - info) <= 2e-15 * info
        assert abs(b.classical_correlation - cc) <= 2e-15 * cc
        if b.regime == REGIME_AFTER:
            assert abs(b.discord - d) <= 1e-13 * d
        else:
            # D = T + [phi(c3) - phi(chi)]/2 falls like (mu - nu)^2 near c3 = 0,
            # mu = nu, where it is ill-conditioned: an error of I's rounding is owed
            assert abs(b.discord - d) <= max(1e-13 * d, min(5e-16, 2e-15 * info))


def test_stable_family_matches_the_60_digit_referee():
    # D(0) at (c1, c1, c1/2) and D(inf) at (0, c1, c1/2), both O(c1^2) as c1 -> 0
    for c1 in np.geomspace(1e-12, 2.0 / 3.0, 200).tolist():
        report = amplification_rate(c1)
        for got, (mu, nu) in ((report.initial, (c1, c1)), (report.asymptotic, (0.0, c1))):
            want = discord_reference(mu, nu, 0.5 * c1)[2]
            assert abs(got - want) <= 1e-13 * want
            assert discord_analytic(frozen_state(mu, nu, 0.5 * c1)).discord == got


def bloch_vector(theta, phi):
    """The Bloch direction n of the basis cos(theta)|0> + e^{i phi} sin(theta)|1>."""
    return (math.sin(2.0 * theta) * math.cos(phi), math.sin(2.0 * theta) * math.sin(phi),
            math.cos(2.0 * theta))


def measurement_spread(theta, phi, x: EvolvedXState) -> float:
    return _conditional_spread(_bloch_table(assemble_density(x).entries), bloch_vector(theta, phi))


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
    # at c3 = -1, phi(c3) sits on the edge m = -a of _phi
    b = discord_analytic(frozen_state(0.0, 0.0, -1.0))
    assert (b.mutual_information, b.classical_correlation, b.discord) == (1.0, 1.0, 0.0)
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


def test_bruteforce_has_no_grid_knob():
    # the basin grid is a module constant: Newton steps, not the grid, give the accuracy
    assert list(inspect.signature(discord_bruteforce).parameters) == ["rho"]


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


def test_bloch_kernel_matches_the_ket_referee(rng):
    thetas = np.concatenate([[0.0, 0.5 * math.pi], rng.uniform(0.0, 0.5 * math.pi, 400)])
    phis = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 2.0 * math.pi, 400)])
    for _ in range(20):
        rho = random_full_rank_density(rng)
        table = _bloch_table(rho.entries)
        want = conditional_entropies_reference(np.array(rho.entries).reshape(2, 2, 2, 2),
                                               thetas, phis)
        for k, (theta, phi) in enumerate(zip(thetas, phis)):
            p_plus, g_plus, p_minus, g_minus = _conditional_states(table, *bloch_vector(theta, phi))
            gain_plus, gain_minus = _phi(g_plus, p_plus), _phi(g_minus, p_minus)
            got = (p_plus + p_minus - 0.5 * (gain_plus + gain_minus),
                   p_plus, 1.0 - 0.5 * gain_plus / p_plus, p_minus, 1.0 - 0.5 * gain_minus / p_minus)
            assert got == pytest.approx([w[k] for w in want], rel=0.0, abs=1e-13)


def test_scan_keeps_the_first_optimum():
    # the classical states' entropy depends on cos(2 theta) alone: the pole row ties, and the
    # first basis of it, the pole, is the first start; of two equal values the first is first
    basin = _basin_directions()
    for rho in (np.eye(4) / 4.0, np.diag([0.4, 0.1, 0.1, 0.4])):
        table = _bloch_table(TwoQubitDensity(rho).entries)
        values = _scan(table, basin)
        assert values[0] == max(values) and _starts(values, basin)[0] == 0
    values = [0.0] * len(basin)
    values[40] = values[200] = 1.0
    assert _starts(values, basin)[:2] == [40, 200]
    values[200] = math.nextafter(1.0, 2.0)
    assert _starts(values, basin)[:2] == [200, 40]


def test_bruteforce_working_set_stays_bounded(monkeypatch):
    # one call scans the kept rows of the basin grid once, each basis {n, -n} once,
    # and must not allocate more than 0.5 MB at its peak
    rho = x_state_density(XStateParams(0.6, 0.1, -0.25))
    scans = []

    def counted_scan(table, directions):
        scans.append(len(directions))
        return _scan(table, directions)

    with monkeypatch.context() as patch:
        patch.setattr(xdiscord.discord, "_scan", counted_scan)
        discord_bruteforce(rho)
    n_theta, n_phi = _BASIN_GRID
    assert scans == [(n_theta + 1) // 2 * n_phi]
    discord_bruteforce(rho)  # first-call caches
    tracemalloc.start()
    try:
        discord_bruteforce(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500_000


def random_x_density(rng) -> TwoQubitDensity:
    """An X state with random populations and complex coherences, rarely symmetric."""
    pops = rng.dirichlet(np.ones(4))
    m = np.diag(pops).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        m[i, j] = math.sqrt(pops[i] * pops[j]) * rng.uniform() * phase
        m[j, i] = np.conj(m[i, j])
    return TwoQubitDensity(m)


def random_symmetric_x_density(rng) -> TwoQubitDensity:
    params = sample_x_params(rng)
    delta1, delta2 = rng.uniform(-10.0, 10.0, 2)
    return assemble_density(frozen_state(params.c1 - params.c2, params.c1 + params.c2, params.c3,
                                         delta1=float(delta1), delta2=float(delta2)))


def test_oracle_spread_is_one_for_a_basis_and_its_mirror(rng):
    # n and -n are one basis with its outcomes swapped: the spread weighs both
    # outcomes by p, where the +n outcome alone moved by up to 0.77
    for rho in referee_densities(rng):
        table = _bloch_table(rho.entries)
        for _ in range(5):
            theta, phi = rng.uniform(0.0, 0.5 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
            mirror = _conditional_spread(table, bloch_vector(0.5 * math.pi - theta, phi + math.pi))
            assert abs(_conditional_spread(table, bloch_vector(theta, phi)) - mirror) <= 1e-12


def test_oracle_spread_matches_the_closed_form_on_symmetric_x_states(rng):
    for _ in range(200):
        params = sample_x_params(rng)
        delta1, delta2 = rng.uniform(-10.0, 10.0, 2)
        x = frozen_state(params.c1 - params.c2, params.c1 + params.c2, params.c3,
                         delta1=float(delta1), delta2=float(delta2))
        got = discord_bruteforce(assemble_density(x)).chi
        assert abs(got - discord_analytic(x).chi) <= 1e-6


def random_low_rank_density(rng) -> TwoQubitDensity:
    """Rank 1 (pure) or 2: G G^dagger / Tr for a complex Gaussian 4 x rank G."""
    rank = 1 + int(rng.integers(2))
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return TwoQubitDensity(0.5 * (m + m.conj().T) / m.trace().real)


def referee_densities(rng):
    """304 seeded densities, a quarter of each kind, and three diagonal ones."""
    makers = (random_x_density, random_symmetric_x_density, random_full_rank_density,
              random_low_rank_density)
    densities = [makers[i % 4](rng) for i in range(304)]
    return densities + [TwoQubitDensity(np.diag(w).astype(complex))
                        for w in ([1, 0, 0, 0], [0.5, 0.5, 0, 0], [0.5, 0, 0, 0.5])]


def test_coarse_scan_drops_only_mirror_bases(rng):
    # row n_theta - 1 - i at phi + pi is the mirror -n of row i, the same basis: the
    # kernel's Phi agrees there to 5e-14, and the kept rows' best is the full grid's
    n_theta, n_phi = _BASIN_GRID
    full = [bloch_vector(0.5 * math.pi * i / (n_theta - 1), 2.0 * math.pi * j / n_phi)
            for i in range(n_theta) for j in range(n_phi)]
    kept = _basin_directions()
    assert kept == tuple(full[:(n_theta + 1) // 2 * n_phi])
    for rho in referee_densities(rng):
        table = _bloch_table(rho.entries)
        values = _scan(table, full)
        for i in range(n_theta):
            for j in range(n_phi):
                mirror = (n_theta - 1 - i) * n_phi + (j + n_phi // 2) % n_phi
                assert abs(values[i * n_phi + j] - values[mirror]) <= 5e-14
        assert max(values[:len(kept)]) == pytest.approx(max(values), rel=0.0, abs=5e-14)


def test_oracle_refusals_name_the_state(monkeypatch):
    rho = x_state_density(XStateParams(0.6, 0.1, -0.25))
    named = r"; \(c3, 4 rho_03, 4 rho_12\) = \(-0\.25, \(0\.5\+0j\), \(0\.7\+0j\)\)$"
    # the equatorial optimum lies between the grid rows: one Newton step cannot settle
    monkeypatch.setattr(xdiscord.discord, "_POLISH_STEPS", 1)
    with pytest.raises(ConvergenceError,
                       match=r"^Newton polish did not settle in 1 steps" + named) as exc:
        discord_bruteforce(rho)
    want = discord_analytic(frozen_state(0.5, 0.7, -0.25)).discord
    assert exc.value.best_so_far.discord == pytest.approx(want, abs=1e-6)
    # a state off the X pattern, taken for a symmetric X state
    monkeypatch.setattr(xdiscord.discord, "_X_PATTERN_TOL", 1.0)
    m = np.array(rho.entries)
    m[[0, 1, 2, 3], [1, 0, 3, 2]] = 0.01
    with pytest.raises(InvalidStateError,
                       match=r"^symmetric X state lost its measurement symmetry: "
                       r"\|p - 1/2\| <= \S+, \|g\+\^2 - g-\^2\|/4 <= \S+" + named):
        discord_bruteforce(TwoQubitDensity(m))


def test_oracle_symmetry_check_covers_bases_the_grid_misses(monkeypatch):
    # rho_01 = rho_10 = 1.003e-12 puts a + d along x, 6 degrees from the nearest grid row,
    # where |p - 1/2| reads 0.9975e-12; read off the table, it is 1.003e-12 at n = x
    monkeypatch.setattr(xdiscord.discord, "_X_PATTERN_TOL", 1e-11)
    m = np.array(x_state_density(XStateParams(0.1, 0.0, 0.05)).entries)
    m[0, 1] = m[1, 0] = 1.003e-12
    assert max(abs(nx) for nx, _, _ in _basin_directions()) * 1.003e-12 < 1e-12
    with pytest.raises(InvalidStateError, match=r"^symmetric X state lost its measurement "
                       r"symmetry: \|p - 1/2\| <= 1\.003e-12, \|g\+\^2 - g-\^2\|/4 <= 0\.000e\+00"):
        discord_bruteforce(TwoQubitDensity(m))


def test_oracle_symmetry_check_refuses_only_past_its_bounds(monkeypatch):
    # the pattern test takes off-X entries up to _X_PATTERN_TOL = 1e-12 for a symmetric X
    # state, and then either gap may reach 1e-12, no more
    def perturbed(params, value, *entries):
        m = np.array(x_state_density(params).entries)
        for i, j in entries:
            m[i, j] = m[j, i] = value
        return TwoQubitDensity(m)

    refusal = (r"^symmetric X state lost its measurement symmetry: "
               r"\|p - 1/2\| <= %s, \|g\+\^2 - g-\^2\|/4 <= %s; ")
    near = XStateParams(0.1, 0.0, 0.05)
    # rho_01 and rho_23 put a + d along x: 1e-12 each is a symmetric X state, 2e-12 is not
    with pytest.raises(InvalidStateError, match=refusal % (r"2\.000e-12", r"0\.000e\+00")):
        discord_bruteforce(perturbed(near, 1e-12, (0, 1), (2, 3)))
    discord_bruteforce(perturbed(near, 2e-12, (0, 1), (2, 3)))
    discord_bruteforce(perturbed(near, 1e-12, (0, 1)))  # |p - 1/2| = 1e-12
    # at mu = nu = 1, rho_02 = rho_13 = r0 gives w = 4 r0 r1 along x, with r1 = 1/4
    pure = XStateParams(1.0, 0.0, 0.0)
    discord_bruteforce(perturbed(pure, 1e-12, (0, 2), (1, 3)))  # |w| = 1e-12
    monkeypatch.setattr(xdiscord.discord, "_X_PATTERN_TOL", 1e-11)
    with pytest.raises(InvalidStateError, match=refusal % (r"0\.000e\+00", r"2\.000e-12")):
        discord_bruteforce(perturbed(pure, 2e-12, (0, 2), (1, 3)))


def test_oracle_stops_at_the_best_point_where_an_outcome_is_improbable(monkeypatch):
    # a stencil point with an outcome probability below _P_FLOOR reads nan, and the
    # polish stops at the best point seen. An X state has p = 1/2 at every basis, so
    # the floor is raised above it: each start then ends where the scan put it
    rho = x_state_density(XStateParams(0.6, 0.1, -0.25))
    table, directions = _bloch_table(rho.entries), _basin_directions()
    values = _scan(table, directions)
    polished_gain = _optimum(table, directions, values)[0]
    polished = discord_bruteforce(rho)
    monkeypatch.setattr(xdiscord.discord, "_P_FLOOR", 1.0)
    assert math.isnan(xdiscord.discord._gain(table, directions[0]))
    best = max(values)
    assert _optimum(table, directions, values) == (best, directions[values.index(best)], True)
    stopped = discord_bruteforce(rho)
    assert stopped.classical_correlation == pytest.approx(
        polished.classical_correlation - 0.5 * (polished_gain - best), rel=0.0, abs=1e-15)
    assert stopped.discord > polished.discord


def oracle_against_referee(rng, tie_exponents=None):
    """(oracle D, 60-digit D, the rounding of the spectra D comes from) at a seeded X state.

    The state is drawn at random phases and scaled by 10^-9 ... 1. With tie_exponents
    (lo, hi) its pole spread |c3| is 10^-(lo ... hi) relative from the equatorial one,
    either way, or None is returned where that leaves the spectrum within 1e-3 of 0.
    """
    params = sample_x_params(rng)
    mu, nu, c3 = params.c1 - params.c2, params.c1 + params.c2, params.c3
    if tie_exponents:
        tie = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(*tie_exponents)
        c3 = math.copysign(0.5 * (abs(mu) + abs(nu)) * tie, c3)
        if min(1.0 + c3 - abs(mu), 1.0 - c3 - abs(nu)) < 1e-3:
            return None
    scale = 10.0 ** -rng.uniform(0.0, 9.0)
    mu, nu, c3 = scale * mu, scale * nu, scale * c3
    delta1, delta2 = rng.uniform(-10.0, 10.0, 2)
    got = discord_bruteforce(assemble_density(
        frozen_state(mu, nu, c3, delta1=float(delta1), delta2=float(delta2)))).discord
    chi = max(abs(c3), 0.5 * (abs(mu) + abs(nu)))
    # the spectrum, B's marginal, and each outcome's conditional spectrum and weight
    weights = [(1.0 + c3 - mu) / 4.0, (1.0 + c3 + mu) / 4.0, (1.0 - c3 - nu) / 4.0,
               (1.0 - c3 + nu) / 4.0, 0.5, 0.5] + [(1.0 + chi) / 4.0, (1.0 - chi) / 4.0,
                                                   0.5] * 2
    return got, discord_reference(mu, nu, c3)[2], entropy_rounding(weights)


def test_oracle_matches_the_60_digit_referee_on_x_states(rng):
    # D = S_B - S_AB + S_cond is taken from O(1) entropies, so it owes 1e-13
    # relative or the rounding of their spectra, whichever is larger. Every second
    # state puts the pole spread 1e-8 ... 1e-1 relative from the equatorial one: a
    # flat ridge then joins the pole to the equator, and the grid's best point is at
    # the pole
    for i in range(400):
        found = oracle_against_referee(rng, (1.0, 8.0) if i % 2 else None)
        if found is not None:
            got, want, rounding = found
            assert abs(got - want) <= max(1e-13 * want, rounding)


def test_oracle_near_a_tie_of_the_two_branches(rng):
    # the pole spread 1e-15 ... 1e-8 relative from the equatorial one: along the
    # flatter ridge the polish stops up to 1e-10 relative of D short of the optimum
    # (9.5e-11 at worst over 14,000 seeded draws), not 1e-13
    for _ in range(150):
        found = oracle_against_referee(rng, (8.0, 15.0))
        if found is not None:
            got, want, rounding = found
            assert abs(got - want) <= max(1e-10 * want, rounding)


def test_oracle_matches_an_mpmath_minimiser_off_the_x_family(rng):
    # non-symmetric X, full-rank and rank-1 or 2 densities: the referee minimises the
    # conditional entropy at 50 digits from the oracle's optimum
    basin = _basin_directions()
    makers = (random_x_density, random_full_rank_density, random_low_rank_density)
    for i in range(48):
        rho = makers[i % 3](rng)
        table = _bloch_table(rho.entries)
        _, n, settled = _optimum(table, basin, _scan(table, basin))
        assert settled
        got = discord_bruteforce(rho).discord
        _, _, want, weights = general_discord_reference(rho.entries, n)
        assert abs(got - want) <= max(1e-13 * want, entropy_rounding(weights))


def werner_density(rng) -> TwoQubitDensity:
    """w |psi-><psi-| + (1 - w) 1/4: every basis is optimal."""
    w = float(rng.uniform())
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return TwoQubitDensity(w * np.outer(singlet, singlet) + (1.0 - w) * np.eye(4) / 4.0)


def product_density(rng) -> TwoQubitDensity:
    """rho_A (x) rho_B of random qubit states: no discord, and Phi flat."""
    def qubit():
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        return m / m.trace().real
    m = np.kron(qubit(), qubit())
    return TwoQubitDensity(0.5 * (m + m.conj().T))


def pole_optimum_density(rng) -> TwoQubitDensity:
    """A symmetric X state at random phases whose pole spread |c3| beats the equatorial one."""
    while True:
        params = sample_x_params(rng)
        if abs(params.c3) > 0.5 * (abs(params.c1 - params.c2) + abs(params.c1 + params.c2)):
            delta1, delta2 = rng.uniform(-10.0, 10.0, 2)
            return assemble_density(frozen_state(
                params.c1 - params.c2, params.c1 + params.c2, params.c3,
                delta1=float(delta1), delta2=float(delta2)))


def test_basin_grid_finds_the_optimum_of_a_64_by_128_grid(rng):
    # the basin grid need not be accurate, only land a start in the optimum's basin: its
    # polished optimum is the one polished from the 64 x 128 grid's kept rows, ranked in NumPy
    n_theta, n_phi = 64, 128
    two_t = (math.pi / (n_theta - 1) * np.arange((n_theta + 1) // 2))[:, None]
    phi = 2.0 * math.pi / n_phi * np.arange(n_phi)
    dense = np.array([np.sin(two_t) * np.cos(phi), np.sin(two_t) * np.sin(phi),
                      np.cos(two_t) + 0.0 * phi]).reshape(3, -1)
    basin = _basin_directions()
    makers = (random_x_density, random_symmetric_x_density, random_full_rank_density,
              random_low_rank_density, werner_density, product_density, pole_optimum_density)
    for i in range(3010):
        table = _bloch_table(makers[i % 7](rng).entries)
        got = _optimum(table, basin, _scan(table, basin))
        values = bloch_gain_reference(table, dense)
        # the best 256, ranked as _starts ranks a whole grid: the first of equal values first
        top = np.argpartition(-values, 255)[:256]
        top = top[np.lexsort((top, -values[top]))]
        want = _optimum(table, list(zip(*dense[:, top].tolist())), values[top].tolist())
        assert got[2] and want[2]
        # Phi/2 is the conditional entropy less the trace
        assert abs(got[0] - want[0]) <= 2e-13
