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
    _SCAN_BASES,
    _bloch_blocks,
    _conditional_entropies,
    _conditional_spread,
    _scan_minimum,
)
from xdiscord.states import EIGENVALUE_FLOOR, TwoQubitDensity

from helpers import sample_x_params
from oracles import (
    bloch_entropies_reference,
    bloch_states_reference,
    conditional_entropies_reference,
    discord_reference,
    measurement_spread_reference,
    scan_minimum_reference,
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
        s_cond, p, ent = _conditional_entropies(_bloch_blocks(r4), *bloch_directions(thetas, phis))
        want = conditional_entropies_reference(r4, thetas, phis)
        for g, w in zip((s_cond, p[0], ent[0], p[1], ent[1]), want):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-13)


def test_scan_keeps_the_first_minimum_across_blocks():
    # the theta rows are not a whole number of scan blocks. The classical
    # state's entropy depends on cos(2 theta) alone, and its minimum ties
    # exactly on the theta = 0 row (first block) and theta = pi/2 row (last)
    phis = np.linspace(0.0, 2.0 * math.pi, 129, endpoint=False)
    thetas = np.linspace(0.0, 0.5 * math.pi, 2 * (_SCAN_BASES // len(phis)) + 1)
    for rho in (np.eye(4) / 4.0, np.diag([0.4, 0.1, 0.1, 0.4])):
        bloch = _bloch_blocks(TwoQubitDensity(rho).entries.reshape(2, 2, 2, 2))
        s_cond = _conditional_entropies(
            bloch, *bloch_directions(thetas[:, None], phis[None, :]))[0]
        assert (s_cond[-1] == s_cond.min()).all()
        assert _scan_minimum(bloch, thetas, phis) == (s_cond.min(), 0.0, 0.0)


def test_scan_finds_a_minimum_inside_a_later_block(rng):
    # nine scan blocks of whole theta rows, the last one partial
    phis = np.linspace(0.0, 2.0 * math.pi, 129, endpoint=False)
    rows = _SCAN_BASES // len(phis)
    thetas = np.linspace(0.0, 0.5 * math.pi, 8 * rows + 1)
    for _ in range(5):
        bloch = _bloch_blocks(random_full_rank_density(rng).entries.reshape(2, 2, 2, 2))
        s_cond = _conditional_entropies(
            bloch, *bloch_directions(thetas[:, None], phis[None, :]))[0]
        i, j = np.unravel_index(np.argmin(s_cond), s_cond.shape)
        assert i >= rows  # past the first block of rows
        val, theta, phi = _scan_minimum(bloch, thetas, phis)
        assert (theta, phi) == (thetas[i], phis[j])
        assert val == pytest.approx(s_cond[i, j], abs=1e-15)


def test_bruteforce_on_a_grid_off_the_block_size(rng):
    for _ in range(3):
        params = sample_x_params(rng)
        x = frozen_state(params.c1 - params.c2, params.c1 + params.c2, params.c3)
        got = discord_bruteforce(x_state_density(params), grid=(65, 129))
        assert got.discord == pytest.approx(discord_analytic(x).discord, abs=1e-7)


def test_bruteforce_working_set_stays_bounded(monkeypatch):
    # the grid is scanned in blocks sized from a byte budget: one call on the
    # default 64 x 128 grid, or on a large grid of many blocks, must not
    # allocate more than 0.5 MB at its peak
    rho = x_state_density(XStateParams(0.6, 0.1, -0.25))
    # the default grid's coarse scan hands the kernel its 32 rows with
    # 2 theta <= pi/2, each basis {n, -n} once: 2 blocks of 16 x 128 bases
    scans = []

    def counted_scan(*args, **kwargs):
        scans.append([])
        return _scan_minimum(*args, **kwargs)

    def counted_kernel(bloch, *n):
        scans[-1].append(np.broadcast(*n).size)
        return _conditional_entropies(bloch, *n)

    with monkeypatch.context() as patch:
        patch.setattr(xdiscord.discord, "_scan_minimum", counted_scan)
        patch.setattr(xdiscord.discord, "_conditional_entropies", counted_kernel)
        discord_bruteforce(rho)
    assert scans[0] == [16 * 128, 16 * 128]
    for grid in ((64, 128), (256, 512)):
        discord_bruteforce(rho, grid)  # imports and first-call caches
        tracemalloc.start()
        try:
            discord_bruteforce(rho, grid)
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
        bloch = _bloch_blocks(rho.entries.reshape(2, 2, 2, 2))
        for _ in range(5):
            theta, phi = rng.uniform(0.0, 0.5 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
            mirror = _conditional_spread(bloch, 0.5 * math.pi - theta, phi + math.pi)
            assert abs(_conditional_spread(bloch, theta, phi) - mirror) <= 1e-12


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


def oracle_outcome(rho, grid):
    """float.hex of every field of the oracle's result, or its refusal."""
    def fields(b):
        return tuple(v.hex() if isinstance(v, float) else v for v in b)
    try:
        return fields(discord_bruteforce(rho, grid=grid))
    except ConvergenceError as exc:
        return "ConvergenceError", str(exc), fields(exc.best_so_far)
    except InvalidStateError as exc:
        return "InvalidStateError", str(exc)


def referee_densities(rng):
    """304 seeded densities, a quarter of each kind, and three diagonal ones."""
    makers = (random_x_density, random_symmetric_x_density, random_full_rank_density,
              random_low_rank_density)
    densities = [makers[i % 4](rng) for i in range(304)]
    return densities + [TwoQubitDensity(np.diag(w).astype(complex))
                        for w in ([1, 0, 0, 0], [0.5, 0.5, 0, 0], [0.5, 0, 0, 0.5])]


def test_bruteforce_is_the_reference_scan_bit_for_bit(rng, monkeypatch):
    # the stacked kernel runs the reference scan's IEEE operations basis by
    # basis, in larger blocks: every field and every refusal is the same
    def reference_scan(bloch, thetas, phis, check_symmetry=False, directions=None):
        return scan_minimum_reference(bloch, thetas, phis, check_symmetry)

    def both(rho, grid):
        got = oracle_outcome(rho, grid)
        with monkeypatch.context() as patch:
            patch.setattr(xdiscord.discord, "_scan_minimum", reference_scan)
            patch.setattr(xdiscord.discord, "_conditional_states", bloch_states_reference)
            return got, oracle_outcome(rho, grid)

    densities = referee_densities(rng)
    outcomes = set()
    # 100 rows of 140 bases span more than three scan blocks
    assert 100 > 3 * (_SCAN_BASES // 140)
    for grid in ((64, 128), (65, 129), (100, 140)):
        for rho in densities:
            got, want = both(rho, grid)
            assert got == want
            outcomes.add(got[0])
    # each refusal, forced on a quarter of the states: refinement that never
    # converges, and every state taken for a symmetric X state
    for name, value in (("_CONVERGENCE_TOL", 0.0), ("_X_PATTERN_TOL", 1.0)):
        with monkeypatch.context() as forced:
            forced.setattr(xdiscord.discord, name, value)
            for rho in densities[::4]:
                got, want = both(rho, (64, 128))
                assert got == want
                outcomes.add(got[0])
    assert {"ConvergenceError", "InvalidStateError"} <= outcomes


def test_coarse_scan_drops_only_mirror_bases(rng):
    # row n_theta - 1 - i at phi + pi is the mirror -n of row i, the same
    # basis: the reference kernel's entropies agree there to 5e-14 (1.1e-14
    # at worst seen), and the kept rows' minimum is the full grid's to 4e-15
    # (8.9e-16 at worst seen), for even n_phi
    densities = referee_densities(rng)
    for n_theta, n_phi in ((64, 128), (100, 140)):
        thetas = np.linspace(0.0, 0.5 * math.pi, n_theta)
        phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
        kept_thetas, kept_phis = xdiscord.discord._coarse_grid(n_theta, n_phi)[:2]
        assert (kept_thetas == thetas[:(n_theta + 1) // 2]).all() and (kept_phis == phis).all()
        n = bloch_directions(thetas[:, None], phis[None, :])
        for rho in densities:
            bloch = _bloch_blocks(rho.entries.reshape(2, 2, 2, 2))
            s_cond = bloch_entropies_reference(bloch, *n)[0]
            mirrored = np.roll(s_cond[::-1], -(n_phi // 2), axis=1)
            np.testing.assert_allclose(mirrored, s_cond, rtol=0.0, atol=5e-14)
            kept = _scan_minimum(bloch, kept_thetas, kept_phis)[0]
            assert kept == pytest.approx(scan_minimum_reference(bloch, thetas, phis)[0],
                                         rel=0.0, abs=4e-15)


def test_oracle_refusals_name_the_grid_and_the_state(monkeypatch):
    rho = x_state_density(XStateParams(0.6, 0.1, -0.25))
    named = (r"; grid \(65, 129\), \(c3, 4 rho_03, 4 rho_12\) = "
             r"\(-0\.25, \(0\.5\+0j\), \(0\.7\+0j\)\)$")
    monkeypatch.setattr(xdiscord.discord, "_CONVERGENCE_TOL", 0.0)
    with pytest.raises(ConvergenceError,
                       match=r"^measurement grid refinement stalled: last change \S+ above 0e\+00"
                       + named):
        discord_bruteforce(rho, grid=(65, 129))
    # a state off the X pattern, taken for a symmetric X state
    monkeypatch.setattr(xdiscord.discord, "_X_PATTERN_TOL", 1.0)
    m = rho.entries.copy()
    m[[0, 1, 2, 3], [1, 0, 3, 2]] = 0.01
    with pytest.raises(InvalidStateError,
                       match=r"^symmetric X state lost its measurement symmetry: "
                       r"\|p - 1/2\| <= \S+, \|S_par - S_perp\| <= \S+" + named):
        discord_bruteforce(TwoQubitDensity(m), grid=(65, 129))
