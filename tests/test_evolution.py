import cmath
import math

import numpy as np
import pytest

from xdiscord import (
    EvolvedXState,
    InvalidStateError,
    QubitPairConfig,
    ReservoirConfig,
    TwoQubitDensity,
    XStateParams,
    assemble_density,
    decay_factors,
    dephasing_exponent,
    evolve_density,
    evolve_x_state,
    x_state_density,
)

from helpers import sample_x_params
from oracles import bath_phase_integral

RES0 = ReservoirConfig(1.0, 1.0, 0.0)


def product_density():
    """Full-rank product state rho_A (x) rho_B; all 16 entries are nonzero."""
    rho_a = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    rho_b = np.array([[0.7, 0.15 - 0.05j], [0.15 + 0.05j, 0.3]])
    return TwoQubitDensity(np.kron(rho_a, rho_b))


def test_populations_are_frozen():
    rho0 = product_density()
    out = evolve_density(rho0, 2.9, QubitPairConfig(1.7, 1.0), RES0)
    assert np.array_equal(np.diag(out.entries), np.diag(rho0.entries))


def test_degenerate_coherence_survives_for_identical_qubits():
    # the |01>-|10> coherence connects equal energies when r = 1
    rho0 = product_density()
    out = evolve_density(rho0, 5.0, QubitPairConfig(1.0, 1.0), RES0)
    assert out.entries[1, 2] == rho0.entries[1, 2]


def test_outer_coherence_decay_magnitude():
    q = QubitPairConfig(2.0, 1.0)
    t = 1.4
    rho0 = product_density()
    out = evolve_density(rho0, t, q, RES0).entries[0, 3]
    want = abs(rho0.entries[0, 3]) * math.exp(-(3.0**2) * dephasing_exponent(t, RES0))
    assert abs(out) == pytest.approx(want, rel=1e-12)


def test_outer_coherence_has_no_lamb_phase():
    # the two level energies are opposite, so the squared energies cancel
    # and only the bare rotation e^{-i (E - E') t} remains
    q = QubitPairConfig(2.0, 1.0)
    t = 0.9
    rho0 = product_density()
    out = evolve_density(rho0, t, q, RES0).entries[0, 3]
    assert cmath.phase(out / rho0.entries[0, 3]) == pytest.approx(
        math.remainder(-3.0 * t, 2.0 * math.pi), abs=1e-12
    )


def test_single_qubit_coherence_phase_includes_bath_contribution():
    q = QubitPairConfig(2.0, 1.0)
    t = 0.9
    rho0 = product_density()
    # |00> vs |01>: E^2 - E'^2 = omega_a * omega_b
    out = evolve_density(rho0, t, q, RES0).entries[0, 1]
    p = bath_phase_integral(t, RES0)
    want = math.remainder(-(2.0 * p) - 1.0 * t, 2.0 * math.pi)
    assert cmath.phase(out / rho0.entries[0, 1]) == pytest.approx(want, abs=1e-12)


def test_evolve_density_rejects_negative_time():
    with pytest.raises(InvalidStateError):
        evolve_density(product_density(), -1.0, QubitPairConfig(1, 1), RES0)


def test_evolve_density_rejects_nan_time():
    with pytest.raises(InvalidStateError, match=r"^t=nan must be nonnegative$"):
        evolve_density(product_density(), math.nan, QubitPairConfig(1, 1), RES0)


@pytest.mark.parametrize("limit", [False, True], ids=["exact", "large-detuning"])
@pytest.mark.parametrize("temperature", [0.0, 0.5])
@pytest.mark.parametrize("ratio", [1.0, 2.0])
def test_general_path_reaches_the_dephased_state_at_infinite_time(ratio, temperature, limit):
    # a zero gap keeps its entry and a fully decayed entry is 0, with no
    # 0 * inf = nan from the phase or the decay
    params = XStateParams(0.6, 0.1, 0.3)
    q = QubitPairConfig(ratio, 1.0)
    res = ReservoirConfig(1.0, 1.0, temperature)
    fast = assemble_density(evolve_x_state(params, math.inf, q, res, limit)).entries
    general = evolve_density(x_state_density(params), math.inf, q, res, limit).entries
    np.testing.assert_array_equal(general, fast)
    rho0 = product_density().entries
    kept = np.diag(np.diag(rho0))
    if ratio == 1.0 and not limit:  # |01> and |10> are degenerate
        kept[1, 2], kept[2, 1] = rho0[1, 2], rho0[2, 1]
    out = evolve_density(product_density(), math.inf, q, res, limit).entries
    np.testing.assert_array_equal(out, kept)


def test_evolved_x_state_validation():
    with pytest.raises(InvalidStateError):
        EvolvedXState(mu=0.0, nu=0.0, delta1=0.0, delta2=0.0, c3=0.0, t=-1.0)
    with pytest.raises(InvalidStateError):
        EvolvedXState(mu=1.8, nu=0.0, delta1=0.0, delta2=0.0, c3=0.0, t=0.0)


def test_fast_path_parameters():
    params = XStateParams(0.6, 0.2, 0.1)
    q = QubitPairConfig(2.0, 1.0)
    t = 1.1
    x = evolve_x_state(params, t, q, RES0)
    f = decay_factors(t, q, RES0)
    assert x.mu == pytest.approx(0.4 * f.gamma1, rel=1e-15)
    assert x.nu == pytest.approx(0.8 * f.gamma2, rel=1e-15)
    assert x.delta1 == pytest.approx(3.0 * t)
    assert x.delta2 == pytest.approx(1.0 * t)
    assert x.c3 == 0.1
    assert x.t == t


def test_assemble_density_corner_phases():
    x = EvolvedXState(mu=0.4, nu=0.3, delta1=1.1, delta2=0.4, c3=0.2, t=1.0)
    rho = assemble_density(x).entries
    assert rho[0, 3] == pytest.approx(0.1 * cmath.exp(-1.1j), rel=1e-14)
    assert rho[1, 2] == pytest.approx(0.075 * cmath.exp(-0.4j), rel=1e-14)
    assert rho[3, 0] == pytest.approx(np.conj(rho[0, 3]))
    assert rho[0, 0] == pytest.approx(0.3)
    assert rho[1, 1] == pytest.approx(0.2)


def test_fast_path_matches_general_path(rng):
    for _ in range(30):
        params = sample_x_params(rng)
        r = float(rng.uniform(1.0, 4.0))
        q = QubitPairConfig(r, 1.0)
        temperature = 0.0 if rng.random() < 0.7 else 0.4
        res = ReservoirConfig(float(rng.uniform(0.3, 1.2)), 1.0, temperature)
        t = float(rng.uniform(0.0, 4.0))
        fast = assemble_density(evolve_x_state(params, t, q, res)).entries
        general = evolve_density(x_state_density(params), t, q, res).entries
        np.testing.assert_allclose(fast, general, atol=1e-14)


def test_evolution_at_time_zero_is_identity(rng):
    params = sample_x_params(rng)
    q = QubitPairConfig(1.5, 1.0)
    rho0 = x_state_density(params)
    out = evolve_density(rho0, 0.0, q, RES0)
    np.testing.assert_allclose(out.entries, rho0.entries, atol=1e-16)


def test_large_detuning_locks_both_corners_together():
    params = XStateParams(1.0, -0.5, 0.5)
    q = QubitPairConfig(1.0, 1.0)
    for t in (0.4, 1.2, 3.0):
        x = evolve_x_state(params, t, q, RES0, large_detuning_limit=True)
        # mu/nu should keep the initial 1.5 : 0.5 ratio at all times
        assert x.mu == pytest.approx(3.0 * x.nu, rel=1e-13)


def test_general_path_in_large_detuning_mode_matches_fast_path():
    params = XStateParams(1.0, -0.5, 0.5)
    q = QubitPairConfig(1.0, 1.0)
    t = 1.7
    fast = assemble_density(
        evolve_x_state(params, t, q, RES0, large_detuning_limit=True)
    ).entries
    general = evolve_density(
        x_state_density(params), t, q, RES0, large_detuning_limit=True
    ).entries
    np.testing.assert_allclose(fast, general, atol=1e-14)
