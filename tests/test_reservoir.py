import math

import numpy as np
import pytest
from scipy.special import loggamma

from xdiscord import (
    DecayFactors,
    DomainError,
    InvalidStateError,
    QubitPairConfig,
    ReservoirConfig,
    bath_dephasing_integral,
    bath_dephasing_low_temperature,
    bath_phase_integral,
    decay_factors,
    dephasing_exponent,
    phase_exponent,
    spectral_weight,
)


def exact_dephasing(t, eta, omega_c, temperature):
    """Independent referee for the decay exponent at any temperature.

    Summing the thermal occupation as a geometric series of exponentials
    turns each term into a closed-form log, and the product collapses to
    Gamma functions:

        Q(t) = (eta/2) ln(1 + (w_c t)^2)
               + 2 eta [ln G(1+b) - Re ln G(1+b+i a)],  a = T t, b = T/w_c.
    """
    vac = 0.5 * eta * math.log1p((omega_c * t) ** 2)
    if temperature == 0.0:
        return vac
    a = temperature * t
    b = temperature / omega_c
    th = loggamma(1.0 + b).real - loggamma(complex(1.0 + b, a)).real
    return vac + 2.0 * eta * th


def test_reservoir_config_validation():
    with pytest.raises(InvalidStateError):
        ReservoirConfig(0.0, 1.0, 0.0)
    with pytest.raises(InvalidStateError):
        ReservoirConfig(1.0, -1.0, 0.0)
    with pytest.raises(InvalidStateError):
        ReservoirConfig(1.0, 1.0, -0.1)


def test_reservoir_config_beta():
    assert ReservoirConfig(1.0, 1.0, 0.0).beta == math.inf
    assert ReservoirConfig(1.0, 1.0, 0.5).beta == 2.0
    assert ReservoirConfig(1.0, 1.0, 0.0).is_zero_temperature


def test_spectral_weight_shape():
    res = ReservoirConfig(0.9, 1.5, 0.0)
    peak = spectral_weight(1.5, res)
    assert peak > spectral_weight(0.5, res)
    assert peak > spectral_weight(4.0, res)
    assert spectral_weight(0.0, res) == 0.0
    with pytest.raises(DomainError):
        spectral_weight(-1.0, res)


def test_phase_integral_matches_arctan():
    res = ReservoirConfig(0.7, 1.4, 0.0)
    for t in np.geomspace(1e-3, 1e3, 30):
        got = bath_phase_integral(float(t), res)
        want = 0.7 * math.atan(1.4 * float(t))
        assert got == pytest.approx(want, rel=1e-10)
        assert phase_exponent(float(t), res) == want


def test_phase_integral_edges():
    res = ReservoirConfig(1.0, 1.0, 0.0)
    assert bath_phase_integral(0.0, res) == 0.0
    with pytest.raises(DomainError):
        bath_phase_integral(-0.5, res)


def test_dephasing_zero_temperature_matches_log_form():
    res = ReservoirConfig(0.8, 1.3, 0.0)
    for t in np.geomspace(1e-3, 1e4, 30):
        got = bath_dephasing_integral(float(t), res)
        want = 0.4 * math.log1p((1.3 * float(t)) ** 2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("temperature", [0.01, 0.1, 0.5, 2.0])
def test_dephasing_finite_temperature_matches_referee(temperature):
    res = ReservoirConfig(1.0, 1.0, temperature)
    for t in np.geomspace(1e-2, 1e3, 15):
        got = bath_dephasing_integral(float(t), res)
        want = exact_dephasing(float(t), 1.0, 1.0, temperature)
        assert got == pytest.approx(want, rel=1e-10)


def test_dephasing_low_temperature_form():
    # the low-temperature correction is accurate once T << w_c
    res = ReservoirConfig(1.0, 1.0, 0.01)
    worst = 0.0
    for t in np.geomspace(0.05, 2000.0, 20):
        exact = bath_dephasing_integral(float(t), res)
        approx = bath_dephasing_low_temperature(float(t), res)
        worst = max(worst, abs(approx - exact) / abs(exact))
    assert worst < 0.01
    # and it degrades gracefully, not catastrophically, at moderate T
    res_mid = ReservoirConfig(1.0, 1.0, 0.2)
    t = 5.0
    rel_mid = abs(
        bath_dephasing_low_temperature(t, res_mid) - bath_dephasing_integral(t, res_mid)
    ) / bath_dephasing_integral(t, res_mid)
    assert rel_mid < 0.15


def test_dephasing_low_temperature_reduces_to_vacuum_at_zero():
    res = ReservoirConfig(1.0, 1.0, 0.0)
    t = 3.7
    want = 0.5 * math.log1p(t * t)
    assert bath_dephasing_low_temperature(t, res) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_kernel_edges(temperature):
    res = ReservoirConfig(1.0, 1.0, temperature)
    kernels = (
        dephasing_exponent, bath_dephasing_integral,
        bath_dephasing_low_temperature, bath_phase_integral,
    )
    for kernel in kernels:
        assert kernel(0.0, res) == 0.0
        with pytest.raises(DomainError):
            kernel(-1.0, res)
    assert dephasing_exponent(math.inf, res) == math.inf


def test_dephasing_exponent_keeps_the_vacuum_expression():
    res = ReservoirConfig(0.6, 2.0, 0.0)
    t = 1.9
    assert dephasing_exponent(t, res) == 0.5 * 0.6 * math.log1p((2.0 * t) ** 2)


@pytest.mark.parametrize("temperature", [0.01, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("omega_c", [1.0, 3.0])
def test_dephasing_exponent_matches_quadrature(temperature, omega_c):
    # from t = 1e-12, where the two log-Gamma values cancel, to the tail
    res = ReservoirConfig(0.9, omega_c, temperature)
    for t in np.geomspace(1e-12, 1e3, 61):
        got = dephasing_exponent(float(t), res)
        want = bath_dephasing_integral(float(t), res)
        assert got >= 0.0
        assert got == pytest.approx(want, rel=1e-9)


def test_dephasing_exponent_matches_high_precision_referee(rng):
    # x = T/w_c over 1e-6..1e8 and y = T t over 1e-12..1e10: the thermal
    # term spans tiny y, where two log-Gamma values agree to 40 digits, to
    # y >> x, so the referee works at 90 digits
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 90
    worst = 0.0
    for _ in range(300):
        x = 10.0 ** rng.uniform(-6.0, 8.0)
        y = 10.0 ** rng.uniform(-12.0, 10.0)
        eta, omega_c = rng.uniform(0.1, 2.0), 10.0 ** rng.uniform(-1.0, 1.0)
        res = ReservoirConfig(float(eta), float(omega_c), float(x * omega_c))
        t = float(y / res.temperature)
        got = dephasing_exponent(t, res)
        w = 1 + mp.mpf(res.temperature) / mp.mpf(res.omega_c)
        yy = mp.mpf(res.temperature) * mp.mpf(t)
        want = res.eta * (
            mp.log1p((mp.mpf(res.omega_c) * t) ** 2) / 2
            + 2 * (mp.loggamma(w) - mp.re(mp.loggamma(mp.mpc(w, yy))))
        )
        worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-14


@pytest.mark.parametrize("temperature", [1e-6, 1e-2, 1.0, 1e3, 1e8])
def test_dephasing_exponent_is_monotone_up_to_huge_times(temperature):
    res = ReservoirConfig(0.7, 1.0, temperature)
    times = [float(t) for t in np.geomspace(1e-12, 1e300, 3000)]
    q = [dephasing_exponent(t, res) for t in times]
    for t, value in zip(times, q):
        # the thermal term grows like pi T t and leaves the float range there
        assert math.isfinite(value) or math.pi * temperature * t > 1.7e308
        assert value >= 0.0
    assert all(b >= a for a, b in zip(q, q[1:]))


def test_decay_factors_power_identity(rng):
    res = ReservoirConfig(0.8, 1.3, 0.0)
    for _ in range(25):
        r = float(rng.uniform(1.05, 6.0))
        qubits = QubitPairConfig(r, 1.0)
        t = float(rng.uniform(0.05, 5.0))
        f = decay_factors(t, qubits, res)
        kappa = ((r - 1.0) / (r + 1.0)) ** 2
        assert f.gamma2 == pytest.approx(f.gamma1**kappa, rel=1e-12)
        assert 0.0 <= f.gamma1 <= f.gamma2 <= 1.0


def test_decay_factors_identical_qubits_keep_inner_coherence():
    res = ReservoirConfig(1.0, 1.0, 0.0)
    f = decay_factors(2.5, QubitPairConfig(1.4, 1.4), res)
    assert f.gamma2 == 1.0
    assert f.gamma1 < 1.0


def test_decay_factors_at_time_zero():
    f = decay_factors(0.0, QubitPairConfig(2.0, 1.0), ReservoirConfig(1.0, 1.0, 0.0))
    assert f.gamma1 == 1.0 and f.gamma2 == 1.0


def test_decay_factors_large_detuning_mode():
    res = ReservoirConfig(1.0, 1.0, 0.0)
    qubits = QubitPairConfig(1.0, 1.0)
    t = 1.3
    f = decay_factors(t, qubits, res, large_detuning_limit=True)
    want = math.exp(-1.0 * dephasing_exponent(t, res))
    assert f.gamma1 == pytest.approx(want, rel=1e-15)
    assert f.gamma2 == f.gamma1


def test_decay_factors_validation():
    with pytest.raises(InvalidStateError):
        DecayFactors(gamma1=0.9, gamma2=0.5)
    with pytest.raises(InvalidStateError):
        DecayFactors(gamma1=-0.1, gamma2=0.5)


def test_quadrature_results_are_deterministic():
    res = ReservoirConfig(1.0, 1.0, 0.3)
    a = bath_dephasing_integral(1.234, res)
    b = bath_dephasing_integral(1.234, res)
    assert a == b
