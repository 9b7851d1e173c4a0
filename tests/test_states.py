import math

import numpy as np
import pytest

from xdiscord import (
    InvalidStateError,
    QubitPairConfig,
    TwoQubitDensity,
    XStateParams,
    entropy_bits,
    partial_trace,
    von_neumann_entropy,
    x_state_density,
    xlog2,
)

from helpers import sample_x_params


def test_xlog2_anchors():
    assert xlog2(0.0) == 0.0
    assert xlog2(1.0) == 0.0
    assert xlog2(2.0) == 2.0
    assert xlog2(0.5) == -0.5


def test_xlog2_clips_rounding_noise():
    assert xlog2(-1e-12) == 0.0


def test_xlog2_rejects_real_negatives():
    with pytest.raises(InvalidStateError):
        xlog2(-1e-3)


def test_entropy_bits_anchors():
    assert entropy_bits((0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)
    assert entropy_bits((1.0, 0.0)) == 0.0
    assert entropy_bits((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0, abs=1e-15)


def test_x_state_params_accepts_valid():
    p = XStateParams(0.6, 0.0, 0.3)
    assert (p.c1, p.c2, p.c3) == (0.6, 0.0, 0.3)


def test_x_state_params_rejects_out_of_range():
    with pytest.raises(InvalidStateError):
        XStateParams(2.0, 0.0, 0.0)


def test_x_state_params_rejects_negative_spectrum():
    # |c1 - c2| = 1.6 exceeds 1 + c3 = 1.5
    with pytest.raises(InvalidStateError) as exc:
        XStateParams(0.8, -0.8, 0.5)
    assert "eigenvalue" in str(exc.value)


def test_x_state_params_accepts_bell_boundary():
    XStateParams(1.0, -1.0, 1.0)


def test_qubit_pair_config():
    q = QubitPairConfig(2.0, 1.0)
    assert q.r == 2.0
    assert not q.identical
    assert QubitPairConfig(1.3, 1.3).identical
    via_ratio = QubitPairConfig.from_ratio(1.0, 2.0)
    assert via_ratio.omega_a == 2.0
    assert via_ratio.omega_b == 1.0


def test_qubit_pair_config_rejects_nonpositive():
    with pytest.raises(InvalidStateError):
        QubitPairConfig(0.0, 1.0)
    with pytest.raises(InvalidStateError):
        QubitPairConfig(1.0, -2.0)


def test_qubit_pair_config_rejects_overflowing_sum():
    with pytest.raises(InvalidStateError, match=r"\(1e\+200, 1\.0\)"):
        QubitPairConfig(1e200, 1.0)
    with pytest.raises(InvalidStateError):
        QubitPairConfig.from_ratio(1e160, 2.0)
    QubitPairConfig(1e150, 1e150)  # (2e150)^2 = 4e300 is still a float


def test_x_state_density_entries():
    rho = x_state_density(XStateParams(0.6, 0.2, 0.1)).entries
    assert rho[0, 0] == pytest.approx((1 + 0.1) / 4)
    assert rho[1, 1] == pytest.approx((1 - 0.1) / 4)
    assert rho[2, 2] == pytest.approx((1 - 0.1) / 4)
    assert rho[3, 3] == pytest.approx((1 + 0.1) / 4)
    assert rho[0, 3] == pytest.approx((0.6 - 0.2) / 4)
    assert rho[1, 2] == pytest.approx((0.6 + 0.2) / 4)
    assert rho[0, 1] == 0.0


def test_density_validation_rejects_nonhermitian():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.2
    with pytest.raises(InvalidStateError):
        TwoQubitDensity(m)


def test_density_validation_rejects_bad_trace():
    with pytest.raises(InvalidStateError):
        TwoQubitDensity(np.eye(4, dtype=complex) / 2.0)


@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_density_validation_rejects_nan(entry):
    # a nan fails the hermiticity or trace check, before the eigensolver
    m = np.eye(4, dtype=complex) / 4.0
    m[entry] = math.nan
    with pytest.raises(InvalidStateError, match="nan"):
        TwoQubitDensity(m)
    with pytest.raises(InvalidStateError, match="nan"):
        TwoQubitDensity(np.full((4, 4), np.nan))


def test_density_validation_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    with pytest.raises(InvalidStateError) as exc:
        TwoQubitDensity(m)
    assert "eigenvalue" in str(exc.value)


def test_density_entries_are_read_only():
    rho = x_state_density(XStateParams(0.6, 0.0, 0.3))
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 9.0


def test_partial_trace_product_state():
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.6, 0.4]).astype(complex)
    rho = TwoQubitDensity(np.kron(a, b))
    np.testing.assert_allclose(partial_trace(rho, "A"), a, atol=1e-15)
    np.testing.assert_allclose(partial_trace(rho, "B"), b, atol=1e-15)


def test_partial_trace_x_states_are_locally_unpolarized(rng):
    for _ in range(20):
        rho = x_state_density(sample_x_params(rng))
        for side in ("A", "B"):
            np.testing.assert_allclose(
                partial_trace(rho, side), np.eye(2) / 2.0, atol=1e-14
            )


def test_partial_trace_rejects_unknown_side():
    rho = x_state_density(XStateParams(0.6, 0.0, 0.3))
    with pytest.raises(ValueError):
        partial_trace(rho, "C")


def test_von_neumann_entropy_anchors():
    assert von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-14)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert von_neumann_entropy(plus) == pytest.approx(0.0, abs=1e-12)
    m4 = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
    assert von_neumann_entropy(m4) == pytest.approx(1.75, abs=1e-14)
