"""Exact reduced dynamics under the shared dephasing coupling.

The coupling commutes with the free Hamiltonian, so populations are frozen
and every coherence evolves independently. With the bare level energies
E = (w_a + w_b, w_a - w_b, -(w_a - w_b), -(w_a + w_b))/2 of |00>, |01>,
|10>, |11>, the whole map is one elementwise mask:

    rho_{ll'}(t) = rho_{ll'}(0)
                   * exp[-i (E_l - E_l') t]          (free precession)
                   * exp[-i (E_l^2 - E_l'^2) P(t)]   (bath-induced phase)
                   * exp[-(E_l - E_l')^2 Q(t)]       (decay)

with P, Q the reservoir kernels. For X states only the two antidiagonal
coherences survive, and E_l^2 = E_l'^2 on both, so the bath phase drops
out of the fast path and the decays are the factors gamma1, gamma2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError
from .reservoir import (
    DecayFactors,
    ReservoirConfig,
    decay_factors,
    dephasing_exponent,
    phase_exponent,
)
from .states import (
    EIGENVALUE_FLOOR,
    QubitPairConfig,
    TwoQubitDensity,
    XStateParams,
    _reject,
    _where,
    _x_form_density,
    _x_spectrum,
)


@dataclass(frozen=True)
class EvolvedXState:
    """X-state snapshot at time t.

    mu and nu are the decayed outer and inner antidiagonal amplitudes
    (4 * the matrix entries), delta1/delta2 the accumulated precession
    phases (w_a + w_b) t and (w_a - w_b) t, c3 the frozen population
    parameter. t, mu, nu, delta1 and delta2 are floats, or arrays over a
    time grid.
    """

    mu: float
    nu: float
    delta1: float
    delta2: float
    c3: float
    t: float

    def __post_init__(self):
        _reject(self.t < 0.0, "t=%r must be nonnegative", self.t)
        outer, _, inner, _ = _x_spectrum(abs(self.mu), abs(self.nu), self.c3)
        # the builtin min of the four, nan cases included: the others are never lower
        worst = _where(inner < outer, inner, outer)
        _reject(
            worst < EIGENVALUE_FLOOR,
            "(mu, nu, c3)=(%r, %r, %r) induce a negative eigenvalue %.6e",
            self.mu, self.nu, self.c3, worst, t=self.t,
        )


def evolve_x_state(
    params: XStateParams,
    t,
    qubits: QubitPairConfig,
    res: ReservoirConfig,
    large_detuning_limit: bool = False,
) -> EvolvedXState:
    """Fast path for X states: mu = (c1 - c2) gamma1, nu = (c1 + c2) gamma2.

    t is a float or a 1-D array of times.
    """
    _reject(t < 0.0, "t=%r must be nonnegative", t)
    factors = decay_factors(t, qubits, res, large_detuning_limit)
    return x_state_from_factors(params, t, qubits, factors)


def x_state_from_factors(
    params: XStateParams, t, qubits: QubitPairConfig, factors: DecayFactors
) -> EvolvedXState:
    """X state at time t (a float or an array) from decay factors evaluated at t."""
    return EvolvedXState(
        mu=(params.c1 - params.c2) * factors.gamma1,
        nu=(params.c1 + params.c2) * factors.gamma2,
        delta1=(qubits.omega_a + qubits.omega_b) * t,
        delta2=_precession(qubits.omega_a - qubits.omega_b, t),
        c3=params.c3,
        t=t,
    )


def _precession(omega: float, t):
    # a zero frequency keeps a zero phase at t = inf too, where omega * t is nan
    if omega != 0.0:
        return omega * t
    return np.zeros_like(t, dtype=float) if isinstance(t, np.ndarray) else 0.0


def _coherence(amplitude: float, phase: float) -> complex:
    # a zero amplitude is a zero entry at every phase, where 0 * e^{-i inf} is nan
    return 0.0 if amplitude == 0.0 else 0.25 * amplitude * cmath.exp(-1j * phase)


def assemble_density(x: EvolvedXState) -> TwoQubitDensity:
    """Density matrix of an evolved X state.

    The surviving coherences sit on the antidiagonal with the precession
    phases: entry (|00>, |11>) is (mu/4) e^{-i delta1} and entry
    (|01>, |10>) is (nu/4) e^{-i delta2}, matching evolve_density.
    """
    return _x_form_density(x.c3, _coherence(x.mu, x.delta1), _coherence(x.nu, x.delta2))


def evolve_density(
    rho0: TwoQubitDensity,
    t: float,
    qubits: QubitPairConfig,
    res: ReservoirConfig,
    large_detuning_limit: bool = False,
) -> TwoQubitDensity:
    """Evolution of an arbitrary initial density matrix by the one-mask map.

    rho(t) = rho(0) * exp(-i dE t - i d(E^2) P(t) - dE^2 Q(t)) elementwise,
    with dE_{ll'} = E_l - E_l'. With large_detuning_limit set, every
    off-diagonal element decays by the limit gamma1 instead, even one a
    degeneracy would otherwise freeze; the limit mode is only meaningful
    for the X antidiagonals.
    """
    if t < 0.0:
        raise InvalidStateError(f"t={t!r} must be nonnegative")
    s = 0.5 * (qubits.omega_a + qubits.omega_b)
    d = 0.5 * (qubits.omega_a - qubits.omega_b)
    energy = np.array([s, d, -d, -s])
    gap = energy[:, None] - energy[None, :]
    sq_gap = (energy * energy)[:, None] - (energy * energy)[None, :]
    phase = gap * t + sq_gap * phase_exponent(t, res)
    if large_detuning_limit:
        factors = decay_factors(t, qubits, res, large_detuning_limit)
        mask = np.exp(-1j * phase) * factors.gamma1
        np.fill_diagonal(mask, 1.0)
    else:
        mask = np.exp(-1j * phase - gap * gap * dephasing_exponent(t, res))
    return TwoQubitDensity(rho0.entries * mask)
