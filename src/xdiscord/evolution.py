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
import math
from functools import partial
from operator import mul

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
    _each,
    _record,
    _reject,
    _x_form_density,
    _x_spectrum,
)


class EvolvedXState(_record("EvolvedXState", "mu nu delta1 delta2 c3 t")):
    """X-state snapshot at time t.

    mu and nu are the decayed outer and inner antidiagonal amplitudes
    (4 * the matrix entries), delta1/delta2 the accumulated precession
    phases (w_a + w_b) t and (w_a - w_b) t, c3 the frozen population
    parameter. t, mu, nu, delta1 and delta2 are floats, or lists over a
    time grid.
    """

    __slots__ = ()

    def __new__(cls, mu: float, nu: float, delta1: float, delta2: float, c3: float,
                t: float):
        # a nan t passes, as t < 0 is false; min() skips every nan but a first
        # one, which fails the screen and leaves the points to _negative_time
        _reject(_negative_time, "t=%r must be nonnegative", t,
                fine=lambda t: min(t, default=0.0) >= 0.0)

        def bad_point(mu, nu):
            if mu != mu or nu != nu or c3 != c3:
                return mu, nu, c3, "include a nan"
            outer, _, inner, _ = _x_spectrum(abs(mu), abs(nu), c3)
            worst = inner if inner < outer else outer
            if worst < EIGENVALUE_FLOOR:
                return mu, nu, c3, "induce a negative eigenvalue %.6e" % worst

        def fine(mu, nu):
            # both eigenvalues fall as |mu|, |nu| grow, so the largest of each decide;
            # max() skips every nan but a first one, which a nan sum shows
            outer, _, inner, _ = _x_spectrum(max(map(abs, mu), default=0.0),
                                             max(map(abs, nu), default=0.0), c3)
            return (outer >= EIGENVALUE_FLOOR and inner >= EIGENVALUE_FLOOR
                    and not math.isnan(sum(mu) + sum(nu)))

        _reject(bad_point, "(mu, nu, c3)=(%r, %r, %r) %s", mu, nu, t=t, fine=fine)
        return super().__new__(cls, mu, nu, delta1, delta2, c3, t)


def _negative_time(t):
    return (t,) if t < 0.0 else None


def evolve_x_state(
    params: XStateParams,
    t,
    qubits: QubitPairConfig,
    res: ReservoirConfig,
    large_detuning_limit: bool = False,
) -> EvolvedXState:
    """Fast path for X states: mu = (c1 - c2) gamma1, nu = (c1 + c2) gamma2.

    t is a float or a list of times.
    """
    _reject(_negative_time, "t=%r must be nonnegative", t)
    factors = decay_factors(t, qubits, res, large_detuning_limit)
    return x_state_from_factors(params, t, qubits, factors)


def x_state_from_factors(
    params: XStateParams, t, qubits: QubitPairConfig, factors: DecayFactors
) -> EvolvedXState:
    """X state at time t (a float or a list) from decay factors evaluated at t."""
    outer, inner = params.c1 - params.c2, params.c1 + params.c2
    w_sum, w_diff = qubits.omega_a + qubits.omega_b, qubits.omega_a - qubits.omega_b
    return EvolvedXState(
        mu=_each(partial(mul, outer), factors.gamma1),
        nu=_each(partial(mul, inner), factors.gamma2),
        delta1=_each(partial(mul, w_sum), t),
        # a zero frequency keeps a zero phase at t = inf too, where 0 * inf is nan
        delta2=_each(partial(mul, w_diff) if w_diff != 0.0 else lambda v: 0.0, t),
        c3=params.c3,
        t=t,
    )


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
) -> TwoQubitDensity:
    """Evolution of an arbitrary initial density matrix by the one-mask map.

    rho(t) = rho(0) * exp(-i dE t - i d(E^2) P(t) - dE^2 Q(t)) entry by
    entry, with dE_{ll'} = E_l - E_l'; the diagonal is frozen.
    """
    if not t >= 0.0:  # a nan t fails here too
        raise InvalidStateError(f"t={t!r} must be nonnegative")
    s, d = 0.5 * (qubits.omega_a + qubits.omega_b), 0.5 * (qubits.omega_a - qubits.omega_b)
    energy = (s, d, -d, -s)
    p, q = phase_exponent(t, res), dephasing_exponent(t, res)

    def mask(e: float, f: float) -> complex:
        gap = e - f
        # a zero gap neither precesses nor decays, at t = inf too, where 0 * inf is nan
        phase = (e * e - f * f) * p + (gap * t if gap != 0.0 else 0.0)
        # an entry that has decayed to 0 is 0 whatever its phase, where 0 * e^{-i inf} is nan
        exponent = gap * gap * q if gap != 0.0 else 0.0
        return cmath.exp(-1j * phase - exponent) if exponent < math.inf else 0.0

    return TwoQubitDensity([[v if i == j else v * mask(e, f)
                             for j, (v, f) in enumerate(zip(row, energy))]
                            for i, (row, e) in enumerate(zip(rho0.entries, energy))])
