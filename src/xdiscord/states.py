"""Two-qubit states and density-matrix utilities.

Matrices live in the product basis |00>, |01>, |10>, |11>, where the first
label belongs to qubit A and the second to qubit B. Label 0 is the upper
level, so the bare energy of |l_A l_B> is ((-1)^l_A w_A + (-1)^l_B w_B)/2.
Entropies are in bits (log base 2) throughout.

The X-state pipeline runs on Python floats: a quantity at one time is a
float, over a time grid a list of floats, one per time. Only the dense
matrices (TwoQubitDensity and what works on it) need NumPy, and import it
where they use it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import InvalidStateError

if TYPE_CHECKING:  # annotations only: the dense-matrix routes import NumPy themselves
    import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# eigenvalues this far below zero are treated as roundoff and clipped
EIGENVALUE_FLOOR = -1e-10


def _record(name: str, fields: str, defaults=()):
    """The namedtuple base of a record whose subclass validates in __new__.

    Its _make, and so _replace, builds through that __new__, which a plain
    namedtuple bypasses.
    """
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def xlog2(x):
    """x * log2(x) with the 0 * log(0) = 0 convention, for a float or a NumPy array.

    Small negative inputs (roundoff from eigensolvers) are clipped to zero;
    anything below EIGENVALUE_FLOOR raises. Floats go through math.log2,
    arrays (the amplification scan, the brute-force oracle) elementwise
    through np.log2.
    """
    # type() is the fast path for floats; isinstance admits np.float64 and ints
    if type(x) is not float and not isinstance(x, (float, int)):
        import numpy as np

        bad = x < EIGENVALUE_FLOOR
        if bad.any():
            raise InvalidStateError(
                f"weight {x[bad].min():.6e} is negative beyond tolerance"
            )
        xc = np.maximum(x, 0.0)
        return np.where(xc > 0.0, xc * np.log2(np.maximum(xc, 1e-300)), 0.0)
    if x > 0.0:
        return x * math.log2(x)
    if x >= EIGENVALUE_FLOOR:
        return 0.0
    raise InvalidStateError(f"weight {x!r} is negative beyond tolerance")


def entropy_bits(weights) -> float:
    """Shannon entropy, in bits, of nonnegative weights."""
    return -math.fsum(map(xlog2, weights))


def _each(f, *columns):
    """f at every point: called once on floats, mapped over lists of one
    length, which hold a time grid point by point."""
    return list(map(f, *columns)) if type(columns[0]) is list else f(*columns)


def _reject(find, message: str, *columns, t=None, fine=None):
    """Raise InvalidStateError at the first point where find(*point) is not None.

    columns are floats, or lists over a time grid t. find returns None at a
    good point and the values the message is %-formatted with at a bad one;
    the message names that point's t when t is given. Over a grid,
    fine(*columns) may vouch for every point at once, from extremes the
    builtins find without a call per point; find then runs only where it
    does not.
    """
    if type(columns[0]) is list:
        if fine is not None and fine(*columns):
            return
        found = list(map(find, *columns))
        if found.count(None) == len(found):
            return
        i = next(i for i, values in enumerate(found) if values is not None)
        values, t = found[i], None if t is None else t[i]
    else:
        values = find(*columns)
        if values is None:
            return
    where = "" if t is None else f" at t={t!r}"
    raise InvalidStateError(message % values + where)


def _x_spectrum(mu: float, nu: float, c3: float):
    """Eigenvalues of the X-form matrix with antidiagonal magnitudes mu, nu."""
    return (
        (1.0 + c3 - mu) / 4.0,
        (1.0 + c3 + mu) / 4.0,
        (1.0 - c3 - nu) / 4.0,
        (1.0 - c3 + nu) / 4.0,
    )


class XStateParams(_record("XStateParams", "c1 c2 c3")):
    """Correlation parameters (c1, c2, c3) of a shared-basis X state.

    The induced density matrix has diagonal (1 +/- c3)/4, outer antidiagonal
    entries (c1 - c2)/4 and inner antidiagonal entries (c1 + c2)/4.
    Construction rejects parameters whose induced matrix is not a state.
    """

    __slots__ = ()

    def __new__(cls, c1: float, c2: float, c3: float):
        for name, v in (("c1", c1), ("c2", c2), ("c3", c3)):
            v = float(v)
            if not math.isfinite(v) or abs(v) > 1.0:
                raise InvalidStateError(f"{name}={v!r} lies outside [-1, 1]")
        worst = min(_x_spectrum(c1 - c2, c1 + c2, c3))
        if worst < EIGENVALUE_FLOOR:
            raise InvalidStateError(
                "(c1, c2, c3)=(%r, %r, %r) induce a negative eigenvalue %.6e"
                % (c1, c2, c3, worst)
            )
        return super().__new__(cls, c1, c2, c3)


class QubitPairConfig(_record("QubitPairConfig", "omega_a omega_b")):
    """Transition frequencies omega_a, omega_b of the two qubits (hbar = 1)."""

    __slots__ = ()

    def __new__(cls, omega_a: float, omega_b: float):
        for name, v in (("omega_a", omega_a), ("omega_b", omega_b)):
            v = float(v)
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidStateError(f"{name}={v!r} must be positive")
        total = omega_a + omega_b
        if not math.isfinite(total * total):  # gamma1 = exp(-(w_a + w_b)^2 Q) needs it
            raise InvalidStateError(
                f"(omega_a, omega_b)=({omega_a!r}, {omega_b!r}): "
                "(omega_a + omega_b)^2 overflows a float")
        return super().__new__(cls, omega_a, omega_b)

    @property
    def r(self) -> float:
        """Frequency ratio omega_a / omega_b."""
        return self.omega_a / self.omega_b

    @classmethod
    def from_ratio(cls, omega_b: float, r: float) -> "QubitPairConfig":
        return cls(omega_a=r * omega_b, omega_b=omega_b)

    @property
    def identical(self) -> bool:
        return self.omega_a == self.omega_b


class TwoQubitDensity(_record("TwoQubitDensity", "entries")):
    """Validated 4x4 density matrix in the product basis.

    The stored array entries is a read-only complex copy of the input.
    Construction checks hermiticity and unit trace to 1e-12 and positivity
    to the shared eigenvalue floor.
    """

    __slots__ = ()

    def __new__(cls, entries):
        import numpy as np

        m = np.array(entries, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidStateError(f"expected a 4x4 matrix, got shape {m.shape}")
        # written as not (x <= tol), so a nan entry fails here, not in eigvalsh
        herm = np.max(np.abs(m - m.conj().T))
        if not herm <= HERMITICITY_TOL:
            raise InvalidStateError(f"matrix is not hermitian: max deviation {herm:.3e}")
        tr = m.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise InvalidStateError(f"trace {tr!r} differs from 1 beyond tolerance")
        w = np.linalg.eigvalsh(m)
        if w[0] < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"negative eigenvalue {w[0]:.6e} beyond tolerance")
        m.setflags(write=False)
        return super().__new__(cls, m)


def _x_form_density(c3: float, outer: complex, inner: complex) -> TwoQubitDensity:
    """Density matrix of X form.

    Diagonal (1 + c3)/4, (1 - c3)/4, (1 - c3)/4, (1 + c3)/4; entry
    (|00>, |11>) is outer and entry (|01>, |10>) is inner, with their
    conjugates below the diagonal.
    """
    import numpy as np

    dp = (1.0 + c3) / 4.0
    dm = (1.0 - c3) / 4.0
    m = np.array(
        [
            [dp, 0.0, 0.0, outer],
            [0.0, dm, inner, 0.0],
            [0.0, np.conj(inner), dm, 0.0],
            [np.conj(outer), 0.0, 0.0, dp],
        ],
        dtype=complex,
    )
    return TwoQubitDensity(m)


def x_state_density(params: XStateParams) -> TwoQubitDensity:
    """Density matrix induced by X-state parameters.

    Diagonal (1 + c3)/4, (1 - c3)/4, (1 - c3)/4, (1 + c3)/4; corner
    antidiagonal (c1 - c2)/4; inner antidiagonal (c1 + c2)/4.
    """
    c1, c2 = params.c1, params.c2
    return _x_form_density(params.c3, (c1 - c2) / 4.0, (c1 + c2) / 4.0)


def partial_trace(rho: TwoQubitDensity, keep: str) -> np.ndarray:
    """Reduced 2x2 matrix of one qubit.

    Parameters
    ----------
    rho : TwoQubitDensity
    keep : {"A", "B"}
        Which qubit's reduced state to return.
    """
    import numpy as np

    r4 = rho.entries.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ibjb->ij", r4)
    if keep == "B":
        return np.einsum("aiaj->ij", r4)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _eigvals_2x2(m: np.ndarray):
    # closed form for a hermitian 2x2; cheaper and exact enough for entropies
    a = m[0, 0].real
    d = m[1, 1].real
    off = abs(m[0, 1])
    mid = 0.5 * (a + d)
    h = math.hypot(0.5 * (a - d), off)
    return (mid - h, mid + h)


def von_neumann_entropy(matrix: np.ndarray) -> float:
    """Entropy -Tr[rho log2 rho] of a hermitian positive unit-trace matrix.

    2x2 inputs use the closed-form spectrum, larger ones the dense
    eigensolver. Eigenvalues below the shared floor raise; values in
    [floor, 0) are clipped to zero.
    """
    import numpy as np

    m = np.asarray(matrix, dtype=complex)
    if m.shape == (2, 2):
        eigs = _eigvals_2x2(m)
    else:
        eigs = np.linalg.eigvalsh(m)
    return entropy_bits(eigs)
