"""Two-qubit states and density-matrix utilities.

Matrices live in the product basis |00>, |01>, |10>, |11>, where the first
label belongs to qubit A and the second to qubit B. Label 0 is the upper
level, so the bare energy of |l_A l_B> is ((-1)^l_A w_A + (-1)^l_B w_B)/2.
Entropies are in bits (log base 2) throughout.

The X-state pipeline runs on Python floats: a quantity at one time is a
float, over a time grid a list of floats, one per time. A dense matrix is
a tuple of rows of complex numbers; the 4x4 spectrum is taken by cyclic
Jacobi rotations, a 2x2 one in closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvalidStateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# eigenvalues this far below zero are treated as roundoff and clipped
EIGENVALUE_FLOOR = -1e-10
# the most rows one table may have: an evolve row peaks at about 800 bytes
# in memory, so 0.8 GB; the largest documented table has 40,000 rows
_MAX_ROWS = 10**6
_MAX_SWEEPS = 32  # of the Jacobi eigensolver; a 4x4 hermitian matrix needs about 6


def _record(name: str, fields: str, defaults=()):
    """The namedtuple base of a record whose subclass validates in __new__.

    Its _make, and so _replace, builds through that __new__, which a plain
    namedtuple bypasses.
    """
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def xlog2(x: float) -> float:
    """x * log2(x) with the 0 * log(0) = 0 convention.

    Small negative inputs (roundoff from eigensolvers) are clipped to zero;
    anything below EIGENVALUE_FLOOR raises.
    """
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


def _entry(i: int, j: int, v) -> complex:
    try:
        return complex(v)
    except (TypeError, ValueError):
        raise InvalidStateError(f"entry ({i}, {j}) = {v!r} is not a number") from None


class TwoQubitDensity(_record("TwoQubitDensity", "entries")):
    """Validated 4x4 density matrix in the product basis.

    entries is a copy of the input as four tuples of four complex numbers;
    any 4x4 nested sequence is accepted, a NumPy array included. Another
    shape, or an entry complex() refuses, raises InvalidStateError.
    Construction checks hermiticity and unit trace to 1e-12 and positivity
    to the shared eigenvalue floor.
    """

    __slots__ = ()

    def __new__(cls, entries):
        try:
            rows = [tuple(row) for row in entries]
        except TypeError:
            # not a sequence, or a flat sequence of numbers
            got = f"shape ({len(entries)},)" if hasattr(entries, "__len__") else repr(entries)
            raise InvalidStateError(f"expected a 4x4 matrix, got {got}") from None
        m = tuple(tuple(_entry(i, j, v) for j, v in enumerate(row)) for i, row in enumerate(rows))
        if [len(row) for row in m] != [4] * 4:
            shape = (len(m), *sorted({len(row) for row in m}))
            raise InvalidStateError(f"expected a 4x4 matrix, got shape {shape}")
        gaps = [abs(m[i][j] - m[j][i].conjugate()) for i in range(4) for j in range(i + 1)]
        # a nan entry fails here, not in the eigensolver; max() would skip it
        herm = math.nan if math.isnan(sum(gaps)) else max(gaps)
        if not herm <= HERMITICITY_TOL:
            raise InvalidStateError(f"matrix is not hermitian: max deviation {herm:.3e}")
        tr = m[0][0] + m[1][1] + m[2][2] + m[3][3]
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise InvalidStateError(f"trace {tr!r} differs from 1 beyond tolerance")
        low = min(_eigvalsh(m))
        if low < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"negative eigenvalue {low:.6e} beyond tolerance")
        return super().__new__(cls, m)


def _x_form_density(c3: float, outer: complex, inner: complex) -> TwoQubitDensity:
    """Density matrix of X form.

    Diagonal (1 + c3)/4, (1 - c3)/4, (1 - c3)/4, (1 + c3)/4; entry
    (|00>, |11>) is outer and entry (|01>, |10>) is inner, with their
    conjugates below the diagonal.
    """
    dp, dm = (1.0 + c3) / 4.0, (1.0 - c3) / 4.0
    return TwoQubitDensity(((dp, 0.0, 0.0, outer), (0.0, dm, inner, 0.0),
                            (0.0, inner.conjugate(), dm, 0.0), (outer.conjugate(), 0.0, 0.0, dp)))


def x_state_density(params: XStateParams) -> TwoQubitDensity:
    """Density matrix induced by X-state parameters.

    Diagonal (1 + c3)/4, (1 - c3)/4, (1 - c3)/4, (1 + c3)/4; corner
    antidiagonal (c1 - c2)/4; inner antidiagonal (c1 + c2)/4.
    """
    c1, c2 = params.c1, params.c2
    return _x_form_density(params.c3, (c1 - c2) / 4.0, (c1 + c2) / 4.0)


def partial_trace(rho: TwoQubitDensity, keep: str) -> tuple:
    """Reduced 2x2 matrix of qubit keep, "A" or "B", as two tuples of two complex numbers."""
    m = rho.entries
    if keep == "A":
        return tuple(tuple(m[2 * i][2 * j] + m[2 * i + 1][2 * j + 1] for j in (0, 1))
                     for i in (0, 1))
    if keep == "B":
        return tuple(tuple(m[i][j] + m[2 + i][2 + j] for j in (0, 1)) for i in (0, 1))
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _eigvalsh(m) -> list:
    """Eigenvalues of a hermitian matrix, rows m of complex numbers, by cyclic Jacobi.

    Each rotation zeroes one off-diagonal entry a_pq = r e^{i alpha}: the
    phase e^{-i alpha} on column q makes it real, and the real rotation of
    Golub & Van Loan, Matrix Computations, section 8.5, removes it. Sweeps
    over all pairs stop once the off-diagonal part is below 1e-17 of the
    matrix's norm, where it moves no eigenvalue of a unit-trace matrix by a
    rounding.
    """
    a = [list(row) for row in m]
    n = len(a)
    diag = [a[i][i].real for i in range(n)]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    scale = 1e-34 * sum(abs(v) ** 2 for row in a for v in row)
    for _ in range(_MAX_SWEEPS):
        if not sum(abs(a[p][q]) ** 2 for p, q in pairs) > scale:
            break
        for p, q in pairs:
            r = abs(a[p][q])
            if r == 0.0:
                continue
            phase = a[p][q].conjugate() / r
            tau = (diag[q] - diag[p]) / (2.0 * r)
            t = math.copysign(1.0 / (abs(tau) + math.hypot(1.0, tau)), tau)
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            diag[p], diag[q] = diag[p] - t * r, diag[q] + t * r
            a[p][q] = a[q][p] = 0j
            for k in range(n):
                if k != p and k != q:
                    kp, kq = a[k][p], a[k][q] * phase
                    a[k][p] = c * kp - s * kq
                    a[k][q] = s * kp + c * kq
                    a[p][k], a[q][k] = a[k][p].conjugate(), a[k][q].conjugate()
    return diag


def von_neumann_entropy(matrix) -> float:
    """Entropy -Tr[rho log2 rho] of a hermitian positive unit-trace matrix.

    matrix is any square nested sequence of numbers. A 2x2 one uses the
    closed-form spectrum, a larger one the Jacobi eigensolver. Eigenvalues
    below the shared floor raise; values in [floor, 0) are clipped to zero.
    """
    m = [[complex(v) for v in row] for row in matrix]
    if len(m) == 2:
        # closed form for a hermitian 2x2
        a, d = m[0][0].real, m[1][1].real
        mid = 0.5 * (a + d)
        h = math.hypot(0.5 * (a - d), abs(m[0][1]))
        return entropy_bits((mid - h, mid + h))
    return entropy_bits(_eigvalsh(m))
