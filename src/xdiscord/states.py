"""Two-qubit states and density-matrix utilities.

Matrices live in the product basis |00>, |01>, |10>, |11>, where the first
label belongs to qubit A and the second to qubit B. Label 0 is the upper
level, so the bare energy of |l_A l_B> is ((-1)^l_A w_A + (-1)^l_B w_B)/2.
Entropies are in bits (log base 2) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# eigenvalues this far below zero are treated as roundoff and clipped
EIGENVALUE_FLOOR = -1e-10

#: basis labels (l_A, l_B) in matrix order
BASIS_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))


def xlog2(x):
    """x * log2(x) with the 0 * log(0) = 0 convention, for a float or an array.

    Small negative inputs (roundoff from eigensolvers) are clipped to zero;
    anything below EIGENVALUE_FLOOR raises. Floats go through math.log2,
    ndarrays elementwise through np.log2.
    """
    if isinstance(x, np.ndarray):
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
    """Shannon entropy, in bits, of nonnegative weights; per column of a 2-D array."""
    if isinstance(weights, np.ndarray) and weights.ndim == 2:
        return np.array([entropy_bits(w) for w in weights.T.tolist()])
    return -math.fsum(xlog2(w) for w in weights)


def _where(cond, a, b):
    """np.where(cond, a, b) over a grid; a plain `a if cond else b` for one point."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _reject(bad, message: str, *values, t=None):
    """Raise InvalidStateError if bad, a bool or a bool array over a grid, holds anywhere.

    The message is %-formatted with the values at the first bad point, and
    names that point's t when t is given.
    """
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    i = int(np.argmax(bad)) if np.ndim(bad) else ()

    def at(v):
        return np.asarray(v, dtype=float)[i if np.ndim(v) else ()].item()

    where = "" if t is None else f" at t={at(t)!r}"
    raise InvalidStateError(message % tuple(map(at, values)) + where)


def _x_spectrum(mu: float, nu: float, c3: float):
    """Eigenvalues of the X-form matrix with antidiagonal magnitudes mu, nu."""
    return (
        (1.0 + c3 - mu) / 4.0,
        (1.0 + c3 + mu) / 4.0,
        (1.0 - c3 - nu) / 4.0,
        (1.0 - c3 + nu) / 4.0,
    )


@dataclass(frozen=True)
class XStateParams:
    """Correlation parameters (c1, c2, c3) of a shared-basis X state.

    The induced density matrix has diagonal (1 +/- c3)/4, outer antidiagonal
    entries (c1 - c2)/4 and inner antidiagonal entries (c1 + c2)/4.
    Construction rejects parameters whose induced matrix is not a state.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or abs(v) > 1.0:
                raise InvalidStateError(f"{name}={v!r} lies outside [-1, 1]")
        lam = _x_spectrum(self.c1 - self.c2, self.c1 + self.c2, self.c3)
        worst = min(lam)
        if worst < EIGENVALUE_FLOOR:
            raise InvalidStateError(
                "parameters (%r, %r, %r) induce a negative eigenvalue %.6e"
                % (self.c1, self.c2, self.c3, worst)
            )


@dataclass(frozen=True)
class QubitPairConfig:
    """Transition frequencies of the two qubits (hbar = 1)."""

    omega_a: float
    omega_b: float

    def __post_init__(self):
        for name in ("omega_a", "omega_b"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidStateError(f"{name}={v!r} must be positive")
        total = self.omega_a + self.omega_b
        if not math.isfinite(total * total):  # gamma1 = exp(-(w_a + w_b)^2 Q) needs it
            raise InvalidStateError(
                f"(omega_a, omega_b)=({self.omega_a!r}, {self.omega_b!r}): "
                "(omega_a + omega_b)^2 overflows a float")

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


@dataclass(frozen=True)
class TwoQubitDensity:
    """Validated 4x4 density matrix in the product basis.

    The stored array is a read-only copy of the input. Construction checks
    hermiticity and unit trace to 1e-12 and positivity to the shared
    eigenvalue floor.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidStateError(f"expected a 4x4 matrix, got shape {m.shape}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise InvalidStateError(f"matrix is not hermitian: max deviation {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace {tr!r} differs from 1 beyond tolerance")
        w = np.linalg.eigvalsh(m)
        if w[0] < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"negative eigenvalue {w[0]:.6e} beyond tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def _x_form_density(c3: float, outer: complex, inner: complex) -> TwoQubitDensity:
    """Density matrix of X form.

    Diagonal (1 + c3)/4, (1 - c3)/4, (1 - c3)/4, (1 + c3)/4; entry
    (|00>, |11>) is outer and entry (|01>, |10>) is inner, with their
    conjugates below the diagonal.
    """
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
    m = np.asarray(matrix, dtype=complex)
    if m.shape == (2, 2):
        eigs = _eigvals_2x2(m)
    else:
        eigs = np.linalg.eigvalsh(m)
    return entropy_bits(eigs)
