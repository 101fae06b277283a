"""Generalized Pauli (clock/shift) matrices, Weyl unitary operator bases,
mutually unbiased basis pairs and phase-space operators.

Conventions, fixed once for the whole library:

* ``X|i> = |(i+1) mod d>`` and ``Z = sum_j w^j |j><j|`` with ``w = exp(2 pi i/d)``,
  so that ``X Z = w^{-1} Z X``.
* ``weyl_op(m, r, s) = tau^{r s} X^r Z^s`` with ``tau = -exp(i pi / m)``.  For
  odd ``m`` the phase has order ``m`` and the family is periodic in both
  indices; for even ``m`` the phase has order ``2 m``.
* Phase-space displacements reuse the same phase system,
  ``w(p, q) = weyl_op(d, p, q)``, restricted to odd ``d`` where the parity
  operator construction applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import InvariantViolation, PreconditionError
from .tolerances import TOL, Tolerances


def shift_x(d: int) -> np.ndarray:
    """Cyclic shift matrix, X|i> = |(i+1) mod d>."""
    if d < 2:
        raise PreconditionError("shift operator needs dimension >= 2")
    x = np.zeros((d, d), dtype=complex)
    for i in range(d):
        x[(i + 1) % d, i] = 1.0
    return x


def clock_z(d: int) -> np.ndarray:
    """Clock matrix, diagonal of d-th roots of unity."""
    if d < 2:
        raise PreconditionError("clock operator needs dimension >= 2")
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def weyl_op(m: int, r: int, s: int) -> np.ndarray:
    """tau^{r s} X^r Z^s for arbitrary integer indices.

    X^r and Z^s are periodic in m; the scalar phase is evaluated with the
    exact integer product ``r*s`` so that power identities such as
    ``weyl_op(m, r, s)^k = weyl_op(m, k r, k s)`` hold for every integer k.
    """
    if m < 2:
        raise PreconditionError("operator basis needs dimension >= 2")
    omega = np.exp(2j * np.pi / m)
    rm, sm = r % m, s % m
    # tau = -exp(i pi/m) has order 2m; reduce the exponent exactly.
    tau_exp = (r * s) % (2 * m)
    phase = (-np.exp(1j * np.pi / m)) ** tau_exp
    col = np.arange(m)
    mat = np.zeros((m, m), dtype=complex)
    mat[(col + rm) % m, col] = omega ** ((sm * col) % m)
    return phase * mat


def operator_gram(ops, sigma: np.ndarray | None = None) -> np.ndarray:
    """G_ij = tr(U_i sigma U_j†) for a family of m x m operators.

    ``sigma = None`` means I/m, so G is the normalised trace inner product
    (1/m) tr(U_i U_j†): the identity for a trace-orthonormal family.
    """
    mats = np.asarray(ops, dtype=complex)
    n, m = mats.shape[0], mats.shape[-1]
    stack = mats.reshape(n, m * m)
    left = stack / m if sigma is None else (mats @ sigma).reshape(n, m * m)
    return left @ stack.conj().T


@dataclass(frozen=True)
class UnitaryOperatorBasis:
    """m^2 unitaries on an m-dimensional space, orthonormal under
    (1/m) tr(U_i U_j†)."""

    dim: int
    ops: tuple = field(repr=False)
    indices: tuple  # (r, s) label per operator, row-major

    def __post_init__(self):
        m = self.dim
        if len(self.ops) != m * m:
            raise InvariantViolation("operator basis must contain dim^2 elements")
        gram = operator_gram(self.ops)
        if np.max(np.abs(gram - np.eye(m * m))) > TOL.basis_gram:
            raise InvariantViolation("operator basis is not trace-orthonormal")

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.ops[i]


def weyl_basis(m: int) -> UnitaryOperatorBasis:
    """The Weyl-Heisenberg unitary operator basis in row-major (r, s) order.

    The first element is the identity, so taking any leading subset keeps
    orthonormality and contains 1.
    """
    indices = tuple((r, s) for r in range(m) for s in range(m))
    ops = tuple(weyl_op(m, r, s) for r, s in indices)
    return UnitaryOperatorBasis(dim=m, ops=ops, indices=indices)


def computational_basis(d: int) -> np.ndarray:
    """Identity matrix; columns are the computational basis vectors."""
    return np.eye(d, dtype=complex)


def fourier_basis(d: int) -> np.ndarray:
    """Columns |f_k> = d^{-1/2} sum_j w^{j k} |j>; eigenbasis of the shift."""
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def mub_pair(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The computational basis and its Fourier conjugate.

    All cross overlaps have squared modulus 1/d in every dimension, so this
    pair is mutually unbiased even when d is not a prime power.
    """
    if d < 2:
        raise PreconditionError("mutually unbiased pair needs dimension >= 2")
    return computational_basis(d), fourier_basis(d)


def unbiasedness_residual(b1: np.ndarray, b2: np.ndarray) -> float:
    """max |  |<i|j>|^2 - 1/d  | over all cross overlaps."""
    d = b1.shape[0]
    overlaps = np.abs(b1.conj().T @ b2) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / d)))


def parity_operator(d: int) -> np.ndarray:
    """Reflection through the origin, |j> -> |-j mod d>; an involution."""
    if d % 2 == 0:
        raise PreconditionError("phase-space construction requires odd dimension")
    p = np.zeros((d, d), dtype=complex)
    for j in range(d):
        p[(-j) % d, j] = 1.0
    return p


def weyl_displacement(d: int, p: int, q: int) -> np.ndarray:
    """Phase-space displacement w(p, q) = tau^{p q} Z^p X^q for odd d.

    The q index shifts position and the p index kicks momentum, so states
    diagonal in the computational basis have phase-space representations
    that are uniform along p within each fixed-q column.
    """
    if d % 2 == 0:
        raise PreconditionError("phase-space construction requires odd dimension")
    if not (0 <= p < d and 0 <= q < d):
        raise PreconditionError("phase-space coordinates must lie in Z_d")
    tau_exp = (p * q) % (2 * d)
    phase = (-np.exp(1j * np.pi / d)) ** tau_exp
    zp = np.diag(np.exp(2j * np.pi * p * np.arange(d) / d))
    xq = np.zeros((d, d), dtype=complex)
    col = np.arange(d)
    xq[(col + q) % d, col] = 1.0
    return phase * zp @ xq


def expand_in_basis(basis: UnitaryOperatorBasis, a: np.ndarray) -> np.ndarray:
    """Coefficients c_i = (1/m) tr(U_i† a); a = sum_i c_i U_i."""
    m = basis.dim
    return np.array([np.trace(op.conj().T @ a) / m for op in basis.ops])


def resum_from_basis(basis: UnitaryOperatorBasis, coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for c, op in zip(coeffs, basis.ops):
        out += c * op
    return out
