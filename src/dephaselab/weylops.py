"""Generalized Pauli (clock/shift) matrices, Weyl unitary operator bases,
mutually unbiased basis pairs and phase-space operators.

Conventions, fixed once for the whole library:

* ``X|i> = |(i+1) mod d>`` and ``Z = sum_j w^j |j><j|`` with ``w = exp(2 pi i/d)``,
  so that ``X Z = w^{-1} Z X``.
* ``weyl_family(m, r, s)`` stacks ``tau^{r s} X^r Z^s`` with
  ``tau = -exp(i pi / m)`` for label arrays r, s; it is the only builder, and
  ``shift_x``, ``clock_z``, ``weyl_op`` and ``weyl_basis`` are its members.
  For odd ``m`` the phase has order ``m`` and the family is periodic in both
  indices; for even ``m`` the phase has order ``2 m``.  Its nonzero entries
  are ``clock_phases(m, s)``, which the Gram form of the clock mixture reads
  without building the operators.
* Phase-space displacements reuse the same phase system,
  ``w(p, q) = tau^{pq} Z^p X^q = w^{pq} weyl_op(d, q, p)``, restricted to odd
  ``d`` where the parity operator construction applies.
"""

from __future__ import annotations

import numpy as np

from .qcore import InvariantViolation, PreconditionError
from .tolerances import TOL


def weyl_family(m: int, r, s) -> np.ndarray:
    """The (n, m, m) stack of tau^{r s} X^r Z^s for integer label arrays r, s.

    The one place the phase convention is written.  r and s broadcast
    against each other.  X^r and Z^s are periodic in m; the scalar phase is
    evaluated with the exact integer product ``r*s`` (tau has order 2m), so
    power identities such as ``U(r, s)^k = U(k r, k s)`` hold for every k.
    """
    if m < 2:
        raise PreconditionError("Weyl operators need dimension >= 2")
    r, s = np.broadcast_arrays(np.atleast_1d(np.asarray(r, dtype=np.int64)),
                               np.asarray(s, dtype=np.int64))
    phase = (-np.exp(1j * np.pi / m)) ** ((r * s) % (2 * m))
    col = np.arange(m)
    ops = np.zeros((r.size, m, m), dtype=complex)
    ops[np.arange(r.size)[:, None], (col + r[:, None] % m) % m, col] = clock_phases(m, s)
    return np.multiply(phase[:, None, None], ops, out=ops)


def clock_phases(m: int, s) -> np.ndarray:
    """The (n, m) array whose row k is the diagonal of Z^{s_k}, w^(s_k j).

    These are the nonzero entries ``weyl_family`` places, before its tau
    phase, for an integer label array s.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.int64))
    table = np.exp(2j * np.pi / m) ** np.arange(m)
    return table[(s[:, None] % m * np.arange(m)) % m]


def shift_x(d: int) -> np.ndarray:
    """Cyclic shift matrix, X|i> = |(i+1) mod d>."""
    return weyl_family(d, 1, 0)[0]


def clock_z(d: int) -> np.ndarray:
    """Clock matrix, diagonal of d-th roots of unity."""
    return weyl_family(d, 0, 1)[0]


def weyl_op(m: int, r: int, s: int) -> np.ndarray:
    """tau^{r s} X^r Z^s for arbitrary integer indices."""
    return weyl_family(m, r, s)[0]


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


def weyl_basis(m: int) -> np.ndarray:
    """The (m^2, m, m) Weyl-Heisenberg unitary operator basis in row-major
    (r, s) order, orthonormal under (1/m) tr(U_i U_j†).

    The first element is the identity, so taking any leading subset keeps
    orthonormality and contains 1.
    """
    r, s = np.divmod(np.arange(m * m), m)
    ops = weyl_family(m, r, s)
    if len(ops) != m * m:
        raise InvariantViolation("operator basis must contain dim^2 elements")
    if np.max(np.abs(operator_gram(ops) - np.eye(m * m))) > TOL.basis_gram:
        raise InvariantViolation("operator basis is not trace-orthonormal")
    return ops


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
    # Z^p X^q = w^{pq} X^q Z^p
    return np.exp(2j * np.pi * ((p * q) % d) / d) * weyl_op(d, q, p)
