"""Dense complex linear algebra and quantum primitives.

All operators are plain ``numpy.ndarray`` objects with ``complex128`` dtype;
states are square unit-trace positive matrices.  Subsystem structure is
described by a tuple of factor dimensions (left factor = slowest index, i.e.
``kron`` order).  Everything here is a pure function over immutable inputs,
and numpy is the only dependency: unitary eigenphases come from a Cayley
transform and ``eigh`` (``unitary_eigh``), not from a Schur decomposition.

``hermitize``, ``trace_norm``, ``check_density_matrix`` and ``majorizes_spectra``
also take a (T, d, d) stack (spectra: (T, d)) and give each member what a call
on it alone gives; the CLI evaluates its trials so, in stacks of at most 2**20
entries.  The other functions refuse a stack with ``DimensionError``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .tolerances import TOL, Tolerances


class DimensionError(ValueError):
    """Operator shapes or subsystem layouts are inconsistent."""


class ResourceLimitError(RuntimeError):
    """A requested joint space exceeds the configured dimension cap."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


class InvariantViolation(ValueError):
    """An input fails its structural invariant (unitarity, positivity, ...)."""


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def as_operator(a: np.ndarray, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex matrix (``stack``: or a (T, d, d) stack) with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvariantViolation("matrix contains non-finite entries")
    return a


def check_density_matrix(rho: np.ndarray, tol: Tolerances = TOL,
                         evals: np.ndarray | None = None) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (``evals``: its spectrum, if known)."""
    rho = as_operator(rho, stack=True)
    skew = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)), axis=(-2, -1))
    trace = np.trace(rho, axis1=-2, axis2=-1)
    lowest = np.min(np.linalg.eigvalsh(hermitize(rho)) if evals is None else evals, axis=-1)
    for s, t, lo in zip(*(np.ravel(x).tolist() for x in (skew, trace, lowest))):
        if s > tol.hermiticity:
            raise InvariantViolation("state is not Hermitian within tolerance")
        if abs(t.real - 1.0) > tol.trace_one or abs(t.imag) > tol.trace_one:
            raise InvariantViolation("state trace differs from 1 beyond tolerance")
        if lo < tol.psd_floor:
            raise InvariantViolation(f"state has eigenvalue {lo} below the admissible floor")
    return rho


def check_unitary(u: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Validate that ``u u† = 1`` within tolerance."""
    u = as_operator(u)
    d = u.shape[0]
    if np.max(np.abs(u @ u.conj().T - np.eye(d))) > tol.unitarity:
        raise InvariantViolation("matrix is not unitary within tolerance")
    return u


def check_orthonormal_basis(b: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Validate a basis given as matrix columns (Gram matrix = identity)."""
    b = as_operator(b)
    gram = b.conj().T @ b
    if np.max(np.abs(gram - np.eye(b.shape[0]))) > tol.basis_gram:
        raise InvariantViolation("basis columns are not orthonormal within tolerance")
    return b


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part; use before eigvalsh on noisy output."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def check_layout(layout: Sequence[int], dim: int) -> tuple[int, ...]:
    """Validate a tuple of subsystem dimensions against a joint dimension."""
    dims = tuple(int(d) for d in layout)
    if any(d < 1 for d in dims):
        raise DimensionError(f"subsystem dimensions must be >= 1, got {dims}")
    if math.prod(dims) != dim:
        raise DimensionError(f"layout {dims} does not factor dimension {dim}")
    return dims


def require_dim(n: int, tol: Tolerances = TOL) -> None:
    """Refuse a joint space of dimension ``n`` above ``tol.dim_cap``."""
    if n > tol.dim_cap:
        raise ResourceLimitError(f"joint dimension {n} exceeds the configured cap {tol.dim_cap}")


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def tensor(*ops: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Kronecker product of one or more operators, left factor slowest.

    Raises :class:`ResourceLimitError` when the joint dimension would exceed
    ``tol.dim_cap``.
    """
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    mats = [np.asarray(op, dtype=complex) for op in ops]
    require_dim(math.prod(m.shape[0] for m in mats), tol)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def partial_trace(op: np.ndarray, layout: Sequence[int],
                  keep: Iterable[int]) -> np.ndarray:
    """Reduce ``op`` to the subsystems in ``keep`` (indices into ``layout``).

    The kept factors stay in their original relative order.
    """
    op = as_operator(op)
    dims = check_layout(layout, op.shape[0])
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise DimensionError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise DimensionError(f"keep indices {keep} out of range for layout {dims}")
    n = len(dims)
    tens = op.reshape(dims + dims)
    drop = [i for i in range(n) if i not in keep]
    for i in sorted(drop, reverse=True):
        tens = np.trace(tens, axis1=i, axis2=i + n)
        n -= 1  # one ket and one bra axis removed
    kept_dim = math.prod(dims[i] for i in keep)
    return tens.reshape(kept_dim, kept_dim)


def trace_norm(a: np.ndarray) -> float | np.ndarray:
    """Schatten 1-norm: the sum of singular values, or of absolute eigenvalues (half
    the cost) when exactly Hermitian, as state differences are; per member for a stack."""
    a = as_operator(a, stack=True)
    stack = a.reshape(-1, *a.shape[-2:])
    hermitian = np.all(stack == stack.conj().swapaxes(-1, -2), axis=(-2, -1))
    if hermitian.all():    # the usual case, without a boolean-index copy
        norms = np.sum(np.abs(np.linalg.eigvalsh(stack)), axis=-1)
    else:
        norms = np.empty(len(stack))
        norms[hermitian] = np.sum(np.abs(np.linalg.eigvalsh(stack[hermitian])), axis=-1)
        norms[~hermitian] = np.sum(np.linalg.svd(stack[~hermitian], compute_uv=False), axis=-1)
    return float(norms[0]) if a.ndim == 2 else norms


def block_trace_norm(a: np.ndarray, groups: np.ndarray) -> float:
    """``trace_norm(a)`` summed over the diagonal blocks that ``groups`` (one label
    per index) picks out: n s^3 work for n blocks of size s, not (n s)^3.  Below 49
    rows, where the grouping costs more than it saves, and with one group, unequal
    groups or a nonzero entry between groups it is ``trace_norm(a)``."""
    a, groups = as_operator(a), np.asarray(groups)
    if a.shape[0] < 49:
        return trace_norm(a)
    counts = np.unique(groups, return_counts=True)[1]
    n, s = counts.size, counts[0]
    if n > 1 and np.all(counts == s):
        order = np.argsort(groups, kind="stable")    # gathers each group's indices
        grouped = a if np.all(np.diff(groups) >= 0) else a[np.ix_(order, order)]
        blocks = np.moveaxis(np.diagonal(grouped.reshape(n, s, n, s), axis1=0, axis2=2), -1, 0)
        if np.count_nonzero(blocks) == np.count_nonzero(a):
            return float(np.sum(trace_norm(blocks)))
    return trace_norm(a)


def two_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a)))


def von_neumann_entropy(rho: np.ndarray, tol: Tolerances = TOL) -> float:
    """Entropy in bits.  Slightly negative eigenvalues from round-off are
    clamped to zero; eigenvalues below ``tol.entropy_eig_cutoff`` contribute 0.
    """
    rho = as_operator(rho)
    evals = np.linalg.eigvalsh(hermitize(rho))
    if np.min(evals) < -tol.eig_clamp:
        raise InvariantViolation(f"negative eigenvalue {np.min(evals)} beyond clamp range")
    evals = np.clip(evals, 0.0, None)
    evals = evals[evals > tol.entropy_eig_cutoff]
    return float(-np.sum(evals * np.log2(evals)))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = hermitize(as_operator(rho))
    sigma = hermitize(as_operator(sigma))
    evals, evecs = np.linalg.eigh(rho)
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = hermitize(root @ sigma @ root)
    s = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(s)) ** 2)


def mutual_information(joint: np.ndarray, layout: Sequence[int],
                       a: int, b: int, tol: Tolerances = TOL) -> float:
    """Quantum mutual information I(a:b) = S_a + S_b - S_ab, in bits."""
    ra = partial_trace(joint, layout, [a])
    rb = partial_trace(joint, layout, [b])
    rab = partial_trace(joint, layout, [a, b])
    return (von_neumann_entropy(ra, tol) + von_neumann_entropy(rb, tol)
            - von_neumann_entropy(rab, tol))


def unitary_eigenphases(eigvals: np.ndarray) -> np.ndarray:
    """Generator phases h in (-pi, pi] with exp(-i h) = eigval.

    Maps the -pi boundary (from eigenvalue -1, where the sign of the zero
    imaginary part is arbitrary) onto +pi so the branch is well defined.
    """
    h = -np.angle(np.asarray(eigvals, dtype=complex))
    h = np.where(h <= -np.pi + 1e-15, h + 2 * np.pi, h)
    return h


def unitary_eigh(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, Q) with U = Q diag(exp(-i h)) Q†, Q unitary and h the
    ``unitary_eigenphases`` branch, for one unitary or a stack (..., n, n).

    The spectrum is rotated so that -1 falls in the middle of its widest
    gap; the Cayley transform A = i (I - W)(I + W)^-1 of the rotated W is
    then a well-conditioned Hermitian matrix with the eigenvectors of U, and
    distinct eigenvalues on the circle map to distinct reals, so ``eigh``
    gives an orthonormal basis even for a degenerate spectrum.  The phases
    are read back from diag(Q† U Q).
    """
    u = np.asarray(u, dtype=complex)
    angles = np.sort(np.angle(np.linalg.eigvals(u)), axis=-1)
    gaps = np.diff(angles, axis=-1, append=angles[..., :1] + 2 * np.pi)
    widest = np.argmax(gaps, axis=-1)[..., None]
    middle = np.take_along_axis(angles + gaps / 2, widest, axis=-1)
    w = u * np.exp(1j * (np.pi - middle))[..., None]
    eye = np.eye(u.shape[-1])
    cayley = 1j * np.linalg.solve(eye + w, eye - w)
    _, q = np.linalg.eigh(0.5 * (cayley + cayley.conj().swapaxes(-1, -2)))
    eigvals = np.sum(q.conj() * (u @ q), axis=-2)
    return unitary_eigenphases(eigvals), q


def majorizes_spectra(lam: np.ndarray, mu: np.ndarray, tol: Tolerances = TOL) -> bool | np.ndarray:
    """Partial-sum dominance of two real vectors of equal length (any order);
    for two (T, d) stacks, a bool array with one verdict per row."""
    lam = np.sort(np.asarray(lam, dtype=float), axis=-1)[..., ::-1]
    mu = np.sort(np.asarray(mu, dtype=float), axis=-1)[..., ::-1]
    if lam.shape != mu.shape:
        raise DimensionError("spectra must have equal length")
    ok = np.all(np.cumsum(lam, axis=-1) >= np.cumsum(mu, axis=-1) - tol.majorization, axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def schur_horn_unitary(spectrum: Sequence[float], target_diagonal: Sequence[float],
                       tol: Tolerances = TOL) -> np.ndarray:
    """Unitary V with diag(V diag(spectrum) V†) = target_diagonal; for (T, n)
    stacks of both, the (T, n, n) stack of them.

    ``spectrum`` must be descending and majorize ``target_diagonal`` (any
    order).  V is a product of at most n-1 two-level rotations composed with
    a permutation; each rotation pins one diagonal entry to its target, and
    once pinned an index is never rotated again, so earlier entries survive.
    A rotation touches only its two rows of V, so the cost is O(n^2).  Step k
    pins the k-th largest target of every member at once.
    """
    lam = np.asarray(spectrum, dtype=float)
    tgt = np.asarray(target_diagonal, dtype=float)
    if tgt.shape != lam.shape:
        raise DimensionError("spectrum and target must have equal length")
    if np.any(np.diff(lam, axis=-1) > tol.majorization):
        raise PreconditionError("spectrum must be sorted in descending order")
    if np.any(abs(lam.sum(axis=-1) - tgt.sum(axis=-1)) > tol.majorization):
        raise PreconditionError("spectrum and target must have equal sums")
    if not np.all(majorizes_spectra(lam, tgt, tol)):
        raise PreconditionError("target diagonal is not majorized by the spectrum")

    n = lam.shape[-1]
    members = np.arange(math.prod(lam.shape[:-1]))
    tgt = tgt.reshape(members.size, n)
    order = np.argsort(tgt, axis=-1)[:, ::-1]     # process largest target first
    # Active values of each member in descending order; each entry remembers
    # which original position of the spectrum currently holds it.
    values = lam.reshape(members.size, n).copy()
    positions = np.tile(np.arange(n), (members.size, 1))
    v = np.tile(np.eye(n, dtype=complex), (members.size, 1, 1))
    placed = np.empty((members.size, n), dtype=int)

    for step in range(n):
        live = n - step
        t = tgt[members, order[:, step]]
        # Largest j with values[j] >= t (else 0); tolerate round-off at the boundary.
        reach = values >= (t - 1e-12)[:, None]
        j = np.where(reach.any(axis=1), live - 1 - np.argmax(reach[:, ::-1], axis=1), 0)
        placed[members, order[:, step]] = positions[members, j]
        # A member whose t matches its last remaining value needs no rotation.
        r = np.flatnonzero(j < live - 1)
        jr, tr = j[r], t[r]
        a, b = values[r, jr], values[r, jr + 1]
        c2 = np.ones_like(a)
        np.divide(tr - b, a - b, out=c2, where=a - b > 1e-15)
        c2 = np.minimum(np.maximum(c2, 0.0), 1.0)
        c, s = np.sqrt(c2), np.sqrt(1.0 - c2)
        rotation = np.stack((c, -s, s, c), axis=-1).reshape(-1, 2, 2)
        rows = r[:, None], positions[r[:, None], jr[:, None] + [0, 1]]
        v[rows] = rotation @ v[rows]        # rotates rows p, q of each member only
        values[r, jr + 1] = a + b - tr      # merged value stays sorted at slot j+1
        keep = np.arange(live) != j[:, None]
        values = values[keep].reshape(members.size, live - 1)
        positions = positions[keep].reshape(members.size, live - 1)

    # Permute so the pinned value for target index i lands at position i.
    return np.take_along_axis(v, placed[:, :, None], axis=1).reshape(lam.shape + (n,))


def embed_operator(u: np.ndarray, layout: Sequence[int],
                   targets: Sequence[int]) -> np.ndarray:
    """Extend ``u`` (acting on the listed factors, in that order) to the full
    space described by ``layout``, identity on the remaining factors."""
    dims = tuple(int(d) for d in layout)
    n = len(dims)
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise DimensionError("duplicate target factors")
    if any(t < 0 or t >= n for t in targets):
        raise DimensionError("target index out of range")
    u = np.asarray(u, dtype=complex)
    if u.shape[0] != math.prod(dims[t] for t in targets):
        raise DimensionError("operator does not match the target factors")
    rest = [k for k in range(n) if k not in targets]
    rest_dim = math.prod(dims[k] for k in rest) if rest else 1
    big = np.kron(u, np.eye(rest_dim, dtype=complex))
    src_order = targets + rest
    perm = list(np.argsort(src_order))
    dims_src = [dims[k] for k in src_order]
    tens = big.reshape(dims_src + dims_src)
    tens = np.transpose(tens, perm + [p + n for p in perm])
    full = math.prod(dims)
    return tens.reshape(full, full)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def matrix_to_json(a: np.ndarray) -> dict:
    """JSON form {rows, cols, re, im} with row-major entry order."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError("only 2-D matrices serialize")
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }

