"""Stroboscopic dephasing, recurrence in time, and robustness sweeps.

For odd ancilla dimension m and system dimension d = m^2, the controlled
coupling

    V = sum_{r,s} |r,s><r,s| (x) U_{r,s}

(with U_{r,s} a Weyl family on the ancilla, tensored over the prime factors
of m when m is composite) has stroboscopic behaviour: the k-fold map

    rho -> tr_R[V^k (rho (x) I/m) V^{-k}]

is an exact Hadamard multiplier whose coefficient matrix follows from the
Gram matrix of the k-th powers of the ancilla family.  For prime m the map
is the exact pinching for every k not divisible by m and the identity at
multiples of m.  For composite m the same construction pinches only those
index components whose prime factor does not divide k, so intermediate k
divisible by a proper prime factor give a coarser, partial pinching; see
``construction_predicted_map`` for the exact prediction and
``predicted_map`` for the idealized all-or-nothing target it is compared
against.

No group family can do better for composite m.  Take any nice error basis,
U_g U_h ~ U_{gh} over a group G of order m^2, so U_g^k ~ U_{g^k} and
tr U_x = 0 for x != e.  Then C_k[g, e] = (1/m) tr(U_g^k) has unit modulus
whenever g^k = e.  By Cauchy's theorem G has an element of order p for every
prime p | m, so for composite m the step k = p < m is not the pinching.
This covers the tensor construction, the single-ring Z_m x Z_m Weyl family
and Galois-field families.  The same argument makes recurrence at k = m
need g^m = e for every g: a cyclic Z_{m^2} index fails there.

A residual that is known is not recomputed: ``Fig3Period`` copies t > m/2
from its mirror m - t (C_(m-t) = conj(C_t)), and ``recur`` evaluates one
residual where the two predictions are the same array (gcd(k, m) is 1 or m).
Each residual is block diagonal on ``label_groups``, so ``recur`` sums its
trace norm over the blocks: m * m^3 work at prime m, not m^6.  Continuous time
expands U_a^t in the powers of U_a (``continuous_coefficients``), and at prime m
fig3 reads the closed spectrum of C_t (``closed_fig3_distances``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import weylops
from .dephaser import controlled_basis_unitary, maximally_coherent_state, pinch
from .qcore import PreconditionError, hermitize, trace_norm, two_norm, unitary_eigh
from .tolerances import TOL, Tolerances


def prime_factors(n: int) -> tuple[int, ...]:
    """Prime factorization with multiplicity, ascending."""
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class RecurrenceSpec:
    """Ancilla dimension m (odd), system dimension d = m^2, prime factors."""

    m: int
    d: int
    factors: tuple[int, ...]

    @classmethod
    def for_ancilla(cls, m: int) -> "RecurrenceSpec":
        if m < 3 or m % 2 == 0:
            raise PreconditionError("recurrence construction requires odd m >= 3")
        return cls(m=m, d=m * m, factors=prime_factors(m))


def _mixed_radix_labels(factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All index tuples over the factor ring, lexicographic in factor order."""
    labels = [()]
    for p in factors:
        labels = [lab + (x,) for lab in labels for x in range(p)]
    return labels


def ancilla_family(spec: RecurrenceSpec, k: int = 1) -> np.ndarray:
    """The m^2 ancilla unitaries to the power k, row-major in the (r, s) labels.

    Each unitary is the tensor product over prime factors of the Weyl
    operator with the corresponding index components, scaled by k; the
    factors are built as one stack each and combined by a batched Kronecker
    product.
    """
    labels = np.array(_mixed_radix_labels(spec.factors))
    r, s = np.divmod(np.arange(spec.m * spec.m), spec.m)
    parts = [weylops.weyl_family(p, k * labels[r, j], k * labels[s, j])
             for j, p in enumerate(spec.factors)]
    return reduce(_batched_kron, parts)


def _batched_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[i], b[i]) for every i, as one (n, pq, pq) array."""
    n, p, q = a.shape[0], a.shape[1], b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, p * q, p * q)


def label_groups(spec: RecurrenceSpec, k: int) -> np.ndarray:
    """Label of index i = r*m + s at step k: the r digits of the prime factors
    not dividing k, as one integer (r itself at prime m, k not a multiple).
    Across groups the k-th powers shift differently, so their supports are
    disjoint: ``hadamard_coefficients`` sums exact zeros there, and the
    masks of ``construction_predicted_map`` and ``pinch`` vanish too."""
    labels = np.array(_mixed_radix_labels(spec.factors))
    pinched = [j for j, p in enumerate(spec.factors) if k % p]
    r = np.arange(spec.d) // spec.m
    return labels[r][:, pinched] @ spec.m ** np.arange(len(pinched))[::-1]


def recurrence_unitary(spec: RecurrenceSpec, tol: Tolerances = TOL) -> np.ndarray:
    """The full coupling unitary on the d*m joint space."""
    return controlled_basis_unitary(np.eye(spec.d, dtype=complex), ancilla_family(spec), tol)


def hadamard_coefficients(spec: RecurrenceSpec, k: int) -> np.ndarray:
    """C_k[i, j] = (1/m) tr(U_i^k U_j^{-k}); the stroboscopic map is
    rho -> rho * C_k elementwise.

    Powers of the ancilla family are again members of the family with the
    index scaled by k componentwise, so the Gram entries are evaluated from
    the scaled labels without building joint-space matrices.
    """
    return weylops.operator_gram(ancilla_family(spec, k))


def stroboscopic_map(spec: RecurrenceSpec, rho: np.ndarray, k: int) -> np.ndarray:
    """tr_R[V^k (rho (x) I/m) V^{-k}] evaluated through the Hadamard form."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != spec.d:
        raise PreconditionError(f"state must have dimension {spec.d}")
    return hermitize(rho * hadamard_coefficients(spec, k))


def predicted_map(k: int, m: int, rho: np.ndarray) -> np.ndarray:
    """Idealized stroboscopic target: identity when k is a multiple of m,
    otherwise the full pinching."""
    if k % m == 0:
        return np.asarray(rho, dtype=complex)
    return pinch(rho)


def construction_predicted_map(spec: RecurrenceSpec, rho: np.ndarray,
                               k: int) -> np.ndarray:
    """Exact prediction for the tensor construction at step k.

    Index components whose prime factor divides k are left untouched; all
    others are pinched.  For prime m this coincides with ``predicted_map``;
    for composite m it differs at k divisible by a proper prime factor.
    The mask is a Kronecker product of all-ones (kept) or identity blocks.
    """
    blocks = [np.ones((p, p)) if k % p == 0 else np.eye(p) for p in spec.factors]
    return np.asarray(rho, dtype=complex) * reduce(np.kron, blocks + blocks)


# ---------------------------------------------------------------------------
# Continuous time
# ---------------------------------------------------------------------------

class ContinuousEvolver:
    """Evolution under the Hermitian generator of a joint unitary; the dense
    reference for ``continuous_coefficients``.

    Diagonalizes the unitary once (``unitary_eigh``, orthonormal even for
    degenerate phases); each time point then costs one phase rotation per
    eigenvalue.  ``reduced_state(rho, t)`` returns the system marginal of the
    evolved joint state with a maximally mixed ancilla, exploiting the
    spectral decomposition of rho so pure initial states stay cheap.
    """

    def __init__(self, v: np.ndarray, system_dim: int, ancilla_dim: int):
        if v.shape[0] != system_dim * ancilla_dim:
            raise PreconditionError("unitary does not act on system x ancilla")
        phases, q = unitary_eigh(v)
        self.system_dim = system_dim
        self.ancilla_dim = ancilla_dim
        self.eigvecs = q
        # exp(-i h t) with h the (-pi, pi] generator phases; the stored value
        # is -h so the propagator below multiplies by exp(+i phases t).
        self.phases = -phases

    def joint_propagator(self, t: float) -> np.ndarray:
        """exp(-i H t) with H = i log V, eigenphases in (-pi, pi]."""
        rot = np.exp(1j * self.phases * t)
        return (self.eigvecs * rot) @ self.eigvecs.conj().T

    def reduced_state(self, rho: np.ndarray, t: float) -> np.ndarray:
        d, m = self.system_dim, self.ancilla_dim
        evals, evecs = np.linalg.eigh(hermitize(np.asarray(rho, dtype=complex)))
        keep = evals > 1e-14
        evals, evecs = evals[keep], evecs[:, keep]
        rot = np.exp(1j * self.phases * t)
        out = np.zeros((d, d), dtype=complex)
        eye_m = np.eye(m, dtype=complex)
        for w, col in zip(evals, evecs.T):
            block = np.kron(col.reshape(d, 1), eye_m)   # (d*m, m) columns
            amp = self.eigvecs.conj().T @ block          # eigenbasis coords
            evolved = self.eigvecs @ (rot[:, None] * amp)
            mats = evolved.reshape(d, m, m)
            out += (w / m) * np.einsum("arj,brj->ab", mats, mats.conj())
        return hermitize(out)


@dataclass(frozen=True)
class TimeSweep:
    """Distance of the evolved state from the pinched input over one
    recurrence period, in rescaled time t/m.

    Each sample carries the trace-norm distance (the serialized ``distance``
    column) and the Hilbert-Schmidt distance.  The two norms behave very
    differently at non-integer times: the trace-norm deviation stays of
    order one, while the 2-norm deviation shrinks with growing m, which is
    the scaling the robustness statement is about.
    """

    m: int
    points: tuple[tuple[float, float, float], ...]   # (t, dist_trace, dist_two)

    CSV_HEADER = "m,t_over_m,distance"

    def csv_rows(self) -> list[str]:
        return [f"{self.m},{t / self.m:.12f},{d1:.16e}" for t, d1, _ in self.points]

    def distance_at(self, t: float, norm: str = "trace") -> float:
        for tt, d1, d2 in self.points:
            if abs(tt - t) < 1e-12:
                return d1 if norm == "trace" else d2
        raise KeyError(f"t={t} not sampled")


def _root_powers(m: int, t: float) -> np.ndarray:
    """f_t(w^k) = exp(2 pi i k~ t / m) for k = 0..m-1, with k~ the centred
    residue of k: the principal-branch t-th power of each m-th root of unity."""
    k = np.arange(m)
    return np.exp(2j * np.pi * np.where(k > m // 2, k - m, k) * t / m)


def continuous_coefficients(spec: RecurrenceSpec):
    """t -> C_t[a, b] = (1/m) tr(U_a^t U_b^{-t}); the continuous-time map
    rho -> tr_R[V^t (rho (x) I/m) V^{-t}] is rho -> rho * C_t elementwise.

    V = sum_a |a><a| (x) U_a is block diagonal, so V^t = sum_a |a><a| (x) U_a^t
    on the principal branch.  U_a^m = I (m odd), so U_a^t = sum_j c_j U_a^j
    with c = (1/m) DFT of ``_root_powers(m, t)``, and U_a^j is the member
    labelled j * a.  The family is trace-orthonormal, hence C_t = P P† with
    P[a, x] = sum_j c_j [j * a = x], m nonzeros per row.
    """
    m, d = spec.m, spec.d
    labels = np.array(_mixed_radix_labels(spec.factors))
    weights = np.cumprod((1,) + spec.factors[:0:-1])[::-1]
    scaled = (np.arange(m)[:, None, None] * labels) % spec.factors @ weights   # (j, x) -> j * x
    r, s = np.divmod(np.arange(d), m)
    multiples = scaled[:, r] * m + scaled[:, s]          # (j, a) -> index of j * a
    dft = weylops.clock_phases(m, np.arange(m)).conj() / m

    def at(t: float) -> np.ndarray:
        p = np.zeros((d, d), dtype=complex)
        np.add.at(p, (np.arange(d), multiples), (dft @ _root_powers(m, t))[:, None])
        return p @ p.conj().T
    return at


def closed_fig3_distances(m: int):
    """t -> (trace, 2-norm) distance of the evolved maximally coherent state
    from its pinch, (C_t - I)/d, at prime m, from the closed spectrum of C_t.

    C_t is 1 at the origin, conj(c_0) along its row, |c_0|^2 between labels on
    different lines through the origin, and the same block M_t[j, l] = h(j/l)
    on each of the m + 1 lines, h(q) = (1/m) sum_k f_t(w^(q k)) conj f_t(w^k).
    The characters of the cyclic group Z_m^* diagonalize M_t: its eigenvalues
    are the DFT of h over the powers of a primitive root, the trivial one being
    the row sum mu.  The others occur m + 1 times each, mu - (m-1)|c_0|^2 m
    times, and two come from [[1, conj(c_0) sqrt(d-1)], [c_0 sqrt(d-1),
    mu + m(m-1)|c_0|^2]].  O(m^2) per time point; nothing is d x d.
    """
    d = m * m
    g = next(g for g in range(2, m) if all(pow(g, (m - 1) // q, m) != 1
                                           for q in prime_factors(m - 1)))
    gather = np.outer([pow(g, a, m) for a in range(m - 1)], np.arange(m)) % m
    characters = weylops.clock_phases(m - 1, np.arange(m - 1)).conj()
    multiplicity = np.concatenate([np.full(m - 2, m + 1), [m, 1, 1]])

    def at(t: float) -> tuple[float, float]:
        f = _root_powers(m, t)
        line = (characters @ (f[gather] @ f.conj())).real / m
        mu, a = line[0], abs(np.mean(f)) ** 2
        b = mu + m * (m - 1) * a
        mean, half = (1 + b) / 2, np.hypot((b - 1) / 2, np.sqrt((d - 1) * a))
        dev = np.concatenate([line[1:], [mu - (m - 1) * a, mean + half, mean - half]]) - 1
        return float(multiplicity @ np.abs(dev)) / d, float(np.sqrt(multiplicity @ dev ** 2)) / d
    return at


def _dense_fig3_distances(spec: RecurrenceSpec):
    """``closed_fig3_distances`` for any odd m, from the norms of the residual."""
    coefficients = continuous_coefficients(spec)
    rho = maximally_coherent_state(spec.d)
    target = pinch(rho)

    def at(t: float) -> tuple[float, float]:
        delta = hermitize(rho * coefficients(t)) - target
        return trace_norm(delta), two_norm(delta)
    return at


class Fig3Period:
    """One period t in [0, m] of the continuous-time robustness sweep for the
    maximally coherent input, evaluated point by point, each point once.

    The sample grid always contains the integer times and the half-period
    midpoint in addition to the uniform grid.  Prime m reads both distances
    from ``closed_fig3_distances``; composite m takes the norms of the
    residual under ``continuous_coefficients``.  The joint dimension m^3 is
    never formed.

    U_a has order m and principal-branch phases, so U_a^(m-t) = (U_a^t)^dagger
    and C_(m-t) = conj(C_t); for the real input Delta_(m-t) = conj(Delta_t), so
    t > m/2 copies both norms from the first grid point within 1e-12 of m - t,
    if any.
    """

    def __init__(self, m: int, samples_per_period: int = 64):
        spec = RecurrenceSpec.for_ancilla(m)
        self.m = m
        self._evaluate = (closed_fig3_distances(m) if len(spec.factors) == 1
                          else _dense_fig3_distances(spec))
        grid = set(np.linspace(0.0, m, samples_per_period).tolist())
        grid.update(float(k) for k in range(m + 1))
        grid.add(m / 2.0)
        self.grid = sorted(grid)
        self._known: dict[float, tuple[float, float]] = {}

    def distances(self, t: float) -> tuple[float, float]:
        """(trace, 2-norm) distance at the grid point t."""
        if t not in self._known:
            earlier = self.grid[:self.grid.index(t)]
            twin = next((u for u in earlier if abs(u + t - self.m) < 1e-12), None)
            self._known[t] = (self.distances(twin) if t > self.m / 2 and twin is not None
                              else self._evaluate(t))
        return self._known[t]

    def distance_at(self, t: float) -> float:
        """Trace distance at the first grid point within 1e-12 of t, as
        ``TimeSweep.distance_at`` reads it, evaluating only that point."""
        return self.distances(next(u for u in self.grid if abs(u - t) < 1e-12))[0]

    def sweep(self) -> TimeSweep:
        return TimeSweep(m=self.m, points=tuple((t, *self.distances(t)) for t in self.grid))


def fig3_sweep(m_values: list[int], samples_per_period: int = 64) -> dict[int, TimeSweep]:
    """The full ``Fig3Period`` sweep of each odd m."""
    return {m: Fig3Period(m, samples_per_period).sweep() for m in m_values}
