"""Approximate dephasing through a classical expander walk in phase space.

A state on d = e^2 dimensions (d odd) maps to its discrete Wigner function,
a real d x d array over phase-space points (p, q).  Each fixed-q column is
read as an e x e lattice Z_e^2, and one step of the Margulis walk averages
the eight gathered images (a+2b, b), (a, b+2a), (a+2b+1, b), (a, b+2a+1)
and their inverses, all mod e, over every column at once.  The walk keeps
column sums (the state's diagonal), fixes column-constant functions
(pinched states), and contracts the rest by 5*sqrt(2)/8 per step in the
2-norm.  The Wigner transform is a Hilbert-Schmidt isometry, so the induced
trace-preserving map converges to the pinching map exponentially fast.

That map is not a channel, not even positive: the lattice maps are not
symplectic, so no unitary realizes them.  Over the 200 Haar-random pure
states of ``spawn_rngs(0, 200)``, one step reaches an output eigenvalue of
-0.148 at e = 3 and -0.145 at e = 5.  The maximally coherent input of the
``expander`` command stays positive semidefinite up to rounding, and
``theorem3_verify`` logs every step's smallest eigenvalue.  The physical
replacement is Gross and Eisert's quantum Margulis channel, a mixture of
eight unitaries (arXiv:0710.0651; ROADMAP item 4(b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import PreconditionError, hermitize

#: Per-step 2-norm contraction factor of the Margulis walk.
CONTRACTION_FACTOR = 5.0 * math.sqrt(2.0) / 8.0


# ---------------------------------------------------------------------------
# The Margulis walk
# ---------------------------------------------------------------------------

def _walk_indices(e: int) -> np.ndarray:
    """Gather table: row i holds the flat image a*e + b of every flat point
    (a, b) under map i, and row 4 + i inverts row i.  The family is closed
    under inverses, so gathering through the maps themselves realizes the
    pull-back average that defines the walk.
    """
    if e < 2:
        raise PreconditionError("lattice size must be >= 2")
    a, b = np.divmod(np.arange(e * e), e)
    images = [(a + 2 * b, b), (a, b + 2 * a), (a + 2 * b + 1, b), (a, b + 2 * a + 1),
              (a - 2 * b, b), (a, b - 2 * a), (a - 2 * b - 1, b), (a, b - 2 * a - 1)]
    return np.stack([(x % e) * e + y % e for x, y in images])


def walk_apply(values: np.ndarray, e: int) -> np.ndarray:
    """One walk step along axis 0 of ``values`` (length e^2).

    This single code path serves both the classical distribution step and
    the per-column action on a Wigner array, so the two agree exactly.
    """
    return values[_walk_indices(e)].sum(axis=0) / 8.0


def classical_step(p: np.ndarray) -> np.ndarray:
    """One step of the Margulis walk on a distribution over Z_e^2 (flat)."""
    p = np.asarray(p, dtype=float)
    e = math.isqrt(p.size)
    if e * e != p.size:
        raise PreconditionError("distribution must live on a square lattice")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise PreconditionError("input must be a probability distribution")
    return walk_apply(p, e)


def uniform_distribution(e: int) -> np.ndarray:
    return np.full(e * e, 1.0 / (e * e))


# ---------------------------------------------------------------------------
# Discrete Wigner transform (odd d)
# ---------------------------------------------------------------------------

def _anti_diagonals(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(q + x, q - x) mod d over the grid (x, q): column q walks a + b = 2q."""
    x, q = np.ogrid[:d, :d]
    return (q + x) % d, (q - x) % d


def wigner_from_state(rho: np.ndarray) -> np.ndarray:
    """W(p, q) = (1/d) tr(A(p,q) rho) as a real (d, d) array, with A the
    displaced parity operators.

    The closed form A(p,q)[a, j] = w^{2p(q-j)} [a = 2q - j mod d] gives
    W(p, q) = (1/d) sum_x w^{2px} rho[q - x, q + x]: one gather of the
    anti-diagonals and one FFT read at frequency 2p, O(d^2 log d).
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if d % 2 == 0:
        raise PreconditionError("Wigner construction requires odd dimension")
    plus, minus = _anti_diagonals(d)
    return np.fft.ifft(rho[minus, plus], axis=0)[(2 * np.arange(d)) % d].real


def state_from_wigner(w: np.ndarray) -> np.ndarray:
    """Inverse transform, M = sum_{p,q} W(p,q) A(p,q); the same DFT scattered
    back: M[q + x, q - x] = sum_p W(p, q) w^{2px}."""
    d = w.shape[0]
    if d % 2 == 0:
        raise PreconditionError("Wigner construction requires odd dimension")
    plus, minus = _anti_diagonals(d)
    by_freq = w[(pow(2, -1, d) * np.arange(d)) % d]   # row k holds p = k/2
    out = np.empty((d, d), dtype=complex)
    out[plus, minus] = d * np.fft.ifft(by_freq, axis=0)
    return out


# ---------------------------------------------------------------------------
# The phase-space map
# ---------------------------------------------------------------------------

def expander_channel_step(rho: np.ndarray) -> np.ndarray:
    """One step of the induced map on a density matrix of dimension d = e^2:
    every fixed-q column of its Wigner array takes one ``walk_apply`` step."""
    rho = np.asarray(rho, dtype=complex)
    e = math.isqrt(rho.shape[0])
    if e * e != rho.shape[0]:
        raise PreconditionError("channel requires d = e^2")
    return hermitize(state_from_wigner(walk_apply(wigner_from_state(rho), e)))


@dataclass(frozen=True)
class ExpanderSpec:
    """Odd lattice size e, system dimension d = e^2, iteration count."""

    e: int
    k: int

    def __post_init__(self):
        if self.e < 3 or self.e % 2 == 0:
            raise PreconditionError("lattice size must be odd and >= 3")
        if self.k < 0:
            raise PreconditionError("iteration count must be >= 0")

    @property
    def d(self) -> int:
        return self.e * self.e


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured 2-norm distances to the pinched state against the analytic
    envelope sqrt(2 d^3) * (5 sqrt(2)/8)^k."""

    measured: tuple[float, ...]       # one entry per step 0 .. k
    bound: tuple[float, ...]
    min_eigenvalue: tuple[float, ...]  # positivity monitor, logged only
    fitted_decay: float               # least-squares per-step factor

    CSV_HEADER = "k,measured_2norm,bound"

    def csv_rows(self) -> list[str]:
        return [f"{k},{m:.16e},{b:.16e}"
                for k, (m, b) in enumerate(zip(self.measured, self.bound))]

    def satisfied(self) -> bool:
        return all(m <= b + 1e-12 for m, b in zip(self.measured, self.bound))


def theorem3_verify(spec: ExpanderSpec, rho: np.ndarray) -> ConvergenceReport:
    """Iterate the map against the analytic envelope.  Distances are taken
    in the Wigner domain, where they equal Hilbert-Schmidt distances; the
    pinched target repeats W's column means in every row.  The state is
    rebuilt at every step only to log its smallest eigenvalue."""
    d = spec.d
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != d:
        raise PreconditionError(f"state must have dimension {d}")
    w = wigner_from_state(rho)
    target = np.tile(w.sum(axis=0) / d, (d, 1))
    prefactor = math.sqrt(2.0 * d ** 3)
    measured, bound, mineig = [], [], []
    for k in range(spec.k + 1):
        measured.append(math.sqrt(d * np.sum((w - target) ** 2)))
        bound.append(prefactor * CONTRACTION_FACTOR ** k)
        evals = np.linalg.eigvalsh(hermitize(state_from_wigner(w)))
        mineig.append(float(evals.min()))
        if k < spec.k:
            w = walk_apply(w, spec.e)
    fitted = _fit_decay(measured)
    return ConvergenceReport(measured=tuple(measured), bound=tuple(bound),
                             min_eigenvalue=tuple(mineig), fitted_decay=fitted)


def _fit_decay(measured: list[float]) -> float:
    """Geometric decay rate fitted to the distances above the 1e-13 floor."""
    ks = [k for k, v in enumerate(measured) if v > 1e-13]
    if len(ks) < 2:
        return 0.0
    logs = np.log([measured[k] for k in ks])
    slope = np.polyfit(ks, logs, 1)[0]
    return float(math.exp(slope))
