"""Seeded random states, unitaries and majorizing pairs.

One master seed fans out to independent per-trial streams through
``numpy.random.SeedSequence`` spawning, so serial and parallel sweeps see
identical draws regardless of scheduling.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401 (numpy loads it lazily; load it at import, not mid-command)

from .qcore import hermitize


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Density matrix of a Haar-random state vector."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank state from the Ginibre ensemble."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return hermitize(rho / np.trace(rho).real)


def random_majorized_spectrum(lam: np.ndarray, rng: np.random.Generator,
                              mixes: int = 12) -> np.ndarray:
    """A vector majorized by ``lam``: repeated random two-entry averaging."""
    mu = np.array(lam, dtype=float)
    n = mu.size
    for _ in range(mixes):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        t = rng.uniform(0.0, 1.0)
        a, b = mu[i], mu[j]
        mu[i] = (1 - t) * a + t * b
        mu[j] = t * a + (1 - t) * b
    return mu


def random_majorizing_pair(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(rho, rho') with rho majorizing rho', both in random eigenbases."""
    rho = random_density_matrix(d, rng)
    lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
    mu = random_majorized_spectrum(lam, rng)
    w = haar_unitary(d, rng)
    rho_prime = hermitize(w @ np.diag(mu) @ w.conj().T)
    return rho, rho_prime
