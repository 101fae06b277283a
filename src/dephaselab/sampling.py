"""Seeded random states, unitaries and majorizing pairs.

One master seed fans out to independent per-trial streams through
``numpy.random.SeedSequence`` spawning, so serial and parallel sweeps see
identical draws regardless of scheduling.

The stacked samplers take one generator per trial.  Only the RNG calls run
per generator, in trial order; their order depends on d alone, so every draw
comes first and the arithmetic then runs once on the (T, d, d) stack.  The
single-trial samplers are member 0 of a one-generator stack.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401 (numpy loads it lazily; load it at import, not mid-command)

from .qcore import hermitize

#: Two-entry averaging steps that spread a spectrum into a majorized one.
_MIXES = 12


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _draw_ginibre(rng: np.random.Generator, out: np.ndarray) -> None:
    """Draw the real part of one Ginibre matrix into out[0], then its imaginary part into out[1]."""
    rng.standard_normal(out=out[0])
    rng.standard_normal(out=out[1])


def _ginibre(d: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """(T, d, d) complex Ginibre stack, one matrix per generator."""
    parts = np.empty((len(rngs), 2, d, d))
    for rng, out in zip(rngs, parts):
        _draw_ginibre(rng, out)
    return parts[:, 0] + 1j * parts[:, 1]


def _density_matrices(g: np.ndarray) -> np.ndarray:
    rho = g @ g.conj().swapaxes(-1, -2)
    return hermitize(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """QR of a Ginibre stack with the phase fix that makes it Haar."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return _haar_unitaries(_ginibre(d, [rng]))[0]


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Density matrix of a Haar-random state vector."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_density_matrices(d: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """(T, d, d) stack of full-rank Ginibre states, one per generator."""
    return _density_matrices(_ginibre(d, rngs))


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank state from the Ginibre ensemble."""
    return random_density_matrices(d, [rng])[0]


def random_majorizing_pairs(d: int, rngs: list[np.random.Generator]
                            ) -> tuple[np.ndarray, np.ndarray]:
    """(rho, rho') stacks, one pair per generator, with each rho majorizing its rho'.

    rho' has a spectrum made from that of rho by ``_MIXES`` random two-entry
    averages (a mix of an entry with itself draws no weight), in a Haar
    eigenbasis.  Per generator: the Ginibre draws, the mixes, the Haar draws.
    """
    parts = np.empty((2, len(rngs), 2, d, d))     # (state or eigenbasis, trial, re or im)
    mixes = []
    for rng, state, basis in zip(rngs, *parts):
        _draw_ginibre(rng, state)
        for _ in range(_MIXES):
            i, j = rng.integers(d), rng.integers(d)
            mixes.append((i, j, rng.random() if i != j else 0.0))
        _draw_ginibre(rng, basis)
    g = parts[:, :, 0] + 1j * parts[:, :, 1]
    rho = _density_matrices(g[0])
    mu = np.sort(np.linalg.eigvalsh(rho), axis=-1)[:, ::-1].copy()
    table = np.array(mixes).reshape(len(rngs), _MIXES, 3)
    for i, j, weight in table.transpose(1, 2, 0):
        rows = np.flatnonzero(i != j)
        i, j, weight = i[rows].astype(int), j[rows].astype(int), weight[rows]
        a, b = mu[rows, i], mu[rows, j]
        mu[rows, i] = (1 - weight) * a + weight * b
        mu[rows, j] = weight * a + (1 - weight) * b
    w = _haar_unitaries(g[1])
    return rho, hermitize((w * mu[:, None, :]) @ w.conj().swapaxes(-1, -2))


def random_majorizing_pair(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(rho, rho') with rho majorizing rho', both in random eigenbases."""
    rho, rho_prime = random_majorizing_pairs(d, [rng])
    return rho[0], rho_prime[0]
