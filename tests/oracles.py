"""Per-trial reference bodies that the library's stacked code replaced.

Each is kept verbatim from its last one-trial form, so the stacked samplers
and the stacked Schur-Horn step can be compared with it bit for bit.
"""

import math

import numpy as np

from dephaselab.qcore import (PreconditionError, DimensionError, hermitize,
                              majorizes_spectra)
from dephaselab.tolerances import TOL


def haar_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_matrix(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return hermitize(rho / np.trace(rho).real)


def random_majorized_spectrum(lam, rng, mixes=12):
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


def random_majorizing_pair(d, rng):
    rho = random_density_matrix(d, rng)
    lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
    mu = random_majorized_spectrum(lam, rng)
    w = haar_unitary(d, rng)
    rho_prime = hermitize(w @ np.diag(mu) @ w.conj().T)
    return rho, rho_prime


def schur_horn_unitary(spectrum, target_diagonal, tol=TOL):
    lam = np.asarray(spectrum, dtype=float)
    tgt = np.asarray(target_diagonal, dtype=float)
    n = lam.size
    if tgt.size != n:
        raise DimensionError("spectrum and target must have equal length")
    if np.any(np.diff(lam) > tol.majorization):
        raise PreconditionError("spectrum must be sorted in descending order")
    if abs(lam.sum() - tgt.sum()) > tol.majorization:
        raise PreconditionError("spectrum and target must have equal sums")
    if not majorizes_spectra(lam, tgt, tol):
        raise PreconditionError("target diagonal is not majorized by the spectrum")

    order = np.argsort(tgt)[::-1]           # process largest target first
    # Active values in descending order; each entry remembers which original
    # position of the spectrum currently holds it.
    values = list(lam)
    positions = list(range(n))
    v = np.eye(n, dtype=complex)
    placed = np.empty(n, dtype=int)

    for step, tgt_idx in enumerate(order):
        t = tgt[tgt_idx]
        # Largest j with values[j] >= t; tolerate round-off at the boundary.
        j = max((i for i, x in enumerate(values) if x >= t - 1e-12), default=0)
        if j == len(values) - 1:
            # t matches the last remaining value (up to round-off): no rotation.
            placed[tgt_idx] = positions[j]
            values.pop(j)
            positions.pop(j)
            continue
        a, b = values[j], values[j + 1]
        p, q = positions[j], positions[j + 1]
        if a - b > 1e-15:
            c2 = min(max((t - b) / (a - b), 0.0), 1.0)
        else:
            c2 = 1.0
        c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
        v[[p, q]] = np.array([[c, -s], [s, c]]) @ v[[p, q]]   # rotates rows p, q only
        placed[tgt_idx] = p
        values[j + 1] = a + b - t           # merged value stays sorted at slot j+1
        values.pop(j)
        positions.pop(j)

    # Permute so the pinned value for target index i lands at position i.
    return v[placed]
