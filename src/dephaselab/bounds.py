"""Lower bounds on the dimension of a source of randomness.

A channel is epsilon-dephasing for a basis when its output is within
trace-norm epsilon of the pinched input for every state.  Two bounds pin
the minimal noise dimension m:

* classical mixtures of m unitaries map the maximally coherent state to a
  state of rank at most m, forcing m >= d (1 - epsilon/2);
* unitary dilations over an m-dimensional maximally mixed ancilla obey an
  entropy budget |S(output) - S(ancilla')| <= log2(m), forcing
  m >= d^{(1-eps)/2} eps^{eps/2} for small epsilon and m = sqrt(d) at
  epsilon = 0.

Both are met with equality (after integer rounding for the quantum case)
by the constructions in :mod:`dephaselab.dephaser`.  Epsilon is measured on
any channel with ``kind``, ``dim``, ``noise_dim`` and ``apply`` (the CLI
passes ``dephaser.gram_channel``), and the entropy budget is read from
``dephaser.couple`` alone, so no joint state is formed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dephaser import GramChannel, NoisyChannel, couple, maximally_coherent_state, pinch
from .qcore import PreconditionError, hermitize, trace_norm, von_neumann_entropy
from .sampling import random_pure_state, spawn_rngs
from .tolerances import TOL, Tolerances

#: Validity edge of the quantum bound's epsilon range.
EPSILON_MAX = 1.0 / (6.0 * math.e)


@dataclass(frozen=True)
class EpsilonDephasingReport:
    dim: int
    noise_dim: int
    kind: str                 # "classical" | "quantum"
    epsilon_measured: float   # worst case over the probe states

    def to_json_dict(self, bound: float, slack: float = TOL.bound_slack) -> dict:
        return {"d": self.dim, "m": self.noise_dim, "kind": self.kind,
                "epsilon_measured": self.epsilon_measured, "bound": bound,
                "satisfied": bool(self.noise_dim >= bound - slack)}


def default_probes(d: int, seed: int = 0) -> list[np.ndarray]:
    """The maximally coherent state plus 20 seeded Haar-random pure states."""
    probes = [maximally_coherent_state(d)]
    probes.extend(random_pure_state(d, rng) for rng in spawn_rngs(seed, 20))
    return probes


def measure_epsilon(channel: GramChannel | NoisyChannel,
                    probes: list[np.ndarray] | None = None) -> EpsilonDephasingReport:
    """Worst-case trace-norm residual against the pinching over the probes."""
    if probes is None:
        probes = default_probes(channel.dim)
    # probe diagonals keep imaginary parts near 1e-19: hermitized, the norm takes eigvalsh
    eps = max(trace_norm(hermitize(channel.apply(rho) - pinch(rho))) for rho in probes)
    kind = "classical" if channel.kind == "classical-mixture" else "quantum"
    return EpsilonDephasingReport(dim=channel.dim, noise_dim=channel.noise_dim,
                                  kind=kind, epsilon_measured=eps)


def classical_lower_bound(d: int, epsilon: float) -> float:
    """max{2, d (1 - epsilon/2)} for 0 <= epsilon <= 2."""
    if not 0.0 <= epsilon <= 2.0:
        raise PreconditionError("epsilon must lie in [0, 2]")
    return max(2.0, d * (1.0 - epsilon / 2.0))


def quantum_lower_bound(d: int, epsilon: float) -> float:
    """max{2, d^{(1-eps)/2} eps^{eps/2}} for 0 < eps <= 1/(6e); eps = 0 is
    the limit sqrt(d).

    Evaluated in the log domain for numerical robustness.
    """
    if epsilon == 0.0:
        return max(2.0, math.sqrt(d))
    if not 0.0 < epsilon <= EPSILON_MAX:
        raise PreconditionError(
            f"epsilon must lie in (0, {EPSILON_MAX:.6f}] (or be exactly 0)")
    log_val = 0.5 * (1.0 - epsilon) * math.log(d) + 0.5 * epsilon * math.log(epsilon)
    return max(2.0, math.exp(log_val))


def operator_rank(a: np.ndarray, tol: Tolerances = TOL) -> int:
    """Singular values above ``tol.rank_rel_cutoff`` times the largest."""
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_rel_cutoff * s[0]))


def rank_witness(channel: GramChannel | NoisyChannel, tol: Tolerances = TOL) -> tuple[int, int]:
    """(rank of the channel image of the coherent state, mixture size m).

    For a uniform mixture of m unitaries the image of a pure state is an
    average of m pure states, so its rank never exceeds m; a rank below d
    certifies that the mixture cannot dephase exactly.
    """
    if channel.kind != "classical-mixture":
        raise PreconditionError("rank witness applies to classical mixtures")
    image = channel.apply(maximally_coherent_state(channel.dim))
    return operator_rank(image, tol), channel.noise_dim


@dataclass(frozen=True)
class EntropyBudget:
    """Entropy bookkeeping for a coupling fed the coherent state and I/m.

    joint = S(V (|A><A| (x) I/m) V†) = log2 m for a unitary family; the
    triangle inequality forces |output - ancilla| <= joint.  Equality of
    the gap with log2 m certifies that no smaller ancilla could have
    produced the same output entropy.
    """

    dim: int
    noise_dim: int
    joint_entropy: float
    output_entropy: float
    ancilla_entropy: float

    @property
    def gap(self) -> float:
        return abs(self.output_entropy - self.ancilla_entropy)

    def triangle_satisfied(self, slack: float = TOL.bound_slack) -> bool:
        return self.gap <= self.joint_entropy + slack

    def saturated(self, slack: float = TOL.bound_slack) -> bool:
        return abs(self.gap - self.joint_entropy) <= slack


def entropy_budget_check(ops: list[np.ndarray], tol: Tolerances = TOL) -> EntropyBudget:
    """Every link of the entropy chain for V = sum_i |i><i| (x) U_i, one
    m x m operator U_i per level, fed |A><A| (x) I/m.

    The marginals come from ``couple``.  The joint is W W† with
    W = sum_i A_i |i> (x) U_i / sqrt(m), so its nonzero spectrum is that of
    the m x m matrix W†W = sum_i |A_i|^2 U_i† (I/m) U_i, one contraction
    over the stacked family.
    """
    d, m = len(ops), ops[0].shape[0]
    rho = maximally_coherent_state(d)
    out_s, out_r = couple(rho, np.eye(m, dtype=complex) / m, None, ops)
    stack = np.asarray(ops, dtype=complex)
    w_gram = np.einsum("i,iyx,iyz->xz", np.diagonal(rho).real / m, stack.conj(), stack,
                       optimize=True)
    return EntropyBudget(
        dim=d,
        noise_dim=m,
        joint_entropy=von_neumann_entropy(w_gram, tol),
        output_entropy=von_neumann_entropy(out_s, tol),
        ancilla_entropy=von_neumann_entropy(out_r, tol),
    )
