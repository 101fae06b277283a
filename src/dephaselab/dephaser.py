"""Pinching and its minimal noisy implementations.

The central construction couples a d-dimensional system to a maximally mixed
ancilla of dimension ``m = ceil(sqrt(d))`` through the controlled unitary

    U = sum_i |a_i><a_i| (x) U_i ,

where ``{U_i}`` are the first d elements of a Weyl operator basis on the
ancilla.  Trace-orthonormality of the ``U_i`` makes the induced channel on
the system exactly the pinching map in the basis ``{|a_i>}``, while the
ancilla marginal is left exactly maximally mixed, so the same noise system
can be reused indefinitely.  The classical counterpart mixes the d clock
powers uniformly and needs ancilla dimension d.

Feeding the same coupling with an arbitrary ancilla state sigma gives a
"universal dephasing machine": a channel that keeps the diagonal fixed,
contracts toward the pinched state at rate ||sigma - I/m||_1, and never
decreases entropy.

``couple`` evaluates both marginals of the coupling from a Gram matrix of the
ancilla family; the machine, decoherence, measurement and the entropy budget
of :mod:`dephaselab.bounds` go through it.  State transitions, classical
dephasing and the epsilon measurement of the bounds use ``GramChannel``:
every noisy pinch here is a mixture of operators diagonal in the pinching
basis, so it acts as rho -> rho * G (entrywise) with G = Theta diag(p)
Theta†, Theta_aj the eigenvalue of the j-th operator on |a>.  Its largest
array is d x d, so the dimension cap applies to d itself.  ``pinch`` (in the
computational basis), ``couple``, ``GramChannel.apply``, ``TransitionPlan``
and ``transition_rotations`` also take (T, d, d) stacks of states.
``controlled_basis_unitary`` builds the dense joint unitary by row blocks
where a joint state is the checked quantity: the catalytic chain, the
recurrence unitary and the private-channel layers.  ``NoisyChannel``
(``build_dephasing_unitary`` and ``classical_dephasing_channel``) has no
caller in the CLI; it stays as the dense reference the tests compare the
Gram forms against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import weylops
from .qcore import (
    DimensionError,
    PreconditionError,
    as_operator,
    check_density_matrix,
    check_orthonormal_basis,
    embed_operator,
    hermitize,
    majorizes_spectra,
    mutual_information,
    partial_trace,
    require_dim,
    schur_horn_unitary,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from .tolerances import TOL, Tolerances


def ancilla_dim(d: int) -> int:
    """Smallest admissible quantum noise dimension, ceil(sqrt(d))."""
    return math.isqrt(d - 1) + 1 if d > 1 else 1


def pinch(rho: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Zero all off-diagonal elements of ``rho`` in the given basis.

    ``basis`` holds the basis vectors as columns; ``None`` means the
    computational basis.
    """
    rho = as_operator(rho, stack=basis is None)
    if basis is None:
        return np.where(np.eye(rho.shape[-1], dtype=bool), rho, 0)
    b = check_orthonormal_basis(basis)
    if b.shape[0] != rho.shape[0]:
        raise DimensionError("basis and state dimensions differ")
    diag = np.einsum("ji,jk,ki->i", b.conj(), rho, b)
    return (b * diag) @ b.conj().T


def maximally_coherent_state(d: int) -> np.ndarray:
    """|A><A| with |A> the flat superposition; its pinch is maximally mixed."""
    if d < 2:
        raise PreconditionError("need dimension >= 2")
    v = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class NoisyChannel:
    """A channel presented as a unitary dilation over a maximally mixed
    ancilla, or as a uniform mixture of unitaries.

    Exactly one of ``dilation``/``mixture`` is set.  Both presentations are
    unital and trace preserving.
    """

    kind: str  # "quantum-dilation" | "classical-mixture"
    dim: int
    dilation: tuple[np.ndarray, int] | None = None  # (U on dim*m, m)
    mixture: tuple = field(default=None, repr=False)  # uniform unitaries

    def __post_init__(self):
        if self.kind == "quantum-dilation":
            u, m = self.dilation
            if u.shape[0] != self.dim * m:
                raise DimensionError("dilation unitary does not act on system x ancilla")
        elif self.kind == "classical-mixture":
            if not self.mixture:
                raise DimensionError("mixture channel needs at least one unitary")
            if any(u.shape[0] != self.dim for u in self.mixture):
                raise DimensionError("mixture unitaries must act on the system")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        eye = np.eye(self.dim, dtype=complex) / self.dim
        if trace_norm(self.apply(eye) - eye) > TOL.dephasing_residual:
            raise PreconditionError("channel is not unital within tolerance")

    @property
    def noise_dim(self) -> int:
        """Dimension of the source of randomness consumed per use."""
        if self.kind == "quantum-dilation":
            return self.dilation[1]
        return len(self.mixture)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = as_operator(rho)
        if rho.shape[0] != self.dim:
            raise DimensionError("state dimension does not match the channel")
        if self.kind == "quantum-dilation":
            u, m = self.dilation
            joint = u @ tensor(rho, np.eye(m, dtype=complex) / m) @ u.conj().T
            return hermitize(partial_trace(joint, (self.dim, m), [0]))
        out = np.zeros_like(rho)
        for v in self.mixture:
            out += v @ rho @ v.conj().T
        return hermitize(out / len(self.mixture))


@dataclass(frozen=True)
class GramChannel:
    """A pinch in the computational basis evaluated as rho -> rho * G.

    ``gram`` is the d x d matrix G = Theta diag(p) Theta† of a mixture of
    operators diagonal in that basis; ``noise_dim`` is the dimension of the
    source of randomness the mixture consumes.  ``kind`` names the
    presentation it stands for, as in ``NoisyChannel``.
    """

    kind: str  # "quantum-dilation" | "classical-mixture"
    gram: np.ndarray = field(repr=False)
    noise_dim: int

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = as_operator(rho, stack=True)
        if rho.shape[-1] != self.dim:
            raise DimensionError("state dimension does not match the channel")
        return hermitize(rho * self.gram)


def gram_channel(d: int, mode: str = "quantum", tol: Tolerances = TOL,
                 count: int | None = None) -> GramChannel:
    """The pinching channel of ``mode`` on dimension d as a Gram product.

    quantum: G is the Gram of the first d Weyl operators on an ancilla of
    dimension ceil(sqrt(d)) over I/m (the ``build_dephasing_unitary``
    dilation).  classical: the uniform mixture of the clock powers Z^j,
    j = 1..count (default d, the ``classical_dephasing_channel`` mixture),
    so G = Theta Theta† / count with Theta_aj = w^(a j).  Fewer than d
    powers give G = (d I - J)/(d - 1) at count = d - 1, of rank d - 1.
    """
    require_dim(d, tol)    # before any array is built
    if mode not in ("quantum", "classical"):
        raise ValueError(f"unknown mode {mode!r}")
    if d < 2:
        raise PreconditionError("dephasing needs system dimension >= 2")
    if mode == "quantum":
        channel = GramChannel(kind="quantum-dilation", noise_dim=ancilla_dim(d),
                              gram=weylops.operator_gram(dephasing_ops(d)))
    else:
        count = d if count is None else count
        if count < 1:
            raise PreconditionError("mixture channel needs at least one unitary")
        theta = weylops.clock_phases(d, np.arange(1, count + 1))    # (count, d)
        channel = GramChannel(kind="classical-mixture", noise_dim=count,
                              gram=theta.T @ theta.conj() / count)
    # apply(I/d) - I/d = diag(G_aa - 1)/d, so its trace norm needs no eigensolver
    if np.sum(np.abs(np.diagonal(channel.gram).real - 1.0)) / d > tol.dephasing_residual:
        raise PreconditionError("channel is not unital within tolerance")
    return channel


def controlled_basis_unitary(basis_vectors: np.ndarray,
                             ancilla_ops: list[np.ndarray],
                             tol: Tolerances = TOL) -> np.ndarray:
    """sum_i |a_i><a_i| (x) V_i for basis columns a_i and unitaries V_i.

    Row block r of the joint is sum_i B[r, i] conj(B[:, i]) V_i, one
    (d x d) @ (d x m^2) product written in place.
    """
    d = basis_vectors.shape[0]
    if len(ancilla_ops) != d:
        raise DimensionError("need one ancilla unitary per basis vector")
    m = ancilla_ops[0].shape[0]
    require_dim(d * m, tol)
    ops = np.asarray(ancilla_ops, dtype=complex).reshape(d, m * m)
    u = np.empty((d, m, d, m), dtype=complex)
    for r in range(d):
        block = (basis_vectors[r] * basis_vectors.conj()) @ ops
        u[r] = block.reshape(d, m, m).transpose(1, 0, 2)
    return u.reshape(d * m, d * m)


def dephasing_ops(d: int) -> np.ndarray:
    """The first d Weyl operators on an ancilla of dimension ceil(sqrt(d))."""
    if d < 2:
        raise PreconditionError("dephasing needs system dimension >= 2")
    return weylops.weyl_basis(ancilla_dim(d))[:d]


def couple(rho: np.ndarray, sigma: np.ndarray, basis: np.ndarray | None,
           ops: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(system, ancilla) marginals of V (rho (x) sigma) V† for
    V = sum_i |a_i><a_i| (x) U_i (basis columns a_i, ``None`` = computational).

    The system marginal is rho_a * G entrywise, rho_a being rho in the basis
    a and G_ij = tr(U_i sigma U_j†); the ancilla marginal is
    sum_i <a_i|rho|a_i> U_i sigma U_i†.  V itself is never formed.
    """
    rho_a = rho if basis is None else basis.conj().T @ rho @ basis
    gram = weylops.operator_gram(ops, sigma)  # named: elision would compute G * rho in place
    system = rho_a * gram
    if basis is not None:
        system = basis @ system @ basis.conj().T
    stack = np.asarray(ops, dtype=complex)
    conjugated = stack @ sigma @ stack.conj().transpose(0, 2, 1)
    ancilla = np.einsum("...i,ixz->...xz", np.diagonal(rho_a, 0, -2, -1).real, conjugated)
    return hermitize(system), hermitize(ancilla)


def build_dephasing_unitary(d: int, basis: np.ndarray | None = None,
                            ancilla_ops: list[np.ndarray] | None = None,
                            tol: Tolerances = TOL) -> NoisyChannel:
    """Quantum-dilation channel that pinches exactly in ``basis``.

    Uses the first d Weyl operators on an ancilla of dimension
    ``ceil(sqrt(d))``; any user-supplied trace-orthonormal family of d
    unitaries may be passed instead through ``ancilla_ops``.
    """
    if ancilla_ops is None:
        require_dim(d * ancilla_dim(d), tol)    # before the Weyl family is built
        ancilla_ops = dephasing_ops(d)
    elif d < 2:
        raise PreconditionError("dephasing needs system dimension >= 2")
    elif np.max(np.abs(weylops.operator_gram(ancilla_ops)
                       - np.eye(len(ancilla_ops)))) > tol.basis_gram:
        raise PreconditionError("ancilla unitaries must be trace-orthonormal")
    u = controlled_basis_unitary(computational_or(basis, d), ancilla_ops, tol)
    return NoisyChannel(kind="quantum-dilation", dim=d, dilation=(u, ancilla_ops[0].shape[0]))


def classical_dephasing_channel(d: int, tol: Tolerances = TOL) -> NoisyChannel:
    """Uniform mixture of the d clock powers; pinches the computational basis.

    The powers hold d^3 entries, about as many as the quantum dilation's
    (d m)^2, so the cap on d * ceil(sqrt(d)) is checked before they are built.
    """
    require_dim(d * ancilla_dim(d), tol)
    if d < 2:
        raise PreconditionError("dephasing needs system dimension >= 2")
    powers = tuple(weylops.weyl_family(d, 0, np.arange(1, d + 1)))
    return NoisyChannel(kind="classical-mixture", dim=d, mixture=powers)


def computational_or(basis: np.ndarray | None, d: int) -> np.ndarray:
    if basis is None:
        return np.eye(d, dtype=complex)
    b = check_orthonormal_basis(basis)
    if b.shape[0] != d:
        raise DimensionError("basis dimension mismatch")
    return b


# ---------------------------------------------------------------------------
# State transitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionPlan:
    """pre-unitary, dephasing channel, post-unitary realizing rho -> rho'."""

    pre_unitary: np.ndarray
    channel: GramChannel | NoisyChannel
    post_unitary: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        pre, post = self.pre_unitary, self.post_unitary
        staged = pre @ as_operator(rho, stack=True) @ pre.conj().swapaxes(-1, -2)
        mixed = self.channel.apply(staged)
        return hermitize(post @ mixed @ post.conj().swapaxes(-1, -2))

    @property
    def noise_dim(self) -> int:
        return self.channel.noise_dim


def _eigh_descending(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    evals, evecs = np.linalg.eigh(hermitize(rho))
    order = np.argsort(evals, axis=-1, kind="stable")[..., ::-1]
    return np.take_along_axis(evals, order, -1), np.take_along_axis(evecs, order[..., None, :], -1)


def transition_rotations(rho: np.ndarray, rho_prime: np.ndarray,
                         tol: Tolerances = TOL) -> tuple[np.ndarray, np.ndarray]:
    """(pre, post) unitaries such that post . pinch(pre rho pre†) . post† = rho'.

    Requires the spectrum of rho to majorize that of rho'.  ``pre`` rotates
    rho to its eigenbasis and spreads the target spectrum onto the diagonal
    (Schur-Horn); ``post`` maps the diagonal onto the eigenbasis of rho'.
    Neither depends on how the pinch is implemented.
    """
    rho, rho_prime = as_operator(rho, stack=True), as_operator(rho_prime, stack=True)
    lam, w = _eigh_descending(rho)
    mu, w_prime = _eigh_descending(rho_prime)
    check_density_matrix(rho, tol, lam)
    check_density_matrix(rho_prime, tol, mu)
    if rho.shape != rho_prime.shape:
        raise DimensionError("states must share one dimension")
    if not np.all(majorizes_spectra(lam, mu, tol)):
        raise PreconditionError("transition requires the source to majorize the target")
    return schur_horn_unitary(lam, mu, tol) @ w.conj().swapaxes(-1, -2), w_prime


def transition_channel(rho: np.ndarray, rho_prime: np.ndarray,
                       mode: str = "quantum", tol: Tolerances = TOL) -> TransitionPlan:
    """Compose rotate -> pinch -> rotate so the map sends rho to rho'.

    Requires the spectrum of rho to majorize that of rho'.  The pinching
    stage is the quantum construction (noise dimension ceil(sqrt(d))) or the
    classical clock mixture (noise dimension d), as a ``gram_channel``.
    """
    # built first, so the dimension cap is checked before the Schur-Horn step
    channel = gram_channel(as_operator(rho).shape[0], mode, tol)
    pre, post = transition_rotations(rho, rho_prime, tol)
    return TransitionPlan(pre_unitary=pre, channel=channel, post_unitary=post)


# ---------------------------------------------------------------------------
# Catalytic reuse across many systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Marginal residuals and cross correlations after a dephasing chain."""

    marginal_residuals: tuple[float, ...]   # ||marginal_i - pinch(rho_i)||_1
    catalyst_residual: float                # ||ancilla marginal - I/m||_1
    mutual_information: np.ndarray          # pairwise, bits, zeros on diagonal


def catalytic_chain(states: list[np.ndarray],
                    tol: Tolerances = TOL) -> tuple[np.ndarray, ChainReport]:
    """Dephase N uncorrelated systems with one shared noise ancilla.

    The ancilla dimension is set by the largest system.  Each local marginal
    of the joint output equals its pinched input and the ancilla marginal is
    exactly maximally mixed; the price of reuse shows up as nonzero mutual
    information between the dephased systems.
    """
    if not states:
        raise PreconditionError("chain needs at least one system")
    states = [check_density_matrix(s, tol) for s in states]
    dims = [s.shape[0] for s in states]
    m = ancilla_dim(max(dims))
    require_dim(math.prod(dims) * m, tol)

    weyl_ops = weylops.weyl_basis(m)
    joint = tensor(*states, np.eye(m, dtype=complex) / m)
    layout = tuple(dims) + (m,)
    n = len(states)
    for i, d_i in enumerate(dims):
        u_i = controlled_basis_unitary(np.eye(d_i, dtype=complex), weyl_ops[:d_i], tol)
        full = embed_operator(u_i, layout, [i, n])
        joint = full @ joint @ full.conj().T
    joint = hermitize(joint)

    residuals = []
    for i, s in enumerate(states):
        marg = partial_trace(joint, layout, [i])
        residuals.append(trace_norm(marg - pinch(s)))
    catalyst = partial_trace(joint, layout, [n])
    cat_res = trace_norm(catalyst - np.eye(m) / m)
    mi = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mi[i, j] = mi[j, i] = mutual_information(joint, layout, i, j, tol)
    return joint, ChainReport(tuple(residuals), cat_res, mi)


# ---------------------------------------------------------------------------
# Universal dephasing machine
# ---------------------------------------------------------------------------

def machine_step(rho: np.ndarray, sigma: np.ndarray,
                 tol: Tolerances = TOL) -> tuple[np.ndarray, np.ndarray]:
    """One pass of the dephasing coupling with arbitrary ancilla fuel.

    Returns the system output (diagonal preserved, moved toward its pinch)
    and the ancilla waste (moved toward maximally mixed).
    """
    rho = check_density_matrix(rho, tol)
    sigma = check_density_matrix(sigma, tol)
    d, m = rho.shape[0], sigma.shape[0]
    if m != ancilla_dim(d):
        raise DimensionError(f"ancilla must have dimension {ancilla_dim(d)} for d={d}")
    return couple(rho, sigma, None, dephasing_ops(d))


@dataclass(frozen=True)
class MachineRow:
    n: int
    dist_system: float       # ||rho_n - pinch(rho_0)||_1
    dist_ancilla: float      # ||sigma_n - I/m||_1 under repeated mixing
    entropy: float           # S(rho_n), bits
    bound_system: float      # prod_i ||sigma_i - I/m||_1
    bound_ancilla: float     # ||rho_0 - I/d||_1 ^ n


@dataclass(frozen=True)
class MachineReport:
    dim: int
    noise_dim: int
    rows: tuple[MachineRow, ...]

    CSV_HEADER = "n,dist_system,dist_ancilla,entropy,bound"

    def csv_rows(self) -> list[str]:
        """Serialized rows; ``bound`` is the system-track product bound."""
        return [f"{r.n},{r.dist_system:.16e},{r.dist_ancilla:.16e},"
                f"{r.entropy:.16e},{r.bound_system:.16e}" for r in self.rows]


def machine_iterate(rho: np.ndarray, sigma_stream: list[np.ndarray],
                    tol: Tolerances = TOL) -> MachineReport:
    """Run the machine down a stream of fuel states and track both tracks.

    System track: rho_n = D_{sigma_n}(rho_{n-1}); its distance to the pinched
    input contracts at least geometrically with the product of the fuel
    imperfections.  Mixing track: the first fuel state is itself pushed
    through the machine with a fresh copy of ``rho`` each round, converging
    to maximally mixed whenever ||rho - I/d||_1 < 1 (the product bound for
    this track assumes a perfect-square system dimension, where the full
    operator basis twirl is exactly depolarizing).
    """
    rho = check_density_matrix(rho, tol)
    if not sigma_stream:
        raise PreconditionError("need at least one fuel state")
    d = rho.shape[0]
    m = ancilla_dim(d)
    ops = dephasing_ops(d)
    eye_m = np.eye(m, dtype=complex) / m
    eye_d = np.eye(d, dtype=complex) / d
    target = pinch(rho)
    rho_mix_dist = trace_norm(rho - eye_d)

    rows = []
    rho_n = rho
    sigma_n = check_density_matrix(sigma_stream[0], tol)
    bound_sys = 1.0
    for n, sigma in enumerate(sigma_stream, start=1):
        sigma = check_density_matrix(sigma, tol)
        if sigma.shape[0] != m:
            raise DimensionError(f"fuel states must have dimension {m}")
        rho_n = couple(rho_n, sigma, None, ops)[0]
        sigma_n = couple(rho, sigma_n, None, ops)[1]
        bound_sys *= trace_norm(sigma - eye_m)
        rows.append(MachineRow(
            n=n,
            dist_system=trace_norm(rho_n - target),
            dist_ancilla=trace_norm(sigma_n - eye_m),
            entropy=von_neumann_entropy(rho_n, tol),
            bound_system=bound_sys,
            bound_ancilla=rho_mix_dist ** n,
        ))
    return MachineReport(dim=d, noise_dim=m, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Decoherence and measurement with the smallest environment
# ---------------------------------------------------------------------------

def decohere_pure_state(psi: np.ndarray, basis: np.ndarray | None = None,
                        tol: Tolerances = TOL) -> tuple[np.ndarray, np.ndarray]:
    """Run the purified decoherence process on a state vector.

    The environment is a maximally entangled pair E1/E2 of local dimension
    ceil(sqrt(d)); only E1 couples to the system, through the dephasing
    coupling.  E2 never interacts and E1's half of the pair is I/m, so the
    (system, E1) marginals are exactly those of ``couple`` on I/m: the
    system is pinched exactly and E1 stays maximally mixed.

    Returns (reduced system state, reduced E1 state).  ``psi`` must have
    unit norm within ``tol.trace_one``.
    """
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > tol.trace_one:
        raise PreconditionError("state vector must have unit norm")
    d = psi.size
    m = ancilla_dim(d)
    basis = None if basis is None else computational_or(basis, d)
    return couple(np.outer(psi, psi.conj()), np.eye(m, dtype=complex) / m,
                  basis, dephasing_ops(d))


def measurement_process(psi: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Projective measurement as a closed process on system x pointer.

    The device is a d-dimensional pointer in |0> plus a maximally entangled
    pair R1/R2 of local dimension ceil(sqrt(d)).  The gate
    sum_i |i><i| (x) X^i (x) U_i (x) 1 moves the pointer to |i>, and R1's
    half of the pair is I/m, so the system-pointer output is
    sum_ij (rho * G)_ij |i, i><j, j| with rho * G the decohered system of
    ``decohere_pure_state``: Born weights p_i = |<i|psi>|^2 on |i, i>.
    """
    psi = np.asarray(psi, dtype=complex)
    d = psi.size
    if d < 2:
        raise PreconditionError("measurement needs dimension >= 2")
    require_dim(d * d, tol)
    system = decohere_pure_state(psi, tol=tol)[0]
    pointer = np.arange(d) * (d + 1)    # |i, i> in the (S, P) layout
    out = np.zeros((d * d, d * d), dtype=complex)
    out[np.ix_(pointer, pointer)] = system
    return out
