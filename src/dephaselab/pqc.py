"""Private quantum channel keyed by shared entanglement.

Two message qubits travel through a channel that an eavesdropper fully
controls.  Alice holds the A halves and Bob the B halves of two Bell pairs.
Alice couples the message block to her halves with two controlled-Pauli
layers, one conditioned in the computational basis (consuming pair A1B1)
and one in the per-qubit Hadamard basis (pair A2B2); because the two bases
are mutually unbiased and the Pauli family is trace-orthonormal, the
ciphertext marginal is exactly maximally mixed for every input, even when
the eavesdropper is pre-entangled with the message.  Bob undoes both layers
with complex-conjugated controls on his halves.  With no tampering the
message returns exactly and the key pairs end in their initial Bell state,
ready for reuse.

A Pauli error on the ciphertext is imprinted one-to-one onto the final
Bell-pair combination, so Bob and Alice can identify it (consuming fresh
ebits to discriminate Bell states), correct the message with a closed-form
Pauli, and cheaply authenticate a no-error transmission through random
parity checks.  The coupling layers stay dense joint unitaries: Bob's
decoding acts on the whole (small) joint state, which the syndrome is read
from.

Register layout used throughout: (S, E, A1, B1, A2, B2) where S is the
4-dimensional message block and E an optional eavesdropper extension.
``pqc_encode`` reads E from the state's dimension, and the key is always
the two Bell pairs.  Two qubits is the exactly simulated block size; longer
messages go in chunks of two qubits, one key block each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .dephaser import controlled_basis_unitary
from .qcore import (
    DimensionError,
    PreconditionError,
    as_operator,
    check_density_matrix,
    embed_operator,
    fidelity,
    hermitize,
    matrix_to_json,
    partial_trace,
    trace_norm,
)
from .tolerances import TOL, Tolerances

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _pauli(z: int, x: int) -> np.ndarray:
    """Z^z X^x on one qubit."""
    return np.linalg.matrix_power(_Z, z % 2) @ np.linalg.matrix_power(_X, x % 2)


def bell_state(z: int = 0, x: int = 0) -> np.ndarray:
    """(Z^z X^x (x) 1) applied to the standard maximally entangled pair."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.kron(_pauli(z, x), np.eye(2, dtype=complex)) @ v

#: Two-bit encodings of the four Bell states, (z, x) order.
BELL_LABELS = {(0, 0): "phi+", (0, 1): "psi+", (1, 0): "phi-", (1, 1): "psi-"}


@dataclass(frozen=True)
class PauliError:
    """Tamper tuple (a, b, c, d): Z^c X^d acts on message qubit 1 and
    Z^a X^b on message qubit 2."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if v not in (0, 1):
                raise PreconditionError("error components must be bits")

    def operator(self) -> np.ndarray:
        return np.kron(_pauli(self.c, self.d), _pauli(self.a, self.b))

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class Syndrome:
    """Bell-pair readout, one (z, x) bit pair per ebit: the pair consumed by
    the Hadamard-basis layer is reported first."""

    bits: tuple[int, int, int, int]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def is_clean(self) -> bool:
        return not any(self.bits)


class IntegrityError(RuntimeError):
    """The key state is not a Bell combination: non-Pauli tampering."""


# ---------------------------------------------------------------------------
# Coupling layers
# ---------------------------------------------------------------------------

def _layer(basis: np.ndarray, conjugate: bool, layout: tuple[int, ...],
           ancilla: int) -> np.ndarray:
    """sum_i |i><i| (x) U_i embedded on (S, ancilla); U_(i1,i2) = X^i1 Z^i2."""
    ops = [np.linalg.matrix_power(_X, i1) @ np.linalg.matrix_power(_Z, i2)
           for i1, i2 in product(range(2), repeat=2)]
    if conjugate:
        ops = [op.conj() for op in ops]
    return embed_operator(controlled_basis_unitary(basis, ops), layout, [0, ancilla])


@lru_cache(maxsize=8)
def _protocol_unitaries(e_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(encode, decode) for message dim 4 and extension dim e_dim."""
    layout = (4, e_dim, 2, 2, 2, 2)
    comp = np.eye(4, dtype=complex)
    had = np.kron(_H, _H)
    u_i = _layer(comp, False, layout, 2)       # S with A1
    u_j = _layer(had, False, layout, 4)        # S with A2
    v_j = _layer(had, True, layout, 5)         # S with B2
    v_i = _layer(comp, True, layout, 3)        # S with B1
    return u_j @ u_i, v_i @ v_j


@dataclass(frozen=True)
class PqcState:
    """Joint state over (S, E, A1, B1, A2, B2)."""

    joint: np.ndarray

    @property
    def layout(self) -> tuple[int, ...]:
        return (4, self.joint.shape[0] // 64, 2, 2, 2, 2)

    def message(self) -> np.ndarray:
        return hermitize(partial_trace(self.joint, self.layout, [0]))

    def eavesdropper_view(self) -> np.ndarray:
        """Marginal on (S, E): everything outside the key registers."""
        return hermitize(partial_trace(self.joint, self.layout, [0, 1]))

    def key_state(self) -> np.ndarray:
        return hermitize(partial_trace(self.joint, self.layout, [2, 3, 4, 5]))


def pqc_encode(rho: np.ndarray, *, tol: Tolerances = TOL) -> PqcState:
    """Encrypt; ``rho`` lives on S (x) E, where the eavesdropper's side
    information E has dimension ``rho.shape[0] // 4`` (1 for S alone)."""
    rho = check_density_matrix(rho, tol)
    extension_dim, rest = divmod(rho.shape[0], 4)
    if rest:
        raise DimensionError("state must live on the message (x) extension space")
    u, _ = _protocol_unitaries(extension_dim)
    kv = np.kron(bell_state(), bell_state())          # key on (A1, B1, A2, B2)
    joint0 = np.kron(rho, np.outer(kv, kv.conj()))   # (S E) x (A1 B1 A2 B2)
    joint = u @ joint0 @ u.conj().T
    return PqcState(joint=hermitize(joint))


def pqc_decode(state: PqcState) -> tuple[np.ndarray, np.ndarray]:
    """Bob's decoding; returns (message-and-extension state, key state).

    With no tampering the first equals the encoded input and the second has
    unit fidelity with the initial Bell pairs.
    """
    _, v = _protocol_unitaries(state.layout[1])
    joint = v @ state.joint @ v.conj().T
    decoded = PqcState(joint=hermitize(joint))
    return decoded.eavesdropper_view(), decoded.key_state()


def apply_pauli_error(state: PqcState, err: PauliError) -> PqcState:
    """Tamper with the in-transit message block only."""
    op = embed_operator(err.operator(), state.layout, [0])
    return PqcState(joint=op @ state.joint @ op.conj().T)


# ---------------------------------------------------------------------------
# Syndromes
# ---------------------------------------------------------------------------

def _bell_pair_label(rho_pair: np.ndarray, tol: Tolerances) -> tuple[int, int]:
    for z, x in product(range(2), repeat=2):
        v = bell_state(z, x)
        if abs(np.real(v.conj() @ rho_pair @ v) - 1.0) < tol.bell_match:
            return (z, x)
    raise IntegrityError("key pair is not within tolerance of any Bell state")


def extract_syndrome(key_state: np.ndarray, tol: Tolerances = TOL) -> Syndrome:
    """Identify the Bell combination of the post-decode key.

    Raises :class:`IntegrityError` when either pair fails to match a Bell
    state, which signals non-Pauli tampering.
    """
    key_state = as_operator(key_state)
    if key_state.shape[0] != 16:
        raise DimensionError("key state lives on two ebits (dimension 16)")
    pair_i = partial_trace(key_state, (2, 2, 2, 2), [0, 1])   # A1 B1
    pair_j = partial_trace(key_state, (2, 2, 2, 2), [2, 3])   # A2 B2
    z2, x2 = _bell_pair_label(pair_j, tol)
    z1, x1 = _bell_pair_label(pair_i, tol)
    return Syndrome(bits=(z2, x2, z1, x1))


def syndrome_formula(err: PauliError) -> Syndrome:
    """Predicted syndrome (a, c, b, a xor d): the closed form the simulation
    is checked against."""
    a, b, c, d = err.as_tuple()
    return Syndrome(bits=(a, c, b, (a + d) % 2))


def error_from_syndrome(syn: Syndrome) -> PauliError:
    """Invert the syndrome map (it is one-to-one over the 16 errors)."""
    v0, v1, v2, v3 = syn.bits
    return PauliError(a=v0, b=v2, c=v1, d=(v3 + v0) % 2)


def correction_operator(syn: Syndrome) -> np.ndarray:
    """Pauli that restores the decoded message for the identified error.

    Decoding turns the error (a, b, c, d) into Z^(b xor c) X^(a xor d) on
    message qubit 1 and Z^a X^b on qubit 2: the Hadamard-basis layer moves
    qubit 2's components onto qubit 1.
    """
    a, b, c, d = error_from_syndrome(syn).as_tuple()
    return np.kron(_pauli(b ^ c, a ^ d), _pauli(a, b)).conj().T


# ---------------------------------------------------------------------------
# Bell discrimination with one auxiliary ebit
# ---------------------------------------------------------------------------

def _cnot() -> np.ndarray:
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = g[1, 1] = g[3, 2] = g[2, 3] = 1.0
    return g


def bell_discriminate(chi: np.ndarray) -> tuple[str, dict[str, float]]:
    """Identify an unknown Bell pair using one fresh auxiliary ebit.

    Both parties apply a CNOT from their auxiliary half onto their message
    half, then measure the auxiliary halves in the X basis and the message
    halves in the Z basis.  The X-parity of the auxiliary pair resolves the
    sign and the Z-parity of the message pair resolves phi vs psi, with
    probability one.  Returns the label and the four parity outcome
    probabilities; the auxiliary ebit is consumed by the measurement.
    """
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (4,):
        raise DimensionError("expected a two-qubit state vector")
    layout = (2, 2, 2, 2)                  # (A_alice, A_bob, S_alice, S_bob)
    vec = np.kron(bell_state(), chi)
    circuit = (embed_operator(_cnot(), layout, [1, 3])
               @ embed_operator(_cnot(), layout, [0, 2]))
    vec = circuit @ vec
    vec = embed_operator(np.kron(_H, _H), layout, [0, 1]) @ vec  # X-basis readout
    probs = np.abs(vec) ** 2
    outcome: dict[str, float] = {}
    for idx in range(16):
        aa, ab, sa, sb = (idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        key = f"sign{'-' if (aa ^ ab) else '+'}_{'psi' if (sa ^ sb) else 'phi'}"
        outcome[key] = outcome.get(key, 0.0) + float(probs[idx])
    label, weight = max(outcome.items(), key=lambda kv: kv[1])
    if weight < 1.0 - 1e-9:
        raise IntegrityError("input was not one of the four Bell states")
    sign, kind = label.split("_")
    return f"{kind}{sign[-1]}", outcome


# ---------------------------------------------------------------------------
# Parity authentication
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuthenticationResult:
    verdict: str                 # "accept" | "reject"
    ebits_consumed: int


def parity_authenticate(syn: Syndrome, rounds: int,
                        rng: np.random.Generator) -> AuthenticationResult:
    """Check r random-subset parities of the syndrome string, one ebit each.

    Subsets are uniform over all subsets of the bit positions, so every
    nonzero syndrome is caught with probability exactly 1/2 per round and
    survives all r rounds with probability 2^-r.  The clean syndrome always
    passes.
    """
    if rounds < 1:
        raise PreconditionError("need at least one authentication round")
    bits = np.asarray(syn.bits, dtype=int)
    parities = [int(np.dot(rng.integers(0, 2, size=bits.size), bits) % 2)
                for _ in range(rounds)]     # every round draws its mask
    verdict = "accept" if not any(parities) else "reject"
    return AuthenticationResult(verdict=verdict, ebits_consumed=rounds)


# ---------------------------------------------------------------------------
# End-to-end transcript (CLI surface)
# ---------------------------------------------------------------------------

def run_transcript(rho: np.ndarray, err: PauliError | None = None,
                   auth_rounds: int = 8, seed: int = 0,
                   tol: Tolerances = TOL) -> dict:
    """One full protocol round, reported as a JSON-ready dictionary."""
    encoded = pqc_encode(rho, tol=tol)
    cipher = encoded.eavesdropper_view()
    cipher_dist = trace_norm(cipher - np.eye(4) / 4.0)
    transit = apply_pauli_error(encoded, err) if err is not None else encoded
    msg, key_state = pqc_decode(transit)
    syn = extract_syndrome(key_state, tol)
    auth = parity_authenticate(syn, auth_rounds, np.random.default_rng(seed))
    if not syn.is_clean():
        corr = correction_operator(syn)
        msg = hermitize(corr @ msg @ corr.conj().T)
    return {
        "message": matrix_to_json(rho),
        "ciphertext_marginal_distance": cipher_dist,
        "syndrome": str(syn),
        "verdict": auth.verdict,
        "ebits_consumed": auth.ebits_consumed,
        "recovered_fidelity": fidelity(msg, rho),
    }
