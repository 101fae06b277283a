"""Centralized numerical tolerances.

Every check in the library and in the acceptance suite pulls its tolerance
from a single :class:`Tolerances` record so that the thresholds are named,
discoverable, and overridable in one place (the CLI accepts a JSON file of
overrides via ``--tol-file``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass


def _finite_real(value) -> bool:
    """A JSON int or float that converts to a finite float (bools excluded)."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:             # an int beyond the float range
        return False


@dataclass(frozen=True)
class Tolerances:
    """Named numerical thresholds with library-wide defaults.

    Absolute tolerances unless stated otherwise.  ``dim_cap`` bounds the
    dimension of any joint space the library will materialize.
    """

    hermiticity: float = 1e-12        # ||A - A†||_max for density matrices
    trace_one: float = 1e-12          # |tr(rho) - 1|
    psd_floor: float = -1e-10         # smallest admissible eigenvalue of a state
    unitarity: float = 1e-10          # ||U U† - 1||_max
    basis_gram: float = 1e-10         # orthonormal basis / operator basis Gram residual
    kron_assoc: float = 1e-14         # associativity of the tensor product
    partial_trace: float = 1e-12      # trace preservation under partial trace
    majorization: float = 1e-10       # slack on partial-sum comparisons
    schur_horn_diag: float = 1e-9     # achieved diagonal vs. requested target
    matrix_log_roundtrip: float = 1e-9  # ||exp(-i H) - U||
    entropy_eig_cutoff: float = 1e-14   # eigenvalues below this contribute no entropy
    eig_clamp: float = 1e-10          # negative eigenvalues above -eig_clamp clamp to 0
    dephasing_residual: float = 1e-10   # exact dephasing, trace norm
    catalyst_residual: float = 1e-10    # ancilla marginal vs. maximally mixed
    chain_residual: float = 1e-9        # marginals in multi-system chains
    transition_residual: float = 1e-8   # end-to-end state transitions
    bound_slack: float = 1e-9           # slack when asserting analytic inequalities
    entropy_slack: float = 1e-9         # slack on entropy monotonicity
    recurrence_residual: float = 1e-9   # stroboscopic map vs. predicted map
    integer_time_residual: float = 1e-8  # continuous vs. discrete evolution
    pqc_security: float = 1e-9          # ciphertext marginal vs. maximally mixed
    pqc_fidelity: float = 1e-10         # round-trip and key-restoration fidelity slack
    bell_match: float = 1e-8            # key state must match a Bell combination
    syndrome_residual: float = 1e-9     # corrected message vs. original
    wigner_roundtrip: float = 1e-10     # state -> Wigner -> state
    parseval: float = 1e-9              # 2-norm isometry of the Wigner transform
    rank_rel_cutoff: float = 1e-9       # singular values below cutoff*max count as 0
    dim_cap: int = 4096                 # largest admissible joint dimension

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, path: str) -> "Tolerances":
        """Load overrides from a JSON object; unknown keys are rejected, and
        so is any value that is not a finite real number (``dim_cap``: a
        positive integer)."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("tolerance file must hold a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        for name, value in data.items():
            if name == "dim_cap":
                if type(value) is not int or value < 1:
                    raise ValueError(f"dim_cap must be a positive integer: {value!r}")
            elif not _finite_real(value):
                raise ValueError(f"{name} must be a finite number: {value!r}")
        return cls(**data)


#: Shared default record. Functions take an optional ``tol`` argument and
#: fall back to this instance.
TOL = Tolerances()
