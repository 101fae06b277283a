"""Clock/shift matrices, Weyl operator bases, MUB pairs, phase-space ops."""

import numpy as np
import pytest

from dephaselab import weylops
from dephaselab.qcore import InvariantViolation, PreconditionError
from dephaselab.tolerances import TOL


def tau(m: int) -> complex:
    return -np.exp(1j * np.pi / m)


def labels(m: int) -> list[tuple[int, int]]:
    """The row-major (r, s) label of each element of ``weyl_basis(m)``."""
    return [divmod(i, m) for i in range(m * m)]


def expand_in_basis(basis: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Coefficients c_i = (1/m) tr(U_i† a); a = sum_i c_i U_i."""
    m = basis.shape[-1]
    return np.array([np.trace(op.conj().T @ a) / m for op in basis])


def resum_from_basis(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    m = basis.shape[-1]
    out = np.zeros((m, m), dtype=complex)
    for c, op in zip(coeffs, basis):
        out += c * op
    return out


class TestClockShift:
    def test_qubit_case_is_pauli(self):
        np.testing.assert_allclose(weylops.shift_x(2), [[0, 1], [1, 0]])
        np.testing.assert_allclose(weylops.clock_z(2), [[1, 0], [0, -1]], atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_group_order(self, d):
        x, z = weylops.shift_x(d), weylops.clock_z(d)
        np.testing.assert_allclose(np.linalg.matrix_power(x, d), np.eye(d), atol=1e-12)
        np.testing.assert_allclose(np.linalg.matrix_power(z, d), np.eye(d), atol=1e-12)
        for k in range(1, d):
            assert np.max(np.abs(np.linalg.matrix_power(x, k) - np.eye(d))) > 0.5

    def test_conjugation_relation_d3(self):
        # explicit 3x3 multiplication oracle for X Z = w^{-1} Z X
        d = 3
        x, z = weylops.shift_x(d), weylops.clock_z(d)
        omega = np.exp(2j * np.pi / d)
        lhs = x @ z
        rhs = z @ x / omega
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        oracle = np.zeros((3, 3), dtype=complex)
        for col in range(3):
            oracle[(col + 1) % 3, col] = omega ** col
        np.testing.assert_allclose(lhs, oracle, atol=1e-12)

    def test_dimension_precondition(self):
        with pytest.raises(PreconditionError):
            weylops.shift_x(1)


class TestWeylBasis:
    def test_qubit_family(self):
        basis = weylops.weyl_basis(2)
        x, z = weylops.shift_x(2), weylops.clock_z(2)
        expected = [np.eye(2), z, x, tau(2) * x @ z]
        for op, ref in zip(basis, expected):
            np.testing.assert_allclose(op, ref, atol=1e-12)
        # the phased product is the Pauli Y up to a global phase
        y = np.array([[0, -1j], [1j, 0]])
        overlap = abs(np.trace(basis[3].conj().T @ y)) / 2
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_trace_orthonormality(self, m):
        basis = weylops.weyl_basis(m)
        stack = np.stack([op.ravel() for op in basis])
        gram = stack @ stack.conj().T / m
        np.testing.assert_allclose(gram, np.eye(m * m), atol=TOL.basis_gram)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_trace_delta(self, m):
        basis = weylops.weyl_basis(m)
        for (r, s), op in zip(labels(m), basis):
            want = m if (r, s) == (0, 0) else 0.0
            assert np.trace(op) == pytest.approx(want, abs=1e-12)

    def test_odd_prime_order(self):
        # every nontrivial element of the m=3 family has order exactly 3
        basis = weylops.weyl_basis(3)
        for (r, s), op in zip(labels(3), basis):
            cube = np.linalg.matrix_power(op, 3)
            np.testing.assert_allclose(cube, np.eye(3), atol=1e-12)
            if (r, s) != (0, 0):
                assert np.max(np.abs(op - np.eye(3))) > 0.5

    def test_refuses_a_family_that_is_not_orthonormal(self, monkeypatch):
        family = weylops.weyl_family

        def scaled(m, r, s):
            ops = family(m, r, s)
            ops[1] *= 1.001
            return ops

        monkeypatch.setattr(weylops, "weyl_family", scaled)
        with pytest.raises(InvariantViolation, match="operator basis is not trace-orthonormal"):
            weylops.weyl_basis(3)

    def test_even_m_unphased_product_order(self):
        # repeated multiplication oracle: the bare product X Z has order 2m
        m = 4
        xz = weylops.shift_x(m) @ weylops.clock_z(m)
        p4 = np.linalg.matrix_power(xz, 4)
        assert np.max(np.abs(p4 - np.eye(m))) > 0.5
        np.testing.assert_allclose(np.linalg.matrix_power(xz, 8), np.eye(m), atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_composition_identity(self, m):
        # tau^{us - vr} U_{r+u, s+v} with unreduced integer indices
        t = tau(m)
        for r in range(m):
            for s in range(m):
                for u in range(m):
                    for v in range(m):
                        lhs = weylops.weyl_op(m, r, s) @ weylops.weyl_op(m, u, v)
                        rhs = t ** ((u * s - v * r) % (2 * m)) * weylops.weyl_op(m, r + u, s + v)
                        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_inverse_identity(self, m):
        for r in range(m):
            for s in range(m):
                lhs = weylops.weyl_op(m, r, s).conj().T
                rhs = weylops.weyl_op(m, -r, -s)
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_spans_all_matrices(self, m, rng):
        basis = weylops.weyl_basis(m)
        for _ in range(20):
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            coeffs = expand_in_basis(basis, a)
            back = resum_from_basis(basis, coeffs)
            assert np.max(np.abs(back - a)) < 1e-9


def computational_basis(d: int) -> np.ndarray:
    """Identity matrix; columns are the computational basis vectors."""
    return np.eye(d, dtype=complex)


def fourier_basis(d: int) -> np.ndarray:
    """Columns |f_k> = d^{-1/2} sum_j w^{j k} |j>; eigenbasis of the shift."""
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def mub_pair(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The computational basis and its Fourier conjugate.

    All cross overlaps have squared modulus 1/d in every dimension, so this
    pair is mutually unbiased even when d is not a prime power.
    """
    if d < 2:
        raise PreconditionError("mutually unbiased pair needs dimension >= 2")
    return computational_basis(d), fourier_basis(d)


def unbiasedness_residual(b1: np.ndarray, b2: np.ndarray) -> float:
    """max |  |<i|j>|^2 - 1/d  | over all cross overlaps."""
    d = b1.shape[0]
    overlaps = np.abs(b1.conj().T @ b2) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / d)))


class TestMubPair:
    def test_qubit_pair_is_hadamard_conjugate(self):
        b1, b2 = mub_pair(2)
        np.testing.assert_allclose(b1, np.eye(2))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(b2, h, atol=1e-12)

    def test_d3_overlaps(self):
        b1, b2 = mub_pair(3)
        overlaps = np.abs(b1.conj().T @ b2) ** 2
        np.testing.assert_allclose(overlaps, np.full((3, 3), 1 / 3), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_orthonormal_and_unbiased(self, d):
        b1, b2 = mub_pair(d)
        for b in (b1, b2):
            np.testing.assert_allclose(b.conj().T @ b, np.eye(d), atol=TOL.basis_gram)
        assert unbiasedness_residual(b1, b2) < TOL.basis_gram

    def test_non_prime_power_dimension(self):
        assert unbiasedness_residual(*mub_pair(6)) < 1e-12


class TestPhaseSpaceOps:
    def test_zero_displacement(self):
        np.testing.assert_allclose(weylops.weyl_displacement(5, 0, 0), np.eye(5))

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_parity_involution(self, d):
        pi = weylops.parity_operator(d)
        np.testing.assert_allclose(pi @ pi, np.eye(d), atol=1e-14)
        e0 = np.zeros(d)
        e0[0] = 1.0
        np.testing.assert_allclose(pi @ e0, e0)

    def test_even_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            weylops.parity_operator(4)
        with pytest.raises(PreconditionError):
            weylops.weyl_displacement(4, 1, 1)

    def test_displacement_moves_wigner_support(self):
        # oracle: the phase-space transform localizes basis states on their
        # q column; displacing |0><0| moves that column accordingly
        from dephaselab.expander import wigner_from_state
        d = 5
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        for q0 in range(d):
            w_op = weylops.weyl_displacement(d, 2, q0)
            moved = w_op @ rho0 @ w_op.conj().T
            w = wigner_from_state(moved)
            np.testing.assert_allclose(w.sum(axis=0),
                                       np.eye(d)[q0], atol=1e-12)
