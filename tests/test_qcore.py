"""Core linear algebra: tensor products, partial traces, norms, entropy,
matrix logarithms, majorization, and the two-level-rotation construction."""

import numpy as np
import pytest
import scipy.linalg

from dephaselab import qcore
from dephaselab.qcore import (
    DimensionError,
    PreconditionError,
    ResourceLimitError,
    block_trace_norm,
    embed_operator,
    fidelity,
    hamiltonian_from_unitary,
    majorizes,
    matrix_from_json,
    matrix_to_json,
    mutual_information,
    partial_trace,
    schur_horn_unitary,
    tensor,
    trace_norm,
    two_norm,
    von_neumann_entropy,
)
from dephaselab.sampling import (
    haar_unitary,
    random_density_matrix,
    random_majorized_spectrum,
    random_pure_state,
)
from dephaselab.tolerances import TOL, Tolerances


class TestTensor:
    def test_identity_factors(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_basis_action(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        out = tensor(x, np.eye(2)) @ ket00
        expected = np.zeros(4)
        expected[2] = 1.0  # |10>
        np.testing.assert_allclose(out, expected)

    def test_trace_multiplicative(self, rng):
        # oracle: direct multiplication of the individual traces
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert np.trace(tensor(a, b)) == pytest.approx(np.trace(a) * np.trace(b))

    def test_associativity(self, rng):
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = tensor(tensor(a, b), c)
        rhs = tensor(a, tensor(b, c))
        assert np.max(np.abs(lhs - rhs)) <= TOL.kron_assoc

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            tensor(np.eye(128), np.eye(128))


class TestPartialTrace:
    def test_product_state(self, rng):
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(3, rng)
        np.testing.assert_allclose(
            partial_trace(tensor(rho, sigma), (2, 3), [0]), rho, atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(tensor(rho, sigma), (2, 3), [1]), sigma, atol=1e-12)

    def test_entangled_marginal(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        bell = np.outer(v, v.conj())
        for keep in ([0], [1]):
            np.testing.assert_allclose(
                partial_trace(bell, (2, 2), keep), np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_random_split(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = a + a.conj().T
        # oracle: summation over paired indices preserves the full trace
        for keep in ([0], [1]):
            reduced = partial_trace(a, (2, 3), keep)
            assert np.trace(reduced) == pytest.approx(np.trace(a), abs=1e-12)

    def test_multi_factor(self, rng):
        rhos = [random_density_matrix(d, rng) for d in (2, 3, 2)]
        joint = tensor(*rhos)
        np.testing.assert_allclose(
            partial_trace(joint, (2, 3, 2), [0, 2]),
            tensor(rhos[0], rhos[2]), atol=1e-12)

    def test_inconsistent_layout(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6), (2, 2), [0])
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6), (2, 3), [])


class TestNorms:
    def test_rank_deficient_mixed_distance(self):
        # ||I_{k,d} - I_d||_1 = 2 (1 - k/d); d=4, k=2 gives 1
        partial = np.diag([0.5, 0.5, 0.0, 0.0])
        full = np.eye(4) / 4
        assert trace_norm(partial - full) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_two_norm_elementwise_oracle(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert two_norm(a) == pytest.approx(np.sqrt(np.sum(np.abs(a) ** 2)))

    def test_unitary_invariance(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = haar_unitary(4, rng)
        assert trace_norm(u @ a @ u.conj().T) == pytest.approx(trace_norm(a), abs=1e-10)
        assert two_norm(u @ a @ u.conj().T) == pytest.approx(two_norm(a), abs=1e-10)


class TestTraceNormPaths:
    def test_hermitian_path_matches_singular_values(self, rng):
        for d in range(2, 65):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = qcore.hermitize(a)
            assert np.array_equal(h, h.conj().T)
            svd_sum = np.sum(np.linalg.svd(h, compute_uv=False))
            assert trace_norm(h) == pytest.approx(svd_sum, rel=1e-12, abs=0)

    def test_non_hermitian_input_gives_singular_value_sum(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert trace_norm(a) == float(np.sum(np.linalg.svd(a, compute_uv=False)))


def planted_blocks(rng, n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """A Hermitian matrix with n random s x s diagonal blocks, and its labels."""
    a = np.zeros((n * s, n * s), dtype=complex)
    for b in range(n):
        x = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        a[b * s:(b + 1) * s, b * s:(b + 1) * s] = qcore.hermitize(x)
    return a, np.repeat(np.arange(n), s)


class TestBlockTraceNorm:
    @pytest.mark.parametrize("n,s", [(2, 1), (3, 3), (5, 5), (4, 7), (13, 13)])
    def test_planted_blocks_contiguous_and_permuted(self, rng, n, s):
        a, groups = planted_blocks(rng, n, s)
        perm = rng.permutation(n * s)
        for mat, labels in ((a, groups), (a[np.ix_(perm, perm)], 7 * groups[perm] + 2)):
            assert block_trace_norm(mat, labels) == pytest.approx(trace_norm(mat), rel=1e-12, abs=0)

    def test_entry_between_groups_falls_back_to_full_norm(self, rng):
        a, groups = planted_blocks(rng, 4, 3)
        a[1, 10] = 1e-300
        assert block_trace_norm(a, groups) == trace_norm(a)
        perm = rng.permutation(12)
        b = a[np.ix_(perm, perm)]
        assert block_trace_norm(b, groups[perm]) == trace_norm(b)

    def test_unequal_groups_fall_back_to_full_norm(self, rng):
        a, _ = planted_blocks(rng, 1, 5)
        assert block_trace_norm(a, [0, 0, 1, 1, 1]) == trace_norm(a)

    def test_zero_matrix(self):
        assert block_trace_norm(np.zeros((9, 9)), np.repeat(np.arange(3), 3)) == 0.0

    def test_single_group_is_bit_identical(self, rng):
        a, _ = planted_blocks(rng, 1, 16)
        for mat in (a, a + np.triu(np.ones((16, 16)), 1)):   # Hermitian and not
            assert block_trace_norm(mat, np.full(16, 4)) == trace_norm(mat)


class TestEntropy:
    def test_pure_state(self, rng):
        assert von_neumann_entropy(random_pure_state(5, rng)) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        for d in (2, 3, 8):
            assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(np.log2(d), abs=1e-12)

    def test_hand_evaluated_spectrum(self):
        rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(1.5, abs=1e-12)

    def test_unitary_invariance(self, rng):
        rho = random_density_matrix(4, rng)
        u = haar_unitary(4, rng)
        assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9)

    def test_mutual_information_product_vs_entangled(self, rng):
        prod = tensor(random_density_matrix(2, rng), random_density_matrix(2, rng))
        assert mutual_information(prod, (2, 2), 0, 1) == pytest.approx(0.0, abs=1e-9)
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        bell = np.outer(v, v.conj())
        assert mutual_information(bell, (2, 2), 0, 1) == pytest.approx(2.0, abs=1e-9)


class TestHamiltonianFromUnitary:
    def test_identity(self):
        np.testing.assert_allclose(hamiltonian_from_unitary(np.eye(3)), np.zeros((3, 3)),
                                   atol=1e-12)

    def test_eigenphase_branch(self):
        h = hamiltonian_from_unitary(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(h)), [0.0, np.pi], atol=1e-12)

    def test_roundtrip_random(self, rng):
        # oracle: eigendecomposition round trip through the exponential
        for _ in range(5):
            u = haar_unitary(4, rng)
            h = hamiltonian_from_unitary(u)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
            np.testing.assert_allclose(scipy.linalg.expm(-1j * h), u,
                                       atol=TOL.matrix_log_roundtrip)

    def test_degenerate_spectrum(self):
        u = np.diag([1j, 1j, -1j]).astype(complex)
        h = hamiltonian_from_unitary(u)
        np.testing.assert_allclose(scipy.linalg.expm(-1j * h), u, atol=1e-10)


class TestMajorization:
    def test_pure_dominates(self, rng):
        assert majorizes(random_pure_state(4, rng), random_density_matrix(4, rng))

    def test_maximally_mixed_is_bottom(self, rng):
        rho = random_density_matrix(5, rng)
        assert majorizes(rho, np.eye(5) / 5)

    def test_partial_sum_oracle(self):
        a = np.diag([0.5, 0.3, 0.2]).astype(complex)
        b = np.diag([0.4, 0.4, 0.2]).astype(complex)
        assert majorizes(a, b)
        assert not majorizes(b, a)

    def test_reflexive_transitive(self, rng):
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            assert majorizes(rho, rho)
            lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
            mid = random_majorized_spectrum(lam, rng)
            low = random_majorized_spectrum(mid, rng)
            r_mid = np.diag(mid).astype(complex)
            r_low = np.diag(low).astype(complex)
            assert majorizes(rho, r_mid) and majorizes(r_mid, r_low)
            assert majorizes(rho, r_low)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            majorizes(np.eye(2) / 2, np.eye(3) / 3)


class TestSchurHorn:
    def test_fixed_point(self):
        lam = np.array([0.6, 0.4])
        v = schur_horn_unitary(lam, lam)
        got = np.real(np.diagonal(v @ np.diag(lam) @ v.conj().T))
        np.testing.assert_allclose(got, lam, atol=TOL.schur_horn_diag)

    def test_single_rotation(self):
        v = schur_horn_unitary([1.0, 0.0], [0.5, 0.5])
        got = np.real(np.diagonal(v @ np.diag([1.0, 0.0]) @ v.conj().T))
        np.testing.assert_allclose(got, [0.5, 0.5], atol=TOL.schur_horn_diag)

    def test_random_four_dim(self, rng):
        # oracle: verify by direct conjugation
        for _ in range(50):
            lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            tgt = rng.permutation(random_majorized_spectrum(lam, rng))
            v = schur_horn_unitary(lam, tgt)
            got = np.real(np.diagonal(v @ np.diag(lam) @ v.conj().T))
            np.testing.assert_allclose(got, tgt, atol=TOL.schur_horn_diag)
            np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_many_instances_per_dimension(self, d, rng):
        for _ in range(200):
            lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            tgt = rng.permutation(random_majorized_spectrum(lam, rng))
            v = schur_horn_unitary(lam, tgt)
            got = np.real(np.diagonal(v @ np.diag(lam) @ v.conj().T))
            np.testing.assert_allclose(got, tgt, atol=TOL.schur_horn_diag)

    def test_majorization_precondition(self):
        with pytest.raises(PreconditionError):
            schur_horn_unitary([0.6, 0.4], [0.8, 0.2])

    def test_equal_sum_slack_is_the_majorization_tolerance(self):
        # the total is the last partial sum, so it gets the same slack
        lam, tgt = [0.6, 0.4], [0.5, 0.5 - 5e-11]
        schur_horn_unitary(lam, tgt)
        with pytest.raises(PreconditionError, match="equal sums"):
            schur_horn_unitary(lam, tgt, Tolerances(majorization=1e-11))

    def test_large_dimension(self, rng):
        n = 128
        lam = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        tgt = rng.permutation(random_majorized_spectrum(lam, rng, mixes=4 * n))
        v = schur_horn_unitary(lam, tgt)
        got = np.real(np.diagonal(v @ np.diag(lam) @ v.conj().T))
        np.testing.assert_allclose(got, tgt, rtol=0, atol=TOL.schur_horn_diag)
        assert np.max(np.abs(v @ v.conj().T - np.eye(n))) <= TOL.unitarity


class TestEmbedAndSerialize:
    def test_embed_matches_kron(self, rng):
        u = haar_unitary(2, rng)
        full = embed_operator(u, (2, 3), [0])
        np.testing.assert_allclose(full, tensor(u, np.eye(3)), atol=1e-14)
        full = embed_operator(u, (3, 2), [1])
        np.testing.assert_allclose(full, tensor(np.eye(3), u), atol=1e-14)

    def test_embed_nonadjacent(self, rng):
        u = haar_unitary(4, rng)
        full = embed_operator(u, (2, 3, 2), [0, 2])
        # oracle: conjugating a product state touches only factors 0 and 2
        rhos = [random_density_matrix(d, rng) for d in (2, 3, 2)]
        out = full @ tensor(*rhos) @ full.conj().T
        mid = partial_trace(out, (2, 3, 2), [1])
        np.testing.assert_allclose(mid, rhos[1], atol=1e-12)
        pair = partial_trace(out, (2, 3, 2), [0, 2])
        np.testing.assert_allclose(pair, u @ tensor(rhos[0], rhos[2]) @ u.conj().T,
                                   atol=1e-12)

    def test_json_roundtrip(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(matrix_from_json(matrix_to_json(a)), a)

    def test_fidelity_limits(self, rng):
        rho = random_density_matrix(3, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
        a = np.diag([1.0, 0, 0]).astype(complex)
        b = np.diag([0, 1.0, 0]).astype(complex)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
