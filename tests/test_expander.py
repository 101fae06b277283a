"""The Margulis gather table, the classical lattice walk, the discrete Wigner
transform, and the phase-space dephasing channel."""

import numpy as np
import pytest

from dephaselab import expander as ex
from dephaselab import weylops
from dephaselab.dephaser import pinch
from dephaselab.qcore import PreconditionError, trace_norm, two_norm
from dephaselab.sampling import random_density_matrix, random_pure_state, spawn_rngs
from dephaselab.tolerances import TOL


def lattice_points(e: int) -> np.ndarray:
    return np.stack(np.meshgrid(np.arange(e), np.arange(e), indexing="ij")).reshape(2, -1)


def coherent(d: int) -> np.ndarray:
    v = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    return np.outer(v, v.conj())


def pinched(w: np.ndarray) -> np.ndarray:
    """Column-constant projection: the Wigner array of the pinched state."""
    d = w.shape[0]
    return np.tile(w.sum(axis=0) / d, (d, 1))


def phase_space_norm(w: np.ndarray) -> float:
    """sqrt(d sum W^2): the Hilbert-Schmidt norm of the represented operator."""
    return float(np.sqrt(w.shape[0] * np.sum(w ** 2)))


def walk_matrix(e: int) -> np.ndarray:
    """The doubly stochastic e^2 x e^2 walk matrix (symmetric)."""
    idx = ex._walk_indices(e)
    n = e * e
    w = np.zeros((n, n))
    for row in idx:
        w[np.arange(n), row] += 1.0 / 8.0
    return w


def phase_point_operator(d: int, p: int, q: int) -> np.ndarray:
    """Displaced parity w(p,q) Pi w(p,q)†, built explicitly."""
    w = weylops.weyl_displacement(d, p, q)
    return w @ weylops.parity_operator(d) @ w.conj().T


def oracle_walk_indices(e: int) -> np.ndarray:
    """The four (linear, offset) shear maps as integer matrices applied to
    every lattice point mod e, then their adjugate inverses, flattened."""
    pts = lattice_points(e)
    t1, t2 = np.array([[1, 2], [0, 1]]), np.array([[1, 0], [2, 1]])
    forward = [(t1, np.array([0, 0])), (t2, np.array([0, 0])),
               (t1, np.array([1, 0])), (t2, np.array([0, 1]))]
    inverses = []
    for lin, off in forward:
        (a, b), (c, d) = lin
        adj = np.array([[d, -b], [-c, a]])    # det = 1
        inverses.append((adj, -adj @ off))
    rows = []
    for lin, off in forward + inverses:
        img = (lin @ pts + off[:, None]) % e
        rows.append(img[0] * e + img[1])
    return np.stack(rows)


class TestMargulisMaps:
    def test_count_and_determinants(self):
        assert ex._walk_indices(5).shape == (8, 25)

    def test_examples_at_origin(self):
        assert ex._walk_indices(3)[:4, 0].tolist() == [0, 0, 3, 1]

    def test_shear_action(self):
        idx = ex._walk_indices(5)
        v = 1 * 5 + 2
        assert idx[0, v] == ((1 + 4) % 5) * 5 + 2
        assert idx[1, v] == 1 * 5 + (2 + 2) % 5

    def test_forward_inverse_composition(self):
        e = 5
        idx = ex._walk_indices(e)
        flat = np.arange(e * e)
        for i in range(4):
            np.testing.assert_array_equal(idx[4 + i][idx[i]], flat)
            np.testing.assert_array_equal(idx[i][idx[4 + i]], flat)

    @pytest.mark.parametrize("e", [3, 5, 7])
    def test_each_map_is_a_permutation(self, e):
        for row in ex._walk_indices(e):
            assert len(set(row.tolist())) == e * e

    @pytest.mark.parametrize("e", range(2, 16))
    def test_matches_matrix_oracle(self, e):
        np.testing.assert_array_equal(ex._walk_indices(e), oracle_walk_indices(e))


class TestClassicalWalk:
    def test_uniform_fixed_point(self):
        for e in (3, 5):
            u = ex.uniform_distribution(e)
            np.testing.assert_allclose(ex.classical_step(u), u, atol=1e-15)

    def test_point_mass_spreads(self):
        e = 3
        p = np.zeros(e * e)
        p[0] = 1.0
        out = ex.classical_step(p)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        support = np.sum(out > 0)
        assert support <= 8
        # masses merge in units of 1/8
        np.testing.assert_allclose(out * 8, np.round(out * 8), atol=1e-12)

    def test_walk_matrix_doubly_stochastic_symmetric(self):
        for e in (3, 5, 7):
            w = walk_matrix(e)
            np.testing.assert_allclose(w.sum(axis=0), np.ones(e * e), atol=1e-12)
            np.testing.assert_allclose(w.sum(axis=1), np.ones(e * e), atol=1e-12)
            np.testing.assert_allclose(w, w.T, atol=1e-15)

    @pytest.mark.parametrize("e", [3, 5, 7])
    def test_spectral_gap(self, e):
        w = walk_matrix(e)
        eigs = np.sort(np.abs(np.linalg.eigvalsh(w)))[::-1]
        assert eigs[0] == pytest.approx(1.0, abs=1e-12)
        assert eigs[1] <= ex.CONTRACTION_FACTOR + 1e-12

    @pytest.mark.parametrize("e", [3, 5, 7])
    def test_contraction_on_random_distributions(self, e, rng):
        u = ex.uniform_distribution(e)
        for _ in range(100):
            p = rng.dirichlet(np.ones(e * e))
            before = np.linalg.norm(p - u)
            after = np.linalg.norm(ex.classical_step(p) - u)
            assert after <= ex.CONTRACTION_FACTOR * before + 1e-12

    def test_rejects_non_distribution(self):
        with pytest.raises(PreconditionError):
            ex.classical_step(np.array([0.5, 0.6, 0.0, 0.0]))

    def test_rejects_one_point_lattice(self):
        with pytest.raises(PreconditionError):
            ex.classical_step(np.array([1.0]))


class TestWignerTransform:
    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_round_trip(self, d, rng):
        rho = random_density_matrix(d, rng)
        w = ex.wigner_from_state(rho)
        back = ex.state_from_wigner(w)
        assert np.max(np.abs(back - rho)) <= TOL.wigner_roundtrip

    def test_matches_displaced_parity_definition(self, rng):
        d = 5
        rho = random_density_matrix(d, rng)
        w = ex.wigner_from_state(rho)
        for p in range(d):
            for q in range(d):
                ref = np.trace(phase_point_operator(d, p, q) @ rho).real / d
                assert w[p, q] == pytest.approx(ref, abs=1e-12)

    def test_normalization(self, rng):
        w = ex.wigner_from_state(random_density_matrix(7, rng))
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_flat(self):
        for d in (3, 9):
            w = ex.wigner_from_state(np.eye(d, dtype=complex) / d)
            np.testing.assert_allclose(w, np.full((d, d), 1.0 / d ** 2),
                                       atol=1e-14)

    def test_pinched_states_have_uniform_columns(self, rng):
        d = 9
        w = ex.wigner_from_state(pinch(random_density_matrix(d, rng)))
        np.testing.assert_allclose(w, np.tile(w[0], (d, 1)), atol=1e-13)

    def test_parseval_both_sides_independent(self, rng):
        # both norms computed on their own representations
        d = 9
        rho, sigma = (random_density_matrix(d, rng) for _ in range(2))
        lhs = two_norm(rho - sigma)
        wr, ws = ex.wigner_from_state(rho), ex.wigner_from_state(sigma)
        rhs = phase_space_norm(wr - ws)
        assert lhs == pytest.approx(rhs, abs=TOL.parseval)

    def test_column_sums_are_the_diagonal(self, rng):
        d = 5
        rho = random_density_matrix(d, rng)
        w = ex.wigner_from_state(rho)
        np.testing.assert_allclose(w.sum(axis=0), np.diagonal(rho).real, atol=1e-12)

    def test_even_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            ex.wigner_from_state(np.eye(4) / 4)

    def test_even_dimension_rejected_by_inverse(self):
        # pow(2, -1, d) has no value at even d; the check comes before it
        with pytest.raises(PreconditionError, match="requires odd dimension"):
            ex.state_from_wigner(np.zeros((4, 4)))


class TestChannel:
    def test_per_line_equivalence_exact(self, rng):
        d, e = 9, 3
        w = ex.wigner_from_state(random_density_matrix(d, rng))
        stepped = ex.walk_apply(w, e)
        for q in range(d):
            col = ex.walk_apply(w[:, q], e)
            assert np.array_equal(col, stepped[:, q])

    def test_pinched_state_is_fixed(self, rng):
        w = pinched(ex.wigner_from_state(random_density_matrix(9, rng)))
        out = ex.walk_apply(w, 3)
        np.testing.assert_allclose(out, w, atol=1e-15)

    def test_identity_is_fixed(self):
        rho = np.eye(9, dtype=complex) / 9
        out = ex.expander_channel_step(rho)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_column_weights_invariant(self, rng):
        w = ex.wigner_from_state(random_density_matrix(9, rng))
        out = ex.walk_apply(w, 3)
        np.testing.assert_allclose(out.sum(axis=0), w.sum(axis=0), atol=1e-12)

    def test_commutes_with_pinching(self, rng):
        w = ex.wigner_from_state(random_density_matrix(9, rng))
        out = ex.walk_apply(w, 3)
        np.testing.assert_allclose(pinched(out), pinched(w), atol=1e-10)

    def test_single_step_columnwise_contraction(self):
        d, e = 9, 3
        rho = coherent(d)
        w = ex.wigner_from_state(rho)
        target = pinched(w)
        out = ex.walk_apply(w, e)
        lhs = phase_space_norm(out - target)
        rhs = ex.CONTRACTION_FACTOR * phase_space_norm(w - target)
        assert lhs <= rhs + 1e-12

    def test_reconstructed_states_stay_physical(self, rng):
        w = ex.wigner_from_state(random_density_matrix(9, rng))
        for _ in range(5):
            w = ex.walk_apply(w, 3)
            back = ex.state_from_wigner(w)
            np.testing.assert_allclose(back, back.conj().T, atol=1e-12)
            assert np.trace(back).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [15, 4])
    def test_step_refuses_dimensions_other_than_odd_squares(self, d):
        # 15 is odd but not a square; 4 is a square of an even lattice
        with pytest.raises(PreconditionError):
            ex.expander_channel_step(np.eye(d, dtype=complex) / d)

    def test_step_is_not_a_positive_map(self):
        # the lattice maps are not symplectic: pure inputs can leave the
        # state space, although the maximally coherent input stays PSD
        lowest = min(np.linalg.eigvalsh(ex.expander_channel_step(random_pure_state(9, r)))[0]
                     for r in spawn_rngs(0, 200))
        assert lowest < -0.1
        out = ex.expander_channel_step(coherent(9))
        assert np.linalg.eigvalsh(out)[0] > -1e-12


class TestTheorem3:
    def test_k0_report(self):
        d = 9
        rho = coherent(d)
        rep = ex.theorem3_verify(ex.ExpanderSpec(e=3, k=0), rho)
        assert rep.measured[0] == pytest.approx(two_norm(rho - pinch(rho)), abs=1e-10)
        assert rep.bound[0] == pytest.approx(np.sqrt(2 * d ** 3))

    def test_envelope_holds_over_twenty_steps(self):
        rep = ex.theorem3_verify(ex.ExpanderSpec(e=3, k=20), coherent(9))
        assert rep.satisfied()

    def test_fitted_decay_below_contraction_factor(self):
        rep = ex.theorem3_verify(ex.ExpanderSpec(e=3, k=20), coherent(9))
        assert rep.fitted_decay <= ex.CONTRACTION_FACTOR + 0.01

    def test_positivity_is_monitored_not_asserted(self):
        rep = ex.theorem3_verify(ex.ExpanderSpec(e=3, k=5), coherent(9))
        assert len(rep.min_eigenvalue) == 6

    def test_csv_shape(self):
        rep = ex.theorem3_verify(ex.ExpanderSpec(e=3, k=3), coherent(9))
        assert rep.CSV_HEADER == "k,measured_2norm,bound"
        assert len(rep.csv_rows()) == 4

    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            ex.ExpanderSpec(e=4, k=1)
        with pytest.raises(PreconditionError):
            ex.ExpanderSpec(e=3, k=-1)
