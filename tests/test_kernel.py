"""The Gram-form coupling kernel and pinching channel against the dense
controlled unitary and ``NoisyChannel``, and their structural invariants as
property tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephaselab.bounds import rank_witness
from dephaselab.dephaser import (
    TransitionPlan,
    ancilla_dim,
    build_dephasing_unitary,
    classical_dephasing_channel,
    controlled_basis_unitary,
    couple,
    dephasing_ops,
    gram_channel,
    measurement_process,
    pinch,
    transition_channel,
)
from dephaselab.qcore import (
    PreconditionError,
    ResourceLimitError,
    partial_trace,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from dephaselab.sampling import (
    haar_unitary,
    random_density_matrix,
    random_majorizing_pair,
    random_pure_state,
)
from dephaselab.tolerances import TOL
from dephaselab.weylops import operator_gram

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)


def dense_marginals(rho, sigma, basis, ops):
    """Reference: both marginals of the explicit joint state."""
    d, m = rho.shape[0], sigma.shape[0]
    u = controlled_basis_unitary(basis, ops)
    joint = u @ tensor(rho, sigma) @ u.conj().T
    return partial_trace(joint, (d, m), [0]), partial_trace(joint, (d, m), [1])


def fuel(m, rng, pure):
    return random_pure_state(m, rng) if pure else random_density_matrix(m, rng)


class TestAgainstDense:
    @pytest.mark.parametrize("pure", [False, True])
    @pytest.mark.parametrize("d", list(range(2, 17)) + [64])
    def test_haar_basis_and_haar_ops(self, d, pure, rng):
        m = ancilla_dim(d)
        rho = random_density_matrix(d, rng)
        sigma = fuel(m, rng, pure)
        basis = haar_unitary(d, rng)
        ops = [haar_unitary(m, rng) for _ in range(d)]
        system, ancilla = couple(rho, sigma, basis, ops)
        want_system, want_ancilla = dense_marginals(rho, sigma, basis, ops)
        assert np.max(np.abs(system - want_system)) <= 1e-12
        assert np.max(np.abs(ancilla - want_ancilla)) <= 1e-12

    def test_computational_basis_is_the_default(self, rng):
        d, m = 9, 3
        rho, sigma = random_density_matrix(d, rng), random_density_matrix(m, rng)
        ops = dephasing_ops(d)
        got = couple(rho, sigma, None, ops)
        want = couple(rho, sigma, np.eye(d, dtype=complex), ops)
        np.testing.assert_allclose(got[0], want[0], atol=1e-14)
        np.testing.assert_allclose(got[1], want[1], atol=1e-14)

    def test_small_dimension_rejected(self):
        with pytest.raises(PreconditionError, match="dimension >= 2"):
            dephasing_ops(1)


class TestOperatorGram:
    def test_matches_explicit_traces(self, rng):
        m = 3
        ops = [haar_unitary(m, rng) for _ in range(5)]
        sigma = random_density_matrix(m, rng)
        gram = operator_gram(ops, sigma)
        plain = operator_gram(ops)
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                assert abs(gram[i, j] - np.trace(a @ sigma @ b.conj().T)) <= 1e-14
                assert abs(plain[i, j] - np.trace(a @ b.conj().T) / m) <= 1e-14

    def test_weyl_family_is_orthonormal(self):
        gram = operator_gram(dephasing_ops(16))
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-12


DENSE_CHANNELS = {"quantum": build_dephasing_unitary,
                  "classical": classical_dephasing_channel}


class TestGramChannel:
    @pytest.mark.parametrize("mode", sorted(DENSE_CHANNELS))
    @pytest.mark.parametrize("d", list(range(2, 17)) + [64])
    def test_equals_dense_channel(self, d, mode, rng):
        gram, dense = gram_channel(d, mode), DENSE_CHANNELS[mode](d)
        assert (gram.kind, gram.dim, gram.noise_dim) == (dense.kind, dense.dim, dense.noise_dim)
        for _ in range(3):
            rho = random_density_matrix(d, rng)
            np.testing.assert_allclose(gram.apply(rho), dense.apply(rho), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", list(range(2, 17)) + [64, 256])
    def test_truncated_clock_mixture_has_rank_d_minus_one(self, d):
        channel = gram_channel(d, "classical", count=d - 1)
        want = (d * np.eye(d) - np.ones((d, d))) / (d - 1)
        np.testing.assert_allclose(channel.gram, want, rtol=0, atol=1e-12)
        assert rank_witness(channel) == (d - 1, d - 1)

    @pytest.mark.parametrize("mode", sorted(DENSE_CHANNELS))
    @pytest.mark.parametrize("d", range(2, 7))
    def test_transition_plans_agree_with_dense(self, d, mode, rng):
        dense = DENSE_CHANNELS[mode](d)
        for _ in range(5):
            rho, target = random_majorizing_pair(d, rng)
            plan = transition_channel(rho, target, mode)
            oracle = TransitionPlan(plan.pre_unitary, dense, plan.post_unitary)
            for state in (rho, random_density_matrix(d, rng)):
                np.testing.assert_allclose(plan.apply(state), oracle.apply(state),
                                           rtol=0, atol=1e-12)

    def test_unknown_mode_and_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            gram_channel(4, "neither")
        with pytest.raises(PreconditionError):
            gram_channel(1, "classical")


class TestCapBeforeAllocation:
    def test_dense_dilation_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                build_dephasing_unitary(1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_classical_mixture_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                classical_dephasing_channel(1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    def test_gram_channel_refused_without_allocating(self, mode):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                gram_channel(5000, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_measurement_refused_without_allocating(self):
        psi = np.full(65, 65 ** -0.5, dtype=complex)   # output dimension 65^2 > cap
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                measurement_process(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_builder_allocates_little_beyond_the_joint(self):
        d = 64
        basis, ops = np.eye(d, dtype=complex), dephasing_ops(d)
        tracemalloc.start()
        try:
            u = controlled_basis_unitary(basis, ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * u.nbytes


@st.composite
def coupling_case(draw, weyl=False):
    """(rho, sigma, basis, ops) from a drawn seed and dimension."""
    d = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = ancilla_dim(d)
    rho = fuel(d, rng, draw(st.booleans()))
    sigma = fuel(m, rng, draw(st.booleans()))
    basis = haar_unitary(d, rng)
    ops = dephasing_ops(d) if weyl else [haar_unitary(m, rng) for _ in range(d)]
    return rho, sigma, basis, ops


class TestProperties:
    @PROPERTY
    @given(coupling_case())
    def test_gram_is_psd(self, case):
        _, sigma, _, ops = case
        gram = operator_gram(ops, sigma)
        assert np.max(np.abs(gram - gram.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-12

    @PROPERTY
    @given(coupling_case())
    def test_trace_preserving_and_unital(self, case):
        rho, sigma, basis, ops = case
        d = rho.shape[0]
        system, ancilla = couple(rho, sigma, basis, ops)
        assert abs(np.trace(system) - 1.0) <= 1e-12
        assert abs(np.trace(ancilla) - 1.0) <= 1e-12
        eye = np.eye(d, dtype=complex) / d
        assert np.max(np.abs(couple(eye, sigma, basis, ops)[0] - eye)) <= 1e-12

    @PROPERTY
    @given(coupling_case())
    def test_diagonal_in_basis_unchanged(self, case):
        rho, sigma, basis, ops = case
        system, _ = couple(rho, sigma, basis, ops)
        before = np.diagonal(basis.conj().T @ rho @ basis)
        after = np.diagonal(basis.conj().T @ system @ basis)
        assert np.max(np.abs(after - before)) <= 1e-12

    @PROPERTY
    @given(coupling_case())
    def test_entropy_never_decreases(self, case):
        rho, sigma, basis, ops = case
        system, _ = couple(rho, sigma, basis, ops)
        assert von_neumann_entropy(system) >= von_neumann_entropy(rho) - TOL.entropy_slack

    @PROPERTY
    @given(coupling_case(weyl=True))
    def test_single_step_contraction(self, case):
        rho, sigma, basis, ops = case
        m = sigma.shape[0]
        system, _ = couple(rho, sigma, basis, ops)
        dist = trace_norm(system - pinch(rho, basis))
        assert dist <= trace_norm(sigma - np.eye(m) / m) + TOL.bound_slack
