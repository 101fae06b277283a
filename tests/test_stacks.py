"""Stacked primitives: a (T, d, d) stack gives every member exactly what a
call on that member alone gives, and the one-matrix functions refuse it."""

import numpy as np
import pytest

from dephaselab import dephaser
from dephaselab.qcore import (
    DimensionError,
    InvariantViolation,
    check_density_matrix,
    check_orthonormal_basis,
    check_unitary,
    fidelity,
    hermitize,
    majorizes_spectra,
    partial_trace,
    trace_norm,
)
from dephaselab.sampling import random_density_matrix, random_majorizing_pair

DIMS = range(2, 17)
T = 5


def stack_and_loop(fn, *stacks):
    """fn on the stacks at once, and fn member by member, restacked."""
    return fn(*stacks), np.array([fn(*members) for members in zip(*stacks)])


def states(d, rng, count=T):
    return np.array([random_density_matrix(d, rng) for _ in range(count)])


def assert_couple_stack_equals_loop(d, rng):
    m = dephaser.ancilla_dim(d)
    ops = dephaser.dephasing_ops(d)
    sigma = random_density_matrix(m, rng)
    rho = states(d, rng)
    stacked = dephaser.couple(rho, sigma, None, ops)
    for t in range(T):
        for got, want in zip(stacked, dephaser.couple(rho[t], sigma, None, ops)):
            assert np.array_equal(got[t], want)


@pytest.mark.parametrize("d", [128, 200])
def test_couple_stack_equals_loop_from_the_elision_size(d, rng):
    """From d = 128 a d x d complex array reaches 256 KiB, the size from
    which numpy multiplies into an unnamed temporary in place."""
    assert_couple_stack_equals_loop(d, rng)


@pytest.mark.parametrize("d", DIMS)
class TestStackEqualsLoop:
    def test_hermitize_and_pinch(self, d, rng):
        a = rng.standard_normal((T, d, d)) + 1j * rng.standard_normal((T, d, d))
        for fn in (hermitize, dephaser.pinch):
            stacked, looped = stack_and_loop(fn, a)
            assert np.array_equal(stacked, looped)

    def test_couple(self, d, rng):
        assert_couple_stack_equals_loop(d, rng)

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    def test_gram_channel_apply(self, d, mode, rng):
        channel = dephaser.gram_channel(d, mode)
        stacked, looped = stack_and_loop(channel.apply, states(d, rng))
        assert np.array_equal(stacked, looped)

    def test_transition_rotations_and_plan(self, d, rng):
        rho, rho_prime = map(np.array, zip(*(random_majorizing_pair(d, rng)
                                             for _ in range(T))))
        pre, post = dephaser.transition_rotations(rho, rho_prime)
        channel = dephaser.gram_channel(d, "quantum")
        applied = dephaser.TransitionPlan(pre, channel, post).apply(rho)
        for t in range(T):
            pre_t, post_t = dephaser.transition_rotations(rho[t], rho_prime[t])
            assert np.array_equal(pre[t], pre_t) and np.array_equal(post[t], post_t)
            plan_t = dephaser.TransitionPlan(pre_t, channel, post_t)
            assert np.array_equal(applied[t], plan_t.apply(rho[t]))

    def test_trace_norm_mixes_both_paths(self, d, rng):
        a = rng.standard_normal((2 * T, d, d)) + 1j * rng.standard_normal((2 * T, d, d))
        a[::2] = hermitize(a[::2])    # exactly Hermitian: the eigenvalue path
        stacked, looped = stack_and_loop(trace_norm, a)
        assert isinstance(trace_norm(a[0]), float)
        assert np.array_equal(stacked, looped)
        by_path = [np.sum(np.abs(np.linalg.eigvalsh(x))) if t % 2 == 0
                   else np.sum(np.linalg.svd(x, compute_uv=False)) for t, x in enumerate(a)]
        assert np.array_equal(stacked, by_path)
        for part in (a[::2], a[1::2]):    # one path for the whole stack
            stacked, looped = stack_and_loop(trace_norm, part)
            assert np.array_equal(stacked, looped)

    def test_majorizes_spectra(self, d, rng):
        lam, mu = rng.dirichlet(np.ones(d), size=(2, 2 * T))
        stacked, looped = stack_and_loop(majorizes_spectra, lam, mu)
        assert stacked.dtype == bool and np.array_equal(stacked, looped)


class TestStackEdges:
    def test_empty_stack_has_no_norms(self):
        assert trace_norm(np.zeros((0, 3, 3))).shape == (0,)

    @pytest.mark.parametrize("defect, message", [
        ("negative", "state has eigenvalue -1.* below the admissible floor"),
        ("non-hermitian", "state is not Hermitian within tolerance"),
        ("trace", "state trace differs from 1 beyond tolerance"),
    ])
    def test_check_density_matrix_refuses_one_bad_member(self, defect, message, rng):
        good = states(3, rng)
        check_density_matrix(good)
        bad = {"negative": np.diag([0.6 + 1e-6, 0.4, -1e-6]),
               "non-hermitian": good[0] + 1e-6 * np.triu(np.ones((3, 3)), 1),
               "trace": 1.1 * good[0]}[defect]
        for slot in range(T):
            mixed = good.copy()
            mixed[slot] = bad
            with pytest.raises(InvariantViolation, match=message):
                check_density_matrix(mixed)

    def test_check_density_matrix_names_the_first_bad_member(self, rng):
        mixed = states(3, rng, count=3)
        mixed[1] = np.diag([0.6 + 1e-6, 0.4, -1e-6])
        mixed[2] *= 1.1
        with pytest.raises(InvariantViolation, match="eigenvalue -1"):
            check_density_matrix(mixed)

    @pytest.mark.parametrize("fn", [
        lambda a: partial_trace(a, (3,), [0]),
        check_unitary,
        check_orthonormal_basis,
        lambda a: fidelity(a, a),
    ], ids=["partial_trace", "check_unitary", "check_orthonormal_basis", "fidelity"])
    def test_one_matrix_functions_refuse_a_stack(self, fn):
        with pytest.raises(DimensionError, match="expected a square matrix"):
            fn(np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3)))
