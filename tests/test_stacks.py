"""Stacked primitives: a (T, d, d) stack gives every member exactly what a
call on that member alone gives, and the one-matrix functions refuse it.
The stacked samplers and the stacked Schur-Horn step give every member what
their per-trial bodies (kept in ``oracles``) gave, bit for bit."""

import numpy as np
import pytest

import oracles
from dephaselab import cli, dephaser
from dephaselab.qcore import (
    DimensionError,
    InvariantViolation,
    PreconditionError,
    check_density_matrix,
    check_orthonormal_basis,
    check_unitary,
    fidelity,
    hermitize,
    majorizes_spectra,
    partial_trace,
    schur_horn_unitary,
    trace_norm,
)
from dephaselab.sampling import (
    haar_unitary,
    random_density_matrices,
    random_density_matrix,
    random_majorizing_pair,
    random_majorizing_pairs,
    spawn_rngs,
)

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


class TestStackedSamplers:
    @pytest.mark.parametrize("seed", range(11))
    def test_density_matrices_equal_the_per_trial_oracle(self, seed):
        for d in DIMS:
            want = [oracles.random_density_matrix(d, rng) for rng in spawn_rngs(seed, T)]
            assert np.array_equal(random_density_matrices(d, spawn_rngs(seed, T)), want)

    @pytest.mark.parametrize("seed", range(11))
    def test_majorizing_pairs_equal_the_per_trial_oracle(self, seed):
        for d in range(2, 9):
            rho, rho_prime = random_majorizing_pairs(d, spawn_rngs(seed, T))
            want = [oracles.random_majorizing_pair(d, rng) for rng in spawn_rngs(seed, T)]
            assert np.array_equal(rho, [a for a, _ in want])
            assert np.array_equal(rho_prime, [b for _, b in want])

    @pytest.mark.parametrize("sampler", [random_density_matrix, random_majorizing_pair,
                                         haar_unitary], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_single_trial_samplers_equal_the_oracle(self, sampler, d):
        want = getattr(oracles, sampler.__name__)(d, np.random.default_rng(d))
        assert np.array_equal(sampler(d, np.random.default_rng(d)), want)

    def test_stacks_split_at_chunk_boundaries_equal_the_whole(self, monkeypatch):
        d, trials = 4, 7
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", 3 * d * d)
        chunks = cli._trial_chunks(0, trials, d)
        assert [start for start, _ in chunks] == [0, 3, 6]
        pairs = [random_majorizing_pairs(d, rngs) for _, rngs in chunks]
        for part, whole in zip(zip(*pairs), random_majorizing_pairs(d, spawn_rngs(0, trials))):
            assert np.array_equal(np.concatenate(part), whole)
        states = [random_density_matrices(d, rngs) for _, rngs in cli._trial_chunks(0, trials, d)]
        assert np.array_equal(np.concatenate(states), random_density_matrices(d, spawn_rngs(0, trials)))

    def test_empty_stacks(self):
        assert random_density_matrices(3, []).shape == (0, 3, 3)
        assert [a.shape for a in random_majorizing_pairs(3, [])] == [(0, 3, 3)] * 2


def test_numpy_rng_draws_the_samplers_rely_on():
    """The stacked samplers draw with cheaper calls that give the same numbers
    as the per-trial bodies; a numpy release that changes this fails here."""
    for n in (2, 3, 5, 6, 7, 16):
        old, new = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(500):
            assert tuple(old.integers(0, n, size=2)) == (new.integers(n), new.integers(n)), (
                "Generator.integers(n) twice no longer draws integers(0, n, size=2)")
            assert old.uniform(0.0, 1.0) == new.random(), (
                "Generator.random() no longer draws uniform(0.0, 1.0)")
        buf = np.empty((n, n))
        new.standard_normal(out=buf)
        assert np.array_equal(old.standard_normal((n, n)), buf), (
            "Generator.standard_normal(out=...) no longer draws standard_normal(shape)")


#: (spectrum, target) members that reach each branch of the Schur-Horn step.
SCHUR_HORN_EDGES = {
    # every step matches the last remaining value: no rotation at all
    "degenerate": ([0.25] * 4, [0.25] * 4),
    "target-is-spectrum": ([0.5, 0.3, 0.15, 0.05], [0.5, 0.3, 0.15, 0.05]),
    "pure-to-uniform": ([1.0, 0.0, 0.0, 0.0], [0.25] * 4),
    "within-1e-12": ([0.5, 0.3, 0.15, 0.05], [0.3 + 5e-13, 0.5 - 5e-13, 0.05, 0.15]),
    # no value reaches the largest target: the rotation index defaults to 0
    "above-every-value": ([0.5, 0.3, 0.15, 0.05], [0.5 + 5e-11, 0.3 - 5e-11, 0.15, 0.05]),
    # the rotated pair differs by less than 1e-15: c^2 = 1
    "tiny-gap": ([0.35, 0.35 - 5e-16, 0.3 + 5e-16, 0.0],
                 [0.35 + 1e-12 - 2e-16, 0.35 - 1e-12 - 3e-16, 0.3 + 5e-16, 0.0]),
}


class TestStackedSchurHorn:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_stack_equals_the_per_trial_oracle(self, n, rng):
        lam = np.sort(rng.dirichlet(np.ones(n), size=4 * T), axis=1)[:, ::-1]
        tgt = np.array([rng.permutation(oracles.random_majorized_spectrum(x, rng)) for x in lam])
        want = [oracles.schur_horn_unitary(x, y) for x, y in zip(lam, tgt)]
        assert np.array_equal(schur_horn_unitary(lam, tgt), want)

    def test_every_branch_in_one_stack(self):
        lam, tgt = map(np.array, zip(*SCHUR_HORN_EDGES.values()))
        got = schur_horn_unitary(lam, tgt)
        for name, x, y, member in zip(SCHUR_HORN_EDGES, lam, tgt, got):
            want = oracles.schur_horn_unitary(x, y)
            assert np.array_equal(member, want), name
            assert np.array_equal(schur_horn_unitary(x, y), want), name

    def test_stack_of_any_leading_shape(self, rng):
        lam = np.sort(rng.dirichlet(np.ones(3), size=(2, 3)), axis=-1)[..., ::-1]
        got = schur_horn_unitary(lam, lam)
        assert got.shape == (2, 3, 3, 3)
        assert np.array_equal(got.reshape(6, 3, 3), schur_horn_unitary(lam.reshape(6, 3),
                                                                       lam.reshape(6, 3)))

    @pytest.mark.parametrize("bad", [
        ([0.4, 0.6], [0.5, 0.5]),
        ([0.6, 0.4], [0.6, 0.5]),
        ([0.6, 0.4], [0.8, 0.2]),
    ], ids=["unsorted", "unequal-sums", "not-majorized"])
    def test_one_bad_member_raises_its_own_message(self, bad):
        with pytest.raises(PreconditionError) as alone:
            schur_horn_unitary(*bad)
        for slot in range(T):
            lam, tgt = np.tile([0.6, 0.4], (T, 1)), np.tile([0.5, 0.5], (T, 1))
            lam[slot], tgt[slot] = bad
            with pytest.raises(PreconditionError) as stacked:
                schur_horn_unitary(lam, tgt)
            assert str(stacked.value) == str(alone.value)

    def test_shapes_must_match(self):
        with pytest.raises(DimensionError, match="equal length"):
            schur_horn_unitary(np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3))
