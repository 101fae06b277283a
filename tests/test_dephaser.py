"""Pinching constructions, state transitions, catalytic chains, and the
universal dephasing machine."""

import numpy as np
import pytest

from dephaselab import dephaser, weylops
from dephaselab.dephaser import (
    NoisyChannel,
    ancilla_dim,
    build_dephasing_unitary,
    catalytic_chain,
    classical_dephasing_channel,
    decohere_pure_state,
    machine_iterate,
    machine_step,
    maximally_coherent_state,
    measurement_process,
    pinch,
    transition_channel,
)
from dephaselab.qcore import (
    DimensionError,
    InvariantViolation,
    PreconditionError,
    partial_trace,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from dephaselab.sampling import haar_unitary, random_density_matrix, random_pure_state
from dephaselab.tolerances import TOL


def plus_state() -> np.ndarray:
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def coherent_state(d: int) -> np.ndarray:
    v = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    return np.outer(v, v.conj())


class TestPinch:
    def test_diagonal_fixed_point(self):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        np.testing.assert_allclose(pinch(rho), rho)

    def test_plus_state(self):
        np.testing.assert_allclose(pinch(plus_state()), np.eye(2) / 2, atol=1e-14)

    def test_coherent_state_to_maximally_mixed(self):
        for d in (3, 6):
            np.testing.assert_allclose(pinch(coherent_state(d)), np.eye(d) / d,
                                       atol=1e-14)

    def test_idempotent_and_trace_preserving(self, rng):
        rho = random_density_matrix(5, rng)
        p = pinch(rho)
        np.testing.assert_allclose(pinch(p), p, atol=1e-14)
        assert np.trace(p) == pytest.approx(1.0, abs=1e-14)

    def test_general_basis_matches_projector_sum(self, rng):
        d = 4
        b = haar_unitary(d, rng)
        rho = random_density_matrix(d, rng)
        oracle = np.zeros((d, d), dtype=complex)
        for i in range(d):
            proj = np.outer(b[:, i], b[:, i].conj())
            oracle += proj @ rho @ proj
        np.testing.assert_allclose(pinch(rho, b), oracle, atol=1e-12)


class TestDephasingUnitary:
    @pytest.mark.parametrize("d", [4, 5, 9])
    def test_exact_pinch(self, d, rng):
        channel = build_dephasing_unitary(d)
        assert channel.noise_dim == ancilla_dim(d)
        for _ in range(5):
            rho = random_density_matrix(d, rng)
            assert trace_norm(channel.apply(rho) - pinch(rho)) <= TOL.dephasing_residual

    def test_identity_fixed_point(self):
        channel = build_dephasing_unitary(6)
        np.testing.assert_allclose(channel.apply(np.eye(6) / 6), np.eye(6) / 6,
                                   atol=1e-12)

    @pytest.mark.parametrize("d", [4, 5, 7])
    def test_catalyst_untouched(self, d, rng):
        channel = build_dephasing_unitary(d)
        u, m = channel.dilation
        rho = random_density_matrix(d, rng)
        joint = u @ tensor(rho, np.eye(m) / m) @ u.conj().T
        anc = partial_trace(joint, (d, m), [1])
        assert trace_norm(anc - np.eye(m) / m) <= TOL.catalyst_residual

    def test_ancilla_dim_is_ceil_sqrt(self):
        assert [ancilla_dim(d) for d in range(2, 11)] == [2, 2, 2, 3, 3, 3, 3, 3, 4]

    def test_custom_operator_family(self, rng):
        d = 3
        ops = [haar_unitary(2, rng) for _ in range(d)]
        with pytest.raises(PreconditionError):
            build_dephasing_unitary(d, ancilla_ops=ops)


class TestApplyAndClassicalChannel:
    def test_identity_mixture(self, rng):
        rho = random_density_matrix(3, rng)
        ch = NoisyChannel(kind="classical-mixture", dim=3,
                          mixture=(np.eye(3, dtype=complex),))
        np.testing.assert_allclose(ch.apply(rho), rho)

    def test_qubit_clock_mixture_depolarizes_plus(self):
        ch = classical_dephasing_channel(2)
        np.testing.assert_allclose(ch.apply(plus_state()), np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("d", [3, 4, 7])
    def test_matches_pinch(self, d, rng):
        ch = classical_dephasing_channel(d)
        assert ch.noise_dim == d
        rho = random_density_matrix(d, rng)
        assert trace_norm(ch.apply(rho) - pinch(rho)) <= TOL.dephasing_residual

    def test_coherent_input(self):
        ch = classical_dephasing_channel(4)
        np.testing.assert_allclose(ch.apply(coherent_state(4)), np.eye(4) / 4,
                                   atol=1e-12)

    def test_dimension_mismatch(self, rng):
        ch = classical_dephasing_channel(3)
        with pytest.raises(DimensionError):
            ch.apply(np.eye(4) / 4)


class TestTransitions:
    def test_identity_transition(self, rng):
        rho = random_density_matrix(3, rng)
        plan = transition_channel(rho, rho, "quantum")
        assert trace_norm(plan.apply(rho) - rho) <= 1e-9

    def test_pure_to_maximally_mixed(self, rng):
        d = 3
        rho = random_pure_state(d, rng)
        target = np.eye(d, dtype=complex) / d
        plan = transition_channel(rho, target, "quantum")
        assert plan.noise_dim == 2
        assert trace_norm(plan.apply(rho) - target) <= TOL.transition_residual

    def test_diagonal_pair(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        target = np.diag([0.4, 0.35, 0.25]).astype(complex)
        for mode, m in (("quantum", 2), ("classical", 3)):
            plan = transition_channel(rho, target, mode)
            assert plan.noise_dim == m
            assert trace_norm(plan.apply(rho) - target) <= TOL.transition_residual

    def test_majorization_precondition(self, rng):
        d = 3
        mixed = np.eye(d, dtype=complex) / d
        pure = random_pure_state(d, rng)
        with pytest.raises(PreconditionError):
            transition_channel(mixed, pure, "quantum")

    @pytest.mark.parametrize("source_is_bad", [True, False])
    @pytest.mark.parametrize("defect, message", [
        ("negative", "state has eigenvalue -1.* below the admissible floor"),
        ("non-hermitian", "state is not Hermitian within tolerance"),
        ("trace", "state trace differs from 1 beyond tolerance"),
    ])
    def test_invalid_states_raise(self, defect, message, source_is_bad):
        # the positivity floor reads the eigenvalues of the rotations' own eigh
        good = np.diag([0.5, 0.3, 0.2]).astype(complex)
        bad = {"negative": np.diag([0.6 + 1e-6, 0.4, -1e-6]).astype(complex),
               "non-hermitian": good + 1e-6 * np.triu(np.ones((3, 3)), 1),
               "trace": 1.1 * good}[defect]
        pair = (bad, good) if source_is_bad else (good, bad)
        with pytest.raises(InvariantViolation, match=message):
            dephaser.transition_rotations(*pair)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_random_pairs(self, d, rng):
        from dephaselab.sampling import random_majorizing_pair
        for _ in range(20):
            rho, target = random_majorizing_pair(d, rng)
            for mode in ("quantum", "classical"):
                plan = transition_channel(rho, target, mode)
                assert trace_norm(plan.apply(rho) - target) <= TOL.transition_residual


class TestCatalyticChain:
    def test_two_plus_states(self):
        joint, report = catalytic_chain([plus_state(), plus_state()])
        assert max(report.marginal_residuals) <= TOL.chain_residual
        assert report.catalyst_residual <= TOL.chain_residual
        np.testing.assert_allclose(partial_trace(joint, (2, 2, 2), [0]),
                                   np.eye(2) / 2, atol=1e-12)

    def test_diagonal_inputs_stay_product(self):
        states = [np.diag([0.3, 0.7]).astype(complex),
                  np.diag([0.5, 0.5]).astype(complex)]
        joint, report = catalytic_chain(states)
        expected = tensor(states[0], states[1], np.eye(2) / 2)
        np.testing.assert_allclose(joint, expected, atol=1e-12)
        assert np.max(np.abs(report.mutual_information)) <= 1e-9

    def test_three_systems_correlate(self, rng):
        states = [random_pure_state(2, rng) for _ in range(3)]
        # keep inputs coherent so the reuse cost is visible
        states = [plus_state(), states[1], states[2]]
        joint, report = catalytic_chain(states)
        assert max(report.marginal_residuals) <= TOL.chain_residual
        assert report.catalyst_residual <= TOL.chain_residual
        mi = report.mutual_information
        assert mi[0, 1] > 1e-4 and mi[1, 2] > 1e-4 and mi[0, 2] > 1e-4

    def test_maximally_coherent_middle_system_decorrelates_its_neighbours(self, rng):
        # d = m^2: the middle system's E_k on the catalyst is the full twirl,
        # which is completely depolarizing, so systems 1 and 3 share nothing
        first, middle, last = (random_pure_state(4, rng) for _ in range(3))
        _, report = catalytic_chain([first, maximally_coherent_state(4), last])
        mi = report.mutual_information
        assert mi[0, 2] <= TOL.entropy_slack
        assert mi[0, 1] > 0.1 and mi[1, 2] > 0.1
        # a generic middle system leaves the outer pair correlated
        _, report = catalytic_chain([first, middle, last])
        assert report.mutual_information[0, 2] > 0.1

    def test_mixed_dimensions(self, rng):
        states = [random_density_matrix(2, rng), random_density_matrix(4, rng)]
        joint, report = catalytic_chain(states)
        assert max(report.marginal_residuals) <= TOL.chain_residual

    def test_cap(self):
        states = [np.eye(4, dtype=complex) / 4 for _ in range(7)]
        from dephaselab.qcore import ResourceLimitError
        with pytest.raises(ResourceLimitError):
            catalytic_chain(states)


class TestMachine:
    def test_perfect_fuel_reduces_to_pinch(self, rng):
        d = 4
        rho = random_density_matrix(d, rng)
        out, _ = machine_step(rho, np.eye(2, dtype=complex) / 2)
        assert trace_norm(out - pinch(rho)) <= 1e-12

    def test_diagonal_states_are_fixed_points(self, rng):
        d = 4
        rho = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        for _ in range(5):
            sigma = random_density_matrix(2, rng)
            out, _ = machine_step(rho, sigma)
            assert trace_norm(out - rho) <= 1e-12

    def test_pure_fuel_bound(self, rng):
        d = 4
        rho = random_density_matrix(d, rng)
        sigma = np.zeros((2, 2), dtype=complex)
        sigma[0, 0] = 1.0
        out, _ = machine_step(rho, sigma)
        assert trace_norm(sigma - np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
        assert trace_norm(out - pinch(rho)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("d", [4, 9])
    def test_single_step_inequalities(self, d, rng):
        m = ancilla_dim(d)
        eye_m = np.eye(m) / m
        for _ in range(10):
            rho = random_density_matrix(d, rng)
            sigma = random_density_matrix(m, rng)
            out, waste = machine_step(rho, sigma)
            dist = trace_norm(out - pinch(rho))
            assert dist <= trace_norm(sigma - eye_m) + TOL.bound_slack
            assert dist <= trace_norm(rho - pinch(rho)) + TOL.bound_slack
            np.testing.assert_allclose(np.diagonal(out), np.diagonal(rho), atol=1e-10)
            assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - TOL.entropy_slack

    def test_waste_map_unital(self, rng):
        d = 9
        m = ancilla_dim(d)
        rho = random_density_matrix(d, rng)
        _, waste = machine_step(rho, np.eye(m, dtype=complex) / m)
        assert trace_norm(waste - np.eye(m) / m) <= 1e-10

    def test_iterate_with_perfect_fuel(self, rng):
        d = 4
        rho = random_density_matrix(d, rng)
        report = machine_iterate(rho, [np.eye(2, dtype=complex) / 2] * 3)
        assert report.rows[0].dist_system <= 1e-12

    def test_iterate_geometric_decay(self, rng):
        d = 4
        rho = random_density_matrix(d, rng)
        # fuel at trace distance exactly 1/2 from maximally mixed
        sigma = np.diag([0.75, 0.25]).astype(complex)
        assert trace_norm(sigma - np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)
        report = machine_iterate(rho, [sigma] * 8)
        for row in report.rows:
            assert row.dist_system <= 0.5 ** row.n + TOL.bound_slack

    @pytest.mark.parametrize("d", [4, 9])
    def test_iterate_bounds_and_monotonicity(self, d, rng):
        m = ancilla_dim(d)
        for _ in range(5):
            rho = random_density_matrix(d, rng)
            sigma = random_density_matrix(m, rng)
            report = machine_iterate(rho, [sigma] * 12)
            prev = None
            for row in report.rows:
                assert row.dist_system <= row.bound_system + TOL.bound_slack
                assert row.dist_ancilla <= row.bound_ancilla + TOL.bound_slack
                assert row.dist_system >= -1e-15 and row.dist_ancilla >= -1e-15
                if prev is not None:
                    assert row.dist_system <= prev.dist_system + 1e-12
                    assert row.dist_ancilla <= prev.dist_ancilla + 1e-12
                    assert row.entropy >= prev.entropy - TOL.entropy_slack
                prev = row

    def test_noise_distillation_scenario(self, rng):
        # one mixed source state refines arbitrary fuel until it is good
        # enough to dephase fresh copies; the iteration count follows from
        # the geometric mixing bound
        d, m = 4, 2
        rho = 0.6 * np.eye(d, dtype=complex) / d + 0.4 * random_density_matrix(d, rng)
        gap = trace_norm(rho - np.eye(d) / d)
        assert gap < 1.0
        target_quality = 1e-3
        needed = int(np.ceil(np.log(target_quality) / np.log(gap)))
        sigma = np.zeros((m, m), dtype=complex)
        sigma[0, 0] = 1.0  # worst-case fuel
        report = machine_iterate(rho, [np.eye(m, dtype=complex) / m] * needed)
        # the mixing track of the report starts from the first stream state;
        # rebuild it explicitly from the pure fuel here
        current = sigma
        for _ in range(needed):
            _, current = machine_step(rho, current)
        assert trace_norm(current - np.eye(m) / m) < target_quality
        fresh, _ = machine_step(rho, current)
        assert trace_norm(fresh - pinch(rho)) < target_quality

    def test_csv_rows_shape(self, rng):
        rho = random_density_matrix(4, rng)
        report = machine_iterate(rho, [np.eye(2, dtype=complex) / 2] * 2)
        assert report.CSV_HEADER == "n,dist_system,dist_ancilla,entropy,bound"
        assert all(len(r.split(",")) == 5 for r in report.csv_rows())


class TestDecoherenceAndMeasurement:
    @pytest.mark.parametrize("d", [3, 4])
    def test_purified_environment_pinches(self, d, rng):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        system, env_active = decohere_pure_state(v)
        assert trace_norm(system - pinch(np.outer(v, v.conj()))) <= TOL.chain_residual
        m = ancilla_dim(d)
        assert trace_norm(env_active - np.eye(m) / m) <= TOL.chain_residual

    def test_basis_state_unchanged(self):
        d = 4
        v = np.zeros(d, dtype=complex)
        v[2] = 1.0
        system, _ = decohere_pure_state(v)
        np.testing.assert_allclose(system, np.outer(v, v.conj()), atol=1e-12)

    def test_unnormalised_vector_rejected(self):
        with pytest.raises(PreconditionError):
            decohere_pure_state(np.ones(4))
        with pytest.raises(PreconditionError):
            measurement_process(np.ones(3))

    def test_measurement_deterministic_pointer(self):
        d = 3
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        out = measurement_process(v)
        expected = np.zeros((d * d, d * d), dtype=complex)
        expected[0, 0] = 1.0  # |0, P_0>
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_measurement_uniform_born_weights(self):
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        out = measurement_process(v)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.5   # |0, P_0>
        expected[3, 3] = 0.5   # |1, P_1>
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_measurement_born_rule(self, rng):
        d = 3
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        out = measurement_process(v)
        # oracle: direct inner products
        for i in range(d):
            idx = i * d + i
            assert out[idx, idx].real == pytest.approx(abs(v[i]) ** 2, abs=1e-12)
        offdiag = out.copy()
        for i in range(d):
            offdiag[i * d + i, i * d + i] = 0.0
        assert np.max(np.abs(offdiag)) <= 1e-12
