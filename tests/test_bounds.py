"""Dimension lower bounds for sources of randomness and their witnesses."""

import math

import numpy as np
import pytest

from dephaselab import bounds, dephaser, weylops
from dephaselab.dephaser import NoisyChannel, pinch
from dephaselab.qcore import PreconditionError, trace_norm
from dephaselab.tolerances import TOL


class TestMaximallyCoherentState:
    def test_qubit_case_is_plus(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_allclose(bounds.maximally_coherent_state(2), plus)

    def test_pinch_is_maximally_mixed(self):
        for d in (3, 5, 8):
            rho = bounds.maximally_coherent_state(d)
            np.testing.assert_allclose(pinch(rho), np.eye(d) / d, atol=1e-14)

    def test_purity(self):
        rho = bounds.maximally_coherent_state(6)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


class TestMeasureEpsilon:
    def test_exact_construction(self):
        for d in (4, 5):
            report = bounds.measure_epsilon(dephaser.build_dephasing_unitary(d))
            assert report.epsilon_measured <= TOL.dephasing_residual
            assert report.kind == "quantum"
            assert report.noise_dim == dephaser.ancilla_dim(d)

    def test_identity_channel_on_coherent_probe(self):
        d = 4
        ch = NoisyChannel(kind="classical-mixture", dim=d,
                          mixture=(np.eye(d, dtype=complex),))
        probe = bounds.maximally_coherent_state(d)
        report = bounds.measure_epsilon(ch, probes=[probe])
        assert report.epsilon_measured == pytest.approx(
            trace_norm(probe - pinch(probe)), abs=1e-12)
        assert report.epsilon_measured > 1.0

    def test_truncated_mixture_bounded_below_by_rank(self):
        # one clock power short of exact dephasing: rank caps at d-1, which
        # forces epsilon >= 2 (1 - rank/d)
        d = 4
        z = weylops.clock_z(d)
        truncated = NoisyChannel(
            kind="classical-mixture", dim=d,
            mixture=tuple(np.linalg.matrix_power(z, j + 1) for j in range(d - 1)))
        rank, m = bounds.rank_witness(truncated)
        assert rank <= m == d - 1
        report = bounds.measure_epsilon(truncated)
        assert report.epsilon_measured >= 2.0 * (1.0 - rank / d) - 1e-9


class TestReport:
    def test_satisfied_uses_the_given_slack(self):
        report = bounds.EpsilonDephasingReport(dim=9, noise_dim=3, kind="quantum",
                                               epsilon_measured=0.0)
        assert report.to_json_dict(3 + 5e-10, 1e-9)["satisfied"]
        assert not report.to_json_dict(3 + 5e-10, 1e-10)["satisfied"]


class TestClassicalLowerBound:
    def test_zero_epsilon_is_full_dimension(self):
        for d in (2, 5, 16):
            assert bounds.classical_lower_bound(d, 0.0) == d

    def test_trivial_tolerance(self):
        assert bounds.classical_lower_bound(7, 2.0) == 2.0

    def test_worked_value(self):
        assert bounds.classical_lower_bound(4, 0.5) == pytest.approx(3.0)

    def test_range_check(self):
        with pytest.raises(PreconditionError):
            bounds.classical_lower_bound(4, 2.5)

    def test_rank_of_mixture_image_never_exceeds_size(self, rng):
        from dephaselab.sampling import haar_unitary
        d = 5
        for m in (2, 3, 4):
            ops = tuple(haar_unitary(d, rng) for _ in range(m))
            ch = NoisyChannel(kind="classical-mixture", dim=d, mixture=ops)
            rank, size = bounds.rank_witness(ch)
            assert rank <= size == m


class TestQuantumLowerBound:
    def test_zero_epsilon_limit(self):
        for d in (4, 9, 16):
            assert bounds.quantum_lower_bound(d, 0.0) == pytest.approx(math.sqrt(d))

    def test_small_dimensions_resolve_to_two(self):
        for d in (2, 3, 4):
            assert bounds.quantum_lower_bound(d, 0.01) == 2.0

    def test_worked_value_cross_checked_in_log_domain(self):
        d, eps = 16, 0.05
        direct = 16.0 ** ((1 - eps) / 2) * eps ** (eps / 2)
        assert bounds.quantum_lower_bound(d, eps) == pytest.approx(direct, rel=1e-12)

    def test_validity_range(self):
        with pytest.raises(PreconditionError):
            bounds.quantum_lower_bound(9, 0.5)
        # the boundary itself is allowed
        assert bounds.quantum_lower_bound(9, bounds.EPSILON_MAX) > 0

    def test_construction_always_meets_bound(self):
        for d in range(2, 65):
            assert dephaser.ancilla_dim(d) >= bounds.quantum_lower_bound(d, 0.0) - 1e-12
            assert dephaser.ancilla_dim(d) >= bounds.quantum_lower_bound(d, 0.01) - 1e-12


class TestMonotonicity:
    def test_bounds_decrease_in_epsilon(self):
        eps_grid = [0.0, 0.01, 0.02, 0.04, 0.06]
        for d in (4, 9, 16):
            cl = [bounds.classical_lower_bound(d, e) for e in eps_grid]
            qu = [bounds.quantum_lower_bound(d, e) for e in eps_grid]
            assert all(a >= b - 1e-12 for a, b in zip(cl, cl[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(qu, qu[1:]))

    def test_bounds_increase_in_dimension(self):
        for eps in (0.0, 0.03):
            cl = [bounds.classical_lower_bound(d, eps) for d in range(2, 17)]
            qu = [bounds.quantum_lower_bound(d, eps) for d in range(2, 17)]
            assert all(b >= a - 1e-12 for a, b in zip(cl, cl[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(qu, qu[1:]))


class TestEntropyBudget:
    def test_perfect_square_saturates(self):
        budget = bounds.entropy_budget_check(dephaser.dephasing_ops(4))
        assert budget.joint_entropy == pytest.approx(1.0, abs=1e-9)
        assert budget.output_entropy == pytest.approx(2.0, abs=1e-9)
        assert budget.ancilla_entropy == pytest.approx(1.0, abs=1e-9)
        assert budget.triangle_satisfied()
        assert budget.saturated()

    def test_d9(self):
        budget = bounds.entropy_budget_check(dephaser.dephasing_ops(9))
        assert budget.joint_entropy == pytest.approx(math.log2(3), abs=1e-9)
        assert abs(budget.output_entropy - budget.ancilla_entropy) <= \
            math.log2(3) + 1e-9
        assert budget.saturated()

    def test_non_square_dimension_triangle(self):
        budget = bounds.entropy_budget_check(dephaser.dephasing_ops(5))
        assert budget.triangle_satisfied()

    def test_trivial_channel_degenerates(self):
        budget = bounds.entropy_budget_check([np.eye(1)] * 3)
        assert budget.joint_entropy == pytest.approx(0.0, abs=1e-9)
        assert budget.gap == pytest.approx(0.0, abs=1e-9)
        assert budget.triangle_satisfied()


class TestConsistencyAtZeroEpsilon:
    def test_constructions_meet_bounds_with_equality(self):
        for d in range(2, 17):
            classical = dephaser.classical_dephasing_channel(d)
            assert classical.noise_dim == bounds.classical_lower_bound(d, 0.0)
            quantum = dephaser.build_dephasing_unitary(d)
            bound = bounds.quantum_lower_bound(d, 0.0)
            assert quantum.noise_dim == math.ceil(bound - 1e-12)
