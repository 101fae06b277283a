"""Stroboscopic recurrence, the phase-cancellation kernel, and continuous
time.  Prime ancilla dimensions follow the idealized pinch-or-identity
pattern exactly; for composite dimensions the same tensor construction is
checked against its exact prediction, including the steps where it departs
from the idealized pattern."""

import numpy as np
import pytest

from dephaselab import recurrence as rec
from dephaselab import weylops
from dephaselab.dephaser import pinch
from dephaselab.qcore import PreconditionError, hermitize, partial_trace, tensor, trace_norm
from dephaselab.sampling import random_density_matrix
from dephaselab.tolerances import TOL


def stroboscopic_map_literal(spec: rec.RecurrenceSpec, rho: np.ndarray, k: int) -> np.ndarray:
    """The stroboscopic map by explicit matrix powers of the joint unitary."""
    vk = np.linalg.matrix_power(rec.recurrence_unitary(spec), k)
    joint = vk @ tensor(rho, np.eye(spec.m, dtype=complex) / spec.m) @ vk.conj().T
    return hermitize(partial_trace(joint, (spec.d, spec.m), [0]))


def phase_kernel(m: int, k: int, r: int, u: int, s: int, v: int) -> complex:
    """(1/m) tau^{k^2 (u s - r v)} tr(U_{r-u, s-v}^k) for a single prime m.

    Evaluates to 1 exactly when k = 0 mod m or (r, s) = (u, v), else 0.
    """
    tau = -np.exp(1j * np.pi / m)
    op = np.linalg.matrix_power(weylops.weyl_op(m, r - u, s - v), k)
    return tau ** ((k * k * (u * s - r * v)) % (2 * m)) * np.trace(op) / m


def even_m_diagnostic(m: int, k: int | None = None) -> np.ndarray:
    """Hadamard coefficients of the step-k map for even m (default k = m).

    Even ancilla dimensions carry no recurrence guarantee: intermediate even
    k only partially pinch, and the entries are zero or of unit modulus.
    """
    if m % 2 != 0:
        raise PreconditionError("diagnostic applies to even m only")
    if k is None:
        k = m
    r, s = np.divmod(np.arange(m * m), m)
    return weylops.operator_gram(weylops.weyl_family(m, k * r, k * s))


class TestSpec:
    def test_factorizations(self):
        assert rec.RecurrenceSpec.for_ancilla(3).factors == (3,)
        assert rec.RecurrenceSpec.for_ancilla(9).factors == (3, 3)
        assert rec.RecurrenceSpec.for_ancilla(15).factors == (3, 5)

    def test_even_rejected(self):
        with pytest.raises(PreconditionError):
            rec.RecurrenceSpec.for_ancilla(4)

    def test_unitary_shape(self):
        spec = rec.RecurrenceSpec.for_ancilla(3)
        v = rec.recurrence_unitary(spec)
        assert v.shape == (27, 27)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(27), atol=1e-12)


class TestPredictedMap:
    def test_k_zero_is_identity(self, rng):
        rho = random_density_matrix(9, rng)
        np.testing.assert_allclose(rec.predicted_map(0, 3, rho), rho)

    def test_intermediate_pinches(self, rng):
        rho = random_density_matrix(9, rng)
        np.testing.assert_allclose(rec.predicted_map(1, 3, rho), pinch(rho))

    def test_multiples_recur(self, rng):
        rho = random_density_matrix(9, rng)
        np.testing.assert_allclose(rec.predicted_map(6, 3, rho), rho)


class TestPhaseKernel:
    @pytest.mark.parametrize("m", [3, 5])
    def test_exhaustive(self, m):
        for k in range(0, 2 * m + 1):
            for r in range(m):
                for u in range(m):
                    for s in range(m):
                        for v in range(m):
                            got = phase_kernel(m, k, r, u, s, v)
                            want = 1.0 if (k % m == 0 or (r == u and s == v)) else 0.0
                            assert abs(got - want) < 1e-10


class TestStroboscopic:
    def test_hadamard_path_equals_literal_path(self, rng):
        spec = rec.RecurrenceSpec.for_ancilla(3)
        rho = random_density_matrix(spec.d, rng)
        for k in range(0, 2 * spec.m + 1):
            fast = rec.stroboscopic_map(spec, rho, k)
            slow = stroboscopic_map_literal(spec, rho, k)
            assert np.max(np.abs(fast - slow)) < 1e-11

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_prime_matches_idealized_map(self, m, rng):
        spec = rec.RecurrenceSpec.for_ancilla(m)
        rho = random_density_matrix(spec.d, rng)
        for k in range(1, 2 * m + 1):
            got = rec.stroboscopic_map(spec, rho, k)
            want = rec.predicted_map(k, m, rho)
            assert trace_norm(got - want) <= TOL.recurrence_residual

    def test_m5_full_recurrence(self, rng):
        spec = rec.RecurrenceSpec.for_ancilla(5)
        rho = random_density_matrix(25, rng)
        assert trace_norm(rec.stroboscopic_map(spec, rho, 5) - rho) <= 1e-9

    @pytest.mark.parametrize("m", [9, 15])
    def test_composite_matches_construction_prediction(self, m, rng):
        spec = rec.RecurrenceSpec.for_ancilla(m)
        rho = random_density_matrix(spec.d, rng)
        for k in range(1, 2 * m + 1):
            got = rec.stroboscopic_map(spec, rho, k)
            want = rec.construction_predicted_map(spec, rho, k)
            assert trace_norm(got - want) <= TOL.recurrence_residual

    def test_composite_departs_from_idealized_map(self, rng):
        # the tensor construction recurs early whenever every prime factor
        # divides k: for m = 9 the step k = 3 is the identity, not a pinch
        spec = rec.RecurrenceSpec.for_ancilla(9)
        rho = random_density_matrix(81, rng)
        got = rec.stroboscopic_map(spec, rho, 3)
        assert trace_norm(got - rho) <= 1e-9
        assert trace_norm(got - pinch(rho)) > 0.1
        # for m = 15 the step k = 3 pinches only the factor-5 components
        spec15 = rec.RecurrenceSpec.for_ancilla(15)
        rho15 = random_density_matrix(225, rng)
        got15 = rec.stroboscopic_map(spec15, rho15, 3)
        assert trace_norm(got15 - rec.construction_predicted_map(spec15, rho15, 3)) <= 1e-9
        assert trace_norm(got15 - pinch(rho15)) > 1e-3
        assert trace_norm(got15 - rho15) > 1e-3

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_prime_exactness_over_many_states(self, m, rng):
        spec = rec.RecurrenceSpec.for_ancilla(m)
        coeffs = {k: rec.hadamard_coefficients(spec, k) for k in range(1, 2 * m + 1)}
        for _ in range(20):
            rho = random_density_matrix(spec.d, rng)
            for k, c in coeffs.items():
                got = rho * c
                want = rec.predicted_map(k, m, rho)
                assert trace_norm(got - want) <= TOL.recurrence_residual

    def test_prime_construction_prediction_equals_idealized(self, rng):
        spec = rec.RecurrenceSpec.for_ancilla(5)
        rho = random_density_matrix(25, rng)
        for k in (1, 4, 5, 9, 10):
            np.testing.assert_allclose(
                rec.construction_predicted_map(spec, rho, k),
                rec.predicted_map(k, 5, rho), atol=1e-12)


class TestContinuousTime:
    def test_time_zero(self, rng):
        spec = rec.RecurrenceSpec.for_ancilla(3)
        v = rec.recurrence_unitary(spec)
        rho = random_density_matrix(9, rng)
        out = rec.ContinuousEvolver(v, spec.d, spec.m).reduced_state(rho, 0.0)
        np.testing.assert_allclose(out, rho, atol=1e-10)

    def test_integer_times_match_discrete_map(self, rng):
        spec = rec.RecurrenceSpec.for_ancilla(3)
        v = rec.recurrence_unitary(spec)
        evolver = rec.ContinuousEvolver(v, spec.d, spec.m)
        rho = random_density_matrix(9, rng)
        for k in range(0, 4):
            cont = evolver.reduced_state(rho, float(k))
            disc = rec.stroboscopic_map(spec, rho, k)
            assert trace_norm(cont - disc) <= TOL.integer_time_residual

    def test_one_step_pinches(self, rng):
        spec = rec.RecurrenceSpec.for_ancilla(3)
        v = rec.recurrence_unitary(spec)
        rho = random_density_matrix(9, rng)
        out = rec.ContinuousEvolver(v, spec.d, spec.m).reduced_state(rho, 1.0)
        assert trace_norm(out - pinch(rho)) <= TOL.integer_time_residual

    def test_full_period_recurs(self, rng):
        spec = rec.RecurrenceSpec.for_ancilla(3)
        v = rec.recurrence_unitary(spec)
        rho = random_density_matrix(9, rng)
        out = rec.ContinuousEvolver(v, spec.d, spec.m).reduced_state(rho, float(spec.m))
        assert trace_norm(out - rho) <= TOL.integer_time_residual

    def test_propagator_at_unit_time_is_the_unitary(self):
        spec = rec.RecurrenceSpec.for_ancilla(3)
        v = rec.recurrence_unitary(spec)
        evolver = rec.ContinuousEvolver(v, spec.d, spec.m)
        np.testing.assert_allclose(evolver.joint_propagator(1.0), v, atol=1e-10)


class TestFigSweep:
    def test_small_sweep_structure(self):
        sweeps = rec.fig3_sweep([3], samples_per_period=16)
        sweep = sweeps[3]
        assert sweep.m == 3
        # interior integer times dephase exactly
        for k in (1, 2):
            assert sweep.distance_at(float(k)) <= TOL.integer_time_residual
        # endpoints carry the recurrence: distance to the pinch is the full
        # coherence of the input there
        assert sweep.distance_at(0.0) > 1.0
        assert sweep.distance_at(3.0) > 1.0
        # midpoint sits on the grid
        assert sweep.distance_at(1.5) > 0.0
        rows = sweep.csv_rows()
        assert all(r.startswith("3,") for r in rows)
        assert rec.TimeSweep.CSV_HEADER == "m,t_over_m,distance"

    def test_two_norm_midpoints_shrink(self):
        sweeps = rec.fig3_sweep([3, 5], samples_per_period=8)
        m3 = sweeps[3].distance_at(1.5, norm="two")
        m5 = sweeps[5].distance_at(2.5, norm="two")
        assert m3 > m5 > 0.0


class TestEvenDiagnostic:
    def test_rejects_odd(self):
        with pytest.raises(PreconditionError):
            even_m_diagnostic(3)

    def test_period_point_coefficients(self):
        # entries are exactly zero or unit modulus; diagonal entries are one
        c = even_m_diagnostic(4)
        mags = np.abs(c)
        assert np.all((mags < 1e-12) | (np.abs(mags - 1.0) < 1e-12))
        np.testing.assert_allclose(np.diagonal(c), np.ones(16), atol=1e-12)

    def test_intermediate_step_only_partially_pinches(self):
        c2 = even_m_diagnostic(4, k=2)
        off = c2 - np.diag(np.diagonal(c2))
        assert np.max(np.abs(off)) > 0.5  # some coherences survive


def single_ring_powers(m):
    """k -> the k-th powers of the Z_m x Z_m Weyl family."""
    r, s = np.divmod(np.arange(m * m), m)
    return lambda k: weylops.weyl_family(m, k * r, k * s)


def tensor_powers(m):
    """k -> the k-th powers of the prime-factor tensor family."""
    spec = rec.RecurrenceSpec.for_ancilla(m)
    return lambda k: rec.ancilla_family(spec, k)


def first_failing_k(powers, m):
    """Smallest k in 1..m-1 whose C_k = operator_gram(k-th powers) is not
    the identity, or None when every such step pinches exactly."""
    for k in range(1, m):
        c = weylops.operator_gram(powers(k))
        if np.max(np.abs(c - np.eye(m * m))) > TOL.basis_gram:
            return k
    return None


class TestGroupFamilyScreen:
    """Criterion 5 needs C_k = I for every k not divisible by m.  For a group
    family an element of prime order p | m breaks that at k = p (see the
    ``recurrence`` module docstring); these are the first failing steps."""

    @pytest.mark.parametrize("family", [single_ring_powers, tensor_powers])
    @pytest.mark.parametrize("m", [9, 15])
    def test_composite_families_first_fail_at_three(self, family, m):
        assert first_failing_k(family(m), m) == 3

    def test_element_of_order_three_survives_at_k3(self):
        # U_{(3,0)} = X^3 on Z_9 has order 3: its entry of C_3 against the
        # identity has unit modulus instead of zero
        c3 = weylops.operator_gram(single_ring_powers(9)(3))
        assert abs(c3[3 * 9, 0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [3, 5, 7, 11, 13])
    def test_prime_families_never_fail_before_m(self, m):
        for family in (single_ring_powers, tensor_powers):
            powers = family(m)
            assert first_failing_k(powers, m) is None
            c_m = weylops.operator_gram(powers(m))
            np.testing.assert_allclose(np.abs(c_m), 1.0, rtol=0, atol=1e-12)
