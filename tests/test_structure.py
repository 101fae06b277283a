"""Structured evaluation paths against their looped and dense references.

The Wigner transforms (gather plus DFT), the Kronecker mask of the
construction prediction, the block-diagonal continuous-time sweep, the
vectorised Weyl-family builder, the row-block dense coupling, the
closed-form decoherence, measurement and private-channel correction, the
mirrored fig3 sweep and the block-wise, shared recur residuals are each
compared with a literal implementation: the looped transforms, mask,
single-operator Weyl builder, per-operator ancilla family, Kronecker-sum
coupling, simulated purified processes and simulated correction table, the
sweep that evaluates every grid point and the recur loop that evaluates both
full residuals kept below, and the dense ``ContinuousEvolver`` on the full joint unitary.  The
Weyl expansion of continuous time is checked against scipy's complex Schur
decomposition of every ancilla unitary (``schur_continuous_coefficients``) and
against the stroboscopic Gram at integer times, and the closed fig3 spectrum at
prime m against the norms of the dense residual.  The batched numpy
eigensolver ``unitary_eigh`` behind ``ContinuousEvolver`` is checked on
degenerate and near -1 spectra.  The
joint-free entropy budget and the Gram-channel epsilon of the bounds are
compared with the dense joint (``dense_entropy_budget``) and the dense
``NoisyChannel``.
"""

import math
from functools import reduce
from itertools import product

import numpy as np
import pytest
import scipy.linalg

from dephaselab import bounds
from dephaselab import expander as ex
from dephaselab import pqc
from dephaselab import recurrence as rec
from dephaselab import weylops
from dephaselab.cli import main
from dephaselab.dephaser import (
    NoisyChannel,
    ancilla_dim,
    build_dephasing_unitary,
    classical_dephasing_channel,
    controlled_basis_unitary,
    decohere_pure_state,
    dephasing_ops,
    gram_channel,
    maximally_coherent_state,
    measurement_process,
)
from dephaselab.qcore import (
    PreconditionError,
    hermitize,
    partial_trace,
    tensor,
    trace_norm,
    two_norm,
    unitary_eigenphases,
    unitary_eigh,
    von_neumann_entropy,
)
from dephaselab.sampling import haar_unitary, random_density_matrix, spawn_rngs
from dephaselab.tolerances import TOL

ODD_DIMS = [3, 5, 7, 9, 15, 25, 49, 81]


# ---------------------------------------------------------------------------
# Looped references
# ---------------------------------------------------------------------------

def looped_wigner_from_state(rho: np.ndarray) -> np.ndarray:
    """W(p, q) = (1/d) sum_j w^{2p(q-j)} rho[j, 2q - j], one entry at a time."""
    d = rho.shape[0]
    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    vals = np.empty((d, d))
    for q in range(d):
        row = rho[j, (2 * q - j) % d]
        for p in range(d):
            vals[p, q] = (np.sum(omega ** ((2 * p * (q - j)) % d) * row) / d).real
    return vals


def looped_state_from_wigner(values: np.ndarray) -> np.ndarray:
    """M[a, b] = sum_p W(p, q) w^{2p(q-b)} with q = (a + b)/2 mod d."""
    d = values.shape[0]
    omega = np.exp(2j * np.pi / d)
    inv2 = pow(2, -1, d)
    out = np.empty((d, d), dtype=complex)
    p = np.arange(d)
    for a in range(d):
        for b in range(d):
            q = (inv2 * (a + b)) % d
            out[a, b] = np.sum(values[:, q] * omega ** ((2 * p * (q - b)) % d))
    return out


def looped_mask(spec: rec.RecurrenceSpec, keep: tuple[int, ...]) -> np.ndarray:
    """1 where every pinched index component of (r, s) and (u, w) agrees;
    ``keep`` lists the components whose prime factor divides k."""
    labels = rec._mixed_radix_labels(spec.factors)
    flat = [(r, s) for r in labels for s in labels]
    mask = np.zeros((spec.d, spec.d))
    for a, (r, s) in enumerate(flat):
        for b, (u, w) in enumerate(flat):
            mask[a, b] = float(all((r[j], s[j]) == (u[j], w[j])
                                   for j in range(len(spec.factors)) if j not in keep))
    return mask


def single_weyl_op(m: int, r: int, s: int) -> np.ndarray:
    """tau^{r s} X^r Z^s built one operator at a time; the phase exponent is
    reduced with the exact product r*s before r and s are reduced mod m."""
    omega = np.exp(2j * np.pi / m)
    rm, sm = r % m, s % m
    tau_exp = (r * s) % (2 * m)
    phase = (-np.exp(1j * np.pi / m)) ** tau_exp
    col = np.arange(m)
    mat = np.zeros((m, m), dtype=complex)
    mat[(col + rm) % m, col] = omega ** ((sm * col) % m)
    return phase * mat


def looped_ancilla_family(spec: rec.RecurrenceSpec, k: int) -> list[np.ndarray]:
    """The k-th powers of the recurrence family, one Kronecker chain per
    (r, s) label pair."""
    labels = rec._mixed_radix_labels(spec.factors)
    ops = []
    for r in labels:
        for s in labels:
            parts = [single_weyl_op(p, k * r[j], k * s[j])
                     for j, p in enumerate(spec.factors)]
            ops.append(reduce(np.kron, parts))
    return ops


def looped_controlled_basis_unitary(basis_vectors: np.ndarray,
                                    ancilla_ops: list[np.ndarray]) -> np.ndarray:
    """sum_i |a_i><a_i| (x) V_i as a sum of d full-size Kronecker products."""
    d, m = basis_vectors.shape[0], ancilla_ops[0].shape[0]
    u = np.zeros((d * m, d * m), dtype=complex)
    for i in range(d):
        proj = np.outer(basis_vectors[:, i], basis_vectors[:, i].conj())
        u += np.kron(proj, ancilla_ops[i])
    return u


def entangled_pair_state(m: int) -> np.ndarray:
    """Maximally entangled vector on two m-dimensional factors."""
    return np.eye(m, dtype=complex).ravel() / math.sqrt(m)


def dense_decohere_pure_state(psi: np.ndarray, basis: np.ndarray | None = None):
    """(system, E1) marginals of the purified process on system x E1 x E2,
    simulated on the joint vector; only E1 couples, through U_i (x) 1."""
    d = psi.size
    m = ancilla_dim(d)
    b = np.eye(d, dtype=complex) if basis is None else basis
    eye_m = np.eye(m, dtype=complex)
    ops = [np.kron(op, eye_m) for op in weylops.weyl_basis(m)[:d]]
    vec = looped_controlled_basis_unitary(b, ops) @ np.kron(psi, entangled_pair_state(m))
    joint = np.outer(vec, vec.conj())
    return (hermitize(partial_trace(joint, (d, m, m), [0])),
            hermitize(partial_trace(joint, (d, m, m), [1])))


def dense_measurement_process(psi: np.ndarray) -> np.ndarray:
    """(S, P) marginal of sum_i |i><i| (x) X^i (x) U_i (x) 1 on
    psi (x) |0> (x) the entangled pair, simulated on the joint vector."""
    d = psi.size
    m = ancilla_dim(d)
    shifts = weylops.weyl_family(d, np.arange(d), 0)
    eye_m = np.eye(m, dtype=complex)
    gates = [np.kron(np.kron(x_i, op), eye_m)
             for x_i, op in zip(shifts, weylops.weyl_basis(m)[:d])]
    w = looped_controlled_basis_unitary(np.eye(d, dtype=complex), gates)
    pointer0 = np.zeros(d, dtype=complex)
    pointer0[0] = 1.0
    vec = w @ np.kron(np.kron(psi, pointer0), entangled_pair_state(m))
    return hermitize(partial_trace(np.outer(vec, vec.conj()), (d, d, m, m), [0, 1]))


def simulated_residual_table() -> dict[tuple[int, ...], tuple[int, ...]]:
    """Syndrome bits -> (z1, x1, z2, x2) of the Pauli left on the decoded
    message, found by running the protocol on a probe for all 16 errors."""
    rng = np.random.default_rng(411)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    probe = np.outer(v, v.conj())
    table = {}
    for bits in product(range(2), repeat=4):
        encoded = pqc.pqc_encode(probe)
        msg, key_out = pqc.pqc_decode(pqc.apply_pauli_error(encoded, pqc.PauliError(*bits)))
        syn = pqc.extract_syndrome(key_out)
        for z1, x1, z2, x2 in product(range(2), repeat=4):
            t = np.kron(pqc._pauli(z1, x1), pqc._pauli(z2, x2)) @ v
            if abs(np.real(np.vdot(t, msg @ t)) - 1.0) < 1e-9:
                table[syn.bits] = (z1, x1, z2, x2)
                break
    return table


def fig3_grid(m: int, samples: int = 64) -> list[float]:
    """The time points of the fig3 sweep over one period."""
    grid = set(np.linspace(0.0, m, samples).tolist())
    grid.update(float(k) for k in range(m + 1))
    grid.add(m / 2.0)
    return sorted(grid)


def schur_continuous_coefficients(spec: rec.RecurrenceSpec):
    """``continuous_coefficients`` with each ancilla unitary Schur-decomposed
    by scipy, one at a time."""
    schur = [scipy.linalg.schur(u, output="complex") for u in rec.ancilla_family(spec)]
    vecs = np.stack([q for _, q in schur])
    phases = -np.stack([unitary_eigenphases(np.diagonal(tri)) for tri, _ in schur])

    def at(t: float) -> np.ndarray:
        rot = np.exp(1j * phases * t)[:, None, :]
        return weylops.operator_gram((vecs * rot) @ vecs.conj().transpose(0, 2, 1))
    return at


def unmirrored_fig3_sweep(m: int, samples: int) -> list[tuple[float, float, float]]:
    """The fig3 sweep with every grid point evaluated, none copied from m - t."""
    spec = rec.RecurrenceSpec.for_ancilla(m)
    coefficients = rec.continuous_coefficients(spec)
    rho = maximally_coherent_state(spec.d)
    target = np.diag(np.diagonal(rho))
    grid = set(np.linspace(0.0, m, samples).tolist())
    grid.update(float(k) for k in range(m + 1))
    grid.add(m / 2.0)
    points = []
    for t in sorted(grid):
        delta = hermitize(rho * coefficients(t)) - target
        points.append((t, trace_norm(delta), two_norm(delta)))
    return points


def recur_rows_both_residuals(m: int, seed: int = 0) -> list[str]:
    """The recur payload rows with both trace norms evaluated at every k."""
    spec = rec.RecurrenceSpec.for_ancilla(m)
    rho = random_density_matrix(spec.d, spawn_rngs(seed, 1)[0])
    rows = []
    for k in range(1, 2 * m + 1):
        got = rec.stroboscopic_map(spec, rho, k)
        r_ideal = trace_norm(got - rec.predicted_map(k, m, rho))
        r_exact = trace_norm(got - rec.construction_predicted_map(spec, rho, k))
        rows.append(f"{m},{k},{r_ideal:.16e},{r_exact:.16e}")
    return rows


def mirrored_points(times: list[float], m: int) -> list[float]:
    """The times past m/2 whose mirror m - t is also on the grid."""
    return [t for t in times if t > m / 2 and any(abs(u + t - m) < 1e-12 for u in times)]


def dense_entropy_budget(channel: NoisyChannel, tol=TOL) -> bounds.EntropyBudget:
    """The entropy chain read from the dense joint U (|A><A| (x) I/m) U†."""
    if channel.kind != "quantum-dilation":
        raise PreconditionError("entropy budget applies to dilation channels")
    u, m = channel.dilation
    d = channel.dim
    rho = bounds.maximally_coherent_state(d)
    joint = u @ tensor(rho, np.eye(m, dtype=complex) / m) @ u.conj().T
    out_s = partial_trace(joint, (d, m), [0])
    out_r = partial_trace(joint, (d, m), [1])
    return bounds.EntropyBudget(
        dim=d,
        noise_dim=m,
        joint_entropy=von_neumann_entropy(joint, tol),
        output_entropy=von_neumann_entropy(out_s, tol),
        ancilla_entropy=von_neumann_entropy(out_r, tol),
    )


def dilation_of(ops: list[np.ndarray]) -> NoisyChannel:
    """The dense coupling sum_i |i><i| (x) U_i as a dilation channel."""
    d, m = len(ops), ops[0].shape[0]
    u = controlled_basis_unitary(np.eye(d, dtype=complex), ops)
    return NoisyChannel(kind="quantum-dilation", dim=d, dilation=(u, m))


def frobenius_normalised_ops(d: int, rng) -> list[np.ndarray]:
    """d Ginibre matrices scaled to tr(U U†) = m: unital, not unitary."""
    m = ancilla_dim(d)
    ops = []
    for _ in range(d):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        ops.append(g * math.sqrt(m) / np.linalg.norm(g))
    return ops


# ---------------------------------------------------------------------------
# Wigner transforms
# ---------------------------------------------------------------------------

class TestWignerTransforms:
    @pytest.mark.parametrize("d", ODD_DIMS)
    def test_forward_matches_loop(self, d, rng):
        rho = random_density_matrix(d, rng)
        got = ex.wigner_from_state(rho)
        np.testing.assert_allclose(got, looped_wigner_from_state(rho), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", ODD_DIMS)
    def test_inverse_matches_loop(self, d, rng):
        values = looped_wigner_from_state(random_density_matrix(d, rng))
        got = ex.state_from_wigner(values)
        np.testing.assert_allclose(got, looped_state_from_wigner(values), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", ODD_DIMS)
    def test_round_trip(self, d, rng):
        rho = random_density_matrix(d, rng)
        back = ex.state_from_wigner(ex.wigner_from_state(rho))
        assert np.max(np.abs(back - rho)) <= TOL.wigner_roundtrip


# ---------------------------------------------------------------------------
# Construction mask
# ---------------------------------------------------------------------------

class TestKroneckerMask:
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 15, 21])
    def test_mask_equals_loop(self, m):
        spec = rec.RecurrenceSpec.for_ancilla(m)
        ones = np.ones((spec.d, spec.d))
        masks = {}   # the loop depends on k only through the kept components
        for k in range(1, 2 * m + 1):
            keep = tuple(j for j, p in enumerate(spec.factors) if k % p == 0)
            if keep not in masks:
                masks[keep] = looped_mask(spec, keep)
            got = rec.construction_predicted_map(spec, ones, k).real
            np.testing.assert_array_equal(got, masks[keep])


class TestLabelBlocks:
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 15, 21])
    def test_coefficients_and_mask_vanish_exactly_between_groups(self, m):
        # so block_trace_norm never falls back on a recur residual
        spec = rec.RecurrenceSpec.for_ancilla(m)
        ones = np.ones((spec.d, spec.d))
        for k in range(1, 2 * m + 1):
            groups = rec.label_groups(spec, k)
            if len(spec.factors) == 1:
                assert np.all(np.diff(groups) >= 0)
            assert len(np.unique(groups)) == math.prod(p for p in spec.factors if k % p)
            between = groups[:, None] != groups[None, :]
            assert np.all(rec.hadamard_coefficients(spec, k)[between] == 0.0)
            assert np.all(rec.construction_predicted_map(spec, ones, k)[between] == 0.0)


# ---------------------------------------------------------------------------
# Continuous time
# ---------------------------------------------------------------------------

class TestBlockContinuousTime:
    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_matches_dense_evolver_on_the_sweep_grid(self, m):
        spec = rec.RecurrenceSpec.for_ancilla(m)
        dense = rec.ContinuousEvolver(rec.recurrence_unitary(spec), spec.d, spec.m)
        coefficients = rec.continuous_coefficients(spec)
        rho = maximally_coherent_state(spec.d)
        target = np.diag(np.diagonal(rho))
        for t, dist_trace, dist_two in rec.fig3_sweep([m], samples_per_period=8)[m].points:
            want = dense.reduced_state(rho, t)
            np.testing.assert_allclose(hermitize(rho * coefficients(t)), want,
                                       rtol=0, atol=1e-12)
            assert dist_two == pytest.approx(np.linalg.norm(want - target), abs=1e-12)
            assert dist_trace == pytest.approx(
                np.sum(np.linalg.svd(want - target, compute_uv=False)), abs=1e-11)

    def test_mixed_input_matches_dense_evolver(self, rng):
        spec = rec.RecurrenceSpec.for_ancilla(5)
        dense = rec.ContinuousEvolver(rec.recurrence_unitary(spec), spec.d, spec.m)
        coefficients = rec.continuous_coefficients(spec)
        rho = random_density_matrix(spec.d, rng)
        for t in (0.0, 0.3, 1.0, 2.5, 4.75):
            np.testing.assert_allclose(hermitize(rho * coefficients(t)),
                                       dense.reduced_state(rho, t), rtol=0, atol=1e-12)


def assert_unitary_eigh(u: np.ndarray) -> np.ndarray:
    """U = Q diag(exp(-i h)) Q† with Q unitary and h in (-pi, pi]; returns h."""
    h, q = unitary_eigh(u)
    eye = np.eye(u.shape[-1])
    np.testing.assert_allclose(q.conj().swapaxes(-1, -2) @ q, np.broadcast_to(eye, u.shape),
                               rtol=0, atol=1e-12)
    back = (q * np.exp(-1j * h)[..., None, :]) @ q.conj().swapaxes(-1, -2)
    np.testing.assert_allclose(back, u, rtol=0, atol=1e-12)
    assert np.all(h > -np.pi) and np.all(h <= np.pi)
    return h


class TestUnitaryEigh:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_haar_one_by_one_and_stacked(self, n, rng):
        stack = np.stack([haar_unitary(n, rng) for _ in range(4)])
        for u in stack:
            assert_unitary_eigh(u)
        h = assert_unitary_eigh(stack)
        assert h.shape == (4, n)

    def test_identity(self):
        np.testing.assert_array_equal(assert_unitary_eigh(np.eye(3, dtype=complex)),
                                      np.zeros(3))

    def test_minus_one_takes_the_plus_pi_branch(self):
        h = assert_unitary_eigh(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(np.sort(h), [0.0, np.pi], rtol=0, atol=1e-12)

    def test_degenerate_diagonal(self):
        h = assert_unitary_eigh(np.diag([1j, 1j, -1j]))
        np.testing.assert_allclose(np.sort(h), [-np.pi / 2, -np.pi / 2, np.pi / 2],
                                   rtol=0, atol=1e-12)

    def test_spectrum_clustered_near_minus_one(self, rng):
        q = haar_unitary(6, rng)
        angles = np.pi + np.array([-1e-3, -1e-9, 0.0, 0.0, 1e-9, 1e-3])
        assert_unitary_eigh((q * np.exp(1j * angles)) @ q.conj().T)

    @pytest.mark.parametrize("m", [9, 15, 25, 27])
    def test_composite_weyl_families_are_exactly_degenerate(self, m):
        family = rec.ancilla_family(rec.RecurrenceSpec.for_ancilla(m))
        h = assert_unitary_eigh(family)
        # the m-th roots of unity, each (m / #distinct) times, on every member
        np.testing.assert_allclose(np.exp(-1j * m * h), np.ones_like(h), rtol=0, atol=1e-11)


class TestContinuousCoefficientsOracle:
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 15, 21, 25, 27])
    def test_matches_schur_on_the_fig3_grid(self, m):
        # the points fig3_sweep evaluates; it copies t > m/2 from m - t
        spec = rec.RecurrenceSpec.for_ancilla(m)
        got, want = rec.continuous_coefficients(spec), schur_continuous_coefficients(spec)
        for t in fig3_grid(m):
            if t <= m / 2:
                np.testing.assert_allclose(got(t), want(t), rtol=0, atol=1e-12)


class TestWeylExpansion:
    @pytest.mark.parametrize("m", [3, 5, 9, 15])
    def test_integer_times_are_the_stroboscopic_gram(self, m):
        spec = rec.RecurrenceSpec.for_ancilla(m)
        coefficients = rec.continuous_coefficients(spec)
        for k in range(m + 1):
            np.testing.assert_allclose(coefficients(k), rec.hadamard_coefficients(spec, k),
                                       rtol=0, atol=1e-12)


class TestClosedSpectrum:
    @pytest.mark.parametrize("m", [3, 5, 7, 11, 13])
    def test_matches_dense_residual_norms(self, m):
        closed = rec.closed_fig3_distances(m)
        for t, dist_trace, dist_two in unmirrored_fig3_sweep(m, 64):
            got_trace, got_two = closed(t)
            assert got_trace == pytest.approx(dist_trace, rel=0, abs=1e-12)
            assert got_two == pytest.approx(dist_two, rel=0, abs=1e-12)

    @pytest.mark.parametrize("m", [3, 5, 7, 11])
    def test_prime_sweep_builds_no_square_of_d(self, m, monkeypatch):
        calls = []
        for module, name in ((rec, "trace_norm"), (rec, "unitary_eigh"),
                             (weylops, "operator_gram"), (rec, "maximally_coherent_state"),
                             (rec, "pinch"), (rec, "continuous_coefficients")):
            monkeypatch.setattr(module, name, lambda *a, _n=name: calls.append(_n))
        rec.fig3_sweep([m], 64)
        assert calls == []

    def test_composite_sweep_needs_no_eigensolver(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rec, "unitary_eigh", lambda *a: calls.append(1))
        sweep = rec.fig3_sweep([9], 16)[9]
        assert calls == []
        assert sweep.distance_at(3.0) > TOL.integer_time_residual    # the early return


class TestTimeSweepScaling:
    def test_midpoint_two_norm_decreases_over_primes(self):
        primes = [3, 5, 7, 11, 13]
        sweeps = rec.fig3_sweep(primes, samples_per_period=2)
        midpoints = [sweeps[m].distance_at(m / 2.0, norm="two") for m in primes]
        assert all(a > b for a, b in zip(midpoints, midpoints[1:])), midpoints
        for m in primes:
            for k in range(1, m):
                assert sweeps[m].distance_at(float(k)) <= TOL.integer_time_residual


def counted_evaluations(monkeypatch) -> list:
    """Count the time points ``fig3_sweep`` evaluates: one trace norm each at
    composite m, one closed spectrum each at prime m."""
    calls = []
    monkeypatch.setattr(rec, "trace_norm", lambda a: calls.append(1) or trace_norm(a))
    closed = rec.closed_fig3_distances
    monkeypatch.setattr(rec, "closed_fig3_distances",
                        lambda m: lambda t, at=closed(m): calls.append(1) or at(t))
    return calls


class TestMirroredSweep:
    @pytest.mark.parametrize("samples", [1, 4, 16, 64])
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 15])
    def test_matches_unmirrored_loop(self, m, samples):
        got = rec.fig3_sweep([m], samples)[m].points
        want = unmirrored_fig3_sweep(m, samples)
        assert [t for t, _, _ in got] == [t for t, _, _ in want]
        np.testing.assert_allclose(np.array(got)[:, 1:], np.array(want)[:, 1:],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [3, 9, 15])
    def test_evaluates_only_up_to_half_period(self, m, monkeypatch):
        calls = counted_evaluations(monkeypatch)
        times = [t for t, _, _ in rec.fig3_sweep([m], 64)[m].points]
        assert len(mirrored_points(times, m)) == sum(t > m / 2 for t in times)
        assert len(calls) == sum(t <= m / 2 for t in times)

    @pytest.mark.parametrize("m", [5, 7])
    def test_grid_without_mirror_falls_back(self, m, monkeypatch):
        # a quadratic grid on [0, m]: past m/2 only the integers have a mirror
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda a, b, n: linspace(a, b, n) ** 2 / b)
        calls = counted_evaluations(monkeypatch)
        got = rec.fig3_sweep([m], 16)[m].points
        times = [t for t, _, _ in got]
        assert len(calls) == len(times) - len(mirrored_points(times, m))
        assert len(calls) > sum(t <= m / 2 for t in times)
        want = unmirrored_fig3_sweep(m, 16)
        assert times == [t for t, _, _ in want]
        np.testing.assert_allclose(np.array(got)[:, 1:], np.array(want)[:, 1:],
                                   rtol=0, atol=1e-12)


class TestRecurResiduals:
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 15])
    def test_csv_equals_loop_with_both_residuals(self, m, tmp_path):
        # the CLI sums trace norms over the label blocks: equal up to rounding
        out = tmp_path / "recur.csv"
        assert main(["recur", "--m", str(m), "--out", str(out), "--deterministic"]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        want = [ln.split(",") for ln in recur_rows_both_residuals(m)]
        assert [r[:2] for r in rows] == [w[:2] for w in want]
        for row, ref in zip(rows, want):
            for v, w in zip(map(float, row[2:]), map(float, ref[2:])):
                assert abs(v - w) <= 1e-12 * max(1.0, abs(w)), (row, ref)
            if math.gcd(int(row[1]), m) in (1, m):   # one residual, written twice
                assert row[2] == row[3]

    def test_composite_rows_keep_distinct_residuals(self, tmp_path):
        out = tmp_path / "recur.csv"
        assert main(["recur", "--m", "9", "--out", str(out), "--deterministic"]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        partial = {int(k): float(ideal) - float(exact) for _, k, ideal, exact in rows
                   if int(k) % 3 == 0 and int(k) % 9 != 0}
        assert sorted(partial) == [3, 6, 12, 15]
        assert all(gap > 0.5 for gap in partial.values()), partial


# ---------------------------------------------------------------------------
# Weyl families
# ---------------------------------------------------------------------------

class TestWeylFamily:
    @pytest.mark.parametrize("m", range(2, 17))
    def test_equals_single_operator_builder(self, m):
        r, s = np.divmod(np.arange(4 * m * m), 2 * m)
        r, s = r - m, s - m          # labels in [-m, m), negatives included
        for k in (0, 1, 2, 3, m, 2 * m + 1):
            got = weylops.weyl_family(m, k * r, k * s)
            for i in range(r.size):
                want = single_weyl_op(m, k * int(r[i]), k * int(s[i]))
                np.testing.assert_array_equal(got[i], want)

    @pytest.mark.parametrize("m", [3, 5, 9, 15, 21])
    def test_ancilla_family_equals_loop(self, m):
        spec = rec.RecurrenceSpec.for_ancilla(m)
        for k in range(2 * m + 1):
            np.testing.assert_array_equal(rec.ancilla_family(spec, k),
                                          looped_ancilla_family(spec, k))

    @pytest.mark.parametrize("d", range(2, 65))
    def test_clock_powers_match_matrix_powers(self, d):
        z = weylops.clock_z(d)
        mixture = classical_dephasing_channel(d).mixture
        assert len(mixture) == d
        for j, power in enumerate(mixture, start=1):
            np.testing.assert_allclose(power, np.linalg.matrix_power(z, j),
                                       rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Dense coupling builder
# ---------------------------------------------------------------------------

def pauli_layer_ops(conjugate: bool) -> list[np.ndarray]:
    ops = [np.linalg.matrix_power(pqc._X, i1) @ np.linalg.matrix_power(pqc._Z, i2)
           for i1, i2 in product(range(2), repeat=2)]
    return [op.conj() for op in ops] if conjugate else ops


class TestRowBlockBuilder:
    @pytest.mark.parametrize("d", list(range(2, 17)) + [64])
    def test_identity_basis_equals_loop(self, d):
        basis, ops = np.eye(d, dtype=complex), dephasing_ops(d)
        np.testing.assert_array_equal(controlled_basis_unitary(basis, ops),
                                      looped_controlled_basis_unitary(basis, ops))

    @pytest.mark.parametrize("ops", [pauli_layer_ops(False), pauli_layer_ops(True),
                                     dephasing_ops(4)])
    def test_hadamard_basis_equals_loop(self, ops):
        basis = np.kron(pqc._H, pqc._H)
        np.testing.assert_array_equal(controlled_basis_unitary(basis, ops),
                                      looped_controlled_basis_unitary(basis, ops))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_haar_basis_matches_loop(self, d, rng):
        basis = haar_unitary(d, rng)
        ops = [haar_unitary(ancilla_dim(d), rng) for _ in range(d)]
        np.testing.assert_allclose(controlled_basis_unitary(basis, ops),
                                   looped_controlled_basis_unitary(basis, ops),
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Decoherence, measurement and the private-channel correction
# ---------------------------------------------------------------------------

class TestClosedFormProcesses:
    @pytest.mark.parametrize("haar", [False, True])
    @pytest.mark.parametrize("d", range(2, 17))
    def test_decoherence_matches_purified_simulation(self, d, haar, rng):
        psi = haar_unitary(d, rng)[:, 0]
        basis = haar_unitary(d, rng) if haar else None
        got, want = decohere_pure_state(psi, basis), dense_decohere_pure_state(psi, basis)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_measurement_matches_purified_simulation(self, d, rng):
        psi = haar_unitary(d, rng)[:, 0]
        np.testing.assert_allclose(measurement_process(psi),
                                   dense_measurement_process(psi), rtol=0, atol=1e-12)

    def test_correction_equals_simulated_table(self):
        table = simulated_residual_table()
        assert len(table) == 16
        for bits, (z1, x1, z2, x2) in table.items():
            want = np.kron(pqc._pauli(z1, x1), pqc._pauli(z2, x2)).conj().T
            np.testing.assert_array_equal(pqc.correction_operator(pqc.Syndrome(bits)), want)


# ---------------------------------------------------------------------------
# Dimension bounds: Gram channels and the joint-free entropy budget
# ---------------------------------------------------------------------------

def assert_budgets_equal(got, want):
    assert (got.dim, got.noise_dim) == (want.dim, want.noise_dim)
    for name in ("joint_entropy", "output_entropy", "ancilla_entropy"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=0, abs=1e-12)


class TestEntropyBudgetOracle:
    @pytest.mark.parametrize("d", list(range(2, 17)) + [64])
    def test_dephasing_family_equals_dense_joint(self, d):
        assert_budgets_equal(bounds.entropy_budget_check(dephasing_ops(d)),
                             dense_entropy_budget(build_dephasing_unitary(d)))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_haar_family_equals_dense_joint(self, d, rng):
        ops = [haar_unitary(ancilla_dim(d), rng) for _ in range(d)]
        assert_budgets_equal(bounds.entropy_budget_check(ops),
                             dense_entropy_budget(dilation_of(ops)))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_non_unitary_family_equals_dense_joint(self, d, rng):
        ops = frobenius_normalised_ops(d, rng)
        got = bounds.entropy_budget_check(ops)
        assert_budgets_equal(got, dense_entropy_budget(dilation_of(ops)))
        assert abs(got.joint_entropy - math.log2(ancilla_dim(d))) > 1e-3


class TestGramEpsilon:
    @pytest.mark.parametrize("d", list(range(2, 17)) + [64])
    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    def test_equals_dense_channel(self, d, mode):
        dense = (build_dephasing_unitary(d) if mode == "quantum"
                 else classical_dephasing_channel(d))
        gram, probes = gram_channel(d, mode), bounds.default_probes(d)
        got = bounds.measure_epsilon(gram, probes=probes)
        want = bounds.measure_epsilon(dense, probes=probes)
        assert (got.kind, got.dim, got.noise_dim) == (want.kind, want.dim, want.noise_dim)
        assert got.epsilon_measured == pytest.approx(want.epsilon_measured,
                                                     rel=0, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_truncated_clock_mixture_equals_dense_channel(self, d):
        dense = NoisyChannel(kind="classical-mixture", dim=d, mixture=tuple(
            weylops.weyl_family(d, 0, np.arange(1, d))))
        probes = bounds.default_probes(d)
        got = bounds.measure_epsilon(gram_channel(d, "classical", count=d - 1), probes=probes)
        want = bounds.measure_epsilon(dense, probes=probes)
        assert got.epsilon_measured > 0.1
        assert got.epsilon_measured == pytest.approx(want.epsilon_measured,
                                                     rel=0, abs=1e-12)
