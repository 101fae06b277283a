"""Entanglement-keyed private channel: security, reliability, catalytic key
return, Pauli-error syndromes, Bell discrimination, parity authentication."""

from itertools import product

import numpy as np
import pytest

from dephaselab import pqc
from dephaselab.qcore import DimensionError, fidelity, partial_trace, tensor, trace_norm
from dephaselab.sampling import random_density_matrix, random_pure_state, spawn_rngs
from dephaselab.tolerances import TOL

MIXED_4 = np.eye(4, dtype=complex) / 4


class TestKey:
    def test_key_state_is_two_bell_pairs(self):
        kv = np.kron(pqc.bell_state(), pqc.bell_state())
        assert kv.shape == (16,)
        rho = np.outer(kv, kv.conj())
        for pair in ([0, 1], [2, 3]):
            marg = partial_trace(rho, (2, 2, 2, 2), pair)
            v = pqc.bell_state()
            assert np.real(v.conj() @ marg @ v) == pytest.approx(1.0, abs=1e-12)

    def test_coupling_bases_are_unbiased(self):
        # the two control bases used by the coupling layers
        comp = np.eye(4)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        had = np.kron(h, h)
        overlaps = np.abs(comp.conj().T @ had) ** 2
        np.testing.assert_allclose(overlaps, np.full((4, 4), 0.25), atol=1e-12)


class TestSecurity:
    def test_maximally_mixed_input(self):
        enc = pqc.pqc_encode(MIXED_4)
        assert trace_norm(enc.message() - MIXED_4) <= TOL.pqc_security

    def test_random_pure_inputs(self, rng):
        for _ in range(10):
            rho = random_pure_state(4, rng)
            enc = pqc.pqc_encode(rho)
            assert trace_norm(enc.message() - MIXED_4) <= TOL.pqc_security

    def test_entangled_extension(self, rng):
        # Eve holds a purifying system; her joint view carries no signal
        vec = np.eye(4, dtype=complex).ravel() / 2.0
        rho_se = np.outer(vec, vec.conj())
        enc = pqc.pqc_encode(rho_se)
        eve = enc.eavesdropper_view()
        rho_e = partial_trace(rho_se, (4, 4), [1])
        assert trace_norm(eve - tensor(MIXED_4, rho_e)) <= TOL.pqc_security

    def test_random_extensions(self, rng):
        for _ in range(5):
            vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            vec /= np.linalg.norm(vec)
            rho_se = np.outer(vec, vec.conj())
            enc = pqc.pqc_encode(rho_se)
            rho_e = partial_trace(rho_se, (4, 2), [1])
            assert trace_norm(enc.eavesdropper_view() - tensor(MIXED_4, rho_e)) \
                <= TOL.pqc_security


class TestEncodeInput:
    def test_extension_is_read_from_the_dimension(self):
        enc = pqc.pqc_encode(np.eye(12, dtype=complex) / 12)
        assert enc.layout == (4, 3, 2, 2, 2, 2)
        assert enc.joint.shape == (192, 192)

    def test_dimension_not_a_multiple_of_four_is_refused(self):
        with pytest.raises(DimensionError, match=r"message \(x\) extension space"):
            pqc.pqc_encode(np.eye(6, dtype=complex) / 6)

    def test_tolerances_are_keyword_only(self):
        with pytest.raises(TypeError):
            pqc.pqc_encode(MIXED_4, TOL)


class TestReliability:
    def test_round_trip_random_states(self, rng):
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            msg, key_state = pqc.pqc_decode(pqc.pqc_encode(rho))
            assert trace_norm(msg - rho) <= TOL.pqc_security
            kv = np.kron(pqc.bell_state(), pqc.bell_state())
            assert fidelity(key_state, np.outer(kv, kv.conj())) >= 1.0 - TOL.pqc_fidelity

    def test_basis_state_exact(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        msg, _ = pqc.pqc_decode(pqc.pqc_encode(rho))
        np.testing.assert_allclose(msg, rho, atol=1e-12)


class TestPauliErrors:
    def test_trivial_error(self, rng):
        rho = random_pure_state(4, rng)
        enc = pqc.pqc_encode(rho)
        same = pqc.apply_pauli_error(enc, pqc.PauliError(0, 0, 0, 0))
        np.testing.assert_allclose(same.joint, enc.joint, atol=1e-14)

    def test_all_sixteen_distinct(self, rng):
        enc = pqc.pqc_encode(random_pure_state(4, rng))
        tampered = [pqc.apply_pauli_error(enc, pqc.PauliError(*bits)).joint
                    for bits in product(range(2), repeat=4)]
        for i in range(16):
            for j in range(i + 1, 16):
                assert trace_norm(tampered[i] - tampered[j]) > 1e-6

    def test_y_component_is_xz_up_to_phase(self, rng):
        # at the density-matrix level the (z, x) = (1, 1) component acts as Y
        rho = random_density_matrix(2, rng)
        zx = pqc._pauli(1, 1)
        y = np.array([[0, -1j], [1j, 0]])
        np.testing.assert_allclose(zx @ rho @ zx.conj().T, y @ rho @ y.conj().T,
                                   atol=1e-12)


class TestSyndromes:
    def test_clean_key_gives_zero_syndrome(self, rng):
        rho = random_pure_state(4, rng)
        _, key_state = pqc.pqc_decode(pqc.pqc_encode(rho))
        syn = pqc.extract_syndrome(key_state)
        assert syn.bits == (0, 0, 0, 0) and syn.is_clean()

    def test_specific_error_lands_on_predicted_bells(self, rng):
        # tuple (1,0,0,0): first reported pair picks up a Z, second an X
        rho = random_pure_state(4, rng)
        enc = pqc.pqc_encode(rho)
        _, key_state = pqc.pqc_decode(pqc.apply_pauli_error(enc, pqc.PauliError(1, 0, 0, 0)))
        syn = pqc.extract_syndrome(key_state)
        assert syn.bits == (1, 0, 0, 1)
        assert pqc.BELL_LABELS[syn.bits[:2]] == "phi-"   # Z-shifted pair
        assert pqc.BELL_LABELS[syn.bits[2:]] == "psi+"   # X-shifted pair

    def test_table_matches_closed_form_and_is_bijective(self, rng):
        rho = random_pure_state(4, rng)
        enc = pqc.pqc_encode(rho)
        seen = set()
        for bits in product(range(2), repeat=4):
            err = pqc.PauliError(*bits)
            _, key_state = pqc.pqc_decode(pqc.apply_pauli_error(enc, err))
            syn = pqc.extract_syndrome(key_state)
            assert syn.bits == pqc.syndrome_formula(err).bits
            assert pqc.error_from_syndrome(syn).as_tuple() == bits
            seen.add(syn.bits)
        assert len(seen) == 16

    def test_correction_recovers_message(self, rng):
        for _ in range(3):
            rho = random_density_matrix(4, rng)
            enc = pqc.pqc_encode(rho)
            for bits in product(range(2), repeat=4):
                err = pqc.PauliError(*bits)
                msg, key_state = pqc.pqc_decode(pqc.apply_pauli_error(enc, err))
                syn = pqc.extract_syndrome(key_state)
                if not syn.is_clean():
                    corr = pqc.correction_operator(syn)
                    msg = corr @ msg @ corr.conj().T
                assert trace_norm(msg - rho) <= TOL.syndrome_residual

    def test_first_qubit_errors_pass_through(self, rng):
        rho = random_density_matrix(4, rng)
        enc = pqc.pqc_encode(rho)
        for z, x in ((0, 1), (1, 0), (1, 1)):
            err = pqc.PauliError(0, 0, z, x)
            msg, _ = pqc.pqc_decode(pqc.apply_pauli_error(enc, err))
            p = err.operator()
            assert trace_norm(msg - p @ rho @ p.conj().T) <= 1e-10

    def test_non_pauli_tampering_raises(self, rng):
        from dephaselab.qcore import embed_operator
        rho = random_pure_state(4, rng)
        enc = pqc.pqc_encode(rho)
        theta = 0.3
        rot = np.kron(np.array([[np.cos(theta), -np.sin(theta)],
                                [np.sin(theta), np.cos(theta)]], dtype=complex),
                      np.eye(2, dtype=complex))
        op = embed_operator(rot, enc.layout, [0])
        tampered = pqc.PqcState(joint=op @ enc.joint @ op.conj().T)
        _, key_state = pqc.pqc_decode(tampered)
        with pytest.raises(pqc.IntegrityError):
            pqc.extract_syndrome(key_state)


class TestBellDiscrimination:
    @pytest.mark.parametrize("zx,name", sorted(pqc.BELL_LABELS.items()))
    def test_all_four_identified(self, zx, name):
        label, outcome = pqc.bell_discriminate(pqc.bell_state(*zx))
        assert label == name
        assert max(outcome.values()) == pytest.approx(1.0, abs=1e-10)

    def test_non_bell_input_rejected(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        with pytest.raises(pqc.IntegrityError):
            pqc.bell_discriminate(v)


class TestAuthentication:
    def test_clean_syndrome_always_accepts(self):
        syn = pqc.Syndrome((0, 0, 0, 0))
        for rng in spawn_rngs(3, 50):
            result = pqc.parity_authenticate(syn, 5, rng)
            assert result.verdict == "accept"
            assert result.ebits_consumed == 5

    def test_single_bad_bit_rejection_rate(self):
        syn = pqc.Syndrome((0, 0, 0, 1))
        n = 4000
        rejects = sum(pqc.parity_authenticate(syn, 1, r).verdict == "reject"
                      for r in spawn_rngs(7, n))
        p = rejects / n
        assert abs(p - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_two_bad_bits_many_rounds(self):
        syn = pqc.Syndrome((0, 1, 0, 1))
        n, rounds = 4000, 10
        accepts = sum(pqc.parity_authenticate(syn, rounds, r).verdict == "accept"
                      for r in spawn_rngs(11, n))
        p_expected = 2.0 ** -rounds
        sigma = np.sqrt(p_expected * (1 - p_expected) / n)
        assert accepts / n <= p_expected + 3 * sigma


class TestTranscript:
    def test_clean_round(self, rng):
        rho = random_density_matrix(4, rng)
        t = pqc.run_transcript(rho, None, auth_rounds=4, seed=5)
        assert t["syndrome"] == "0000"
        assert t["verdict"] == "accept"
        assert t["ciphertext_marginal_distance"] <= TOL.pqc_security
        assert t["recovered_fidelity"] >= 1.0 - TOL.pqc_fidelity

    def test_tampered_round_detected_and_corrected(self, rng):
        rho = random_density_matrix(4, rng)
        t = pqc.run_transcript(rho, pqc.PauliError(1, 1, 0, 1), auth_rounds=10, seed=5)
        assert t["syndrome"] != "0000"
        assert t["verdict"] == "reject"
        assert t["recovered_fidelity"] >= 1.0 - 1e-9
        assert t["ebits_consumed"] == 10
