"""Unit tests for the circuit representation and unitary semantics."""
import math

import numpy as np
import pytest

from peepopt.circuits import (
    Circuit,
    EmbeddingError,
    Gate,
    GateKind,
    apply_unitary,
    cnot_count,
    compose,
    cx,
    gate_matrix,
    gate_plan,
    gate_product,
    hs_distance,
    rx,
    rz,
    u3,
    u3_matrix,
    unitary_of,
)
from conftest import random_circuit


class TestGateValidation:
    def test_wrong_param_count(self):
        with pytest.raises(ValueError, match="parameters"):
            Gate(GateKind.RX, (), (0,))
        with pytest.raises(ValueError, match="parameters"):
            Gate(GateKind.CX, (0.5,), (0, 1))

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="qubits"):
            Gate(GateKind.CX, (), (0,))
        with pytest.raises(ValueError, match="qubits"):
            Gate(GateKind.RZ, (0.1,), (0, 1))

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError, match="duplicate"):
            cx(1, 1)

    def test_negative_qubit(self):
        with pytest.raises(ValueError, match="negative"):
            rx(0.1, -1)

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match=r"rx angle not finite: \(.*\)"):
            rx(angle, 0)
        with pytest.raises(ValueError, match="u3 angle not finite"):
            u3(0.1, angle, 0.2, 0)
        with pytest.raises(ValueError, match="rz angle not finite"):
            Gate(GateKind.RZ, (str(angle),), (0,))

    def test_circuit_rejects_out_of_range_gate(self):
        with pytest.raises(ValueError, match="exceeds"):
            Circuit(2, (cx(0, 2),))

    def test_circuit_needs_positive_width(self):
        with pytest.raises(ValueError, match="positive"):
            Circuit(0)


class TestUnitaryOf:
    def test_empty_circuit_is_identity(self):
        assert np.array_equal(unitary_of(Circuit(1)), np.eye(2))

    def test_cx_matrix_little_endian(self):
        # qubit 0 (the control here) is the least significant bit, so the
        # swapped pair of basis states is |01> (index 1) and |11> (index 3).
        u = unitary_of(Circuit(2, (cx(0, 1),)))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = 1
        expected[3, 1] = expected[1, 3] = 1
        assert np.allclose(u, expected)

    def test_u3_followed_by_inverse_is_identity(self):
        a, b, c = 0.7, -1.1, 2.3
        circ = Circuit(1, (u3(a, b, c, 0), u3(-a, -c, -b, 0)))
        assert np.allclose(unitary_of(circ), np.eye(2), atol=1e-10)

    def test_gate_order_is_application_order(self):
        circ = Circuit(1, (rx(0.5, 0), rz(1.1, 0)))
        expected = gate_matrix(rz(1.1, 0)) @ gate_matrix(rx(0.5, 0))
        assert np.allclose(unitary_of(circ), expected)

    def test_embedding_against_kron(self):
        # Single-qubit gate on qubit q of 3: kron(I_above, u, I_below).
        g = u3(0.3, 0.9, -0.4, 1)
        u = gate_matrix(g)
        expected = np.kron(np.kron(np.eye(2), u), np.eye(2))
        assert np.allclose(unitary_of(Circuit(3, (g,))), expected)

    def test_unitarity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            circ = random_circuit(rng, 3, 12)
            u = unitary_of(circ)
            assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)


def _chained(mats, qubit_lists, n):
    """Products after 0, 1, ... gates, one ``apply_unitary`` call per gate."""
    out = [np.eye(1 << n, dtype=complex)]
    for u, qubits in zip(mats, qubit_lists):
        out.append(apply_unitary(out[-1], u, qubits, n))
    return out


class TestGateProduct:
    """``gate_product`` against the ``apply_unitary`` chain it replaces, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_chained_apply_unitary(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            circ = random_circuit(rng, n, 14)
            mats = [gate_matrix(g) for g in circ.gates]
            qubit_lists = [g.qubits for g in circ.gates]
            chain = _chained(mats, qubit_lists, n)
            out = gate_product(mats, gate_plan(qubit_lists, n), n)
            assert out.flags.c_contiguous
            assert np.array_equal(out, chain[-1])
            for g in range(0, len(mats), 3):
                prefix = gate_product(mats[:g], gate_plan(qubit_lists[:g], n), n)
                assert np.array_equal(prefix, chain[g])
            assert np.array_equal(unitary_of(circ), chain[-1])
            explicit = gate_product(mats, gate_plan(qubit_lists, n), n, start=None)
            assert explicit.tobytes() == chain[-1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_start_multiplies_on_the_right(self, n):
        rng = np.random.default_rng(60 + n)
        dim = 1 << n
        circ = random_circuit(rng, n, 12)
        mats = [gate_matrix(g) for g in circ.gates]
        plan = gate_plan([g.qubits for g in circ.gates], n)
        for cols in (1, 3):
            start = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
            out = gate_product(mats, plan, n, start=start)
            assert out.shape == (dim, cols) and out.flags.c_contiguous
            np.testing.assert_allclose(out, gate_product(mats, plan, n) @ start,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_transposed_chain_equals_suffix_loop(self, n):
        # The product of the transposed gates in reverse order is the
        # transposed product: S_g = S_{g+1} . embed(u_g) from the right.
        rng = np.random.default_rng(50 + n)
        dim = 1 << n
        circ = random_circuit(rng, n, 16)
        mats = [gate_matrix(g) for g in circ.gates]
        qubit_lists = [g.qubits for g in circ.gates]
        suf = np.eye(dim, dtype=complex)
        for u, qubits in zip(reversed(mats), reversed(qubit_lists)):
            suf = apply_unitary(suf.T, u.T, qubits, n).T
        plan = gate_plan(qubit_lists[::-1], n)
        out = gate_product([u.T for u in reversed(mats)], plan, n)
        assert np.array_equal(out.T, suf)

    def test_empty_sequence_is_identity(self):
        for n in (1, 3):
            out = gate_product([], gate_plan([], n), n)
            assert np.array_equal(out, np.eye(1 << n))


class TestCnotCount:
    def test_empty(self):
        assert cnot_count(Circuit(2)) == 0

    def test_mixed(self):
        assert cnot_count(Circuit(2, (cx(0, 1), rz(0.1, 0), cx(1, 0)))) == 2


class TestCompose:
    def test_identity_embedding(self):
        circ = Circuit(2, (cx(0, 1), rx(0.2, 0)))
        out = compose([circ], [(0, 1)], 2)
        assert out == circ

    def test_tensor_product_of_disjoint_blocks(self):
        a = Circuit(1, (u3(0.4, 0.1, -0.2, 0),))
        b = Circuit(1, (u3(-0.9, 1.2, 0.3, 0),))
        out = compose([a, b], [(0,), (1,)], 2)
        # Little-endian: qubit 1 is the high factor of the kron product.
        expected = np.kron(unitary_of(b), unitary_of(a))
        assert np.allclose(unitary_of(out), expected, atol=1e-12)

    def test_index_rewrite(self):
        block = Circuit(2, (cx(0, 1),))
        out = compose([block], [(2, 0)], 3)
        assert out.gates[0].qubits == (2, 0)

    def test_bad_embeddings(self):
        block = Circuit(2, (cx(0, 1),))
        with pytest.raises(EmbeddingError):
            compose([block], [(0,)], 2)
        with pytest.raises(EmbeddingError):
            compose([block], [(1, 1)], 2)
        with pytest.raises(EmbeddingError):
            compose([block], [(0, 5)], 2)


class TestHsDistance:
    def test_self_distance_zero(self):
        u = unitary_of(Circuit(2, (cx(0, 1), rx(0.7, 0))))
        assert hs_distance(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_global_phase_invariance(self):
        u = unitary_of(Circuit(2, (cx(0, 1),)))
        assert hs_distance(u, np.exp(0.77j) * u) == pytest.approx(0.0, abs=1e-12)

    def test_cnot_vs_identity(self):
        u = unitary_of(Circuit(2, (cx(0, 1),)))
        assert hs_distance(u, np.eye(4)) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = unitary_of(random_circuit(rng, 2, 6))
            v = unitary_of(random_circuit(rng, 2, 6))
            assert hs_distance(u, v) == pytest.approx(hs_distance(v, u), abs=1e-12)
            assert -1e-12 <= hs_distance(u, v) <= 1.0 + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_distance(np.eye(2), np.eye(4))


def test_u3_matrix_is_special_unitary_structure():
    m = u3_matrix(0.3, 0.8, -1.2)
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
