"""Unit tests for the scan partitioner and the partition graph."""
import numpy as np
import pytest

from peepopt.circuits import Circuit, apply_unitary, compose, cx, hs_distance, rx, unitary_of
from peepopt.partition import (
    InfeasiblePartitionError,
    NonAdjacentBlocksError,
    build_partition_graph,
    pair_embedding,
    pair_unitary,
    scan_partition,
)
from peepopt.qasm import parse_qasm
from conftest import FIXTURE_FILES, random_circuit


def reassembled(blocks, n):
    """The blocks composed back onto the full register."""
    return compose([b.local_circuit for b in blocks], [b.qubits for b in blocks], n)


def random_unitary(rng, qubits):
    dim = 1 << qubits
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return u


class TestScanPartition:
    def test_whole_circuit_fits_one_block(self):
        circ = Circuit(4, (cx(0, 1), cx(2, 3), cx(1, 2)))
        blocks = scan_partition(circ, 4)
        assert len(blocks) == 1
        assert blocks[0].qubits == (0, 1, 2, 3)
        assert len(blocks[0].local_circuit) == 3

    def test_hand_traced_three_blocks(self):
        circ = Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 1)))
        blocks = scan_partition(circ, 2)
        assert [b.qubits for b in blocks] == [(0, 1), (1, 2), (0, 1)]
        assert [b.gate_span for b in blocks] == [(0,), (1,), (2,)]

    def test_every_gate_covered_once(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            circ = random_circuit(rng, 5, 30)
            blocks = scan_partition(circ, 3)
            spans = [i for b in blocks for i in b.gate_span]
            assert sorted(spans) == list(range(len(circ)))

    def test_reassembly_preserves_unitary(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            circ = random_circuit(rng, 4, 25)
            blocks = scan_partition(circ, 3)
            u = unitary_of(reassembled(blocks, 4))
            assert hs_distance(u, unitary_of(circ)) < 1e-10

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
    def test_fixture_reassembly(self, path):
        circ = parse_qasm(path.read_text())
        blocks = scan_partition(circ, 4)
        u = unitary_of(reassembled(blocks, circ.num_qubits))
        assert hs_distance(u, unitary_of(circ)) < 1e-10

    def test_local_indices_sorted_ascending(self):
        circ = Circuit(3, (cx(2, 0),))
        (block,) = scan_partition(circ, 2)
        assert block.qubits == (0, 2)
        assert block.local_circuit.gates[0].qubits == (1, 0)

    def test_wide_gate_rejected(self):
        with pytest.raises(ValueError):
            scan_partition(Circuit(3, (cx(0, 1),)), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            scan_partition(Circuit(2), 0)
        with pytest.raises(ValueError):
            scan_partition(Circuit(3), 4)


class TestPartitionGraph:
    def test_single_block_no_edges(self):
        blocks = scan_partition(Circuit(2, (cx(0, 1),)), 2)
        graph = build_partition_graph(blocks)
        assert graph.num_blocks == 1
        assert graph.edges == {}

    def test_repeated_block_pair_weight(self):
        circ = Circuit(3, (cx(0, 1), cx(1, 2)))
        blocks = scan_partition(circ, 2)
        graph = build_partition_graph(blocks)
        assert graph.edges == {(0, 1): 1}

    def test_hand_enumerated_three_block_edges(self):
        circ = Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 2)))
        blocks = scan_partition(circ, 2)
        assert [b.qubits for b in blocks] == [(0, 1), (1, 2), (0, 2)]
        graph = build_partition_graph(blocks)
        # q0: B0 -> B2; q1: B0 -> B1; q2: B1 -> B2.
        assert graph.edges == {(0, 2): 1, (0, 1): 1, (1, 2): 1}

    def test_incident(self):
        circ = Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 2)))
        graph = build_partition_graph(scan_partition(circ, 2))
        assert sorted(graph.incident(1)) == [(0, 1), (1, 2)]


class TestPairSubcircuit:
    """An adjacent block pair on its union qubits: ``pair_embedding`` and ``pair_unitary``."""

    def test_basic_pair(self):
        circ = Circuit(4, (cx(1, 3), cx(0, 1)))
        blocks = scan_partition(circ, 2)
        assert [b.qubits for b in blocks] == [(1, 3), (0, 1)]
        union, pos_0, pos_1 = pair_embedding(blocks, 0, 1)
        assert union == (0, 1, 3)
        assert pos_0 == (1, 2)
        assert pos_1 == (0, 1)

    def test_non_adjacent_rejected(self):
        circ = Circuit(3, (cx(0, 1), cx(1, 2)))
        blocks = scan_partition(circ, 2)
        with pytest.raises(NonAdjacentBlocksError):
            pair_embedding(blocks, 1, 0)
        with pytest.raises(NonAdjacentBlocksError):
            pair_embedding(blocks, 0, 0)

    def test_pair_embedding_reads_the_given_edges(self, monkeypatch):
        import peepopt.partition as partition_module
        rng = np.random.default_rng(10)
        blocks = scan_partition(random_circuit(rng, 5, 30), 3)
        edges = build_partition_graph(blocks).edges
        expected = {e: pair_embedding(blocks, *e) for e in edges}
        monkeypatch.setattr(partition_module, "build_partition_graph", None)  # not built again
        assert {e: pair_embedding(blocks, *e, edges) for e in edges} == expected
        i, j = next(iter(edges))
        with pytest.raises(NonAdjacentBlocksError):
            pair_embedding(blocks, j, i, edges)

    def test_pair_unitary_matches_subcircuit(self):
        rng = np.random.default_rng(9)
        circ = random_circuit(rng, 4, 20)
        blocks = scan_partition(circ, 3)
        graph = build_partition_graph(blocks)
        for (i, j) in graph.edges:
            union, pos_i, pos_j = pair_embedding(blocks, i, j)
            pair = compose(
                [blocks[i].local_circuit, blocks[j].local_circuit], [pos_i, pos_j], len(union)
            )
            u = pair_unitary(
                unitary_of(blocks[i].local_circuit),
                unitary_of(blocks[j].local_circuit),
                pos_i,
                pos_j,
                len(union),
            )
            assert hs_distance(u, unitary_of(pair)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pair_unitary_equals_apply_unitary_chain(self, n):
        """Bit for bit the single-gate reference: one ``apply_unitary`` call per block."""
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            pos_first = tuple(int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)])
            pos_second = tuple(int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)])
            u_first = random_unitary(rng, len(pos_first))
            u_second = random_unitary(rng, len(pos_second))
            chain = np.eye(1 << n, dtype=complex)
            chain = apply_unitary(chain, u_first, tuple(reversed(pos_first)), n)
            chain = apply_unitary(chain, u_second, tuple(reversed(pos_second)), n)
            got = pair_unitary(u_first, u_second, pos_first, pos_second, n)
            assert got.tobytes() == chain.tobytes()
