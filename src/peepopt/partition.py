"""Greedy scan partitioning and the qubit-flow partition graph.

The partitioner splits a circuit into ordered blocks acting on at most k
qubits each.  The graph connects each block to the *next* block acting on
each of its qubits; edge weights count the shared qubits flowing between
the pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, Gate, gate_plan, gate_product


class InfeasiblePartitionError(ValueError):
    """A gate is wider than the partition size k."""


class NonAdjacentBlocksError(ValueError):
    """pair_embedding was asked for a block pair without a connecting edge."""


@dataclass(frozen=True)
class PartitionBlock:
    """A contiguous subcircuit over at most k qubits.

    ``qubits`` lists the global qubits in ascending order; local qubit i of
    ``local_circuit`` is global qubit ``qubits[i]``.  ``gate_span`` holds the
    indices of the original gates owned by this block.
    """

    id: int
    qubits: tuple[int, ...]
    local_circuit: Circuit
    gate_span: tuple[int, ...]


@dataclass(frozen=True)
class PartitionGraph:
    """DAG over block ids; edge (i, j) carries the number of qubits flowing
    directly from block i to block j."""

    num_blocks: int
    edges: dict[tuple[int, int], int] = field(default_factory=dict)

    def incident(self, block_id: int) -> list[tuple[int, int]]:
        """Edges touching a block, as (i, j) keys."""
        return [e for e in self.edges if block_id in e]


def _make_block(block_id, qubits, gates, span):
    qubits = tuple(sorted(qubits))
    local_index = {q: i for i, q in enumerate(qubits)}
    local_gates = tuple(
        Gate(g.kind, g.params, tuple(local_index[q] for q in g.qubits)) for g in gates
    )
    return PartitionBlock(
        id=block_id,
        qubits=qubits,
        local_circuit=Circuit(len(qubits), local_gates),
        gate_span=tuple(span),
    )


def scan_partition(circuit: Circuit, k: int) -> list[PartitionBlock]:
    """Greedy left-to-right scan into blocks of at most k qubits.

    Each gate joins the current block if its qubits fit in (or grow) the
    active set; otherwise the block is closed and a new one opens seeded
    with that gate's qubits.  Every gate lands in exactly one block.
    """
    if k < 1 or k > min(circuit.num_qubits, 5):
        raise ValueError(f"k={k} out of range for {circuit.num_qubits} qubits")
    for g in circuit.gates:
        if len(g.qubits) > k:
            raise InfeasiblePartitionError(
                f"{g.kind.value} acts on {len(g.qubits)} qubits but k={k}"
            )

    blocks: list[PartitionBlock] = []
    active: set[int] = set()
    cur_gates: list[Gate] = []
    cur_span: list[int] = []

    for idx, g in enumerate(circuit.gates):
        grown = active | set(g.qubits)
        if len(grown) <= k:
            active = grown
        else:
            blocks.append(_make_block(len(blocks), active, cur_gates, cur_span))
            active = set(g.qubits)
            cur_gates, cur_span = [], []
        cur_gates.append(g)
        cur_span.append(idx)
    if cur_gates:
        blocks.append(_make_block(len(blocks), active, cur_gates, cur_span))
    return blocks


def build_partition_graph(blocks: list[PartitionBlock]) -> PartitionGraph:
    """Connect each block to the next block acting on each of its qubits."""
    edges: dict[tuple[int, int], int] = {}
    last_block_on: dict[int, int] = {}
    for block in blocks:
        for q in block.qubits:
            if q in last_block_on:
                key = (last_block_on[q], block.id)
                edges[key] = edges.get(key, 0) + 1
            last_block_on[q] = block.id
    return PartitionGraph(num_blocks=len(blocks), edges=edges)


def pair_embedding(
    blocks: list[PartitionBlock], i: int, j: int,
    edges: dict[tuple[int, int], int] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Union qubits of an adjacent pair plus each block's positions within it;
    ``edges``, the blocks' graph edges, are built here unless given."""
    if edges is None:
        edges = build_partition_graph(blocks).edges
    if (i, j) not in edges:
        raise NonAdjacentBlocksError(f"blocks {i} and {j} are not adjacent")
    union = tuple(sorted(set(blocks[i].qubits) | set(blocks[j].qubits)))
    local_index = {q: x for x, q in enumerate(union)}
    pos_i = tuple(local_index[q] for q in blocks[i].qubits)
    pos_j = tuple(local_index[q] for q in blocks[j].qubits)
    return union, pos_i, pos_j


def pair_unitary(
    u_first: np.ndarray,
    u_second: np.ndarray,
    pos_first: tuple[int, ...],
    pos_second: tuple[int, ...],
    union_size: int,
) -> np.ndarray:
    """Unitary of two block unitaries cascaded on their union qubit set.

    Positions index union-local qubits; ``pos[x]`` is the union-local slot of
    a block's local qubit x.  Block unitaries follow the package basis
    convention, so local qubit 0 is their least significant bit.
    """
    # gate_product expects first-listed qubit = high bit, so reverse.
    plan = gate_plan([reversed(pos_first), reversed(pos_second)], union_size)
    return gate_product([u_first, u_second], plan, union_size)
