"""Gate-level circuit representation and exact unitary semantics.

Basis convention (fixed everywhere in this package): qubit 0 is the least
significant bit of the computational basis index, so a basis state index is
``sum(bit_q << q)``.  Matrices are dense; the largest objects we ever build
are 2^12 x 2^12.

Gate-list products go through one kernel, ``gate_product``: it keeps the
running product as a tensor in whatever axis order the previous gate left it,
so each gate costs one permuted copy and one ``np.dot``.  It multiplies the
identity or a given ``start`` matrix, so it also runs a state vector, or
vec(rho) under superoperators as a 2n-qubit state (``noise``).  The fitter in
``expand`` instead embeds each op as a dense matrix, with index tables built
from the same axis convention (``_apply_plan``).  ``apply_unitary`` applies
one gate to an existing matrix with that convention; no library code calls
it, and it stays as the single-gate reference the tests hold both to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


class GateKind(Enum):
    CX = "cx"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    U3 = "u3"


_NUM_PARAMS = {
    GateKind.CX: 0,
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.U3: 3,
}

_ARITY = {
    GateKind.CX: 2,
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.U3: 1,
}


class EmbeddingError(ValueError):
    """A block-to-circuit qubit embedding is out of range or non-injective."""


@dataclass(frozen=True)
class Gate:
    """One gate application: a kind, its angle parameters, and its qubits.

    For CX the qubit order is (control, target).
    """

    kind: GateKind
    params: tuple[float, ...] = ()
    qubits: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(self.params) != _NUM_PARAMS[self.kind]:
            raise ValueError(
                f"{self.kind.value} takes {_NUM_PARAMS[self.kind]} parameters, "
                f"got {len(self.params)}"
            )
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.kind.value} angle not finite: {self.params}")
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind.value} acts on {_ARITY[self.kind]} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in {self.kind.value}: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (), (control, target))


def rx(theta: float, qubit: int) -> Gate:
    return Gate(GateKind.RX, (theta,), (qubit,))


def ry(theta: float, qubit: int) -> Gate:
    return Gate(GateKind.RY, (theta,), (qubit,))


def rz(theta: float, qubit: int) -> Gate:
    return Gate(GateKind.RZ, (theta,), (qubit,))


def u3(theta: float, phi: float, lam: float, qubit: int) -> Gate:
    return Gate(GateKind.U3, (theta, phi, lam), (qubit,))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed number of qubits."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {self.num_qubits}")
        for g in self.gates:
            for q in g.qubits:
                if q >= self.num_qubits:
                    raise ValueError(
                        f"gate {g.kind.value} on qubit {q} exceeds circuit "
                        f"width {self.num_qubits}"
                    )

    def __len__(self) -> int:
        return len(self.gates)


# 4x4 CX matrix in the gate's *local* basis, first-listed qubit (the control)
# as the high bit of the local index.
_CX_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


def u3_matrices(angles: np.ndarray) -> np.ndarray:
    """``u3_matrix`` over a stack of (theta, phi, lambda) rows.

    Shape ``(..., 3)`` to ``(..., 2, 2)``; element for element equal to
    calling ``u3_matrix`` on each row.
    """
    theta, phi, lam = angles[..., 0], angles[..., 1], angles[..., 2]
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.empty(angles.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -np.exp(1j * lam) * s
    out[..., 1, 0] = np.exp(1j * phi) * s
    out[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return out


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a single gate in its local basis (2x2 or 4x4)."""
    if gate.kind is GateKind.CX:
        return _CX_MATRIX
    if gate.kind is GateKind.RX:
        (t,) = gate.params
        c, s = np.cos(t / 2.0), np.sin(t / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if gate.kind is GateKind.RY:
        (t,) = gate.params
        c, s = np.cos(t / 2.0), np.sin(t / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind is GateKind.RZ:
        (t,) = gate.params
        return np.array([[np.exp(-1j * t / 2.0), 0], [0, np.exp(1j * t / 2.0)]])
    return u3_matrix(*gate.params)


@lru_cache(maxsize=None)
def _apply_plan(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis permutations that bring a gate's row axes to the front and back."""
    axes = [n - 1 - q for q in qubits]
    front = tuple(axes + [a for a in range(n + 1) if a not in axes])
    back = tuple(int(i) for i in np.argsort(front))
    return front, back


def apply_unitary(mat: np.ndarray, u: np.ndarray, qubits: Sequence[int], n: int) -> np.ndarray:
    """Return ``embed(u) @ mat`` without forming the embedded operator.

    ``u`` acts on ``qubits`` (first-listed qubit = high bit of u's local
    index) inside an ``n``-qubit system; ``mat`` is ``2^n x 2^n``.  This is
    ``np.tensordot`` over the gate's row axes followed by ``np.moveaxis``,
    spelled out with cached permutations.  For a sequence of gates use
    ``gate_product``, which skips the copy back to logical order.
    """
    m = len(qubits)
    dim = 1 << n
    front, back = _apply_plan(tuple(qubits), n)
    # Row axes ordered (qubit n-1, ..., qubit 0); columns kept flat.
    t = mat.reshape((2,) * n + (dim,)).transpose(front).reshape(1 << m, -1)
    t = np.dot(u, t).reshape((2,) * n + (dim,)).transpose(back)
    return np.ascontiguousarray(t.reshape(dim, dim))


@lru_cache(maxsize=None)
def _step_plan(
    prev: tuple[int, ...], qubits: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], int]:
    """One step of ``gate_product``: ``(perm, rows)``.

    The running product is a ``(2,)*n + (2^n,)`` tensor whose axes are in
    the front order of ``_apply_plan(prev, n)`` (logical order for ``prev``
    = ``()``).  ``perm`` brings it to the front order of ``qubits`` and
    ``rows`` is the gate's dimension.
    """
    order, _ = _apply_plan(prev, n)
    front, _ = _apply_plan(qubits, n)
    return tuple(order.index(a) for a in front), 1 << len(qubits)


def gate_plan(qubit_lists: Sequence[Sequence[int]], n: int) -> tuple[list, tuple[int, ...]]:
    """The permutations ``gate_product`` needs for gates on ``qubit_lists``.

    Depends only on the qubits, so a caller applying many parameter sets to
    one gate layout builds it once.
    """
    steps, prev = [], ()
    for qubits in qubit_lists:
        qubits = tuple(qubits)
        steps.append(_step_plan(prev, qubits, n))
        prev = qubits
    return steps, _apply_plan(prev, n)[1]


def gate_product(mats: Sequence[np.ndarray], plan, n: int,
                 start: np.ndarray | None = None) -> np.ndarray:
    """Return ``embed(u_k) @ ... @ embed(u_1) @ start`` as a contiguous matrix.

    ``mats`` are the gates' local matrices and ``plan`` is
    ``gate_plan(qubits of each gate, n)``.  ``start`` is a ``2^n x c`` matrix
    and defaults to the ``2^n x 2^n`` identity.  The running product stays a
    ``(2,)*n + (c,)`` tensor in whatever row-axis order the last gate left
    it, so each gate costs one permuted copy and one ``np.dot``; the columns
    never move.  Each ``np.dot`` receives the same array that ``apply_unitary``
    would build from the logical product, so from the identity the result is
    bit-identical to chaining ``apply_unitary``.
    """
    steps, back = plan
    dim = 1 << n
    if start is None:
        start = np.eye(dim, dtype=complex)
    cols = start.shape[1]
    shape = (2,) * n + (cols,)
    t = start.reshape(shape)
    for u, (perm, rows) in zip(mats, steps):
        t = np.dot(u, t.transpose(perm).reshape(rows, -1)).reshape(shape)
    return t.transpose(back).reshape(dim, cols)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Exact unitary of a circuit: the product of its gates in application order."""
    n = circuit.num_qubits
    plan = gate_plan([g.qubits for g in circuit.gates], n)
    return gate_product([gate_matrix(g) for g in circuit.gates], plan, n)


def cnot_count(circuit: Circuit) -> int:
    """Number of CX gates in the circuit."""
    return sum(1 for g in circuit.gates if g.kind is GateKind.CX)


def compose(
    blocks: Iterable[Circuit],
    embeddings: Iterable[Sequence[int]],
    n: int,
) -> Circuit:
    """Concatenate block circuits, rewriting qubit indices through embeddings.

    ``embeddings[b][local]`` is the global qubit of a block's local qubit;
    each embedding must map injectively into ``[0, n)``.
    """
    gates: list[Gate] = []
    for block, emb in zip(blocks, embeddings):
        emb = tuple(int(q) for q in emb)
        if len(emb) != block.num_qubits:
            raise EmbeddingError(
                f"embedding of length {len(emb)} for a {block.num_qubits}-qubit block"
            )
        if len(set(emb)) != len(emb):
            raise EmbeddingError(f"non-injective embedding {emb}")
        if any(q < 0 or q >= n for q in emb):
            raise EmbeddingError(f"embedding {emb} out of range for {n} qubits")
        for g in block.gates:
            gates.append(Gate(g.kind, g.params, tuple(emb[q] for q in g.qubits)))
    return Circuit(n, tuple(gates))


def hs_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Hilbert-Schmidt process distance ``1 - |Tr(u^dag v)| / d``.

    Global-phase invariant, symmetric, in [0, 1] for unitaries.
    """
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    return float(1.0 - abs(np.trace(u.conj().T @ v)) / d)
