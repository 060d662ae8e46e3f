"""Block approximation: layered U3/CX ansatz fitted to each partition unitary.

Each partition block gets a candidate list: candidate 0 is always the exact
original, followed by fitted ansatz circuits with m = 0 .. cnots-1 CX gates
that land within the keep threshold.  Fitting minimizes the Hilbert-Schmidt
distance with multi-start finite-difference gradient descent.  Every
product of template gates goes through ``circuits.gate_product``; a sweep
that evaluates a point also keeps its prefix products, and the line search
hands the accepted trial's sweep to the next gradient.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    GateKind,
    cnot_count,
    gate_matrix,
    gate_plan,
    gate_product,
    u3_matrix,
    unitary_of,
)
from .noise import NoiseModel, block_fidelity_score, simulate_density
from .partition import PartitionBlock
from .qasm import emit_qasm, parse_qasm

_CX = gate_matrix(Gate(GateKind.CX, (), (0, 1)))


@dataclass
class Candidate:
    """One replacement option for a block, with its cached comparison data."""

    local_circuit: Circuit
    unitary: np.ndarray
    hs_distance: float
    cnots: int
    fidelity_score: float | None = None


@dataclass
class ApproximationSet:
    """Per-block candidate lists plus the partition they were built from."""

    num_qubits: int
    blocks: list[PartitionBlock]
    candidates: list[list[Candidate]]

    def counts(self) -> tuple[int, ...]:
        """Candidate count a_b for each block."""
        return tuple(len(c) for c in self.candidates)

    def chosen(self, solution) -> list[Candidate]:
        return [self.candidates[b][c] for b, c in enumerate(solution)]

    def original_cnots(self) -> int:
        return sum(c[0].cnots for c in self.candidates)

    def save(self, path) -> None:
        data = {
            "num_qubits": self.num_qubits,
            "blocks": [
                {
                    "id": b.id,
                    "qubits": list(b.qubits),
                    "gate_span": list(b.gate_span),
                    "qasm": emit_qasm(b.local_circuit),
                }
                for b in self.blocks
            ],
            "candidates": [
                [
                    {
                        "qasm": emit_qasm(c.local_circuit),
                        "hs_distance": c.hs_distance,
                        "cnots": c.cnots,
                        "fidelity_score": c.fidelity_score,
                    }
                    for c in cands
                ]
                for cands in self.candidates
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ApproximationSet":
        with open(path) as fh:
            data = json.load(fh)
        blocks = [
            PartitionBlock(
                id=b["id"],
                qubits=tuple(b["qubits"]),
                local_circuit=parse_qasm(b["qasm"]),
                gate_span=tuple(b["gate_span"]),
            )
            for b in data["blocks"]
        ]
        candidates = []
        for cands in data["candidates"]:
            lst = []
            for c in cands:
                circ = parse_qasm(c["qasm"])
                lst.append(
                    Candidate(
                        local_circuit=circ,
                        unitary=unitary_of(circ),
                        hs_distance=c["hs_distance"],
                        cnots=c["cnots"],
                        fidelity_score=c["fidelity_score"],
                    )
                )
            candidates.append(lst)
        return cls(data["num_qubits"], blocks, candidates)


@dataclass(frozen=True)
class AnsatzTemplate:
    """Layered template: U3 on every qubit, then per CX layer one chain CX
    followed by U3 on the two touched qubits.  Parameter count 3q + 6m."""

    num_qubits: int
    cx_pairs: tuple[tuple[int, int], ...]

    @property
    def num_params(self) -> int:
        return 3 * self.num_qubits + 6 * len(self.cx_pairs)

    def ops(self) -> list[tuple[str, tuple[int, ...], int]]:
        """Ordered ops as (kind, qubits, param_offset); CX offsets are -1."""
        out = []
        off = 0
        for q in range(self.num_qubits):
            out.append(("u3", (q,), off))
            off += 3
        for a, b in self.cx_pairs:
            out.append(("cx", (a, b), -1))
            out.append(("u3", (a,), off))
            out.append(("u3", (b,), off + 3))
            off += 6
        return out

    def instantiate(self, params: np.ndarray) -> Circuit:
        gates = []
        for kind, qubits, off in self.ops():
            if kind == "cx":
                gates.append(Gate(GateKind.CX, (), qubits))
            else:
                gates.append(Gate(GateKind.U3, tuple(params[off : off + 3]), qubits))
        return Circuit(self.num_qubits, tuple(gates))

    def unitary(self, params: np.ndarray) -> np.ndarray:
        ops = self.ops()
        mats = [_CX if kind == "cx" else u3_matrix(*params[off : off + 3])
                for kind, _, off in ops]
        plan = gate_plan([qubits for _, qubits, _ in ops], self.num_qubits)
        return gate_product(mats, plan, self.num_qubits)


def ansatz(m: int, q: int) -> AnsatzTemplate:
    """Template with m CX layers cycling over the linear chain of q qubits."""
    if m < 0:
        raise ValueError(f"negative CX count {m}")
    if q < 1:
        raise ValueError(f"need at least one qubit, got {q}")
    if q == 1 and m > 0:
        raise ValueError("cannot place CX gates on a single qubit")
    chain = [(i, i + 1) for i in range(q - 1)]
    pairs = tuple(chain[i % len(chain)] for i in range(m)) if m else ()
    return AnsatzTemplate(q, pairs)


@dataclass(frozen=True)
class OptBudget:
    """Search effort knobs for optimize_params."""

    restarts: int = 8
    max_iters: int = 200
    fd_step: float = 1e-6
    tol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be non-negative, got {self.max_iters}")
        if not self.fd_step > 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")


class _TraceObjective:
    """HS distance of an instantiated template to a target, with a cheap
    finite-difference gradient via prefix/suffix trace factorization.

    ``sweep`` evaluates the distance with ``gate_product`` and copies the
    prefix before every U3 op into a stack along the way; ``grad`` takes that
    state, so a line-search trial that is accepted hands its prefixes to the
    next gradient instead of having them recomputed.
    """

    def __init__(self, template: AnsatzTemplate, target: np.ndarray):
        self.template = template
        self.ops = template.ops()
        self.n = template.num_qubits
        self.dim = 1 << self.n
        if target.shape != (self.dim, self.dim):
            raise ValueError(
                f"target shape {target.shape} does not match {self.n} qubits"
            )
        self.adj_target = np.ascontiguousarray(target.conj().T)
        # Every parameter belongs to one U3 op; row i of _u3_params holds the
        # parameter indices (theta, phi, lambda) of the i-th U3 op.
        self._u3_ops = [g for g, (kind, _, _) in enumerate(self.ops) if kind == "u3"]
        self._u3_params = np.array(
            [[off, off + 1, off + 2] for kind, _, off in self.ops if kind == "u3"])
        # U3 ops grouped by qubit, each group with the einsum spec extracting,
        # for a gate on that qubit, the 2x2 matrices L with
        # tr(K . embed(u)) = sum_ab L[a,b] u[a,b].
        self._l_groups = []
        letters = "abcdefghijklmnopqrstuv"
        for qubit in range(self.n):
            rows = [i for i, g in enumerate(self._u3_ops) if self.ops[g][1] == (qubit,)]
            if not rows:
                continue
            axis = self.n - 1 - qubit
            row = list(letters[: self.n])
            col = list(letters[: self.n])
            row[axis] = "y"  # row S-bit = b
            col[axis] = "x"  # col S-bit = a
            spec = "Z" + "".join(row) + "".join(col) + "->Zxy"
            self._l_groups.append((np.array(rows, dtype=np.intp), spec))
        qubit_lists = [qubits for _, qubits, _ in self.ops]
        self._plan = gate_plan(qubit_lists, self.n)
        self._suffix_plan = gate_plan(qubit_lists[::-1], self.n)
        self._stack_shape = (len(self._u3_ops),) + (2,) * self.n + (self.dim,)
        # _suf[i] is the product of the ops after U3 op i.  The suffix chain
        # runs on transposes, so its taps write through transposed views.
        self._suf = np.empty((len(self._u3_ops), self.dim, self.dim), dtype=complex)
        suf_t = self._suf.swapaxes(1, 2).reshape(self._stack_shape)
        last = len(self.ops) - 1
        self._suf_taps = dict(zip([last - g for g in self._u3_ops], suf_t))

    def _gate_mats(self, params):
        u3s = _u3_matrices(params[self._u3_params])
        mats = [_CX] * len(self.ops)
        for i, g in enumerate(self._u3_ops):
            mats[g] = u3s[i]
        return mats

    def sweep(self, params: np.ndarray, reuse=None) -> tuple[float, tuple]:
        """Distance at ``params`` and the state ``grad`` needs there.

        The state holds ``params``, the gate matrices and the stacked prefix
        before every U3 op.  A state passed as ``reuse`` is overwritten.
        """
        mats = self._gate_mats(params)
        pre = np.empty(self._stack_shape, dtype=complex) if reuse is None else reuse[2]
        mat = gate_product(mats, self._plan, self.n, dict(zip(self._u3_ops, pre)))
        return 1.0 - abs(np.trace(self.adj_target @ mat)) / self.dim, (params, mats, pre)

    def grad(self, value: float, state: tuple, h: float) -> np.ndarray:
        """Forward-difference gradient at a swept point, one U3 angle moved at a time.

        The trace with one gate replaced is ``sum_ab L[a,b] u[a,b]`` where L
        is a partial trace of ``K = prefix . target^dag . suffix``; all U3
        ops are handled together as stacks of K, L and perturbed gates.
        """
        params, mats, pre = state
        n, dim = self.n, self.dim
        gate_product([u.T for u in reversed(mats)], self._suffix_plan, n, self._suf_taps)
        grad = np.zeros(self.template.num_params)
        # A stacked matmul runs each item's product as the 2-D one would.
        K = pre.reshape(-1, dim, dim) @ self.adj_target @ self._suf
        # L[i, j] is U3 op i's L, once per angle, each 2x2 stored column-major
        # as einsum returns a single L; the layout fixes the summation order
        # of the traces below, so they match gate-at-a-time evaluation.
        L = np.empty((len(self._u3_ops), 3, 2, 2), dtype=complex).swapaxes(2, 3)
        for rows, spec in self._l_groups:
            L[rows] = np.einsum(spec, K[rows].reshape((len(rows),) + (2,) * (2 * n)))[:, None]
        # steps[i, j] is U3 op i's angles with angle j moved by h.
        steps = np.repeat(params[self._u3_params][:, None, :], 3, axis=1)
        diag = np.arange(3)
        steps[:, diag, diag] += h
        t = np.einsum("gjab,gjab->gj", L, _u3_matrices(steps))
        # hypot is abs() of one complex value; np.abs on an array may round
        # differently.
        grad[self._u3_params] = ((1.0 - np.hypot(t.real, t.imag) / dim) - value) / h
        return grad


def _u3_matrices(angles: np.ndarray) -> np.ndarray:
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


def optimize_params(
    template: AnsatzTemplate,
    target: np.ndarray,
    budget: OptBudget | None = None,
    seed=0,
) -> tuple[np.ndarray, float]:
    """Fit template parameters to a target unitary under the HS distance.

    Multi-start gradient descent with backtracking line search; gradients
    are finite differences.  Deterministic given the seed.  The accepted
    trial's sweep is the state of the next gradient, so an iteration costs
    one gradient plus one sweep per trial; at most two states (the current
    point's and the trial's) are alive.
    """
    budget = budget or OptBudget()
    obj = _TraceObjective(template, target)
    base_seed = list(np.atleast_1d(seed).astype(np.int64))
    best_params = None
    best_value = np.inf
    state = spare = None
    for r in range(budget.restarts):
        rng = np.random.default_rng(base_seed + [r])
        params = rng.uniform(-np.pi, np.pi, template.num_params)
        value, state = obj.sweep(params, state)
        step = 0.5
        for _ in range(budget.max_iters):
            if value < budget.tol:
                break
            grad = obj.grad(value, state, budget.fd_step)
            gsq = float(grad @ grad)
            if gsq < 1e-18:
                break
            s = step
            improved = False
            for _ in range(30):
                trial = params - s * grad
                v_new, spare = obj.sweep(trial, spare)
                if v_new < value - 1e-4 * s * gsq:
                    params, value = trial, v_new
                    state, spare = spare, state
                    improved = True
                    break
                s *= 0.5
            if not improved:
                break
            step = min(s * 2.0, 2.0)
        if value < best_value:
            best_value, best_params = value, params.copy()
        if best_value < budget.tol:
            break
    return best_params, float(best_value)


def expand_block(
    block: PartitionBlock,
    d_keep: float = 0.3,
    seed=0,
    budget: OptBudget | None = None,
) -> list[Candidate]:
    """Candidates for one block: the exact original plus kept ansatz fits
    for every CX budget below the original count, sorted by ascending m."""
    local = block.local_circuit
    target = unitary_of(local)
    originals_cnots = cnot_count(local)
    out = [Candidate(local, target, 0.0, originals_cnots)]
    base_seed = list(np.atleast_1d(seed).astype(np.int64))
    for m in range(originals_cnots):
        template = ansatz(m, local.num_qubits)
        params, hs = optimize_params(
            template, target, budget, seed=base_seed + [block.id, m]
        )
        if hs <= d_keep:
            circ = template.instantiate(params)
            out.append(Candidate(circ, unitary_of(circ), hs, m))
    return out


def expand_all(
    blocks: list[PartitionBlock],
    num_qubits: int,
    d_keep: float = 0.3,
    seed=0,
    budget: OptBudget | None = None,
) -> ApproximationSet:
    """Expand every block in order, one after the other."""
    if not d_keep >= 0:
        raise ValueError(f"d_keep must be non-negative, got {d_keep}")
    candidates = [expand_block(b, d_keep, seed, budget) for b in blocks]
    return ApproximationSet(num_qubits, list(blocks), candidates)


def score_candidates(approx: ApproximationSet, noise) -> None:
    """Fill every candidate's noisy-fidelity score in place (idempotent)."""
    for block, cands in zip(approx.blocks, approx.candidates):
        unscored = [cand for cand in cands if cand.fidelity_score is None]
        if not unscored:
            continue
        ideal = simulate_density(block.local_circuit, NoiseModel.zero())
        for cand in unscored:
            cand.fidelity_score = block_fidelity_score(cand.local_circuit, ideal, noise)
