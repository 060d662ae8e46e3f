"""Block approximation: layered U3/CX ansatz fitted to each partition unitary.

Each partition block gets a candidate list: candidate 0 is always the exact
original, followed by fitted ansatz circuits with m = 0 .. cnots-1 CX gates
that land within the keep threshold.  Fitting minimizes the Hilbert-Schmidt
distance with multi-start gradient descent on the exact gradient.  The fit
runs the template as dense 2^n x 2^n ops, one matmul each; a sweep that
evaluates a point also keeps its prefix products, and the line search hands
the accepted trial's sweep to the next gradient.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    GateKind,
    cnot_count,
    gate_matrix,
    gate_plan,
    gate_product,
    hs_distance,
    u3_matrix,
    unitary_of,
    _apply_plan,
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
            circuits = [parse_qasm(c["qasm"]) for c in cands]
            candidates.append([
                Candidate(circ, unitary_of(circ), c["hs_distance"], c["cnots"], c["fidelity_score"])
                for circ, c in zip(circuits, cands)
            ])
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
    tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.restarts, (int, np.integer)) or self.restarts < 1:
            raise ValueError(f"restarts must be an integer of at least 1, got {self.restarts}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 0:
            raise ValueError(f"max_iters must be a non-negative integer, got {self.max_iters}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")


_CX_COLS = [0, 1, 3, 2]  # v @ _CX == v[:, _CX_COLS]
_THETA_SHIFT = np.array([[[0.0, 0.0, 0.0]], [[np.pi, 0.0, 0.0]]])  # angles, and theta + pi


@lru_cache(maxsize=None)
def _embed_positions(qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Where an op on ``qubits`` puts its local entries in a ``2^n x 2^n`` matrix.

    Entry ``[r, a, b]`` is the flat position of local entry (a, b) for the
    r-th setting of the other qubits.  The basis indices come from
    ``_apply_plan``'s axis order, so the first-listed qubit is the high bit of
    the local index, as in ``apply_unitary``.
    """
    front = _apply_plan(qubits, n)[0][:-1]
    index = np.arange(1 << n).reshape((2,) * n).transpose(front).reshape(1 << len(qubits), -1).T
    positions = (index[:, :, None] << n) + index[:, None, :]
    positions.flags.writeable = False  # the cache hands the same array to every caller
    return positions


def _stack_positions(qubit_lists, k: int, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_embed_positions`` of ops ``first, first + 1, ...`` in a stack, and their transposes."""
    rest = 1 << max(n - k, 0)  # an empty list may have fewer qubits than k
    out = np.empty((rest, len(qubit_lists), 1 << k, 1 << k), dtype=np.intp)
    for g, qubits in enumerate(qubit_lists):
        out[:, g] = _embed_positions(tuple(qubits), n) + ((first + g) << (2 * n))
    return out, np.ascontiguousarray(out.swapaxes(2, 3))


class _TraceObjective:
    """HS distance of an instantiated template to a target, with its exact gradient.

    The template runs as q + m dense ops: U3 on each qubit, then per CX layer
    V = (u_a (x) u_b) . CX.  ``sweep`` scatters every op into a stack E of
    2^n x 2^n matrices and multiplies the prefixes P[g+1] = E[g] . P[g];
    ``grad`` takes that state, so a line-search trial that is accepted hands
    its prefixes to the next gradient instead of having them recomputed.
    """

    def __init__(self, template: AnsatzTemplate, target: np.ndarray):
        self.n = n = template.num_qubits
        self.dim = 1 << n
        if target.shape != (self.dim, self.dim):
            raise ValueError(f"target shape {target.shape} does not match {n} qubits")
        self.target = np.ascontiguousarray(target, dtype=complex)
        self._num_ops = n + len(template.cx_pairs)
        self._u_pos, self._u_env = _stack_positions([(q,) for q in range(n)], 1, 0, n)
        self._v_pos, self._v_env = _stack_positions(template.cx_pairs, 2, n, n)
        # Backward stack R[g] = R[g+1] . E[g] from R[-1] = target^dag.
        self._back = np.empty((self._num_ops + 1, self.dim, self.dim), dtype=complex)
        self._back[-1] = self.target.conj().T

    def sweep(self, params: np.ndarray, reuse=None) -> tuple[float, tuple]:
        """Distance at ``params`` and the state ``grad`` needs there.

        The state holds ``params``, the U3 matrices, the op stack E, the
        prefix stack P and the trace t = Tr(target^dag U).  A state passed as
        ``reuse`` is overwritten.
        """
        n, dim = self.n, self.dim
        if reuse is None:
            ops = np.zeros((self._num_ops, dim, dim), dtype=complex)
            pre = np.empty((self._num_ops + 1, dim, dim), dtype=complex)
            pre[0] = np.eye(dim)
        else:
            ops, pre = reuse[3], reuse[4]
        # u(theta + pi) / 2 is the theta derivative of u, kept for grad.
        u, u_pi = _u3_matrices(params.reshape(-1, 3) + _THETA_SHIFT)
        # Layer l is (u_a (x) u_b) . CX with u_a = u[n + 2l] and u_b = u[n + 2l + 1].
        v = (u[n::2, :, None, :, None] * u[n + 1 :: 2, None, :, None, :]).reshape(-1, 4, 4)
        flat = ops.reshape(-1)
        flat[self._u_pos] = u[:n]
        flat[self._v_pos] = v[:, :, _CX_COLS]
        for g in range(self._num_ops):
            np.dot(ops[g], pre[g], out=pre[g + 1])
        t = np.vdot(self.target, pre[-1])
        return 1.0 - abs(t) / dim, (params, u, u_pi, ops, pre, t)

    def grad(self, state: tuple) -> np.ndarray:
        """Exact gradient at a swept point; zero where the trace t is 0.

        K[g] = P[g] . R[g+1] gives d t = Tr(K[g] . dE[g]), and each op's
        local environment is a gather-and-sum of K[g] over the other qubits.
        The distance 1 - |t|/d then moves by -Re(conj(t) d t) / (|t| d).
        """
        params, u, u_pi, ops, pre, t = state
        n, back = self.n, self._back
        if t == 0:
            return np.zeros_like(params)
        for g in range(self._num_ops - 1, 0, -1):
            np.dot(back[g + 1], ops[g], out=back[g])
        flat = np.matmul(pre[:-1], back[1:]).reshape(-1)
        # env[i] is U3 op i's environment: d t = sum(env[i] * d u[i]).
        env = np.empty_like(u)
        env[:n] = flat[self._u_env].sum(0)
        layer = flat[self._v_env].sum(0)[:, :, _CX_COLS].reshape(-1, 2, 2, 2, 2)
        env[n::2] = np.einsum("lijkm,ljm->lik", layer, u[n + 1 :: 2])
        env[n + 1 :: 2] = np.einsum("lijkm,lik->ljm", layer, u[n::2])
        # d/dtheta u = u(theta + pi) / 2, d/dphi is i x row 1, d/dlambda i x column 1.
        w = env * u
        dt = np.stack([0.5 * (env * u_pi).sum((1, 2)),
                       1j * w[:, 1].sum(1), 1j * w[:, :, 1].sum(1)], axis=1)
        return -(np.conj(t) * dt).real.reshape(-1) / (abs(t) * self.dim)


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

    Multi-start gradient descent with backtracking line search on the exact
    gradient.  Deterministic given the seed.  The accepted
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
            grad = obj.grad(state)
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
        params, _ = optimize_params(template, target, budget, seed=base_seed + [block.id, m])
        circ = template.instantiate(params)
        unitary = unitary_of(circ)
        # Computed as recombine's distance tables compute it: error == distance to the original.
        hs = hs_distance(target, unitary)
        if hs <= d_keep:
            out.append(Candidate(circ, unitary, hs, m))
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
    if np.any(np.asarray(seed) < 0):
        raise ValueError(f"seed must be non-negative, got {seed}")
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
