"""Block approximation: layered U3/CX ansatz fitted to each partition unitary.

Each partition block gets a candidate list: candidate 0 is always the exact
original, followed by fitted ansatz circuits with m = 0 .. cnots-1 CX gates
that land within the keep threshold.  Fitting minimizes the Hilbert-Schmidt
distance with multi-start gradient descent on the exact gradient.  The fit
runs the template as dense 2^n x 2^n ops, one matmul each.

``expand_all`` runs every (block, m) fit of a set at once, in lockstep
batches: at small n a fit step is mostly fixed NumPy call overhead, which a
batch pays once for all of its fits.  A batch holds fits of one qubit count
by descending m.  The ops of ``ansatz(m, n)`` are a prefix of those of
``ansatz(M, n)``, so op g of the batch is one stacked matmul over the prefix
slice of fits that have it, without padding.  Each fit is one straight-line
descent (``_descent``) with its own seed, line search, exits and restarts.
Each step sweeps every fit's next point; when any fit then asks for its
gradient, the step differentiates the whole batch at once and hands the
askers theirs.  A fit leaves the batch when it ends.  ``BATCH_BYTES``
caps each stacked array of a batch, so a wide 4-qubit set runs as several
batches.  Each fit's trace t and |t| stay Python scalars: ``np.abs`` over
the batch's traces rounds some |t| one ulp away from the scalar ``abs``,
and those fits' line searches then take other paths.  So a fit returns the
same bytes in any batch, alone (``optimize_params``, ``expand_block``) or
with its whole set.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import (Circuit, Gate, GateKind, cnot_count, hs_distance, u3_matrices, unitary_of,
                       _apply_plan)
from .noise import NoiseModel, _number, block_fidelity_score, simulate_density
from .partition import PartitionBlock
from .qasm import emit_qasm, parse_qasm


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
        """Read a cache written by ``save``; ValueError if it is not one.

        The cache must hold one non-empty candidate list per block, every
        value must have its JSON type, every candidate must be as wide as
        its block, and its ``cnots`` must be its circuit's CX count.
        """
        with open(path) as fh:
            data = json.load(fh)
        num_qubits, block_data, cand_data = _fields(data, ("num_qubits", "blocks", "candidates"), "cache")
        _check(_is_int(num_qubits), "cache num_qubits must be an integer", num_qubits)
        if not isinstance(block_data, list) or not isinstance(cand_data, list):
            raise ValueError("cache blocks and candidates must be lists")
        if len(cand_data) != len(block_data):
            raise ValueError(f"cache has {len(cand_data)} candidate lists for {len(block_data)} blocks")
        blocks, candidates = [], []
        for b, cands in zip(block_data, cand_data):
            bid, qubits, qasm, span = _fields(b, ("id", "qubits", "qasm", "gate_span"), "cached block")
            _check(_is_int(bid), "cached block id must be an integer", bid)
            for name, value in (("qubits", qubits), ("gate_span", span)):
                _check(isinstance(value, list) and all(map(_is_int, value)),
                       f"{name} of cached block {bid} must be a list of integers", value)
            block = PartitionBlock(id=bid, qubits=tuple(qubits), local_circuit=parse_qasm(qasm),
                                   gate_span=tuple(span))
            if not isinstance(cands, list) or not cands:
                raise ValueError(f"cached block {bid} has no candidates")
            row = []
            for c in cands:
                what = f"candidate of cached block {bid}"
                qasm, hs, cnots, score = _fields(c, ("qasm", "hs_distance", "cnots", "fidelity_score"), what)
                circ = parse_qasm(qasm)
                if circ.num_qubits != len(block.qubits):
                    raise ValueError(f"a candidate of cached block {bid} has {circ.num_qubits} qubits, "
                                     f"the block {len(block.qubits)}")
                hs = _number(hs, f"hs_distance of a {what}")
                score = None if score is None else _number(score, f"fidelity_score of a {what}")
                cx = cnot_count(circ)
                _check(_is_int(cnots) and cnots == cx, f"cnots of a {what} must be its CX count {cx}", cnots)
                row.append(Candidate(circ, unitary_of(circ), hs, cnots, score))
            blocks.append(block)
            candidates.append(row)
        return cls(num_qubits, blocks, candidates)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check(ok: bool, message: str, value) -> None:
    """ValueError naming ``value`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{message}, got {value!r}")


def _fields(data, keys: tuple[str, ...], what: str) -> list:
    """``data``'s values at ``keys``; ValueError unless it is an object holding them all."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")
    return [data[k] for k in keys]


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


# A fit's restart stops, and the fit with it, once its distance is below this.
FIT_TOL = 1e-8


@dataclass(frozen=True)
class OptBudget:
    """Search effort knobs for optimize_params."""

    restarts: int = 8
    max_iters: int = 200

    def __post_init__(self):
        if not isinstance(self.restarts, (int, np.integer)) or self.restarts < 1:
            raise ValueError(f"restarts must be an integer of at least 1, got {self.restarts}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 0:
            raise ValueError(f"max_iters must be a non-negative integer, got {self.max_iters}")


_CX_COLS = [0, 1, 3, 2]  # v @ CX == v[:, _CX_COLS]
_THETA_SHIFT = np.array([[[0.0, 0.0, 0.0]], [[np.pi, 0.0, 0.0]]])  # angles, and theta + pi
# Cap on the bytes of one stacked array of a lockstep batch.  It bounds a
# batch's memory: uncapped, the 4-qubit fits of a set stack megabytes.  A fit
# whose stack alone is larger still runs, in a batch of its own.
BATCH_BYTES = 256 * 1024


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


def _stack_bytes(head: AnsatzTemplate, fits: int) -> int:
    """Bytes of the prefix stack of ``fits`` fits in a batch headed by ``head``."""
    n = head.num_qubits
    return (n + len(head.cx_pairs) + 1) * fits * (16 << (2 * n))


def _plan_batches(templates, cap: int = BATCH_BYTES) -> list[list[int]]:
    """Lockstep batches of fits, as lists of indices into ``templates``.

    A batch holds templates of one width by descending CX count, each one's
    CX pairs a prefix of the first's (true of every ``ansatz``), so op g of
    the batch runs on a prefix of its fits.  A fit joins the open batch while
    the batch's prefix stack stays within ``cap`` bytes; a fit whose own
    stack is larger runs alone.
    """
    order = sorted(range(len(templates)),
                   key=lambda i: (templates[i].num_qubits, -len(templates[i].cx_pairs)))
    batches: list[list[int]] = []
    for i in order:
        t = templates[i]
        if batches:
            head = templates[batches[-1][0]]
            if (t.num_qubits == head.num_qubits
                    and head.cx_pairs[: len(t.cx_pairs)] == t.cx_pairs
                    and _stack_bytes(head, len(batches[-1]) + 1) <= cap):
                batches[-1].append(i)
                continue
        batches.append([i])
    return batches


@dataclass(frozen=True)
class _Layout:
    """Where the fits of a lockstep batch sit in its stacks.

    Slot j holds a fit with ``depths[j]`` ops, in descending order, so op g
    runs on slots ``[:counts[g]]``; ``runs`` lists the ranges of ops
    ``[first, stop)`` that run on the same slots ``[:k]``.  The ``*_rows``
    index the fits' U3 matrices, which follow each other in slot order (a
    fit's rows are its parameter triples); ``u_rows`` and ``u_pos`` list the
    qubit ops by (qubit, slot), ``a_rows``, ``b_rows`` and ``v_pos`` the CX
    layers by (layer, slot).  The positions are flat indices into an
    ``(ops, slots, 2^n, 2^n)`` stack with the other qubits' settings first,
    and ``*_env`` their transposes.
    """

    depths: list[int]
    counts: list[int]
    runs: list[tuple[int, int, int]]
    u_rows: np.ndarray
    a_rows: np.ndarray
    b_rows: np.ndarray
    u_pos: np.ndarray
    u_env: np.ndarray
    v_pos: np.ndarray
    v_env: np.ndarray


class _TraceObjective:
    """HS distances of a lockstep batch of templates to their targets, with exact gradients.

    A template runs as q + m dense ops: U3 on each qubit, then per CX layer
    V = (u_a (x) u_b) . CX.  The fits sit in slots by descending CX count
    (see ``_plan_batches``), so every op g is one stacked ``np.matmul`` over
    the slice of slots that have it; a stacked matmul rounds as one
    ``np.dot`` per fit.  ``sweep`` scatters every op into a stack E of shape
    (ops, slots, 2^n, 2^n) and multiplies the prefixes P[g+1] = E[g] . P[g];
    ``grad`` differentiates the whole batch at that sweep and hands out the
    gradients of the fits that ask.  Each fit's trace t and |t| stay Python
    scalars: ``np.abs`` over an array of traces can round |t| differently in
    the last bit, and a fit's line search then takes another path.
    """

    def __init__(self, templates, targets):
        head = templates[0]
        self.n = n = head.num_qubits
        self.dim = 1 << n
        self._ms = [len(t.cx_pairs) for t in templates]
        for t, target in zip(templates, targets):
            if t.num_qubits != n or head.cx_pairs[: len(t.cx_pairs)] != t.cx_pairs:
                raise ValueError("batched templates need one width and CX pairs that prefix the first's")
            if target.shape != (self.dim, self.dim):
                raise ValueError(f"target shape {target.shape} does not match {n} qubits")
        if self._ms != sorted(self._ms, reverse=True):
            raise ValueError("batched templates must come by descending CX count")
        self.targets = [np.ascontiguousarray(t, dtype=complex) for t in targets]
        self._adjoints = np.stack([t.conj().T for t in self.targets])
        # Local positions of the qubit ops and CX layers, other qubits' settings
        # first, and their transposes: (rest, ops, 2^k, 2^k) each.
        qubit_pos = np.stack([_embed_positions((q,), n) for q in range(n)], axis=1)
        pair_pos = np.array([_embed_positions(p, n) for p in head.cx_pairs],
                            dtype=np.intp).reshape(-1, 1 << max(n - 2, 0), 4, 4).swapaxes(0, 1)
        self._qubit_pos, self._pair_pos = [
            (np.ascontiguousarray(p), np.ascontiguousarray(p.swapaxes(2, 3))) for p in (qubit_pos, pair_pos)]
        self._layout()

    def _layout(self) -> None:
        """Lay out the current fits and allocate their stacks."""
        n, dim, ms = self.n, self.dim, self._ms
        size, d2 = len(ms), 1 << (2 * n)
        self._rows = [n + 2 * m for m in ms]
        starts = np.cumsum([0] + self._rows[:-1])
        self._starts = starts.tolist()
        depths = [n + m for m in ms]
        ascending = depths[::-1]
        counts = [size - bisect_right(ascending, g) for g in range(depths[0])]
        runs = [(g, g + counts.count(k), k) for g, k in enumerate(counts) if g == 0 or counts[g - 1] != k]
        u_rows = (np.arange(n)[:, None] + starts).reshape(-1)
        u_off = ((np.arange(n)[:, None] * size + np.arange(size)) * d2)[:, :, None, None]
        rest = self._qubit_pos[0].shape[0]
        u_pos, u_env = [(p[:, :, None] + u_off).reshape(rest, n * size, 2, 2) for p in self._qubit_pos]
        layer, slot = np.nonzero(np.arange(ms[0])[:, None] < np.asarray(ms))
        a_rows = starts[slot] + n + 2 * layer
        v_off = (((n + layer) * size + slot) * d2)[:, None, None]
        v_pos, v_env = [np.take(p, layer, axis=1) + v_off for p in self._pair_pos]
        self._lay = _Layout(depths, counts, runs, u_rows, a_rows, a_rows + 1, u_pos, u_env, v_pos, v_env)
        # Zeros: the scatter writes only each op's nonzero pattern.
        self.ops = np.zeros((depths[0], size, dim, dim), dtype=complex)
        self.pre = np.empty((depths[0] + 1, size, dim, dim), dtype=complex)
        self.pre[0] = np.eye(dim)

    def keep(self, slots: list[int]) -> None:
        """Drop every fit but those at ``slots`` (ascending) from the batch."""
        self.targets = [self.targets[s] for s in slots]
        self._adjoints = self._adjoints[slots]
        self._ms = [self._ms[s] for s in slots]
        self._layout()

    def sweep(self, points: list[np.ndarray]) -> list[float]:
        """Each fit's distance at its parameter vector in ``points``.

        Keeps the U3 matrices, the op stack E, the prefix stack P and the
        traces t = Tr(target^dag U) for ``grad``.
        """
        lay, ops, pre = self._lay, self.ops, self.pre
        # u(theta + pi) / 2 is the theta derivative of u, kept for grad.
        u, self._u_pi = u3_matrices(np.concatenate(points).reshape(-1, 3) + _THETA_SHIFT)
        self._u = u
        # A fit's layer l is (u_a (x) u_b) . CX with u_a, u_b its rows n + 2l and n + 2l + 1.
        v = (u[lay.a_rows, :, None, :, None] * u[lay.b_rows, None, :, None, :]).reshape(-1, 4, 4)
        flat = ops.reshape(-1)
        flat[lay.u_pos] = u[lay.u_rows]
        flat[lay.v_pos] = v[:, :, _CX_COLS]
        for g, k in enumerate(lay.counts):
            np.matmul(ops[g, :k], pre[g, :k], out=pre[g + 1, :k])
        self._traces = [np.vdot(target, pre[depth, slot])
                        for slot, (target, depth) in enumerate(zip(self.targets, lay.depths))]
        return [1.0 - abs(t) / self.dim for t in self._traces]

    def grad(self, slots: list[int]) -> list[np.ndarray]:
        """Exact gradients at the last sweep of the fits at ``slots``
        (ascending); zero where the trace t is 0.

        Backward stacks R[g] = R[g+1] . E[g] from R[ops] = target^dag and
        K[g] = P[g] . R[g+1] give d t = Tr(K[g] . dE[g]), and each op's local
        environment is a gather-and-sum of K[g] over the other qubits.  The
        distance 1 - |t|/d then moves by -Re(conj(t) d t) / (|t| d).  The
        stacks run over the whole batch whichever fits ask: a fit's gradient
        has the same bytes in any batch.
        """
        traces, dim = self._traces, self.dim
        dt = self._trace_derivatives() if slots else None
        grads = []
        for s in slots:
            t = traces[s]
            if t == 0:
                grads.append(np.zeros(3 * self._rows[s]))
                continue
            rows = dt[self._starts[s] : self._starts[s] + self._rows[s]]
            grads.append(-(np.conj(t) * rows).real.reshape(-1) / (abs(t) * dim))
        return grads

    def _trace_derivatives(self) -> np.ndarray:
        """d t / d(theta, phi, lambda) of every U3 row of the batch."""
        lay, ops, pre = self._lay, self.ops, self.pre
        depth, size = lay.depths[0], len(self._ms)
        back = np.empty((depth + 1, size, self.dim, self.dim), dtype=complex)
        back[lay.depths, np.arange(size)] = self._adjoints
        for g in range(depth - 1, 0, -1):
            k = lay.counts[g]
            np.matmul(back[g + 1, :k], ops[g, :k], out=back[g, :k])
        env_stack = np.empty((depth, size, self.dim, self.dim), dtype=complex)
        for first, stop, k in lay.runs:
            np.matmul(pre[first:stop, :k], back[first + 1 : stop + 1, :k], out=env_stack[first:stop, :k])
        flat = env_stack.reshape(-1)
        u = self._u
        # env[i] is U3 row i's environment: d t = sum(env[i] * d u[i]).
        env = np.empty_like(u)
        env[lay.u_rows] = flat[lay.u_env].sum(0)
        layer = flat[lay.v_env].sum(0)[:, :, _CX_COLS].reshape(-1, 2, 2, 2, 2)
        env[lay.a_rows] = np.einsum("lijkm,ljm->lik", layer, u[lay.b_rows])
        env[lay.b_rows] = np.einsum("lijkm,lik->ljm", layer, u[lay.a_rows])
        # d/dtheta u = u(theta + pi) / 2, d/dphi is i x row 1, d/dlambda i x column 1.
        w = env * u
        return np.stack([0.5 * (env * self._u_pi).sum((1, 2)),
                         1j * w[:, 1].sum(1), 1j * w[:, :, 1].sum(1)], axis=1)


def _descent(seed, num_params: int, budget: OptBudget):
    """One fit's restarts of gradient descent with a backtracking line search.

    A generator: it yields each point to sweep and is sent its distance, or
    yields None and is sent the gradient at the last point it was sent a
    distance for; it returns (best params, best distance).  Restart r starts
    at a uniform draw from ``default_rng(seed + [r])``.  A restart ends below
    ``FIT_TOL``, at a zero gradient, after 30 failed halvings of the step, or
    after ``max_iters`` steps; the fit ends once its best distance is below
    ``FIT_TOL`` or its restarts are spent.
    """
    base_seed = list(np.atleast_1d(seed).astype(np.int64))
    best_params, best_value = None, np.inf
    for r in range(budget.restarts):
        params = np.random.default_rng(base_seed + [r]).uniform(-np.pi, np.pi, num_params)
        value = yield params
        step = 0.5
        for _ in range(budget.max_iters):
            if value < FIT_TOL:
                break
            grad = yield None
            gsq = float(grad @ grad)
            if gsq < 1e-18:
                break
            s = step
            for _ in range(30):
                trial = params - s * grad
                trial_value = yield trial
                if trial_value < value - 1e-4 * s * gsq:  # Armijo test
                    params, value = trial, trial_value
                    break
                s *= 0.5
            else:
                break
            step = min(s * 2.0, 2.0)
        if value < best_value:
            best_value, best_params = value, params.copy()
        if best_value < FIT_TOL:
            break
    return best_params, float(best_value)


def _send(fit, reply):
    """The fit's next request after ``reply``: a point, None, or its result."""
    try:
        return fit.send(reply)
    except StopIteration as end:
        return end.value


def _fit_batch(templates, targets, seeds, budget: OptBudget) -> list[tuple[np.ndarray, float]]:
    """Run one lockstep batch (see ``_plan_batches``) to its end: (params, distance) per fit.

    Every step sweeps each unfinished fit's next point together, then takes
    the gradients of the fits that ask for one; a fit leaves the batch
    when it ends.
    """
    obj = _TraceObjective(templates, targets)
    fits = [_descent(seed, t.num_params, budget) for t, seed in zip(templates, seeds)]
    results = [None] * len(fits)
    live = list(range(len(fits)))  # the fit in each slot of obj
    requests = [next(f) for f in fits]
    while live:
        requests = [_send(fits[i], value) for i, value in zip(live, obj.sweep(requests))]
        asks = [s for s, r in enumerate(requests) if r is None]
        for s, grad in zip(asks, obj.grad(asks)):
            requests[s] = _send(fits[live[s]], grad)
        slots = [s for s, r in enumerate(requests) if isinstance(r, np.ndarray)]
        if len(slots) < len(live):
            for s, r in enumerate(requests):
                if isinstance(r, tuple):
                    results[live[s]] = r
            live, requests = [live[s] for s in slots], [requests[s] for s in slots]
            if live:
                obj.keep(slots)
    return results


def optimize_params(
    template: AnsatzTemplate,
    target: np.ndarray,
    budget: OptBudget | None = None,
    seed=0,
) -> tuple[np.ndarray, float]:
    """Fit template parameters to a target unitary under the HS distance.

    Multi-start gradient descent with backtracking line search on the exact
    gradient, deterministic given the seed: a lockstep batch of one fit.
    """
    return _fit_batch([template], [target], [seed], budget or OptBudget())[0]


def _expand(blocks, d_keep: float, seed, budget: OptBudget | None) -> list[list[Candidate]]:
    """Candidate lists of ``blocks``: the exact original plus the kept fit of
    every CX budget m below its CX count, by ascending m.  All (block, m)
    fits run together in lockstep batches, each with seed [seed, block id, m]."""
    if not d_keep >= 0:
        raise ValueError(f"d_keep must be non-negative, got {d_keep}")
    if np.any(np.asarray(seed) < 0):
        raise ValueError(f"seed must be non-negative, got {seed}")
    budget = budget or OptBudget()
    base_seed = list(np.atleast_1d(seed).astype(np.int64))
    targets = [unitary_of(b.local_circuit) for b in blocks]
    jobs = [(b, m) for b, block in enumerate(blocks) for m in range(cnot_count(block.local_circuit))]
    templates = [ansatz(m, blocks[b].local_circuit.num_qubits) for b, m in jobs]
    seeds = [base_seed + [blocks[b].id, m] for b, m in jobs]
    params = [None] * len(jobs)
    for batch in _plan_batches(templates):
        fitted = _fit_batch([templates[i] for i in batch], [targets[jobs[i][0]] for i in batch],
                            [seeds[i] for i in batch], budget)
        for i, (p, _) in zip(batch, fitted):
            params[i] = p
    out = [[Candidate(b.local_circuit, target, 0.0, cnot_count(b.local_circuit))]
           for b, target in zip(blocks, targets)]
    for (b, m), template, p in zip(jobs, templates, params):
        circ = template.instantiate(p)
        unitary = unitary_of(circ)
        # Computed as recombine's distance tables compute it: error == distance to the original.
        hs = hs_distance(targets[b], unitary)
        if hs <= d_keep:
            out[b].append(Candidate(circ, unitary, hs, m))
    return out


def expand_block(
    block: PartitionBlock,
    d_keep: float = 0.3,
    seed=0,
    budget: OptBudget | None = None,
) -> list[Candidate]:
    """Candidates for one block: the exact original plus kept ansatz fits
    for every CX budget below the original count, sorted by ascending m."""
    return _expand([block], d_keep, seed, budget)[0]


def expand_all(
    blocks: list[PartitionBlock],
    num_qubits: int,
    d_keep: float = 0.3,
    seed=0,
    budget: OptBudget | None = None,
) -> ApproximationSet:
    """Expand every block; the fits of all blocks run in lockstep batches."""
    return ApproximationSet(num_qubits, list(blocks), _expand(blocks, d_keep, seed, budget))


def score_candidates(approx: ApproximationSet, noise) -> None:
    """Fill every candidate's noisy-fidelity score in place (idempotent),
    each block's under the noise of its own qubits."""
    for block, cands in zip(approx.blocks, approx.candidates):
        unscored = [cand for cand in cands if cand.fidelity_score is None]
        if not unscored:
            continue
        ideal = simulate_density(block.local_circuit, NoiseModel())
        local = noise.on_block(block.qubits)
        for cand in unscored:
            cand.fidelity_score = block_fidelity_score(cand.local_circuit, ideal, local)
