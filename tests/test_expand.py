"""Unit tests for the ansatz, optimizer, and block expansion."""
import math
from collections import Counter

import numpy as np
import pytest

import peepopt.expand as expand_module
from peepopt.circuits import (
    Circuit,
    GateKind,
    apply_unitary,
    cnot_count,
    cx,
    gate_matrix,
    hs_distance,
    rx,
    u3_matrices,
    u3_matrix,
    unitary_of,
)
from peepopt.expand import (
    AnsatzTemplate,
    ApproximationSet,
    OptBudget,
    ansatz,
    expand_all,
    expand_block,
    optimize_params,
    score_candidates,
)
from peepopt.expand import (
    _CX_COLS,
    _THETA_SHIFT,
    _TraceObjective,
    _embed_positions,
    _fit_batch,
    _plan_batches,
    _stack_bytes,
)
from peepopt.noise import NoiseModel, block_fidelity_score
from peepopt.partition import scan_partition
from peepopt.pipeline import RunConfig
from peepopt.recombine import ObjectiveTables

FAST = OptBudget(restarts=3, max_iters=80)
_CX = gate_matrix(cx(0, 1))


class TestAnsatz:
    def test_m0_q2(self):
        t = ansatz(0, 2)
        assert t.num_params == 6
        circ = t.instantiate(np.zeros(6))
        assert len(circ) == 2
        assert all(g.kind is GateKind.U3 for g in circ.gates)

    def test_m2_q2_layout(self):
        t = ansatz(2, 2)
        assert t.num_params == 18
        kinds = [g.kind for g in t.instantiate(np.zeros(18)).gates]
        assert kinds == [
            GateKind.U3, GateKind.U3,
            GateKind.CX, GateKind.U3, GateKind.U3,
            GateKind.CX, GateKind.U3, GateKind.U3,
        ]

    def test_cx_count_is_m(self):
        for m, q in [(0, 2), (3, 3), (5, 4)]:
            assert cnot_count(ansatz(m, q).instantiate(
                np.zeros(ansatz(m, q).num_params))) == m

    def test_chain_round_robin(self):
        t = ansatz(4, 3)
        pairs = [g.qubits for g in t.instantiate(np.zeros(t.num_params)).gates
                 if g.kind is GateKind.CX]
        assert pairs == [(0, 1), (1, 2), (0, 1), (1, 2)]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ansatz(-1, 2)
        with pytest.raises(ValueError):
            ansatz(0, 0)
        with pytest.raises(ValueError):
            ansatz(1, 1)

    def test_unitary_matches_instantiated_circuit(self):
        # The fitter's dense product is the unitary of the circuit it emits.
        t = ansatz(2, 3)
        rng = np.random.default_rng(1)
        params = rng.uniform(-np.pi, np.pi, t.num_params)
        obj = _TraceObjective([t], [np.eye(8)])
        obj.sweep([params])
        assert hs_distance(obj.pre[-1, 0], unitary_of(t.instantiate(params))) < 1e-12

    @pytest.mark.parametrize("m,q", [(0, 1), (3, 2), (5, 3), (9, 4)])
    def test_unitary_equals_apply_unitary_loop(self, m, q):
        t = ansatz(m, q)
        params = np.random.default_rng(m + q).uniform(-np.pi, np.pi, t.num_params)
        mat = np.eye(1 << q, dtype=complex)
        for kind, qubits, off in t.ops():
            u = _CX if kind == "cx" else u3_matrix(*params[off:off + 3])
            mat = apply_unitary(mat, u, qubits, q)
        assert unitary_of(t.instantiate(params)).tobytes() == mat.tobytes()


def _random_unitary(rng, q):
    dim = 1 << q
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return u


def _u3_derivatives(theta, phi, lam):
    """d u3 / d(theta, phi, lambda), written out from ``u3_matrix``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep, el, epl = np.exp(1j * phi), np.exp(1j * lam), np.exp(1j * (phi + lam))
    return (0.5 * np.array([[-s, -el * c], [ep * c, -epl * s]]),
            np.array([[0, 0], [1j * ep * s, 1j * epl * c]]),
            np.array([[0, -1j * el * s], [0, 1j * epl * c]]))


class _ReferenceObjective:
    """The distance and its gradient one gate at a time: the value chains
    ``apply_unitary`` over the template's U3/CX gates, and each U3 angle's
    derivative contracts the prefix and suffix around that gate with the
    written-out derivative matrix."""

    def __init__(self, template, target):
        self.template, self.ops, self.n = template, template.ops(), template.num_qubits
        self.dim = 1 << self.n
        self.adj_target = target.conj().T

    def _mats(self, params):
        return [_CX if kind == "cx" else u3_matrix(*params[off:off + 3])
                for kind, _, off in self.ops]

    def value(self, params):
        mat = np.eye(self.dim, dtype=complex)
        for (_, qubits, _), u in zip(self.ops, self._mats(params)):
            mat = apply_unitary(mat, u, qubits, self.n)
        return 1.0 - abs(np.trace(self.adj_target @ mat)) / self.dim

    def value_and_grad(self, params):
        n, dim, mats = self.n, self.dim, self._mats(params)
        pre = [np.eye(dim, dtype=complex)]
        for (_, qubits, _), u in zip(self.ops, mats):
            pre.append(apply_unitary(pre[-1], u, qubits, n))
        suf = [np.eye(dim, dtype=complex)]
        for (_, qubits, _), u in zip(reversed(self.ops), reversed(mats)):
            suf.insert(0, apply_unitary(suf[0].T, u.T, qubits, n).T)
        t = np.trace(self.adj_target @ pre[-1])
        grad = np.zeros(self.template.num_params)
        letters = "abcdefghijklmnopqrstuv"
        for g, (kind, qubits, off) in enumerate(self.ops):
            if kind == "cx" or t == 0:
                continue
            # d t = Tr(K . embed(du)) = sum_ab L[a, b] du[a, b].
            K = pre[g] @ self.adj_target @ suf[g + 1]
            row, col = list(letters[:n]), list(letters[:n])
            row[n - 1 - qubits[0]], col[n - 1 - qubits[0]] = "y", "x"
            L = np.einsum("".join(row) + "".join(col) + "->xy", K.reshape((2,) * (2 * n)))
            for j, du in enumerate(_u3_derivatives(*params[off:off + 3])):
                dt = np.sum(L * du)
                grad[off + j] = -(np.conj(t) * dt).real / (abs(t) * dim)
        return 1.0 - abs(t) / dim, grad


def _objective(template, target):
    """A batch-of-one ``_TraceObjective``: its distance, and its distance and gradient."""
    obj = _TraceObjective([template], [target])

    def value_and_grad(params):
        (value,) = obj.sweep([params])
        (grad,) = obj.grad([0])
        return value, grad

    return (lambda params: obj.sweep([params])[0]), value_and_grad


def _central_differences(f, params, h=1e-5):
    steps = h * np.eye(len(params))
    return np.array([(f(params + e) - f(params - e)) / (2 * h) for e in steps])


class TestTraceObjectiveGradient:
    def test_gradient_matches_naive_finite_differences(self):
        t = ansatz(1, 2)
        rng = np.random.default_rng(8)
        target = unitary_of(Circuit(2, (cx(0, 1), rx(0.3, 0))))
        value, value_and_grad = _objective(t, target)
        params = rng.uniform(-np.pi, np.pi, t.num_params)
        grad = value_and_grad(params)[1]
        naive = _central_differences(value, params)
        assert np.abs(grad - naive).max() <= 1e-8

    @pytest.mark.parametrize("m,q", [(3, 3), (5, 4), (0, 1)])
    def test_stacked_gradient_matches_naive_on_wider_templates(self, m, q):
        # U3 ops on every qubit and CX layers on every chain pair.
        t = ansatz(m, q)
        rng = np.random.default_rng(m + 10 * q)
        value, value_and_grad = _objective(t, _random_unitary(rng, q))
        params = rng.uniform(-np.pi, np.pi, t.num_params)
        grad = value_and_grad(params)[1]
        naive = _central_differences(value, params)
        assert np.abs(grad - naive).max() <= 1e-8

    @pytest.mark.parametrize("m,q", [(4, 3), (6, 4), (1, 2)])
    def test_stacked_gradient_equals_gate_at_a_time_loop(self, m, q):
        # Reference: prefix and suffix products per gate and the written-out
        # derivative matrices; only the summation order differs.
        t = ansatz(m, q)
        rng = np.random.default_rng(m + 7 * q)
        target = _random_unitary(rng, q)
        params = rng.uniform(-np.pi, np.pi, t.num_params)
        value, grad = _objective(t, target)[1](params)
        ref_value, ref_grad = _ReferenceObjective(t, target).value_and_grad(params)
        assert abs(value - ref_value) <= 1e-14
        assert np.abs(grad - ref_grad).max() <= 1e-13

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_sweep_and_gradient_match_the_apply_unitary_loop(self, q):
        # Every template the fitter builds for k <= 5: m = 0-10 CX layers.
        for m in range(11 if q > 1 else 1):
            t = ansatz(m, q)
            rng = np.random.default_rng([q, m])
            target = _random_unitary(rng, q)
            ref = _ReferenceObjective(t, target)
            params = rng.uniform(-np.pi, np.pi, t.num_params)
            value, grad = _objective(t, target)[1](params)
            assert abs(value - ref.value(params)) <= 1e-13
            naive = _central_differences(ref.value, params)
            assert np.abs(grad - naive).max() <= 1e-7

    def test_reused_state_gives_the_same_value_and_gradient(self):
        # The stacks live as long as the objective: a sweep over the last
        # point's state equals one on fresh stacks.
        t = ansatz(5, 3)
        rng = np.random.default_rng(4)
        target = _random_unitary(rng, 3)
        p1, p2 = rng.uniform(-np.pi, np.pi, (2, t.num_params))
        fresh_value, fresh_grad = _objective(t, target)[1](p2)
        value_and_grad = _objective(t, target)[1]
        value_and_grad(p1)
        value, grad = value_and_grad(p2)
        assert value == fresh_value
        assert np.array_equal(grad, fresh_grad)

    def test_zero_trace_gives_zero_gradient(self):
        t = ansatz(2, 2)
        params = np.random.default_rng(3).uniform(-np.pi, np.pi, t.num_params)
        value, grad = _objective(t, np.zeros((4, 4)))[1](params)
        assert value == 1.0
        assert np.array_equal(grad, np.zeros(t.num_params))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_asked_gradients_equal_batches_of_one(self, q):
        # Fit 4's t is 0.  In each round some slots ask for gradients and the
        # others only sweep, as a fit in a line search does; each asked
        # gradient has the bytes of the same fit's as a batch of one, before
        # and after fits leave the batch.
        ms = [7, 5, 5, 3, 2, 0]
        templates = [ansatz(m, q) for m in ms]
        rng = np.random.default_rng(q)
        targets = [_random_unitary(rng, q) for _ in ms]
        targets[4] = np.zeros((1 << q, 1 << q))
        obj = _TraceObjective(templates, targets)
        fits = list(range(len(ms)))  # the fit in each slot
        for kept, asks in (None, [1, 2, 4]), ([1, 2, 4, 5], [0, 2, 3]):
            if kept:
                obj.keep(kept)
                fits = [fits[s] for s in kept]
            points = [rng.uniform(-np.pi, np.pi, templates[i].num_params) for i in fits]
            obj.sweep(points)
            for s, grad in zip(asks, obj.grad(asks)):
                alone = _TraceObjective([templates[fits[s]]], [targets[fits[s]]])
                alone.sweep([points[s]])
                assert grad.tobytes() == alone.grad([0])[0].tobytes()

    def test_stacked_u3_matrices_equal_u3_matrix(self):
        rng = np.random.default_rng(12)
        angles = rng.uniform(-4 * np.pi, 4 * np.pi, (5, 3, 3))
        stacked = u3_matrices(angles)
        assert stacked.shape == (5, 3, 2, 2)
        for idx in np.ndindex(5, 3):
            assert np.array_equal(stacked[idx], u3_matrix(*angles[idx]))


class TestEmbedding:
    """The index tables that place each op in the dense 2^n x 2^n stack."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_embedded_op_equals_apply_unitary(self, n):
        rng = np.random.default_rng(n)
        eye = np.eye(1 << n, dtype=complex)
        # Both orders of every pair, so a swapped high bit shows.
        layouts = [(q,) for q in range(n)] + [(a, b) for a in range(n) for b in range(n) if a != b]
        for qubits in layouts:
            v = _random_unitary(rng, len(qubits))
            pos = _embed_positions(qubits, n)
            embedded = np.zeros((1 << n) ** 2, dtype=complex)
            embedded[pos] = v
            assert np.array_equal(embedded.reshape(1 << n, 1 << n),
                                  apply_unitary(eye, v, qubits, n))

    def test_cx_column_permutation_is_right_multiplication(self):
        v = _random_unitary(np.random.default_rng(5), 2)
        assert np.array_equal(v[:, _CX_COLS], v @ _CX)

    @pytest.mark.parametrize("m,q", [(0, 1), (0, 3), (4, 3), (7, 5)])
    def test_sweep_stack_holds_the_template_ops(self, m, q):
        # The q U3 ops, then per layer V = (u_a (x) u_b) . CX on its pair.
        t = ansatz(m, q)
        params = np.random.default_rng(m + q).uniform(-np.pi, np.pi, t.num_params)
        obj = _TraceObjective([t], [np.eye(1 << q)])
        obj.sweep([params])
        ops = obj.ops[:, 0]
        eye = np.eye(1 << q, dtype=complex)
        for qubit in range(q):
            u = u3_matrix(*params[3 * qubit:3 * qubit + 3])
            assert np.array_equal(ops[qubit], apply_unitary(eye, u, (qubit,), q))
        for layer, (a, b) in enumerate(t.cx_pairs):
            off = 3 * q + 6 * layer
            v = np.kron(u3_matrix(*params[off:off + 3]), u3_matrix(*params[off + 3:off + 6]))
            assert np.allclose(ops[q + layer], apply_unitary(eye, v @ _CX, (a, b), q),
                               rtol=0, atol=1e-15)


class TestOptimizeParams:
    def test_identity_target(self):
        t = ansatz(0, 1)
        _, hs = optimize_params(t, np.eye(2), FAST, seed=0)
        assert hs <= 1e-6

    def test_cnot_target_with_one_cx(self):
        t = ansatz(1, 2)
        target = unitary_of(Circuit(2, (cx(0, 1),)))
        _, hs = optimize_params(t, target, OptBudget(restarts=6, max_iters=150), seed=0)
        assert hs <= 1e-6

    def test_deterministic_given_seed(self):
        t = ansatz(1, 2)
        target = unitary_of(Circuit(2, (cx(0, 1), rx(0.7, 1))))
        p1, v1 = optimize_params(t, target, FAST, seed=5)
        p2, v2 = optimize_params(t, target, FAST, seed=5)
        assert np.array_equal(p1, p2) and v1 == v2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _TraceObjective([ansatz(0, 2)], [np.eye(2)])


def _op_positions(qubit_lists, k, first, n):
    """Flat positions of ops ``first, first + 1, ...`` in one fit's op stack, and their transposes."""
    out = np.empty((1 << max(n - k, 0), len(qubit_lists), 1 << k, 1 << k), dtype=np.intp)
    for g, qubits in enumerate(qubit_lists):
        out[:, g] = _embed_positions(tuple(qubits), n) + ((first + g) << (2 * n))
    return out, np.ascontiguousarray(out.swapaxes(2, 3))


class _PerFitObjective:
    """One fit's distance and exact gradient with one ``np.dot`` per op: the
    fitter's arithmetic without batches, which the batches must equal bit
    for bit."""

    def __init__(self, template, target):
        self.n = n = template.num_qubits
        self.dim = 1 << n
        self.target = np.ascontiguousarray(target, dtype=complex)
        self.num_ops = n + len(template.cx_pairs)
        self.u_pos, self.u_env = _op_positions([(q,) for q in range(n)], 1, 0, n)
        self.v_pos, self.v_env = _op_positions(template.cx_pairs, 2, n, n)

    def value(self, params):
        n, dim = self.n, self.dim
        ops = np.zeros((self.num_ops, dim, dim), dtype=complex)
        pre = np.empty((self.num_ops + 1, dim, dim), dtype=complex)
        pre[0] = np.eye(dim)
        u, u_pi = u3_matrices(params.reshape(-1, 3) + _THETA_SHIFT)
        v = (u[n::2, :, None, :, None] * u[n + 1::2, None, :, None, :]).reshape(-1, 4, 4)
        flat = ops.reshape(-1)
        flat[self.u_pos] = u[:n]
        flat[self.v_pos] = v[:, :, _CX_COLS]
        for g in range(self.num_ops):
            np.dot(ops[g], pre[g], out=pre[g + 1])
        t = np.vdot(self.target, pre[-1])
        self.state = u, u_pi, ops, pre, t
        return 1.0 - abs(t) / dim

    def value_and_grad(self, params):
        value = self.value(params)
        u, u_pi, ops, pre, t = self.state
        if t == 0:
            return value, np.zeros_like(params)
        n = self.n
        back = np.empty((self.num_ops + 1, self.dim, self.dim), dtype=complex)
        back[-1] = self.target.conj().T
        for g in range(self.num_ops - 1, 0, -1):
            np.dot(back[g + 1], ops[g], out=back[g])
        flat = np.matmul(pre[:-1], back[1:]).reshape(-1)
        env = np.empty_like(u)
        env[:n] = flat[self.u_env].sum(0)
        layer = flat[self.v_env].sum(0)[:, :, _CX_COLS].reshape(-1, 2, 2, 2, 2)
        env[n::2] = np.einsum("lijkm,ljm->lik", layer, u[n + 1::2])
        env[n + 1::2] = np.einsum("lijkm,lik->ljm", layer, u[n::2])
        w = env * u
        dt = np.stack([0.5 * (env * u_pi).sum((1, 2)),
                       1j * w[:, 1].sum(1), 1j * w[:, :, 1].sum(1)], axis=1)
        return value, -(np.conj(t) * dt).real.reshape(-1) / (abs(t) * self.dim)


def _reference_optimize(template, target, budget, seed, exits):
    """The fit as one loop over restarts, steps and halvings, on
    ``_PerFitObjective``, sweeping each point again for its gradient.
    Counts in ``exits`` how each restart ended, how many restarts ran, and
    the sweeps of starts and trials: the lockstep steps the fit spends in a
    batch."""
    obj = _PerFitObjective(template, target)
    value_of, value_and_grad = obj.value, obj.value_and_grad
    base_seed = list(np.atleast_1d(seed).astype(np.int64))
    best_params = None
    best_value = np.inf
    for r in range(budget.restarts):
        exits["restarts"] += 1
        rng = np.random.default_rng(base_seed + [r])
        params = rng.uniform(-np.pi, np.pi, template.num_params)
        value = value_of(params)
        exits["steps"] += 1
        step = 0.5
        for _ in range(budget.max_iters):
            if value < expand_module.FIT_TOL:
                exits["tol"] += 1
                break
            value, grad = value_and_grad(params)
            gsq = float(grad @ grad)
            if gsq < 1e-18:
                exits["gsq"] += 1
                break
            s = step
            improved = False
            for _ in range(30):
                trial = params - s * grad
                v_new = value_of(trial)
                exits["steps"] += 1
                if v_new < value - 1e-4 * s * gsq:
                    params, value = trial, v_new
                    improved = True
                    break
                s *= 0.5
            if not improved:
                exits["line_search"] += 1
                break
            step = min(s * 2.0, 2.0)
        else:
            exits["max_iters"] += 1
        if value < best_value:
            best_value, best_params = value, params.copy()
        if best_value < expand_module.FIT_TOL:
            break
    return best_params, float(best_value)


def _assert_same_fit(template, target, budget, seed, exits):
    params, value = optimize_params(template, target, budget, seed)
    ref_params, ref_value = _reference_optimize(template, target, budget, seed, exits)
    assert params.tobytes() == ref_params.tobytes()
    assert value == ref_value


class TestFitMatchesReference:
    """Fits return the reference loop's bytes on every exit, alone or in lockstep batches."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_random_targets(self, q):
        exits = Counter()
        budget = OptBudget(restarts=3, max_iters=6)
        for m in range(10 if q > 1 else 1):
            for seed in range(2):
                target = _random_unitary(np.random.default_rng([q, m, seed]), q)
                _assert_same_fit(ansatz(m, q), target, budget, [seed, m], exits)
        assert exits["max_iters"] > 0

    def test_tol_exit_skips_later_restarts(self):
        # An exactly reachable target: the first restart gets below tol.
        exits = Counter()
        _assert_same_fit(ansatz(0, 1), _exact_target(), OptBudget(restarts=3), 4, exits)
        assert exits["tol"] == 1 and exits["restarts"] == 1

    def test_zero_gradient_exit(self):
        # Tr(target^dag U) = 0 for every U: the gradient is zero where t = 0.
        exits = Counter()
        _assert_same_fit(ansatz(1, 2), np.zeros((4, 4)), OptBudget(restarts=3), 0, exits)
        assert exits["gsq"] == 3

    def test_failed_line_search_exit(self, monkeypatch):
        # With tol = 0 the descent runs until rounding in the distance, which
        # cannot fall below about 1e-16, stops the Armijo test from passing.
        exits = Counter()
        monkeypatch.setattr(expand_module, "FIT_TOL", 0.0)
        budget = OptBudget(restarts=3, max_iters=500)
        _assert_same_fit(ansatz(0, 1), _exact_target(), budget, 4, exits)
        assert exits["line_search"] == 3

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_batch_fits_equal_the_reference(self, q, monkeypatch):
        # One batch of m = 9..0 against four targets each.  At FIT_TOL fits
        # leave at max_iters, below tol and at zero gradients; with tol = 0
        # the near targets converge until the line search fails.
        batch_sizes = []
        sweep = _TraceObjective.sweep
        monkeypatch.setattr(_TraceObjective, "sweep",
                            lambda obj, points: batch_sizes.append(len(points)) or sweep(obj, points))
        exits = Counter()
        budget = OptBudget(restarts=3, max_iters=6)
        for tol in (expand_module.FIT_TOL, 0.0):
            monkeypatch.setattr(expand_module, "FIT_TOL", tol)
            templates, targets, seeds = [], [], []
            for m in range(9, -1, -1):
                t = ansatz(m, q)
                rng = np.random.default_rng([q, m])
                near = _start(t, [q, m, 2], 0) + 1e-8 * rng.normal(size=t.num_params)
                for kind, target in enumerate([
                        _random_unitary(rng, q),
                        unitary_of(t.instantiate(_start(t, [q, m, 1], 1))),  # restart 1 starts on it
                        unitary_of(t.instantiate(near)),
                        np.zeros((1 << q, 1 << q))]):  # t = 0 everywhere
                    templates.append(t)
                    targets.append(target)
                    seeds.append([q, m, kind])
            batch_sizes.clear()
            steps = []
            for t, target, seed, (params, value) in zip(
                    templates, targets, seeds, _fit_batch(templates, targets, seeds, budget)):
                fit_exits = Counter()
                ref_params, ref_value = _reference_optimize(t, target, budget, seed, fit_exits)
                assert params.tobytes() == ref_params.tobytes()
                assert value == ref_value
                steps.append(fit_exits.pop("steps"))
                exits.update(fit_exits)
            # Each fit sweeps once per step while in the batch and then leaves.
            assert batch_sizes == [sum(n > i for n in steps) for i in range(max(steps))]
            assert len(set(steps)) >= 4
        assert all(exits[kind] > 0 for kind in ("tol", "gsq", "line_search", "max_iters"))

    def test_expand_all_equals_a_per_block_loop_over_the_reference(self):
        circ = Circuit(6, (
            cx(0, 1), rx(0.3, 1), cx(1, 2), rx(0.5, 2), cx(2, 3), rx(0.7, 0), cx(0, 1),
            cx(4, 5), rx(0.2, 5), cx(3, 4), rx(0.4, 3), cx(4, 5),
            cx(0, 1), rx(0.6, 0), cx(1, 0),
        ))
        blocks = scan_partition(circ, 4)
        assert [len(b.qubits) for b in blocks] == [4, 3, 2]
        budget = OptBudget(restarts=2, max_iters=10)
        approx = expand_all(blocks, 6, 0.5, 5, budget)
        for block, cands in zip(blocks, approx.candidates):
            local = block.local_circuit
            target = unitary_of(local)
            expected = [(repr(local), repr(0.0), cnot_count(local))]
            for m in range(cnot_count(local)):
                t = ansatz(m, local.num_qubits)
                params, _ = _reference_optimize(t, target, budget, [5, block.id, m], Counter())
                fitted = t.instantiate(params)
                hs = hs_distance(target, unitary_of(fitted))
                if hs <= 0.5:
                    expected.append((repr(fitted), repr(hs), m))
            assert [(repr(c.local_circuit), repr(c.hs_distance), c.cnots) for c in cands] == expected
        assert approx.counts() == (2, 3, 2)  # some fits kept, some dropped


def _exact_target():
    t = ansatz(0, 1)
    return unitary_of(t.instantiate(np.random.default_rng(0).uniform(-np.pi, np.pi, t.num_params)))


def _start(template, seed, restart):
    """The point a fit with ``seed`` starts ``restart`` from."""
    rng = np.random.default_rng(list(seed) + [restart])
    return rng.uniform(-np.pi, np.pi, template.num_params)


class TestBatchPlan:
    def test_a_group_over_the_cap_is_split(self):
        templates = [ansatz(m, 3) for m in range(6)] + [ansatz(m, 2) for m in range(3)]
        cap = _stack_bytes(ansatz(5, 3), 3)
        # Widths apart, CX counts descending; three fits headed by m = 5 fill the cap.
        assert _plan_batches(templates, cap) == [[8, 7, 6], [5, 4, 3], [2, 1, 0]]

    def test_a_lone_fit_over_the_cap_runs_alone(self):
        templates = [ansatz(0, 4), ansatz(9, 4)]
        assert _plan_batches(templates, _stack_bytes(ansatz(0, 4), 1)) == [[1], [0]]

    def test_templates_whose_pairs_differ_run_apart(self):
        templates = [ansatz(2, 3), AnsatzTemplate(3, ((1, 2),))]
        assert _plan_batches(templates) == [[0], [1]]


class TestOptBudgetValidation:
    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0}, {"max_iters": -5}, {"restarts": 2.5}, {"max_iters": 10.5},
    ])
    def test_rejects_values_that_break_fitting(self, kwargs):
        with pytest.raises(ValueError):
            OptBudget(**kwargs)

    def test_zero_iterations_returns_the_first_start(self):
        t = ansatz(0, 1)
        params, _ = optimize_params(t, np.eye(2), OptBudget(restarts=1, max_iters=0), seed=2)
        start = np.random.default_rng([2, 0]).uniform(-np.pi, np.pi, t.num_params)
        assert np.array_equal(params, start)

    @pytest.mark.parametrize("kwargs", [{"expand_restarts": 0}, {"expand_max_iters": -1}])
    def test_run_config_rejects_a_bad_budget_when_built(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(circuits=[], **kwargs)


class TestExpandBlock:
    @pytest.mark.parametrize("kwargs, message", [
        ({"d_keep": -1.0}, "d_keep must be non-negative, got -1.0"),
        ({"d_keep": math.nan}, "d_keep must be non-negative, got nan"),
        ({"seed": -3}, "seed must be non-negative, got -3"),
    ])
    def test_rejects_what_expand_all_rejects(self, kwargs, message):
        blocks = scan_partition(Circuit(2, (cx(0, 1),)), 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            expand_block(blocks[0], **kwargs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            expand_all(blocks, 2, **kwargs)

    def test_cx_free_block_single_candidate(self):
        circ = Circuit(2, (rx(0.3, 0), rx(0.1, 1)))
        (block,) = scan_partition(circ, 2)
        cands = expand_block(block, 0.3, 0, FAST)
        assert len(cands) == 1
        assert cands[0].hs_distance == 0.0
        assert cands[0].local_circuit == block.local_circuit

    def test_lone_cnot_m0(self):
        # The best CX-free product unitary sits at hs = 1 - 1/sqrt(2), just
        # inside d_keep = 0.3 (the naive identity guess would be 0.5).
        (block,) = scan_partition(Circuit(2, (cx(0, 1),)), 2)
        target = unitary_of(block.local_circuit)
        assert hs_distance(target, np.eye(4)) == pytest.approx(0.5, abs=1e-12)
        cands = expand_block(block, 0.3, 0, FAST)
        assert len(cands) == 2
        assert cands[1].hs_distance == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-4)
        # A tighter threshold drops it.
        assert len(expand_block(block, 0.25, 0, FAST)) == 1

    def test_candidates_sorted_by_ascending_m(self):
        circ = Circuit(2, (cx(0, 1), rx(0.2, 0), cx(0, 1), rx(0.4, 1), cx(0, 1)))
        (block,) = scan_partition(circ, 2)
        cands = expand_block(block, 1.0, 0, FAST)  # keep everything
        assert cands[0].cnots == cnot_count(circ)
        assert [c.cnots for c in cands[1:]] == sorted(c.cnots for c in cands[1:])
        assert len(cands) == 1 + cnot_count(circ)

    def test_kept_candidates_respect_threshold(self):
        circ = Circuit(2, (cx(0, 1), rx(0.2, 0), cx(1, 0)))
        (block,) = scan_partition(circ, 2)
        for cand in expand_block(block, 0.3, 0, FAST)[1:]:
            assert cand.hs_distance <= 0.3
            # Stored distance is the true distance of the stored circuit.
            target = unitary_of(block.local_circuit)
            assert hs_distance(unitary_of(cand.local_circuit), target) == \
                pytest.approx(cand.hs_distance, abs=1e-9)


    def test_stored_distance_is_the_distance_table_entry(self):
        # recombine compares a solution's error with its distance from the
        # original; for a one-block substitution both must be the same number.
        circ = Circuit(3, (cx(0, 1), rx(0.2, 0), cx(1, 2), rx(0.4, 1), cx(0, 1), cx(1, 2)))
        (block,) = scan_partition(circ, 3)
        cands = expand_block(block, 1.0, 0, FAST)
        assert len(cands) == 5
        tables = ObjectiveTables.build(ApproximationSet(3, [block], [cands]))
        assert tables.pair_distances[0][0] == [cand.hs_distance for cand in cands]


class TestApproximationSet:
    def _make(self):
        circ = Circuit(3, (cx(0, 1), rx(0.5, 2), cx(1, 2)))
        blocks = scan_partition(circ, 2)
        return expand_all(blocks, 3, 0.4, 0, FAST)

    def test_counts_and_original_cnots(self):
        approx = self._make()
        assert len(approx.counts()) == len(approx.blocks)
        assert approx.original_cnots() == 2

    def test_save_load_round_trip(self, tmp_path):
        approx = self._make()
        score_candidates(approx, NoiseModel(p1=0.001, p2=0.01))
        path = tmp_path / "cache.json"
        approx.save(path)
        loaded = ApproximationSet.load(path)
        assert loaded.num_qubits == approx.num_qubits
        assert loaded.counts() == approx.counts()
        for orig_cands, new_cands in zip(approx.candidates, loaded.candidates):
            for a, b in zip(orig_cands, new_cands):
                assert a.local_circuit == b.local_circuit
                assert b.hs_distance == a.hs_distance
                assert b.fidelity_score == a.fidelity_score

    def test_score_candidates_fills_and_is_idempotent(self):
        approx = self._make()
        noise = NoiseModel(p1=0.001, p2=0.01)
        score_candidates(approx, noise)
        scores = [c.fidelity_score for cands in approx.candidates for c in cands]
        assert all(s is not None for s in scores)
        score_candidates(approx, noise)
        assert scores == [c.fidelity_score for cands in approx.candidates for c in cands]

    def test_blocks_score_under_the_noise_of_their_own_qubits(self):
        # Blocks on (0, 1), (2, 3), (0, 1), (2, 3): an override on qubits 2
        # and 3 reaches blocks 1 and 3 only, one on qubits 0 and 1 blocks 0
        # and 2 only.
        circ = Circuit(4, (rx(0.3, 0), cx(0, 1), rx(0.7, 1), cx(0, 1),
                           cx(2, 3), rx(0.4, 3), cx(3, 2),
                           cx(1, 0), rx(1.1, 0),
                           rx(0.9, 2), cx(2, 3), cx(3, 2)))
        blocks = scan_partition(circ, 2)
        assert [b.qubits for b in blocks] == [(0, 1), (2, 3), (0, 1), (2, 3)]
        approx = expand_all(blocks, 4, 0.4, 0, FAST)
        uniform = NoiseModel(p1=0.001, p2=0.01)

        def scores(noise):
            for cands in approx.candidates:
                for cand in cands:
                    cand.fidelity_score = None
            score_candidates(approx, noise)
            return [[c.fidelity_score for c in cands] for cands in approx.candidates]

        base = scores(uniform)
        for qubits in ((0, 1), (2, 3)):
            overrides = {q: (0.2, 0.3) for q in qubits}
            got = scores(NoiseModel(p1=0.001, p2=0.01, overrides=overrides))
            local = NoiseModel(p1=0.001, p2=0.01, overrides={0: (0.2, 0.3), 1: (0.2, 0.3)})
            for block, cands, row, before in zip(blocks, approx.candidates, got, base):
                if block.qubits == qubits:
                    assert all(x != y for x, y in zip(row, before)), qubits
                    assert row == [block_fidelity_score(c.local_circuit, block.local_circuit, local)
                                   for c in cands]
                else:
                    assert row == before, qubits
