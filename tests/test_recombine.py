"""Unit tests for the objective, its error metrics, and the annealers."""
import importlib

import numpy as np
import pytest

from peepopt.circuits import Circuit, cx, rx, rz, unitary_of
from peepopt.expand import ApproximationSet, Candidate, expand_all, OptBudget
from peepopt.partition import PartitionGraph, build_partition_graph, scan_partition
from peepopt.recombine import (
    CONFIGURATIONS,
    DUPLICATE_PENALTY,
    QUEST_THRESHOLD_PENALTY,
    AnnealerConfig,
    Mode,
    ObjectiveConfig,
    circuit_error_basic,
    circuit_error_cascade,
    decode,
    differentiation,
    dual_anneal,
    make_objective,
    objective,
    population_anneal,
    reassemble,
    recombine,
    recombine_iterative,
    recombine_population,
)
from peepopt.recombine import _Visitor

recombine_module = importlib.import_module("peepopt.recombine")

X = np.array([[0, 1], [1, 0]], dtype=complex)


def synthetic_set(specs):
    """Approximation set over single-qubit blocks with hand-chosen candidate
    data.  `specs[b]` lists (hs, cnots, score, unitary) per candidate."""
    n = len(specs)
    circ = Circuit(n, tuple(rx(0.1, q) for q in range(n)))
    blocks = scan_partition(circ, 1)
    candidates = [
        [
            Candidate(blocks[b].local_circuit, u, hs, cnots, score)
            for (hs, cnots, score, u) in block_specs
        ]
        for b, block_specs in enumerate(specs)
    ]
    return ApproximationSet(n, blocks, candidates)


class TestErrorMetrics:
    def test_basic_error_sums_cached_distances(self):
        approx = synthetic_set([
            [(0.0, 1, None, np.eye(2)), (0.07, 0, None, np.eye(2))],
            [(0.0, 2, None, np.eye(2)), (0.2, 1, None, np.eye(2))],
        ])
        assert circuit_error_basic((0, 0), approx) == 0.0
        assert circuit_error_basic((1, 0), approx) == pytest.approx(0.07, abs=1e-15)
        assert circuit_error_basic((1, 1), approx) == pytest.approx(0.27, abs=1e-15)

    def test_cascade_isolated_blocks_fall_back_to_own_distance(self):
        approx = synthetic_set([
            [(0.0, 1, None, np.eye(2)), (0.1, 0, None, np.eye(2))],
        ])
        graph = PartitionGraph(num_blocks=1, edges={})
        assert circuit_error_cascade((1,), approx, graph) == pytest.approx(0.1)

    def test_cascade_two_block_hand_value(self):
        # Two blocks on the same qubit pair, one edge of weight 2; the
        # pairwise distance feeds both block scores.
        circ = Circuit(2, (cx(0, 1), rx(3.0, 0), cx(1, 0)))
        blocks = scan_partition(circ, 2)
        blocks = [blocks[0]]  # rebuild a controlled 2-block layout below
        circ2 = Circuit(2, (cx(0, 1), rx(0.2, 0)))
        b = scan_partition(circ2, 2)[0]
        from dataclasses import replace as dc_replace
        b0 = dc_replace(b, id=0)
        b1 = dc_replace(b, id=1)
        u = unitary_of(b.local_circuit)
        alt = Circuit(2, (cx(0, 1), rx(0.9, 0)))
        v = unitary_of(alt)
        from peepopt.circuits import hs_distance
        approx = ApproximationSet(2, [b0, b1], [
            [Candidate(b.local_circuit, u, 0.0, 1),
             Candidate(alt, v, hs_distance(u, v), 1)],
            [Candidate(b.local_circuit, u, 0.0, 1)],
        ])
        graph = PartitionGraph(num_blocks=2, edges={(0, 1): 2})
        got = circuit_error_cascade((1, 0), approx, graph)
        # Oracle through a separate path: compose the pair circuits on the
        # union register and compare unitaries directly.
        from peepopt.circuits import compose
        orig_pair = unitary_of(compose([b.local_circuit, b.local_circuit],
                                       [(0, 1), (0, 1)], 2))
        new_pair = unitary_of(compose([alt, b.local_circuit],
                                      [(0, 1), (0, 1)], 2))
        d = hs_distance(orig_pair, new_pair)
        assert got == pytest.approx(2 * d, abs=1e-12)  # both blocks score d


class TestObjectiveTables:
    def test_bound_objective_matches_unbound_in_every_mode(self):
        # Three expanded blocks; the objective bound to tables built once
        # must agree with objective() building its own tables per call.
        circ = Circuit(3, (cx(0, 1), rx(0.3, 0), cx(1, 0), cx(1, 2), rz(0.5, 2),
                           cx(2, 1), cx(0, 2)))
        blocks = scan_partition(circ, 2)
        graph = build_partition_graph(blocks)
        approx = expand_all(blocks, 3, 1.0, 0, OptBudget(restarts=2, max_iters=40))
        from peepopt.expand import score_candidates
        from peepopt.noise import NoiseModel
        score_candidates(approx, NoiseModel(p1=0.001, p2=0.01))
        counts = approx.counts()
        assert len(counts) == 3 and max(counts) > 2
        rng = np.random.default_rng(4)

        def draw():
            return tuple(int(rng.integers(a)) for a in counts)

        for mode in Mode:
            for epsilon in (0.05, 1.0):
                cfg = ObjectiveConfig(epsilon=epsilon, mode=mode)
                f = make_objective(approx, graph, cfg)
                for _ in range(15):
                    sol = draw()
                    others = [draw() for _ in range(int(rng.integers(4)))]
                    assert f(sol, others) == objective(
                        sol, others, approx, graph, cfg), (mode, sol, others)


    def test_objective_unchanged_when_term_memo_overflows(self, monkeypatch):
        # A memo of three entries is emptied over and over within one call.
        monkeypatch.setattr(recombine_module, "TERM_MEMO_SIZE", 3)
        circ = Circuit(3, (cx(0, 1), rx(0.3, 0), cx(1, 0), cx(1, 2), rz(0.5, 2),
                           cx(2, 1), cx(0, 2)))
        blocks = scan_partition(circ, 2)
        graph = build_partition_graph(blocks)
        approx = expand_all(blocks, 3, 1.0, 0, OptBudget(restarts=2, max_iters=40))
        from peepopt.expand import score_candidates
        from peepopt.noise import NoiseModel
        score_candidates(approx, NoiseModel(p1=0.001, p2=0.01))
        rng = np.random.default_rng(6)

        def draw():
            return tuple(int(rng.integers(a)) for a in approx.counts())

        for mode in Mode:
            cfg = ObjectiveConfig(epsilon=1.0, mode=mode)
            f = make_objective(approx, graph, cfg)
            for _ in range(20):
                sol, others = draw(), [draw() for _ in range(5)]
                assert f(sol, others) == objective(sol, others, approx, graph, cfg)


class TestDifferentiation:
    def test_empty_others(self):
        approx = synthetic_set([[(0.0, 1, None, np.eye(2))]])
        assert differentiation((0,), [], approx) == 0.0

    def test_identical_solution_always_counts(self):
        approx = synthetic_set([
            [(0.0, 1, None, np.eye(2)), (0.05, 0, None, np.eye(2))],
        ])
        assert differentiation((1,), [(1,)], approx) == 1.0

    def test_far_solution_not_counted(self):
        # Candidates I and X are distance 1 apart, far above both errors.
        approx = synthetic_set([
            [(0.0, 1, None, np.eye(2)), (0.05, 0, None, X)],
        ])
        assert differentiation((1,), [(0,)], approx) == 0.0

    def test_fractional(self):
        approx = synthetic_set([
            [(0.0, 1, None, np.eye(2)), (0.05, 0, None, X)],
        ])
        assert differentiation((1,), [(0,), (1,)], approx) == 0.5


class TestObjective:
    def _approx(self):
        return synthetic_set([
            [(0.0, 2, 0.30, np.eye(2)), (0.05, 1, 0.10, np.eye(2))],
            [(0.0, 2, 0.20, np.eye(2)), (0.30, 0, 0.40, X)],
        ])

    def test_duplicate_penalty(self):
        cfg = ObjectiveConfig(mode=Mode.BASIC)
        assert objective((1, 0), [(1, 0)], self._approx(), None, cfg) == DUPLICATE_PENALTY

    def test_quest_threshold_constant(self):
        cfg = ObjectiveConfig(mode=Mode.QUEST)
        assert objective((0, 1), [], self._approx(), None, cfg) == QUEST_THRESHOLD_PENALTY

    def test_gradient_penalty(self):
        cfg = ObjectiveConfig(mode=Mode.BASIC)
        assert objective((0, 1), [], self._approx(), None, cfg) == pytest.approx(
            0.3 - 0.1 + 1.1, abs=1e-12)

    def test_basic_err_ignores_error_branch(self):
        cfg = ObjectiveConfig(mode=Mode.BASIC_ERR)
        got = objective((0, 1), [], self._approx(), None, cfg)
        assert got == pytest.approx(0.5 * (0.30 + 0.40) / 2, abs=1e-12)

    def test_basic_err_requires_scores(self):
        approx = synthetic_set([[(0.0, 1, None, np.eye(2))]])
        with pytest.raises(ValueError, match="score"):
            objective((0,), [], approx, None, ObjectiveConfig(mode=Mode.BASIC_ERR))

    def test_cnot_ratio_zero_when_original_has_none(self):
        approx = synthetic_set([[(0.0, 0, None, np.eye(2))]])
        got = objective((0,), [], approx, None, ObjectiveConfig(mode=Mode.BASIC))
        assert got == 0.0

    def test_cascade_requires_graph(self):
        with pytest.raises(ValueError, match="graph"):
            objective((0, 0), [], self._approx(), None,
                      ObjectiveConfig(mode=Mode.CASCADE))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ObjectiveConfig(w=1.5)
        with pytest.raises(ValueError):
            AnnealerConfig(q_v=3.5)


class TestAnnealerPrimitives:
    def test_decode_floor_and_clamp(self):
        assert decode(np.array([0.2, 1.9, 2.999]), (2, 2, 3)) == (0, 1, 2)
        assert decode(np.array([2.0]), (2,)) == (1,)  # clamped at the edge

    def test_constant_objective(self):
        sol, value = dual_anneal(lambda s: 0.25, (3, 3),
                                 AnnealerConfig(max_iterations=50, seed=0))
        assert value == 0.25
        assert all(0 <= c < 3 for c in sol)

    def test_trivial_bounds(self):
        sol, _ = dual_anneal(lambda s: float(sum(s)), (1, 1, 1),
                             AnnealerConfig(max_iterations=20, seed=0))
        assert sol == (0, 0, 0)

    def test_separable_optimum(self):
        rng = np.random.default_rng(0)
        table = rng.uniform(0.1, 1.0, size=(4, 3))
        table[np.arange(4), rng.integers(0, 3, 4)] = 0.0
        best = tuple(int(np.argmin(row)) for row in table)
        f = lambda s: float(sum(table[b][c] for b, c in enumerate(s)))
        sol, value = dual_anneal(f, (3, 3, 3, 3),
                                 AnnealerConfig(max_iterations=600, seed=1))
        assert sol == best and value == 0.0

    def test_deterministic_per_seed(self):
        f = lambda s: float(sum(s))
        cfg = AnnealerConfig(max_iterations=100, seed=9)
        assert dual_anneal(f, (4, 4), cfg) == dual_anneal(f, (4, 4), cfg)

    def test_single_deviate_matches_array_deviate(self):
        # Same value and same generator state after, tails included: at
        # high temperature most raw deviates pass the tail limit.
        visitor = _Visitor(2.62, np.zeros(3), np.array([2.0, 3.0, 4.0]))
        temps = np.random.default_rng(5).uniform(-3.0, 4.0, 400)
        for seed, log_t in enumerate(temps):
            r_one, r_arr = np.random.default_rng(seed), np.random.default_rng(seed)
            one = visitor._deviate_one(r_one, 10.0 ** log_t)
            arr = visitor._deviate(r_arr, 10.0 ** log_t, 1)
            assert one == arr[0]
            assert r_one.uniform() == r_arr.uniform()

    def test_dual_anneal_call_count(self):
        # One member: no per-timestep re-score, so one initial evaluation
        # plus 2p visits per iteration.
        calls = []
        f = lambda s: calls.append(s) or float(sum(s))
        dual_anneal(f, (3, 2, 4), AnnealerConfig(max_iterations=25, seed=2))
        assert len(calls) == 1 + 25 * 2 * 3

    def test_population_degenerate_bounds(self):
        out = population_anneal(lambda s, o: float(sum(s)), (1, 1),
                                AnnealerConfig(max_iterations=20, seed=0), 3)
        assert [sol for sol, _ in out] == [(0, 0)] * 3

    def test_population_permutation_symmetry(self):
        # Rearranged initial members produce the rearranged outputs.
        f = lambda s, o: float(sum(s))
        cfg = AnnealerConfig(max_iterations=60, seed=3)
        init = [np.array([0.4, 1.7]), np.array([2.3, 0.2]), np.array([1.1, 2.8])]
        a = population_anneal(f, (3, 3), cfg, 3, initial=list(init))
        b = population_anneal(f, (3, 3), cfg, 3, initial=[init[2], init[0], init[1]])
        assert [a[2], a[0], a[1]] == b


class TestEngines:
    def _approx_and_graph(self):
        circ = Circuit(3, (cx(0, 1), rx(0.4, 0), cx(1, 2), rx(0.2, 2), cx(0, 1)))
        blocks = scan_partition(circ, 2)
        graph = build_partition_graph(blocks)
        approx = expand_all(blocks, 3, 1.0, 0, OptBudget(restarts=2, max_iters=60))
        from peepopt.expand import score_candidates
        from peepopt.noise import NoiseModel
        score_candidates(approx, NoiseModel(p1=0.001, p2=0.01))
        return approx, graph

    def test_iterative_no_duplicates(self):
        approx, graph = self._approx_and_graph()
        cfg = AnnealerConfig(max_iterations=150, seed=0)
        sols = recombine_iterative(approx, graph, ObjectiveConfig(epsilon=1.0),
                                   cfg, 4)
        assert 1 <= len(sols) <= 4
        assert len(set(sols)) == len(sols)
        for sol in sols:
            assert all(0 <= c < a for c, a in zip(sol, approx.counts()))

    def test_iterative_early_termination_on_forced_duplicate(self):
        approx = synthetic_set([[(0.0, 1, None, np.eye(2))]])
        graph = PartitionGraph(num_blocks=1, edges={})
        sols = recombine_iterative(approx, graph, ObjectiveConfig(),
                                   AnnealerConfig(max_iterations=30, seed=0), 2)
        assert sols == [(0,)]

    def test_population_returns_exactly_c(self):
        approx, graph = self._approx_and_graph()
        sols = recombine_population(approx, graph, ObjectiveConfig(mode=Mode.BASIC),
                                    AnnealerConfig(max_iterations=150, seed=0), 5)
        assert len(sols) == 5

    def test_named_configurations(self):
        approx, graph = self._approx_and_graph()
        assert set(CONFIGURATIONS) == {
            "quest", "basic", "basic-err", "pop", "pop-err", "cascade"}
        for name in CONFIGURATIONS:
            sols = recombine(name, approx, graph, ObjectiveConfig(epsilon=1.0),
                             AnnealerConfig(max_iterations=80, seed=0), 3)
            assert sols, name
            for sol in sols:
                assert all(0 <= c < a for c, a in zip(sol, approx.counts()))

    def test_unknown_configuration(self):
        approx, graph = self._approx_and_graph()
        with pytest.raises(ValueError, match="unknown configuration"):
            recombine("nope", approx, graph, ObjectiveConfig(),
                      AnnealerConfig(), 2)

    def test_reassemble_original_solution(self):
        approx, graph = self._approx_and_graph()
        from peepopt.circuits import hs_distance
        circ = reassemble((0,) * len(approx.blocks), approx)
        original = Circuit(3, (cx(0, 1), rx(0.4, 0), cx(1, 2), rx(0.2, 2), cx(0, 1)))
        assert hs_distance(unitary_of(circ), unitary_of(original)) < 1e-10
