"""Unit tests for the objective, its error metrics, the annealers and the
exact selection."""
import functools
import importlib
import inspect
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
import pytest

import peepopt.anneal as anneal_module
from peepopt.circuits import Circuit, cx, rx, rz, unitary_of
from peepopt.expand import ApproximationSet, Candidate, expand_all, OptBudget
from peepopt.partition import PartitionGraph, build_partition_graph, scan_partition
from peepopt.anneal import (
    AnnealerConfig,
    _member_rng,
    _sigma,
    decode,
    dual_anneal,
    population_anneal,
)
from peepopt.recombine import (
    CONFIGURATIONS,
    DUPLICATE_PENALTY,
    EARLY_TERMINATION_VALUE,
    GRADIENT_PENALTY_BASE,
    QUEST_THRESHOLD_PENALTY,
    EnumeratedObjective,
    Mode,
    ObjectiveConfig,
    ObjectiveTables,
    circuit_error_basic,
    circuit_error_cascade,
    differentiation,
    make_objective,
    objective,
    objective_tables,
    reassemble,
    recombine,
    recombine_iterative,
    recombine_population,
)

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

    def test_basic_error_adds_left_to_right(self):
        # Ten additions of 0.1 from the left give 0.9999999999999999; the
        # compensated float sum of Python 3.12 gives 1.0.
        approx = synthetic_set([[(0.1, 0, None, np.eye(2))]] * 10)
        space = EnumeratedObjective(approx, None, ObjectiveConfig())
        tables = ObjectiveTables.build(approx)
        sol = (0,) * 10
        assert space.basic.tolist() == [0.9999999999999999]
        assert circuit_error_basic(sol, approx) == tables.basic_error(sol) == space.basic[0]

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

    def test_cascade_rejects_tables_built_without_graph(self):
        approx = synthetic_set([
            [(0.0, 1, None, np.eye(2)), (0.1, 0, None, np.eye(2))],
            [(0.0, 1, None, np.eye(2))],
        ])
        graph = PartitionGraph(num_blocks=2, edges={(0, 1): 1})
        tables = ObjectiveTables.build(approx)
        with pytest.raises(ValueError, match="partition graph"):
            circuit_error_cascade((1, 0), approx, graph, tables)


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


    def test_cascade_tables_read_the_given_graph(self, monkeypatch):
        import peepopt.partition as partition_module
        approx, graph = _expanded("xy_4", 2, 3)
        expected = ObjectiveTables.build(approx, graph)
        assert expected.edge_distances
        monkeypatch.setattr(partition_module, "build_partition_graph", None)  # not built per edge
        assert ObjectiveTables.build(approx, graph) == expected

    def test_objective_unchanged_when_term_memo_overflows(self, monkeypatch):
        # f keeps at most three values, so its memo empties over and over.
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
            # Fixed others: the values fill the memo instead of being
            # dropped with the others.
            others = [draw() for _ in range(3)]
            for _ in range(40):
                sol = draw()
                assert f(sol, others) == objective(sol, others, approx, graph, cfg)

    def test_objective_memo_follows_others_changed_in_place(self, monkeypatch):
        # recombine_iterative appends each result to the list it passes as
        # others; a value kept for the shorter list must not come back.
        approx = synthetic_set([
            [(0.0, 2, None, np.eye(2)), (0.05, 1, None, X)],
            [(0.0, 2, None, np.eye(2)), (0.02, 1, None, np.eye(2))],
        ])
        cfg = ObjectiveConfig(epsilon=1.0, mode=Mode.BASIC)
        computed = []
        unbound = recombine_module.objective
        monkeypatch.setattr(recombine_module, "objective",
                            lambda *a: computed.append(a[0]) or unbound(*a))
        f = make_objective(approx, None, cfg)
        results = []
        first = f((1, 0), results)
        assert f((1, 0), results) == first and computed == [(1, 0)]
        results.append((1, 1))
        assert f((1, 0), results) == unbound((1, 0), [(1, 1)], approx, None, cfg) != first
        results.append((1, 0))
        assert f((1, 0), results) == DUPLICATE_PENALTY
        nested = [[0, 0]]
        assert f((1, 0), nested) == unbound((1, 0), [(0, 0)], approx, None, cfg)
        nested[0][0] = 1
        assert f((1, 0), nested) == DUPLICATE_PENALTY
        assert len(computed) == 5


def _reference_objective(sol, others, approx, graph, cfg):
    """The objective written from the candidates' own fields, with the mean
    fidelity score summed from the left."""
    from peepopt.circuits import hs_distance
    chosen = approx.chosen(sol)
    if not cfg.allow_duplicates and tuple(sol) in map(tuple, others):
        return DUPLICATE_PENALTY
    if cfg.mode is Mode.BASIC_ERR:
        g = functools.reduce(operator.add, (c.fidelity_score for c in chosen), 0.0) / len(chosen)
    else:
        err = (circuit_error_cascade(sol, approx, graph) if cfg.mode is Mode.CASCADE
               else circuit_error_basic(sol, approx))
        if err > cfg.epsilon:
            if cfg.mode is Mode.QUEST:
                return QUEST_THRESHOLD_PENALTY
            return err - cfg.epsilon + GRADIENT_PENALTY_BASE
        orig = approx.original_cnots()
        g = sum(c.cnots for c in chosen) / orig if orig else 0.0
    close = 0
    for s in others:
        d = sum(0.0 if i == j else hs_distance(cands[min(i, j)].unitary,
                                               cands[max(i, j)].unitary)
                for cands, i, j in zip(approx.candidates, sol, s))
        close += (d <= circuit_error_basic(sol, approx)
                  or d <= circuit_error_basic(s, approx))
    t = close / len(others) if others else 0.0
    return cfg.w * g + (1.0 - cfg.w) * t


class TestObjectiveMatchesReference:
    @pytest.mark.parametrize("p", [1, 5, 9, 70, 140])
    def test_bit_equal_in_every_mode(self, p):
        # Scores and distances of mixed magnitudes, so that the order of the
        # adds shows in the last bits.
        rng = np.random.default_rng(p)

        def small():
            return float(rng.uniform(0, 0.01) * 10.0 ** -int(rng.integers(4)))

        def score():
            return float(rng.uniform() * 10.0 ** -int(rng.integers(6)))

        rx3 = unitary_of(Circuit(1, (rx(0.3, 0),)))
        specs = [[(small(), 2, score(), np.eye(2))] for _ in range(p)]
        for b in rng.choice(p, min(p, 4), replace=False):
            specs[b] += [(small(), 1, score(), X), (small(), 0, score(), rx3)]
        approx = synthetic_set(specs)
        graph = build_partition_graph(approx.blocks)
        counts = approx.counts()

        def draw():
            return tuple(int(rng.integers(a)) for a in counts)

        for mode in Mode:
            for epsilon in (0.002, 1.0):
                cfg = ObjectiveConfig(epsilon=epsilon, mode=mode)
                f = make_objective(approx, graph, cfg)
                for _ in range(6):
                    sol = draw()
                    others = [draw() for _ in range(int(rng.integers(4)))]
                    want = _reference_objective(sol, others, approx, graph, cfg).hex()
                    assert objective(sol, others, approx, graph, cfg).hex() == want
                    assert f(sol, others).hex() == want, (mode, epsilon, sol, others)


class TestDifferentiation:
    def test_same_with_and_without_errors_handed_in(self):
        approx, _ = _expanded("qft_5", 3, 5)
        tables = ObjectiveTables.build(approx)
        rng = np.random.default_rng(3)

        def draw():
            return tuple(int(rng.integers(a)) for a in approx.counts())

        for _ in range(50):
            sol, others = draw(), [draw() for _ in range(int(rng.integers(1, 6)))]
            errors = [circuit_error_basic(s, approx) for s in others]
            want = differentiation(sol, others, approx)
            assert differentiation(sol, others, approx, tables) == want
            assert differentiation(sol, others, approx, tables, errors) == want

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

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_annealer_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
            AnnealerConfig(seed=seed)

    def test_annealer_accepts_a_seed_sequence(self):
        # The iterative engine derives one SeedSequence per run from the seed.
        AnnealerConfig(seed=np.random.SeedSequence([0, 3]))

    @pytest.mark.parametrize("max_iterations", [0, -5])
    def test_annealer_rejects_non_positive_iterations(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations"):
            AnnealerConfig(max_iterations=max_iterations)

    def test_default_iterations_scale_with_blocks(self):
        calls = []
        dual_anneal(lambda s: calls.append(s) or 0.0, (3, 3), AnnealerConfig(seed=0))
        # One start evaluation, then 1000 * p steps of 2p visits each.
        assert len(calls) == 1 + (1000 * 2) * (2 * 2)


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

    def test_population_rejects_initial_outside_box(self):
        f = lambda s, o: 0.0
        cfg = AnnealerConfig(max_iterations=5, seed=0)
        for point, block in (([-0.5, 7.0], 0), ([0.5, 7.0], 1), ([0.5, 3.0], 1),
                             ([np.nan, 1.0], 0)):
            with pytest.raises(ValueError, match=f"member 1 .* block {block}"):
                population_anneal(f, (3, 3), cfg, 2,
                                  initial=[np.array([0.5, 0.5]), np.array(point)])
        with pytest.raises(ValueError, match="member 0 has shape"):
            population_anneal(f, (3, 3), cfg, 1, initial=[np.array([0.5])])

    @pytest.mark.parametrize("bounds,block", [((0, 2), 0), ((3, 0), 1), ((2, -1), 1)])
    def test_bounds_below_one_rejected(self, bounds, block):
        calls = []
        cfg = AnnealerConfig(max_iterations=5, seed=0)
        with pytest.raises(ValueError, match=f"block {block} has"):
            dual_anneal(lambda s: calls.append(s) or 0.0, bounds, cfg)
        with pytest.raises(ValueError, match=f"block {block} has"):
            population_anneal(lambda s, o: calls.append(s) or 0.0, bounds, cfg, 2)
        assert calls == []

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

    def test_empty_set_rejected_by_every_configuration(self):
        approx = ApproximationSet(2, [], [])
        graph = build_partition_graph([])
        for name in CONFIGURATIONS:
            with pytest.raises(ValueError, match="need at least one block"):
                recombine(name, approx, graph, ObjectiveConfig(), AnnealerConfig(), 2)

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


# --- a plain per-visit reference of the annealer -------------------------------
# Each member draws a timestep's normals and uniforms when its turn comes;
# each visit computes its own steps from its slice of them with NumPy and
# wraps the coordinates it moved with np.mod.  The visiting scale
# (``_sigma``) is the annealer's.

_REF_TAIL_LIMIT = 1e8


def _ref_steps(normals, tails, lo, hi, temperature):
    """Steps lo .. hi - 1 of a member's timestep."""
    qv = anneal_module.Q_V
    n = len(normals) // 2
    x = normals[lo:hi] * _sigma(temperature)
    y = normals[n + lo : n + hi]
    visit = x / np.exp((qv - 1.0) * np.log(np.abs(y)) / (3.0 - qv))
    visit = np.where(visit > _REF_TAIL_LIMIT, _REF_TAIL_LIMIT * tails[lo:hi], visit)
    return np.where(visit < -_REF_TAIL_LIMIT, -_REF_TAIL_LIMIT * tails[n + lo : n + hi],
                    visit)


def _ref_temperature(step):
    t0, q_v = anneal_module.INITIAL_TEMPERATURE, anneal_module.Q_V
    s = float(step) + 2.0
    return t0 * (2.0 ** (q_v - 1.0) - 1.0) / (s ** (q_v - 1.0) - 1.0)


def _ref_accept(e_new, e_cur, temperature_step, uniform):
    q_a = anneal_module.Q_A
    if e_new <= e_cur:
        return True
    pqa = 1.0 - (1.0 - q_a) * (e_new - e_cur) / temperature_step
    if pqa <= 0.0:
        return False
    return uniform <= math.exp(math.log(pqa) / (1.0 - q_a))


def _ref_decode(x, bounds):
    return tuple(
        min(int(math.floor(v)), a - 1) for v, a in zip(np.asarray(x).tolist(), bounds)
    )


@dataclass
class _RefMember:
    x: np.ndarray
    rng: np.random.Generator
    e_cur: float
    best_x: np.ndarray
    best_e: float


def _ref_anneal(f, bounds, cfg, starts):
    lower, span = np.zeros(len(bounds)), np.array(bounds, dtype=float)
    p = len(bounds)
    n_steps = p * (p + 1)
    max_iterations = cfg.max_iterations or 1000 * p
    members = []
    snapshot = [_ref_decode(x0, bounds) for x0, _ in starts]
    for idx, (x0, rng) in enumerate(starts):
        e0 = f(snapshot[idx], snapshot[:idx] + snapshot[idx + 1 :])
        members.append(_RefMember(x0.copy(), rng, e0, x0.copy(), e0))
    since_restart = 0
    for it in range(max_iterations):
        temperature = _ref_temperature(since_restart)
        if temperature < anneal_module.INITIAL_TEMPERATURE * anneal_module.RESTART_TEMP_RATIO:
            for m in members:
                m.x = m.best_x.copy()
                m.e_cur = m.best_e
            since_restart = 0
            temperature = _ref_temperature(0)
        t_step = temperature / float(it + 1)
        snapshot = [_ref_decode(m.x, bounds) for m in members]
        for idx, m in enumerate(members):
            normals = m.rng.normal(size=2 * n_steps)
            uniforms = m.rng.uniform(size=2 * n_steps + 2 * p)
            tails = uniforms[: 2 * n_steps]
            others = snapshot[:idx] + snapshot[idx + 1 :]
            if len(members) > 1:
                m.e_cur = f(snapshot[idx], others)
                if m.e_cur < m.best_e:
                    m.best_x, m.best_e = m.x.copy(), m.e_cur
            for j in range(2 * p):
                x_visit = m.x.copy()
                if j < p:  # every coordinate, by steps j*p .. j*p + p - 1
                    moved = np.arange(p)
                    x_visit += _ref_steps(normals, tails, j * p, j * p + p, temperature)
                else:  # coordinate j - p, by step p*p + j - p
                    moved = np.array([j - p])
                    x_visit[moved] += _ref_steps(normals, tails, p * p + j - p,
                                                 p * p + j - p + 1, temperature)
                x_visit[moved] = np.mod(x_visit[moved] - lower[moved], span[moved]) + lower[moved]
                e_new = f(_ref_decode(x_visit, bounds), others)
                if e_new < m.best_e:
                    m.best_x, m.best_e = x_visit.copy(), e_new
                if _ref_accept(e_new, m.e_cur, t_step, uniforms[2 * n_steps + j]):
                    m.x, m.e_cur = x_visit, e_new
        since_restart += 1
    return [(_ref_decode(m.best_x, bounds), m.best_e) for m in members]


def test_schedule_is_scipy_dual_annealing_defaults():
    optimize = pytest.importorskip("scipy.optimize")
    defaults = inspect.signature(optimize.dual_annealing).parameters
    assert [defaults[name].default
            for name in ("initial_temp", "visit", "accept", "restart_temp_ratio")] == [
        anneal_module.INITIAL_TEMPERATURE, anneal_module.Q_V, anneal_module.Q_A,
        anneal_module.RESTART_TEMP_RATIO]


class TestAnnealerMatchesReference:
    """Same results and the same objective calls, in the same order, as the
    reference loop above."""

    # (max_iterations, schedule constants patched for the case)
    CONFIGS = (
        (30, {}),
        (12, {"INITIAL_TEMPERATURE": 5e7}),  # tail draws
        (30, {"RESTART_TEMP_RATIO": 0.5}),   # reanneals often
    )

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 6))
        bounds = tuple(int(a) for a in rng.integers(1, 6, size=p))
        if p > 1:
            bounds = bounds[:-1] + (1,)  # always one single-candidate block
        table = [rng.uniform(0.0, 1.0, size=a).round(1).tolist() for a in bounds]

        def make_f(calls):
            def f(sol, others):
                calls.append((sol, tuple(others)))
                return sum(table[b][c] for b, c in enumerate(sol)) + 0.5 * others.count(sol)
            return f
        return bounds, make_f

    @pytest.mark.parametrize("seed", range(6))
    def test_dual_anneal(self, seed, monkeypatch):
        bounds, make_f = self._problem(seed)
        for kw in self.CONFIGS:
            max_iterations, constants = kw
            with monkeypatch.context() as patch:
                for name, value in constants.items():
                    patch.setattr(anneal_module, name, value)
                cfg = AnnealerConfig(max_iterations=max_iterations, seed=seed)
                got_calls, want_calls = [], []
                got = dual_anneal(lambda s: make_f(got_calls)(s, []), bounds, cfg)
                rng = np.random.default_rng(cfg.seed)
                x0 = rng.uniform(np.zeros(len(bounds)), np.array(bounds, dtype=float))
                want = _ref_anneal(make_f(want_calls), bounds, cfg, [(x0, rng)])[0]
            assert got == want, kw
            assert got_calls == want_calls, kw

    @pytest.mark.parametrize("seed", range(6))
    def test_population_anneal(self, seed, monkeypatch):
        bounds, make_f = self._problem(100 + seed)
        for kw in self.CONFIGS:
            max_iterations, constants = kw
            with monkeypatch.context() as patch:
                for name, value in constants.items():
                    patch.setattr(anneal_module, name, value)
                cfg = AnnealerConfig(max_iterations=max_iterations, seed=seed)
                got_calls, want_calls = [], []
                got = population_anneal(make_f(got_calls), bounds, cfg, 3)
                setup = np.random.default_rng(cfg.seed)
                initial = [setup.uniform(np.zeros(len(bounds)), np.array(bounds, dtype=float))
                           for _ in range(3)]
                starts = [(x0, _member_rng(cfg.seed, x0)) for x0 in initial]
                want = _ref_anneal(make_f(want_calls), bounds, cfg, starts)
            assert got == want, kw
            assert got_calls == want_calls, kw


# --- exact selection over an enumerated space ---------------------------------

def _expanded(name, k, seed):
    """The golden tests' fits: one restart of 40 iterations, scored."""
    from peepopt.expand import score_candidates
    from peepopt.noise import NoiseModel
    from peepopt.qasm import parse_qasm
    from conftest import BENCHMARKS
    circ = parse_qasm((BENCHMARKS / f"{name}.qasm").read_text())
    blocks = scan_partition(circ, k)
    approx = expand_all(blocks, circ.num_qubits, 0.3, seed, OptBudget(1, 40))
    score_candidates(approx, NoiseModel(p1=0.001, p2=0.01))
    return approx, build_partition_graph(blocks)


REAL_SETS = {"xy_4_k2": ("xy_4", 2, 3), "qft_5_k3": ("qft_5", 3, 5)}


def _branch(value):
    if value == DUPLICATE_PENALTY:
        return "duplicate"
    if value == QUEST_THRESHOLD_PENALTY:
        return "threshold"
    return "gradient" if value >= GRADIENT_PENALTY_BASE else "main"


def _check_every_step(approx, graph, cfg, c):
    """Select c results exactly, holding every value of every step to
    objective(); returns the branches seen."""
    space = EnumeratedObjective(approx, graph, cfg)
    tables = objective_tables(approx, graph, cfg)
    sols = list(itertools.product(*map(range, approx.counts())))
    branches = set()
    for _ in range(c):
        values = space.values()
        want = [objective(s, space.results, approx, graph, cfg, tables) for s in sols]
        assert values.tolist() == want
        assert values.tobytes() == np.array(want).tobytes()  # signed zeros too
        branches.update(map(_branch, want))
        space.select(int(np.argmin(values)))
    return branches


def _annealed_iterative(approx, graph, obj_cfg, ann_cfg, c):
    """The iterative engine as it anneals, on the reference loop."""
    f = make_objective(approx, graph, obj_cfg)
    bounds = approx.counts()
    results = []
    for r in range(c):
        rng = np.random.default_rng(np.random.SeedSequence([ann_cfg.seed, r]))
        x0 = rng.uniform(np.zeros(len(bounds)), np.array(bounds, dtype=float))
        sol, value = _ref_anneal(lambda s, others: f(s, results), bounds, ann_cfg,
                                 [(x0, rng)])[0]
        if value > EARLY_TERMINATION_VALUE:
            break
        results.append(sol)
    return results


class TestExactSelection:
    @pytest.mark.parametrize("name", sorted(REAL_SETS))
    def test_values_equal_objective_on_real_fits(self, name):
        approx, graph = _expanded(*REAL_SETS[name])
        branches = set()
        for mode in Mode:
            branches |= _check_every_step(approx, graph, ObjectiveConfig(mode=mode), 4)
        assert branches == {"duplicate", "threshold", "gradient", "main"}

    def test_values_equal_objective_in_every_branch(self):
        rx3 = unitary_of(Circuit(1, (rx(0.3, 0),)))
        specs = [
            [(0.0, 2, 0.3, np.eye(2)), (0.03, 1, 0.1, X), (0.08, 0, 0.05, rx3)],
            [(0.0, 1, 0.2, np.eye(2)), (0.05, 0, 0.4, rx3)],
            [(0.0, 1, 0.25, np.eye(2)), (0.01, 1, 0.15, X), (0.2, 0, 0.01, np.eye(2))],
        ]
        approx = synthetic_set(specs)
        graph = build_partition_graph(approx.blocks)
        for mode in Mode:
            branches = _check_every_step(approx, graph, ObjectiveConfig(mode=mode), 6)
            want = {"duplicate", "main"} | {
                Mode.QUEST: {"threshold"}, Mode.BASIC: {"gradient"},
                Mode.CASCADE: {"gradient"}, Mode.BASIC_ERR: set()}[mode]
            assert branches == want, mode

    def test_many_blocks(self):
        # More blocks than NumPy has dimensions; the open grid that builds
        # the whole-space arrays has an axis only for the three blocks with
        # two candidates.
        rng = np.random.default_rng(8)
        def small():  # of mixed magnitudes, so that the order of adds shows
            return float(rng.uniform(0, 0.01) * 10.0 ** -int(rng.integers(4)))

        for p in (9, 70, 140):
            specs = [[(small(), 1, float(rng.uniform()), np.eye(2))] for _ in range(p)]
            for b in rng.choice(p, 3, replace=False):
                specs[b].append((small(), 0, float(rng.uniform()), X))
            approx = synthetic_set(specs)
            graph = build_partition_graph(approx.blocks)
            for mode in Mode:
                _check_every_step(approx, graph, ObjectiveConfig(mode=mode), 3)

    def test_distance_equal_to_the_error_counts_as_close(self):
        # Each candidate's error is its distance to candidate 0, so every
        # solution lies exactly at its own error from the first result.
        from peepopt.circuits import hs_distance
        us = [np.eye(2)] + [unitary_of(Circuit(1, (rx(t, 0),))) for t in (0.1, 0.25)]
        approx = synthetic_set([[(hs_distance(us[0], u), 0, None, u) for u in us]] * 3)
        cfg = ObjectiveConfig(epsilon=1.0, mode=Mode.BASIC)
        space = EnumeratedObjective(approx, None, cfg)
        assert space.select(int(np.argmin(space.values()))) == (0, 0, 0)
        values = space.values()
        assert values[0] == DUPLICATE_PENALTY and (values[1:] == 0.5).all()  # t = 1
        _check_every_step(approx, None, cfg, 3)

    def test_ties_take_the_first_solution_in_product_order(self):
        same = (0.0, 1, 0.5, np.eye(2))
        approx = synthetic_set([[same] * 2, [same] * 3])
        graph = build_partition_graph(approx.blocks)
        for name, (engine, _) in CONFIGURATIONS.items():
            if engine == "iterative":
                sols = recombine(name, approx, graph, ObjectiveConfig(),
                                 AnnealerConfig(seed=1), 4)
                assert sols == [(0, 0), (0, 1), (0, 2), (1, 0)], name

    @pytest.mark.parametrize("name", sorted(REAL_SETS))
    def test_never_fewer_results_than_the_annealer(self, name, monkeypatch):
        approx, graph = _expanded(*REAL_SETS[name])
        for mode in Mode:
            for epsilon in (0.02, 0.1):
                cfg = ObjectiveConfig(epsilon=epsilon, mode=mode)
                exact = recombine_iterative(approx, graph, cfg, AnnealerConfig(), 8)
                f = make_objective(approx, graph, cfg)
                for seed in range(2):
                    ann_cfg = AnnealerConfig(max_iterations=20, seed=seed)
                    with monkeypatch.context() as m:
                        m.setattr(recombine_module, "EXACT_SPACE_LIMIT", 0)
                        annealed = recombine_iterative(approx, graph, cfg, ann_cfg, 8)
                    assert len(exact) >= len(annealed), (mode, epsilon, seed)
                    # Both start from no results: the first pick is a minimum.
                    if annealed:
                        assert f(exact[0], []) <= f(annealed[0], [])

    def test_above_the_limit_anneals_as_before(self, monkeypatch):
        approx, graph = _expanded("qft_5", 3, 5)
        monkeypatch.setattr(recombine_module, "EXACT_SPACE_LIMIT",
                            math.prod(approx.counts()) - 1)
        for mode in Mode:
            cfg = ObjectiveConfig(mode=mode)
            ann_cfg = AnnealerConfig(max_iterations=15, seed=4)
            got = recombine_iterative(approx, graph, cfg, ann_cfg, 4)
            assert got == _annealed_iterative(approx, graph, cfg, ann_cfg, 4), mode

    def test_above_the_limit_without_patching(self, monkeypatch):
        # 17 blocks of two candidates: 2^17 solutions, so every engine
        # anneals on make_objective.
        rng = np.random.default_rng(17)
        specs = [[(0.0, 1, float(rng.uniform()), np.eye(2)),
                  (float(rng.uniform(0.01, 0.03)), 0, float(rng.uniform()), X)]
                 for _ in range(17)]
        approx = synthetic_set(specs)
        graph = build_partition_graph(approx.blocks)
        assert math.prod(approx.counts()) > recombine_module.EXACT_SPACE_LIMIT

        def not_enumerated(*args):
            raise AssertionError("EnumeratedObjective built")

        monkeypatch.setattr(recombine_module, "EnumeratedObjective", not_enumerated)
        cfg = ObjectiveConfig(epsilon=0.1)
        ann_cfg = AnnealerConfig(max_iterations=20, seed=3)
        for name, (engine, _) in CONFIGURATIONS.items():
            sols = recombine(name, approx, graph, cfg, ann_cfg, 3)
            assert sols == recombine(name, approx, graph, cfg, ann_cfg, 3), name
            if engine == "population":
                assert len(sols) == 3, name
            else:
                assert sols and len(set(sols)) == len(sols), name
            if name in ("quest", "basic"):
                assert max(circuit_error_basic(s, approx) for s in sols) <= cfg.epsilon

    def test_a_fitted_circuit_above_the_limit(self, monkeypatch):
        # Three Trotter steps of an 8-qubit transverse-field Ising model:
        # at k = 3, 20 fitted blocks and about 5e5 solutions, so cascade
        # tables and one-candidate blocks reach the annealer unpatched.
        from peepopt.expand import score_candidates
        from peepopt.noise import NoiseModel
        n = 8
        gates = []
        for _ in range(3):
            gates += [rx(0.3, q) for q in range(n)]
            for q in range(n - 1):
                gates += [cx(q, q + 1), rz(0.3, q + 1), cx(q, q + 1)]
        blocks = scan_partition(Circuit(n, tuple(gates)), 3)
        approx = expand_all(blocks, n, 0.3, 7, OptBudget(1, 30))
        score_candidates(approx, NoiseModel(p1=0.001, p2=0.01))
        graph = build_partition_graph(blocks)
        assert len(blocks) == 20 and 1 in approx.counts()
        assert math.prod(approx.counts()) > recombine_module.EXACT_SPACE_LIMIT

        def not_enumerated(*args):
            raise AssertionError("EnumeratedObjective built")

        monkeypatch.setattr(recombine_module, "EnumeratedObjective", not_enumerated)
        cfg = ObjectiveConfig(epsilon=0.1)
        ann_cfg = AnnealerConfig(max_iterations=20, seed=3)
        for name, (engine, _) in CONFIGURATIONS.items():
            sols = recombine(name, approx, graph, cfg, ann_cfg, 3)
            assert sols == recombine(name, approx, graph, cfg, ann_cfg, 3), name
            if engine == "population":
                assert len(sols) == 3, name
            else:
                # At 20 iterations an engine may find nothing within epsilon.
                assert len(set(sols)) == len(sols) <= 3, name
            if name in ("quest", "basic"):
                assert all(circuit_error_basic(s, approx) <= cfg.epsilon for s in sols)

    @pytest.mark.parametrize("name", sorted(REAL_SETS))
    def test_quest_and_basic_coincide(self, name):
        # No candidate has more CNOTs than its block's original, so every
        # unpenalized value is at most 1 and every penalty at least
        # GRADIENT_PENALTY_BASE: exact selection never picks a penalized
        # solution, whichever penalty the configuration gives it.
        approx, graph = _expanded(*REAL_SETS[name])
        assert all(c.cnots <= cands[0].cnots for cands in approx.candidates for c in cands)
        for epsilon in (0.02, 0.1, 1.0):
            cfg = ObjectiveConfig(epsilon=epsilon)
            quest, basic = (recombine(n, approx, graph, cfg, AnnealerConfig(), 8)
                            for n in ("quest", "basic"))
            assert quest and quest == basic, epsilon

    def test_exact_selection_needs_what_objective_needs(self):
        approx = synthetic_set([[(0.0, 1, None, np.eye(2)), (0.05, 0, None, X)]])
        with pytest.raises(ValueError, match="graph"):
            recombine_iterative(approx, None, ObjectiveConfig(mode=Mode.CASCADE),
                                AnnealerConfig(), 2)
        with pytest.raises(ValueError, match="score"):
            recombine_iterative(approx, None, ObjectiveConfig(mode=Mode.BASIC_ERR),
                                AnnealerConfig(), 2)


# --- the population engine's whole-space objective -----------------------------

LOOKUP_SETS = dict(REAL_SETS, adder_5_k4=("adder_5", 4, 7))


class TestWholeSpaceLookup:
    @staticmethod
    def _populations(sols, rng):
        """Others lists as the annealer hands them out: for each member of
        a snapshot, the other members' solutions; then the snapshot moves.
        c = 1 gives empty others, and repeated solutions come from members
        that share one."""
        for c in (1, 2, 3, 8):
            snapshot = [sols[0], sols[-1]] + [sols[i] for i in rng.integers(len(sols), size=c)]
            snapshot = snapshot[:c]
            if c > 2:
                snapshot[2] = snapshot[1]
            for _ in range(3):
                for idx in range(c):
                    yield snapshot[:idx] + snapshot[idx + 1 :]
                moved = int(rng.integers(c))
                snapshot[moved] = sols[int(rng.integers(len(sols)))]

    @pytest.mark.parametrize("name", sorted(LOOKUP_SETS))
    def test_equals_objective(self, name):
        approx, graph = _expanded(*LOOKUP_SETS[name])
        sols = list(itertools.product(*map(range, approx.counts())))
        rng = np.random.default_rng(len(sols))
        for mode in Mode:
            branches = set()
            for epsilon, allow in ((0.02, True), (0.1, True), (0.1, False)):
                cfg = ObjectiveConfig(epsilon=epsilon, mode=mode, allow_duplicates=allow)
                space = EnumeratedObjective(approx, graph, cfg)
                f = space.lookup()
                tables = objective_tables(approx, graph, cfg)

                def choice(sol):  # the blocks with more than one candidate
                    return tuple(sol[b] for b in space.free)
                for others in self._populations(sols, rng):
                    probe = [sols[0], sols[-1], *others]
                    probe += [sols[i] for i in rng.integers(len(sols), size=40)]
                    for sol in probe:
                        got = f(choice(sol), [*map(choice, others)])
                        want = objective(sol, others, approx, graph, cfg, tables)
                        assert np.float64(got).tobytes() == np.float64(want).tobytes()
                        branches.add(_branch(want))
            assert {"main", "duplicate"} <= branches, mode
            if mode is not Mode.BASIC_ERR:
                assert len(branches) == 3, mode  # and the penalized branch

    def test_population_engine_reads_the_arrays(self, monkeypatch):
        # Below the limit the population engine never calls objective();
        # its results equal those of the per-call objective above the limit.
        approx, graph = _expanded("qft_5", 3, 5)
        ann_cfg = AnnealerConfig(max_iterations=15, seed=4)
        for mode in (Mode.BASIC, Mode.BASIC_ERR):
            cfg = ObjectiveConfig(mode=mode)
            calls = []
            with monkeypatch.context() as m:
                m.setattr(recombine_module, "objective",
                          lambda *a, **k: calls.append(a) or objective(*a, **k))
                exact = recombine_population(approx, graph, cfg, ann_cfg, 4)
                assert calls == []
                m.setattr(recombine_module, "EXACT_SPACE_LIMIT", 0)
                annealed = recombine_population(approx, graph, cfg, ann_cfg, 4)
                assert calls
            assert exact == annealed, mode


class TestPopulationOverChoices:
    """The population engine anneals the blocks with more than one
    candidate only; every other block keeps candidate 0."""

    COUNTS = (1, 3, 1, 1, 2, 1)

    @staticmethod
    def _mixed_set(counts, seed=4):
        rng = np.random.default_rng(seed)

        def candidate():
            u = unitary_of(Circuit(1, (rx(float(rng.uniform(0, 3)), 0),)))
            return (float(rng.uniform(0, 0.05)), int(rng.integers(2)),
                    float(rng.uniform()), u)
        approx = synthetic_set([[candidate() for _ in range(a)] for a in counts])
        return approx, build_partition_graph(approx.blocks)

    @staticmethod
    def _record(monkeypatch):
        """Run the real population_anneal, recording its bounds, its config,
        every solution f is called with, and its output."""
        seen = dict(bounds=[], cfgs=[], calls=[], out=[])

        def recording(f, bounds, cfg, c):
            def counted(sol, others):
                seen["calls"].append(sol)
                return f(sol, others)
            seen["bounds"].append(tuple(bounds))
            seen["cfgs"].append(cfg)
            seen["out"].append(population_anneal(counted, bounds, cfg, c))
            return seen["out"][-1]
        monkeypatch.setattr(recombine_module, "population_anneal", recording)
        return seen

    def test_the_annealer_sees_only_the_blocks_with_a_choice(self, monkeypatch):
        approx, graph = self._mixed_set(self.COUNTS)
        ann_cfg = AnnealerConfig(max_iterations=20, seed=2)
        for mode in (Mode.BASIC, Mode.BASIC_ERR):
            cfg = ObjectiveConfig(epsilon=1.0, mode=mode)
            runs = []
            for limit in (recombine_module.EXACT_SPACE_LIMIT, 0):
                with monkeypatch.context() as m:
                    m.setattr(recombine_module, "EXACT_SPACE_LIMIT", limit)
                    seen = self._record(m)
                    sols = recombine_population(approx, graph, cfg, ann_cfg, 4)
                assert seen["bounds"] == [(3, 2)]
                assert {len(s) for s in seen["calls"]} == {2}
                # The annealer's bests, spread over all blocks.
                assert sols == [(0, b1, 0, 0, b4, 0) for (b1, b4), _ in seen["out"][0]]
                runs.append(sols)
            assert runs[0] == runs[1], mode

    def test_a_space_without_a_choice_is_not_annealed(self, monkeypatch):
        approx, graph = self._mixed_set((1, 1, 1))

        def fail(*args, **kwargs):
            raise AssertionError("annealed or scored")

        for name in ("population_anneal", "EnumeratedObjective", "make_objective", "objective"):
            monkeypatch.setattr(recombine_module, name, fail)
        for mode in (Mode.BASIC, Mode.BASIC_ERR):
            cfg = ObjectiveConfig(mode=mode)
            assert recombine_population(approx, graph, cfg, AnnealerConfig(), 5) == [(0, 0, 0)] * 5
            for c in (0, -1):
                with pytest.raises(ValueError, match="population size must be positive"):
                    recombine_population(approx, graph, cfg, AnnealerConfig(), c)

    def test_default_iterations_count_every_block(self, monkeypatch):
        # 1000 timesteps per block, all six counted; each of the c members
        # then visits 2L + 1 times per timestep for the L = 2 blocks with a
        # choice, after one evaluation of its start.
        approx, graph = self._mixed_set(self.COUNTS)
        seen = self._record(monkeypatch)
        c = 2
        recombine_population(approx, graph, ObjectiveConfig(epsilon=1.0),
                             AnnealerConfig(seed=1), c)
        assert seen["cfgs"][0].max_iterations == 1000 * len(self.COUNTS)
        assert len(seen["calls"]) == c + 1000 * len(self.COUNTS) * c * (2 * 2 + 1)
