"""Candidate selection: objective configurations and engines.

A solution assigns one candidate index to every partition block.  Solutions
are scored by a three-part objective (approximation error, complexity or
noisy-fidelity reduction, differentiation from already-selected circuits)
that reads per-block tables built once per objective (``ObjectiveTables``).
The objective that ``make_objective`` returns also keeps, for the current
set of already-selected solutions, their errors and the values it has
computed, so a solution the annealer revisits is scored once while that set
stays the same.

Each value term (basic error, cascade error, complexity, penalty) is
written once, as a function of the tables and the choices.  On a space of
at most ``EXACT_SPACE_LIMIT`` solutions, ``EnumeratedObjective`` evaluates
the same functions on an open grid of every solution, so its arrays over
the whole space equal the objective bit for bit.  The population engine
anneals all c result circuits together (see ``anneal``) over the blocks
with more than one candidate only, and, on such a space, reads each value
from those arrays.  The iterative engine picks
one result circuit per step: it scores every solution of such a space at
once and takes the minimum, and on a larger space it anneals with a
single member.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from operator import add, getitem, mul
from typing import Callable, Sequence

import numpy as np

from .anneal import AnnealerConfig, Solution, dual_anneal, population_anneal
from .circuits import Circuit, compose, hs_distance
from .expand import ApproximationSet
from .partition import PartitionGraph, pair_embedding, pair_unitary

TERM_MEMO_SIZE = 1 << 12  # values f keeps for one set of others (under 1 MB)


class Mode(Enum):
    QUEST = "quest"
    BASIC = "basic"
    BASIC_ERR = "basic_err"
    CASCADE = "cascade"


# Penalty constants: duplicates beat every other branch; the QUEST
# over-threshold constant sits above the main-branch range [0, 1] and below
# the duplicate penalty.
DUPLICATE_PENALTY = 2.2
QUEST_THRESHOLD_PENALTY = 2.0
GRADIENT_PENALTY_BASE = 1.1


@dataclass(frozen=True)
class ObjectiveConfig:
    epsilon: float = 0.1
    w: float = 0.5
    mode: Mode = Mode.BASIC
    allow_duplicates: bool = False

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w must be in [0, 1], got {self.w}")


def pair_unitary_table(
    unitaries_i: Sequence[np.ndarray],
    unitaries_j: Sequence[np.ndarray],
    pos_i: tuple[int, ...],
    pos_j: tuple[int, ...],
    union_size: int,
) -> list[list[np.ndarray]]:
    """All cascaded pair unitaries for two candidate lists (used for
    precomputation; cost is linear in the number of pairs)."""
    return [
        [pair_unitary(ui, uj, pos_i, pos_j, union_size) for uj in unitaries_j]
        for ui in unitaries_i
    ]


def _fold(values) -> float:
    """Left-to-right float sum.  ``sum`` compensates its float additions
    from Python 3.12 on, which the whole-space arrays do not."""
    return reduce(add, values, 0.0)


@dataclass(frozen=True)
class ObjectiveTables:
    """Per-block tables the objective reads, computed once per objective.

    ``hs[b][c]``, ``cnots[b][c]`` and ``fidelity[b][c]`` are the HS
    distance, CNOT count and noisy fidelity score of candidate c of block
    b (``fidelity`` is None while any candidate is unscored);
    ``original_cnots`` is the original circuit's CNOT count.

    ``pair_distances[b][i][j]`` is the HS distance between candidates i and
    j of block b.  In cascade mode ``edge_distances[(i, j)][ci * a_j + cj]``
    is the HS distance of the cascaded pair unitary for edge (i, j) under
    choices (ci, cj) to the original pair, and ``incident[b]`` lists the
    ``(edge, weight, a_j)`` of the edges touching block b, a_j being the
    candidate count of block j.

    The term methods take the choices ``sol`` either as one solution's
    ints, on these list tables, or as an open grid of every solution, on
    ``as_arrays()``: ``np.ix_`` index arrays over the blocks with more than
    one candidate and 0 for the others.  Each term adds from the left in
    block order, so both forms give the same bits.
    """

    hs: tuple[tuple[float, ...], ...]
    cnots: tuple[tuple[int, ...], ...]
    fidelity: tuple[tuple[float, ...], ...] | None
    original_cnots: int
    pair_distances: tuple[list[list[float]], ...]
    edge_distances: dict[tuple[int, int], list[float]] | None = None
    incident: tuple[tuple[tuple[tuple[int, int], int, int], ...], ...] | None = None

    @classmethod
    def build(cls, approx: ApproximationSet,
              graph: PartitionGraph | None = None) -> "ObjectiveTables":
        """Candidate vectors and candidate-pair tables for every block; with
        a graph, also the cascade tables for every edge."""
        cands = approx.candidates
        hs = tuple(tuple(c.hs_distance for c in row) for row in cands)
        cnots = tuple(tuple(c.cnots for c in row) for row in cands)
        fidelity = tuple(tuple(c.fidelity_score for c in row) for row in cands)
        if any(s is None for row in fidelity for s in row):
            fidelity = None
        unitaries = [[c.unitary for c in row] for row in cands]
        pair_distances = []
        for us in unitaries:
            table = [[0.0] * len(us) for _ in us]
            for i, j in itertools.combinations(range(len(us)), 2):
                table[i][j] = table[j][i] = hs_distance(us[i], us[j])
            pair_distances.append(table)
        terms = (hs, cnots, fidelity, approx.original_cnots(), tuple(pair_distances))
        if graph is None:
            return cls(*terms)
        edge_distances = {}
        for i, j in graph.edges:
            union, pos_i, pos_j = pair_embedding(approx.blocks, i, j, graph.edges)
            pairs = pair_unitary_table(unitaries[i], unitaries[j], pos_i, pos_j, len(union))
            edge_distances[(i, j)] = [hs_distance(pairs[0][0], u) for row in pairs for u in row]
        incident = tuple(
            tuple((e, graph.edges[e], len(cands[e[1]])) for e in graph.incident(b))
            for b in range(len(approx.blocks))
        )
        return cls(*terms, edge_distances, incident)

    def as_arrays(self) -> "ObjectiveTables":
        """The same tables with every row an array, for an open grid of choices."""
        def rows(table):
            return None if table is None else tuple(map(np.array, table))
        edges = self.edge_distances
        return replace(
            self, hs=rows(self.hs), cnots=rows(self.cnots), fidelity=rows(self.fidelity),
            pair_distances=rows(self.pair_distances),
            edge_distances=None if edges is None else {e: np.array(t) for e, t in edges.items()})

    def basic_error(self, sol):
        """``circuit_error_basic`` of the choices, read from ``hs``."""
        return _fold(map(getitem, self.hs, sol))

    def cascade_error(self, sol):
        """``circuit_error_cascade`` of the choices."""
        if self.incident is None:
            raise ValueError("cascade error needs ObjectiveTables built with a partition graph")
        edges = self.edge_distances
        total = 0.0
        for b, incident in enumerate(self.incident):
            if not incident:
                total = total + self.hs[b][sol[b]]
                continue
            num = 0.0
            den = 0.0
            for (i, j), w, a_j in incident:
                num = num + w * edges[i, j][sol[i] * a_j + sol[j]]
                den += w
            total = total + num / den
        return total

    def error(self, sol, mode: Mode):
        """The error that ``epsilon`` caps under ``mode``."""
        return self.cascade_error(sol) if mode is Mode.CASCADE else self.basic_error(sol)

    def complexity(self, sol, mode: Mode):
        """The mean fidelity score in ``BASIC_ERR`` mode, else the CNOT
        count over the original's (0 when the original has none)."""
        if mode is Mode.BASIC_ERR:
            return _fold(map(getitem, self.fidelity, sol)) / len(sol)
        orig = self.original_cnots
        return sum(map(getitem, self.cnots, sol)) / orig if orig else 0.0


def _penalty(err, cfg: ObjectiveConfig):
    """The value of a solution whose error is over ``epsilon``."""
    if cfg.mode is Mode.QUEST:
        return QUEST_THRESHOLD_PENALTY
    return err - cfg.epsilon + GRADIENT_PENALTY_BASE


def objective_tables(approx: ApproximationSet, graph: PartitionGraph | None,
                     cfg: ObjectiveConfig) -> ObjectiveTables:
    """The tables the objective under ``cfg`` reads: with the cascade tables
    in cascade mode, which needs a graph, and with every fidelity score in
    ``BASIC_ERR`` mode."""
    if cfg.mode is Mode.CASCADE and graph is None:
        raise ValueError("cascade mode requires a partition graph")
    tables = ObjectiveTables.build(approx, graph if cfg.mode is Mode.CASCADE else None)
    if cfg.mode is Mode.BASIC_ERR and tables.fidelity is None:
        raise ValueError("fidelity scores not cached; run score_candidates first")
    return tables


def circuit_error_basic(sol: Solution, approx: ApproximationSet) -> float:
    """Sum of chosen-candidate HS distances: the paper's additive estimate of
    the full-circuit process distance.  The sum is not an upper bound on that
    distance; the bound that holds is (sum of sqrt(d_b))^2."""
    return _fold(approx.candidates[b][c].hs_distance for b, c in enumerate(sol))


def circuit_error_cascade(
    sol: Solution, approx: ApproximationSet, graph: PartitionGraph,
    tables: ObjectiveTables | None = None,
) -> float:
    """Per-block weighted average of incident pair distances, summed over
    blocks; isolated blocks fall back to their own HS distance.  Tables
    passed in must have been built with a partition graph."""
    if tables is None:
        tables = ObjectiveTables.build(approx, graph)
    return tables.cascade_error(sol)


def differentiation(
    sol: Solution,
    others: Sequence[Solution],
    approx: ApproximationSet,
    tables: ObjectiveTables | None = None,
    errors: Sequence[float] | None = None,
) -> float:
    """Fraction of existing solutions that the candidate fails to differ
    from: one counts when its distance to the candidate, the sum of the
    per-block candidate distances, is no more than the larger of the two
    approximation errors.  Empty existing set scores 0.  ``errors`` may
    hand in the basic errors of ``others``, in order."""
    if not others:
        return 0.0
    if tables is None:
        tables = ObjectiveTables.build(approx)
    if errors is None:
        errors = [*map(tables.basic_error, others)]
    # Row of each block's distance table for the candidate's choice; the
    # distance sums in block order, so verdicts at equality do not move.
    rows = [table[c] for table, c in zip(tables.pair_distances, sol)]
    e_sol = tables.basic_error(sol)
    close = 0
    for s, e in zip(others, errors):
        d = _fold(map(getitem, rows, s))
        close += d <= e_sol or d <= e
    return close / len(others)


def spread(choice: Solution, blocks: Sequence[int], num_blocks: int) -> Solution:
    """The solution with ``choice`` at ``blocks`` and candidate 0 elsewhere."""
    sol = [0] * num_blocks
    for b, c in zip(blocks, choice):
        sol[b] = c
    return tuple(sol)


def reassemble_all(solutions: Sequence[Solution], approx: ApproximationSet) -> list[Circuit]:
    """Full circuit of each solution: its chosen candidates composed in block
    order.  Each chosen (block, candidate) is remapped to global qubits once,
    so the circuits share its ``Gate`` objects."""
    remapped, circuits = {}, []
    for sol in solutions:
        gates = []
        for b, c in enumerate(sol):
            if (b, c) not in remapped:
                cand = approx.candidates[b][c]
                remapped[b, c] = compose([cand.local_circuit], [approx.blocks[b].qubits],
                                         approx.num_qubits).gates
            gates += remapped[b, c]
        circuits.append(Circuit(approx.num_qubits, gates))
    return circuits


def reassemble(sol: Solution, approx: ApproximationSet) -> Circuit:
    """Full circuit for a solution: ``reassemble_all`` of one."""
    return reassemble_all([sol], approx)[0]


def objective(
    sol: Solution,
    others: Sequence[Solution],
    approx: ApproximationSet,
    graph: PartitionGraph | None,
    cfg: ObjectiveConfig,
    tables: ObjectiveTables | None = None,
    errors: Sequence[float] | None = None,
) -> float:
    """Annealing objective: duplicate check, then error threshold, then the
    weighted complexity/differentiation score.  Builds ``objective_tables``
    and the basic ``errors`` of ``others`` when they are not handed in."""
    sol = tuple(sol)
    if not cfg.allow_duplicates and any(tuple(s) == sol for s in others):
        return DUPLICATE_PENALTY
    if tables is None:
        tables = objective_tables(approx, graph, cfg)
    if cfg.mode is not Mode.BASIC_ERR:
        err = tables.error(sol, cfg.mode)
        if err > cfg.epsilon:
            return _penalty(err, cfg)
    g = tables.complexity(sol, cfg.mode)
    t = differentiation(sol, others, approx, tables, errors)
    return cfg.w * g + (1.0 - cfg.w) * t


def make_objective(
    approx: ApproximationSet,
    graph: PartitionGraph | None,
    cfg: ObjectiveConfig,
) -> Callable[[Solution, Sequence[Solution]], float]:
    """Build the tables once and return f(solution, others) -> value.

    f keeps the basic errors of the current ``others`` and the values it
    computed against them, compared by value on every call, so ``others``
    may be a list its caller appends to.  Both are dropped when ``others``
    changes; the values also when they reach ``TERM_MEMO_SIZE`` entries.
    """
    tables = objective_tables(approx, graph, cfg)
    values: dict[Solution, float] = {}
    values_for: tuple = ()  # the others that ``values`` were computed with
    errors: list[float] = []  # their basic errors

    def f(sol, others):
        nonlocal values_for, errors
        sol = tuple(sol)
        current = tuple([*map(tuple, others)])  # from a list: see decode
        if current != values_for:
            values.clear()
            values_for = current
            errors = [*map(tables.basic_error, current)]
        value = values.get(sol)
        if value is None:
            if len(values) >= TERM_MEMO_SIZE:
                values.clear()
            value = values[sol] = objective(sol, current, approx, graph, cfg, tables, errors)
        return value
    return f


# --- exact selection over an enumerated space --------------------------------

EXACT_SPACE_LIMIT = 1 << 16  # largest choice space the iterative engine enumerates


class EnumeratedObjective:
    """The objective at every solution of a choice space, against a growing
    list of selected results.

    Solutions are numbered in ``itertools.product`` order.  The
    per-solution terms are arrays over the whole space, built once by the
    term methods of ``ObjectiveTables`` that ``objective`` calls, on an
    open grid of every solution in place of one solution's ints; so
    ``values()[n]`` equals ``objective(solution n, results, ...)`` bit for
    bit.  Each selected result adds its close column (``_close_column``)
    to a running count of differentiation hits.  ``lookup`` reads the
    same arrays one solution at a time.

    The grid's axes, ``free``, are the blocks with more than one
    candidate; a choice vector holds one index per such block, numbered
    by their ``strides``.  Every other block's one candidate, 0, has the
    distance table ``[[0.0]]`` and adds nothing.
    """

    def __init__(self, approx: ApproximationSet, graph: PartitionGraph | None,
                 cfg: ObjectiveConfig):
        tables = objective_tables(approx, graph, cfg).as_arrays()
        counts = approx.counts()
        self.num_blocks = len(counts)
        self.free = [b for b, a in enumerate(counts) if a > 1]
        self.shape = shape = [counts[b] for b in self.free]
        self.strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
        self.cfg = cfg
        axes = iter(np.ix_(*map(range, shape)))
        grid = tuple(next(axes) if a > 1 else 0 for a in counts)

        def over_space(term):  # flat, in itertools.product order
            return np.broadcast_to(term, shape).ravel()

        self.pair = [tables.pair_distances[b] for b in self.free]
        self.basic = over_space(tables.basic_error(grid))
        err = over_space(tables.error(grid, cfg.mode))
        self.penalized = (err > cfg.epsilon) & (cfg.mode is not Mode.BASIC_ERR)  # no gate there
        self.penalty = _penalty(err, cfg)
        self.weighted = over_space(cfg.w * tables.complexity(grid, cfg.mode))
        self.close = np.zeros(self.basic.size)  # counts of results each solution is close to
        self.results: list[Solution] = []
        self.indices: list[int] = []

    def values(self) -> np.ndarray:
        """Objective value of every solution against the selected results."""
        value = self.close / max(len(self.results), 1)
        value *= 1.0 - self.cfg.w
        value += self.weighted
        np.copyto(value, self.penalty, where=self.penalized)
        if self.indices and not self.cfg.allow_duplicates:
            value[self.indices] = DUPLICATE_PENALTY
        return value

    def select(self, index: int) -> Solution:
        """Add solution number ``index`` to the results and return it."""
        # Python ints: np.unravel_index stops at 64 blocks.
        choice = tuple(index // s % a for s, a in zip(self.strides, self.shape))
        self.close[self._close_column(choice)] += 1.0
        sol = spread(choice, self.free, self.num_blocks)
        self.results.append(sol)
        self.indices.append(index)
        return sol

    def _close_column(self, choice: Solution) -> np.ndarray:
        """Which solutions ``differentiation`` counts as close to ``choice``:
        their distance to it is at most either basic error.  The distances
        are outer sums of the blocks' distance columns in block order, so
        each is added from the left as ``differentiation`` adds it."""
        d = 0.0
        for table, c in zip(self.pair, choice):
            d = np.add.outer(d, table[:, c]).ravel()
        return (d <= self.basic) | (d <= self.basic[sum(map(mul, choice, self.strides))])

    def lookup(self) -> Callable[[Solution, list[Solution]], float]:
        """f(choice, others) -> value, read from the arrays at the choice
        vector's flat index; the others are choice vectors too.  The value
        equals ``objective`` of the ``spread`` solutions bit for bit.

        The differentiation term adds one byte per other solution, read
        from that solution's close column.  Columns are kept for the
        current and the previous ``others`` only: a population's members
        see others that differ in one solution, so each member moved since
        the last timestep costs one column.  ``others``, a list of
        tuples, is compared by value on every call.
        """
        strides = self.strides
        weighted = self.weighted.tolist()
        fixed = np.where(self.penalized, self.penalty, None).tolist()  # the penalized values
        scale = 1.0 - self.cfg.w
        allow_duplicates = self.cfg.allow_duplicates
        held: list[Solution] = []
        columns: dict[Solution, bytes] = {}
        reads: list[bytes] = []

        def f(sol, others):
            nonlocal held, columns, reads
            if others != held:
                previous, held = held, [*map(tuple, others)]
                columns = {s: columns[s] if s in columns else self._close_column(s).tobytes()
                           for s in previous + held}
                reads = [columns[s] for s in held]
            if not allow_duplicates and tuple(sol) in held:
                return DUPLICATE_PENALTY
            n = sum(map(mul, sol, strides))
            value = fixed[n]
            if value is not None:
                return value
            close = 0
            for column in reads:
                close += column[n]
            return weighted[n] + scale * (close / len(reads) if reads else 0.0)
        return f


# --- engines ------------------------------------------------------------------

EARLY_TERMINATION_VALUE = 1.0  # best stuck in a penalty branch => stop


def recombine_iterative(
    approx: ApproximationSet,
    graph: PartitionGraph | None,
    obj_cfg: ObjectiveConfig,
    ann_cfg: AnnealerConfig,
    c: int,
) -> list[Solution]:
    """One result circuit per step, differentiating against the results
    selected so far; stops early once only penalized solutions remain.

    A space of at most ``EXACT_SPACE_LIMIT`` solutions is scored whole at
    every step and the first minimum in ``itertools.product`` order is
    taken, so ``ann_cfg`` is not used.  A larger space gets one annealing
    run per result.
    """
    if c < 1:
        raise ValueError(f"need at least one result circuit, got {c}")
    if math.prod(approx.counts()) <= EXACT_SPACE_LIMIT:
        space = EnumeratedObjective(approx, graph, obj_cfg)
        for _ in range(c):
            values = space.values()
            best = int(np.argmin(values))
            if values[best] > EARLY_TERMINATION_VALUE:
                break
            space.select(best)
        return space.results
    f = make_objective(approx, graph, obj_cfg)
    results: list[Solution] = []
    for r in range(c):
        run_cfg = replace(ann_cfg, seed=np.random.SeedSequence([ann_cfg.seed, r]))
        sol, value = dual_anneal(lambda s: f(s, results), approx.counts(), run_cfg)
        if value > EARLY_TERMINATION_VALUE:
            break
        results.append(sol)
    return results


def recombine_population(
    approx: ApproximationSet,
    graph: PartitionGraph | None,
    obj_cfg: ObjectiveConfig,
    ann_cfg: AnnealerConfig,
    c: int,
) -> list[Solution]:
    """Population engine: c members annealed together, duplicates allowed.

    The members anneal over the blocks with more than one candidate only;
    every other block keeps its one candidate, 0, and a space without a
    choice gives c copies of that solution.  A ``max_iterations`` of None
    still means 1000 per block, all blocks counted.  On a space of at most
    ``EXACT_SPACE_LIMIT`` solutions the objective is read from whole-space
    arrays (``EnumeratedObjective.lookup``)."""
    if c < 1:
        raise ValueError(f"population size must be positive, got {c}")
    obj_cfg = replace(obj_cfg, allow_duplicates=True)
    counts = approx.counts()
    free = [b for b, a in enumerate(counts) if a > 1]
    if not free:
        return [(0,) * len(counts)] * c
    if ann_cfg.max_iterations is None:
        ann_cfg = replace(ann_cfg, max_iterations=1000 * len(counts))
    if math.prod(counts) <= EXACT_SPACE_LIMIT:
        f = EnumeratedObjective(approx, graph, obj_cfg).lookup()
    else:
        whole = make_objective(approx, graph, obj_cfg)

        def f(choice, others):
            return whole(spread(choice, free, len(counts)),
                         [spread(s, free, len(counts)) for s in others])
    out = population_anneal(f, [counts[b] for b in free], ann_cfg, c)
    return [spread(sol, free, len(counts)) for sol, _ in out]


# Named configurations: (engine, mode).  Only the population engine allows
# duplicate results.
CONFIGURATIONS: dict[str, tuple[str, Mode]] = {
    "quest": ("iterative", Mode.QUEST),
    "basic": ("iterative", Mode.BASIC),
    "basic-err": ("iterative", Mode.BASIC_ERR),
    "pop": ("population", Mode.BASIC),
    "pop-err": ("population", Mode.BASIC_ERR),
    "cascade": ("iterative", Mode.CASCADE),
}


def recombine(
    name: str,
    approx: ApproximationSet,
    graph: PartitionGraph,
    obj_cfg: ObjectiveConfig,
    ann_cfg: AnnealerConfig,
    c: int,
) -> list[Solution]:
    """Run one of the six named recombination configurations."""
    try:
        engine, mode = CONFIGURATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown configuration '{name}'; choose from {sorted(CONFIGURATIONS)}"
        ) from None
    if not approx.blocks:
        raise ValueError("need at least one block")
    # recombine_population turns duplicates back on for its engine.
    cfg = replace(obj_cfg, mode=mode, allow_duplicates=False)
    if engine == "iterative":
        return recombine_iterative(approx, graph, cfg, ann_cfg, c)
    return recombine_population(approx, graph, cfg, ann_cfg, c)
