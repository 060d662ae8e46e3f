"""Candidate selection: objective configurations and annealing engines.

A solution assigns one candidate index to every partition block.  Solutions
are scored by a three-part objective (approximation error, complexity or
noisy-fidelity reduction, differentiation from already-selected circuits)
that reads distance tables built once per objective.  The objective that
``make_objective`` returns also keeps its values for the current set of
already-selected solutions, so a solution the annealer revisits is scored
once while that set stays the same.  One generalized simulated-annealing
loop explores the choice space: the population engine runs it with all c
result circuits as members, updated together in each timestep; the
iterative engine runs it once per result circuit with a single member.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .circuits import Circuit, compose, hs_distance
from .expand import ApproximationSet
from .partition import PartitionGraph, pair_embedding, pair_unitary

Solution = tuple  # choice vector: candidate index per block

TERM_MEMO_SIZE = 1 << 12  # entries kept by each memo of the objective (under 1 MB)


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
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w must be in [0, 1], got {self.w}")


@dataclass(frozen=True)
class AnnealerConfig:
    max_iterations: int | None = None  # defaults to 1000 * num_blocks
    initial_temperature: float = 5230.0
    q_v: float = 2.62
    q_a: float = -5.0
    restart_temp_ratio: float = 2e-5
    seed: int = 0

    def __post_init__(self):
        if not 1.0 < self.q_v < 3.0:
            raise ValueError(f"q_v must be in (1, 3), got {self.q_v}")
        if self.initial_temperature <= 0:
            raise ValueError(
                f"initial_temperature must be positive, got {self.initial_temperature}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


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


@dataclass(frozen=True)
class ObjectiveTables:
    """Distances the objective reads, computed once per objective and never
    written afterwards, plus a memo of per-solution terms.

    ``pair_distances[b][i][j]`` is the HS distance between candidates i and
    j of block b.  In cascade mode ``edge_distances[e][ci][cj]`` is the HS
    distance of the cascaded pair unitary for edge e under choices
    (ci, cj) to the original pair, and ``incident[b]`` lists the
    ``(edge, weight)`` pairs touching block b.

    ``solution_terms`` is the one mutable part: one memo per term that
    depends on a single solution (its basic or cascade error, CNOT ratio
    and mean fidelity score), keyed by the solution.  The annealer revisits
    the same few solutions many times, also after the already-selected
    solutions change; the memo returns the value computed on the first
    visit, so objective values do not change.
    """

    pair_distances: tuple[list[list[float]], ...]
    edge_distances: dict[tuple[int, int], list[list[float]]] | None = None
    incident: tuple[tuple[tuple[tuple[int, int], int], ...], ...] | None = None
    solution_terms: defaultdict = field(default_factory=lambda: defaultdict(dict),
                                        compare=False, repr=False)

    def term(self, name: str, sol: Solution, compute: Callable[[], float]) -> float:
        """Memoized ``compute()`` of term ``name`` for one solution; each
        term's memo is emptied when it reaches ``TERM_MEMO_SIZE`` entries."""
        memo = self.solution_terms[name]
        value = memo.get(sol)
        if value is None:
            if len(memo) >= TERM_MEMO_SIZE:
                memo.clear()
            value = memo[sol] = compute()
        return value

    @classmethod
    def build(cls, approx: ApproximationSet,
              graph: PartitionGraph | None = None) -> "ObjectiveTables":
        """Candidate-pair tables for every block; with a graph, also the
        cascade tables for every edge."""
        unitaries = [[c.unitary for c in cands] for cands in approx.candidates]
        pair_distances = []
        for us in unitaries:
            table = [[0.0] * len(us) for _ in us]
            for i, j in itertools.combinations(range(len(us)), 2):
                table[i][j] = table[j][i] = hs_distance(us[i], us[j])
            pair_distances.append(table)
        if graph is None:
            return cls(tuple(pair_distances))
        edge_distances = {}
        for i, j in graph.edges:
            union, pos_i, pos_j = pair_embedding(approx.blocks, i, j)
            pairs = pair_unitary_table(unitaries[i], unitaries[j], pos_i, pos_j, len(union))
            edge_distances[(i, j)] = [
                [hs_distance(pairs[0][0], u) for u in row] for row in pairs
            ]
        incident = tuple(
            tuple((e, graph.edges[e]) for e in graph.incident(b))
            for b in range(len(approx.blocks))
        )
        return cls(tuple(pair_distances), edge_distances, incident)


def circuit_error_basic(sol: Solution, approx: ApproximationSet) -> float:
    """Sum of chosen-candidate HS distances: the paper's additive estimate of
    the full-circuit process distance.  The sum is not an upper bound on that
    distance; the bound that holds is (sum of sqrt(d_b))^2."""
    return sum(approx.candidates[b][c].hs_distance for b, c in enumerate(sol))


def circuit_error_cascade(
    sol: Solution, approx: ApproximationSet, graph: PartitionGraph,
    tables: ObjectiveTables | None = None,
) -> float:
    """Per-block weighted average of incident pair distances, summed over
    blocks; isolated blocks fall back to their own HS distance.  Tables
    passed in must have been built with a partition graph."""
    if tables is None:
        tables = ObjectiveTables.build(approx, graph)
    if tables.incident is None:
        raise ValueError("cascade error needs ObjectiveTables built with a partition graph")
    total = 0.0
    for b, incident in enumerate(tables.incident):
        if not incident:
            total += approx.candidates[b][sol[b]].hs_distance
            continue
        num = 0.0
        den = 0.0
        for edge, w in incident:
            i, j = edge
            num += w * tables.edge_distances[edge][sol[i]][sol[j]]
            den += w
        total += num / den
    return total


def differentiation(
    sol: Solution,
    others: Sequence[Solution],
    approx: ApproximationSet,
    tables: ObjectiveTables | None = None,
) -> float:
    """Fraction of existing solutions that the candidate fails to differ
    from: one counts when its distance to the candidate, the sum of the
    per-block candidate distances, is no more than the larger of the two
    approximation errors.  Empty existing set scores 0."""
    if not others:
        return 0.0
    if tables is None:
        tables = ObjectiveTables.build(approx)
    sol = tuple(sol)
    # Row of each block's distance table for the candidate's choice; the
    # distance sums in block order, so verdicts at equality do not move.
    rows = [table[c] for table, c in zip(tables.pair_distances, sol)]
    e_sol = tables.term("basic", sol, lambda: circuit_error_basic(sol, approx))
    close = 0
    for s in others:
        s = tuple(s)
        d = sum(map(operator.getitem, rows, s))
        close += d <= e_sol or d <= tables.term(
            "basic", s, lambda: circuit_error_basic(s, approx))
    return close / len(others)


def reassemble(sol: Solution, approx: ApproximationSet) -> Circuit:
    """Full circuit for a solution: chosen candidates composed in block order."""
    chosen = approx.chosen(sol)
    return compose(
        [c.local_circuit for c in chosen],
        [b.qubits for b in approx.blocks],
        approx.num_qubits,
    )


def _mean_fidelity_score(sol: Solution, approx: ApproximationSet) -> float:
    scores = [approx.candidates[b][c].fidelity_score for b, c in enumerate(sol)]
    if any(s is None for s in scores):
        raise ValueError("fidelity scores not cached; run score_candidates first")
    return float(np.mean(scores))


def _cnot_ratio(sol: Solution, approx: ApproximationSet) -> float:
    orig = approx.original_cnots()
    if not orig:
        return 0.0
    return sum(approx.candidates[b][c].cnots for b, c in enumerate(sol)) / orig


def objective(
    sol: Solution,
    others: Sequence[Solution],
    approx: ApproximationSet,
    graph: PartitionGraph | None,
    cfg: ObjectiveConfig,
    tables: ObjectiveTables | None = None,
) -> float:
    """Annealing objective: duplicate check, then error threshold, then the
    weighted complexity/differentiation score."""
    sol = tuple(sol)
    if not cfg.allow_duplicates and any(tuple(s) == sol for s in others):
        return DUPLICATE_PENALTY
    if cfg.mode is Mode.CASCADE and graph is None:
        raise ValueError("cascade mode requires a partition graph")
    if tables is None:
        tables = ObjectiveTables.build(approx, graph if cfg.mode is Mode.CASCADE else None)
    if cfg.mode is not Mode.BASIC_ERR:
        if cfg.mode is Mode.CASCADE:
            err = tables.term("cascade", sol,
                              lambda: circuit_error_cascade(sol, approx, graph, tables))
        else:
            err = tables.term("basic", sol, lambda: circuit_error_basic(sol, approx))
        if err > cfg.epsilon:
            if cfg.mode is Mode.QUEST:
                return QUEST_THRESHOLD_PENALTY
            return err - cfg.epsilon + GRADIENT_PENALTY_BASE
    if cfg.mode is Mode.BASIC_ERR:
        g = tables.term("fidelity", sol, lambda: _mean_fidelity_score(sol, approx))
    else:
        g = tables.term("cnots", sol, lambda: _cnot_ratio(sol, approx))
    t = differentiation(sol, others, approx, tables)
    return cfg.w * g + (1.0 - cfg.w) * t


def make_objective(
    approx: ApproximationSet,
    graph: PartitionGraph | None,
    cfg: ObjectiveConfig,
) -> Callable[[Solution, Sequence[Solution]], float]:
    """Build the distance tables once and return f(solution, others) -> value.

    f keeps the values it computed for the current ``others``, compared by
    value on every call, so ``others`` may be a list its caller appends to.
    The kept values are dropped when ``others`` changes and when they reach
    ``TERM_MEMO_SIZE`` entries.
    """
    tables = ObjectiveTables.build(approx, graph if cfg.mode is Mode.CASCADE else None)
    values: dict[Solution, float] = {}
    values_for: tuple = ()  # the others that ``values`` were computed with

    def f(sol, others):
        nonlocal values_for
        sol = tuple(sol)
        current = tuple([*map(tuple, others)])  # from a list: see decode
        if current != values_for:
            values.clear()
            values_for = current
        value = values.get(sol)
        if value is None:
            if len(values) >= TERM_MEMO_SIZE:
                values.clear()
            value = values[sol] = objective(sol, current, approx, graph, cfg, tables)
        return value
    return f


# --- generalized simulated annealing -----------------------------------------

_TAIL_LIMIT = 1e8


class _Visitor:
    """Tsallis visiting-distribution step generator (distorted Cauchy-Lorentz)."""

    def __init__(self, q_v: float):
        self.q_v = q_v
        qv = q_v
        self._factor2 = math.exp((4.0 - qv) * math.log(qv - 1.0))
        self._factor3 = math.exp((2.0 - qv) * math.log(2.0) / (qv - 1.0))
        factor5 = 1.0 / (qv - 1.0) - 0.5
        d1 = 2.0 - factor5
        self._factor6 = (
            math.pi * (1.0 - factor5)
            / math.sin(math.pi * (1.0 - factor5))
            / math.exp(math.lgamma(d1))
        )
        self._sigma_temperature = math.nan
        self._sigma_value = math.nan

    def _sigma(self, temperature: float) -> float:
        """Scale of the visiting distribution; every visit of one timestep
        shares the temperature, so the last value is kept."""
        if temperature != self._sigma_temperature:
            qv = self.q_v
            factor1 = math.exp(math.log(temperature) / (qv - 1.0))
            factor4 = (
                math.sqrt(math.pi) * factor1 * self._factor2
                / (self._factor3 * (3.0 - qv))
            )
            self._sigma_value = math.exp(
                -(qv - 1.0) * math.log(self._factor6 / factor4) / (3.0 - qv)
            )
            self._sigma_temperature = temperature
        return self._sigma_value

    def _deviate(self, rng, temperature: float, size: int) -> list[float]:
        """``size`` steps.  ``log`` and ``exp`` stay numpy's: ``math``'s
        round differently on some inputs, which would move the walk."""
        qv = self.q_v
        # One draw of 2 * size values is the same stream as two draws of
        # size each: x's normals then y's, the high tails' uniforms then
        # the low tails'.
        normals = rng.standard_normal(2 * size)
        x = normals[:size] * self._sigma(temperature)
        den = np.exp((qv - 1.0) * np.log(np.abs(normals[size:])) / (3.0 - qv))
        visit = (x / den).tolist()
        tails = rng.random(2 * size)
        if max(visit) > _TAIL_LIMIT or min(visit) < -_TAIL_LIMIT:
            for i, v in enumerate(visit):
                if v > _TAIL_LIMIT:
                    visit[i] = _TAIL_LIMIT * float(tails[i])
                elif v < -_TAIL_LIMIT:
                    visit[i] = -_TAIL_LIMIT * float(tails[size + i])
        return visit

    def _deviate_one(self, rng, temperature: float) -> float:
        """``_deviate(rng, temperature, 1)[0]`` without one-element arrays:
        the same draws and the same value, since numpy's log and exp of a
        scalar run the array loop and the rest is correctly rounded
        arithmetic."""
        qv = self.q_v
        x, y = rng.standard_normal(2).tolist()
        den = float(np.exp((qv - 1.0) * float(np.log(abs(y))) / (3.0 - qv)))
        visit = x * self._sigma(temperature) / den
        high, low = rng.random(2).tolist()
        if visit > _TAIL_LIMIT:
            visit = _TAIL_LIMIT * high
        if visit < -_TAIL_LIMIT:
            visit = -_TAIL_LIMIT * low
        return visit


def _temperature(t0: float, step: int, q_v: float) -> float:
    s = float(step) + 2.0
    return t0 * (2.0 ** (q_v - 1.0) - 1.0) / (s ** (q_v - 1.0) - 1.0)


def _accept(e_new: float, e_cur: float, temperature_step: float, q_a: float,
            rng) -> bool:
    if e_new <= e_cur:
        return True
    pqa = 1.0 - (1.0 - q_a) * (e_new - e_cur) / temperature_step
    if pqa <= 0.0:
        return False
    return rng.random() <= math.exp(math.log(pqa) / (1.0 - q_a))


def decode(x: Sequence[float], bounds: Sequence[int]) -> Solution:
    """Continuous vector -> choice indices by floor, clamped into range."""
    # Built from a list: tuple() of an iterator allocates ten slots and
    # shrinks them, and over many calls the shrunk tuples fill CPython's
    # per-size free lists (about 0.5 MB in a recombine run).
    sol = tuple([*map(math.floor, x)])
    if any(map(operator.ge, sol, bounds)):
        return tuple(min(c, a - 1) for c, a in zip(sol, bounds))
    return sol


def _wrap(x: Iterable[float], span: list[float]) -> list[float]:
    """Each coordinate modulo its span, as ``np.mod``: Python's float ``%``
    rounds the same way for a positive span, turns -0.0 into 0.0 and, like
    ``np.mod``, takes a tiny negative value up to exactly the span."""
    return [v % s for v, s in zip(x, span)]


def _splice(x: list[float], sol: Solution, k: int, step: float,
            span: list[float], bounds: Sequence[int]) -> tuple[list[float], Solution]:
    """Point and solution after moving coordinate k of ``x`` by ``step``:
    the same as wrapping the whole moved point and decoding it, without
    decoding the p - 1 coordinates that did not move."""
    v = (x[k] + step) % span[k]
    if any(map(operator.eq, x, span)):
        # A coordinate that wrapped up to exactly its span decodes to
        # a - 1, but wrapping it again sends it to 0.
        x_new = _wrap(x, span)
        x_new[k] = v
        return x_new, decode(x_new, bounds)
    x_new = x.copy()
    x_new[k] = v
    return x_new, sol[:k] + (min(math.floor(v), bounds[k] - 1),) + sol[k + 1 :]


def _box(bounds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the continuous search box."""
    if len(bounds) < 1:
        raise ValueError("need at least one block")
    return np.zeros(len(bounds)), np.array(bounds, dtype=float)


@dataclass(slots=True)
class _Member:
    """One annealing walk: its point, the point's solution and value, and
    the best point seen with its solution and value."""

    x: list[float]
    sol: Solution
    e_cur: float
    rng: np.random.Generator
    best_x: list[float]
    best_sol: Solution
    best_e: float


def _anneal(
    f: Callable[[Solution, list[Solution]], float],
    bounds: Sequence[int],
    cfg: AnnealerConfig,
    starts: list[tuple[np.ndarray, np.random.Generator]],
) -> list[tuple[Solution, float]]:
    """The annealing loop shared by both engines: one member per start
    point, each visiting with its own generator.

    Every timestep updates all members; each evaluation receives the other
    members' current decoded solutions (never its own).  A visit moves all
    p coordinates or, in the second half of a member's 2p visits, one.
    Reannealing restarts every member from its saved best.  Returns the
    per-member best solutions in member order.
    """
    span = [float(a) for a in bounds]
    p = len(bounds)
    max_iterations = 1000 * p if cfg.max_iterations is None else cfg.max_iterations
    visitor = _Visitor(cfg.q_v)

    members: list[_Member] = []
    snapshot = [decode(x0, bounds) for x0, _ in starts]
    for idx, (x0, rng) in enumerate(starts):
        e0 = f(snapshot[idx], snapshot[:idx] + snapshot[idx + 1 :])
        x = x0.tolist()
        members.append(_Member(x, snapshot[idx], e0, rng, x, snapshot[idx], e0))

    since_restart = 0
    for it in range(max_iterations):
        temperature = _temperature(cfg.initial_temperature, since_restart, cfg.q_v)
        if temperature < cfg.initial_temperature * cfg.restart_temp_ratio:
            for m in members:
                m.x, m.sol, m.e_cur = m.best_x, m.best_sol, m.best_e
            since_restart = 0
            temperature = _temperature(cfg.initial_temperature, 0, cfg.q_v)
        t_step = temperature / float(it + 1)
        snapshot = [m.sol for m in members]
        for idx, m in enumerate(members):
            others = snapshot[:idx] + snapshot[idx + 1 :]
            if len(members) > 1:
                # Re-score the current point: the landscape moves with the
                # others.  A lone member's others never change.
                m.e_cur = f(m.sol, others)
                if m.e_cur < m.best_e:
                    m.best_x, m.best_sol, m.best_e = m.x, m.sol, m.e_cur
            for j in range(2 * p):
                if j < p:
                    step = visitor._deviate(m.rng, temperature, p)
                    x = _wrap(map(operator.add, m.x, step), span)
                    sol = decode(x, bounds)
                else:
                    step = visitor._deviate_one(m.rng, temperature)
                    x, sol = _splice(m.x, m.sol, j - p, step, span, bounds)
                e_new = f(sol, others)
                if e_new < m.best_e:
                    m.best_x, m.best_sol, m.best_e = x, sol, e_new
                if _accept(e_new, m.e_cur, t_step, cfg.q_a, m.rng):
                    m.x, m.sol, m.e_cur = x, sol, e_new
        since_restart += 1
    return [(m.best_sol, m.best_e) for m in members]


def dual_anneal(
    f: Callable[[Solution], float],
    bounds: Sequence[int],
    cfg: AnnealerConfig,
) -> tuple[Solution, float]:
    """Generalized simulated annealing over the discrete choice space.

    Operates on a continuous vector in the product of [0, a_b) intervals,
    decoded by floor; reanneals from the best point when the temperature
    floor is reached.  This is the shared loop with a single member whose
    generator also draws its start.  Deterministic per seed.
    """
    lower, upper = _box(bounds)
    rng = np.random.default_rng(cfg.seed)
    x0 = rng.uniform(lower, upper)
    return _anneal(lambda s, others: f(s), bounds, cfg, [(x0, rng)])[0]


def _member_rng(seed: int, x0: np.ndarray) -> np.random.Generator:
    # Stream travels with the member's initial content, not its slot, so
    # permuting the initial population permutes the outputs identically.
    digest = hashlib.sha256(np.asarray(x0, dtype=float).tobytes()).digest()
    return np.random.default_rng([int(seed), int.from_bytes(digest[:8], "big")])


def population_anneal(
    f: Callable[[Solution, list[Solution]], float],
    bounds: Sequence[int],
    cfg: AnnealerConfig,
    c: int,
    initial: list[np.ndarray] | None = None,
) -> list[tuple[Solution, float]]:
    """Anneal c solutions simultaneously in the shared loop; each member's
    generator is seeded from its initial point.  Every coordinate b of an
    ``initial`` point must lie in [0, bounds[b])."""
    if c < 1:
        raise ValueError(f"population size must be positive, got {c}")
    lower, upper = _box(bounds)
    if initial is None:
        setup_rng = np.random.default_rng(cfg.seed)
        initial = [setup_rng.uniform(lower, upper) for _ in range(c)]
    if len(initial) != c:
        raise ValueError(f"initial population has {len(initial)} members, expected {c}")
    starts = []
    for i, x0 in enumerate(initial):
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (len(bounds),):
            raise ValueError(f"initial member {i} has shape {x0.shape}, "
                             f"expected ({len(bounds)},)")
        for b, (v, a) in enumerate(zip(x0.tolist(), bounds)):
            if not 0.0 <= v < a:
                raise ValueError(f"initial member {i} has {v} for block {b}, "
                                 f"outside [0, {a})")
        starts.append((x0, _member_rng(cfg.seed, x0)))
    return _anneal(f, bounds, cfg, starts)


# --- engines ------------------------------------------------------------------

EARLY_TERMINATION_VALUE = 1.0  # best stuck in a penalty branch => stop


def recombine_iterative(
    approx: ApproximationSet,
    graph: PartitionGraph | None,
    obj_cfg: ObjectiveConfig,
    ann_cfg: AnnealerConfig,
    c: int,
) -> list[Solution]:
    """One annealing run per result circuit, differentiating against the
    results selected so far; stops early once only penalized solutions remain."""
    if c < 1:
        raise ValueError(f"need at least one result circuit, got {c}")
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
    """Population engine: c members annealed together, duplicates allowed."""
    obj_cfg = replace(obj_cfg, allow_duplicates=True)
    f = make_objective(approx, graph, obj_cfg)
    out = population_anneal(f, approx.counts(), ann_cfg, c)
    return [sol for sol, _ in out]


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
    # recombine_population turns duplicates back on for its engine.
    cfg = replace(obj_cfg, mode=mode, allow_duplicates=False)
    if engine == "iterative":
        return recombine_iterative(approx, graph, cfg, ann_cfg, c)
    return recombine_population(approx, graph, cfg, ann_cfg, c)
