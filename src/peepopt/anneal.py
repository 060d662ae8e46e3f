"""Generalized simulated annealing over a discrete choice space.

A point is a continuous vector in the product of [0, a_b) intervals; it
decodes to a choice vector by floor.  One loop serves every caller: each
member of a population visits with its own generator, and each
evaluation sees the other members' current solutions.  ``dual_anneal``
runs it with a single member; ``population_anneal`` with c members.

Each member draws all the random numbers of a timestep at its start, in
two generator calls whose sizes depend only on the number of blocks, so
the walk between evaluations is plain Python arithmetic.
"""
from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Solution = tuple  # choice vector: candidate index per block


# SciPy's ``dual_annealing`` schedule: initial temperature, visiting and
# acceptance parameters, and the temperature ratio that triggers a reanneal.
INITIAL_TEMPERATURE = 5230.0
Q_V = 2.62
Q_A = -5.0
RESTART_TEMP_RATIO = 2e-5


@dataclass(frozen=True)
class AnnealerConfig:
    max_iterations: int | None = None  # defaults to 1000 * num_blocks
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        # A SeedSequence (one per iterative run) passes; numpy rejects a
        # negative integer only when the first generator is drawn.
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


_TAIL_LIMIT = 1e8

# Factors of the Tsallis visiting distribution (distorted Cauchy-Lorentz)
# that depend only on Q_V.
_FACTOR2 = math.exp((4.0 - Q_V) * math.log(Q_V - 1.0))
_FACTOR3 = math.exp((2.0 - Q_V) * math.log(2.0) / (Q_V - 1.0))
_FACTOR5 = 1.0 / (Q_V - 1.0) - 0.5
_FACTOR6 = (math.pi * (1.0 - _FACTOR5) / math.sin(math.pi * (1.0 - _FACTOR5))
            / math.exp(math.lgamma(2.0 - _FACTOR5)))


def _sigma(temperature: float) -> float:
    """Scale of the visiting distribution at ``temperature``."""
    factor1 = math.exp(math.log(temperature) / (Q_V - 1.0))
    factor4 = math.sqrt(math.pi) * factor1 * _FACTOR2 / (_FACTOR3 * (3.0 - Q_V))
    return math.exp(-(Q_V - 1.0) * math.log(_FACTOR6 / factor4) / (3.0 - Q_V))


def _steps(normals: np.ndarray, tails: np.ndarray, temperature: float) -> np.ndarray:
    """One visiting step per column pair, row by row: each row of
    ``normals`` holds the steps' numerators, then their denominators; each
    row of ``tails`` holds the uniforms of the high tails, then of the low
    tails.  A step beyond the tail limit is the limit times its uniform."""
    n = normals.shape[1] // 2
    visit = normals[:, :n] * _sigma(temperature)
    visit /= np.exp((Q_V - 1.0) * np.log(np.abs(normals[:, n:])) / (3.0 - Q_V))
    np.copyto(visit, _TAIL_LIMIT * tails[:, :n], where=visit > _TAIL_LIMIT)
    np.copyto(visit, -_TAIL_LIMIT * tails[:, n:], where=visit < -_TAIL_LIMIT)
    return visit


def _temperature(step: int) -> float:
    s = float(step) + 2.0
    return INITIAL_TEMPERATURE * (2.0 ** (Q_V - 1.0) - 1.0) / (s ** (Q_V - 1.0) - 1.0)


def _accept(e_new: float, e_cur: float, temperature_step: float, uniform: float) -> bool:
    if e_new <= e_cur:
        return True
    pqa = 1.0 - (1.0 - Q_A) * (e_new - e_cur) / temperature_step
    if pqa <= 0.0:
        return False
    return uniform <= math.exp(math.log(pqa) / (1.0 - Q_A))


def decode(x: Sequence[float], bounds: Sequence[int]) -> Solution:
    """Continuous vector -> choice indices by floor, clamped into range."""
    # Built from a list: tuple() of an iterator allocates ten slots and
    # shrinks them, and over many calls the shrunk tuples fill CPython's
    # per-size free lists (about 0.5 MB in a recombine run).
    sol = tuple([*map(math.floor, x)])
    if any(map(operator.ge, sol, bounds)):
        return tuple(min(c, a - 1) for c, a in zip(sol, bounds))
    return sol


def _box(bounds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the continuous search box."""
    if len(bounds) < 1:
        raise ValueError("need at least one block")
    for b, a in enumerate(bounds):
        if not a >= 1:
            raise ValueError(f"block {b} has {a} choices, need at least 1")
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
    members' current decoded solutions (never its own).  A member makes 2p
    visits per timestep: visit j < p moves all p coordinates, visit
    j >= p moves coordinate j - p.  At the start of a timestep each member
    draws, in two generator calls, the normals of all p(p + 1) steps and
    then their tail uniforms and one acceptance uniform per visit; the
    steps of all members come from one array transform.  Reannealing
    restarts every member from its saved best.  Returns the per-member
    best solutions in member order.
    """
    span = [float(a) for a in bounds]
    top = [a - 1 for a in bounds]
    p = len(bounds)
    max_iterations = 1000 * p if cfg.max_iterations is None else cfg.max_iterations
    n_steps = p * p + p
    normals = np.empty((len(starts), 2 * n_steps))
    uniforms = np.empty((len(starts), 2 * n_steps + 2 * p))

    members: list[_Member] = []
    snapshot = [decode(x0, bounds) for x0, _ in starts]
    for idx, (x0, rng) in enumerate(starts):
        e0 = f(snapshot[idx], snapshot[:idx] + snapshot[idx + 1 :])
        x = x0.tolist()
        members.append(_Member(x, snapshot[idx], e0, rng, x, snapshot[idx], e0))

    since_restart = 0
    for it in range(max_iterations):
        temperature = _temperature(since_restart)
        if temperature < INITIAL_TEMPERATURE * RESTART_TEMP_RATIO:
            for m in members:
                m.x, m.sol, m.e_cur = m.best_x, m.best_sol, m.best_e
            since_restart = 0
            temperature = _temperature(0)
        t_step = temperature / float(it + 1)
        for m, row_n, row_u in zip(members, normals, uniforms):
            m.rng.standard_normal(out=row_n)
            m.rng.random(out=row_u)
        steps = _steps(normals, uniforms[:, : 2 * n_steps], temperature).tolist()
        accepts = uniforms[:, 2 * n_steps :].tolist()
        snapshot = [m.sol for m in members]
        for idx, m in enumerate(members):
            others = snapshot[:idx] + snapshot[idx + 1 :]
            if len(members) > 1:
                # Re-score the current point: the landscape moves with the
                # others.  A lone member's others never change.
                m.e_cur = f(m.sol, others)
                if m.e_cur < m.best_e:
                    m.best_x, m.best_sol, m.best_e = m.x, m.sol, m.e_cur
            step, accept = steps[idx], accepts[idx]
            for j in range(2 * p):
                if j < p:
                    x = [*map(operator.mod, map(operator.add, m.x, step[j * p : j * p + p]),
                              span)]
                    sol = decode(x, bounds)
                else:
                    # A tiny negative sum wraps up to exactly the span,
                    # which decodes to a - 1, as in ``decode``.
                    k = j - p
                    x = m.x.copy()
                    x[k] = v = (x[k] + step[p * p + k]) % span[k]
                    sol = m.sol[:k] + (min(math.floor(v), top[k]),) + m.sol[k + 1 :]
                e_new = f(sol, others)
                if e_new < m.best_e:
                    m.best_x, m.best_sol, m.best_e = x, sol, e_new
                if _accept(e_new, m.e_cur, t_step, accept[j]):
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
