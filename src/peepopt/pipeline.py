"""End-to-end pipeline: parse, partition, expand, recombine, evaluate, report.

The ideal reference is the exact noiseless output distribution.  Timing
is written to ``summary.csv`` only, so ``report.json`` is byte-identical
across runs with the same inputs and seed.
"""
from __future__ import annotations

import json
import time
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .circuits import Circuit, cnot_count, gate_matrix, gate_plan, gate_product
from .expand import ApproximationSet, OptBudget, expand_all, score_candidates
from .metrics import jsd, tvd
from .noise import (
    DimensionError,
    NoiseModel,
    check_readout,
    check_width,
    counts_to_distribution,
    sample_counts,
    simulate_distribution,
    simulate_distributions,
)
from .partition import build_partition_graph, scan_partition
from .qasm import emit_qasm, parse_qasm
from .recombine import (
    CONFIGURATIONS,
    AnnealerConfig,
    Mode,
    ObjectiveConfig,
    Solution,
    reassemble,
    reassemble_all,
    recombine,
)


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message carries the stage tag."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass
class RunConfig:
    circuits: list[str]
    k: int = 4
    noise: NoiseModel = field(default_factory=NoiseModel)
    configs: list[str] = field(default_factory=lambda: list(CONFIGURATIONS))
    epsilon: float = 0.1
    w: float = 0.5
    c: int = 8
    seed: int = 0
    max_iterations: int | None = None
    shots_per_circuit: int = 1024
    d_keep: float = 0.3
    expand_restarts: int = 8
    expand_max_iters: int = 200
    out_dir: str | None = None

    def __post_init__(self):
        if not 2 <= self.k <= 5:
            raise ValueError(f"k must be in [2, 5], got {self.k}")
        if self.shots_per_circuit < 1:
            raise ValueError(f"shots_per_circuit must be positive, got {self.shots_per_circuit}")
        if self.c < 1:
            raise ValueError(f"c must be at least 1, got {self.c}")
        if not self.d_keep >= 0:
            raise ValueError(f"d_keep must be non-negative, got {self.d_keep}")
        for name in self.configs:
            if name not in CONFIGURATIONS:
                raise ValueError(f"unknown configuration '{name}'")
        # Build every stage's settings now, so a bad value fails before expand.
        self.budget()
        self.objective_config()
        self.annealer_config()

    def annealer_config(self) -> AnnealerConfig:
        return AnnealerConfig(max_iterations=self.max_iterations, seed=self.seed)

    def objective_config(self) -> ObjectiveConfig:
        return ObjectiveConfig(epsilon=self.epsilon, w=self.w)

    def budget(self) -> OptBudget:
        return OptBudget(restarts=self.expand_restarts, max_iters=self.expand_max_iters)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown RunConfig keys: {', '.join(unknown)}")
        if "noise" in data and isinstance(data["noise"], dict):
            data["noise"] = NoiseModel.from_dict(data["noise"])
        hints = typing.get_type_hints(cls)
        for key, value in data.items():
            if not _has_type(value, hints[key]):
                name = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
                raise ValueError(f"RunConfig key '{key}' must be {name}, got {value!r}")
        return cls(**data)


def _has_type(value, hint) -> bool:
    """Whether a value loaded from JSON fits a field's annotation; an int
    passes for a float, a bool passes only for a bool."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def ideal_distribution(circuit: Circuit) -> np.ndarray:
    """Exact noiseless output distribution: |psi|^2 of the state vector from |0...0>."""
    n = circuit.num_qubits
    start = np.zeros((1 << n, 1), dtype=complex)
    start[0, 0] = 1.0
    plan = gate_plan([g.qubits for g in circuit.gates], n)
    psi = gate_product([gate_matrix(g) for g in circuit.gates], plan, n, start=start)
    return np.abs(psi[:, 0]) ** 2


def noisy_counts(circuit: Circuit, noise: NoiseModel, shots: int, seed) -> dict[str, int]:
    return sample_counts(simulate_distribution(circuit, noise), shots, seed)


def ensemble_distribution(
    solutions: list[Solution],
    approx: ApproximationSet,
    noise: NoiseModel,
    shots: int,
    seed,
) -> np.ndarray:
    """Pooled empirical distribution of all result circuits, equal shots each.

    Result i is sampled with seed ``[seed, i]``; a solution that repeats an
    earlier one is sampled again but not simulated again.  The distinct
    solutions are reassembled and simulated as one batch, so the runs they
    share are composed once.
    """
    if not solutions:
        raise ValueError("need at least one solution")
    n = approx.num_qubits
    base_seed = [seed] if np.ndim(seed) == 0 else list(np.atleast_1d(seed))
    distinct = list(dict.fromkeys(tuple(sol) for sol in solutions))
    dists = dict(zip(distinct, simulate_distributions(reassemble_all(distinct, approx), noise)))
    pooled = np.zeros(1 << n)
    for i, sol in enumerate(solutions):
        counts = sample_counts(dists[tuple(sol)], shots, base_seed + [i])
        pooled += counts_to_distribution(counts, n) * shots
    return pooled / pooled.sum()


def cnot_reduction(
    solutions: list[Solution], approx: ApproximationSet, original: Circuit
) -> float:
    """Mean percent CNOT reduction of the result circuits vs. the original.

    A result's CNOT count is the sum of its chosen candidates' ``cnots``,
    the counts the objective's CNOT term reads.
    """
    base = cnot_count(original)
    if base == 0 or not solutions:
        return 0.0
    reductions = [
        100.0 * (1.0 - sum(c.cnots for c in approx.chosen(sol)) / base)
        for sol in solutions
    ]
    return float(np.mean(reductions))


@dataclass
class ConfigResult:
    name: str
    solutions: list[Solution]
    results_qasm: list[str]
    tvd: float
    jsd: float
    cnot_reduction_pct: float
    num_results: int
    seconds: float


@dataclass
class CircuitReport:
    circuit: str
    num_qubits: int
    baseline_tvd: float
    baseline_jsd: float
    baseline_cnots: int
    configs: dict[str, ConfigResult]


def evaluate_circuit(path: str, cfg: RunConfig) -> CircuitReport:
    """Run the full pipeline for one input circuit."""
    try:
        text = Path(path).read_text()
        circuit = parse_qasm(text)
    except OSError as exc:
        raise PipelineError("input", f"{path}: {exc}") from exc
    except ValueError as exc:
        raise PipelineError("parse", f"{path}: {exc}") from exc

    try:
        check_width(circuit.num_qubits)
        check_readout(cfg.noise.readout, circuit.num_qubits)
    except DimensionError as exc:
        raise PipelineError("input", f"{path}: {exc}") from exc

    try:
        blocks = scan_partition(circuit, cfg.k)
        graph = build_partition_graph(blocks)
    except ValueError as exc:
        raise PipelineError("partition", str(exc)) from exc

    try:
        approx = expand_all(
            blocks, circuit.num_qubits, cfg.d_keep, cfg.seed, cfg.budget()
        )
        if any(CONFIGURATIONS[name][1] is Mode.BASIC_ERR for name in cfg.configs):
            score_candidates(approx, cfg.noise)
    except ValueError as exc:
        raise PipelineError("expand", str(exc)) from exc

    ideal = ideal_distribution(circuit)
    base_counts = noisy_counts(circuit, cfg.noise, cfg.shots_per_circuit, [cfg.seed, 0xA])
    base_dist = counts_to_distribution(base_counts, circuit.num_qubits)

    report = CircuitReport(
        circuit=str(path),
        num_qubits=circuit.num_qubits,
        baseline_tvd=tvd(base_dist, ideal),
        baseline_jsd=jsd(base_dist, ideal),
        baseline_cnots=cnot_count(circuit),
        configs={},
    )

    for name in cfg.configs:
        start = time.perf_counter()
        try:
            solutions = recombine(
                name, approx, graph, cfg.objective_config(), cfg.annealer_config(), cfg.c
            )
        except ValueError as exc:
            raise PipelineError("recombine", f"{name}: {exc}") from exc
        if solutions:
            dist = ensemble_distribution(
                solutions, approx, cfg.noise, cfg.shots_per_circuit, [cfg.seed, 1]
            )
            cfg_tvd, cfg_jsd = tvd(dist, ideal), jsd(dist, ideal)
        else:
            cfg_tvd, cfg_jsd = report.baseline_tvd, report.baseline_jsd
        report.configs[name] = ConfigResult(
            name=name,
            solutions=list(solutions),
            results_qasm=[emit_qasm(reassemble(s, approx)) for s in solutions],
            tvd=cfg_tvd,
            jsd=cfg_jsd,
            cnot_reduction_pct=cnot_reduction(solutions, approx, circuit),
            num_results=len(solutions),
            seconds=time.perf_counter() - start,
        )
    return report


def report_to_dict(report: CircuitReport) -> dict:
    """JSON-ready structure; timing deliberately excluded for determinism."""
    return {
        "circuit": report.circuit,
        "num_qubits": report.num_qubits,
        "baseline": {
            "tvd": report.baseline_tvd,
            "jsd": report.baseline_jsd,
            "cnots": report.baseline_cnots,
        },
        "configs": {
            name: {
                "tvd": r.tvd,
                "jsd": r.jsd,
                "cnot_reduction_pct": r.cnot_reduction_pct,
                "num_results": r.num_results,
                "solutions": [list(s) for s in r.solutions],
                "results_qasm": r.results_qasm,
            }
            for name, r in report.configs.items()
        },
    }


def run_pipeline(cfg: RunConfig) -> list[CircuitReport]:
    """Evaluate every configured circuit and write report.json / summary.csv."""
    reports = []
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for path in cfg.circuits:
            reports.append(evaluate_circuit(path, cfg))
    finally:
        if out_dir and reports:
            _write_reports(reports, cfg, out_dir)  # partial results still flushed
    return reports


def _write_reports(reports: list[CircuitReport], cfg: RunConfig, out_dir: Path) -> None:
    payload = {
        "seed": cfg.seed,
        "k": cfg.k,
        "noise": cfg.noise.to_dict(),
        "configs_requested": list(cfg.configs),
        "circuits": [report_to_dict(r) for r in reports],
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    lines = ["circuit,config,tvd,jsd,cnot_reduction_pct,num_results,seconds"]
    for r in reports:
        for name, res in r.configs.items():
            lines.append(
                f"{r.circuit},{name},{res.tvd:.6f},{res.jsd:.6f},"
                f"{res.cnot_reduction_pct:.3f},{res.num_results},{res.seconds:.3f}"
            )
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
