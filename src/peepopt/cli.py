"""Command-line interface.

Verbs: ``run`` (full pipeline), ``partition`` (debug dump), ``expand``
(cache an approximation set), ``recombine`` (from a cache), ``metrics``
(distances between two counts files).  Exit codes: 0 success, 1 input
error (a bad argument, file or QASM, which ``run`` reports as an ``[input]``
or ``[parse]`` stage error), 2 pipeline error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .expand import ApproximationSet, expand_all, score_candidates
from .metrics import jsd, tvd
from .noise import NoiseModel, counts_to_distribution
from .partition import build_partition_graph, scan_partition
from .pipeline import PipelineError, RunConfig, run_pipeline
from .qasm import QasmError, emit_qasm, parse_qasm
from .recombine import (
    CONFIGURATIONS,
    AnnealerConfig,
    ObjectiveConfig,
    recombine,
    reassemble,
)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors ``main`` reports as input errors."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="peepopt",
        description="Approximate peephole optimization of quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full pipeline: partition, expand, recombine, evaluate")
    run.add_argument("--circuit", action="append", required=True, dest="circuits")
    run.add_argument("--config", help="JSON file of RunConfig overrides")
    run.add_argument("--noise", help="JSON noise model file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int)
    run.add_argument("--configs", help="comma-separated configuration names")
    run.add_argument("--k", type=int)
    run.add_argument("--c", type=int)
    run.add_argument("--shots", type=int, dest="shots_per_circuit")

    part = sub.add_parser("partition", help="dump the partition blocks and graph")
    part.add_argument("--circuit", required=True)
    part.add_argument("--k", type=int, default=4)

    exp = sub.add_parser("expand", help="expand a circuit and cache the approximation set")
    exp.add_argument("--circuit", required=True)
    exp.add_argument("--k", type=int, default=4)
    exp.add_argument("--out", required=True, help="cache file (JSON)")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--d-keep", type=float, default=0.3)
    exp.add_argument("--noise", help="score candidates against this noise model")

    rec = sub.add_parser("recombine", help="recombine from a cached approximation set")
    rec.add_argument("--cache", required=True)
    rec.add_argument("--name", default="basic", choices=sorted(CONFIGURATIONS))
    rec.add_argument("--c", type=int, default=8)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--out", help="directory for result QASM files")

    met = sub.add_parser("metrics", help="TVD/JSD between two counts JSON files")
    met.add_argument("counts_a")
    met.add_argument("counts_b")
    met.add_argument("--qubits", type=int, required=True)
    return parser


def _cmd_run(args) -> int:
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
    data["circuits"] = args.circuits
    if args.noise:
        data["noise"] = NoiseModel.from_json(args.noise)
    for key in ("seed", "k", "c", "shots_per_circuit"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if args.configs:
        data["configs"] = [s.strip() for s in args.configs.split(",") if s.strip()]
    data["out_dir"] = args.out
    cfg = RunConfig.from_dict(data)
    reports = run_pipeline(cfg)
    for report in reports:
        print(f"{report.circuit}: baseline tvd={report.baseline_tvd:.4f}")
        for name, res in report.configs.items():
            print(
                f"  {name:10s} tvd={res.tvd:.4f} jsd={res.jsd:.4f} "
                f"cnot_reduction={res.cnot_reduction_pct:.1f}% "
                f"results={res.num_results}"
            )
    return 0


def _cmd_partition(args) -> int:
    circuit = parse_qasm(Path(args.circuit).read_text())
    blocks = scan_partition(circuit, args.k)
    graph = build_partition_graph(blocks)
    out = {
        "num_qubits": circuit.num_qubits,
        "blocks": [
            {"id": b.id, "qubits": list(b.qubits), "gates": len(b.local_circuit.gates)}
            for b in blocks
        ],
        "edges": [{"from": i, "to": j, "weight": w} for (i, j), w in sorted(graph.edges.items())],
    }
    print(json.dumps(out, indent=1))
    return 0


def _cmd_expand(args) -> int:
    circuit = parse_qasm(Path(args.circuit).read_text())
    blocks = scan_partition(circuit, args.k)
    approx = expand_all(blocks, circuit.num_qubits, args.d_keep, args.seed)
    if args.noise:
        score_candidates(approx, NoiseModel.from_json(args.noise))
    approx.save(args.out)
    print(f"cached {sum(approx.counts())} candidates over {len(blocks)} blocks -> {args.out}")
    return 0


def _cmd_recombine(args) -> int:
    ann_cfg = AnnealerConfig(seed=args.seed)  # a bad seed fails before the cache loads
    approx = ApproximationSet.load(args.cache)
    graph = build_partition_graph(approx.blocks)
    solutions = recombine(args.name, approx, graph, ObjectiveConfig(), ann_cfg, args.c)
    print(f"{args.name}: {len(solutions)} result circuits")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, sol in enumerate(solutions):
            (out / f"result_{i}.qasm").write_text(emit_qasm(reassemble(sol, approx)))
    return 0


def _cmd_metrics(args) -> int:
    a = counts_to_distribution(json.loads(Path(args.counts_a).read_text()), args.qubits)
    b = counts_to_distribution(json.loads(Path(args.counts_b).read_text()), args.qubits)
    print(json.dumps({"tvd": tvd(a, b), "jsd": jsd(a, b)}))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "partition": _cmd_partition,
    "expand": _cmd_expand,
    "recombine": _cmd_recombine,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (OSError, QasmError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if exc.stage in ("input", "parse") else 2


if __name__ == "__main__":
    sys.exit(main())
