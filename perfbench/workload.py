"""One benchmark workload in its own process: set-up, or timed rounds.

run.py starts this file with the thread environment pinned::

    python3 perfbench/workload.py setup   --workload W --seed N --dir D
    python3 perfbench/workload.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1

``setup`` makes the workload's inputs in D from the seed (and, for
anneal-cached, expands, scores and saves the approximation sets).
``measure`` runs rounds while the next one should end within 1.2 x S
seconds, at least one.  Round r uses the seed derived from (N, r) and
optimizes and evaluates every circuit of the workload once.  With --trace 1 each round runs twice, untraced
and then traced, and set-up is repeated once traced.  The last line of
stdout is one JSON object with the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "benchmarks"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import peepopt as pp  # noqa: E402
from peepopt import pipeline as pl  # noqa: E402

from checks import check_job, reference_unitary  # noqa: E402
from spec import SPEC, workload_params  # noqa: E402
from tracer import Tracer, difference  # noqa: E402

NOISE = pp.NoiseModel.from_dict(SPEC["noise"])
LAYERS = ("expand", "recombine", "noise", "circuits", "qasm", "partition",
          "metrics", "pipeline", "bench")


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


# -- inputs --------------------------------------------------------------------

def brickwork_circuit(seed: list[int], qubits: int, layers: int) -> pp.Circuit:
    """Layers of random U3 on every qubit followed by CX.RZ.CX couplings on
    alternating neighbour pairs (even pairs first)."""
    rng = np.random.default_rng([*seed, qubits, layers])
    gates = []
    for layer in range(layers):
        for q in range(qubits):
            gates.append(pp.Gate(pp.GateKind.U3, tuple(rng.uniform(-np.pi, np.pi, 3)), (q,)))
        for a in range(layer % 2, qubits - 1, 2):
            gates += [
                pp.Gate(pp.GateKind.CX, (), (a, a + 1)),
                pp.Gate(pp.GateKind.RZ, (float(rng.uniform(-np.pi, np.pi)),), (a + 1,)),
                pp.Gate(pp.GateKind.CX, (), (a, a + 1)),
            ]
    return pp.Circuit(qubits, tuple(gates))


def setup(name: str, p: dict, seed: int, d: Path) -> list[dict]:
    """Make the workload's inputs in d; returns their description."""
    d.mkdir(parents=True, exist_ok=True)
    inputs = []
    if name == "simulate-9q":
        gen = p["generator"]
        circuit = brickwork_circuit([seed], gen["qubits"], gen["layers"])
        path = d / f"brickwork_{gen['qubits']}q.qasm"
        path.write_text(pp.emit_qasm(circuit))
        inputs.append({"name": path.stem, "qasm": str(path)})
    elif name == "fit-4q":
        for fixture in p["circuits"]:
            path = FIXTURES / f"{fixture}.qasm"
            pp.parse_qasm(path.read_text())
            inputs.append({"name": fixture, "qasm": str(path)})
    elif name == "anneal-cached":
        budget = pp.OptBudget(restarts=p["expand_restarts"], max_iters=p["expand_max_iters"])
        for fixture, k in p["caches"]:
            path = FIXTURES / f"{fixture}.qasm"
            circuit = pp.parse_qasm(path.read_text())
            blocks = pp.scan_partition(circuit, k)
            approx = pp.expand_all(blocks, circuit.num_qubits, SPEC["d_keep"], seed, budget)
            pl.score_candidates(approx, NOISE)
            cache = d / f"{fixture}_k{k}.cache.json"
            approx.save(cache)
            inputs.append({"name": f"{fixture}_k{k}", "qasm": str(path), "cache": str(cache)})
    else:
        raise ValueError(f"unknown workload '{name}'")
    (d / "inputs.json").write_text(json.dumps(inputs, indent=1))
    return inputs


# -- rounds --------------------------------------------------------------------

@dataclass
class Job:
    """One (circuit, configuration) result of a round."""

    circuit: str
    config: str
    c: int
    baseline_tvd: float = 0.0
    tvd: float = 0.0
    cnot_reduction_pct: float = 0.0
    solutions: list = field(default_factory=list)
    results_qasm: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    defects: list = field(default_factory=list)
    approx: object = None
    qasm_path: str = ""

    def summary(self) -> dict:
        return {
            "circuit": self.circuit,
            "config": self.config,
            "baseline_tvd": self.baseline_tvd,
            "tvd": self.tvd,
            "cnot_reduction_pct": self.cnot_reduction_pct,
            "num_results": len(self.solutions),
            "unique_results": len({tuple(s) for s in self.solutions}),
            "c": self.c,
            "problems": self.problems,
            "defects": self.defects,
        }


class ApproxCapture:
    """Keeps the approximation set each run_pipeline call builds, so that the
    output checks can bound each result by its solution's error."""

    def __init__(self):
        self.sets = []
        expand_module = sys.modules["peepopt.expand"]

        def expand_all(*args, **kwargs):
            # Looked up per call, so a tracer's wrapper there is used too.
            approx = expand_module.expand_all(*args, **kwargs)
            self.sets.append(approx)
            return approx

        pl.expand_all = expand_all


def _failed_jobs(name, p, exc) -> list[Job]:
    message = f"raised {type(exc).__name__}: {exc}"
    traceback.print_exc(file=sys.stderr)
    return [Job(name, cfg, p["c"], problems=[message]) for cfg in p["configs"]]


def pipeline_round(p, inputs, seed, out: Path, capture, tracer) -> list[Job]:
    """run_pipeline on each input circuit; report.json goes to out/<circuit>."""
    jobs = []
    for item in inputs:
        if tracer:
            tracer.job = item["name"]
        cfg = pl.RunConfig(
            circuits=[item["qasm"]], k=p["k"], noise=NOISE, configs=list(p["configs"]),
            epsilon=SPEC["epsilon"], w=SPEC["w"], c=p["c"], seed=seed,
            max_iterations=p["max_iterations"], d_keep=SPEC["d_keep"],
            shots_per_circuit=p["shots_per_circuit"],
            expand_restarts=p["expand_restarts"], expand_max_iters=p["expand_max_iters"],
            out_dir=str(out / item["name"]),
        )
        capture.sets.clear()
        try:
            (report,) = pp.run_pipeline(cfg)
        except Exception as exc:  # a failed job is counted, the run goes on
            jobs += _failed_jobs(item["name"], p, exc)
            continue
        (approx,) = capture.sets
        for config, res in report.configs.items():
            jobs.append(Job(item["name"], config, p["c"], report.baseline_tvd, res.tvd,
                            res.cnot_reduction_pct, [list(s) for s in res.solutions],
                            res.results_qasm, approx=approx, qasm_path=item["qasm"]))
    return jobs


def cached_round(p, inputs, seed, out: Path, capture, tracer) -> list[Job]:
    """Load each cached approximation set and recombine it under every
    configuration, as ``peepopt recombine --cache`` does; then reassemble,
    simulate the ensemble and score it against the exact ideal distribution."""
    jobs = []
    payload = {"seed": seed, "circuits": []}
    for item in inputs:
        if tracer:
            tracer.job = item["name"]
        try:
            approx = pp.ApproximationSet.load(item["cache"])
            graph = pp.build_partition_graph(approx.blocks)
            circuit = pp.parse_qasm(Path(item["qasm"]).read_text())
            n = circuit.num_qubits
            ideal = pl.ideal_distribution(circuit)
            base_counts = pl.noisy_counts(circuit, NOISE, p["shots_per_circuit"], [seed, 0xA])
            baseline = pp.tvd(pl.counts_to_distribution(base_counts, n), ideal)
        except Exception as exc:
            jobs += _failed_jobs(item["name"], p, exc)
            continue
        entry = {"circuit": item["name"], "baseline_tvd": baseline, "configs": {}}
        for config in p["configs"]:
            job = Job(item["name"], config, p["c"], baseline, approx=approx,
                      qasm_path=item["qasm"])
            try:
                solutions = pp.recombine(
                    config, approx, graph,
                    pp.ObjectiveConfig(epsilon=SPEC["epsilon"], w=SPEC["w"]),
                    pp.AnnealerConfig(max_iterations=p["max_iterations"], seed=seed),
                    p["c"])
                job.tvd = baseline
                if solutions:
                    dist = pp.ensemble_distribution(solutions, approx, NOISE,
                                                    p["shots_per_circuit"], [seed, 1])
                    job.tvd = pp.tvd(dist, ideal)
                job.solutions = [list(s) for s in solutions]
                job.results_qasm = [pp.emit_qasm(pp.reassemble(s, approx)) for s in solutions]
                job.cnot_reduction_pct = pp.cnot_reduction(solutions, approx, circuit)
            except Exception as exc:
                job.problems.append(f"raised {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            jobs.append(job)
            entry["configs"][config] = {
                "tvd": job.tvd, "cnot_reduction_pct": job.cnot_reduction_pct,
                "solutions": job.solutions, "results_qasm": job.results_qasm,
            }
        payload["circuits"].append(entry)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return jobs


ROUNDS = {"fit-4q": pipeline_round, "anneal-cached": cached_round,
          "simulate-9q": pipeline_round}


def check_jobs(jobs: list[Job]) -> None:
    """Append every failed output check to its job (outside timed regions)."""
    originals = {}
    for job in jobs:
        if job.problems or job.approx is None:
            continue
        if job.qasm_path not in originals:
            original = pp.parse_qasm(Path(job.qasm_path).read_text())
            originals[job.qasm_path] = (original, reference_unitary(original))
        original, unitary = originals[job.qasm_path]
        try:
            problems, defects = check_job(job.config, job.solutions, job.results_qasm,
                                          job.approx, original, unitary, SPEC["epsilon"], job.c)
        except Exception as exc:
            job.problems.append(f"check raised {type(exc).__name__}: {exc}")
            continue
        job.problems += problems
        job.defects += defects


# -- metrics -------------------------------------------------------------------

def quality(jobs: list[dict]) -> dict:
    """End-to-end quality over all (round, circuit, config) jobs."""
    ok = [j for j in jobs if not j["problems"]] or jobs
    ratios = [j["tvd"] / j["baseline_tvd"] if j["baseline_tvd"] > 0 else 1.0 for j in ok]
    reduction = statistics.fmean(j["cnot_reduction_pct"] for j in ok)
    return {
        "tvd_ratio": statistics.fmean(ratios),
        "tvd_gain_pct": 100.0 * (1.0 - statistics.fmean(ratios)),
        "cnot_ratio": 1.0 - reduction / 100.0,
        "cnot_reduction_pct": reduction,
        "results_frac": statistics.fmean(j["num_results"] / j["c"] for j in ok),
        "failed_frac": sum(1 for j in jobs if j["problems"]) / len(jobs),
        "sum_bound_violation_frac": _defect_frac(ok, "sum_bound"),
        "epsilon_violation_frac": _defect_frac(ok, "epsilon"),
    }


def _defect_frac(jobs: list[dict], kind: str) -> float:
    """Share of result circuits with a known-defect finding of this kind."""
    results = sum(j["num_results"] for j in jobs)
    found = sum(1 for j in jobs for d in j["defects"] if d.split()[0] == kind)
    return found / results if results else 0.0


def per_config(jobs: list[dict], configs: list[str]) -> dict:
    """tvd_gain_pct and results_frac of every configuration, however bad.  A
    configuration none of whose jobs succeeded returned no ensemble: it reads
    0 for both, and its failures are in the result's problems."""
    out = {}
    for config in configs:
        sel = [j for j in jobs if j["config"] == config and not j["problems"]]
        if not sel:
            out[config] = {"tvd_gain_pct": 0.0, "results_frac": 0.0}
            continue
        ratios = [j["tvd"] / j["baseline_tvd"] for j in sel if j["baseline_tvd"] > 0]
        out[config] = {
            "tvd_gain_pct": 100.0 * (1.0 - statistics.fmean(ratios)) if ratios else 0.0,
            "results_frac": statistics.fmean(j["num_results"] / j["c"] for j in sel),
        }
    return out


def layer_metrics(setup_tot: dict, round_tot: dict, rounds: int) -> dict:
    """Per-layer metrics of one set-up plus one round (round counters are
    averaged over the traced rounds); self-time shares cover the rounds only."""
    def calls(name):
        n0, s0 = setup_tot["calls"].get(name, (0, 0.0))
        n1, s1 = round_tot["calls"].get(name, (0, 0.0))
        return n0 + n1 / rounds, s0 + s1 / rounds

    def tally(key):
        return setup_tot["tally"].get(key, 0.0) + round_tot["tally"].get(key, 0.0) / rounds

    def self_s(layer):
        return (setup_tot["self_s"].get(layer, 0.0)
                + round_tot["self_s"].get(layer, 0.0) / rounds)

    fits, fit_s = calls("optimize_params")
    objective_calls, objective_s = calls("objective")
    sim_calls, sim_s = calls("simulate_density")
    gates = tally("noise.gates_simulated")
    ensemble_circuits = tally("noise.ensemble_circuits")
    kept = tally("expand.candidates") - tally("expand.blocks")
    m = {
        "expand.s": calls("expand_all")[1],
        "expand.fits": fits,
        "expand.fit_s": fit_s,
        "expand.candidates": tally("expand.candidates"),
        "expand.keep_ratio": kept / fits if fits else 0.0,
        "recombine.s": calls("recombine")[1],
        "recombine.objective_calls": objective_calls,
        "recombine.us_per_objective": 1e6 * objective_s / objective_calls if objective_calls else 0.0,
        "recombine.hs_distance_calls": calls("hs_distance")[0],
        "recombine.pair_unitary_calls": calls("pair_unitary")[0],
        "recombine.results": tally("recombine.results"),
        "noise.simulate_calls": sim_calls,
        "noise.simulate_s": sim_s,
        "noise.gates_simulated": gates,
        "noise.us_per_gate": 1e6 * sim_s / gates if gates else 0.0,
        "noise.score_s": calls("score_candidates")[1],
        "noise.ensemble_s": calls("ensemble_distribution")[1],
        "noise.ensemble_unique_frac": (tally("noise.ensemble_unique") / ensemble_circuits
                                       if ensemble_circuits else 0.0),
        "circuits.apply_unitary_calls": calls("apply_unitary")[0],
        "circuits.apply_unitary_s": calls("apply_unitary")[1],
        "circuits.unitary_of_calls": calls("unitary_of")[0],
        "qasm.parse_s": calls("parse_qasm")[1],
        "qasm.emit_s": calls("emit_qasm")[1],
        "partition.s": calls("scan_partition")[1] + calls("build_partition_graph")[1],
        "partition.blocks": tally("partition.blocks"),
        "partition.edges": tally("partition.edges"),
        "metrics.s": calls("tvd")[1] + calls("jsd")[1],
        "pipeline.reassemble_s": calls("reassemble")[1],
        "pipeline.self_s": self_s("pipeline"),
    }
    total = round_tot["calls"]["round"][1]
    # Inclusive time of each stage's entry point; the stages do not nest.
    for stage, entry in (("expand", "expand_all"), ("recombine", "recombine"),
                         ("noise", "simulate_density")):
        m[f"{stage}.stage_frac"] = round_tot["calls"].get(entry, (0, 0.0))[1] / total
    shares = dict(round_tot["self_s"])
    shares["pipeline"] = shares.get("pipeline", 0.0) + shares.pop("reassemble", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = shares.get(layer, 0.0) / total
    return m


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older NumPy has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in (
            "PEEPOPT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- entry points --------------------------------------------------------------

def measure(args) -> dict:
    p = workload_params(args.workload, args.reduced)
    d = Path(args.dir)
    inputs = json.loads((d / "inputs.json").read_text())
    run_round = ROUNDS[args.workload]
    capture = ApproxCapture()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.job = "setup"
        with tracer.section("setup"):
            inputs = setup(args.workload, p, args.seed, d)
        tracer.uninstall()
        setup_tot = tracer.snapshot()

    # Warm-up: one round of the reduced copy, so that first-call costs
    # (imports, NumPy dispatch caches) fall outside the timed rounds.
    small = workload_params(args.workload, reduced=True)
    run_round(small, setup(args.workload, small, args.seed, d / "warmup"), round_seed(args.seed, 0),
              d / "warmup" / "round", capture, None)

    walls, traced_walls, jobs = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        seed = round_seed(args.seed, r)
        t0 = time.perf_counter()
        round_jobs = run_round(p, inputs, seed, d / f"round{r}", capture, None)
        walls.append(time.perf_counter() - t0)
        if tracer:
            tracer.install()
            t0 = time.perf_counter()
            with tracer.section("round"):
                run_round(p, inputs, seed, d / f"round{r}", capture, tracer)
            traced_walls.append(time.perf_counter() - t0)
            tracer.uninstall()
        check_jobs(round_jobs)
        jobs += [j.summary() for j in round_jobs]
        r += 1
        # Another round only if it should end within 1.2x the time asked; the
        # slack keeps each workload's round count away from a threshold.
        per_round = (time.perf_counter() - start) / r
        if (r + 1) * per_round > 1.2 * args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": r,
        "round_walls": walls,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j["problems"]),
        "problems": [f"{j['circuit']}/{j['config']}: {msg}" for j in jobs for msg in j["problems"]],
        "defects": [f"{j['circuit']}/{j['config']}: {msg}" for j in jobs for msg in j["defects"]],
        "quality": quality(jobs),
        "per_config": per_config(jobs, p["configs"]),
        "env": environment(),
    }
    if tracer:
        round_tot = difference(tracer.snapshot(), setup_tot)
        layers = layer_metrics(setup_tot, round_tot, r)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = layers
        tracer.write_spans(d / "spans.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)
    if args.action == "setup":
        setup(args.workload, workload_params(args.workload, args.reduced), args.seed,
              Path(args.dir))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
