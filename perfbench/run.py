"""peepopt benchmark: compile time, ensemble quality and memory per workload.

    python3 perfbench/run.py --workload fit-4q --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each workload runs in processes of its own with one thread
(PEEPOPT_THREADS and the BLAS thread variables set to 1).  Set-up runs
``setup_reps`` times, each in a fresh interpreter, and ``setup_s`` is the
median of their wall times.  A separate process then runs the timed rounds
(see workload.py) and checks every result circuit.  The last line of stdout
is one JSON object: with --trace 0 the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  Exit code 1 if an output check
failed, 2 if the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import SPEC, workload_params

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
THREAD_ENV = ("PEEPOPT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Deadlines of the child processes.  A set-up takes seconds; the measuring
# child stops starting rounds at 1.2x --seconds but also runs a warm-up, the
# output checks and, traced, one more set-up, hence the margin.
SETUP_TIMEOUT_S = 120
MEASURE_MARGIN_S = 90


class BenchmarkError(RuntimeError):
    pass


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def check_tree(workload: str) -> None:
    """The library and the fixtures the workload reads must be present."""
    needed = [ROOT / "src" / "peepopt" / "__init__.py"]
    params = workload_params(workload, reduced=False)
    fixtures = params.get("circuits", []) + [f for f, _ in params.get("caches", [])]
    needed += [ROOT / "benchmarks" / f"{name}.qasm" for name in fixtures]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchmarkError(f"missing {', '.join(missing)}; run from a full checkout")


def _child(args: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable, str(WORKLOAD), *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"workload.py {args[0]} exited with {proc.returncode}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: float, trace: int, reduced: bool,
                 out: Path) -> dict:
    """Set up and measure one workload; returns workload.py's result plus setup_s."""
    check_tree(name)
    d = out / name / f"seed{seed}"
    common = ["--workload", name, "--seed", str(seed), "--dir", str(d)]
    if reduced:
        common.append("--reduced")
    setup_times = []
    for _ in range(workload_params(name, reduced)["setup_reps"]):
        t0 = time.perf_counter()
        _child(["setup", *common], SETUP_TIMEOUT_S)
        setup_times.append(time.perf_counter() - t0)
    stdout = _child(["measure", *common, "--seconds", str(seconds), "--trace", str(trace)],
                    MEASURE_MARGIN_S + 1.5 * seconds)
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_times"] = setup_times
    result["setup_s"] = statistics.median(setup_times)
    (d / f"result_trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def end_to_end(result: dict) -> dict:
    q = result["quality"]
    return {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "results_frac": q["results_frac"],
    }


def per_layer(result: dict) -> dict:
    m = dict(result["layers"])
    for key in ("tvd_ratio", "tvd_gain_pct", "cnot_ratio", "cnot_reduction_pct"):
        m[f"quality.{key}"] = result["quality"][key]
    configs = result["per_config"]
    for config in ("cascade", "pop-err"):
        m[f"tvd_gain_pct.{config}"] = configs[config]["tvd_gain_pct"]
    m["tvd_gain_pct.worst_config"] = min(c["tvd_gain_pct"] for c in configs.values())
    m["results_frac.cascade"] = configs["cascade"]["results_frac"]
    for kind in ("sum_bound", "epsilon"):
        m[f"checks.{kind}_violation_frac"] = result["quality"][f"{kind}_violation_frac"]
    return m


def report_lines(name: str, result: dict, trace: int) -> list[str]:
    """Human-readable lines: every metric by name and unit, plus the extras."""
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    q = result["quality"]
    lines = [f"# {name}: {result['rounds']} rounds, {result['attempted']} jobs, "
             f"{result['failed']} failed; env {json.dumps(result['env'], sort_keys=True)}"]
    values = dict(end_to_end(result))
    values.update({key: q[key] for key in ("tvd_gain_pct", "tvd_ratio", "cnot_reduction_pct",
                                           "cnot_ratio", "failed_frac")})
    units.update({"tvd_gain_pct": "%", "tvd_ratio": "ratio", "cnot_reduction_pct": "%",
                  "cnot_ratio": "ratio", "failed_frac": "frac"})
    if trace:
        values.update(per_layer(result))
    for metric, value in values.items():
        lines.append(f"{name:14s} {metric:32s} {value:14.6g} {units.get(metric, '')}")
    for config, c in result["per_config"].items():
        lines.append(f"{name:14s} config {config:10s} tvd_gain_pct {c['tvd_gain_pct']:9.3f} "
                     f"results_frac {c['results_frac']:.3f}")
    for problem in result["problems"]:
        lines.append(f"# FAILED {name} {problem}")
    for defect in result["defects"]:
        lines.append(f"# known defect {name} {defect}")
    return lines


def metric_entries(values: dict, trace: int, prefix: str = "") -> dict:
    spec = benchmark_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    return {prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="tiny copies of the workloads, for the benchmark's own tests")
    parser.add_argument("--out", default=str(ROOT / ".perfbench_runs"),
                        help="directory for inputs, reports and traces")
    args = parser.parse_args(argv)
    names = sorted(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in SPEC["workloads"] for n in names):
        print(f"error: unknown workload '{args.workload}'", file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.reduced,
                                  Path(args.out))
            for line in report_lines(name, result, args.trace):
                print(line, flush=True)
            values = per_layer(result) if args.trace else end_to_end(result)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update(metric_entries(values, args.trace, prefix))
            attempted += result["attempted"]
            failed += result["failed"]
    except (BenchmarkError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
