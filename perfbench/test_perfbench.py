"""Tests of the benchmark itself, on reduced-size copies of its workloads.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs" / "tests"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Named by the benchmark's definition; printed on the human-readable lines.
PRINTED = ("setup_s", "wall_s", "peak_rss_mb", "tvd_gain_pct", "cnot_reduction_pct",
           "results_frac", "failed_frac")

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def bench(*args, out: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "0",
           "--reduced", "--out", str(out), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(trace):
    proc = bench("--workload", "all", "--seed", "3", "--trace", str(trace),
                 out=RUNS / f"names{trace}")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in declared}
    assert set(result["metrics"]) == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float | int) and np.isfinite(entry["value"])
    printed = {(line.split()[0], line.split()[1]) for line in proc.stdout.splitlines()
               if line and not line.startswith(("#", "{"))}
    for w in WORKLOADS:
        for name in PRINTED:
            assert (w, name) in printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_results(workload):
    runs = []
    for copy in ("a", "b"):
        out = RUNS / f"det-{copy}"
        shutil.rmtree(out, ignore_errors=True)
        last_json(bench("--workload", workload, "--seed", "5", "--trace", "0", out=out))
        d = out / workload / "seed5"
        result = json.loads((d / "result_trace0.json").read_text())
        # Generated circuits live in the run directory, whose path the report names.
        reports = {p.relative_to(d): p.read_bytes().replace(str(out).encode(), b"<out>")
                   for p in sorted(d.rglob("report.json"))}
        runs.append((result["quality"], result["per_config"], reports))
    (qa, ca, ra), (qb, cb, rb) = runs
    for key in ("tvd_gain_pct", "tvd_ratio", "cnot_reduction_pct", "cnot_ratio", "results_frac"):
        assert qa[key] == qb[key], key
    assert ca == cb
    assert ra and ra == rb


def test_refuses_to_run_without_the_library():
    bare = RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--trace", "0",
                 out=bare / "out", cwd=bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_reference_unitary_matches_library():
    import peepopt as pp
    from checks import process_distance, reference_unitary

    rng = np.random.default_rng(11)
    kinds = [pp.GateKind.RX, pp.GateKind.RY, pp.GateKind.RZ, pp.GateKind.U3]
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(12):
            if n > 1 and rng.uniform() < 0.4:
                a, b = rng.choice(n, 2, replace=False)
                gates.append(pp.Gate(pp.GateKind.CX, (), (int(a), int(b))))
            else:
                kind = kinds[rng.integers(4)]
                params = rng.uniform(-np.pi, np.pi, 3 if kind is pp.GateKind.U3 else 1)
                gates.append(pp.Gate(kind, tuple(params), (int(rng.integers(n)),)))
        circuit = pp.Circuit(n, tuple(gates))
        assert np.allclose(reference_unitary(circuit), pp.unitary_of(circuit), atol=1e-12)
        assert process_distance(pp.unitary_of(circuit), reference_unitary(circuit)) < 1e-12


def _bindings():
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "peepopt"]
    return {(mod.__name__, name): getattr(mod, name)
            for mod in modules
            for name in ("apply_unitary", "expand_all", "run_pipeline", "recombine", "objective")
            if hasattr(mod, name)}


def test_tracer_counts_and_restores_every_function():
    import peepopt as pp
    from tracer import Tracer

    before = _bindings()
    load = pp.ApproximationSet.__dict__["load"]
    tracer = Tracer()
    tracer.install()
    try:
        assert pp.circuits.apply_unitary is not before[("peepopt.circuits", "apply_unitary")]
        pp.unitary_of(pp.Circuit(2, (pp.Gate(pp.GateKind.CX, (), (0, 1)),)))
    finally:
        tracer.uninstall()
    assert tracer.calls["unitary_of"][0] == 1
    assert tracer.calls["apply_unitary"][0] == 1
    assert _bindings() == before
    assert pp.ApproximationSet.__dict__["load"] is load


def test_per_config_keeps_a_config_whose_jobs_all_failed():
    from workload import per_config

    ok = {"config": "pop-err", "problems": [], "tvd": 0.1, "baseline_tvd": 0.2,
          "num_results": 2, "c": 2}
    failed = {**ok, "config": "cascade", "problems": ["raised ValueError: x"]}
    out = per_config([ok, failed], ["cascade", "pop-err"])
    assert out["cascade"] == {"tvd_gain_pct": 0.0, "results_frac": 0.0}
    assert out["pop-err"] == {"tvd_gain_pct": 50.0, "results_frac": 1.0}
