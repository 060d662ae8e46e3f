"""Unit tests for the pipeline driver and the command-line interface."""
import json
import math
import re

import numpy as np
import pytest

from peepopt import noise as noise_module
from peepopt import pipeline
from peepopt.circuits import cnot_count
from peepopt.cli import main
from peepopt.noise import (
    NoiseModel,
    counts_to_distribution,
    measure_distribution,
    sample_counts,
    simulate_density,
    simulate_distribution,
)
from peepopt.pipeline import (
    PipelineError,
    RunConfig,
    cnot_reduction,
    ensemble_distribution,
    evaluate_circuit,
    ideal_distribution,
    noisy_counts,
    run_pipeline,
)
from peepopt.qasm import parse_qasm
from peepopt.recombine import reassemble, reassemble_all
from conftest import random_circuit

TINY = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
    "rx(0.4) q[0];\ncx q[0],q[1];\nrz(0.7) q[1];\ncx q[1],q[2];\n"
    "rx(0.2) q[2];\ncx q[0],q[1];\n"
)


@pytest.fixture
def tiny_qasm(tmp_path):
    path = tmp_path / "tiny.qasm"
    path.write_text(TINY)
    return path


def fast_config(path, **kw):
    defaults = dict(
        circuits=[str(path)],
        k=2,
        noise=NoiseModel(p1=0.001, p2=0.01),
        configs=["basic", "pop-err"],
        c=3,
        max_iterations=150,
        expand_restarts=2,
        expand_max_iters=50,
        seed=1,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(circuits=[], k=7)
        with pytest.raises(ValueError):
            RunConfig(circuits=[], shots_per_circuit=0)
        with pytest.raises(ValueError):
            RunConfig(circuits=[], configs=["bogus"])

    @pytest.mark.parametrize("bad", [
        {"c": 0}, {"epsilon": 0.0}, {"w": 2.0}, {"max_iterations": -1},
        {"epsilon": math.nan}, {"d_keep": math.nan}, {"d_keep": -0.1}, {"seed": -3},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejects_bad_stage_setting(self, bad):
        (key,) = bad
        with pytest.raises(ValueError, match=f"^{key} must"):
            RunConfig(circuits=[], **bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bogus, exact_ideal"):
            RunConfig.from_dict({"circuits": [], "exact_ideal": True, "bogus": 1})

    @pytest.mark.parametrize("bad, message", [
        ({"k": "2"}, "'k' must be int, got '2'"),
        ({"k": 2.0}, "'k' must be int"),
        ({"c": True}, "'c' must be int"),
        ({"noise": 5}, "'noise' must be NoiseModel, got 5"),
        ({"circuits": "a.qasm"}, "'circuits' must be list[str]"),
        ({"configs": ["basic", 3]}, "'configs' must be list[str]"),
        ({"epsilon": "0.1"}, "'epsilon' must be float"),
        ({"max_iterations": 1.5}, "'max_iterations' must be int | None"),
    ], ids=lambda v: str(v))
    def test_from_dict_rejects_wrong_types(self, bad, message):
        data = {"circuits": ["a.qasm"], **bad}
        with pytest.raises(ValueError, match=re.escape(f"RunConfig key {message}")):
            RunConfig.from_dict(data)

    def test_from_dict_accepts_json_numbers_and_nulls(self):
        cfg = RunConfig.from_dict({"circuits": ["a.qasm"], "epsilon": 1, "w": 0,
                                   "max_iterations": None, "out_dir": None})
        assert cfg.epsilon == 1 and cfg.max_iterations is None

    def test_from_dict_builds_noise(self):
        cfg = RunConfig.from_dict(
            {"circuits": ["a.qasm"], "noise": {"p1": 0.002, "p2": 0.02}})
        assert cfg.noise == NoiseModel(p1=0.002, p2=0.02)


class TestEvaluate:
    def test_report_shape(self, tiny_qasm):
        report = evaluate_circuit(str(tiny_qasm), fast_config(tiny_qasm))
        assert report.num_qubits == 3
        assert 0.0 <= report.baseline_tvd <= 1.0
        assert set(report.configs) == {"basic", "pop-err"}
        for res in report.configs.values():
            assert 0.0 <= res.tvd <= 1.0
            assert 0.0 <= res.jsd <= 1.0
            assert res.num_results == len(res.solutions) == len(res.results_qasm)
            for text in res.results_qasm:
                parse_qasm(text)  # every result is valid QASM

    def test_missing_file_is_input_stage_error(self, tmp_path):
        cfg = fast_config(tmp_path / "absent.qasm")
        with pytest.raises(PipelineError) as exc:
            evaluate_circuit(str(tmp_path / "absent.qasm"), cfg)
        assert exc.value.stage == "input"

    def test_parse_stage_error(self, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[0];\n")
        with pytest.raises(PipelineError) as exc:
            evaluate_circuit(str(bad), fast_config(bad))
        assert exc.value.stage == "parse"

    def test_baseline_tvd_recomputable_from_ideal(self, tiny_qasm):
        cfg = fast_config(tiny_qasm)
        report = evaluate_circuit(str(tiny_qasm), cfg)
        circuit = parse_qasm(tiny_qasm.read_text())
        ideal = ideal_distribution(circuit)
        assert ideal.sum() == pytest.approx(1.0, abs=1e-10)
        assert report.baseline_cnots == 3

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_ideal_distribution_matches_noiseless_density(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(3):
            circuit = random_circuit(rng, n, 20)
            expected = measure_distribution(simulate_density(circuit, NoiseModel()))
            np.testing.assert_allclose(ideal_distribution(circuit), expected,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("readout", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.1)])
    def test_readout_width_checked_before_expand(self, tiny_qasm, monkeypatch, readout):
        def no_expand(*args, **kwargs):
            raise AssertionError("expand ran")

        monkeypatch.setattr(pipeline, "expand_all", no_expand)
        cfg = fast_config(tiny_qasm, noise=NoiseModel(p1=0.001, readout=readout))
        with pytest.raises(PipelineError) as exc:
            evaluate_circuit(str(tiny_qasm), cfg)
        assert exc.value.stage == "input"
        assert f"readout has {len(readout)} entries for a 3-qubit circuit" in str(exc.value)

    def test_width_checked_before_expand(self, tmp_path, monkeypatch):
        def no_expand(*args, **kwargs):
            raise AssertionError("expand ran")

        monkeypatch.setattr(pipeline, "expand_all", no_expand)
        wide = tmp_path / "wide.qasm"
        wide.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[13];\n'
                        + "".join(f"cx q[{q}],q[{q + 1}];\n" for q in range(12)))
        with pytest.raises(PipelineError) as exc:
            evaluate_circuit(str(wide), fast_config(wide))
        assert exc.value.stage == "input"
        assert "13 qubits exceeds the 12-qubit density limit" in str(exc.value)

    def test_cnot_reduction_empty_and_zero_base(self, tiny_qasm):
        from peepopt.expand import expand_all, OptBudget
        from peepopt.partition import scan_partition
        circuit = parse_qasm(tiny_qasm.read_text())
        blocks = scan_partition(circuit, 2)
        approx = expand_all(blocks, 3, 0.3, 0, OptBudget(restarts=2, max_iters=40))
        assert cnot_reduction([], approx, circuit) == 0.0
        original = tuple(0 for _ in blocks)
        assert cnot_reduction([original], approx, circuit) == 0.0

    @pytest.mark.parametrize("name, k", [("xy_4", 2), ("qft_5", 3), ("adder_5", 4)])
    def test_cnot_reduction_reads_the_reassembled_counts(self, name, k):
        from peepopt.expand import expand_all, OptBudget
        from peepopt.partition import scan_partition
        from conftest import BENCHMARKS
        circuit = parse_qasm((BENCHMARKS / f"{name}.qasm").read_text())
        approx = expand_all(scan_partition(circuit, k), circuit.num_qubits, 0.3, 7,
                            OptBudget(restarts=1, max_iters=30))
        assert all(c.cnots == cnot_count(c.local_circuit) for row in approx.candidates for c in row)
        rng = np.random.default_rng(k)
        solutions = [tuple(int(rng.integers(a)) for a in approx.counts()) for _ in range(6)]
        solutions += [(0,) * len(approx.counts()), tuple(a - 1 for a in approx.counts())]
        base = cnot_count(circuit)
        expected = [100.0 * (1.0 - cnot_count(reassemble(sol, approx)) / base) for sol in solutions]
        assert [cnot_reduction([sol], approx, circuit) for sol in solutions] == expected
        assert cnot_reduction(solutions, approx, circuit) == float(np.mean(expected))

    def test_ensemble_simulates_each_distinct_solution_once(self, tiny_qasm, monkeypatch):
        from peepopt.expand import expand_all, OptBudget
        from peepopt.partition import scan_partition
        circuit = parse_qasm(tiny_qasm.read_text())
        blocks = scan_partition(circuit, 2)
        approx = expand_all(blocks, 3, 0.3, 1, OptBudget(restarts=2, max_iters=50))
        a, b = (0,) * len(blocks), tuple(n - 1 for n in approx.counts())
        assert a != b
        solutions = [a, b, a, a, b]
        noise = NoiseModel(p1=0.001, p2=0.01, readout=(0.02, 0.05, 0.01))
        seed, shots = [4, 1], 512

        simulated = []
        real = pipeline.simulate_distributions

        def counting(circuits, model):
            simulated.extend(circuits)
            return real(circuits, model)

        monkeypatch.setattr(pipeline, "simulate_distributions", counting)
        dist = ensemble_distribution(solutions, approx, noise, shots, seed)
        assert len(simulated) == 2

        pooled = np.zeros(1 << 3)
        for i, sol in enumerate(solutions):
            counts = noisy_counts(reassemble(sol, approx), noise, shots, seed + [i])
            pooled += counts_to_distribution(counts, 3) * shots
        assert np.array_equal(dist, pooled / pooled.sum())


def _xy_4_set():
    """xy_4 at k = 2, fitted with one restart of 40 iterations, and eight
    solutions of it with repeats, each block's first and last candidate
    among them."""
    from peepopt.expand import expand_all, OptBudget
    from peepopt.partition import scan_partition
    from conftest import BENCHMARKS
    circuit = parse_qasm((BENCHMARKS / "xy_4.qasm").read_text())
    approx = expand_all(scan_partition(circuit, 2), 4, 0.3, 7, OptBudget(restarts=1, max_iters=40))
    counts = approx.counts()
    assert max(counts) > 1
    rng = np.random.default_rng(8)
    solutions = [tuple(int(rng.integers(a)) for a in counts) for _ in range(5)]
    solutions += [(0,) * len(counts), solutions[1], tuple(a - 1 for a in counts)]
    return approx, solutions


class TestEnsembleBatch:
    """``ensemble_distribution`` simulates its distinct solutions as one batch."""

    @pytest.mark.parametrize("noise", [
        NoiseModel(),
        NoiseModel(p1=0.001, p2=0.01),
        NoiseModel(p1=0.001, p2=0.01, readout=(0.02, 0.0, 0.05, 0.01),
                   overrides={0: (0.01, 0.05), 3: (0.0, 0.1)}),
    ], ids=["p0", "uniform", "overrides-readout"])
    def test_equals_the_per_solution_loop(self, noise):
        approx, solutions = _xy_4_set()
        seed, shots = [5, 1], 256
        dist = ensemble_distribution(solutions, approx, noise, shots, seed)
        # The loop before batching: reassemble and simulate each new solution.
        dists, pooled = {}, np.zeros(1 << 4)
        for i, sol in enumerate(solutions):
            key = tuple(sol)
            if key not in dists:
                dists[key] = simulate_distribution(reassemble(sol, approx), noise)
            counts = sample_counts(dists[key], shots, seed + [i])
            pooled += counts_to_distribution(counts, 4) * shots
        assert dist.tobytes() == (pooled / pooled.sum()).tobytes()

    def test_each_distinct_run_is_composed_once(self, monkeypatch):
        approx, solutions = _xy_4_set()
        batches, composed = [], []
        real_batch, real_compose = pipeline.simulate_distributions, noise_module._run_channel

        def batch(circuits, model):
            batches.append(circuits)
            return real_batch(circuits, model)

        def compose_run(qubits, gates, channel):
            composed.append((qubits, *map(id, gates)))
            return real_compose(qubits, gates, channel)

        monkeypatch.setattr(pipeline, "simulate_distributions", batch)
        monkeypatch.setattr(noise_module, "_run_channel", compose_run)
        ensemble_distribution(solutions, approx, NoiseModel(p1=0.001, p2=0.01), 64, [0, 1])
        (circuits,) = batches
        assert len(circuits) == len(set(solutions)) == 7
        runs = [(qubits, *map(id, gates)) for c in circuits
                for qubits, gates in noise_module._runs(c.gates)]
        assert len(composed) == len(set(composed)) == len(set(runs))
        assert len(runs) > len(composed)  # the results share runs

    def test_reassembled_circuits_share_gate_objects(self):
        approx, solutions = _xy_4_set()
        circuits = reassemble_all(solutions, approx)
        assert circuits == [reassemble(sol, approx) for sol in solutions]
        remapped = {}  # (block, candidate) -> its gates in the first circuit that has it
        for circuit, sol in zip(circuits, solutions):
            start = 0
            for b, c in enumerate(sol):
                size = len(approx.candidates[b][c].local_circuit.gates)
                gates = circuit.gates[start:start + size]
                start += size
                first = remapped.setdefault((b, c), gates)
                assert all(g is h for g, h in zip(gates, first))
        assert len(remapped) < len(solutions) * len(approx.blocks)


class TestRunPipeline:
    def test_writes_reports(self, tiny_qasm, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tiny_qasm, out_dir=str(out))
        reports = run_pipeline(cfg)
        assert len(reports) == 1
        payload = json.loads((out / "report.json").read_text())
        assert payload["seed"] == 1
        assert len(payload["circuits"]) == 1
        csv = (out / "summary.csv").read_text().splitlines()
        assert csv[0] == "circuit,config,tvd,jsd,cnot_reduction_pct,num_results,seconds"
        assert len(csv) == 1 + len(cfg.configs)


def _edited(edit):
    """A function that applies ``edit`` to JSON data in place and returns the data."""
    return lambda data: (edit(data), data)[1]


class TestCli:
    def test_partition_verb(self, tiny_qasm, capsys):
        assert main(["partition", "--circuit", str(tiny_qasm), "--k", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["num_qubits"] == 3
        assert len(out["blocks"]) >= 2

    def test_expand_then_recombine(self, tiny_qasm, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"p1": 0.001, "p2": 0.01}))
        assert main([
            "expand", "--circuit", str(tiny_qasm), "--k", "2",
            "--out", str(cache), "--noise", str(noise),
        ]) == 0
        assert cache.exists()
        results = tmp_path / "results"
        assert main([
            "recombine", "--cache", str(cache), "--name", "basic",
            "--c", "2", "--out", str(results),
        ]) == 0
        assert list(results.glob("result_*.qasm"))

    def test_metrics_verb(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"00": 512, "01": 512}))
        b.write_text(json.dumps({"00": 768, "01": 256}))
        assert main(["metrics", str(a), str(b), "--qubits", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tvd"] == pytest.approx(0.25)

    def test_run_verb(self, tiny_qasm, tmp_path, capsys):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "k": 2, "c": 2, "max_iterations": 100,
            "expand_restarts": 2, "expand_max_iters": 40,
            "configs": ["basic"],
        }))
        assert main([
            "run", "--circuit", str(tiny_qasm), "--config", str(config),
            "--out", str(out), "--seed", "3",
        ]) == 0
        assert (out / "report.json").exists()
        assert "baseline tvd" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides, message", [
        ({"bogus": 1}, "unknown RunConfig keys: bogus"),
        ({"c": 0}, "c must be at least 1"),
        ({"k": "2"}, "RunConfig key 'k' must be int, got '2'"),
        ({"noise": 5}, "RunConfig key 'noise' must be NoiseModel, got 5"),
        ({"q_a": 1.0}, "unknown RunConfig keys: q_a"),
        ({"epsilon": math.nan}, "epsilon must be positive, got nan"),
        ({"initial_temperature": math.nan}, "unknown RunConfig keys: initial_temperature"),
        ({"d_keep": math.nan}, "d_keep must be non-negative, got nan"),
        ({"seed": -3}, "seed must be non-negative, got -3"),
    ])
    def test_bad_config_file_is_input_error(self, tiny_qasm, tmp_path, capsys,
                                            overrides, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides))
        assert main([
            "run", "--circuit", str(tiny_qasm), "--config", str(config),
            "--out", str(tmp_path / "out"),
        ]) == 1
        assert f"error: {message}" in capsys.readouterr().err.splitlines()[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("d_keep", ["nan", "-0.5"])
    def test_expand_rejects_bad_d_keep(self, tiny_qasm, tmp_path, capsys, d_keep):
        cache = tmp_path / "cache.json"
        assert main(["expand", "--circuit", str(tiny_qasm), "--k", "2",
                     "--out", str(cache), "--d-keep", d_keep]) == 1
        assert "error: d_keep must be non-negative" in capsys.readouterr().err
        assert not cache.exists()

    def test_run_rejects_negative_seed(self, tiny_qasm, tmp_path, capsys):
        assert main(["run", "--circuit", str(tiny_qasm), "--k", "2", "--configs", "basic",
                     "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be non-negative, got -1"]
        assert not (tmp_path / "out").exists()

    def test_expand_rejects_negative_seed(self, tiny_qasm, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        assert main(["expand", "--circuit", str(tiny_qasm), "--k", "2",
                     "--out", str(cache), "--seed", "-2"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be non-negative, got -2"]
        assert not cache.exists()

    def test_recombine_rejects_negative_seed(self, tmp_path, capsys):
        # The seed is checked before the cache is read, so a missing cache
        # does not mask it.
        assert main(["recombine", "--cache", str(tmp_path / "none.json"), "--name", "pop",
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be non-negative, got -1"]

    @pytest.mark.parametrize("config", ["quest", "basic", "basic-err", "pop", "pop-err",
                                        "cascade"])
    def test_gate_free_circuit_is_pipeline_error(self, tmp_path, capsys, config):
        empty = tmp_path / "empty.qasm"
        empty.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n')
        assert main(["run", "--circuit", str(empty), "--k", "2", "--configs", config,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: [recombine] {config}: need at least one block" in err

    def test_non_finite_angle_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "inf.qasm"
        path.write_text('OPENQASM 2.0;\nqreg q[2];\nrx(1e999) q[0];\n'
                        'cx q[0],q[1];\ncx q[1],q[0];\ncx q[0],q[1];\n')
        assert main(["run", "--circuit", str(path), "--k", "2", "--configs", "basic",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: [parse] {path}: line 3: rx angle not finite: (inf,)"]
        assert main(["partition", "--circuit", str(path), "--k", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: line 3: rx angle not finite: (inf,)"]

    def test_readout_width_mismatch_is_input_error(self, tiny_qasm, tmp_path, capsys):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"p1": 0.001, "p2": 0.01, "readout": [0.0, 0.0, 0.0, 0.3]}))
        assert main(["run", "--circuit", str(tiny_qasm), "--k", "2", "--configs", "basic",
                     "--noise", str(noise), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: [input] ")
        assert err[0].endswith("readout has 4 entries for a 3-qubit circuit")

    @staticmethod
    def _cache(path):
        """A valid cache of TINY at k = 2, as JSON data; written to ``path``."""
        from peepopt.expand import expand_all, OptBudget
        from peepopt.partition import scan_partition
        blocks = scan_partition(parse_qasm(TINY), 2)
        expand_all(blocks, 3, 0.3, 0, OptBudget(restarts=1, max_iters=20)).save(path)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("damage, message", [
        (lambda d: [d], "cache must be a JSON object, got list"),
        (_edited(lambda d: d.pop("num_qubits")), "cache lacks num_qubits"),
        (_edited(lambda d: d.pop("blocks")), "cache lacks blocks"),
        (_edited(lambda d: d.pop("candidates")), "cache lacks candidates"),
        (_edited(lambda d: d["candidates"][0][0].pop("cnots")), "candidate of cached block 0 lacks cnots"),
        (_edited(lambda d: d["candidates"][1].clear()), "cached block 1 has no candidates"),
        (_edited(lambda d: d["candidates"].pop()), "cache has 2 candidate lists for 3 blocks"),
        (_edited(lambda d: d["candidates"].append([])), "cache has 4 candidate lists for 3 blocks"),
        (_edited(lambda d: d["candidates"][0][0].update(qasm=TINY)),
         "a candidate of cached block 0 has 3 qubits, the block 2"),
        (_edited(lambda d: d.update(num_qubits="3")), "cache num_qubits must be an integer, got '3'"),
        (_edited(lambda d: d["blocks"][1].update(qubits=5)),
         "qubits of cached block 1 must be a list of integers, got 5"),
        (_edited(lambda d: d["blocks"][1].update(gate_span=[0, None])),
         "gate_span of cached block 1 must be a list of integers, got [0, None]"),
        (_edited(lambda d: d["blocks"][0].update(id="0")), "cached block id must be an integer, got '0'"),
        (_edited(lambda d: d["candidates"][0][0].update(hs_distance=None)),
         "hs_distance of a candidate of cached block 0 must be a number, got None"),
        (_edited(lambda d: d["candidates"][0][0].update(fidelity_score="low")),
         "fidelity_score of a candidate of cached block 0 must be a number, got 'low'"),
        (_edited(lambda d: d["candidates"][0][0].update(cnots="1")),
         "cnots of a candidate of cached block 0 must be its CX count 1, got '1'"),
        (_edited(lambda d: d["candidates"][0][0].update(cnots=0)),
         "cnots of a candidate of cached block 0 must be its CX count 1, got 0"),
        (_edited(lambda d: d["candidates"][0][0].update(
            qasm='OPENQASM 2.0;\nqreg q[2];\nrx(1e999) q[0];\ncx q[0],q[1];\n')),
         "line 3: rx angle not finite: (inf,)"),
    ], ids=["not-object", "no-num-qubits", "no-blocks", "no-candidates", "no-candidate-key",
            "empty-block", "list-short", "list-long", "wide-candidate", "num-qubits-string",
            "qubits-number", "gate-span-null", "id-string", "hs-null", "score-string",
            "cnots-string", "cnots-wrong", "angle-infinite"])
    def test_recombine_rejects_a_malformed_cache(self, tmp_path, capsys, damage, message):
        cache = tmp_path / "cache.json"
        data = self._cache(cache)
        assert len(data["blocks"]) == 3
        cache.write_text(json.dumps(damage(data)))
        assert main(["recombine", "--cache", str(cache), "--name", "basic", "--c", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("noise, message", [
        ([0.001, 0.01], "noise model must be a JSON object, got list"),
        ({"p1": 0.001, "overrides": [0.1]}, "noise overrides must be a JSON object, got list"),
        ({"overrides": {"0": 0.1}}, "noise override of qubit 0 must be an object with p1 and p2, got 0.1"),
        ({"overrides": {"0": {"p1": 0.1}}},
         "noise override of qubit 0 must be an object with p1 and p2, got {'p1': 0.1}"),
        ({"p1": None}, "noise p1 must be a number, got None"),
        ({"p2": "0.01"}, "noise p2 must be a number, got '0.01'"),
        ({"readout": 0.1}, "noise readout must be a list of numbers, got 0.1"),
        ({"readout": [0.1, None, 0.0]}, "noise readout entry must be a number, got None"),
        ({"overrides": {"0": {"p1": True, "p2": 0.1}}},
         "noise override p1 of qubit 0 must be a number, got True"),
    ], ids=["not-object", "overrides-not-object", "override-not-object", "override-without-p2",
            "p1-null", "p2-string", "readout-number", "readout-null-entry", "override-p1-bool"])
    def test_run_rejects_a_malformed_noise_file(self, tiny_qasm, tmp_path, capsys, noise, message):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(noise))
        assert main(["run", "--circuit", str(tiny_qasm), "--k", "2", "--configs", "basic",
                     "--noise", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("counts, message", [
        (["00", "01"], "counts must be a JSON object, got list"),
        ({"00": 3, "100": 1}, "'100' is not a bitstring of at most 2 bits"),
        ({"-1": 3}, "'-1' is not a bitstring of at most 2 bits"),
        ({"00": "5"}, "count of '00' must be a number, got '5'"),
        ({"00": 3, "01": None}, "count of '01' must be a number, got None"),
        ({"00": 3, "01": -1}, "count of '01' must not be negative, got -1"),
    ], ids=["not-object", "too-long", "not-bits", "count-string", "count-null", "count-negative"])
    def test_metrics_rejects_malformed_counts(self, tmp_path, capsys, counts, message):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"00": 1}))
        bad.write_text(json.dumps(counts))
        assert main(["metrics", str(good), str(bad), "--qubits", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    # One test per exit code that the README names.
    def test_success_exit_code(self, tiny_qasm, tmp_path, capsys):
        assert main(["run", "--circuit", str(tiny_qasm), "--k", "2", "--configs", "basic",
                     "--c", "1", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_input_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "none.qasm"
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n")
        out = ["--out", str(tmp_path / "out")]
        cases = [
            (["partition", "--circuit", str(missing)], "error: [Errno 2]"),
            (["run", "--circuit", str(missing)] + out, f"error: [input] {missing}: "),
            (["partition", "--circuit", str(bad)], "error: line 3: "),
            (["run", "--circuit", str(bad)] + out, f"error: [parse] {bad}: line 3: "),
            (["run", "--circuit", str(bad)],
             "error: peepopt run: the following arguments are required: --out"),
            (["run", "--circuit", str(bad), "--k", "two"] + out,
             "error: peepopt run: argument --k: invalid int value: 'two'"),
            (["bogus"], "error: peepopt: argument command: invalid choice: 'bogus'"),
        ]
        for argv, message in cases:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(message), (argv, err)

    def test_pipeline_error_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty.qasm"
        empty.write_text('OPENQASM 2.0;\nqreg q[2];\n')
        assert main(["run", "--circuit", str(empty), "--k", "2", "--configs", "basic",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: [recombine] basic: ")
