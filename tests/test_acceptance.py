"""Acceptance suite: one test per numbered criterion.

Each test prints a single machine-readable line
``[criterion NN] PASS|FAIL <summary>`` (bypassing output capture) and then
asserts, so the verdicts are visible in any pytest run.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from peepopt.circuits import (
    Circuit,
    cnot_count,
    compose,
    cx,
    hs_distance,
    rx,
    unitary_of,
)
from peepopt.expand import ApproximationSet, Candidate, OptBudget, ansatz, expand_all, score_candidates
from peepopt.metrics import jsd, tvd
from peepopt.noise import NoiseModel, counts_to_distribution, simulate_density
from peepopt.partition import (
    PartitionGraph,
    build_partition_graph,
    pair_embedding,
    scan_partition,
)
from peepopt.pipeline import (
    RunConfig,
    cnot_reduction,
    ensemble_distribution,
    ideal_distribution,
    noisy_counts,
    run_pipeline,
)
from peepopt.qasm import emit_qasm, parse_qasm
from peepopt.recombine import (
    AnnealerConfig,
    Mode,
    ObjectiveConfig,
    circuit_error_basic,
    circuit_error_cascade,
    dual_anneal,
    objective,
    pair_unitary_table,
    population_anneal,
    recombine,
    recombine_population,
)
from conftest import BENCHMARKS, FIXTURE_FILES, random_circuit

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture
def report(capfd):
    def _report(num, ok, summary):
        with capfd.disabled():
            print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {summary}",
                  flush=True)
        assert ok, f"criterion {num}: {summary}"
    return _report


def synthetic_set(specs):
    """Hand-wired approximation set over single-qubit blocks; each candidate
    spec is (hs, cnots, score, unitary)."""
    n = len(specs)
    circ = Circuit(n, tuple(rx(0.1, q) for q in range(n)))
    blocks = scan_partition(circ, 1)
    candidates = [
        [Candidate(blocks[b].local_circuit, u, hs, cnots, score)
         for (hs, cnots, score, u) in block_specs]
        for b, block_specs in enumerate(specs)
    ]
    return ApproximationSet(n, blocks, candidates)


def random_substituted_set(rng, circuit, k, extra=2):
    """Partition a circuit and attach random (unoptimized) ansatz candidates
    with true cached distances."""
    blocks = scan_partition(circuit, k)
    candidates = []
    for block in blocks:
        target = unitary_of(block.local_circuit)
        cands = [Candidate(block.local_circuit, target, 0.0,
                           cnot_count(block.local_circuit))]
        for _ in range(extra):
            q = block.local_circuit.num_qubits
            m = int(rng.integers(0, 3)) if q > 1 else 0
            template = ansatz(m, q)
            params = rng.uniform(-np.pi, np.pi, template.num_params)
            circ = template.instantiate(params)
            u = unitary_of(circ)
            cands.append(Candidate(circ, u, hs_distance(u, target), m))
        candidates.append(cands)
    return ApproximationSet(circuit.num_qubits, blocks, candidates), blocks


def test_criterion_01_objective_table(report):
    start = time.perf_counter()
    approx = synthetic_set([
        [(0.0, 2, 0.3, I2), (0.05, 1, 0.1, I2), (0.05, 1, 0.5, X)],
        [(0.0, 2, 0.2, I2), (0.30, 0, 0.4, I2)],
    ])
    single = synthetic_set([[(0.0, 2, None, I2), (0.3, 1, None, I2)]])
    half = synthetic_set([[(0.0, 2, None, I2), (0.1, 1, None, I2)]])
    no_edges = PartitionGraph(num_blocks=1, edges={})
    B, Q, E, C = Mode.BASIC, Mode.QUEST, Mode.BASIC_ERR, Mode.CASCADE
    cases = [
        # (approx, graph, mode, sol, others, eps, w, allow_dup, expected)
        (approx, None, B, (0, 0), [(0, 0)], 0.1, 0.5, False, 2.2),
        (approx, None, Q, (0, 0), [(0, 0)], 0.1, 0.5, False, 2.2),
        (approx, None, B, (0, 1), [], 0.1, 0.5, False, 0.3 - 0.1 + 1.1),
        (approx, None, Q, (0, 1), [], 0.1, 0.5, False, 2.0),
        (approx, None, B, (1, 0), [], 0.1, 0.5, False, 0.5 * (3 / 4)),
        (approx, None, B, (1, 0), [], 0.1, 1.0, False, 3 / 4),
        (approx, None, B, (1, 0), [], 0.1, 0.0, False, 0.0),
        (approx, None, B, (1, 0), [(1, 0)], 0.1, 0.5, True,
         0.5 * (3 / 4) + 0.5 * 1.0),
        (approx, None, B, (2, 0), [(1, 0)], 0.1, 0.5, False, 0.5 * (3 / 4)),
        (approx, None, E, (0, 1), [], 0.1, 0.5, False, 0.5 * ((0.3 + 0.4) / 2)),
        (approx, None, E, (1, 0), [(1, 0)], 0.1, 0.5, True,
         0.5 * ((0.1 + 0.2) / 2) + 0.5 * 1.0),
        (approx, None, Q, (1, 0), [], 0.1, 0.5, False, 0.5 * (3 / 4)),
        (single, no_edges, C, (1,), [], 0.1, 0.5, False, 0.3 - 0.1 + 1.1),
        (half, None, B, (1,), [], 0.1, 0.5, False, 0.25),  # E == eps boundary
    ]
    worst = 0.0
    for approx_i, graph, mode, sol, others, eps, w, dup, expected in cases:
        cfg = ObjectiveConfig(epsilon=eps, w=w, mode=mode, allow_duplicates=dup)
        got = objective(sol, others, approx_i, graph, cfg)
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"objective table, {len(cases)} cases, max |err| = "
                  f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_upper_bound(report):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        circuit = random_circuit(rng, n, int(rng.integers(8, 20)))
        approx, blocks = random_substituted_set(rng, circuit, 3)
        sol = tuple(int(rng.integers(len(c))) for c in approx.candidates)
        bound = circuit_error_basic(sol, approx)
        full = unitary_of(compose(
            [approx.candidates[b][c].local_circuit for b, c in enumerate(sol)],
            [blk.qubits for blk in blocks], n))
        actual = hs_distance(full, unitary_of(circuit))
        if bound < actual - 1e-9:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    report(2, ok, f"error upper bound, 100 random circuits, "
                  f"{violations} violations, {elapsed:.1f}s")


def test_criterion_03_cascade_degeneracy(report):
    rng = np.random.default_rng(33)
    worst_single = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        circuit = random_circuit(rng, n, 8)
        approx, blocks = random_substituted_set(rng, circuit, n)
        assert len(blocks) == 1
        graph = build_partition_graph(blocks)
        for c in range(len(approx.candidates[0])):
            diff = abs(circuit_error_cascade((c,), approx, graph)
                       - circuit_error_basic((c,), approx))
            worst_single = max(worst_single, diff)

    # Hand-computed weighted average on the three-block partition example.
    circuit = Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 2)))
    approx, blocks = random_substituted_set(rng, circuit, 2)
    graph = build_partition_graph(blocks)
    sol = tuple(int(rng.integers(len(c))) for c in approx.candidates)
    # Oracle: pair distances through an independent compose/unitary path.
    pair_d = {}
    for (i, j) in graph.edges:
        union, _, _ = pair_embedding(blocks, i, j)
        local = {q: x for x, q in enumerate(union)}
        def pair_u(ci, cj):
            return unitary_of(compose(
                [approx.candidates[i][ci].local_circuit,
                 approx.candidates[j][cj].local_circuit],
                [tuple(local[q] for q in blocks[i].qubits),
                 tuple(local[q] for q in blocks[j].qubits)],
                len(union)))
        pair_d[(i, j)] = hs_distance(pair_u(0, 0), pair_u(sol[i], sol[j]))
    expected = 0.0
    for b in range(len(blocks)):
        incident = [e for e in graph.edges if b in e]
        num = sum(graph.edges[e] * pair_d[e] for e in incident)
        den = sum(graph.edges[e] for e in incident)
        expected += num / den
    diff3 = abs(circuit_error_cascade(sol, approx, graph) - expected)
    ok = worst_single <= 1e-12 and diff3 <= 1e-12
    report(3, ok, f"cascade degeneracy: single-block max diff "
                  f"{worst_single:.2e}, 3-block oracle diff {diff3:.2e}")


def _statevector_oracle(circuit):
    """Independent statevector simulation built from explicit kron embeddings."""
    from peepopt.circuits import GateKind, gate_matrix
    n = circuit.num_qubits
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0

    def embed1(u, q):
        return np.kron(np.kron(np.eye(1 << (n - 1 - q)), u), np.eye(1 << q))

    P0 = np.diag([1.0, 0.0]).astype(complex)
    P1 = np.diag([0.0, 1.0]).astype(complex)
    for g in circuit.gates:
        if g.kind is GateKind.CX:
            c, t = g.qubits
            op = embed1(P0, c) + embed1(P1, c) @ embed1(X, t)
        else:
            op = embed1(gate_matrix(g), g.qubits[0])
        psi = op @ psi
    return psi


def test_criterion_04_simulator_oracle(report):
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        circuit = random_circuit(rng, n, int(rng.integers(6, 16)))
        rho = simulate_density(circuit, NoiseModel())
        psi = _statevector_oracle(circuit)
        worst = max(worst, float(np.abs(np.real(np.diag(rho))
                                        - np.abs(psi) ** 2).max()))
    trace_ok = psd_ok = True
    for p in (0.001, 0.01, 0.05):
        for _ in range(5):
            circuit = random_circuit(rng, 4, 12)
            rho = simulate_density(circuit, NoiseModel(p1=p, p2=p))
            trace_ok &= abs(np.trace(rho).real - 1.0) < 1e-10
            psd_ok &= float(np.min(np.linalg.eigvalsh(rho))) > -1e-10
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and trace_ok and psd_ok and elapsed < 60.0
    report(4, ok, f"simulator vs statevector oracle: max diag diff "
                  f"{worst:.2e}, trace/PSD ok={trace_ok and psd_ok}, {elapsed:.1f}s")


def test_criterion_05_annealer_optimality(report):
    start = time.perf_counter()
    bounds = (3, 3, 3, 3)
    hits_iter = hits_pop = 0
    in_range = True
    for i in range(20):
        rng = np.random.default_rng(500 + i)
        table = rng.uniform(0.2, 1.0, size=(4, 3))
        best_idx = rng.integers(0, 3, size=4)
        table[np.arange(4), best_idx] = 0.0
        best = tuple(int(b) for b in best_idx)

        def f(sol):
            nonlocal in_range
            in_range &= all(0 <= c < a for c, a in zip(sol, bounds))
            return float(sum(table[b][c] for b, c in enumerate(sol)))

        oracle = min(itertools.product(range(3), repeat=4), key=f)
        assert oracle == best
        sol, _ = dual_anneal(f, bounds, AnnealerConfig(max_iterations=1200, seed=i))
        hits_iter += sol == best
        out = population_anneal(lambda s, o: f(s), bounds,
                                AnnealerConfig(max_iterations=300, seed=i), 4)
        hits_pop += min(out, key=lambda t: t[1])[0] == best
    elapsed = time.perf_counter() - start
    ok = hits_iter >= 18 and hits_pop >= 18 and in_range and elapsed < 120.0
    report(5, ok, f"annealer optimality: iterative {hits_iter}/20, "
                  f"population {hits_pop}/20, in-range={in_range}, {elapsed:.0f}s")


def test_criterion_06_population_contract(report):
    c, p = 4, 2
    bounds = (5, 5)
    calls = []

    def f(sol, others):
        calls.append((tuple(sol), tuple(tuple(s) for s in others)))
        return float(sum(sol)) / 10.0

    init = [np.array([0.5, 0.5]), np.array([1.5, 2.5]),
            np.array([3.5, 1.5]), np.array([4.5, 4.5])]
    iters = 40
    out = population_anneal(f, bounds, AnnealerConfig(max_iterations=iters, seed=6),
                            c, initial=[v.copy() for v in init])

    sizes_ok = all(len(others) == c - 1 for _, others in calls)
    # Initial phase: member i sees exactly the other members' decodes.
    decodes = [tuple(int(v) for v in x) for x in init]
    excl_ok = all(
        sorted(calls[i][1]) == sorted(decodes[:i] + decodes[i + 1:])
        and calls[i][0] == decodes[i]
        for i in range(c)
    )
    # Attribute calls to members by the deterministic evaluation order and
    # confirm per-member elitism: the returned value is that member's minimum.
    per_member = [[float(sum(calls[i][0])) / 10.0] for i in range(c)]
    idx = c
    block = 1 + 2 * p
    while idx + c * block <= len(calls):
        for m in range(c):
            for _ in range(block):
                per_member[m].append(float(sum(calls[idx][0])) / 10.0)
                idx += 1
    elitism_ok = all(
        out[m][1] == pytest.approx(min(per_member[m]), abs=1e-12) for m in range(c)
    )
    monotone_ok = all(
        bool(np.all(np.diff(np.minimum.accumulate(per_member[m])) <= 0))
        for m in range(c)
    )
    # Forced duplicates with a_b = 1: population returns c identical solutions
    # and the real objective does not hand them the duplicate penalty.
    approx = synthetic_set([[(0.0, 1, None, I2)]])
    graph = PartitionGraph(num_blocks=1, edges={})
    sols = recombine_population(approx, graph, ObjectiveConfig(mode=Mode.BASIC),
                                AnnealerConfig(max_iterations=30, seed=0), 3)
    value = objective(sols[0], sols[1:], approx, graph,
                      ObjectiveConfig(mode=Mode.BASIC, allow_duplicates=True))
    dup_ok = sols == [(0,)] * 3 and value < 2.0
    ok = sizes_ok and excl_ok and elitism_ok and monotone_ok and dup_ok
    report(6, ok, f"population contract: |others|=c-1 {sizes_ok}, "
                  f"self-exclusion {excl_ok}, elitism {elitism_ok}, "
                  f"monotone {monotone_ok}, forced duplicates {dup_ok}")


@pytest.mark.slow
def test_criterion_07_directional_end_to_end(report):
    start = time.perf_counter()
    fixtures = ["adder_5", "qft_5", "tfim_4", "xy_4"]
    noise = NoiseModel(p1=0.001, p2=0.01)
    seeds = range(5)
    budget = OptBudget(restarts=4, max_iters=150)
    median_tvd = {}
    improvements = []
    cnot_reds = []
    for name in fixtures:
        circuit = parse_qasm((BENCHMARKS / f"{name}.qasm").read_text())
        blocks = scan_partition(circuit, 4)
        graph = build_partition_graph(blocks)
        approx = expand_all(blocks, circuit.num_qubits, 0.3, 7, budget)
        score_candidates(approx, noise)
        ideal = ideal_distribution(circuit)
        per_cfg = {c: [] for c in ("quest", "cascade", "pop-err")}
        for seed in seeds:
            base = counts_to_distribution(
                noisy_counts(circuit, noise, 1024, [seed, 0xA]),
                circuit.num_qubits)
            base_tvd = tvd(base, ideal)
            for cfg in per_cfg:
                sols = recombine(cfg, approx, graph, ObjectiveConfig(),
                                 AnnealerConfig(seed=seed), 8)
                dist = ensemble_distribution(sols, approx, noise, 1024, [seed, 1])
                t = tvd(dist, ideal)
                per_cfg[cfg].append(t)
                if cfg == "pop-err":
                    improvements.append(100.0 * (1.0 - t / base_tvd))
                    cnot_reds.append(cnot_reduction(sols, approx, circuit))
        median_tvd[name] = {c: float(np.median(v)) for c, v in per_cfg.items()}
    median_impr = float(np.median(improvements))
    mean_red = float(np.mean(cnot_reds))
    wins = {
        chal: sum(median_tvd[f][chal] < median_tvd[f]["quest"] for f in fixtures)
        for chal in ("pop-err", "cascade")
    }
    elapsed = time.perf_counter() - start
    ok = (median_impr >= 5.0 and mean_red > 0.0
          and wins["pop-err"] * 2 >= len(fixtures)
          and wins["cascade"] * 2 >= len(fixtures)
          and elapsed < 900.0)
    report(7, ok, f"directional end-to-end: median TVD improvement "
                  f"{median_impr:.1f}% (>=5), mean CNOT reduction {mean_red:.1f}% "
                  f"(>0), beats quest: pop-err {wins['pop-err']}/4, "
                  f"cascade {wins['cascade']}/4, {elapsed:.0f}s")


def test_criterion_08_metric_identities(report):
    rng = np.random.default_rng(88)
    bounds_ok = sym_ok = True
    for _ in range(50):
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        for m in (tvd, jsd):
            v = m(p, q)
            bounds_ok &= -1e-12 <= v <= 1.0 + 1e-12
            sym_ok &= abs(v - m(q, p)) < 1e-12
    tvd_err = abs(tvd([0.5, 0.5], [0.75, 0.25]) - 0.25)

    # Independent oracle: entropy form JSD = H(m) - (H(p) + H(q)) / 2.
    def entropy(d):
        return -sum(x * math.log2(x) for x in d if x > 0)

    p, q = [0.5, 0.5], [1.0, 0.0]
    m = [(a + b) / 2 for a, b in zip(p, q)]
    oracle = entropy(m) - 0.5 * (entropy(p) + entropy(q))
    jsd_err = abs(jsd(p, q) - oracle)
    rounded = round(jsd(p, q), 4)
    ok = (bounds_ok and sym_ok and tvd_err <= 1e-12 and jsd_err <= 1e-9
          and rounded == 0.3113)
    report(8, ok, f"metric identities: tvd err {tvd_err:.1e}, jsd vs oracle "
                  f"{jsd_err:.1e}, jsd value {rounded}")


def test_criterion_09_determinism(report, tmp_path):
    src = tmp_path / "tiny.qasm"
    src.write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
        "rx(0.4) q[0];\ncx q[0],q[1];\nrz(0.7) q[1];\ncx q[1],q[2];\n"
        "rx(0.2) q[2];\ncx q[0],q[1];\n")
    payloads = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = RunConfig(
            circuits=[str(src)], k=2, noise=NoiseModel(p1=0.001, p2=0.01),
            configs=["basic", "pop-err"], c=3, seed=5, max_iterations=150,
            expand_restarts=2, expand_max_iters=50, out_dir=str(out))
        run_pipeline(cfg)
        payloads.append((out / "report.json").read_bytes())
    ok = payloads[0] == payloads[1]
    report(9, ok, f"determinism: report.json byte-identical across runs "
                  f"({len(payloads[0])} bytes)")


def test_criterion_10_qasm_round_trip(report):
    fixture_ok = all(
        parse_qasm(emit_qasm(parse_qasm(p.read_text()))) == parse_qasm(p.read_text())
        for p in FIXTURE_FILES
    )
    rng = np.random.default_rng(1010)
    random_ok = True
    for _ in range(100):
        circ = random_circuit(rng, int(rng.integers(1, 7)),
                              int(rng.integers(0, 40)))
        random_ok &= parse_qasm(emit_qasm(circ)) == circ
    ok = fixture_ok and random_ok and len(FIXTURE_FILES) >= 4
    report(10, ok, f"QASM round trip: {len(FIXTURE_FILES)} fixtures ok="
                   f"{fixture_ok}, 100 random ok={random_ok}")


def test_criterion_11_pair_precomputation_scaling(report):
    rng = np.random.default_rng(111)

    def random_unitary(dim):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    us_i = [random_unitary(8) for _ in range(32)]
    us_j = [random_unitary(8) for _ in range(4)]
    pos_i, pos_j = (0, 1, 2), (2, 3, 4)
    sizes = [4, 8, 16, 32]
    repeats = 30
    pair_unitary_table(us_i[:4], us_j, pos_i, pos_j, 5)  # warm up
    times = []
    for a in sizes:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(repeats):
                pair_unitary_table(us_i[:a], us_j, pos_i, pos_j, 5)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    ok = 0.7 <= slope <= 1.3
    report(11, ok, f"pair precomputation scaling: log-log slope {slope:.2f} "
                   f"(1.0 +/- 0.3), times {['%.3fs' % t for t in times]}")
