"""Unit tests for the density-matrix simulator and noise model."""
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from peepopt import noise as noise_module
from peepopt.circuits import (Circuit, Gate, GateKind, cx, gate_matrix, gate_plan, gate_product, rx,
                               rz, u3, unitary_of)
from peepopt.noise import (
    DimensionError,
    NoiseModel,
    block_fidelity_score,
    counts_to_distribution,
    frobenius_distance,
    measure_distribution,
    _PAIR_ORDER,
    _batch_channels,
    _gate_channel,
    _one_qubit_channels,
    _run_channel,
    _runs,
    sample_counts,
    simulate_density,
    simulate_distribution,
    simulate_distributions,
)
from peepopt.qasm import parse_qasm
from conftest import FIXTURE_FILES, random_circuit

PI = math.pi
_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]))


def _embed(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kronecker product over qubits n-1, ..., 0 of ops[q], identity elsewhere."""
    return functools.reduce(np.kron, [ops.get(q, np.eye(2)) for q in reversed(range(n))])


def _dense_reference(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """rho -> U rho U^dag, then (1-p) rho + p/4^m sum_P P rho P^dag over the
    Pauli strings P on the gate's m qubits, all as dense 2^n x 2^n matrices."""
    n = circuit.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for g in circuit.gates:
        m = len(g.qubits)
        local = gate_matrix(g)
        strings = list(itertools.product(_PAULIS, repeat=m))
        # The first-listed qubit is the high bit of the gate's local index.
        full = [_embed(dict(zip(g.qubits, ps)), n) for ps in strings]
        coeffs = [np.trace(functools.reduce(np.kron, ps).conj().T @ local) / (1 << m)
                  for ps in strings]
        u = sum(c * pm for c, pm in zip(coeffs, full))
        rho = u @ rho @ u.conj().T
        p = noise.gate_prob(g.qubits)
        rho = (1 - p) * rho + p / 4**m * sum(pm @ rho @ pm.conj().T for pm in full)
    return rho


def _reference_simulate(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """The simulator before run fusion: one ``tensordot`` of each gate's
    ``_gate_channel`` with rho held as a 2n-axis tensor, gate by gate."""
    n = circuit.num_qubits
    dim = 1 << n
    # Axes (row qubit n-1, ..., row qubit 0, col qubit n-1, ..., col qubit 0).
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    for g in circuit.gates:
        m = len(g.qubits)
        rows = [n - 1 - q for q in g.qubits]
        axes = rows + [a + n for a in rows]
        channel = _gate_channel(gate_matrix(g), noise.gate_prob(g.qubits))
        rho = np.tensordot(channel.reshape((2,) * (4 * m)), rho,
                           axes=(list(range(2 * m, 4 * m)), axes))
        rho = np.moveaxis(rho, list(range(2 * m)), axes)
    return rho.reshape(dim, dim)


def _reference_channel(noise: NoiseModel):
    """Gate g's ``_gate_channel`` built on its own, reordered by
    ``_PAIR_ORDER[same]`` when asked, as ``_run_channel`` reads it."""
    def channel(g, same=None):
        s = _gate_channel(gate_matrix(g), noise.gate_prob(g.qubits))
        if same is None:
            return s
        idx = _PAIR_ORDER[same]
        return s[idx[:, None], idx]
    return channel


def _one_call_simulate(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """``simulate_density`` spelled out on its own, each gate's channel built
    per gate: every run applied to the whole 4^n vec(rho), from |0...0>, in
    one ``gate_product`` call."""
    n = circuit.num_qubits
    dim = 1 << n
    mats, axes = [], []
    for qubits, gates in _runs(circuit.gates):
        mats.append(_run_channel(qubits, gates, _reference_channel(noise)))
        if len(gates) == 1:
            axes.append([n + q for q in qubits] + list(qubits))
        else:
            axes.append([v for q in qubits for v in (n + q, q)])
    start = np.zeros((dim * dim, 1), dtype=complex)
    start[0, 0] = 1.0
    return gate_product(mats, gate_plan(axes, 2 * n), 2 * n, start=start).reshape(dim, dim)


def _assert_same_array(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_matches_reference(circuit: Circuit, noise: NoiseModel) -> None:
    np.testing.assert_allclose(simulate_density(circuit, noise),
                               _reference_simulate(circuit, noise), rtol=0, atol=1e-12)


def _brickwork(rng: np.random.Generator, n: int, layers: int) -> Circuit:
    """U3 on every qubit, then CX.RZ.CX on alternating neighbour pairs, per layer."""
    gates = []
    for layer in range(layers):
        gates += [u3(*rng.uniform(-PI, PI, 3), q) for q in range(n)]
        for a in range(layer % 2, n - 1, 2):
            gates += [cx(a, a + 1), rz(rng.uniform(-PI, PI), a + 1), cx(a, a + 1)]
    return Circuit(n, tuple(gates))


class TestNoiseModel:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(p2=1.5)
        with pytest.raises(ValueError):
            NoiseModel(readout=(0.1, 2.0))

    def test_gate_prob_by_arity(self):
        noise = NoiseModel(p1=0.001, p2=0.01)
        assert noise.gate_prob((0,)) == 0.001
        assert noise.gate_prob((0, 1)) == 0.01

    def test_override_takes_max(self):
        noise = NoiseModel(p1=0.001, p2=0.01, overrides={1: (0.005, 0.002)})
        assert noise.gate_prob((1,)) == 0.005
        assert noise.gate_prob((0, 1)) == 0.01  # base p2 is larger

    def test_dict_round_trip(self):
        noise = NoiseModel(p1=0.001, p2=0.01, readout=(0.02, 0.03),
                           overrides={2: (0.004, 0.05)})
        assert NoiseModel.from_dict(noise.to_dict()) == noise


class TestSimulateDensity:
    def test_empty_circuit(self):
        rho = simulate_density(Circuit(2), NoiseModel())
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(rho, expected)

    def test_depolarized_x_gate(self):
        # X|0> = |1>, then (1-p)|1><1| + p I/2 with p = 0.1.
        circ = Circuit(1, (u3(PI, 0.0, PI, 0),))
        rho = simulate_density(circ, NoiseModel(p1=0.1))
        assert np.allclose(rho, np.diag([0.05, 0.95]), atol=1e-12)

    def test_noiseless_matches_statevector(self):
        rng = np.random.default_rng(21)
        circ = random_circuit(rng, 3, 15)
        rho = simulate_density(circ, NoiseModel())
        psi = unitary_of(circ)[:, 0]
        assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-10)

    def test_two_qubit_depolarizing_channel(self):
        # One CX under p2: (1-p) |00><00| + p I/4 (CX fixes |00>).
        circ = Circuit(2, (cx(0, 1),))
        rho = simulate_density(circ, NoiseModel(p2=0.2))
        expected = 0.8 * np.diag([1.0, 0, 0, 0]) + 0.2 * np.eye(4) / 4
        assert np.allclose(rho, expected, atol=1e-12)

    def test_partial_trace_targets_gate_qubits(self):
        # X on qubit 1 of 2 with p1 noise: qubit 0 stays pure |0>.
        circ = Circuit(2, (u3(PI, 0.0, PI, 1),))
        rho = simulate_density(circ, NoiseModel(p1=0.1))
        # |q1 q0>: (1-p)|10><10| + p (I/2 on q1) (x) |0><0| on q0.
        assert np.allclose(np.diag(rho), [0.05, 0.0, 0.95, 0.0], atol=1e-12)

    def test_trace_and_psd_preserved(self):
        rng = np.random.default_rng(22)
        circ = random_circuit(rng, 3, 20)
        rho = simulate_density(circ, NoiseModel(p1=0.01, p2=0.05))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p1, p2", [(0.0, 0.0), (1e-3, 1e-2), (0.1, 0.2)])
    def test_matches_per_gate_reference(self, n, p1, p2):
        rng = np.random.default_rng([n, int(p2 * 1000)])
        noise = NoiseModel(p1=p1, p2=p2, overrides={0: (0.05, 0.03), n - 1: (0.0, 0.3)})
        for _ in range(3):
            _assert_matches_reference(random_circuit(rng, n, 24), noise)

    @pytest.mark.parametrize("gates", [
        (),
        (cx(0, 1), cx(1, 0), cx(0, 1)),
        (rx(0.3, 2), cx(2, 0), u3(0.1, 0.2, 0.3, 0), cx(0, 2), rz(0.5, 2)),
        tuple(rx(0.1 * i, i % 2) for i in range(12)) + (cx(1, 0),)
        + tuple(u3(0.2, 0.1 * i, 0.3, i % 2) for i in range(9)),
        # The run open on qubit 1 spans qubit 0, so cx(1, 2) closes it first.
        (rx(0.4, 0), cx(0, 1), rz(0.7, 1), cx(1, 2), rx(0.2, 0), cx(0, 1)),
        (rx(0.4, 0), rx(0.5, 2), cx(0, 1), rz(0.6, 1), cx(2, 1), rx(0.7, 0), cx(1, 0)),
    ], ids=["empty", "cx_both_orders", "non_adjacent", "long_one_qubit_runs",
            "run_spans_third_qubit", "alternating_pairs"])
    def test_fusion_edge_cases(self, gates):
        noise = NoiseModel(p1=0.01, p2=0.05, overrides={1: (0.2, 0.1)})
        _assert_matches_reference(Circuit(3, gates), noise)

    def test_channels_act_on_at_most_two_qubits(self, monkeypatch):
        applied = []
        real = noise_module.gate_product

        def recording(mats, plan, n, start=None):
            applied.append(mats)
            return real(mats, plan, n, start)

        monkeypatch.setattr(noise_module, "gate_product", recording)
        rng = np.random.default_rng(5)
        for n in (3, 5):
            simulate_density(random_circuit(rng, n, 40), NoiseModel(p1=0.01, p2=0.02))
        brickwork = _brickwork(rng, 9, 2)
        assert len(brickwork.gates) == 42
        simulate_density(brickwork, NoiseModel(p1=0.001, p2=0.01))
        assert all(m.shape in ((4, 4), (16, 16)) for mats in applied for m in mats)
        assert len(applied[-1]) <= 10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_pauli_twirl_reference(self, n):
        rng = np.random.default_rng(30 + n)
        noise = NoiseModel(p1=0.02, p2=0.05,
                           overrides={1: (0.07, 0.03), n - 1: (0.01, 0.12)})
        for _ in range(4):
            gates = list(random_circuit(rng, n, 16).gates)
            # Both qubit orders, adjacent and not.
            for g in (cx(0, 1), cx(1, 0), cx(0, n - 1), cx(n - 1, 0)):
                gates.insert(int(rng.integers(len(gates) + 1)), g)
            circ = Circuit(n, tuple(gates))
            np.testing.assert_allclose(simulate_density(circ, noise),
                                       _dense_reference(circ, noise), rtol=0, atol=1e-12)

    def test_dimension_limit(self):
        with pytest.raises(DimensionError):
            simulate_density(Circuit(13), NoiseModel())


class TestGrowingState:
    """``simulate_density`` is the one-call product, and
    ``simulate_distribution`` holds vec(rho) only on the qubits in play,
    measuring each qubit after its last run, yet gives the bytes of the
    distribution of that product."""

    @staticmethod
    def _assert_same_as_one_call(circuit: Circuit, noise: NoiseModel) -> None:
        rho = _one_call_simulate(circuit, noise)
        _assert_same_array(simulate_density(circuit, noise), rho)
        dist = measure_distribution(rho, noise.readout)
        _assert_same_array(simulate_distribution(circuit, noise), dist)
        _assert_same_array(dist, measure_distribution(simulate_density(circuit, noise), noise.readout))

    @staticmethod
    def _noise(rng: np.random.Generator, n: int) -> NoiseModel:
        return NoiseModel(p1=0.003, p2=0.02, readout=tuple(rng.uniform(0.0, 0.1, n)),
                          overrides={int(rng.integers(n)): (0.05, 0.03), n - 1: (0.0, 0.2)})

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_random_circuits(self, n):
        rng = np.random.default_rng([n, 14])
        for size in (4, 12, 40):
            noise = self._noise(rng, n)
            self._assert_same_as_one_call(random_circuit(rng, n, size * n // 3 + 1), noise)
            self._assert_same_as_one_call(random_circuit(rng, n, size, cx_fraction=0.8),
                                          dataclasses.replace(noise, readout=None))

    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_idle_qubits(self, n):
        # Gates on a random subset of the qubits; the others stay |0><0|.
        rng = np.random.default_rng([n, 15])
        for used in range(1, n):
            qubits = rng.choice(n, size=used, replace=False)
            inner = random_circuit(rng, used, 6 * used)
            gates = [Gate(g.kind, g.params, tuple(int(qubits[q]) for q in g.qubits))
                     for g in inner.gates]
            self._assert_same_as_one_call(Circuit(n, tuple(gates)), self._noise(rng, n))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_qubit_whose_only_gate_comes_first(self, n):
        rng = np.random.default_rng([n, 16])
        rest = random_circuit(rng, n - 1, 8 * n)
        gates = (rx(0.3, 0),) + tuple(Gate(g.kind, g.params, tuple(q + 1 for q in g.qubits))
                                      for g in rest.gates)
        self._assert_same_as_one_call(Circuit(n, gates), self._noise(rng, n))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_empty_circuit(self, n):
        self._assert_same_as_one_call(Circuit(n), self._noise(np.random.default_rng(n), n))

    @pytest.mark.parametrize("seed", [3, 7])
    def test_brickwork_9q(self, seed):
        brickwork = _brickwork(np.random.default_rng(seed), 9, 2)
        self._assert_same_as_one_call(brickwork, NoiseModel(p1=0.001, p2=0.01))
        self._assert_same_as_one_call(brickwork, self._noise(np.random.default_rng(seed), 9))

    def test_measured_brickwork_never_holds_more_than_two_8_qubit_states(self, monkeypatch):
        calls = []  # (runs, entries of vec(rho)) per gate_product call
        real = noise_module.gate_product

        def recording(mats, plan, n, start=None):
            out = real(mats, plan, n, start)
            calls.append((len(mats), out.size))
            return out

        monkeypatch.setattr(noise_module, "gate_product", recording)
        brickwork = _brickwork(np.random.default_rng(7), 9, 2)
        runs = len(_runs(brickwork.gates))
        simulate_distribution(brickwork, NoiseModel(p1=0.001, p2=0.01))
        assert sum(k for k, _ in calls) == runs
        assert max(size for _, size in calls) == 2 * 4**8
        # The full 4^9 state would take runs * 4^9 entry passes.
        assert 8 * sum(k * size for k, size in calls) < runs * 4**9
        calls.clear()
        simulate_density(brickwork, NoiseModel(p1=0.001, p2=0.01))
        assert sum(k for k, _ in calls) == runs
        assert max(size for _, size in calls) == 4**9

    def test_readout_width_checked(self):
        with pytest.raises(DimensionError, match="readout has 1 entries for a 2-qubit circuit"):
            simulate_distribution(Circuit(2, (cx(0, 1),)), NoiseModel(readout=(0.1,)))

    def test_dimension_limit(self):
        with pytest.raises(DimensionError):
            simulate_distribution(Circuit(13), NoiseModel())


class TestBatch:
    """One ``_batch_channels`` call per batch: its channels are the per-gate
    ``_gate_channel``s, and ``simulate_distributions`` gives each circuit the
    bytes it gets alone."""

    NOISES = {
        "p0": NoiseModel(),
        "uniform": NoiseModel(p1=0.001, p2=0.01),
        "overrides": NoiseModel(p1=0.001, p2=0.01, overrides={1: (0.05, 0.2), 2: (0.0, 0.3)}),
        "mixed-zero": NoiseModel(overrides={1: (0.02, 0.0)}),
    }

    @staticmethod
    def _every_kind(rng: np.random.Generator) -> list[Gate]:
        """One gate of every kind on each of qubits 0-2, and CX both ways on each pair."""
        gates = []
        for q in range(3):
            gates += [rx(rng.uniform(-PI, PI), q), Gate(GateKind.RY, (rng.uniform(-PI, PI),), (q,)),
                      rz(rng.uniform(-PI, PI), q), u3(*rng.uniform(-PI, PI, 3), q)]
        return gates + [cx(a, b) for a, b in itertools.permutations(range(3), 2)]

    @pytest.mark.parametrize("name", sorted(NOISES))
    def test_gate_channels_equal_gate_channel(self, name):
        noise = self.NOISES[name]
        rng = np.random.default_rng(31)
        gates = [g for _ in range(10) for g in self._every_kind(rng)]
        ones = [g for g in gates if len(g.qubits) == 1]
        for g, s in zip(ones, _one_qubit_channels(ones, noise)):
            _assert_same_array(s, _gate_channel(gate_matrix(g), noise.gate_prob(g.qubits)))
        batch = _batch_channels([Circuit(3, (g,)) for g in gates], noise)  # one-gate runs
        for g, ((_, m, _),) in zip(gates, batch):
            _assert_same_array(m, _gate_channel(gate_matrix(g), noise.gate_prob(g.qubits)))

    @pytest.mark.parametrize("name", sorted(NOISES))
    def test_run_channels_equal_per_gate_composition(self, name):
        # Two-qubit runs hold CX in both orientations and one-qubit gates of
        # every kind on either side.
        noise = self.NOISES[name]
        rng = np.random.default_rng(32)
        circuits = [random_circuit(rng, 3, 24, 0.5) for _ in range(20)]
        for circuit, batch in zip(circuits, _batch_channels(circuits, noise)):
            runs = _runs(circuit.gates)
            assert [qubits for qubits, _, _ in batch] == [qubits for qubits, _ in runs]
            for (qubits, gates), (_, m, _) in zip(runs, batch):
                _assert_same_array(m, _run_channel(qubits, gates, _reference_channel(noise)))
        assert {len(q) for c in circuits for q, gates in _runs(c.gates) if len(gates) > 1} == {1, 2}

    @staticmethod
    def _assert_batch_is_each_alone(circuits: list[Circuit], noise: NoiseModel) -> None:
        dists = simulate_distributions(circuits, noise)
        assert len(dists) == len(circuits)
        for circuit, dist in zip(circuits, dists):
            _assert_same_array(dist, simulate_distribution(circuit, noise))
            _assert_same_array(dist, measure_distribution(_one_call_simulate(circuit, noise),
                                                          noise.readout))

    @pytest.mark.parametrize("name", sorted(NOISES))
    def test_fixtures_and_random_circuits(self, name):
        rng = np.random.default_rng(33)
        circuits = [parse_qasm(f.read_text()) for f in FIXTURE_FILES]
        circuits += [random_circuit(rng, n, size) for n in (1, 2, 3, 5) for size in (0, 6, 25)]
        self._assert_batch_is_each_alone(circuits, self.NOISES[name])

    @pytest.mark.parametrize("name", sorted(NOISES))
    def test_circuits_sharing_gate_objects(self, name):
        # Cuts and splices of one gate list share its Gate objects, so their
        # runs meet in the table; readout needs one width for the batch.
        rng = np.random.default_rng(34)
        gates = random_circuit(rng, 4, 40).gates
        circuits = [Circuit(4, gates[:i] + gates[j:]) for i, j in ((40, 40), (10, 12), (0, 25), (31, 33))]
        circuits += [Circuit(4, gates[20:] + gates[:20]), circuits[0]]
        noise = dataclasses.replace(self.NOISES[name], readout=(0.01, 0.0, 0.03, 0.02))
        self._assert_batch_is_each_alone(circuits, noise)

    def test_checks_every_circuit_before_simulating(self):
        with pytest.raises(DimensionError, match="readout has 2 entries for a 3-qubit circuit"):
            simulate_distributions([Circuit(2, (cx(0, 1),)), Circuit(3)], NoiseModel(readout=(0.1, 0.2)))
        with pytest.raises(DimensionError):
            simulate_distributions([Circuit(1), Circuit(13)], NoiseModel())
        assert simulate_distributions([], NoiseModel()) == []


class TestMeasureDistribution:
    def test_ground_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(measure_distribution(rho), [1, 0])

    def test_maximally_mixed(self):
        assert np.allclose(measure_distribution(np.eye(2) / 2), [0.5, 0.5])

    def test_readout_flip(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(measure_distribution(rho, (0.1,)), [0.9, 0.1])

    def test_readout_acts_per_qubit(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        dist = measure_distribution(rho, (0.1, 0.2))
        # Independent flips: index bit 0 is qubit 0.
        assert dist == pytest.approx([0.9 * 0.8, 0.1 * 0.8, 0.9 * 0.2, 0.1 * 0.2])

    @pytest.mark.parametrize("readout", [(0.0, 0.0, 0.3), (0.3,)])
    def test_readout_length_must_match_qubits(self, readout):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        message = f"readout has {len(readout)} entries for a 2-qubit circuit"
        with pytest.raises(DimensionError, match=message):
            measure_distribution(rho, readout)


class TestSampling:
    def test_deterministic_point_mass(self):
        assert sample_counts(np.array([1.0, 0.0]), 1024, 0) == {"0": 1024}

    def test_total_and_determinism(self):
        dist = np.array([0.5, 0.5])
        counts = sample_counts(dist, 8192, 7)
        assert sum(counts.values()) == 8192
        assert abs(counts["0"] - 4096) < 300  # 6 sigma binomial bound
        assert sample_counts(dist, 8192, 7) == counts

    def test_bitstring_orientation(self):
        # Index 1 = qubit 0 set; the key shows qubit n-1 first.
        dist = np.array([0.0, 1.0, 0.0, 0.0])
        assert sample_counts(dist, 10, 0) == {"01": 10}

    def test_counts_round_trip(self):
        dist = np.array([0.25, 0.5, 0.125, 0.125])
        counts = sample_counts(dist, 4096, 3)
        back = counts_to_distribution(counts, 2)
        assert np.abs(back - dist).max() < 0.05

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            counts_to_distribution({}, 1)


class TestScores:
    def test_frobenius_worked_value(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        assert frobenius_distance(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert frobenius_distance(b, a) == frobenius_distance(a, b)

    def test_frobenius_dim_mismatch(self):
        with pytest.raises(DimensionError):
            frobenius_distance(np.eye(2), np.eye(4))

    def test_score_zero_for_identical_noiseless(self):
        circ = Circuit(1, (rx(0.4, 0),))
        assert block_fidelity_score(circ, circ, NoiseModel()) == pytest.approx(0.0)

    def test_score_orthogonal_states(self):
        x_circ = Circuit(1, (u3(PI, 0.0, PI, 0),))
        ident = Circuit(1)
        score = block_fidelity_score(ident, x_circ, NoiseModel())
        assert score == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_noise_displaces_exact_candidate(self):
        circ = Circuit(1, (rx(0.4, 0),))
        assert block_fidelity_score(circ, circ, NoiseModel(p1=0.01)) > 0

    def test_precomputed_ideal_density_gives_same_score(self):
        rng = np.random.default_rng(23)
        block, cand = random_circuit(rng, 2, 8), random_circuit(rng, 2, 5)
        noise = NoiseModel(p1=0.01, p2=0.05)
        ideal = simulate_density(block, NoiseModel())
        assert block_fidelity_score(cand, ideal, noise) == block_fidelity_score(cand, block, noise)
        with pytest.raises(DimensionError):
            block_fidelity_score(Circuit(1), ideal, noise)

    def test_readout_ignored_by_score(self):
        circ = Circuit(1, (rx(0.4, 0),))
        with_readout = NoiseModel(p1=0.01, readout=(0.3,))
        without = NoiseModel(p1=0.01)
        assert block_fidelity_score(circ, circ, with_readout) == pytest.approx(
            block_fidelity_score(circ, circ, without), abs=1e-15
        )
