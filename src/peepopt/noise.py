"""Synthetic-hardware density-matrix simulation.

The noise model applies a depolarizing channel after every gate, with
separate strengths for single- and two-qubit gates, plus optional per-qubit
readout bit flips applied only at measurement time.  The simulator fuses
each gate with its depolarizing channel into one 4^m x 4^m superoperator
on the gate's m qubits and contracts it with the density matrix held as a
2n-axis tensor, so a noisy gate costs one ``tensordot``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, gate_matrix


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per gate plus optional readout flips.

    ``readout[q]`` is the bit-flip probability of qubit q's measurement;
    ``overrides`` maps a qubit to per-qubit (p1, p2) replacements.  For a
    two-qubit gate the largest applicable p2 wins.
    """

    p1: float = 0.0
    p2: float = 0.0
    readout: tuple[float, ...] | None = None
    overrides: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        probs = [self.p1, self.p2]
        if self.readout is not None:
            object.__setattr__(self, "readout", tuple(self.readout))
            probs.extend(self.readout)
        for ps in self.overrides.values():
            probs.extend(ps)
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")

    def gate_prob(self, qubits: tuple[int, ...]) -> float:
        """Depolarizing probability for a gate on the given qubits."""
        idx = 0 if len(qubits) == 1 else 1
        base = (self.p1, self.p2)[idx]
        for q in qubits:
            if q in self.overrides:
                base = max(base, self.overrides[q][idx])
        return base

    def without_readout(self) -> "NoiseModel":
        return NoiseModel(self.p1, self.p2, None, dict(self.overrides))

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        overrides = {
            int(q): (float(v["p1"]), float(v["p2"]))
            for q, v in (data.get("overrides") or {}).items()
        }
        readout = data.get("readout")
        return cls(
            p1=float(data.get("p1", 0.0)),
            p2=float(data.get("p2", 0.0)),
            readout=tuple(float(r) for r in readout) if readout else None,
            overrides=overrides,
        )

    @classmethod
    def from_json(cls, path) -> "NoiseModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "p1": self.p1,
            "p2": self.p2,
            "readout": list(self.readout) if self.readout else None,
            "overrides": {
                str(q): {"p1": p1, "p2": p2} for q, (p1, p2) in self.overrides.items()
            },
        }


def _gate_channel(u: np.ndarray, p: float) -> np.ndarray:
    """Superoperator of ``rho -> (1-p) U rho U^dag + p Tr(rho) I/d`` on row-major vec(rho).

    Row-major vectorization maps ``U rho U^dag`` to ``kron(U, U*)`` and the
    fully depolarized output ``Tr(rho) I/d`` to ``outer(vec(I)/d, vec(I))``.
    """
    d = u.shape[0]
    channel = (1.0 - p) * np.kron(u, u.conj())
    if p:
        vec_eye = np.eye(d).reshape(-1)
        channel += (p / d) * np.outer(vec_eye, vec_eye)
    return channel


def simulate_density(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Density matrix of the circuit run from |0...0> under the noise model.

    Each gate acts as rho -> U rho U^dag followed by a depolarizing channel
    on the gate's qubits, fused into one 4^m x 4^m superoperator
    (``_gate_channel``) that is contracted with the gate's row and column
    axes of rho held as a 2n-axis tensor.  Readout error is not applied here.
    """
    n = circuit.num_qubits
    if n > 12:
        raise DimensionError(f"{n} qubits exceeds the 12-qubit density limit")
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


def measure_distribution(
    rho: np.ndarray, readout: tuple[float, ...] | None = None
) -> np.ndarray:
    """Outcome probabilities: the diagonal of rho, optionally convolved with
    per-qubit readout bit flips."""
    probs = np.clip(np.real(np.diag(rho)), 0.0, None)
    n = int(np.log2(len(probs)))
    if readout is not None:
        t = probs.reshape((2,) * n)
        for q, f in enumerate(readout):
            if f:
                axis = n - 1 - q
                t = (1.0 - f) * t + f * np.flip(t, axis=axis)
        probs = t.reshape(-1)
    return probs


def sample_counts(dist: np.ndarray, shots: int, seed) -> dict[str, int]:
    """Multinomial counts keyed by bitstring (qubit n-1 first); deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    dist = np.asarray(dist, dtype=float)
    n = int(np.log2(len(dist)))
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, dist / dist.sum())
    return {
        format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0
    }


def counts_to_distribution(counts: dict[str, int], num_qubits: int) -> np.ndarray:
    """Normalize a counts map back into a dense probability vector."""
    dist = np.zeros(1 << num_qubits)
    for bits, c in counts.items():
        dist[int(bits, 2)] += c
    total = dist.sum()
    if total == 0:
        raise ValueError("empty counts map")
    return dist / total


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(sum |a_ij - b_ij|^2)."""
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def block_fidelity_score(candidate_circuit: Circuit, original: Circuit | np.ndarray,
                         noise: NoiseModel) -> float:
    """Frobenius distance between the original block's ideal density matrix
    and the candidate's density matrix under noise (readout disabled).

    ``original`` is the block's circuit or, to score many candidates of one
    block without simulating it again, its noiseless density matrix.
    """
    if isinstance(original, Circuit):
        original = simulate_density(original, NoiseModel.zero())
    if original.shape != (1 << candidate_circuit.num_qubits,) * 2:
        raise DimensionError("candidate and block qubit counts differ")
    noisy = simulate_density(candidate_circuit, noise.without_readout())
    return frobenius_distance(original, noisy)
