"""Synthetic-hardware density-matrix simulation.

The noise model applies a depolarizing channel after every gate, with
separate strengths for single- and two-qubit gates, plus optional per-qubit
readout bit flips applied only at measurement time.  The simulator fuses
each gate with its depolarizing channel into one superoperator
(``_gate_channel``), composes the channels of each run of gates on at most
two qubits into one channel, and applies the runs to vec(rho) with
``circuits.gate_product``, so a run, not a gate, costs one pass over rho.
Channels are built per batch of circuits (``_batch_channels``): one stacked
pass builds every one-qubit gate channel, CX's is built once per probability
and orientation, and each distinct run, the same gate objects on the same
qubits, is composed once and shared by every circuit that has it.
``simulate_density`` applies a circuit's runs to the whole 4^n vec(rho) in
one call.  ``simulate_distributions`` holds vec(rho) only on the qubits in
play: a qubit enters as |0><0| at its first run and leaves after its last,
keeping only its diagonal as a measured index, so rho is never held whole.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, GateKind, gate_matrix, gate_plan, gate_product, u3_matrices


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per gate plus optional readout flips.

    ``readout[q]`` is the bit-flip probability of qubit q's measurement and
    has one entry per qubit of the circuit it is used with.  ``overrides``
    maps a qubit to a per-qubit (p1, p2); a gate takes the largest of the
    base probability and the overrides of its qubits, so an override can
    only raise a qubit's probability, never lower it.
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

    def on_block(self, qubits: tuple[int, ...]) -> "NoiseModel":
        """The model a block whose local qubit i is qubit ``qubits[i]`` sees,
        without readout, which block scoring does not apply."""
        overrides = {i: self.overrides[q] for i, q in enumerate(qubits) if q in self.overrides}
        return NoiseModel(self.p1, self.p2, overrides=overrides)

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        """A model from JSON data; ValueError unless it is an object whose
        overrides map qubits to objects with p1 and p2."""
        if not isinstance(data, dict):
            raise ValueError(f"noise model must be a JSON object, got {type(data).__name__}")
        given = data.get("overrides") or {}
        if not isinstance(given, dict):
            raise ValueError(f"noise overrides must be a JSON object, got {type(given).__name__}")
        overrides = {}
        for q, v in given.items():
            if not (isinstance(v, dict) and "p1" in v and "p2" in v):
                raise ValueError(f"noise override of qubit {q} must be an object with p1 and p2, got {v!r}")
            overrides[int(q)] = (_number(v["p1"], f"noise override p1 of qubit {q}"),
                                 _number(v["p2"], f"noise override p2 of qubit {q}"))
        readout = data.get("readout")
        if readout is not None and not isinstance(readout, list):
            raise ValueError(f"noise readout must be a list of numbers, got {readout!r}")
        return cls(
            p1=_number(data.get("p1", 0.0), "noise p1"),
            p2=_number(data.get("p2", 0.0), "noise p2"),
            readout=tuple(_number(r, "noise readout entry") for r in readout) if readout else None,
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


def _number(value, what: str) -> float:
    """``value`` as a float; ValueError unless it is a real number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _gate_channel(u: np.ndarray, p: float) -> np.ndarray:
    """Superoperator of ``rho -> (1-p) U rho U^dag + p Tr(rho) I/d`` on row-major vec(rho).

    Row-major vectorization maps ``U rho U^dag`` to ``kron(U, U*)``, built
    here as one broadcast product, and the fully depolarized output
    ``Tr(rho) I/d`` to ``p/d`` at every (vec(I), vec(I)) position, which
    are the entries ``[::d+1, ::d+1]``.
    """
    d = u.shape[0]
    channel = (1.0 - p) * (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)
    if p:
        channel[::d + 1, ::d + 1] += p / d
    return channel


# Row/column index that reorders a two-qubit ``_gate_channel`` into a run's
# (row a, col a, row b, col b) order: it comes in (row a, row b, col a, col b)
# order for a gate listed as (a, b), keyed True, and (row b, row a, col b,
# col a) for one listed as (b, a), keyed False.
_PAIR_ORDER = {
    same: np.arange(16).reshape(2, 2, 2, 2).transpose(axes).reshape(-1)
    for same, axes in ((True, (0, 2, 1, 3)), (False, (1, 3, 0, 2)))
}
_EYE4 = np.eye(4)


def _runs(gates) -> list[tuple[tuple[int, ...], list]]:
    """Split a gate sequence into runs on at most two qubits each.

    Greedy, with at most one open run per qubit: a gate joins the runs open
    on its qubits while their union has at most two qubits; otherwise the
    runs that reach past the gate's qubits are closed first.  A run is
    ``(qubits, gates)``; a two-qubit run lists its qubits in the order of its
    first two-qubit gate.  Runs come out in an order that keeps every
    qubit's gate order, so applying them in turn applies the gates in turn.
    """
    closed, open_runs = [], {}
    for g in gates:
        run = open_runs.get(g.qubits[0])
        if run is not None and run is open_runs.get(g.qubits[-1]):
            run[1].append(g)  # the run open on all of g's qubits
            continue
        joined = [open_runs[q] for q in g.qubits if q in open_runs]
        if len(joined) == 2 and joined[0] is joined[1]:
            joined.pop()
        if len({q for r in joined for q in r[0]} | set(g.qubits)) > 2:
            for r in [r for r in joined if not set(r[0]) <= set(g.qubits)]:
                closed.append(r)
                joined.remove(r)
                for q in r[0]:
                    del open_runs[q]
        if len(joined) == 1 and set(g.qubits) <= set(joined[0][0]):
            run = joined[0]
        else:
            run = (g.qubits, [h for r in joined for h in r[1]])
            for q in run[0]:
                open_runs[q] = run
        run[1].append(g)
    return closed + list({id(r): r for r in open_runs.values()}.values())


def _fold(m: np.ndarray | None, pa: np.ndarray | None, pb: np.ndarray | None) -> np.ndarray:
    """``kron(pa, pb) @ m`` in (row a, col a, row b, col b) order, where None
    stands for the identity: each 4x4 acts on one half of the index."""
    if m is None:
        pa = _EYE4 if pa is None else pa
        pb = _EYE4 if pb is None else pb
        return (pa[:, None, :, None] * pb[None, :, None, :]).reshape(16, 16)
    if pa is not None:
        m = np.dot(pa, m.reshape(4, 64)).reshape(16, 16)
    if pb is not None:
        m = np.matmul(pb, m.reshape(4, 4, 16)).reshape(16, 16)
    return m


def _one_qubit_channels(gates: list, noise: NoiseModel) -> np.ndarray:
    """``_gate_channel(gate_matrix(g), p)`` of each one-qubit gate, stacked:
    the U3 matrices come from one ``u3_matrices`` call, and as in
    ``_gate_channel`` nothing is added where p is 0."""
    us = np.empty((len(gates), 2, 2), dtype=complex)
    u3 = [i for i, g in enumerate(gates) if g.kind is GateKind.U3]
    us[u3] = u3_matrices(np.array([gates[i].params for i in u3]).reshape(-1, 3))
    for i, g in enumerate(gates):
        if g.kind is not GateKind.U3:
            us[i] = gate_matrix(g)
    ps = np.array([noise.gate_prob(g.qubits) for g in gates], dtype=float)
    chans = (1.0 - ps)[:, None, None] * (
        us[:, :, None, :, None] * us.conj()[:, None, :, None, :]).reshape(-1, 4, 4)
    noisy = np.flatnonzero(ps)
    chans[noisy, ::3, ::3] += (ps[noisy] / 2)[:, None, None]
    return chans


def _batch_channels(circuits: list[Circuit], noise: NoiseModel) -> list[list[tuple]]:
    """Each circuit's ``_runs`` as ``(qubits, channel, vec(rho) qubits it acts
    on, high bit first)``, all built as one batch.

    One stacked pass builds every one-qubit gate's channel.  A two-qubit
    gate's is built once per (kind, probability, orientation): raw for a run
    of that one gate, on (row a, row b, col a, col b), and reordered by
    ``_PAIR_ORDER`` inside a longer run, on (row a, col a, row b, col b).
    Each distinct run, the same gate objects on the same qubits, is composed
    once (``_run_channel``) and shared by every circuit that has it.
    """
    runs = [_runs(circuit.gates) for circuit in circuits]
    singles = list({id(g): g for rs in runs for _, gates in rs for g in gates
                    if len(g.qubits) == 1}.values())
    ones = dict(zip(map(id, singles), _one_qubit_channels(singles, noise)))
    pairs, composed = {}, {}

    def channel(g, same=None):
        if len(g.qubits) == 1:
            return ones[id(g)]
        key = (g.kind, noise.gate_prob(g.qubits), same)
        if key not in pairs:
            s = _gate_channel(gate_matrix(g), key[1])
            pairs[key] = s if same is None else s[_PAIR_ORDER[same][:, None], _PAIR_ORDER[same]]
        return pairs[key]

    def run(n, qubits, gates):
        key = (qubits, *map(id, gates))
        if key not in composed:
            composed[key] = _run_channel(qubits, gates, channel)
        if len(gates) == 1:
            return qubits, composed[key], [n + q for q in qubits] + list(qubits)
        return qubits, composed[key], [v for q in qubits for v in (n + q, q)]

    return [[run(c.num_qubits, *r) for r in rs] for c, rs in zip(circuits, runs)]


def _run_channel(qubits: tuple[int, ...], gates: list, channel) -> np.ndarray:
    """A run's noisy channel, composed from ``channel(g, same)``, gate g's
    ``_gate_channel`` (a two-qubit one reordered when ``same`` is a bool).

    A run of one gate uses its raw channel.  A two-qubit run composes in
    (row a, col a, row b, col b) order: one-qubit channels are multiplied per
    qubit as 4x4s and folded into the 16x16 product before each two-qubit
    gate and at the end.
    """
    if len(gates) == 1:
        return channel(gates[0])
    if len(qubits) == 1:
        m = channel(gates[0])
        for g in gates[1:]:
            m = channel(g) @ m
        return m
    a, b = qubits
    m = pa = pb = None
    for g in gates:
        if g.qubits == (a,):
            pa = channel(g) if pa is None else channel(g) @ pa
        elif g.qubits == (b,):
            pb = channel(g) if pb is None else channel(g) @ pb
        else:
            if pa is not None or pb is not None:
                m, pa, pb = _fold(m, pa, pb), None, None
            s = channel(g, g.qubits[0] == a)
            m = s if m is None else s @ m
    if pa is not None or pb is not None:
        m = _fold(m, pa, pb)
    return m


_CUT_MIN = 4096
DENSITY_QUBIT_LIMIT = 12  # widest circuit whose 4^n density state the simulator holds


def _evolve(n: int, runs: list) -> tuple[np.ndarray, list[int]]:
    """The diagonal of an n-qubit circuit's noisy rho from its runs'
    ``_batch_channels``, from a vec(rho) held only on the qubits in play, as
    2^n entries whose index bits hold ``measured``, high first.

    vec(rho) is a ``2^a x 2^m`` matrix whose row bits hold one pair per
    qubit, column qubit q at an even bit and row qubit n + q above it;
    ``axes`` lists the vec(rho) qubit at each row bit, low first.  A pair
    enters as |0><0| at its qubit's first run, as the highest row bits, and
    leaves after its last run: its diagonal becomes a column bit
    (``_measure``).  The runs between two such cuts go to
    ``circuits.gate_product`` in one call.  At the end the pairs still held,
    an idle qubit's included, are measured the same way.

    vec(rho) is cut only while it holds at least ``_CUT_MIN`` entries, since
    below that a ``gate_product`` call costs more than it saves.  This also
    keeps the bytes of the full 4^n state: measuring all a pairs of a state
    of 2^(2a+m) >= 2^12 entries leaves 2^(a+m) >= 64, so every ``np.dot``
    has a multiple of four columns, as in the full state for n >= 3, or acts
    on |0...0> alone.  BLAS rounds a product with fewer columns through
    other kernels.
    """
    last = {q: i for i, (qubits, _, _) in enumerate(runs) for q in qubits}
    t = np.ones((1, 1), dtype=complex)
    axes, mats, on, measured = [], [], [], []
    for i, (qubits, m, vq) in enumerate(runs):
        if qubits[0] not in axes or qubits[-1] not in axes:
            if mats and t.shape[1] << len(axes) >= _CUT_MIN:
                t, mats, on = _apply(t, mats, on, len(axes)), [], []
            for q in qubits:
                if q not in axes:
                    axes += q, n + q
        mats.append(m)
        on.append(list(map(axes.index, vq)))
        if t.shape[1] << len(axes) >= _CUT_MIN:
            leaving = [q for q in axes[::2] if last[q] <= i]
            if leaving:
                t, mats, on = _apply(t, mats, on, len(axes)), [], []
                t, axes = _measure(t, axes, leaving, n)
                measured += leaving
    if mats:
        t = _apply(t, mats, on, len(axes))
    for q in range(n):
        if q not in axes and q not in measured:
            axes += q, n + q
    measured += axes[::2]
    t, _ = _measure(_pad(t, len(axes)), axes, axes[::2], n)
    return t.reshape(-1), measured


def _pad(t: np.ndarray, a: int) -> np.ndarray:
    """``t`` grown to 2^a rows, its new high row bits at |0><0|."""
    if t.shape[0] == 1 << a:
        return t
    grown = np.zeros((1 << a, t.shape[1]), dtype=complex)
    grown[:t.shape[0]] = t
    return grown


def _apply(t: np.ndarray, mats: list, on: list, a: int) -> np.ndarray:
    """The runs ``mats`` on row bits ``on`` applied to ``t`` grown to 2^a rows."""
    return gate_product(mats, gate_plan(on, a), a, start=_pad(t, a))


def _measure(t: np.ndarray, axes: list[int], qubits: list[int],
             n: int) -> tuple[np.ndarray, list[int]]:
    """``t`` with the pairs of ``qubits`` reduced to their diagonals, which
    become new column bits below the old ones, in the order given."""
    k = len(axes) // 2
    # Tensor axis j holds the pair at row bits 2(k-1-j) and 2(k-1-j) + 1,
    # whose diagonal is its entries 0 and 3.
    pairs = [k - 1 - axes.index(q) // 2 for q in qubits]
    kept = [j for j in range(k) if j not in pairs]
    diag = t.reshape((4,) * k + (-1,))[
        tuple(slice(None, None, 3) if j in pairs else slice(None) for j in range(k))]
    t = diag.transpose(kept + [k] + pairs).reshape(1 << 2 * len(kept), -1)
    return t, [v for v in axes if v % n not in qubits]


def simulate_density(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Density matrix of the circuit run from |0...0> under the noise model.

    Each gate acts as rho -> U rho U^dag followed by a depolarizing channel
    on the gate's qubits (``_gate_channel``).  The gates are grouped into
    runs on at most two qubits (``_runs``), each run's channels are composed
    once into one channel of at most 16x16 (``_batch_channels``), and one
    ``circuits.gate_product`` call applies the runs in turn to row-major
    vec(rho), held as a 2n-qubit state from |0...0>.  Each run, not each
    gate, costs one pass over vec(rho).  Readout error is not applied here.
    """
    n = circuit.num_qubits
    check_width(n)
    (runs,) = _batch_channels([circuit], noise)
    mats, on = [m for _, m, _ in runs], [vq for _, _, vq in runs]
    return _apply(np.ones((1, 1), dtype=complex), mats, on, 2 * n).reshape(1 << n, 1 << n)


def simulate_distributions(circuits: list[Circuit], noise: NoiseModel) -> list[np.ndarray]:
    """``simulate_distribution`` of each circuit, simulated as one batch
    (``_batch_channels``), so a run that several circuits share is composed
    once.  Each circuit then evolves on its own (``_evolve``)."""
    for circuit in circuits:
        check_readout(noise.readout, circuit.num_qubits)
        check_width(circuit.num_qubits)
    dists = []
    for circuit, runs in zip(circuits, _batch_channels(circuits, noise)):
        n = circuit.num_qubits
        diag, measured = _evolve(n, runs)
        order = [measured.index(n - 1 - i) for i in range(n)]
        probs = np.clip(np.real(diag), 0.0, None).reshape((2,) * n).transpose(order).reshape(-1)
        dists.append(_readout_flips(probs, noise.readout))
    return dists


def simulate_distribution(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Outcome probabilities of the circuit under the noise model, readout
    flips included: ``measure_distribution(simulate_density(circuit, noise),
    noise.readout)``, from a vec(rho) that drops each qubit's off-diagonal
    entries after its last run (``_evolve``).  A batch of one."""
    return simulate_distributions([circuit], noise)[0]


def check_width(n: int) -> None:
    """Raise ``DimensionError`` if the density simulator cannot hold ``n`` qubits."""
    if n > DENSITY_QUBIT_LIMIT:
        raise DimensionError(f"{n} qubits exceeds the {DENSITY_QUBIT_LIMIT}-qubit density limit")


def check_readout(readout: tuple[float, ...] | None, num_qubits: int) -> None:
    """Raise ``DimensionError`` unless ``readout`` is None or has one entry per qubit."""
    if readout is not None and len(readout) != num_qubits:
        raise DimensionError(
            f"readout has {len(readout)} entries for a {num_qubits}-qubit circuit"
        )


def measure_distribution(
    rho: np.ndarray, readout: tuple[float, ...] | None = None
) -> np.ndarray:
    """Outcome probabilities: the diagonal of rho, optionally convolved with
    per-qubit readout bit flips (one entry per qubit, checked)."""
    probs = np.clip(np.real(np.diag(rho)), 0.0, None)
    check_readout(readout, int(np.log2(len(probs))))
    return _readout_flips(probs, readout)


def _readout_flips(probs: np.ndarray, readout: tuple[float, ...] | None) -> np.ndarray:
    """``probs`` convolved with qubit q's bit flip of probability readout[q]."""
    if readout is None:
        return probs
    n = len(readout)
    t = probs.reshape((2,) * n)
    for q, f in enumerate(readout):
        if f:
            t = (1.0 - f) * t + f * np.flip(t, axis=n - 1 - q)
    return t.reshape(-1)


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
    """Normalize a counts map back into a dense probability vector.

    ValueError unless ``counts`` is an object that maps bitstrings of at most
    ``num_qubits`` bits to non-negative numbers.
    """
    if not isinstance(counts, dict):
        raise ValueError(f"counts must be a JSON object, got {type(counts).__name__}")
    dist = np.zeros(1 << num_qubits)
    for bits, c in counts.items():
        if not 0 < len(bits) <= num_qubits or bits.strip("01"):
            raise ValueError(f"'{bits}' is not a bitstring of at most {num_qubits} bits")
        if not _number(c, f"count of '{bits}'") >= 0:
            raise ValueError(f"count of '{bits}' must not be negative, got {c!r}")
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
    and the candidate's density matrix under noise (no readout flips).

    ``original`` is the block's circuit or, to score many candidates of one
    block without simulating it again, its noiseless density matrix.
    ``noise`` is read on the candidate's own qubit indices; a block of a
    larger circuit is scored under ``NoiseModel.on_block`` of its qubits.
    """
    if isinstance(original, Circuit):
        original = simulate_density(original, NoiseModel())
    if original.shape != (1 << candidate_circuit.num_qubits,) * 2:
        raise DimensionError("candidate and block qubit counts differ")
    noisy = simulate_density(candidate_circuit, noise)
    return frobenius_distance(original, noisy)
