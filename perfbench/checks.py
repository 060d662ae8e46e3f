"""Output checks for one (circuit, configuration) job, computed from the
emitted QASM of each result circuit.

The full-circuit unitaries come from the small gate-by-gate routine below,
written independently of peepopt's simulator, so a fault in
``peepopt.circuits`` cannot hide itself.

The process distance d = 1 - |Tr(U^dag V)|/D is not subadditive: sqrt(d) is
(it is the phase-minimised Frobenius distance over sqrt(2D)), so the bound
that holds for a composed circuit is d <= (sum_b sqrt(d_b))^2.  A result
past that bound fails.  The paper's bound d <= sum_b d_b
(``circuit_error_basic``) and, for quest/basic, d <= epsilon can be exceeded
by correct circuits whose block errors add coherently; those excesses are
returned as defects and reported, not failed.
"""
from __future__ import annotations

import numpy as np

from peepopt import circuit_error_basic, cnot_count, emit_qasm, parse_qasm, reassemble

TOLERANCE = 1e-9
# Configurations whose results must stay within epsilon of the original.
THRESHOLD_CONFIGS = ("quest", "basic")


def _one_qubit_matrix(kind: str, params: tuple[float, ...]) -> np.ndarray:
    if kind == "rx":
        (t,) = params
        return np.array([[np.cos(t / 2), -1j * np.sin(t / 2)],
                         [-1j * np.sin(t / 2), np.cos(t / 2)]])
    if kind == "ry":
        (t,) = params
        return np.array([[np.cos(t / 2), -np.sin(t / 2)],
                         [np.sin(t / 2), np.cos(t / 2)]], dtype=complex)
    if kind == "rz":
        (t,) = params
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    if kind == "u3":
        theta, phi, lam = params
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return np.array([[c, -np.exp(1j * lam) * s],
                         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])
    raise ValueError(f"no reference matrix for gate '{kind}'")


def reference_unitary(circuit) -> np.ndarray:
    """Unitary of a circuit built row by row: qubit 0 is the least significant
    bit of a basis index and CX qubits are (control, target)."""
    dim = 1 << circuit.num_qubits
    idx = np.arange(dim)
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        kind = g.kind.value
        if kind == "cx":
            control, target = g.qubits
            u = u[np.where((idx >> control) & 1, idx ^ (1 << target), idx)]
            continue
        m = _one_qubit_matrix(kind, g.params)
        bit = 1 << g.qubits[0]
        lo = idx[(idx & bit) == 0]
        hi = lo | bit
        a, b = u[lo], u[hi]
        u = np.empty_like(u)
        u[lo] = m[0, 0] * a + m[0, 1] * b
        u[hi] = m[1, 0] * a + m[1, 1] * b
    return u


def process_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |Tr(u^dag v)| / d."""
    return float(1.0 - abs(np.vdot(u, v)) / u.shape[0])


def check_job(config: str, solutions, results_qasm, approx, original,
              original_unitary: np.ndarray, epsilon: float, c: int
              ) -> tuple[list[str], list[str]]:
    """Failed checks and known-defect findings of one job, as messages."""
    problems, defects = [], []
    if len(solutions) != len(results_qasm) or len(solutions) > c:
        problems.append(f"{len(solutions)} solutions, {len(results_qasm)} QASM results, c={c}")
    for i, (sol, text) in enumerate(zip(solutions, results_qasm)):
        tag = f"{config} result {i}"
        circuit = parse_qasm(text)
        if emit_qasm(circuit) != text:
            problems.append(f"{tag}: QASM does not round-trip")
        if circuit != reassemble(tuple(sol), approx):
            problems.append(f"{tag}: QASM is not the solution's circuit")
        if circuit.num_qubits != original.num_qubits:
            problems.append(f"{tag}: width {circuit.num_qubits} != {original.num_qubits}")
            continue
        if cnot_count(circuit) > cnot_count(original):
            problems.append(f"{tag}: {cnot_count(circuit)} CX > original {cnot_count(original)}")
        distance = process_distance(original_unitary, reference_unitary(circuit))
        block_errors = [approx.candidates[b][k].hs_distance for b, k in enumerate(sol)]
        root_bound = sum(np.sqrt(max(e, 0.0)) for e in block_errors) ** 2
        if distance > root_bound + TOLERANCE:
            problems.append(f"{tag}: distance {distance:.4g} > (sum sqrt d_b)^2 {root_bound:.4g}")
        bound = circuit_error_basic(tuple(sol), approx)
        if distance > bound + TOLERANCE:
            defects.append(f"sum_bound {tag}: distance {distance:.4g} > sum d_b {bound:.4g}")
        if config in THRESHOLD_CONFIGS:
            if bound > epsilon + TOLERANCE:
                problems.append(f"{tag}: sum d_b {bound:.4g} > epsilon {epsilon}")
            if distance > epsilon + TOLERANCE:
                defects.append(f"epsilon {tag}: distance {distance:.4g} > epsilon {epsilon}")
    return problems, defects
