"""Approximate peephole optimization of quantum circuits.

Partition a circuit into small blocks, generate approximate replacements
for each block, and recombine one choice per block into an ensemble of
noise-resilient result circuits.
"""
from .anneal import AnnealerConfig, dual_anneal, population_anneal
from .circuits import Circuit, Gate, GateKind, cnot_count, compose, hs_distance, unitary_of
from .expand import ApproximationSet, Candidate, OptBudget, ansatz, expand_all, expand_block, optimize_params
from .metrics import jsd, tvd
from .noise import (
    NoiseModel,
    block_fidelity_score,
    frobenius_distance,
    measure_distribution,
    sample_counts,
    simulate_density,
    simulate_distribution,
    simulate_distributions,
)
from .partition import (
    PartitionBlock,
    PartitionGraph,
    build_partition_graph,
    scan_partition,
)
from .pipeline import RunConfig, cnot_reduction, ensemble_distribution, run_pipeline
from .qasm import QasmError, UnsupportedGateError, emit_qasm, parse_qasm
from .recombine import (
    CONFIGURATIONS,
    Mode,
    ObjectiveConfig,
    circuit_error_basic,
    circuit_error_cascade,
    differentiation,
    objective,
    reassemble,
    reassemble_all,
    recombine,
    recombine_iterative,
    recombine_population,
)

__version__ = "0.1.0"
