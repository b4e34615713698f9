"""Planted-structure models, scan-type estimators, sum-of-squares
relaxations, and expansivity-based pseudo-moment certificates, at desk scale.
"""

from . import errors
from .certificate import (
    ExpansivityTable,
    FeasibilityReport,
    PseudoExpectation,
    build_certificate,
    certificate_objective,
    certify,
    expansivity_table,
    positivity_graph,
    verify_certificate,
)
from .estimators import ScanResult, avg_estimate, lp_estimate, max_estimate, scan_estimate
from .lab import (
    ExperimentConfig,
    GridPoint,
    run_certificate_experiment,
    run_experiment,
    run_gap_experiment,
    run_threshold_sweep,
)
from .matrix import NoisyMatrix, read_matrix_json, write_matrix_json
from .models import ModelParams, Noise, PlantedInstance, generate
from .sdp import SdpSolution, SolverOptions, solve
from .seeds import generator, mix_seed
from .sos import SosProgram, assemble_basic, assemble_level

__all__ = [
    "errors",
    "ExpansivityTable",
    "FeasibilityReport",
    "PseudoExpectation",
    "build_certificate",
    "certificate_objective",
    "certify",
    "expansivity_table",
    "positivity_graph",
    "verify_certificate",
    "ScanResult",
    "avg_estimate",
    "lp_estimate",
    "max_estimate",
    "scan_estimate",
    "ExperimentConfig",
    "GridPoint",
    "run_certificate_experiment",
    "run_experiment",
    "run_gap_experiment",
    "run_threshold_sweep",
    "NoisyMatrix",
    "read_matrix_json",
    "write_matrix_json",
    "ModelParams",
    "Noise",
    "PlantedInstance",
    "generate",
    "SdpSolution",
    "SolverOptions",
    "solve",
    "generator",
    "mix_seed",
    "SosProgram",
    "assemble_basic",
    "assemble_level",
]
