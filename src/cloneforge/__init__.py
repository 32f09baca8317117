"""Optimal cloning of two non-orthogonal qubit states.

The package computes closed-form fidelity/probability bounds for M -> N
cloning of a two-state family, builds the gates and networks that attain
them, simulates those networks by exact projection, and decomposes every
two-qubit gate into CNOTs plus single-qubit rotations.

Conventions (binding everywhere): the family is
cos(theta)|+> +/- sin(theta)|->, with |+> mapped to bit 0 and |-> to bit 1;
qubit 0 is the most significant bit of a basis index; CNOTs are active when
the control is |+>; the heralding ancilla is the last qubit; measurement
outcomes are the strings "plus" and "minus".

Importing the package loads no submodule: each exported name is imported
from its submodule on first access (PEP 562), so the closed forms in
``bounds`` load without numpy.
"""

import importlib

__version__ = "0.1.0"

#: exported names by the submodule that defines them
_EXPORTS = {
    "bounds": (
        "CloneCoefficients",
        "CloningProblem",
        "OptimalAngles",
        "TradeoffPoint",
        "angle_for_copies",
        "clone_coefficients",
        "compose_angle",
        "d_cloner_global_fidelity",
        "d_cloner_local_fidelity",
        "exact_clone_probability",
        "fidelity_at_angles",
        "fidelity_bound",
        "helstrom_bound",
        "hybrid_fidelity_bound",
        "hybrid_limit",
        "idp_probability",
        "optimal_phis",
        "overlap_after_copies",
        "separated_angle",
        "separation_bound",
    ),
    "verify": ("brute_force_fidelity",),
    "gates": (
        "CircuitDecomposition",
        "GatePlacement",
        "clone_gate",
        "cnot",
        "decompose_separation",
        "decompose_transfer",
        "sector_angles",
        "separation_gamma",
        "separation_gate",
        "separation_rotation",
        "transfer_gate",
    ),
    "linalg": (
        "MINUS",
        "PLUS",
        "ImpossibleBranchError",
        "StateVector",
        "Unitary",
        "apply_gate",
        "basis_state",
        "discard_qubit",
        "family_state",
        "global_fidelity",
        "inner",
        "kron",
        "project_qubit",
    ),
    "networks": (
        "ClonerReport",
        "Measurement",
        "NetworkSpec",
        "SimulationResult",
        "approx_network",
        "compression_sequence",
        "decompression_sequence",
        "evaluate_cloner",
        "exact_network",
        "expand_decompositions",
        "hybrid_network",
        "run_network",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
