"""Exact laboratory for triplet hidden-variable models of qubit gates."""

from .cyclotomic import IM, OMEGA, ONE, SQRT2, ZERO, CycInt
from .derive import (
    ConflictingConstraints,
    Constraint,
    FunctionalRep,
    MappingTable,
    derive,
    derivation_report,
    enumerate_mappings,
    extract_constraints,
    merge,
)
from .epr import (
    ContradictionReport,
    check_claim1,
    check_claim2,
    contradiction_report,
    epr_report,
    run_contradiction,
)
from .qstate import (
    GATES,
    BasisLabel,
    GateMatrix,
    Ket,
    apply,
    bell_psi_minus,
    classify,
    eigenvector,
    kron,
    load_gate,
    predicts_opposite,
    proportional,
    run_ket,
    separable,
    tensor,
)
from .triplets import SignMonomial, SymTriplet, Triplet, all_triplets, cnot, h, p_half_pi, run

__version__ = "0.1.0"
