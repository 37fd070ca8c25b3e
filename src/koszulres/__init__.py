"""koszulres: exact construction and verification of minimal free resolutions
of the residue field over Artinian monomial quotient rings, via Koszul
homology block matrices (class T of codepth 3 and complete intersections of
any codepth)."""

__version__ = "0.1.0"

from .exactfield import (
    ExactFieldError,
    Monomial,
    QuotientRing,
    RingFile,
    RingMatrix,
    build_ring,
    kernel_mod,
    parse_ring_file,
    rank_mod,
    serialize_ring_file,
    solve_mod,
)
from .koszul import (
    CycleMatrix,
    KoszulElement,
    cycle_matrix_action,
    koszul_differential,
    parse_koszul_element,
)
from .homology import (
    ClassCIBasis,
    ClassTBasis,
    ClassVerificationError,
    DiscoveryError,
    HomologyAlgebra,
    discover_class_CI_basis,
    discover_class_T_basis,
    verify_class_CI,
    verify_class_T,
)
from .sequences import (
    PowerSeries,
    SequencePack,
    TreeMonomial,
    closed_form_check,
    generating_function_check,
    poincare_CI,
    poincare_T,
    tree_layer,
    u_table,
)
from .builder import (
    AssemblyError,
    Block,
    BuildError,
    ResolutionAssembly,
    alpha,
    assemble_CI,
    assemble_T,
    beta,
    beta_prime,
    gamma,
    graded_A_complexes,
)
from .verifier import (
    OracleResolution,
    VerificationReport,
    check_complex,
    check_exactness,
    check_graded_exactness,
    check_minimality,
    full_verify,
    oracle_resolution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
