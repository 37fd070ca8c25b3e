"""koszulres: exact construction and verification of minimal free resolutions
of the residue field over Artinian monomial quotient rings, via Koszul
homology block matrices (class T of codepth 3 and complete intersections of
any codepth).

Importing the package is lazy: each public name is loaded from its submodule
on first access (PEP 562), so ``import koszulres`` loads neither numpy nor
any submodule.  The ``koszulres`` command sets ``OPENBLAS_NUM_THREADS=1``
unless the caller has set it, before numpy loads: all arithmetic here is
exact int64 work that never calls BLAS, so an OpenBLAS thread pool only
costs start-up time.  Library users keep numpy's own threading.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys((
        "ExactFieldError", "Monomial", "QuotientRing", "RingFile", "RingMatrix",
        "build_ring", "kernel_mod", "parse_ring_file", "rank_mod",
        "serialize_ring_file", "solve_mod"), "exactfield"),
    **dict.fromkeys((
        "CycleMatrix", "KoszulElement", "cycle_matrix_action",
        "koszul_differential", "parse_koszul_element"), "koszul"),
    **dict.fromkeys((
        "ClassCIBasis", "ClassTBasis", "ClassVerificationError", "DiscoveryError",
        "HomologyAlgebra", "discover_class_CI_basis", "discover_class_T_basis",
        "verify_class_CI", "verify_class_T"), "homology"),
    **dict.fromkeys((
        "PowerSeries", "SequencePack", "TreeMonomial", "closed_form_check",
        "generating_function_check", "poincare_CI", "poincare_T", "tree_layer",
        "u_table"), "sequences"),
    **dict.fromkeys((
        "AssemblyError", "Block", "BuildError", "ResolutionAssembly", "alpha",
        "assemble_CI", "assemble_T", "beta", "beta_prime", "gamma",
        "graded_A_complexes"), "builder"),
    **dict.fromkeys((
        "OracleResolution", "VerificationReport", "check_complex",
        "check_exactness", "check_graded_exactness", "check_minimality",
        "full_verify", "oracle_resolution"), "verifier"),
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
