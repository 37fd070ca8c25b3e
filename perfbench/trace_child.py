"""Traced run of ``koszulres verify``, timed from outside the library.

Runs the CLI itself (``koszulres.cli.main``) with the arguments the untraced
runs use, after replacing each pipeline stage, as the name the CLI or
``verifier.full_verify`` looks up at call time, with a wrapper that records a
span around the call.  No stage is re-implemented here, so the spans follow
whatever ``full_verify`` runs.  Several names may feed one span name (class T
and complete intersections assemble through different functions); the
harness sums the spans of one name.

``verifier.oracle_resolution`` is the oracle stage of ``full_verify``: from
the return of ``check_exactness`` to the return of ``full_verify``.  With
``--oracle`` it is the ``oracle_resolution`` call and its comparison; without,
it is the skip.

Prints the CLI's own lines, then, as the last line, one JSON object: the
spans (seconds on this process's clock), the layer counts, and the certified
numbers the benchmark compares with the untraced CLI report.  Exits with the
CLI's exit code.

Usage: PYTHONPATH=src python3 perfbench/trace_child.py VERIFY_ARG...
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from koszulres import cli, verifier  # noqa: E402

from harness import flat_bytes, flat_entries  # noqa: E402

spans = []
seen = {}  # values the counts are taken from, caught on their way through


def clock():
    return time.perf_counter() - T0


def timed(module, attr, span=None):
    """Replace ``module.attr`` with a wrapper that records ``span`` (if any)
    around each call, then keeps the result under ``attr`` and the peak RSS
    so far under ``attr + "_rss_mb"``."""
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            if span is not None:
                spans.append({"name": span, "start": start, "end": clock()})
        seen[attr] = out
        seen[attr + "_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    setattr(module, attr, wrapper)


STAGES = (
    (cli, "parse_ring_file", "exactfield.build_ring"),
    (cli, "build_ring", "exactfield.build_ring"),
    (verifier, "HomologyAlgebra", "homology.HomologyAlgebra"),
    (verifier, "resolve_basis", "verifier.resolve_basis"),
    (verifier, "SequencePack", "sequences.poincare"),
    (verifier, "poincare_T", "sequences.poincare"),
    (verifier, "poincare_CI", "sequences.poincare"),
    (verifier, "assemble_T", "builder.assemble"),
    (verifier, "assemble_CI", "builder.assemble"),
    (verifier, "graded_A_complexes", "builder.graded_A_complexes"),
    (verifier, "check_graded_exactness", "verifier.check_graded_exactness"),
    (verifier, "check_complex", "verifier.check_complex"),
    (verifier, "check_minimality", "verifier.check_minimality"),
    (verifier, "check_exactness", "verifier.check_exactness"),
    (verifier, "oracle_resolution", None),  # its span is the tail of full_verify
)


def install():
    for module, attr, span in STAGES:
        timed(module, attr, span)

    pipeline = cli.full_verify

    def full_verify(*args, **kwargs):
        out = pipeline(*args, **kwargs)
        seen["full_verify"] = out
        start = next(s["end"] for s in reversed(spans)
                     if s["name"] == "verifier.check_exactness")
        spans.append({"name": "verifier.oracle_resolution", "start": start, "end": clock()})
        return out

    cli.full_verify = full_verify


def summary():
    _, F, _ = seen["full_verify"]
    ring = seen["build_ring"]
    exact = seen["check_exactness"]
    H = seen["HomologyAlgebra"]
    diffs = [F.diff(i) for i in range(1, len(F.ranks))]
    flat = flat_entries([(d.rows, d.cols) for d in diffs], ring.dim)
    oracle = seen.get("oracle_resolution")
    oracle_flat = []
    if oracle is not None:
        # the oracle flattens every differential but the last it builds
        oracle_flat = flat_entries([(m.rows, m.cols) for m in oracle.differentials[:-1]],
                                   ring.dim)
    return {
        "spans": spans,
        "counts": {
            "exactfield.flat_entries": sum(flat),
            "exactfield.flat_bytes_peak": flat_bytes(flat),
            "homology.koszul_flat_entries": sum(int(m.size) for m in H.flat_diff),
            "builder.diff_nnz": sum(len(d.entries) for d in diffs),
            "verifier.oracle_flat_entries": sum(oracle_flat),
        },
        "check_exactness_rss_mb": seen["check_exactness_rss_mb"],
        "ranks": [int(r) for r in F.ranks],
        "flat_ranks": {str(k): int(v) for k, v in exact.details["flat_ranks"].items()},
        "oracle_betti": None if oracle is None else [int(b) for b in oracle.betti],
    }


if __name__ == "__main__":
    install()
    code = cli.main(sys.argv[1:])
    if "full_verify" in seen:
        print(json.dumps(summary()))
    sys.exit(code)
