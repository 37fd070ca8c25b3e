"""Command-line interface.

Subcommands:
  betti        Betti numbers from a ring file or from raw invariants.
  resolve      assemble the resolution, verify it, emit a report.
  verify       verification only (report without matrix dumps).
  demo-classt  run the built-in class-T example and print its matrices.

Exit codes: 0 all checks pass, 2 parse/input error, 3 class verification
failure, 4 mathematical verification failure, 5 out of memory.
"""

import os

# koszulres does exact integer arithmetic and never calls BLAS, so the
# command starts numpy without an OpenBLAS thread pool (a caller's value
# wins).  This runs before any import that loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from . import __version__  # noqa: E402
from .builder import BuildError, alpha  # noqa: E402
from .exactfield import (  # noqa: E402
    ExactFieldError,
    RingFile,
    build_ring,
    parse_ring_file,
    serialize_ring_file,
)
from .homology import ClassVerificationError, DiscoveryError, HomologyAlgebra  # noqa: E402
from .samples import class_t_ring_file  # noqa: E402
from .sequences import (CrossCheckError, SequencePack, poincare_CI,  # noqa: E402
                         poincare_T, sequence_rows, u_table)
from .verifier import full_verify, graded_depth, resolve_basis  # noqa: E402

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CLASS = 3
EXIT_MATH = 4
EXIT_RESOURCE = 5

LP5_NOTE = ("l'_5 = l_3 + (a_2-3) l_4 follows the recurrence; the example "
            "list printing 1347 at this position matches l'_6 and is "
            "recorded as a suspected typo (the recurrence value is kept).")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every error of the library subclasses it
        if isinstance(exc, (ClassVerificationError, DiscoveryError)):
            print(f"class verification failure: {exc}", file=sys.stderr)
            return EXIT_CLASS
        if isinstance(exc, (BuildError, CrossCheckError)):
            print(f"verification failure: {exc}", file=sys.stderr)
            return EXIT_MATH
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a --ring path that is missing, a directory or unreadable
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # numpy's ArrayMemoryError included
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="koszulres",
        description="minimal free resolutions of the residue field over "
                    "Artinian monomial quotient rings (class T and complete "
                    "intersections), with exact verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--ring": dict(type=Path, help="ring description file"),
        "--mode": dict(choices=["T", "CI", "auto"], default=None,
                       help="ring class (default: the file's mode, else auto)"),
        "--max-degree": dict(type=int, default=None,
                             help="last homological degree to assemble"),
        "--order": dict(type=int, default=None, help="power series truncation order"),
        "--out": dict(type=Path, default=None, help="write the JSON report here"),
        "--char": dict(type=int, default=None, help="override the characteristic"),
        "--no-timestamp": dict(action="store_true",
                               help="omit the timestamp (byte-identical reruns)"),
    }

    def common(p, *names):
        for name in names + ("--out", "--char", "--no-timestamp"):
            p.add_argument(name, **options[name])

    p_betti = sub.add_parser("betti", help="Betti numbers / Poincare table")
    source = p_betti.add_mutually_exclusive_group(required=True)
    source.add_argument("--ring", **options["--ring"])
    source.add_argument("--class-t", metavar="a1,a2,a3",
                        help="raw class-T invariants instead of a ring file")
    source.add_argument("--ci", type=int, metavar="c",
                        help="raw complete-intersection codepth instead of a ring file")
    common(p_betti, "--mode", "--order")
    p_betti.add_argument("--n", type=int, default=None,
                         help="embedding dimension for raw invariants")
    p_betti.set_defaults(func=cmd_betti)

    for name, help_text in (("resolve", "assemble and fully verify"),
                            ("verify", "verification report only")):
        p = sub.add_parser(name, help=help_text)
        common(p, "--ring", "--mode", "--max-degree", "--order")
        p.add_argument("--oracle", action="store_true",
                       help="cross-check against the brute-force syzygy oracle")
        p.add_argument("--sign-flip", action="store_true",
                       help="negative control: force the (-1)^deg2 diagonal")
        p.set_defaults(func=_run_verify, emit_matrices=False)
    sub.choices["resolve"].add_argument("--emit-matrices", action="store_true",
                                        help="include differential matrices in the report")

    p_demo = sub.add_parser("demo-classt",
                            help="built-in class-T example with matrix displays")
    common(p_demo, "--max-degree")
    p_demo.set_defaults(func=cmd_demo_classt)
    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _load_ring(args):
    if args.ring is None:
        raise ExactFieldError("no ring file given (use --ring)")
    rf = parse_ring_file(args.ring.read_text())
    ring = build_ring(rf, char_override=args.char)
    mode = args.mode or rf.mode or "auto"
    order = _series_order(args, rf.series_order if rf.series_order is not None else 10)
    return rf, ring, mode, order


def _max_degree(args, rf: RingFile) -> int:
    i_max = (args.max_degree if args.max_degree is not None
             else (rf.max_degree if rf.max_degree is not None else 8))
    _check_max_degree(i_max)
    return i_max


def _series_order(args, default: int) -> int:
    order = args.order if args.order is not None else default
    if order < 0:
        raise ExactFieldError("order must be >= 0")
    return order


def _check_max_degree(i_max: int) -> None:
    if i_max < 1:
        raise ExactFieldError(f"max degree must be >= 1 (got {i_max})")


def _maybe_timestamp(args) -> dict:
    if args.no_timestamp:
        return {}
    return {"generated_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")}


def _emit(report_doc: dict, args):
    text = json.dumps(report_doc, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return text


def _verified_doc(rf: RingFile, F, report, args, **fields) -> dict:
    """The report of the verified resolution F of rf's ring: the keys every
    such report has, and ``fields``."""
    return {"schema_version": SCHEMA_VERSION, "ring": serialize_ring_file(rf),
            "mode": F.mode, "ranks": [int(r) for r in F.ranks],
            "sign_regime": F.sign_regime,
            "verification": {**report.to_dict(include_timings=not args.no_timestamp),
                             "sign_regime": F.sign_regime,
                             "exactness_range": [0, F.i_max]},
            **_maybe_timestamp(args), **fields}


def _u_block(pack: SequencePack, k_hi: int) -> dict:
    table = u_table(k_hi, pack)
    return {f"{k},{s}": v for (k, s), v in sorted(table.items())}


def _series_fields(mode: str, invariants: dict, order: int, u_hi: int) -> tuple:
    """(P^R coefficients 0..order, extra report fields) for invariants n and
    a = (1, a1, a2, a3, ...) (class T) or c (CI).  Class T adds its checked
    sequence rows through k = order, its u table through k = u_hi and the
    l'_5 note."""
    n = invariants["n"]
    if mode == "CI":
        _, PR = poincare_CI(invariants["c"], n, order)
        return [PR.coefficient(k) for k in range(order + 1)], {}
    a1, a2, a3 = invariants["a"][1:4]
    pack = SequencePack(a1, a2, a3)
    _, PR = poincare_T(a1, a2, a3, n, order)
    return ([PR.coefficient(k) for k in range(order + 1)],
            {"sequences": sequence_rows(order, pack),
             "u_table": _u_block(pack, u_hi), "notes": [LP5_NOTE]})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_betti(args) -> int:
    doc = {"schema_version": SCHEMA_VERSION, **_maybe_timestamp(args)}
    if args.ring is None:
        if args.mode is not None or args.char is not None:
            raise ExactFieldError("--mode and --char apply to --ring only")
        if args.class_t is not None:
            try:
                a1, a2, a3 = (int(t) for t in args.class_t.split(","))
            except ValueError:
                raise ExactFieldError("--class-t wants three integers a1,a2,a3") from None
            mode, codepth, invariants = "T", 3, {"a": [1, a1, a2, a3]}
            # the three triple products are independent in A_2, and A_3 is
            # the top of a codepth-3 algebra
            if a2 < 3:
                raise ExactFieldError(f"class T needs a_2 >= 3 (got {a2})")
            if a3 < 1:
                raise ExactFieldError(f"codepth 3 needs a_3 >= 1 (got {a3})")
            # a_1 = 3 generators of a height-3 ideal in a regular ring of
            # dimension 3 form a regular sequence: a complete intersection,
            # where A_1 A_2 = A_3 != 0
            if a1 < 4:
                raise ExactFieldError(f"class T needs a_1 >= 4 (got {a1})")
            # the Euler characteristic 1 - a_1 + a_2 - a_3 of K vanishes
            if a2 != a1 + a3 - 1:
                raise ExactFieldError(
                    f"codepth 3 needs a_2 = a_1 + a_3 - 1 (got a_2 = {a2}, "
                    f"a_1 + a_3 - 1 = {a1 + a3 - 1})")
        else:
            mode, codepth, invariants = "CI", args.ci, {"c": args.ci}
        n = args.n if args.n is not None else codepth
        if n < codepth:
            # codepth = n - depth R, so it never exceeds n
            raise ExactFieldError(f"embedding dimension {n} is below the codepth {codepth}")
        invariants["n"] = n
        order = _series_order(args, 10)
    else:
        if args.n is not None:
            raise ExactFieldError("--n applies to raw invariants only")
        rf, ring, mode, order = _load_ring(args)
        H = HomologyAlgebra(ring)
        mode, _, _ = resolve_basis(H, mode, rf.cycles)
        invariants = {"n": ring.nvars, "a": [int(a) for a in H.ranks]}
        if mode == "CI":
            invariants["c"] = H.codepth
        doc["ring"] = serialize_ring_file(rf)
    betti, extra = _series_fields(mode, invariants, order, min(5, order))
    doc.update(mode=mode, invariants=invariants, betti=betti, **extra)
    text = _emit(doc, args)
    print("betti: " + ",".join(str(b) for b in doc["betti"]))
    if "sequences" in doc:
        for name in ("b", "l", "lp", "lpp"):
            print(f"{name}: " + ",".join(str(v) for v in doc["sequences"][name]))
    if args.out is None:
        print(text)
    return EXIT_OK


def _run_verify(args) -> int:
    rf, ring, mode, order = _load_ring(args)
    i_max = _max_degree(args, rf)
    report, F, _ = full_verify(
        ring, mode, i_max, cycle_strings=rf.cycles, oracle=args.oracle,
        sign_flip=args.sign_flip)
    H_ranks = report.section("class_certificate").details["homology_ranks"]
    doc = _verified_doc(rf, F, report, args, characteristic=ring.p, max_degree=i_max,
                        a_invariants=H_ranks, blocks=F.block_inventory())
    invariants = {"n": ring.nvars, "a": H_ranks, "c": len(H_ranks) - 1}
    doc["poincare"], extra = _series_fields(
        F.mode, invariants, order, graded_depth(i_max))
    doc.update(extra)
    if args.emit_matrices:
        doc["matrices"] = {
            f"d_{i}": _matrix_dump(F.diff(i)) for i in range(1, i_max + 1)
        }
    text = _emit(doc, args)
    for s in report.sections:
        status = "pass" if s.passed else f"FAIL ({s.failure})"
        print(f"{s.name}: {status}")
    print("ranks: " + ",".join(str(r) for r in F.ranks))
    if args.out is None:
        print(text)
    return EXIT_OK if report.passed else EXIT_MATH


def _matrix_dump(M):
    return {
        "rows": M.rows,
        "cols": M.cols,
        "entries": {f"{i},{j}": f for (i, j), f in M.entries.items()},
    }


# ---------------------------------------------------------------------------
# the built-in demo
# ---------------------------------------------------------------------------


def cmd_demo_classt(args) -> int:
    i_max = args.max_degree if args.max_degree is not None else 7
    _check_max_degree(i_max)
    rf = class_t_ring_file(
        p=args.char if args.char is not None else 32003, i_max=i_max)
    ring = build_ring(rf)
    report, F, basis = full_verify(ring, "T", i_max, cycle_strings=rf.cycles)
    a = report.section("class_certificate").details["homology_ranks"]
    pack = basis.pack
    rows = sequence_rows(6, pack)
    print(f"ring: {ring!r}")
    print("cycles:")
    for name, text in rf.cycles.items():
        print(f"  {name} = {text}")
    print(f"a-invariants: {tuple(a)}")
    for name, width in (("b", 6), ("l", 6), ("lp", 6), ("lpp", 7)):
        print(f"{name + ':':5}" + ",".join(str(v) for v in rows[name][:width]))
    print("note: " + LP5_NOTE)

    names = _entry_names(basis)
    print("\ngamma_2 = (" + ", ".join(z.to_string() for z in basis.z2) + ")")
    print("gamma_3 = (" + ", ".join(z.to_string() for z in basis.z3) + ")")
    for k in range(1, 4):
        for r in (k, k + 1, k + 2):
            theta = alpha(k, r, basis)
            print(f"\nalpha_{{{k},{r}}}  ({theta.rows} x {theta.cols}):")
            print(_pretty_cycle_matrix(theta, names, _alpha_col_groups(k, r, pack)))

    print("\nbetti: " + ",".join(str(v) for v in F.ranks))
    print("sign regime: " + F.sign_regime)
    for s in report.sections:
        print(f"{s.name}: {'pass' if s.passed else 'FAIL'}")
    if args.out is not None:
        _emit(_verified_doc(rf, F, report, args), args)
    return EXIT_OK if report.passed else EXIT_MATH


def _entry_names(basis) -> dict:
    return {z: f"z{j}_{u}" for j, cycles in enumerate((basis.z1, basis.z2, basis.z3), 1)
            for u, z in enumerate(cycles, 1)}


def _alpha_col_groups(k, r, pack) -> list:
    """Column group boundaries replicating the block partition (cosmetic)."""
    groups = []
    if r == k:
        for t in range(k):
            for _ in range(pack.d[t]):
                groups.append(pack.b[k - t])
        groups.append((pack.a1 - 3) * pack.l[k - 1])
    elif r == k + 1:
        if k >= 2:
            groups.append(pack.l[k - 2])
        for _ in range(pack.l[k - 1]):
            groups.append(pack.a2 - 3)
    else:
        for _ in range(pack.l[k - 1]):
            groups.append(pack.a3)
    return [g for g in groups if g]


def _pretty_cycle_matrix(theta, names, col_groups) -> str:
    """ASCII grid with dashed separators at the block boundaries."""
    # cycles that are not named basis cycles (the beta' wedges) are shown as
    # the element itself
    shown = [names.get(z) or z.to_string() for z in theta.cycles]
    cells = [["."] * theta.cols for _ in range(theta.rows)]
    for i, j, k in theta.where.tolist():
        cells[i][j] = shown[k]
    cuts = set()
    acc = 0
    for g in col_groups[:-1]:
        acc += g
        cuts.add(acc)
    widths = [max((len(cells[i][j]) for i in range(theta.rows)), default=1)
              for j in range(theta.cols)]
    lines = []
    for row in cells:
        parts = []
        for j, cell in enumerate(row):
            if j in cuts:
                parts.append(":")
            parts.append(cell.rjust(widths[j]))
        lines.append("  ".join(parts))
    return "\n".join(lines) if lines else "(empty)"


if __name__ == "__main__":
    sys.exit(main())
