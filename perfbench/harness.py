"""Workload table, child-process runners and the correctness gate of the
koszulres certification benchmark.

Every measurement is taken from outside the library: ``koszulres verify`` and
the set-up and trace probes run as child processes with ``PYTHONPATH`` set
to the checkout's ``src/``, one at a time, and each child's wall time and
peak RSS come from ``os.wait4``.  ``run.py`` is the command-line entry point
and ``selftest.py`` the fast check of this module.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

# A run fails if any child's peak RSS passes this; the pre-flight estimate
# refuses a workload whose largest flattened matrix would.  The ROADMAP rows
# that the kernel OOM-kills (classT i_max = 10, (x^6,y^6,z^6,x^2y^2z^2) at
# degree 6) are never run.
RSS_CEILING_MB = 1024
CHILD_TIMEOUT_S = 150
MIN_SAMPLES = 3
SETUP_PER_SAMPLE = 2  # set-up probes before each verify child

PYTHON = sys.executable or "python3"


@dataclass(frozen=True)
class Workload:
    """One fixed verify invocation with its expected certified output."""

    name: str
    ring_file: str | None          # shipped ring, relative to the checkout
    max_degree: int
    ranks: tuple                   # expected Betti numbers b_0..b_max_degree
    a_invariants: tuple            # expected dim A_i, i = 0..codepth
    char: int | None = None        # --char override
    oracle: bool = False
    generated: tuple | None = None  # (variables, ideal, mode) of a generated ring

    def ring_text(self, seed: int) -> str:
        """The exact ring text the CLI reads.  Shipped rings are read as they
        are; for a generated ring the seed permutes the variable order, which
        changes elimination order but not ranks or a-invariants."""
        if self.generated is None:
            return (ROOT / self.ring_file).read_text()
        variables, ideal, mode = self.generated
        order = list(variables)
        random.Random(seed).shuffle(order)
        return (f"characteristic = 32003\n"
                f"variables = {', '.join(order)}\n"
                f"ideal = {', '.join(ideal)}\n"
                f"mode = {mode}\n")

    def cli_args(self, ring_path: Path) -> list:
        args = ["verify", "--ring", str(ring_path),
                "--max-degree", str(self.max_degree)]
        if self.char is not None:
            args += ["--char", str(self.char)]
        if self.oracle:
            args.append("--oracle")
        return args + ["--no-timestamp"]


CLASS_T_RING = "src/koszulres/data/classT_example.ring"

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "classT-d8",
            CLASS_T_RING, 8, (1, 3, 7, 16, 37, 86, 200, 465, 1081), (1, 4, 6, 3)),
        Workload(
            "acit-wide",
            None, 2, (1, 3, 7), (1, 4, 6, 3),
            generated=(("x", "y", "z"), ("x^9", "y^8", "z^7", "x^3*y^3*z^3"), "auto")),
        Workload(
            "bigp-oracle",
            CLASS_T_RING, 6, (1, 3, 7, 16, 37, 86, 200), (1, 4, 6, 3),
            char=2147483647, oracle=True),
    )
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no source tree, a probe crashed, or a
    workload would exceed the memory ceiling)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float      # user + system time of the child
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list, work: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; wall time from spawn to exit, peak RSS
    from the child's own rusage.  A child past ``timeout`` is killed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = work / "child.out"
    err_path = work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0,
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"))


# The set-up probe: the import and ring construction every verify run pays
# before homology starts, in the same environment as the verify children.
# argv: ring path, characteristic override or "-", and "describe" to print
# the ring dimension and library versions.
SETUP_CODE = """\
import json, sys
from pathlib import Path
import koszulres
from koszulres.exactfield import build_ring, parse_ring_file
char = None if sys.argv[2] == "-" else int(sys.argv[2])
ring = build_ring(parse_ring_file(Path(sys.argv[1]).read_text()), char_override=char)
if sys.argv[3:] == ["describe"]:
    import ctypes, numpy
    cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/maps") as fh:
        libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower()})
    getters = [getattr(ctypes.CDLL(lib), sym, None) for lib in libs
               for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_")]
    getters = [fn for fn in getters if fn is not None]
    for fn in getters:
        fn.restype = ctypes.c_int
    threads = getters[0]() if getters else None
    print(json.dumps({"koszulres_file": koszulres.__file__, "dim": ring.dim,
                      "numpy": numpy.__version__,
                      "blas": f"{cfg.get('name')} {cfg.get('version')}",
                      "blas_threads": threads}))
"""


def setup_argv(w: Workload, ring_path: Path, describe: bool = False) -> list:
    char = str(w.char) if w.char is not None else "-"
    return [PYTHON, "-c", SETUP_CODE, str(ring_path), char] + (["describe"] if describe else [])


def describe_environment(w: Workload, ring_path: Path, work: Path) -> dict:
    """Warm-up set-up probe (it fills the bytecode cache) that also reports
    the ring dimension and the library versions the children load."""
    res = run_child(setup_argv(w, ring_path, describe=True), work)
    if res.code != 0:
        raise HarnessError(f"set-up probe failed (exit {res.code}): {res.stderr.strip()[-500:]}")
    info = json.loads(res.stdout.strip().splitlines()[-1])
    src_pkg = (SRC / "koszulres").resolve()
    if Path(info["koszulres_file"]).resolve().parent != src_pkg:
        raise HarnessError(f"children import koszulres from {info['koszulres_file']}, "
                           f"not from {src_pkg}")
    info.update(host_info())
    return info


def host_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2 ** 20,
        "python": sys.version.split()[0],
        "src_lines": src_line_count(),
    }


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def flat_entries(shapes, dim: int) -> list:
    """Entries of each flattened F_p matrix: a rows x cols matrix over R of
    dimension ``dim`` flattens to (rows * dim) x (cols * dim)."""
    return [rows * cols * dim * dim for rows, cols in shapes]


def flat_bytes(entries: list) -> int:
    """Peak bytes of the dense exactness check: the largest flattened d_i as
    int64 plus its float64 copy, 16 bytes an entry."""
    return 16 * max(entries, default=0)


def flat_bytes_estimate(ranks, dim: int) -> int:
    """``flat_bytes`` of a resolution with Betti numbers ``ranks``: d_i is
    b_i x b_{i-1}."""
    return flat_bytes(flat_entries(zip(ranks[1:], ranks[:-1]), dim))


def preflight(w: Workload, dim: int):
    need_mb = flat_bytes_estimate(w.ranks, dim) / 2 ** 20
    if need_mb > RSS_CEILING_MB:
        raise HarnessError(f"{w.name}: the dense exactness matrices alone need about "
                           f"{need_mb:.0f} MB, above the {RSS_CEILING_MB} MB ceiling")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def gate(w: Workload, res: ChildResult, report_bytes: bytes | None,
         reference: bytes | None) -> list:
    """Problems with one verify run; an empty list means it passed.

    Mathematical fields are compared with the workload's expected values, so
    the comparison holds across commits that add report fields; the report
    bytes are compared only with the other runs of the same commit and seed.
    """
    problems = []
    if res.code != 0:
        problems.append(f"exit code {res.code}: {res.stderr.strip()[-300:]}")
    if res.rss_mb > RSS_CEILING_MB:
        problems.append(f"peak RSS {res.rss_mb:.0f} MB above {RSS_CEILING_MB} MB")
    if report_bytes is None:
        return problems + ["no report written"]
    if reference is not None and report_bytes != reference:
        problems.append("report bytes differ from the first run of this seed")
    try:
        doc = json.loads(report_bytes)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    problems += check_report(w, doc)
    return problems


def check_report(w: Workload, doc: dict) -> list:
    problems = []
    ver = doc.get("verification", {})
    sections = {s.get("name"): s for s in ver.get("sections", [])}
    failed = [name for name, s in sections.items() if not s.get("passed")]
    if failed or not ver.get("passed"):
        problems.append(f"failed sections: {failed}")
    if doc.get("ranks") != list(w.ranks):
        problems.append(f"ranks {doc.get('ranks')} != expected {list(w.ranks)}")
    if doc.get("a_invariants") != list(w.a_invariants):
        problems.append(f"a invariants {doc.get('a_invariants')} != "
                        f"expected {list(w.a_invariants)}")
    exact = sections.get("exactness", {}).get("details", {})
    if exact.get("h0_dimension") != 1:
        problems.append(f"h0_dimension {exact.get('h0_dimension')} != 1")
    homology = exact.get("homology")
    if homology is None or len(homology) != w.max_degree - 1 or any(homology.values()):
        problems.append(f"homology not zero in degrees 1..{w.max_degree - 1}: {homology}")
    if w.oracle:
        details = sections.get("oracle", {}).get("details", {})
        betti = details.get("oracle_betti")
        if (not betti or betti != details.get("assembled")
                or betti != list(w.ranks[:len(betti)])):
            problems.append(f"oracle Betti numbers {betti} disagree with {list(w.ranks)}")
    elif "oracle" in sections:
        problems.append("oracle ran on a workload without --oracle")
    return problems


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 log=print) -> dict:
    """One benchmark run: a closed loop of set-up probes and verify
    children for ``seconds`` (at least MIN_SAMPLES verify children), and
    with ``trace`` one traced child.  Returns the result object whose JSON
    is the run's last line."""
    if not (SRC / "koszulres" / "cli.py").is_file():
        raise HarnessError(f"no koszulres source tree at {SRC}")
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_DIR))
    try:
        return _run(w, seed, seconds, trace, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(w, seed, seconds, trace, work, log):
    text = w.ring_text(seed)
    ring_path = work / "workload.ring"
    ring_path.write_text(text)
    log(f"workload {w.name} seed {seed}; ring text: {json.dumps(text)}")

    info = describe_environment(w, ring_path, work)
    preflight(w, info["dim"])
    log("info " + json.dumps(info, sort_keys=True))

    report_path = work / "report.json"
    argv = [PYTHON, "-m", "koszulres.cli", *w.cli_args(ring_path),
            "--out", str(report_path)]
    setup, times, cpu, rss, failures = [], [], [], [], []
    reference = None
    report_doc = None
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_SAMPLES or time.perf_counter() < deadline:
        # set-up probes are spread over the run so that they see the same
        # machine conditions as the verify children
        for _ in range(SETUP_PER_SAMPLE):
            res = run_child(setup_argv(w, ring_path), work)
            if res.code != 0:
                raise HarnessError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
            setup.append(res.wall_s)
        report_path.unlink(missing_ok=True)
        res = run_child(argv, work)
        body = report_path.read_bytes() if report_path.exists() else None
        problems = gate(w, res, body, reference)
        reference = reference or body
        times.append(res.wall_s)
        cpu.append(res.cpu_s)
        rss.append(res.rss_mb)
        if problems:
            failures.append(problems)
            log(f"run {len(times)} FAILED: {'; '.join(problems)}")
        elif report_doc is None:
            report_doc = json.loads(body)

    q1, med, q3 = quartiles(times)
    s_q1, s_med, s_q3 = quartiles(setup)
    attempted, failed = len(times), len(failures)
    log(f"verify_s median {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n={attempted}); "
        f"peak_rss_mb median {statistics.median(rss):.1f} MB; "
        f"setup_s median {s_med:.4f} s (q1 {s_q1:.4f}, q3 {s_q3:.4f}, n={len(setup)}); "
        f"fail_rate {failed / attempted:.4f} ({failed}/{attempted})")
    # not gated: CPU time tells host slow-downs (wall grows, CPU does not)
    # from slower code (both grow)
    log("verify children, wall s: " + " ".join(f"{t:.3f}" for t in times))
    log("verify children, user+sys s: " + " ".join(f"{t:.3f}" for t in cpu))

    metrics = {
        "verify_s": {"value": med, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": s_med, "unit": "s"},
    }
    correct = failed == 0
    if trace:
        layer, problems = traced_run(w, ring_path, work, med, report_doc, reference, log)
        total = layer["trace.total_s"][0]
        for name, (value, unit) in layer.items():
            share = f" ({100 * value / total:.1f}% of trace.total_s)" if unit == "s" else ""
            log(f"  {name} = {value} {unit}{share}")
        if problems:
            correct = False
            log("traced run FAILED: " + "; ".join(problems))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

STAGES = (
    "exactfield.build_ring",
    "homology.HomologyAlgebra",
    "verifier.resolve_basis",
    "sequences.poincare",
    "builder.assemble",
    "builder.graded_A_complexes",
    "verifier.check_graded_exactness",
    "verifier.check_complex",
    "verifier.check_minimality",
    "verifier.check_exactness",
    "verifier.oracle_resolution",
)
COUNTS = (
    ("exactfield.flat_entries", "count"),
    ("exactfield.flat_bytes_peak", "bytes"),
    ("homology.koszul_flat_entries", "count"),
    ("builder.diff_nnz", "count"),
    ("verifier.oracle_flat_entries", "count"),
)


def traced_run(w: Workload, ring_path: Path, work: Path, verify_median: float,
               report_doc: dict | None, reference: bytes | None, log=print):
    """One traced child; returns ({metric: (value, unit)}, problems).  Its
    report goes through the gate like an untraced one, and its ranks and
    flat ranks must equal those of the untraced CLI report.  A stage the
    pipeline did not call (the graded complexes of a complete intersection)
    reads 0."""
    report_path = work / "traced-report.json"
    argv = [PYTHON, str(BENCH_DIR / "trace_child.py"), *w.cli_args(ring_path),
            "--out", str(report_path)]
    res = run_child(argv, work)
    lines = res.stdout.strip().splitlines()
    if res.code != 0 or not lines or not lines[-1].startswith("{"):
        raise HarnessError(f"traced run failed (exit {res.code}): {res.stderr.strip()[-500:]}")
    out = json.loads(lines[-1])
    durations = dict.fromkeys(STAGES, 0.0)
    for span in out["spans"]:
        durations[span["name"]] += span["end"] - span["start"]
    skipped = [name for name in STAGES if name not in {s["name"] for s in out["spans"]}]
    if skipped:
        log(f"traced run: no call to {skipped}")

    body = report_path.read_bytes() if report_path.exists() else None
    problems = [f"traced run: {p}" for p in gate(w, res, body, reference)]
    if report_doc is None:
        problems.append("no CLI report to compare the traced run with")
    else:
        if out["ranks"] != report_doc.get("ranks"):
            problems.append(f"traced ranks {out['ranks']} != CLI {report_doc.get('ranks')}")
        cli_flat = next(s["details"]["flat_ranks"] for s in report_doc["verification"]["sections"]
                        if s["name"] == "exactness")
        if out["flat_ranks"] != cli_flat:
            problems.append(f"traced flat_ranks {out['flat_ranks']} != CLI {cli_flat}")
    betti = out["oracle_betti"]
    if w.oracle and (not betti or betti != list(w.ranks[:len(betti)])):
        problems.append(f"traced oracle Betti numbers {betti}")

    layer = {f"{name}_s": (durations[name], "s") for name in STAGES}
    layer["verifier.check_exactness_rss_mb"] = (out["check_exactness_rss_mb"], "MB")
    for name, unit in COUNTS:
        layer[name] = (out["counts"][name], unit)
    layer["trace.total_s"] = (res.wall_s, "s")
    layer["trace.unaccounted_s"] = (res.wall_s - sum(durations.values()), "s")
    layer["trace.overhead_s"] = (res.wall_s - verify_median, "s")
    layer["trace.peak_rss_mb"] = (res.rss_mb, "MB")
    return layer, problems
