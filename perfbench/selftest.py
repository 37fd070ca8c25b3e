"""Fast self-test of the benchmark harness; runs in a few seconds.

    python3 perfbench/selftest.py

It checks, without running any large workload:

1. the whole harness (set-up probes, verify loop, gate, traced run with
   the oracle) on the shipped ``ci3_example.ring`` at ``--max-degree 4``,
   and that the metric names it prints are the ones ``BENCHMARK.json``
   declares;
2. that the gate flags each kind of bad run;
3. that every workload's pre-flight memory estimate is under the RSS
   ceiling, and that the estimate refuses the ROADMAP rows the kernel
   OOM-kills, which are never run;
4. that the benchmark exits non-zero, printing no result, in a directory
   holding only ``BENCHMARK.json`` and the benchmark.

Exits 0 when every check passes, 1 otherwise.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
from harness import (
    ROOT,
    WORKLOADS,
    HarnessError,
    Workload,
    gate,
    preflight,
    run_workload,
)

CI3 = Workload("ci3-d4", "src/koszulres/data/ci3_example.ring",
               4, (1, 3, 6, 10, 15), (1, 3, 3, 1))

failures = []


def check(ok, what):
    print(f"{'pass' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def harness_end_to_end():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists exactly the harness workloads")
    # the traced run also takes the oracle path
    for w, trace, key in ((CI3, False, "end_to_end"),
                          (dataclasses.replace(CI3, oracle=True), True, "per_layer")):
        result = run_workload(w, seed=0, seconds=0, trace=trace, log=lambda _: None)
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] >= harness.MIN_SAMPLES,
              f"ci3 at degree 4 passes the gate (trace {int(trace)}, oracle {w.oracle})")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"trace {int(trace)} prints exactly the {key} metrics "
                           f"of BENCHMARK.json")


def gate_rejects_bad_runs():
    work = Path(tempfile.mkdtemp(dir=harness.WORK_DIR))
    try:
        ring = ROOT / CI3.ring_file
        report = work / "report.json"
        res = harness.run_child([harness.PYTHON, "-m", "koszulres.cli",
                                 *CI3.cli_args(ring), "--out", str(report)], work)
        body = report.read_bytes()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check(gate(CI3, res, body, body) == [], "gate accepts a good ci3 run")

    def doctored(edit):
        doc = json.loads(body)
        edit(doc)
        return json.dumps(doc).encode()

    def section(doc, name):
        return next(s for s in doc["verification"]["sections"] if s["name"] == name)

    def fail_complex(doc):
        section(doc, "complex")["passed"] = False

    bad = {
        "nonzero exit": (dataclasses.replace(res, code=4), body, body),
        "RSS above the ceiling": (dataclasses.replace(
            res, rss_mb=harness.RSS_CEILING_MB + 1.0), body, body),
        "no report": (res, None, None),
        "report bytes differ": (res, body, body + b" "),
        "wrong ranks": (res, doctored(lambda d: d.update(ranks=[1, 3, 6, 10, 16])), None),
        "wrong a invariants": (res, doctored(lambda d: d.update(a_invariants=[1, 3, 3])), None),
        "failed section": (res, doctored(fail_complex), None),
        "h0 not 1": (res, doctored(lambda d: section(d, "exactness")["details"].update(
            h0_dimension=2)), None),
        "nonzero homology": (res, doctored(lambda d: section(d, "exactness")["details"]
                                           ["homology"].update({"2": 1})), None),
    }
    for what, (r, b, ref) in bad.items():
        check(gate(CI3, r, b, ref) != [], f"gate rejects: {what}")
    oracle_ci3 = dataclasses.replace(CI3, oracle=True)
    check(gate(oracle_ci3, res, body, None) != [], "gate rejects: oracle section missing")


def memory_preflight():
    sys.path.insert(0, str(harness.SRC))
    from koszulres.exactfield import build_ring, parse_ring_file
    from koszulres.homology import HomologyAlgebra
    from koszulres.sequences import poincare_T

    def dim_of(text, char=None):
        return build_ring(parse_ring_file(text), char_override=char).dim

    for w in WORKLOADS.values():
        dim = dim_of(w.ring_text(0), w.char)
        need = harness.flat_bytes_estimate(w.ranks, dim) / 2 ** 20
        check(need < harness.RSS_CEILING_MB,
              f"{w.name}: dense exactness estimate {need:.0f} MB is under "
              f"{harness.RSS_CEILING_MB} MB")

    def refused(w, dim):
        try:
            preflight(w, dim)
        except HarnessError:
            return True
        return False

    t_text = (ROOT / "src/koszulres/data/classT_example.ring").read_text()
    _, PR = poincare_T(4, 6, 3, 3, 10)
    deg10 = dataclasses.replace(WORKLOADS["classT-d8"], max_degree=10,
                                ranks=tuple(PR.coefficient(k) for k in range(11)))
    check(refused(deg10, dim_of(t_text)), "pre-flight refuses classT at degree 10")

    wide = ("characteristic = 32003\nvariables = x, y, z\n"
            "ideal = x^6, y^6, z^6, x^2*y^2*z^2\n")
    ring = build_ring(parse_ring_file(wide))
    a = HomologyAlgebra(ring).ranks
    _, PR = poincare_T(a[1], a[2], a[3], 3, 6)
    wide_w = Workload("wide-d6", None, 6, tuple(PR.coefficient(k) for k in range(7)),
                      tuple(a))
    check(refused(wide_w, ring.dim), "pre-flight refuses (x^6,y^6,z^6,x^2y^2z^2) at degree 6")


def bare_directory_refused():
    bare = Path(tempfile.mkdtemp(dir=harness.WORK_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.BENCH_DIR, bare / harness.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        out = subprocess.run([harness.PYTHON, "perfbench/run.py", "--workload", "classT-d8",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and '"correct"' not in out.stdout,
          "exits non-zero without a result where there is no source tree")


def main() -> int:
    harness.WORK_DIR.mkdir(exist_ok=True)
    gate_rejects_bad_runs()
    memory_preflight()
    bare_directory_refused()
    harness_end_to_end()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
