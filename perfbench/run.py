"""Certification benchmark for koszulres.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classT-d8 --seed 1 --seconds 20 --trace 0

One run measures one workload (see ``harness.WORKLOADS``):

* ``verify_s`` and ``peak_rss_mb``: medians over ``koszulres verify ...
  --no-timestamp`` children run in a closed loop, one at a time, for
  ``--seconds`` (at least three of them), wall time from spawn to exit and
  ``ru_maxrss`` from ``os.wait4``;
* ``setup_s``: median wall time of child processes, two before each verify
  child and in the same environment, that import koszulres and run
  ``parse_ring_file`` + ``build_ring`` on the workload's ring;
* every report goes through the correctness gate; the failed ones are
  ``failed`` out of ``attempted``, and ``fail_rate`` is printed with the
  other figures.

With ``--trace 1`` the same loop runs, then one traced child
(``trace_child.py``) runs the same CLI command with each stage of
``full_verify`` wrapped in a timer from outside, and the result holds the
per-layer metrics instead of the end-to-end ones.  The lines before the
last describe the run: ring text, seed, quartiles, sample counts, each
verify child's wall and user+system time, and ungated information (library
versions, BLAS threads, nproc, MemTotal, ``src/`` line count).  The last
line is the JSON result.  The exit code is 2, with no result, when the
benchmark cannot run.
"""

import argparse
import json
import sys

from harness import WORKLOADS, HarnessError, run_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
