"""Benchmark entry point.

    python3 bench/run.py --workload train-stoch --seed 1 --seconds 25 --trace 0

Runs one workload in this process on a seeded MovieLens-1M-shaped corpus
generated in process, checks the outputs, and prints one JSON result as the
last line of standard output. --trace 0 gives the end-to-end metrics;
--trace 1 gives the per-layer metrics from a traced run. The exit code is
nonzero when any correctness check fails. See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

WORKLOADS = ("train-stoch", "train-base", "eval-cold")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict:
    """Cap BLAS threads at the cores this process may use. Must run before
    numpy is imported; returns the thread environment it leaves."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "skewrec", "__init__.py")):
        print(f"error: no skewrec sources under {src}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    # a terminated run still removes its corpus file on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    threads = cap_threads()
    sys.path.insert(0, src)
    import harness

    return harness.run(root, args.workload, args.seed, args.seconds,
                       bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
