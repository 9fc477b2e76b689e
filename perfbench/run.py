"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chat-prefix --seed 0 \
        --seconds 20 --trace 0

``--trace 0`` times ``serve()`` untraced and prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and
traced runs and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any output
misses its oracle check, or when the program's sources are missing.

The run environment is pinned before numpy is imported: BLAS and
OpenMP run one thread, and the ``REPRO_*`` knobs that would change the
mesh backend, capture fusion or prefill mode are cleared (each
workload passes its backend explicitly), and the process runs on one
CPU.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Thread-count variables set to 1 before numpy loads its BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Program knobs cleared so every run takes the default code paths.
CLEARED_VARS = ("REPRO_MESH_BACKEND", "REPRO_CAPTURE_FUSE",
                "REPRO_PREFILL_MODE", "REPRO_PREFILL_CHUNK")


def pin_environment() -> None:
    """Single-threaded BLAS, default program knobs (before numpy), and
    one CPU, so the machine-speed kernel runs where ``serve()`` runs."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in CLEARED_VARS:
        os.environ.pop(var, None)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="serve() wall seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "rss"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    if args.child:
        return bench.child(args)
    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
