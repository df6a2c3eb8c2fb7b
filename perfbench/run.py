"""minibert benchmark: paper-shaped training and bulk ensemble evaluation.

Run from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py --workload desk-short --seed 1 --seconds 20 --trace 0

Each round runs four operations through the public command-line entry
point ``minibert.cli.main`` in this process: ``run`` of the 3x1-layer
ensemble, ``run`` of the 3-layer model, then ``eval --json`` of each
checkpoint.  Rounds repeat until ``--seconds`` have passed (at least two
rounds, so repeated outputs can be compared).  Timings are wall-clock
times around those calls, never the program's own timing files.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the
traced ones plus the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The line before it records the environment.  An operation that raises or
exits non-zero is counted in ``failed``; ``correct`` speaks of the others.
Exit status is 0 when every output check over the completed operations
passed, 1 when one failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("desk-short", "weibo-long", "eval-bulk")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT_DIR = ROOT / ".perfbench-out"
M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024  # the ceiling of glibc's dynamic threshold
TRIM_THRESHOLD = 1024 * 1024 * 1024


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_allocator() -> dict | None:
    """Fix glibc's allocator in the state its dynamic thresholds drift to.

    glibc serves a large block from fresh mmapped pages until one such block
    is freed, then raises its mmap threshold and serves blocks from the
    heap, trimming the heap top when enough of it is free.  Whether an
    operation's temporaries land on retained heap pages or on pages mapped
    afresh therefore depends on the process's history: the same ``eval``
    took 0 minor page faults in one round and 150k (30% more time) in the
    next.  Fixing the mmap threshold at the ceiling the dynamic one can
    reach, and the trim threshold high, serves every temporary from a heap
    that keeps its pages.  Returns the settings, or None where glibc's
    ``mallopt`` is not available.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = {"M_MMAP_THRESHOLD": MMAP_THRESHOLD, "M_TRIM_THRESHOLD": TRIM_THRESHOLD}
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1 or mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1:
        return None
    return settings


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # The paper's premise is one CPU core: pin BLAS before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # numpy advises huge pages for arrays of 4 MB and more; whether they are
    # granted depends on the address-space layout, so identical eval
    # operations took 147k minor faults in some processes and 250k in
    # others.  Without the advice every process takes the same faults.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    settings = {var: os.environ[var] for var in (*THREAD_VARS, "NUMPY_MADVISE_HUGEPAGE")}
    settings["mallopt"] = pin_allocator()
    src = ROOT / "src"
    if not (src / "minibert" / "cli.py").is_file():
        print(f"error: no minibert sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUTPUT_DIR, settings)


if __name__ == "__main__":
    sys.exit(main())
