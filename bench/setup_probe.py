"""One cold start: import ringcav in a fresh interpreter and complete the
workload's first operation.  Prints the seconds this took.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

``run.py`` starts this several times per run and reports the median as
``setup_s``; it also pins the BLAS threads this process inherits.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"),
                str(BENCH)]

import workloads  # noqa: E402  (imports ringcav)


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    wl = workloads.make(name, seed, workdir)
    op = next(wl.blocks())[0]
    out = wl.run(op)
    elapsed = time.perf_counter() - T0
    if not wl.check(0, op, out):
        sys.exit(f"setup_probe: first {name} operation failed its check")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
