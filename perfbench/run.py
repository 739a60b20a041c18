"""gwqap benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. gwqap is imported from ``src/`` of that root.
With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric, taken
from spans recorded around the package's call boundaries, and the spans are
written to ``.perfbench_out/``. Exits 1 when an output fails the correctness
gate and 2 when gwqap cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every workload runs its ops on one client thread; one BLAS thread keeps
# worker threads x BLAS threads within nproc and the timings steady
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest specs only, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail_setup(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy is first imported
    if not (ROOT / "src" / "gwqap" / "__init__.py").is_file():
        fail_setup(f"no gwqap sources under {ROOT / 'src'}")
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    t0 = time.perf_counter()
    import gwqap
    from perfbench import runner
    import_s = time.perf_counter() - t0
    if Path(gwqap.__file__).resolve().parent != ROOT / "src" / "gwqap":
        fail_setup(f"gwqap imported from {gwqap.__file__}, not this checkout")
    return runner.run(args, import_s, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
