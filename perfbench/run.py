"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 60 --trace 0

Prints a table and, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Details (the
environment block, every op's digest and failures, and with ``--trace 1``
the spans) go to ``.perfbench_out/`` under the repository root.
"""

import os
import sys

# BLAS threads are pinned before numpy can load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _library_path() -> str:
    """The repository's own ``src`` directory; the run stops if it is absent,
    so an installed copy of the library is never benchmarked by mistake."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "unlearnlab", "__init__.py")):
        sys.stderr.write(f"error: no unlearnlab sources under {src}\n")
        sys.exit(2)
    return src


if __name__ == "__main__":
    sys.path[:0] = [_library_path(), HERE]
    import harness

    sys.exit(harness.main(sys.argv[1:], ROOT))
