"""Benchmark entry point named by ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N \
        --trace 0|1

Run from the root of a checkout.  Prints every metric by name and, as
the last line, one JSON object; exits non-zero when an output check
fails (or when the checkout has no ``src/`` to run).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    # The script lives two levels down; a plain ``python3 path/run.py``
    # puts only its own directory on the path.
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e.harness import main as harness_main

    return harness_main()


if __name__ == "__main__":
    sys.exit(main())
