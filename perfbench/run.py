"""mediankit benchmark.

    python3 perfbench/run.py --workload graph-certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: graph-certify, negdef-embed, cubulate-walls, small-exact, and the
error-path set errors.  Run it from a full checkout: the program under test
is imported from the checkout's src directory, never from elsewhere.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "mediankit" / "__init__.py").is_file():
        print(f"perfbench: no mediankit sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import bench
    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
