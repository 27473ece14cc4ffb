"""Print the seconds a fresh interpreter takes to import thetamu and build
one workload's scenario configs.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import thetamu  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
