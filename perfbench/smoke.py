"""Smoke test of the benchmark at its shortest run length.

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json it runs run.py
once untraced and once traced with ``--seconds 1`` and checks that:

* every end-to-end metric of BENCHMARK.json is printed untraced, and every
  per-layer metric traced, as a ``metric <name> <value> <unit>`` line with
  the unit BENCHMARK.json gives;
* ``failed_share`` is printed and is 0;
* the last line is the result object with exactly the keys correct,
  attempted, failed and metrics, is correct, and carries exactly the
  metrics of its mode.

Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: seconds one run may take
RUN_TIMEOUT = 180


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    """Problems found in one ``run.py --seconds 1`` run."""
    label = f"{workload} --trace {trace}"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
    problems = []
    for name, unit in {**expected, "failed_share": "ratio"}.items():
        if name not in printed:
            problems.append(f"{label}: metric {name} not printed")
        elif printed[name][1] != unit:
            problems.append(f"{label}: {name} printed in {printed[name][1]}, expected {unit}")
    if printed.get("failed_share", (None,))[0] != 0:
        problems.append(f"{label}: failed_share is {printed.get('failed_share')}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    elif not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: result not correct: {lines[-1][:200]}")
    elif {k: v["unit"] for k, v in result["metrics"].items()} != expected:
        problems.append(f"{label}: result metrics {sorted(result['metrics'])}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in modes.items():
            found = check_run(workload, trace, expected)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
