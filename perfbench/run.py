"""Time-to-verdict benchmark for thetamu.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's scenarios through ``run_scenario`` and ``report_json``
in one process, closed loop: each scenario starts when the previous one
ends, and passes over the workload repeat until ``--seconds`` have elapsed
(at least two passes).  BLAS threads stay at their default.

With ``--trace 0`` it prints the end-to-end metrics: ``pass_s`` (median wall
seconds per pass), ``setup_s`` (median seconds a fresh interpreter takes to
import thetamu and build the configs, over 11 interpreters started between
passes, spread over the run) and ``peak_rss_mb``.  With ``--trace 1``
untraced and traced passes alternate, and it prints the per-layer metrics:
span metrics of the traced passes (see tracing.py), the stage split and CPU
seconds of the untraced ones, and the tracing overhead.  Every report is
checked against the values pinned in workloads.py and against the first
pass byte for byte.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: timed set-up probes per run (after one untimed probe that warms the file cache)
SETUP_REPS = 11
#: seconds one set-up probe may take before the run is abandoned
SETUP_TIMEOUT = 60
MIN_PASSES = 2
#: stages of ``Report.timings`` whose split run.py reports
STAGES = ("validate", "mu_verdict", "blocks", "wirtinger", "spanning")


@dataclass
class PassResult:
    wall: float
    cpu: float
    reports: list
    texts: list


def run_pass(scenarios, configs) -> PassResult:
    """One closed-loop pass; a scenario that raises is kept as its exception."""
    reports, texts = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for cfg in configs:
        try:
            report = scenarios.run_scenario(cfg)
            text = scenarios.report_json(report)
        except Exception as err:  # counted as a failed scenario by Checker
            report, text = err, None
        reports.append(report)
        texts.append(text)
    wall = time.perf_counter() - start
    return PassResult(wall, time.process_time() - cpu0, reports, texts)


class Checker:
    """Counts scenarios attempted and failed over every pass of a run."""

    def __init__(self, items, mismatches):
        self.items = items
        self.mismatches = mismatches
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result: PassResult, label: str) -> None:
        if self.first is None:
            self.first = result.texts
        for (cfg, pins), report, text, first in zip(
            self.items, result.reports, result.texts, self.first, strict=True
        ):
            self.attempted += 1
            if isinstance(report, Exception):
                why = [f"raised {type(report).__name__}: {report}"]
            else:
                why = self.mismatches(report.payload, pins)
                if text != first:
                    why.append("report_json differs from the first pass")
            if why:
                self.failed += 1
                self.problems.append(f"{label} pass, {cfg.name}: {'; '.join(why)}")


def pass_metrics(result: PassResult) -> dict[str, float]:
    """Stage split and process CPU seconds of one pass."""
    reports = [r for r in result.reports if not isinstance(r, Exception)]
    out = {f"scenarios.stage.{stage}.s": sum(r.timings.get(stage, 0.0) for r in reports)
           for stage in STAGES}
    out["scenarios.cpu_s"] = result.cpu
    return out


def setup_probe(workload: str, seed: int) -> float:
    """Seconds one fresh interpreter takes to import thetamu and build the configs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    out = subprocess.run(
        cmd, capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT, cwd=ROOT
    )
    return float(out.stdout.split()[-1])


def summary(values: list[float]) -> str:
    """Sample count, quartiles, median and the highest tail percentile that
    still has at least ten samples beyond it."""
    text = f"n={len(values)} median={statistics.median(values):.6g}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.6g} q3={q3:.6g}"
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) >= 1000:
            text += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6g}"
            break
    return text


def _git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas(np) -> tuple[str, str]:
    """BLAS name and version from numpy's build config, and its thread count
    from numpy's bundled OpenBLAS when there is one."""
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, "unknown"


def environment(np, workload: str, seed: int) -> dict:
    blas, threads = _blas(np)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _git_commit(),
        "workload": workload,
        "workload_seed": seed,
    }


def _until(seconds: float, step) -> None:
    """Call step(i) for i = 0, 1, ... until MIN_PASSES calls and ``seconds`` elapsed."""
    start = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def untraced_metrics(scenarios, configs, checker, seconds, probe):
    """End-to-end metrics.  The set-up probes run between passes, as many
    before each pass as keep pace with the elapsed share of ``seconds``, so
    that ``setup_s``, like ``pass_s``, samples the whole run."""
    passes, setup_times = [], []
    probe()  # untimed: warms the file cache
    start = time.perf_counter()

    def step(i):
        due = SETUP_REPS * min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup_times) < due:
            setup_times.append(probe())
        result = run_pass(scenarios, configs)
        checker.check(result, "untraced")
        passes.append(result.wall)

    _until(seconds, step)
    while len(setup_times) < SETUP_REPS:
        setup_times.append(probe())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"pass_s {summary(passes)}")
    print(f"setup_s {summary(setup_times)}")
    return {
        "pass_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_metrics(package, configs, checker, seconds):
    tracer = Tracer(package)
    untraced, traced, stats = [], [], []

    def step(i):
        if i % 2 == 0:
            result = run_pass(package.scenarios, configs)
            checker.check(result, "untraced")
            untraced.append(result)
            return
        with tracer.installed():
            tracer.reset()
            result = run_pass(package.scenarios, configs)
            stats.append(tracer.reset())
        checker.check(result, "traced")
        traced.append(result)

    _until(seconds, step)
    metrics = {
        name: (statistics.median(fn(st) for st in stats), unit)
        for name, unit, fn in LAYER_METRICS
    }
    # the stage split and CPU time come from the untraced passes, free of
    # the wrappers' overhead
    split = [pass_metrics(p) for p in untraced]
    for name in split[0]:
        metrics[name] = (statistics.median(m[name] for m in split), "s")
    walls = [p.wall for p in traced]
    base = [p.wall for p in untraced]
    print(f"traced pass_s {summary(walls)}")
    print(f"untraced pass_s {summary(base)}")
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(base), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thetamu" / "__init__.py").is_file():
        print(f"error: no thetamu package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import thetamu
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    items = workloads.build(args.workload, args.seed)
    configs = [cfg for cfg, _ in items]
    print("env " + json.dumps(environment(np, args.workload, args.seed), sort_keys=True))
    checker = Checker(items, workloads.mismatches)
    run_pass(thetamu.scenarios, workloads.warmup())
    if args.trace:
        metrics = traced_metrics(thetamu, configs, checker, args.seconds)
    else:
        def probe():
            return setup_probe(args.workload, args.seed)

        metrics = untraced_metrics(thetamu.scenarios, configs, checker, args.seconds, probe)

    for problem in checker.problems:
        print(f"FAILED {problem}")
    share = checker.failed / checker.attempted
    print(f"metric failed_share {share:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
