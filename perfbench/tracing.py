"""Per-layer tracing of the thetamu package from outside it.

``Tracer.installed()`` replaces every public function of the package
modules, and the two theta evaluators ``ThetaBasis.eval_matrix`` and
``ThetaTilde.eval_many``, with a timing wrapper.  Every module attribute
that refers to a wrapped function is patched, so names one module imports
from another (``mult.characters``, ``scenarios.gamma_blocks``, ...) are
traced too.  Each call opens a span on a stack; a span's self time is its
duration minus the time of the wrapped spans it contains.  All patched
attributes are restored when the context exits.

``LAYER_METRICS`` turns one traced pass's span statistics into the span
metrics that run.py prints.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass
from types import ModuleType

import numpy as np

LAYERS = ("varieties", "torsion", "theta", "mult", "scenarios")


@dataclass
class SpanStats:
    calls: int = 0
    ok: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: int = 0


def _eval_terms(args, kwargs, result) -> int:
    """K * B * P of one lattice-sum evaluation ``evaluator(zs, radius=None)``:
    K sections, B = (2R+1)^g box points, P evaluation points."""
    evaluator = args[0]
    radius = kwargs.get("radius", args[2] if len(args) > 2 else None)
    r = radius if radius is not None else evaluator.radius
    k, p = (1, result.shape[0]) if result.ndim == 1 else result.shape
    return k * (2 * r + 1) ** evaluator.pav.g * p


def _matrix_cells(args, kwargs, result) -> int:
    return int(np.size(args[0]))


def _mu_cells(args, kwargs, result) -> int:
    return int(result.matrix.size)


def _pairings(args, kwargs, result) -> int:
    return len(result.group.k1) * len(result.group.k2)


#: span name -> work count taken from (args, kwargs, result)
WORK = {
    "theta.eval_matrix": _eval_terms,
    "theta.tilde_eval": _eval_terms,
    "mult.mu_matrix": _mu_cells,
    "mult.numerical_rank": _matrix_cells,
    "torsion.characters": _pairings,
}


class Tracer:
    """Span statistics per wrapped function, accumulated until ``reset``."""

    def __init__(self, package: ModuleType):
        self.package = package
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []

    def reset(self) -> dict[str, SpanStats]:
        """Return the statistics gathered so far and start afresh."""
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                st = self.stats.setdefault(name, SpanStats())
                st.calls += 1
                st.s += elapsed
                st.self_s += elapsed - children[0]
                if ok:
                    st.ok += 1
                    if work is not None:
                        st.work += work(args, kwargs, result)

        return traced

    def _targets(self) -> list[tuple[str, object]]:
        """(span name, original function) for every wrapped callable."""
        theta = self.package.theta
        targets = [
            ("theta.eval_matrix", vars(theta.ThetaBasis)["eval_matrix"]),
            ("theta.tilde_eval", vars(theta.ThetaTilde)["eval_many"]),
        ]
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    targets.append((f"{layer}.{attr}", value))
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Patch every target and each module name bound to it; restore on exit."""
        wrapped = {
            id(original): (original, self._wrap(name, original))
            for name, original in self._targets()
        }
        theta = self.package.theta
        owners = [self.package, *(getattr(self.package, layer) for layer in LAYERS),
                  theta.ThetaBasis, theta.ThetaTilde]
        patches = []
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((owner, attr, value))
        try:
            for owner, attr, value in patches:
                setattr(owner, attr, wrapped[id(value)][1])
            yield self
        finally:
            for owner, attr, value in patches:
                setattr(owner, attr, value)
            left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, v in patches
                    if vars(o)[a] is not v]
            if left:
                raise RuntimeError(f"patched attributes not restored: {left}")


def _span(name: str, field: str):
    return lambda stats: getattr(stats[name], field) if name in stats else 0


def _ratio(num, den, empty: float = 0.0):
    return lambda stats: (num(stats) / den(stats)) if den(stats) else empty


def _fits(stats) -> int:
    return sum(_span(f"mult.{fn}", "ok")(stats)
               for fn in ("mu_matrix", "wirtinger_matrix", "phi_map_coords"))


#: per-layer metrics: (name, unit, value from one traced pass's span stats)
LAYER_METRICS = [
    ("theta.eval_matrix.calls", "count", _span("theta.eval_matrix", "calls")),
    ("theta.eval_matrix.s", "s", _span("theta.eval_matrix", "s")),
    ("theta.eval_matrix.terms", "count", _span("theta.eval_matrix", "work")),
    ("theta.eval_matrix.terms_per_s", "1/s",
     _ratio(_span("theta.eval_matrix", "work"), _span("theta.eval_matrix", "s"))),
    ("theta.tilde_eval.calls", "count", _span("theta.tilde_eval", "calls")),
    ("theta.tilde_eval.s", "s", _span("theta.tilde_eval", "s")),
    ("theta.tilde_eval.terms", "count", _span("theta.tilde_eval", "work")),
    ("mult.mu_matrix.calls", "count", _span("mult.mu_matrix", "calls")),
    ("mult.mu_matrix.s", "s", _span("mult.mu_matrix", "s")),
    ("mult.mu_matrix.self_s", "s", _span("mult.mu_matrix", "self_s")),
    ("mult.mu_matrix.cells", "count", _span("mult.mu_matrix", "work")),
    # a pass that draws no samples wastes none
    ("mult.fit.useful_ratio", "ratio", _ratio(_fits, _span("mult.sample_points", "calls"), 1.0)),
    ("mult.numerical_rank.calls", "count", _span("mult.numerical_rank", "calls")),
    ("mult.numerical_rank.s", "s", _span("mult.numerical_rank", "s")),
    ("mult.numerical_rank.cells", "count", _span("mult.numerical_rank", "work")),
    ("mult.gamma_blocks.s", "s", _span("mult.gamma_blocks", "s")),
    ("mult.gamma_blocks.self_s", "s", _span("mult.gamma_blocks", "self_s")),
    ("mult.wirtinger_matrix.s", "s", _span("mult.wirtinger_matrix", "s")),
    ("mult.wirtinger_matrix.self_s", "s", _span("mult.wirtinger_matrix", "self_s")),
    ("mult.diagram_check.s", "s", _span("mult.diagram_check", "s")),
    ("mult.diagram_check.self_s", "s", _span("mult.diagram_check", "self_s")),
    ("mult.spanning_check.s", "s", _span("mult.spanning_check", "s")),
    ("mult.spanning_check.self_s", "s", _span("mult.spanning_check", "self_s")),
    ("torsion.characters.calls", "count", _span("torsion.characters", "calls")),
    ("torsion.characters.s", "s", _span("torsion.characters", "s")),
    ("torsion.characters.pairings", "count", _span("torsion.characters", "work")),
    ("varieties.validate_polarized.s", "s", _span("varieties.validate_polarized", "s")),
    ("scenarios.report_json.s", "s", _span("scenarios.report_json", "s")),
]
