"""Scenario configuration, orchestration, and deterministic report emission.

A scenario bundles one polarized abelian variety, one level n, and the
checks to run on it.  ``run_scenario`` executes
validate -> bound -> mu_n blocks -> verdict -> ITT and serializes every
outcome (including errors) into a :class:`Report`.

Reports are deterministic: identical configs produce byte-identical JSON.
Wall-clock timings are therefore carried on the report object and shown in
the table format only, never in the JSON form.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from . import mult
from .errors import ThetamuError, ValidationError
from .mult import Verdict, spanning_check, surjectivity_verdict, wirtinger_matrix
from .varieties import (
    BoundPrediction,
    PolarizedAbelianVariety,
    TorelliBound,
    _as_int,
    _is_int,
    _past_digit_limit,
    _within,
    bound_prediction,
    seeded_uniform,
    torelli_bound,
    validate_polarized,
)

_CHECK_KEYS = {"wirtinger", "spanning_modulus"}
#: deepest nesting of arrays and objects in a scenario file; a valid one nests 4
SCENARIO_DEPTH_CAP = 32

#: exit codes: CI-friendly
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONSISTENCY = 4


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Deterministic description of one verification run.

    ``omega`` is either a g x g nested list of [re, im] pairs or the mapping
    {"random": {"seed": <int>}}; ``n`` is an integer or the token "g-1",
    which resolves to max(g-1, 1) once g is known.  Every field but the name
    is kept as given; ``run_scenario`` rejects a wrong kind instead of
    coercing it.  Size guards and the truncation accuracy
    ``varieties.DEFAULT_EPS`` are module constants, not fields: a scenario
    cannot raise or lower them.  However it is built, a config nested more
    than SCENARIO_DEPTH_CAP lists, tuples and dicts deep (the config counting
    as one, like the JSON object of its file), or holding a value of a type
    that the report writer cannot write (a numpy array or numpy bool, say, or
    an int past ``sys.get_int_max_str_digits()`` digits), is refused with
    ValueError, so its report can always be written.  A
    config built in Python may hold numpy integers: it runs as its int twin.
    """

    name: str
    g: int
    type: tuple[int, ...]
    omega: Any
    n: Any = "g-1"
    seed: int = 0
    simple_asserted: bool = False
    checks: dict = field(default_factory=dict)

    def __post_init__(self):
        level = [getattr(self, f.name) for f in fields(self)]
        for depth in range(SCENARIO_DEPTH_CAP):
            for kind in dict.fromkeys(map(type, level)):
                if not issubclass(kind, (dict, list, tuple)) and _writer(kind) is None:
                    raise ValueError(f"scenario value of {kind!r} cannot be written to a report")
                if issubclass(kind, int) and any(
                        _past_digit_limit(x) for x in level if type(x) is kind):
                    raise ValueError(
                        f"scenario value of {kind!r} with more than "
                        f"{sys.get_int_max_str_digits()} digits cannot be written to a report")
            level = [x for x in level if isinstance(x, (dict, list, tuple))]
            if level and depth == SCENARIO_DEPTH_CAP - 1:
                raise _too_deep()
            level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)]

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.type, (list, tuple)):
            data["type"] = list(self.type)
        return data

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        """The config of a JSON object keyed by the fields; the name defaults
        to "scenario" and a list type becomes a tuple; every other value is
        kept as given.  Raises ValueError for a key that is not a field."""
        if not isinstance(data, dict):
            raise ValueError(f"a scenario must be a JSON object, got {type(data).__name__}")
        spec = fields(ScenarioConfig)
        unknown = set(data) - {f.name for f in spec}
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        for f in spec:
            if (f.name != "name" and f.name not in data
                    and f.default is MISSING and f.default_factory is MISSING):
                raise ValueError(f"scenario is missing required key '{f.name}'")
        values = dict(data, name=str(data.get("name", "scenario")))
        if isinstance(values["type"], list):
            values["type"] = tuple(values["type"])
        return ScenarioConfig(**values)


def _too_deep() -> ValueError:
    return ValueError(f"scenario nests deeper than {SCENARIO_DEPTH_CAP} arrays and objects")


def load_scenario(path) -> ScenarioConfig:
    """The config of the JSON scenario file at ``path``.  Raises ValueError
    for a document too deep for the JSON parser, and for what
    :meth:`ScenarioConfig.from_dict` refuses, a document nested more than
    SCENARIO_DEPTH_CAP arrays and objects deep among them."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise _too_deep() from None
    return ScenarioConfig.from_dict(data)


def _check_random_size(g: int) -> int:
    """g as a Python int, an integer >= 1 with g^2 within DEFAULT_CELL_CAP."""
    g = _as_int(g, "g", 1)
    _within(g * g, mult.DEFAULT_CELL_CAP, "random period matrix cells", ValueError)
    return g


def random_period_matrix(g: int, seed: int) -> np.ndarray:
    """Seeded matrix Omega = S + i (A^T A + g I); always passes validation.

    The first g^2 values u of ``seeded_uniform(seed)`` give A, row by row,
    as A = k / 2^20 with the integer k = floor(2^21 u) - 2^20, so A lies in
    [-1, 1); the next g^2 values u' give S = (S0 + S0^T) / 2 with
    S0 = u' - 1/2.  Every product k_i k_j is an integer below 2^40 and every
    partial sum of K^T K stays below g 2^40 < 2^53 (the cell cap keeps
    g <= 3162), so A^T A = K^T K / 2^40 is exact: Omega has the same bits
    under any BLAS kernel, summation order or thread count, and on every
    Python version.  Raises ValueError before any draw for a g that is not
    an integer >= 1 or whose g^2 exceeds DEFAULT_CELL_CAP, and for a seed
    that is not an integer >= 0.
    """
    g = _check_random_size(g)
    u, u_s = seeded_uniform(seed, (2, g, g))
    k = np.floor(u * 2.0**21) - 2.0**20
    s0 = u_s - 0.5
    s = (s0 + s0.T) / 2.0
    return s + 1j * ((k.T @ k) / 2.0**40 + g * np.eye(g))


class ITTVerdict(Enum):
    HOLDS = "Holds"
    UNKNOWN = "Unknown"


def itt_verdict(pav: PolarizedAbelianVariety, n: int, verdict: Verdict) -> ITTVerdict:
    """Infinitesimal-Torelli implication: Holds iff n = g-1 and mu_n was
    verified surjective.  The implication needs only ampleness, so the
    simplicity assertion is reported separately, and failure of the
    hypothesis yields Unknown, never a negative verdict.
    """
    if n == pav.g - 1 and verdict is Verdict.SURJECTIVE:
        return ITTVerdict.HOLDS
    return ITTVerdict.UNKNOWN


def resolve_n(config: ScenarioConfig) -> tuple[int, str | None]:
    """n as a Python int, the "g-1" token resolved (to 1, degenerate, for g = 1)."""
    if config.n == "g-1":
        g = _as_int(config.g, "g", 1)
        if g == 1:
            return 1, "n token 'g-1' resolved to 1 for g = 1 (ITT implication degenerates)"
        return g - 1, None
    if not _is_int(config.n) or config.n < 1:
        raise ValueError(f"n must be an integer >= 1 or 'g-1', got {config.n!r}")
    return int(config.n), None


def _complex_matrix_to_pairs(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def _is_finite(value) -> bool:
    """A real number, not a bool, that a double holds finitely."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_counts(config: ScenarioConfig) -> tuple[int, tuple[int, ...], int, int]:
    """g, the type, the seed and the spanning modulus as Python ints; raises
    ValueError unless g is an integer >= 1, the type a list of g integers,
    simple_asserted a boolean, the seed an integer >= 0 and checks a mapping
    from known keys with a boolean ``wirtinger`` and an integer
    ``spanning_modulus`` >= 0 (0 or absent skips the check); ``resolve_n``
    and ``omega_source`` check n and omega in the same stage."""
    g = _as_int(config.g, "g", 1)
    if (not isinstance(config.type, (list, tuple)) or len(config.type) != g
            or not all(_is_int(d) for d in config.type)):
        raise ValueError(f"type must be a list of g = {g} integers, got {config.type!r}")
    if not isinstance(config.simple_asserted, bool):
        raise ValueError(f"simple_asserted must be a boolean, got {config.simple_asserted!r}")
    seed = _as_int(config.seed, "seed", 0)
    if not isinstance(config.checks, dict):
        raise ValueError(f"checks must be a mapping, got {config.checks!r}")
    unknown = set(config.checks) - _CHECK_KEYS
    if unknown:
        raise ValueError(f"unknown check keys: {sorted(unknown)}")
    if not isinstance(config.checks.get("wirtinger", False), bool):
        raise ValueError(
            f"check 'wirtinger' must be a boolean, got {config.checks['wirtinger']!r}"
        )
    modulus = _as_int(config.checks.get("spanning_modulus", 0), "check 'spanning_modulus'", 0)
    return g, tuple(map(int, config.type)), seed, modulus


def writable_bound(g: int, n: int, degree: int = 1) -> TorelliBound:
    """:func:`torelli_bound` of integers g, n and degree >= 1, refused with
    ValueError when a report could not write it or the count (n+1)^g degree:
    a bound past the double range, or past sys.get_int_max_str_digits()."""
    g, n, degree = _as_int(g, "g", 1), _as_int(n, "n", 1), _as_int(degree, "degree", 1)
    past_double = f"the Torelli bound ((n+1)/n)^g g! at g = {g} is past the double range"
    # the bound is at least g!, and 170! is the largest factorial a double
    # holds: a larger g is refused before its factorial is built
    if g > 170:
        raise ValueError(past_double)
    bound = torelli_bound(g, n)
    if bound.value > sys.float_info.max:
        raise ValueError(past_double)
    largest = max(bound.value.numerator, bound.least_sufficient, (n + 1) ** g * degree)
    if _past_digit_limit(largest):
        raise ValueError(
            f"h0 or the Torelli bound needs more than {sys.get_int_max_str_digits()} digits")
    return bound


def omega_source(config: ScenarioConfig) -> Callable[[], np.ndarray]:
    """A function that returns the period matrix of the scenario, after every
    check that needs no draw: the shape of an explicit matrix, or the form,
    seed and cell count of a {"random": {"seed": <int>}} request.  Raises
    ValueError for what those checks refuse; a random matrix is drawn only
    when the function is called."""
    if isinstance(config.omega, dict):
        request = config.omega.get("random")
        if (not isinstance(request, dict) or set(config.omega) != {"random"}
                or set(request) != {"seed"}):
            raise ValueError("omega mapping must be exactly {'random': {'seed': <int>}}")
        seed = _as_int(request["seed"], "omega seed", 0)
        g = _check_random_size(config.g)
        return lambda: random_period_matrix(g, seed)
    rows, g, seq = config.omega, config.g, (list, tuple)
    square = isinstance(rows, seq) and len(rows) == g and all(
        isinstance(row, seq) and len(row) == g for row in rows)
    if not square or not all(isinstance(p, seq) and len(p) == 2 and all(map(_is_finite, p))
                             for row in rows for p in row):
        raise ValueError(
            f"omega must be a {g} x {g} list of [re, im] pairs of finite numbers, got {rows!r}"
        )
    matrix = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])
    return lambda: matrix


@dataclass(eq=False)
class Report:
    """Payload (deterministic) plus wall-clock timings (table only)."""

    payload: dict
    timings: dict[str, float]

    @property
    def exit_code(self) -> int:
        return int(self.payload["exit_code"])


#: what a stage reports as an error instead of raising
_STAGE_ERRORS = (ThetamuError, ValueError, FloatingPointError)


class _Timer:
    """Runs and times the stages.  Floating-point overflow, division by zero
    and invalid operations raise :class:`FloatingPointError` inside a stage,
    whatever the warning filters, so the stage reports them as an error;
    underflow stays ignored."""

    def __init__(self, errors: list[str]):
        self.timings: dict[str, float] = {}
        self.errors = errors

    def time(self, name, fn):
        start = time.perf_counter()
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return fn()
        finally:
            self.timings[name] = time.perf_counter() - start

    def run(self, name, fn):
        """fn(), timed; None after recording "name: error" when it raises
        one of _STAGE_ERRORS."""
        try:
            return self.time(name, fn)
        except _STAGE_ERRORS as err:
            self.errors.append(f"{name}: {err}")
            return None


def _verdict_payload(v: mult.SurjectivityVerdict) -> dict:
    return {
        "verdict": v.verdict.value,
        "rank": v.rank,
        "required_rank": v.required_rank,
        "gap_ratio": v.gap_ratio,
        "clean_gap": v.clean_gap,
        "dimensional_shortcut": v.dimensional_shortcut,
        "singular_values": list(v.singular_values),
        "truncation": v.truncation,
    }


def run_scenario(config: ScenarioConfig) -> Report:
    """Execute the full pipeline for one scenario; never raises for scenario
    content problems, which are serialized into the report instead."""
    notes: list[str] = []
    errors: list[str] = []
    timer = _Timer(errors)
    payload: dict = {
        "scenario": config.to_dict(),
        "notes": notes,
        "errors": errors,
    }

    try:
        g, types, seed, modulus = _check_counts(config)
        make_omega = omega_source(config)
        n, note = resolve_n(config)
        if note:
            notes.append(note)
        # a divisor below 1 is left to validate_polarized, which names it
        bound = writable_bound(g, n, max(math.prod(types), 1))
        # drawn only now, so no scenario the bound refuses draws a matrix
        omega = make_omega()
        pav = timer.time(
            "validate",
            lambda: validate_polarized(omega, types, config.simple_asserted),
        )
    except (ValidationError, ValueError, FloatingPointError) as err:
        if isinstance(err, ValidationError):
            errors.extend(str(v) for v in err.violations)
        else:
            errors.append(str(err))
        payload["exit_code"] = EXIT_VALIDATION
        return Report(payload, timer.timings)

    payload["resolved"] = {
        "omega": _complex_matrix_to_pairs(pav.matrix),
        "n": n,
    }
    payload["simple_asserted"] = pav.simple_asserted
    payload["h0"] = {
        "level_1": pav.h0(1),
        f"level_{n}": pav.h0(n),
        f"level_{n + 1}": pav.h0(n + 1),
    }
    prediction = bound_prediction(pav, n)
    payload["bound"] = {
        "exact": str(bound.value),
        "decimal": float(bound.value),
        "least_sufficient": bound.least_sufficient,
    }
    payload["bound_prediction"] = prediction.value

    exit_code = EXIT_OK
    verdict_obj = timer.run("mu_verdict", lambda: surjectivity_verdict(pav, n))
    payload["surjectivity"] = None if verdict_obj is None else _verdict_payload(verdict_obj)
    if verdict_obj is not None and verdict_obj.verdict is Verdict.INCONCLUSIVE:
        exit_code = EXIT_INCONCLUSIVE

    payload["blocks"] = None
    if verdict_obj is not None and not verdict_obj.dimensional_shortcut:
        blocks = verdict_obj.blocks
        payload["blocks"] = {
            "count": len(blocks.ranks),
            # the representative blocks decomposed, one per orbit
            "orbits": len(blocks.matrices),
            "row_dim": (n + 1) ** pav.g,
            # 0 by construction (the blocks are built directly); kept while
            # the benchmark pins this key
            "off_block_mass": 0.0,
            "ranks": blocks.ranks.tolist(),
            "rank_sum": int(blocks.ranks.sum()),
            "total_rank": verdict_obj.rank,
        }
    elif verdict_obj is not None and verdict_obj.dimensional_shortcut:
        notes.append("block decomposition skipped: dimensional obstruction shortcut")

    verdict_value = verdict_obj.verdict if verdict_obj is not None else Verdict.INCONCLUSIVE
    itt = itt_verdict(pav, n, verdict_value)
    payload["itt"] = {
        "verdict": itt.value,
        "applicable": n == pav.g - 1,
    }
    if n != pav.g - 1:
        reason = (
            "hypersurfaces are point sets for g = 1"
            if pav.g == 1
            else f"scenario has n = {n}"
        )
        notes.append(f"ITT implication needs n = g-1 = {pav.g - 1}; {reason}")
    # only a NotSurjective that holds for every Omega, the dimensional
    # shortcut, contradicts the theorem.  A rank decided at one Omega does
    # not: the rank carries no error bound, and no float64 period matrix of
    # g >= 2 is simple.  So it exits 3, like an undecided rank
    against = (
        prediction is BoundPrediction.THEOREM_PREDICTS_SURJECTIVE
        and verdict_value is Verdict.NOT_SURJECTIVE
    )
    violation = against and verdict_obj.dimensional_shortcut
    payload["consistency"] = {"theorem_violation": violation}
    if against:
        exit_code = EXIT_CONSISTENCY if violation else EXIT_INCONCLUSIVE

    payload["wirtinger"] = None
    if config.checks.get("wirtinger"):
        payload["wirtinger"] = timer.run(
            "wirtinger", lambda: _wirtinger_payload(pav, n, seed)
        )

    payload["spanning"] = None
    if modulus:
        span = timer.run("spanning", lambda: spanning_check(pav, n, modulus))
        if span is not None:
            payload["spanning"] = {
                "modulus": modulus,
                "npoints": span.npoints,
                "rank": span.rank,
                "required_rank": span.required_rank,
            }

    # every error recorded past validation is a stage that did not finish
    if errors:
        exit_code = max(exit_code, EXIT_INCONCLUSIVE)
    payload["exit_code"] = exit_code
    return Report(payload, timer.timings)


def _wirtinger_payload(pav: PolarizedAbelianVariety, n: int, seed: int) -> dict:
    # three points Omega a + Delta b, each a then b
    u = seeded_uniform(seed + 17, (3, 2, pav.g))
    points = pav.lattice_vector(u[:, 0], u[:, 1])
    # the relation and the diagram at these points share every theta evaluation
    wirt = wirtinger_matrix(pav, n, seed, points)
    return {
        "fit_residual": wirt.fit_residual,
        # 1 by construction (the reduced matrix is the identity: at
        # beta' = n t / (n(n+1)), alpha + n beta' = 0 iff t = alpha); kept
        # while the benchmark pins this key
        "reduced_sigma_min_ratio": 1.0,
        "diagram_residual_max": float(wirt.diagram_residuals.max()),
    }


def _format_float(value: float) -> str:
    """17 significant digits, as a JSON number with a "." or an exponent;
    a non-finite value as the string "nan", "inf" or "-inf"."""
    # .17g writes no "E", and writes every NaN as "nan"
    text = float.__format__(value, ".17g")
    if "." in text or "e" in text:
        return text
    return text + ".0" if text[-1].isdigit() else f'"{text}"'


#: what json.dumps writes for a str
_json_str = json.encoder.encode_basestring_ascii

#: the JSON text of a scalar at the line start pad, by type (a complex is
#: written as [re, im]); every writer also takes a subclass of its type,
#: whatever the subclass's own str or format
_SCALARS = {
    float: lambda value, pad: _format_float(value),
    int: lambda value, pad: int.__repr__(value),
    str: lambda value, pad: _json_str(value),
    bool: lambda value, pad: "true" if value else "false",
    type(None): lambda value, pad: "null",
    np.floating: lambda value, pad: _format_float(float(value)),
    np.integer: lambda value, pad: str(int(value)),
    Fraction: lambda value, pad: _json_str(str(value)),
    complex: lambda value, pad: _serialize([value.real, value.imag], pad),
}


def _writer(kind: type):
    """The writer in _SCALARS of the type ``kind``, or of its first base
    there, which is then recorded for the type; None for a type that the
    report cannot write as a scalar."""
    writer = _SCALARS.get(kind)
    if writer is None:
        base = next((base for base in kind.__mro__ if base in _SCALARS), None)
        if base is not None:
            writer = _SCALARS[kind] = _SCALARS[base]
    return writer


def _serialize(value, pad: str) -> str:
    """The JSON text of value at the line start ``pad``, a newline and two
    spaces per level of nesting: keys sorted by str, every container item
    on its own line.  A scalar takes the writer that :func:`_writer` finds
    for its type, and any other value raises TypeError."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value, pad)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        parts = [f"{_json_str(str(k))}: {_serialize(value[k], inner)}"
                 for k in sorted(value, key=str)]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        inner = pad + "  "
        parts = [_serialize(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    scalar = _writer(type(value))
    if scalar is None:
        raise TypeError(f"cannot serialize {type(value)!r}")
    return scalar(value, pad)


def report_json(report: Report) -> str:
    """Stable-key-ordered JSON; floats carry 17 significant digits."""
    return _serialize(report.payload, "\n") + "\n"


def _table_lines(value, prefix: str, out: list[str]) -> None:
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            _table_lines(value[k], f"{prefix}{k}.", out)
    elif isinstance(value, (list, tuple)) and value and isinstance(value[0], (dict, list, tuple)):
        for i, v in enumerate(value):
            _table_lines(v, f"{prefix}{i}.", out)
    else:
        if isinstance(value, (list, tuple)):
            text = ", ".join(_plain(v) for v in value)
        else:
            text = _plain(value)
        out.append(f"{prefix[:-1]:<42} {text}")


def _plain(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def report_table(report: Report) -> str:
    lines: list[str] = []
    _table_lines(report.payload, "", lines)
    for name in sorted(report.timings):
        lines.append(f"{'time.' + name:<42} {report.timings[name]:.3f} s")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str = "json") -> str:
    """Render a report: 'json' is machine-stable, 'table' is for humans."""
    if format == "json":
        return report_json(report)
    if format == "table":
        return report_table(report)
    raise ValueError(f"unknown report format {format!r}")


def catalog() -> list[ScenarioConfig]:
    """Built-in named scenarios covering the instance checks of the suite."""
    rnd = lambda seed: {"random": {"seed": seed}}
    return [
        ScenarioConfig(
            name="elliptic-d3", g=1, type=(3,), omega=rnd(101), n=1,
            seed=11, simple_asserted=True,
        ),
        ScenarioConfig(
            name="elliptic-d4", g=1, type=(4,), omega=rnd(102), n=1,
            seed=12, simple_asserted=True,
        ),
        ScenarioConfig(
            name="surface-principal-dimcount", g=2, type=(1, 1), omega=rnd(103), n=1,
            seed=13, simple_asserted=True,
        ),
        ScenarioConfig(
            name="surface-33", g=2, type=(3, 3), omega=rnd(104), n="g-1",
            seed=14, simple_asserted=True,
        ),
        ScenarioConfig(
            name="wirtinger-g1-n1", g=1, type=(1,), omega=rnd(105), n=1,
            seed=15, simple_asserted=True, checks={"wirtinger": True},
        ),
        ScenarioConfig(
            name="wirtinger-g1-n2", g=1, type=(1,), omega=rnd(106), n=2,
            seed=16, simple_asserted=True, checks={"wirtinger": True},
        ),
        ScenarioConfig(
            name="wirtinger-g2-n1", g=2, type=(1, 1), omega=rnd(107), n=1,
            seed=17, simple_asserted=True, checks={"wirtinger": True},
        ),
        ScenarioConfig(
            name="spanning-g1-n2", g=1, type=(1,), omega=rnd(108), n=2,
            seed=18, simple_asserted=True, checks={"spanning_modulus": 10},
        ),
        ScenarioConfig(
            name="spanning-g2-n1", g=2, type=(1, 1), omega=rnd(109), n=1,
            seed=19, simple_asserted=True, checks={"spanning_modulus": 7},
        ),
    ]
