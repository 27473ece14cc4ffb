import enum
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetamu import (
    ITTVerdict,
    ScenarioConfig,
    ThetaBasis,
    ThetaTilde,
    Verdict,
    catalog,
    emit_report,
    itt_verdict,
    load_scenario,
    random_period_matrix,
    run_scenario,
    section_weights,
    torelli_bound,
    validate_polarized,
)
from thetamu import mult, scenarios, theta
from thetamu.cli import main as cli_main
from thetamu.reference import expand_in_basis, mu_matrix
from thetamu.scenarios import resolve_n
from thetamu.varieties import seeded_uniform

SRC = Path(__file__).resolve().parents[1] / "src"


def _by_name(name):
    return next(cfg for cfg in catalog() if cfg.name == name)


def test_random_period_matrix_contract():
    for g in (1, 2, 3):
        omega = random_period_matrix(g, 42)
        assert isinstance(omega, np.ndarray) and omega.shape == (g, g)
        assert np.abs(omega - omega.T).max() < 1e-15
        assert np.linalg.eigvalsh(omega.imag).min() >= g - 1e-12
        validate_polarized(omega, (1,) * g)
    assert np.array_equal(random_period_matrix(2, 9), random_period_matrix(2, 9))
    assert not np.array_equal(random_period_matrix(2, 9), random_period_matrix(2, 10))


def _exact_period_matrix(g, seed):
    """random_period_matrix(g, seed) recomputed from random.Random(seed) in
    Python integers: k = floor(2^21 u) - 2^20 row by row, then S0 = u' - 1/2,
    and Im Omega = K^T K / 2^40 + g I summed exactly."""
    draw = random.Random(seed).random
    k = [[math.floor(draw() * 2**21) - 2**20 for _ in range(g)] for _ in range(g)]
    s0 = [[draw() - 0.5 for _ in range(g)] for _ in range(g)]
    return np.array([[complex((s0[i][j] + s0[j][i]) / 2,
                              sum(k[r][i] * k[r][j] for r in range(g)) / 2**40 + g * (i == j))
                      for j in range(g)] for i in range(g)])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_random_period_matrix_is_exact(g):
    # every bit of Omega follows from Random.random(): the products of
    # A^T A are exact, whatever the BLAS kernel or summation order
    for seed in (0, 1, 7, 301, 10**30):
        assert random_period_matrix(g, seed).tobytes() == _exact_period_matrix(g, seed).tobytes()


def test_random_period_matrix_is_the_same_under_every_blas_kernel():
    # OPENBLAS_CORETYPE picks the kernel that another CPU would pick
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = ("import sys; from thetamu import random_period_matrix as r; sys.stdout.buffer.write("
            "b''.join(r(g, s).tobytes() for g in (1, 2, 3) for s in range(50)))")
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": core}).stdout
           for core in ("Haswell", "Prescott")]
    assert len(out[0]) == 50 * 16 * (1 + 4 + 9) and out[0] == out[1]


@pytest.mark.parametrize("seed", [-7, 7.0, True], ids=["negative", "float", "bool"])
def test_seeded_draws_refuse_a_seed_that_is_not_a_non_negative_integer(seed):
    # random.Random(-7) draws what Random(7) draws, and Random(7.0) and
    # Random(True) what Random(7) and Random(1) draw
    pav = validate_polarized([[1j]], (1,))
    for draw in (lambda: seeded_uniform(seed, (2,)), lambda: random_period_matrix(2, seed),
                 lambda: mult.sample_points(pav, 3, seed)):
        with pytest.raises(ValueError, match="seed"):
            draw()
    # the dimension takes the same integer rule
    with pytest.raises(ValueError, match="^(g must be an integer|require g >= 1)"):
        random_period_matrix(seed, 7)


def test_n_token_resolution():
    cfg = ScenarioConfig(name="t", g=3, type=(1, 1, 1), omega={"random": {"seed": 1}})
    assert resolve_n(cfg) == (2, None)
    cfg1 = ScenarioConfig(name="t", g=1, type=(1,), omega={"random": {"seed": 1}})
    n, note = resolve_n(cfg1)
    assert n == 1 and note is not None


def test_itt_verdict_rules():
    surf = validate_polarized(random_period_matrix(2, 104), (3, 3), True)
    assert itt_verdict(surf, 1, Verdict.SURJECTIVE) is ITTVerdict.HOLDS
    assert itt_verdict(surf, 1, Verdict.NOT_SURJECTIVE) is ITTVerdict.UNKNOWN
    assert itt_verdict(surf, 2, Verdict.SURJECTIVE) is ITTVerdict.UNKNOWN
    assert {v.value for v in ITTVerdict} == {"Holds", "Unknown"}


def test_run_scenario_elliptic_d3():
    report = run_scenario(_by_name("elliptic-d3"))
    assert report.exit_code == 0
    p = report.payload
    assert p["surjectivity"]["verdict"] == "Surjective"
    assert p["surjectivity"]["rank"] == 6
    assert p["bound_prediction"] == "TheoremPredictsSurjective"
    assert p["consistency"]["theorem_violation"] is False
    assert p["itt"]["verdict"] == "Unknown"  # g = 1, implication not applicable
    assert p["blocks"]["rank_sum"] == p["blocks"]["total_rank"] == 6
    # three character blocks, one orbit decomposed
    assert (p["blocks"]["count"], p["blocks"]["orbits"]) == (3, 1)


def test_run_scenario_surface_33_itt_holds():
    report = run_scenario(_by_name("surface-33"))
    p = report.payload
    assert p["resolved"]["n"] == 1
    assert p["surjectivity"]["verdict"] == "Surjective"
    assert p["surjectivity"]["rank"] == 36
    assert p["itt"]["verdict"] == "Holds"
    assert report.exit_code == 0


def test_run_scenario_dimensional_shortcut():
    report = run_scenario(_by_name("surface-principal-dimcount"))
    p = report.payload
    assert p["surjectivity"]["verdict"] == "NotSurjective"
    assert p["surjectivity"]["dimensional_shortcut"] is True
    assert p["itt"]["verdict"] == "Unknown"
    assert report.exit_code == 0


def test_run_scenario_malformed_type():
    cfg = ScenarioConfig(name="bad", g=2, type=(3, 2), omega={"random": {"seed": 5}}, n=1)
    report = run_scenario(cfg)
    assert report.exit_code == 2
    assert report.payload["errors"]


def _never_called(*args, **kwargs):
    raise AssertionError("a size guard let the work start")


def test_run_scenario_numeric_cap_exit_code(monkeypatch):
    # the check stages refuse at their constant guards before any work:
    # 1001^2 points over DEFAULT_POINT_CAP, whose 2 x 1002001 values are
    # within DEFAULT_CELL_CAP, a modulus of 2200 nines over DEFAULT_POINT_CAP
    # before its square (4400 digits, past the int-to-text limit) is formed,
    # and at g = 2, n = 8 the 5184 level-72 sections at their 5184 samples
    # and 3 points over DEFAULT_CELL_CAP.  Every verdict is the dimensional shortcut, so
    # nothing else needs the patched helpers.
    monkeypatch.setattr(mult, "lex_vectors", _never_called)
    monkeypatch.setattr(mult, "sample_points", _never_called)
    spanning = ScenarioConfig(name="spanning-1001", g=1, type=(1,),
                              omega={"random": {"seed": 108}}, n=1,
                              checks={"spanning_modulus": 1001})
    nines = int("9" * 2200)
    huge = replace(spanning, name="spanning-nines", checks={"spanning_modulus": nines})
    wirtinger = ScenarioConfig(name="wirtinger-g2-n8", g=2, type=(1, 1),
                               omega={"random": {"seed": 107}}, n=8, checks={"wirtinger": True})
    for cfg, error in [(spanning, "spanning: spanning points |G|: 1002001 exceeds cap 1000000"),
                       (huge, f"spanning: spanning modulus N: {nines} exceeds cap 1000000"),
                       (wirtinger, "wirtinger: Wirtinger value cells: 26889408 "
                                   "exceeds cap 10000000")]:
        report = run_scenario(cfg)
        assert report.exit_code == 3
        assert report.payload["errors"] == [error]
        assert report.payload["surjectivity"]["dimensional_shortcut"] is True


def _random(name, g, n, type_=None):
    return ScenarioConfig(name=name, g=g, type=type_ or (1,) * g,
                          omega={"random": {"seed": 1}}, n=n)


_PAST_DOUBLE = "the Torelli bound ((n+1)/n)^g g! at g = {} is past the double range"

#: JSON-shaped scenarios whose work a constant guard refuses, or whose report
#: could not write its bound or counts: (config, exit code, error)
_HUGE = [
    (replace(_random("huge-n", 1, 10**12), checks={"spanning_modulus": 10}),
     3, "spanning: spanning value cells: 100000000000100 exceeds cap 10000000"),
    (_random("huge-g", 10**6, "g-1"),
     2, "random period matrix cells: 1000000000000 exceeds cap 10000000"),
    # the bound 2^151 151! and about e 171! pass the double range (2^150 150!
    # does not); 2^1800 1800! and (10^1500 + 1)^3 also pass 4300 digits
    (_random("bound-g151", 151, 1), 2, _PAST_DOUBLE.format(151)),
    (_random("bound-g171", 171, "g-1"), 2, _PAST_DOUBLE.format(171)),
    (_random("bound-g1800", 1800, 1), 2, _PAST_DOUBLE.format(1800)),
    (_random("digits-n", 3, 10**1500), 2, "h0 or the Torelli bound needs more than 4300 digits"),
]


def test_a_random_scenario_the_bound_refuses_draws_nothing(monkeypatch):
    # g = 3000 is within the cell cap of a random matrix (9e6 cells) but past
    # the bound's double range: the scenario is refused before the draw
    monkeypatch.setattr(scenarios, "random_period_matrix", _never_called)
    report = run_scenario(_random("g3000", 3000, 1))
    assert report.exit_code == 2
    assert report.payload["errors"] == [_PAST_DOUBLE.format(3000)]


@pytest.mark.parametrize("config,code,message", _HUGE, ids=[c.name for c, _, _ in _HUGE])
def test_run_scenario_refuses_huge_work(config, code, message):
    # each once asked numpy for terabytes and raised MemoryError, or wrote a
    # report that report_json could not (OverflowError, ValueError)
    start = time.perf_counter()
    report = run_scenario(config)
    assert time.perf_counter() - start < 2.0
    assert report.exit_code == code
    assert any(e.startswith(message) for e in report.payload["errors"])
    scenarios.report_json(report)


@pytest.mark.parametrize("g,n", [(150, 1), (1, 10**400)], ids=["g150", "n-401-digits"])
def test_run_scenario_writes_bounds_near_the_limits(g, n):
    # 2^150 150! is within the double range, and (10^400 + 1) / 10^400 is
    # written with 401 digits
    report = run_scenario(_random("near", g, n))
    assert (report.exit_code, report.payload["surjectivity"]["verdict"]) == (0, "NotSurjective")
    bound = json.loads(scenarios.report_json(report))["bound"]
    assert bound["exact"] == str(torelli_bound(g, n).value)


def test_run_scenario_reports_a_radius_past_the_float_range():
    # Im Omega = diag(1e-310, 1) is valid, but no float radius bounds its tail
    cfg = ScenarioConfig(name="subnormal", g=2, type=(3, 3), n=1,
                         omega=[[[0, 1e-310], [0, 0]], [[0, 0], [0, 1]]])
    report = run_scenario(cfg)
    assert report.exit_code == 3
    assert any(e.startswith("mu_verdict: ") for e in report.payload["errors"])


#: scenario content that once escaped run_scenario (OverflowError, LinAlgError,
#: or a RuntimeWarning under warnings-as-errors) or took 5 s to refuse:
#: (type, omega, n, checks, exit code, start of the error)
_EXTREME_CONTENT = [
    ((1,), [[[0, 1e308]]], 1, {"spanning_modulus": 2}, 3,
     "spanning: Im Omega spread inf is past the float range"),
    ((1,), [[[0, 1e308]]], 1, {"wirtinger": True}, 3,
     "wirtinger: Im Omega spread inf is past the float range"),
    ((1,), [[[1e308, 1]]], 1, {"spanning_modulus": 2}, 3, "spanning: overflow encountered"),
    ((1,), [[[1e308, 1]]], 1, {"wirtinger": True}, 3, "wirtinger: overflow encountered"),
    ((1,), [[[0, 0.01]]], 26, {"wirtinger": True}, 3,
     "wirtinger: Wirtinger diagram residual "),
    ((3,), [[[-1e308, 1]]], 1, {}, 3, "mu_verdict: overflow encountered"),
    ((1, 1), [[[0, 1], [1e308, 0]], [[-1e308, 0], [0, 1]]], 1, {}, 2,
     "overflow encountered in subtract"),
    # Im Omega = 0.003 I: radius 44, 89^3 box points at 729 points (53 s before
    # the lattice sum's term cap)
    ((1, 1, 1), [[[0, 0.003] if i == j else [0, 0] for j in range(3)] for i in range(3)], 1,
     {"spanning_modulus": 3}, 3,
     "spanning: lattice sum terms: 4394826072 exceeds cap 1000000000"),
]
_EXTREME_IDS = ["huge-im-spanning", "huge-im-wirtinger", "huge-re-spanning",
                "huge-re-wirtinger", "n26-wirtinger", "huge-re-mu", "huge-asymmetry",
                "tiny-im-spanning"]


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("divisors,omega,n,checks,code,message", _EXTREME_CONTENT,
                         ids=_EXTREME_IDS)
def test_run_scenario_reports_extreme_content(divisors, omega, n, checks, code, message,
                                              action):
    # a report with the stage's error, never an exception, whether numpy's
    # floating-point warnings are shown or raised
    config = ScenarioConfig(name="extreme", g=len(divisors), type=divisors, omega=omega, n=n,
                            checks=checks)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        report = run_scenario(config)
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == code
    assert [e for e in report.payload["errors"] if e.startswith(message)]


#: subnormal period matrices: (type, omega, exit code, text of the error or None)
_SUBNORMAL = [
    ((3,), [[[0, 1e-320]]], 3,
     "mu_verdict: lambda_min 1.000e-320 needs a radius past the float range"),
    ((1, 1), [[[0, 1e-320], [0, 0]], [[0, 0], [0, 1e-320]]], 0, None),
    ((1, 1), [[[0, 1e-320], [0, 1e-320]], [[0, 0], [0, 1e-320]]], 2, "not symmetric at (0,1)"),
]
_SUBNORMAL_IDS = ["elliptic-d3", "principal-g2-shortcut", "asymmetric"]


@pytest.mark.parametrize("divisors,omega,code,message", _SUBNORMAL, ids=_SUBNORMAL_IDS)
def test_subnormal_symmetric_period_matrix_is_symmetric(tmp_path, capsys, divisors, omega,
                                                        code, message):
    # the symmetry bound 1e-12 * max |Omega_ij| underflows to 0 here, so only
    # a nonzero deviation may fail it
    doc = {"name": "subnormal", "g": len(divisors), "type": list(divisors), "omega": omega,
           "n": 1}
    report = run_scenario(ScenarioConfig.from_dict(doc))
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["verify", "--scenario", str(path)]) == report.exit_code == code
    assert json.loads(capsys.readouterr().out)["errors"] == report.payload["errors"]
    if message is None:
        assert report.payload["errors"] == []
        assert report.payload["surjectivity"]["dimensional_shortcut"]
    else:
        assert any(message in e for e in report.payload["errors"])


#: the period matrices the catalog's Wirtinger scenarios drew before the
#: seeded draws moved to the stdlib generator
_WIRTINGER_OMEGAS = {
    "wirtinger-g1-n1": [[[0.4914597754812582, 1.0763918009169688]]],
    "wirtinger-g1-n2": [[[-0.45959984710634283, 1.930869356050938]]],
    "wirtinger-g2-n1": [
        [[-0.008826720634830698, 2.088281650447407], [-0.2539318142853797, -0.010685422824691785]],
        [[-0.2539318142853797, -0.010685422824691785], [0.48957719098855, 2.222485091071155]]],
}


def _numpy_uniform(seed, shape):
    # what seeded_uniform(seed, shape) drew before: the sample points took a,
    # then b, and the Wirtinger points a, then b per point, from one
    # default_rng(seed) each
    return np.random.default_rng(seed).random(shape)


def test_wirtinger_stage_fits_once(monkeypatch):
    # the relation and the diagram share every theta evaluation: per catalog
    # scenario the stage builds the level-1, theta~, level-(n+1) and
    # level-n(n+1) lattice sums once each and evaluates each once (the grid
    # sums through _LatticeSum.eval, the two bases through
    # ThetaBasis.eval_matrix, theta~ never through ThetaTilde.eval_many),
    # draws the samples U and V once, and takes one SVD, for the fit (the
    # reduced matrix is the identity, so its ratio takes none).  The scenarios keep the matrices and draws they
    # were run at: the residual is set by the tail the lattice sums leave at
    # DEFAULT_EPS, so its size depends on where lambda_min falls between two
    # box radii (on the stdlib draws wirtinger-g1-n1 reaches 1.2e-14)
    counts = dict.fromkeys(("sums", "draws", "svds", "bases", "tildes"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    stage_counts = []
    payload = scenarios._wirtinger_payload

    def stage(*args, **kwargs):
        counts.update(dict.fromkeys(counts, 0))
        result = payload(*args, **kwargs)
        stage_counts.append(dict(counts))
        return result

    monkeypatch.setattr(theta._LatticeSum, "__init__",
                        counting("sums", theta._LatticeSum.__init__))
    monkeypatch.setattr(theta.ThetaBasis, "eval_matrix",
                        counting("bases", theta.ThetaBasis.eval_matrix))
    monkeypatch.setattr(theta.ThetaTilde, "eval_many",
                        counting("tildes", theta.ThetaTilde.eval_many))
    monkeypatch.setattr(np.linalg, "svd", counting("svds", np.linalg.svd))
    monkeypatch.setattr(scenarios, "_wirtinger_payload", stage)
    monkeypatch.setattr(mult, "seeded_uniform", counting("draws", _numpy_uniform))
    monkeypatch.setattr(scenarios, "seeded_uniform", _numpy_uniform)
    for cfg in catalog():
        if cfg.checks.get("wirtinger"):
            cfg = replace(cfg, omega=_WIRTINGER_OMEGAS[cfg.name])
            assert run_scenario(cfg).payload["wirtinger"]["diagram_residual_max"] < 1e-14
    assert stage_counts == [{"sums": 4, "draws": 1, "svds": 1, "bases": 2, "tildes": 0}] * 3


#: the catalog's Wirtinger scenarios and the principal g = 2, n = 2 one of
#: the benchmark's checks
_WIRTINGER_STAGES = [
    *(cfg for cfg in catalog() if cfg.checks.get("wirtinger")),
    ScenarioConfig(name="wirtinger-g2-n2", g=2, type=(1, 1), omega={"random": {"seed": 201}},
                   n=2, seed=21, simple_asserted=True, checks={"wirtinger": True}),
]


@pytest.mark.parametrize("cfg", _WIRTINGER_STAGES, ids=lambda cfg: cfg.name)
def test_wirtinger_stage_matches_separate_calls(cfg, monkeypatch):
    # the stage evaluates each theta series once, on the grid U x (V + points);
    # every residual it reports matches one rebuilt from separate evaluations
    # at the same samples
    calls = []

    def recorded(pav, n, seed, points):
        calls.append((pav, n, seed, points, mult.wirtinger_matrix(pav, n, seed, points)))
        return calls[-1][-1]

    monkeypatch.setattr(scenarios, "wirtinger_matrix", recorded)
    payload = run_scenario(cfg).payload["wirtinger"]
    [(pav, n, seed, points, wirt)] = calls
    N = n * (n + 1)
    C = wirt.full
    bs = np.array(points)
    nu = mult.OVERSAMPLE * pav.h0(n + 1)
    z = mult.sample_points(pav, nu + pav.h0(N), seed)
    us, vs = z[:nu], z[nu:]
    assert len(us) * len(vs) == mult.OVERSAMPLE * C.size

    def divisor(b):
        return ThetaBasis(pav, 1).eval_matrix(us + n * b)[0] * ThetaTilde(pav, n).eval_many(us - b)

    # the diagram: divisor coordinates fit at U against the Wirtinger image, per point
    values = np.stack([divisor(b) for b in bs], axis=1)
    phi = expand_in_basis(pav, n + 1, values, us).coefficients
    image = C @ ThetaBasis(pav, N).eval_matrix(bs)
    separate = [mult.projective_residual(x, y) for x, y in zip(phi.T, image.T)]
    assert wirt.diagram_residuals.shape == (len(points),) == (3,)
    assert np.abs(wirt.diagram_residuals - separate).max() <= 1e-13
    assert payload["diagram_residual_max"] == wirt.diagram_residuals.max()
    # the relation on the grid U x V, one column v at a time
    ta = ThetaBasis(pav, n + 1).eval_matrix(us)
    w_u = section_weights(pav, n + 1, us)
    columns = [(divisor(v), ThetaBasis(pav, N).eval_matrix(v)[:, 0], w_u * w_v)
               for v, w_v in zip(vs, section_weights(pav, N, vs))]

    def misfit(coefficients):
        wrong = sum(np.linalg.norm(w * (lhs - ta.T @ (coefficients @ tb))) ** 2
                    for lhs, tb, w in columns)
        return np.sqrt(wrong / sum(np.linalg.norm(w * lhs) ** 2 for lhs, _, w in columns))

    assert abs(payload["fit_residual"] - misfit(C)) <= 1e-13
    assert payload["fit_residual"] == wirt.fit_residual
    # a wrong matrix, its entry at alpha = beta = 0 cleared, gets the same
    # misfit from the grid and from the columns
    wrong = C.copy()
    wrong[0, 0] = 0.0
    grid = mult._wirtinger_checks(pav, n, wrong, seed, points)[0]
    assert grid > 1e-3
    assert abs(grid - misfit(wrong)) <= 1e-13 * grid


def test_wirtinger_term_budget_spans_the_stage(monkeypatch):
    # at Omega = 0.0001185 i I each of the stage's four evaluations is under
    # DEFAULT_TERM_CAP and the four together are over it: the stage is
    # refused before any evaluation.  Its grid pairs 2 * 3^2 = 18 samples U
    # with 6^2 = 36 samples V and 3 points, and each grid sum is counted as
    # 18 characteristics at 39 points, at offset 1, one box radius above the
    # level-1 and theta~ evaluators at the 702 pair points, whose count is
    # under the cap here
    omega = [[[0, 1.185e-4], [0, 0]], [[0, 0], [0, 1.185e-4]]]
    cfg = ScenarioConfig(name="wirtinger-budget", g=2, type=(1, 1), omega=omega, n=2,
                         checks={"wirtinger": True})
    pav = validate_polarized(scenarios.omega_source(cfg)(), (1, 1))
    bases = [ThetaBasis(pav, 3).terms(18), ThetaBasis(pav, 6).terms(36 + 3)]
    quotient = validate_polarized(pav.matrix / 2, (1, 1))
    terms = [theta._LatticeSum(pav, 1, offset=1.0).terms(18, 39),
             theta._LatticeSum(quotient, 1, offset=1.0).terms(18, 39), *bases]
    pairs = [ThetaBasis(pav, 1).terms(18 * 39), ThetaTilde(pav, 2).terms(18 * 39), *bases]
    assert max(terms) < sum(pairs) < theta.DEFAULT_TERM_CAP < sum(terms)
    monkeypatch.setattr(theta._LatticeSum, "eval", _never_called)
    report = run_scenario(cfg)
    assert report.exit_code == 3
    assert report.payload["errors"] == [
        f"wirtinger: Wirtinger check lattice terms: {sum(terms)} "
        f"exceeds cap {theta.DEFAULT_TERM_CAP}"]


#: scenario values to reject, not coerce or ignore: (change, text of the error)
_BAD_VALUES = [
    ({"g": 1.7}, "g must"),
    ({"g": True}, "g must"),
    ({"type": [3.5]}, "type must"),
    ({"g": 2, "type": "12"}, "type must"),
    ({"omega": {"random": {"seed": 101.9}}}, "omega seed"),
    ({"omega": {"random": {"seed": "x"}}}, "omega seed"),
    ({"omega": {"random": 5}}, "omega mapping"),
    ({"omega": {"random": {"sed": 5}}}, "omega mapping"),
    ({"omega": {"random": {}}}, "omega mapping"),
    ({"simple_asserted": "no"}, "simple_asserted"),
    ({"type": [3, 3]}, "type must"),
    ({"omega": [[5]]}, "omega must"),
    ({"omega": [[[0, None]]]}, "omega must"),
    ({"omega": [[[0, float("inf")]]]}, "omega must"),
    ({"omega": [[[0, 10**400]]]}, "omega must"),
    ({"omega": [[[1, 2, 3]]]}, "omega must"),
    ({"omega": [[[0, True]]]}, "omega must"),
    ({"omega": [[[0, 1]], [[0, 1]]]}, "omega must"),
    ({"omega": "i"}, "omega must"),
    ({"checks": [1]}, "checks must"),
    ({"checks": None}, "checks must"),
    ({"checks": {"wirtinger": 1}}, "wirtinger"),
    ({"checks": {"bogus": True}}, "unknown check"),
]
_BAD_VALUE_IDS = ["g-float", "g-bool", "type-float", "type-string", "omega-seed-float",
                  "omega-seed-string", "omega-random-not-mapping", "omega-unknown-key",
                  "omega-random-no-seed", "simple-asserted-string", "type-length",
                  "omega-scalar-entry", "omega-null", "omega-inf", "omega-huge-int",
                  "omega-triple", "omega-bool", "omega-shape", "omega-string", "checks-list",
                  "checks-null", "wirtinger-int", "unknown-check"]


@pytest.mark.parametrize(
    "change,message",
    [({"seed": -1}, "seed"), *_BAD_VALUES],
    ids=["negative-seed", *_BAD_VALUE_IDS],
)
def test_run_scenario_rejects_bad_seed_and_caps(change, message):
    report = run_scenario(replace(_by_name("elliptic-d3"), **change))
    assert report.exit_code == 2
    assert any(message in e for e in report.payload["errors"])
    assert "surjectivity" not in report.payload


def test_run_scenario_fits_mu_once(monkeypatch):
    # the verdict and the blocks come from one evaluation of the constants;
    # the dense mu_n is never assembled
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(mult, "theta_constants", counting("theta_constants", mult.theta_constants))
    monkeypatch.setattr("thetamu.reference.mu_matrix", counting("mu_matrix", mu_matrix))
    report = run_scenario(_by_name("elliptic-d3"))
    assert report.payload["blocks"]["rank_sum"] == 6
    assert calls == ["theta_constants"]


@pytest.mark.parametrize("d,code", [(2236, 0), (2237, 3)])
def test_mu_cells_cap_bounds_the_blocks(d, code, monkeypatch):
    # type (d) n=1: the gate counts h0(2) h0(1) = 2d x d cells, those of all
    # d character blocks, though only one block per orbit is built:
    # 2 * 2236^2 = 9999392 <= DEFAULT_CELL_CAP < 2 * 2237^2 = 10008338
    if code:
        monkeypatch.setattr(mult, "theta_constants", _never_called)
    report = run_scenario(ScenarioConfig(name=f"d{d}", g=1, type=(d,),
                                         omega={"random": {"seed": 101}}, n=1))
    assert report.exit_code == code
    if code:
        assert report.payload["surjectivity"] is None
        assert report.payload["errors"] == [
            "mu_verdict: mu_n block cells: 10008338 exceeds cap 10000000"]
    else:
        assert report.payload["surjectivity"]["verdict"] == "Surjective"


@pytest.mark.parametrize("stage,function,scenario", [
    ("mu_verdict", "surjectivity_verdict", "elliptic-d3"),
    ("wirtinger", "wirtinger_matrix", "wirtinger-g1-n1"),
    ("spanning", "spanning_check", "spanning-g1-n2"),
])
def test_every_stage_reports_a_linalg_error(stage, function, scenario, monkeypatch):
    # LinAlgError is a ValueError; every stage reports it and goes on
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(scenarios, function, failing)
    report = run_scenario(_by_name(scenario))
    assert report.exit_code == 3
    assert report.payload["errors"] == [f"{stage}: SVD did not converge"]
    assert stage in report.timings
    key = "surjectivity" if stage == "mu_verdict" else stage
    assert report.payload[key] is None


def test_retired_caps_are_rejected(tmp_path, capsys):
    # size guards are constants: a file that still names caps is refused at
    # load, as any unknown key is
    doc = {"name": "bad", "g": 1, "type": [3], "omega": {"random": {"seed": 101}}, "n": 1,
           "caps": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["verify", "--scenario", str(path)]) == 2
    assert "unknown scenario keys: ['caps']" in capsys.readouterr().err


def test_retired_eps_is_rejected(tmp_path, capsys):
    # the truncation accuracy is the constant DEFAULT_EPS: a file that names
    # eps, even at its value, is refused at load
    doc = {"name": "bad", "g": 1, "type": [3], "omega": {"random": {"seed": 101}}, "n": 1,
           "eps": 1e-12}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["verify", "--scenario", str(path)]) == 2
    assert "unknown scenario keys: ['eps']" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [32, 300, 600, 1000, 100000])
def test_cli_verify_refuses_deep_nesting(tmp_path, capsys, depth):
    # omega nested depth lists deep makes a document depth + 1 deep, past
    # SCENARIO_DEPTH_CAP, so each is refused at load with one error line:
    # 1000 and more are past the JSON parser's recursion limit, and 600
    # would load but be too deep to echo in a report
    path = tmp_path / "deep.json"
    path.write_text('{"g": 1, "type": [1], "omega": ' + "[" * depth + "]" * depth + "}")
    assert cli_main(["verify", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot load scenario: scenario nests deeper than 32 " \
                           "arrays and objects\n"


def test_load_scenario_depth_cap(tmp_path):
    # a document exactly SCENARIO_DEPTH_CAP deep loads
    depth = scenarios.SCENARIO_DEPTH_CAP - 1
    path = tmp_path / "deep.json"
    path.write_text('{"g": 1, "type": [1], "omega": ' + "[" * depth + "]" * depth + "}")
    assert load_scenario(path).omega == json.loads("[" * depth + "]" * depth)


def _nested(depth):
    """An empty list nested ``depth`` lists deep."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


def test_deep_config_is_refused_however_built():
    # the config counts as one level, as the JSON object of a file does: a
    # field nested SCENARIO_DEPTH_CAP - 1 deep is kept and its report written,
    # and one level more is refused, built directly, from a mapping or by
    # replace, in a list, tuple or dict
    cap = scenarios.SCENARIO_DEPTH_CAP
    kept = ScenarioConfig(name="d", g=1, type=(1,), omega=_nested(cap - 1))
    report = run_scenario(kept)
    assert report.exit_code == 2
    assert json.loads(scenarios.report_json(report))["scenario"]["omega"] == _nested(cap - 1)
    builds = [
        lambda: ScenarioConfig(name="d", g=1, type=(1,), omega=_nested(900)),
        lambda: ScenarioConfig.from_dict({"g": 1, "type": [1], "omega": _nested(cap)}),
        lambda: replace(kept, omega=_nested(cap)),
        lambda: replace(kept, type=(tuple(_nested(cap - 1)),)),
        lambda: replace(kept, checks={"wirtinger": _nested(cap - 1)}),
    ]
    message = f"^scenario nests deeper than {cap} arrays and objects$"
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()


def test_cli_seed_leaves_a_seeded_omega_alone(tmp_path, capsys):
    # the omega mapping names its own seed, so --seed moves only the
    # sampled checks, never the period matrix or the verdict
    doc = {"name": "seeded", "g": 1, "type": [3], "omega": {"random": {"seed": 101}}, "n": 1}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    reports = []
    for seed in ("1", "2"):
        assert cli_main(["verify", "--scenario", str(path), "--seed", seed]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    for key in ("resolved", "surjectivity"):
        assert reports[0][key] == reports[1][key]
    assert reports[0]["scenario"]["seed"] == 1 and reports[1]["scenario"]["seed"] == 2


#: the period matrix that ``{"random": {"seed": 321}}`` drew at g = 3 before
#: the seeded draws moved to the stdlib generator
_OMEGA_G3_321 = [
    [[0.46195503325912013, 3.437993984957618], [0.3666015163972071, 0.081263260584906],
     [0.142888106827598, 0.2535980593984482]],
    [[0.3666015163972071, 0.081263260584906], [-0.09284493627347001, 4.0688638063873235],
     [0.026886365003825574, 0.2279760848273894]],
    [[0.142888106827598, 0.2535980593984482], [0.026886365003825574, 0.2279760848273894],
     [0.4231134516949099, 3.7132792897896802]],
]


@pytest.mark.parametrize("config,gap_ratio", [
    (ScenarioConfig(name="g3-1-1-21", g=3, type=(1, 1, 21), omega=_OMEGA_G3_321,
                    n=2, simple_asserted=True), 474.0),
    (ScenarioConfig(name="g3-1-1-21-seed-305", g=3, type=(1, 1, 21),
                    omega={"random": {"seed": 305}}, n=2, simple_asserted=True), 475.3),
    (ScenarioConfig(name="elliptic-d3-cusp", g=1, type=(3,), omega=[[[0.1, 80.0]]], n=1,
                    simple_asserted=True), 122.0),
], ids=["g3-1-1-21", "g3-1-1-21-seed-305", "elliptic-d3-cusp"])
def test_inconclusive_above_the_bound_is_not_a_violation(config, gap_ratio):
    # an undecided rank says nothing against the theorem: exit 3, not 4
    p = run_scenario(config).payload
    assert p["bound_prediction"] == "TheoremPredictsSurjective"
    assert p["surjectivity"]["verdict"] == "Inconclusive"
    assert p["surjectivity"]["gap_ratio"] == pytest.approx(gap_ratio, rel=1e-2)
    assert p["consistency"]["theorem_violation"] is False
    assert p["exit_code"] == 3


_PRODUCT_OMEGA = [[[0.1, 1.1], [0, 0], [0, 0]], [[0, 0], [0.2, 1.3], [0, 0]],
                  [[0, 0], [0, 0], [0.3, 1.7]]]


@pytest.mark.parametrize("config,rank", [
    (ScenarioConfig(name="product-1-1-21", g=3, type=(1, 1, 21), omega=_PRODUCT_OMEGA, n=2,
                    simple_asserted=True), 252),
    (ScenarioConfig(name="product-1-3-9", g=3, type=(1, 3, 9), omega=_PRODUCT_OMEGA, n=2,
                    simple_asserted=True), 486),
    (ScenarioConfig(name="elliptic-d3-far-cusp", g=1, type=(3,), omega=[[[0.1, 200.0]]], n=1,
                    simple_asserted=True), 3),
], ids=["product-1-1-21", "product-1-3-9", "elliptic-d3-far-cusp"])
def test_not_surjective_at_one_omega_is_not_a_violation(config, rank):
    # a rank decided at one period matrix says nothing against the theorem:
    # a product E1 x E2 x E3 asserted simple has the rank of its factors, and
    # near the cusp the rank carries no error bound.  Exit 3, not 4
    p = run_scenario(config).payload
    assert p["bound_prediction"] == "TheoremPredictsSurjective"
    assert p["surjectivity"]["verdict"] == "NotSurjective"
    assert p["surjectivity"]["rank"] == rank
    assert p["consistency"]["theorem_violation"] is False
    assert p["exit_code"] == 3


def test_not_surjective_above_the_bound_is_a_violation(monkeypatch):
    # a NotSurjective that holds for every Omega against the prediction is
    # reported as a defect
    def not_surjective(pav, n):
        return replace(mult.surjectivity_verdict(pav, n), verdict=Verdict.NOT_SURJECTIVE,
                       dimensional_shortcut=True)

    monkeypatch.setattr(scenarios, "surjectivity_verdict", not_surjective)
    p = run_scenario(_by_name("elliptic-d3")).payload
    assert p["bound_prediction"] == "TheoremPredictsSurjective"
    assert p["consistency"]["theorem_violation"] is True
    assert p["exit_code"] == 4


def test_report_names_the_theta_constant_truncation():
    report = run_scenario(_by_name("elliptic-d3"))
    pav = validate_polarized(random_period_matrix(1, 101), (3,))
    radius = theta.constants_radius(pav, 2)
    assert report.payload["surjectivity"]["truncation"] == {
        "level": 2, "radius": radius, "points": 2 * radius + 1,
    }
    report = run_scenario(_by_name("surface-principal-dimcount"))
    assert report.payload["surjectivity"]["truncation"] is None


def test_run_scenario_wirtinger_block(monkeypatch):
    made = []

    def recorded(*args, **kwargs):
        made.append(mult.wirtinger_matrix(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(scenarios, "wirtinger_matrix", recorded)
    report = run_scenario(_by_name("wirtinger-g1-n2"))
    w = report.payload["wirtinger"]
    assert w["fit_residual"] < 1e-8
    # the columns of the reported matrix repeat along the 2-torsion shifts of
    # beta; for g = 1, n = 2 that is column j = column j mod 3, exactly
    full = made[0].full
    assert np.array_equal(full, np.tile(full[:, :3], 2))
    assert w["reduced_sigma_min_ratio"] > 1e-6
    assert w["diagram_residual_max"] < 1e-8
    assert set(w) == {"fit_residual", "reduced_sigma_min_ratio", "diagram_residual_max"}


def test_run_scenario_diagram_check_with_huge_divisor_values():
    # at g = 1, n = 10 the divisor values reach ~1e212, and the squares of a
    # plain norm overflow: the diagram residual must stay finite, without
    # a warning, rather than report "nan" with exit 0
    cfg = ScenarioConfig(name="huge-divisor", g=1, type=(1,), omega={"random": {"seed": 5}},
                         n=10, seed=1, checks={"wirtinger": True})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(cfg)
    assert report.exit_code == 0
    assert report.payload["wirtinger"]["diagram_residual_max"] < 1e-12


def test_run_scenario_spanning_block():
    report = run_scenario(_by_name("spanning-g1-n2"))
    s = report.payload["spanning"]
    assert (s["rank"], s["required_rank"], s["npoints"]) == (3, 3, 100)


def test_catalog_names_and_coverage():
    names = [cfg.name for cfg in catalog()]
    assert "surface-principal-dimcount" in names
    assert "elliptic-d3" in names and "elliptic-d4" in names
    assert "wirtinger-g1-n1" in names and "wirtinger-g2-n1" in names
    assert len(names) == len(set(names))


def test_report_json_round_trip_and_determinism():
    cfg = _by_name("elliptic-d3")
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    j1 = emit_report(r1, "json")
    j2 = emit_report(r2, "json")
    assert j1 == j2  # byte-identical
    parsed = json.loads(j1)
    assert parsed["surjectivity"]["verdict"] == "Surjective"
    # stable key order: keys sorted at every level
    assert list(parsed) == sorted(parsed)
    # timings live on the report object, not in the JSON payload
    assert r1.timings and "timings" not in parsed


def test_report_floats_have_17_significant_digits():
    cfg = _by_name("elliptic-d3")
    text = emit_report(run_scenario(cfg), "json")
    value = json.loads(text)["surjectivity"]["singular_values"][0]
    assert format(value, ".17g") in text


#: a payload with every kind of value a report may carry, and its report_json
#: bytes as the serializer wrote them before it dispatched on exact types
_PINNED_PAYLOAD = {
    "floats": [float("nan"), float("inf"), float("-inf"), 1.0, 1e16, -0.0, 1e-320, 0.1],
    "exact": [Fraction(81, 4), complex(1.5, -2.0)],
    "numpy": (np.int64(-7), np.float64(0.1), np.float64(2.5e-300), np.float32(0.5),
              np.int32(3), np.complex128(1 + 2j)),
    "z": complex(-0.0, 3.0),
    "flags": [True, False, None],
    "empty": [{}, []],
    "text": "th\u00e9ta \u00b5 \u2211",
    10: {"b": 2, "a": [1, [0.5]]},
    9: 1,
}
_PINNED_JSON = r"""{
  "10": {
    "a": [
      1,
      [
        0.5
      ]
    ],
    "b": 2
  },
  "9": 1,
  "empty": [
    {},
    []
  ],
  "exact": [
    "81/4",
    [
      1.5,
      -2.0
    ]
  ],
  "flags": [
    true,
    false,
    null
  ],
  "floats": [
    "nan",
    "inf",
    "-inf",
    1.0,
    10000000000000000.0,
    -0.0,
    9.9998886718268301e-321,
    0.10000000000000001
  ],
  "numpy": [
    -7,
    0.10000000000000001,
    2.5e-300,
    0.5,
    3,
    [
      1.0,
      2.0
    ]
  ],
  "text": "th\u00e9ta \u00b5 \u2211",
  "z": [
    -0.0,
    3.0
  ]
}
"""


def test_report_json_bytes_are_pinned():
    assert scenarios.report_json(scenarios.Report(_PINNED_PAYLOAD, {})) == _PINNED_JSON


class _Three(enum.IntEnum):
    THREE = 3


class _Str(str):
    pass


class _Fraction(Fraction):
    pass


class _Float(float):
    pass


#: subclasses and numpy scalars that no exact type covers, and their bytes as
#: the serializer wrote them before it resolved subclasses through the MRO
_PINNED_SUBCLASSES = [
    (_Three.THREE, "3"),
    (_Str("x"), '"x"'),
    (_Fraction(1, 3), '"1/3"'),
    (_Float(0.5), "0.5"),
    (np.uint8(7), "7"),
    (np.float16(0.5), "0.5"),
    (np.longdouble(0.1), "0.10000000000000001"),
]


@pytest.mark.parametrize("value,text", _PINNED_SUBCLASSES,
                         ids=[type(v).__name__ for v, _ in _PINNED_SUBCLASSES])
def test_report_json_subclass_bytes_are_pinned(value, text):
    # twice: the second call takes the writer the first one recorded
    for _ in range(2):
        assert scenarios.report_json(scenarios.Report({"v": [value]}, {})) == (
            '{\n  "v": [\n    ' + text + "\n  ]\n}\n")


@pytest.mark.parametrize("value", [np.bool_(True), object()], ids=["np.bool_", "object"])
def test_report_json_refuses_other_types(value):
    for _ in range(2):
        with pytest.raises(TypeError, match="cannot serialize"):
            scenarios.report_json(scenarios.Report({"v": value}, {}))


def _round_trips(value, parsed) -> bool:
    """Whether ``parsed``, json.loads of value's report_json text, gives back
    value: every float bit for bit, the sign of zero included."""
    if isinstance(value, dict):
        return (set(parsed) == {str(k) for k in value}
                and all(_round_trips(v, parsed[str(k)]) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return len(parsed) == len(value) and all(map(_round_trips, value, parsed))
    if isinstance(value, complex):
        return _round_trips([value.real, value.imag], parsed)
    if isinstance(value, (float, np.floating)):
        return type(parsed) is float and parsed.hex() == float(value).hex()
    if isinstance(value, Fraction):
        return parsed == str(value)
    return type(parsed) is type(value) and parsed == value


def test_catalog_reports_give_back_every_float():
    for cfg in catalog():
        report = run_scenario(cfg)
        assert _round_trips(report.payload, json.loads(scenarios.report_json(report))), cfg.name


def test_report_table_contains_exact_bound():
    # g = 3, n = g-1 = 2: bound 81/4; the dimensional shortcut keeps it cheap
    cfg = ScenarioConfig(
        name="threefold-principal", g=3, type=(1, 1, 1),
        omega={"random": {"seed": 8}}, n="g-1", simple_asserted=True,
    )
    report = run_scenario(cfg)
    table = emit_report(report, "table")
    assert "81/4" in table
    assert report.payload["bound"]["least_sufficient"] == 21
    json_text = emit_report(report, "json")
    assert '"81/4"' in json_text


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    doc = {
        "name": "file-elliptic",
        "g": 1,
        "type": [3],
        "omega": [[[0.25, 1.0]]],
        "n": 1,
        "seed": 7,
        "simple_asserted": True,
    }
    path.write_text(json.dumps(doc))
    cfg = load_scenario(path)
    assert cfg.type == (3,)
    report = run_scenario(cfg)
    assert report.payload["surjectivity"]["verdict"] == "Surjective"


def test_scenario_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"g": 1, "type": [1], "omega": [[[0, 1]]], "bogus": 1}))
    with pytest.raises(ValueError):
        load_scenario(path)


def test_cli_bound(capsys):
    assert cli_main(["bound", "--g", "3", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "81/4" in out and "21" in out


@pytest.mark.parametrize("g,n", [(0, 1), (2, -1), (171, 1), (1800, 1), (10**7, 1)])
def test_cli_bound_rejects_out_of_range_input(capsys, g, n):
    assert cli_main(["bound", "--g", str(g), "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_catalog_lists(capsys):
    assert cli_main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "elliptic-d3" in out and "surface-33" in out


def test_cli_verify(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-elliptic",
                "g": 1,
                "type": [3],
                "omega": {"random": {"seed": 101}},
                "n": 1,
                "seed": 11,
                "simple_asserted": True,
            }
        )
    )
    code = cli_main(["verify", "--scenario", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["surjectivity"]["verdict"] == "Surjective"
    code = cli_main(["verify", "--scenario", str(path), "--format", "table", "--seed", "99"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Surjective" in out


def test_cli_verify_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"g": 2, "type": [3, 2], "omega": {"random": {"seed": 2}}, "n": 1})
    )
    code = cli_main(["verify", "--scenario", str(path)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "change,message",
    [({"seed": -1}, "seed"), ({"seed": 11.7}, "seed"), *_BAD_VALUES],
    ids=["negative-seed", "float-seed", *_BAD_VALUE_IDS],
)
def test_cli_verify_rejects_bad_seed_and_caps(tmp_path, capsys, change, message):
    doc = {"name": "bad", "g": 1, "type": [3], "omega": {"random": {"seed": 101}}, "n": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, **change}))
    code = cli_main(["verify", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    errors = json.loads(captured.out)["errors"]
    assert errors
    assert any(message in e for e in errors)
    assert "Traceback" not in captured.err


def test_cli_verify_rejects_overflowing_omega(tmp_path, capsys):
    # JSON reads 1e400 as inf
    path = tmp_path / "bad.json"
    path.write_text('{"g": 1, "type": [3], "omega": [[[0, 1e400]]], "n": 1}')
    code = cli_main(["verify", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert any("omega must" in e for e in json.loads(captured.out)["errors"])
    assert "Traceback" not in captured.err


_BAD_CONTENT = [
    ({"checks": {"spanning_modulus": -2}}, "spanning_modulus"),
    ({"checks": {"spanning_modulus": "a"}}, "spanning_modulus"),
    ({"checks": {"spanning_modulus": 2.5}}, "spanning_modulus"),
    ({"checks": {"spanning_modulus": True}}, "spanning_modulus"),
    ({"checks": {"spanning_modulus": None}}, "spanning_modulus"),
    ({"n": 1.5}, "n must be"),
    ({"n": True}, "n must be"),
]
_BAD_IDS = ["modulus-negative", "modulus-string", "modulus-float", "modulus-bool",
            "modulus-null", "n-float", "n-bool"]


@pytest.mark.parametrize("change,message", _BAD_CONTENT, ids=_BAD_IDS)
def test_run_scenario_rejects_bad_n_and_modulus(change, message):
    report = run_scenario(replace(_by_name("spanning-g1-n2"), **change))
    assert report.exit_code == 2
    assert any(message in e for e in report.payload["errors"])
    assert "surjectivity" not in report.payload


def test_run_scenario_zero_modulus_skips_spanning():
    report = run_scenario(replace(_by_name("spanning-g1-n2"), checks={"spanning_modulus": 0}))
    assert report.exit_code == 0
    assert report.payload["spanning"] is None


@pytest.mark.parametrize("change,message", _BAD_CONTENT, ids=_BAD_IDS)
def test_cli_verify_rejects_bad_n_and_modulus(tmp_path, capsys, change, message):
    doc = {"name": "bad", "g": 1, "type": [1], "omega": {"random": {"seed": 108}}, "n": 2}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, **change}))
    code = cli_main(["verify", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert any(message in e for e in json.loads(captured.out)["errors"])
    assert "Traceback" not in captured.err


def test_run_scenario_takes_one_svd_of_mu(monkeypatch):
    cfg = _by_name("elliptic-d3")
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = run_scenario(cfg)
    assert report.payload["blocks"]["rank_sum"] == 6
    # mu_1 of type (3) has 3 character blocks of 2 x 3 in one orbit, so one
    # SVD of one stacked block
    assert shapes == [(1, 2, 3)]


#: JSON values of the wrong kind for any scenario field
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=2),
    st.lists(st.integers(0, 2), max_size=2), st.dictionaries(st.text(max_size=2), st.none(),
                                                             max_size=1),
)


def _or_junk(strategy):
    """``strategy``, or a value of the wrong kind one time in ten."""
    return st.integers(0, 9).flatmap(lambda k: _JUNK if k == 9 else strategy)


def _or_extreme(strategy, values=(1e308, -1e308, 1e-320)):
    """``strategy``, or an extreme finite double of ``values`` one time in four."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(values) if k == 3 else strategy)


@st.composite
def _omegas(draw, g, kinds=("random", "explicit", "malformed")):
    """A random-seed mapping, or a g x g matrix of [re, im] pairs (symmetric,
    with Im positive definite or not), or a matrix of another shape."""
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return {"random": {"seed": draw(_or_junk(st.integers(0, 2**64)))}}
    size = g if kind == "explicit" else draw(st.integers(0, 3))
    entry = st.lists(_or_junk(st.floats(-1, 1)), min_size=2, max_size=2)
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            re, im = draw(entry) if kind == "malformed" else (
                draw(_or_extreme(st.floats(-1, 1))),
                # a huge or subnormal diagonal keeps Im Omega positive definite
                draw(_or_extreme(st.floats(0.3, 3), (1e308, 1e-320)) if i == j
                     else _or_extreme(st.floats(-0.2, 0.2))),
            )
            rows[i][j] = rows[j][i] = [re, im]
    if kind == "explicit" and draw(st.integers(0, 4)) == 0:
        rows[0][0] = [0.0, -1.0]  # not positive definite
    return rows


@st.composite
def _scenarios(draw, clean=False):
    """A scenario document; with ``clean``, every field but omega is well
    formed and omega is an explicit matrix."""
    junk = (lambda strategy: strategy) if clean else _or_junk
    g = draw(st.integers(1, 2))
    checks = draw(junk(st.one_of(
        st.just({}), st.fixed_dictionaries({"wirtinger": junk(st.booleans())}),
        st.fixed_dictionaries({"spanning_modulus": junk(st.integers(0, 3))}),
    )))
    return {
        "name": "property",
        "g": draw(junk(st.just(g))),
        "type": draw(junk(st.lists(st.integers(1, 4), min_size=g, max_size=g))),
        "omega": draw(_omegas(g, ("explicit",)) if clean else _omegas(g)),
        "n": draw(junk(st.one_of(st.integers(1, 2), st.just("g-1")))),
        "seed": draw(junk(st.integers(0, 2**64))),
        "simple_asserted": draw(junk(st.booleans())),
        "checks": checks,
    }


def _assert_reported(doc):
    """Every scenario gets a report with a known exit code, byte for byte the
    same on a second run, and a clean report holds only finite numbers."""
    config = ScenarioConfig.from_dict(json.loads(json.dumps(doc)))
    first = run_scenario(config)
    assert first.exit_code in {0, 2, 3, 4}
    text = emit_report(first, "json")
    assert emit_report(run_scenario(config), "json") == text
    if first.exit_code == 0:
        assert not any(token in text for token in ('"nan"', '"inf"', '"-inf"'))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_scenarios())
def test_run_scenario_never_raises_on_scenario_content(doc):
    # JSON-shaped scenarios with g <= 2, divisors <= 4 and n <= 2, well formed
    # or not, with extreme finite omega entries among them
    _assert_reported(doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_scenarios(clean=True))
def test_run_scenario_never_raises_on_extreme_period_matrices(doc):
    # well-formed scenarios whose period matrix may hold 1e308 or 1e-320,
    # so that the extremes reach the evaluation stages
    _assert_reported(doc)


_NUMPY_INTS = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)


@st.composite
def _numpy_twins(draw):
    """A well-formed scenario with g <= 2, as keyword arguments of
    ScenarioConfig, and its twin with every integer field a numpy scalar of a
    dtype that holds the value."""
    divisors = draw(st.sampled_from([(1,), (1, 1), (2,), (1, 2), (3,), (2, 2), (1, 3)]))
    g = len(divisors)
    n = draw(st.one_of(st.integers(1, 2), st.just("g-1")))
    checks = draw(st.one_of(
        st.just({}), st.fixed_dictionaries({"wirtinger": st.booleans()}),
        st.fixed_dictionaries({"spanning_modulus": st.integers(0, 3)}),
    ))
    seed, omega_seed = draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1))

    def numpy(value):
        kinds = [k for k in _NUMPY_INTS if np.iinfo(k).min <= value <= np.iinfo(k).max]
        return draw(st.sampled_from(kinds))(value)

    plain = dict(name="twin", g=g, type=divisors, omega={"random": {"seed": omega_seed}},
                 n=n, seed=seed, simple_asserted=draw(st.booleans()), checks=checks)
    twin = dict(plain, g=numpy(g), type=tuple(map(numpy, divisors)),
                omega={"random": {"seed": numpy(omega_seed)}},
                n=n if n == "g-1" else numpy(n), seed=numpy(seed),
                checks={key: value if key == "wirtinger" else numpy(value)
                        for key, value in checks.items()})
    return plain, twin


#: the paper's g = 3 headline, type (1, 3, 9) at n = g-1 = 2, and a type
#: whose degree 2^64 a numpy product wraps to 0
_HEADLINE = dict(name="twin", g=3, type=(1, 3, 9), omega={"random": {"seed": 301}}, n=2,
                 seed=31, simple_asserted=True, checks={})
_WIDE = dict(_HEADLINE, g=2, type=(2**32, 2**32), n=1)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@example((_HEADLINE, dict(_HEADLINE, g=np.int64(3), type=tuple(np.array([1, 3, 9])),
                          n=np.int32(2))))
@example((_WIDE, dict(_WIDE, g=np.int64(2), type=(np.int64(2**32),) * 2)))
@given(_numpy_twins())
def test_numpy_integer_config_reports_as_its_int_twin(configs):
    # every count is checked where it enters and computed with as a Python
    # int: no numpy power or product wraps and no numpy scalar reaches a stage
    plain, twin = (ScenarioConfig(**kwargs) for kwargs in configs)
    assert scenarios.report_json(run_scenario(twin)) == scenarios.report_json(run_scenario(plain))


@pytest.mark.parametrize("change", [
    {"omega": np.array([[1j]])},
    {"type": np.array([1, 3, 9])},
    {"omega": [[np.array([0.0, 1.0])]]},
    {"checks": {"wirtinger": np.bool_(True)}},
], ids=["omega-array", "type-array", "omega-entry-array", "numpy-bool"])
def test_config_holding_a_value_no_report_can_write_is_refused(change):
    # run_scenario would echo the value into a report that report_json
    # cannot write
    with pytest.raises(ValueError, match="^scenario value of <class 'numpy[.a-z_]*'> cannot be "
                                         "written to a report$"):
        replace(_by_name("elliptic-d3"), **change)


@pytest.mark.parametrize("change", [
    {"type": (10**5000,)},
    {"seed": 10**5000},
    {"omega": {"random": {"seed": 10**5000}}},
    {"n": 10**5000},
], ids=["type", "seed", "omega-seed", "n"])
def test_config_holding_an_int_past_the_digit_limit_is_refused(change):
    # run_scenario returned exit 2 for the type (10^5000,), and report_json
    # of that report raised ValueError: str() writes at most 4300 digits
    with pytest.raises(ValueError, match="^scenario value of <class 'int'> with more than 4300 "
                                         "digits cannot be written to a report$"):
        replace(_random("digits", 1, 1), **change)


def test_config_holding_a_4300_digit_int_is_written():
    # 10^4299 has 4300 digits, the most str() writes: the config is kept and
    # its report, which echoes the type, is written
    report = run_scenario(_random("digits", 1, 1, type_=(10**4299,)))
    assert report.exit_code == 3
    assert json.loads(scenarios.report_json(report))["scenario"]["type"] == [10**4299]
