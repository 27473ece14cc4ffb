"""Numerical verification of multiplication-map surjectivity, its character
blocks, and Torelli-type verdicts on concrete polarized abelian varieties.

The test oracles are in ``thetamu.reference`` and ``thetamu.torsion``, which
this package does not import."""

__version__ = "0.1.0"

import importlib

from .errors import (
    BadDivisorChain,
    FitResidualTooLarge,
    IllConditioned,
    NotInSpan,
    NotPositiveDefinite,
    NotSymmetric,
    SizeLimit,
    ThetamuError,
    TruncationOverflow,
    ValidationError,
)
from .varieties import (
    BoundPrediction,
    PolarizedAbelianVariety,
    bound_prediction,
    torelli_bound,
    validate_polarized,
)
from .theta import (
    ThetaBasis,
    ThetaTilde,
    section_weights,
    theta_constants,
)
from .mult import (
    Expansion,
    GammaBlocks,
    SurjectivityVerdict,
    Verdict,
    WirtingerMatrix,
    gamma_blocks,
    projective_residual,
    sample_points,
    spanning_check,
    surjectivity_verdict,
    wirtinger_matrix,
)
from .scenarios import (
    ITTVerdict,
    Report,
    ScenarioConfig,
    catalog,
    emit_report,
    itt_verdict,
    load_scenario,
    random_period_matrix,
    run_scenario,
)


def __getattr__(name):
    # only because perfbench/tracing.py walks ``thetamu.torsion`` as a layer;
    # delete this once the benchmark drops torsion from its LAYERS
    if name == "torsion":
        return importlib.import_module(".torsion", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
