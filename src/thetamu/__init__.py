"""Numerical verification of multiplication-map surjectivity, theta-group
structure, and Torelli-type verdicts on concrete polarized abelian varieties.

The test oracles are in ``thetamu.reference``, which this package does not
import."""

__version__ = "0.1.0"

from .errors import (
    BadDivisorChain,
    FitResidualTooLarge,
    IllConditioned,
    NotInGroup,
    NotInK1,
    NotInSpan,
    NotLatticeVector,
    NotPositiveDefinite,
    NotSymmetric,
    NotTorsion,
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
from .torsion import (
    CharacterTable,
    TorsionPoint,
    TorsionSubgroup,
    alternating_form,
    characters,
    crt_split,
    k_group,
    weil_pairing_phase,
    zero_point,
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
