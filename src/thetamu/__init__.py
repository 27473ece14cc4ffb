"""Numerical verification of multiplication-map surjectivity, theta-group
structure, and Torelli-type verdicts on concrete polarized abelian varieties."""

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
    PeriodMatrix,
    PolarizationType,
    PolarizedAbelianVariety,
    bound_prediction,
    embedded_surface_h0,
    h0,
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
    weil_pairing,
    weil_pairing_phase,
    zero_point,
)
from .theta import (
    SectionIndex,
    ThetaBasis,
    ThetaTilde,
    automorphy_factor,
    lattice_coordinates,
    quasi_periodicity_residual,
    section_index,
    section_indices,
    section_weights,
    theta_constants,
    translate_action,
)
from .mult import (
    Expansion,
    GammaBlocks,
    MuMatrix,
    SurjectivityVerdict,
    Verdict,
    WirtingerMatrix,
    expand_in_basis,
    gamma_blocks,
    monotonicity_check,
    mu_matrix,
    numerical_rank,
    phi_map_coords,
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
