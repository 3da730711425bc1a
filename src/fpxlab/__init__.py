"""fpxlab: desk-scale laboratory for nonlocal energies with variable exponents."""

from .exponents import (
    ConditionReport,
    ExponentField,
    OutOfDomainError,
    check_exterior_comparison,
    check_interior_oscillation,
    check_log_holder,
    constant_field,
    extrema_over_product,
    field_from_spec,
    product_field,
    radial_field,
    tabulated_field,
)
from .grid import Grid, GridGeometryError, ball_mask, box_mask, build_grid, read_grid_function, write_grid_function
from .operators import PairKernel, TailReport, tail
from .regularity import (
    CaccioppoliReport,
    DeGiorgiParams,
    DeGiorgiRun,
    GrowthReport,
    GrowthScenario,
    HolderFit,
    ResolutionError,
    SublevelReport,
    SupBoundReport,
    algebraic_constant,
    algebraic_inequality_check,
    caccioppoli_report,
    calibrate_growth_delta,
    degiorgi_iterate,
    growth_lemma_check,
    holder_exponent_fit,
    sublevel_energy_check,
    sup_bound_check,
    truncate_level,
)
from .solve import (
    MaxPrincipleReport,
    NonConvergenceError,
    SolveConfig,
    SolveResult,
    comparison_check,
    exterior_data,
    minimize,
)
from .spaces import (
    EmbeddingReport,
    ModularDivergenceError,
    ModularResult,
    NormResult,
    combined_modular,
    combined_norm,
    embedding_bound,
    gagliardo_modular,
    holder_product_check,
    lebesgue_modular,
    lebesgue_norm,
    luxemburg_norm,
    sobolev_seminorm,
)

__version__ = "0.1.0"
