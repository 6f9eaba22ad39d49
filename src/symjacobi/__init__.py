"""Symmetrized Jacobi trigonometric expansions and their operator calculus."""

from ._version import __version__
from .basis import (
    HalfLineExpansion,
    SymmExpansion,
    analyze,
    eval_halfline_expansion,
    eval_symm_expansion,
    recombine,
    reflect,
    reflect_coeffs,
    split_even_odd,
    symm_eigenfunction_table,
    symm_eigenvalues,
    synthesize,
    to_halfline,
)
from .core import (
    GridFunction,
    JacobiParams,
    QuadratureGrid,
    eigenfunction_table,
    eigenvalue,
    gauss_jacobi_rule,
    norm_constant_table,
    symmetric_rule,
    trig_weight,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    DomainError,
    EnsembleError,
    GridError,
    SingularPointError,
    SymJacobiError,
    UnsupportedParametersError,
)
from .norms import (
    AdmissibilityRecord,
    DivergenceVerdict,
    RatioStats,
    TimeGrid,
    admissibility,
    equivalence_ratio,
    flag_divergent_by_exponent,
    flag_divergent_by_growth,
    lp_norm,
    mixed_norm,
    potential_norm,
    random_band_limited,
    sobolev_norm,
    truncated_lp_powers,
    uniform_time_grid,
)
from .operators import (
    bessel_potential,
    dunkl_derivative,
    ladder_constants,
    ladder_up,
    modified_riesz_potential,
    poisson_semigroup,
    poisson_time_derivative,
    riesz_potential,
    riesz_transform,
    riesz_transform_shifted,
    schrodinger_propagator,
    spectral_potential,
    symm_higher_derivative,
    var_index_derivative,
)
from .reporting import ExperimentReport, emit_plots, report_to_json, write_report
from .squarefn import (
    SquareFunctionSpec,
    eigenmode_constant,
    l2_equivalence_constant,
    square_function,
    square_function_by_time_quadrature,
)
from .suites import SuiteConfig, default_pairs, run_suite, validate_config

__all__ = [name for name in dir() if not name.startswith("_")]
