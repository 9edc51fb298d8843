"""Effective-model toolkit for heterogeneous diffusion and advection-diffusion
problems: structured Q1 finite elements, coefficient upscaling, dual-weighted
model-error indicators, and damped Gauss-Newton model optimization."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigurationError,
    NumericalError,
    OutOfDomainError,
    ResourceCapError,
    SingularOperatorError,
)
from .mesh import Domain, Grid, MeshHierarchy, Patch, build_hierarchy  # noqa: F401
from .field import (  # noqa: F401
    AdvectionField,
    CoefficientField,
    RasterField,
    SumAdvection,
    gen_gaussian_raster,
    stream_advection,
)
from .fem import (  # noqa: F401
    DiscreteField,
    FeSpace,
    Functional,
    Problem,
    SparseOperator,
    apply_functional,
    assemble_advection,
    assemble_diffusion,
    assemble_rhs,
    solve,
    solve_dual,
)
from .upscale import (  # noqa: F401
    EffectiveModel,
    arithmetic_mean_model,
    constant_model,
    geometric_mean_model,
    homogenized_effective_model,
    homogenized_model,
)
from .dwr import (  # noqa: F401
    DualApproximation,
    ErrorBreakdown,
    error_identity,
    local_enhancement,
)
from .optim import (  # noqa: F401
    GaussNewtonState,
    OptimizerConfig,
    run_optimization,
)
