"""Adaptive DG and C0-IP finite element methods for HJB and Isaacs
equations in nondivergence form with Cordes coefficients."""

from .adapt import (
    AdaptiveConfig,
    AdaptiveTrace,
    EstimatorReport,
    adaptive_solve,
    error_norm_k,
    estimate,
    mark,
)
from .cordes import (
    CoefficientField,
    ControlProblem,
    ControlSet,
    ExactSolution,
    verify_ellipticity_cordes,
)
from .fespace import (
    DiscreteFunction,
    FESpace,
    SpaceConfig,
    build_space,
)
from .forms import (
    FormParams,
    frozen_jacobian,
    jacobian_coefficients,
    jump_seminorm,
    nonlinear_residual,
    norm_k,
    stab_form,
)
from .mesh import (
    MeshLevel,
    convex_polygon_mesh,
    refine_conforming,
    uniform_refine,
    unit_square_mesh,
)
from .problems import get_problem, registry
from .quadrature import QuadratureRule
from .solver import SolveOptions, SolveStats, solve_discrete

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
