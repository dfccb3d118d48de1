"""Stability spectra, cutoff constructions and integral estimates for
minimal hypersurfaces of the round sphere.

The package verifies, at desk scale, that the first stability eigenvalue
equals -n exactly on equators and -2n exactly on the minimal products of
round spheres, and exercises the supporting machinery: curvature
identities, ball-cover cutoff functions with quantitative gradient and
Laplacian control, local curvature-energy estimates, and the cone
stability threshold -(n+1)^2/4.
"""

from .errors import (
    AssemblyFailure,
    BudgetInfeasible,
    DegenerateChart,
    InsufficientSamples,
    NonMinimal,
    PreconditionViolated,
    SpherestabError,
    UnsupportedFamily,
    ZeroTestFunction,
)
from .geometry import (
    Chart,
    ParametrizedHypersurface,
    ShapeData,
    SphereProduct,
    chord_distance,
    clifford_hypersurface,
    equator,
    geodesic_distance,
    measure_volume_growth,
    sample_points,
    shape_at,
)
from .spectrum import (
    EigenResult,
    SimonsReport,
    first_stability_eigenvalue,
    rayleigh_quotient,
    simons_check,
    simons_refinement,
    observed_order,
    test_function_A,
)
from .cutoff import (
    BallCover,
    CutoffField,
    build_inf_cutoff,
    build_product_cutoff,
    cover_singular_set,
    covers_points,
    empty_cover,
    gradient_integral_estimate,
    load_point_cloud,
    mr_quality_report,
)
from .estimates import (
    ConeVerdict,
    EstimateReport,
    SSYConstants,
    cone_stability_table,
    l4_identity_check,
    local_A_bound,
    ssy_constants,
)
from .fields import AmbientCoordinateField, ConstantField

__version__ = "0.1.0"
