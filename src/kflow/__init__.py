"""kflow: inverse mean curvature flow, geometric inequalities and
quasi-local mass over Kottler backgrounds."""

from .background import (
    SpaceParams,
    WarpTable,
    build_warp_table,
    critical_mass,
    find_horizon,
    mass_from_horizon_area,
    potential,
)
from .basegrid import (
    BaseGrid,
    ScalarField,
    beckner_report,
    differentiate,
    integrate,
    low_frequency_field,
    make_grid,
    sphere_area,
)
from .errors import (
    ConfigurationError,
    DecayViolationError,
    DomainError,
    FlowBreakdownError,
    InvalidDimensionError,
    KFlowError,
    MeanConvexityError,
    NoHorizonError,
    NonRepresentableGraphError,
    NumericsError,
    ResolutionError,
)
from .flow import (
    FlowConfig,
    FlowTrace,
    MonotonicityReport,
    flow_step,
    monotonicity_report,
    run_flow,
    stable_dt,
)
from .mass import (
    IdentityReport,
    MassEstimate,
    RadialGraph,
    ShapeRecord,
    kottler_pair_graph,
    mass_identity_check,
    mass_integrand,
    mass_limit,
    mass_profile_graph,
    penrose_deficit,
    radial_shape_operator,
)
from .surface import (
    FunctionalRecord,
    GraphSurface,
    SurfaceGeometry,
    compute_geometry,
    deficit_scale,
    divergence_identity_residual,
    heintze_karcher_deficit,
    minkowski_deficit,
    random_star_shaped,
    slice_surface,
    weighted_volume_deficit,
)

__version__ = "0.1.0"
