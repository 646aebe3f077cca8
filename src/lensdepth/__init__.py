"""Lens depth over general metric spaces.

Computes the empirical lens depth of a point (the fraction of sample
pairs whose lens contains it), extracts and compares depth level sets,
and ranks random elements by dispersion.  Supported spaces: Euclidean
R^d, the geodesic unit sphere, Stiefel frame spaces, and the
Billera-Holmes-Vogtmann space of phylogenetic trees.
"""

__version__ = "0.1.0"

from .metrics import (
    BHVSpace,
    EuclideanSpace,
    MetricError,
    PointValidationError,
    SphereSpace,
    StiefelSpace,
)
from .treespace import (
    GeodesicResult,
    NewickError,
    Tree,
    TreeError,
    bhv_distance,
    bhv_distance_exhaustive,
    compatible,
    parse_newick,
    to_newick,
)
from .depth import (
    DepthError,
    DepthField,
    Sample,
    batch_depth,
    empirical_lens_depth,
    population_ld_1d,
    population_ld_mc,
    self_depth_field,
)
from .levelsets import (
    KnnGrid,
    LatticeGrid,
    LevelSet,
    LevelSetError,
    boundary_points,
    hausdorff,
    level_set,
)
from .dispersion import (
    OrderVerdict,
    PsiCurve,
    gamma,
    giovagnoli_order,
    psi_curve,
    spread_out_ge,
    strong_order,
    weak_order,
)
from .analysis import (
    DepthDepthRecord,
    depth_depth,
    diameter_curve_by_group,
    outliers,
)
