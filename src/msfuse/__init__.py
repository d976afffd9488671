"""Multi-scale stereo matching and 3D reconstruction.

WLS edge-preserving decomposition, fused AD/gradient/census matching
costs, guided-filter aggregation, cross-scale cost fusion, disparity
extraction and binocular triangulation, plus mask-evaluation metrics.
"""

from .aggregate import GuidedFilterParams, aggregate_cost, box_mean, guided_filter
from .config import ConfigError, PipelineConfig
from .core import (
    INVALID_DISPARITY,
    CostVolume,
    FormatError,
    gradient,
    load_image,
    save_image,
)
from .cost import CostParams, census_transform, match_cost
from .disparity import DisparityParams, fill_invalid, lr_consistency, subpixel_refine, wta
from .fusion import FusionParams, finest_weights, fuse_scales, fusion_matrix
from .metrics import ConfusionCounts, UndefinedMetricError, accuracy, auc, confusion, sensitivity
from .reconstruct import CameraRig, PointCloud, export_ply, triangulate
from .wls import SolverError, WlsParams, decompose, wls_filter

__version__ = "0.1.0"
