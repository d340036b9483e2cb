"""Mismatch removal for 2D/3D point correspondences under non-rigid deformation.

The pipeline has two stages: a re-weighted one-point RANSAC extracts the
locally rigid motions hiding in the matches, then an EM loop melts them
into a smooth dual-quaternion-blended deformation field and scores every
match against it. The field stays queryable afterwards, densely, anywhere
in the scene.
"""

from .core import (
    Config,
    ConfigError,
    DegenerateGeometryError,
    DegenerateScaleError,
    LabelResult,
    MatchFieldError,
    MatchSet,
    RigidTransform,
    scale_estimate,
)
from .dualquat import (
    dq_apply,
    dq_blend,
    dq_from_transform,
    dq_multiply,
)
from .em_refine import (
    EmState,
    NeighborGraph,
    build_neighbors,
    e_step,
    filter_and_refine,
    init_from_hypotheses,
    m_step,
    run_em,
)
from .field import (
    FieldGrid,
    FieldSample,
    grid_field,
    query_field,
    render_scene_svg,
    write_field_csv,
)
from .io_eval import (
    DimensionMismatchError,
    MatchFileError,
    Metrics,
    NonNumericRowError,
    SynthSpec,
    TruncatedFileError,
    compute_metrics,
    load_labels,
    load_matches,
    save_labels,
    save_matches,
    synth_generate,
)
from .ransac import (
    RansacOutcome,
    TransformHypothesis,
    labels_from_outcome,
    ransac_run,
    reweight_fit,
    trial_bound,
    weighted_rigid_fit,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "DegenerateGeometryError",
    "DegenerateScaleError",
    "DimensionMismatchError",
    "EmState",
    "FieldGrid",
    "FieldSample",
    "LabelResult",
    "MatchFieldError",
    "MatchFileError",
    "MatchSet",
    "Metrics",
    "NeighborGraph",
    "NonNumericRowError",
    "RansacOutcome",
    "RigidTransform",
    "SynthSpec",
    "TransformHypothesis",
    "TruncatedFileError",
    "build_neighbors",
    "compute_metrics",
    "dq_apply",
    "dq_blend",
    "dq_from_transform",
    "dq_multiply",
    "e_step",
    "filter_and_refine",
    "grid_field",
    "init_from_hypotheses",
    "labels_from_outcome",
    "load_labels",
    "load_matches",
    "m_step",
    "query_field",
    "ransac_run",
    "render_scene_svg",
    "reweight_fit",
    "run_em",
    "save_labels",
    "save_matches",
    "scale_estimate",
    "synth_generate",
    "trial_bound",
    "weighted_rigid_fit",
    "write_field_csv",
]
