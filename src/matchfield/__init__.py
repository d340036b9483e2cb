"""Mismatch removal for 2D/3D point correspondences under non-rigid deformation.

The pipeline has two stages: a re-weighted one-point RANSAC extracts the
locally rigid motions hiding in the matches, then an EM loop melts them
into a smooth dual-quaternion-blended deformation field and scores every
match against it. The field stays queryable afterwards, densely, anywhere
in the scene.
"""

from .core import (
    Config,
    DegenerateGeometryError,
    LabelResult,
    MatchSet,
    NeighborGraph,
    build_neighbors,
    scale_estimate,
)
from .em_refine import (
    EmState,
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
    MatchFileError,
    Metrics,
    SynthSpec,
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
    "DegenerateGeometryError",
    "EmState",
    "FieldGrid",
    "FieldSample",
    "LabelResult",
    "MatchFileError",
    "MatchSet",
    "Metrics",
    "NeighborGraph",
    "RansacOutcome",
    "SynthSpec",
    "TransformHypothesis",
    "build_neighbors",
    "compute_metrics",
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
