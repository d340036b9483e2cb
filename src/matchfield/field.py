"""Dense queries of the deformation field away from the matches.

After EM the field is defined by the labeled inliers and their per-match
motions: a query point blends the motions of its nearest inlier matches
under the M-step's one weight rule (em_refine.blend_neighbors), a
source-side Gaussian of the distance times the match's posterior. Sparse
inlier coverage far from the query shows up as a small weight sum,
reported as the sample's support; samples below a support floor are
flagged invalid, so an extrapolated value is never passed off as a
supported one.

Also holds the lattice sampler plus the CSV and SVG emitters used by the
command line.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .core import (COORD_RULE, N_NEIGHBOR, Config, FloatArray, LabelResult, MatchSet,
                   box_corners, coords_in_range)
from .dualquat import dq8_apply
from .em_refine import EmState, blend_neighbors
from .io_eval import flag_column, float_column, write_csv_columns

# a sample is valid when the blend weights sum to at least this much
SUPPORT_MIN = 0.01
# query points are blended this many rows at a time, so the (rows, k)
# planes of neighbor distances, indices, weights and hemisphere dots (k up
# to core.N_NEIGHBOR[dim]) stay a few MB however many points are asked for;
# every step is row-wise, so the result does not depend on it
QUERY_BLOCK = 4096


class FieldSample(NamedTuple):
    """Field value at one query point: where the field moves it, and how
    much inlier evidence backed the answer. query and displaced are row
    views into the arrays of one query_field call."""

    query: FloatArray
    displaced: FloatArray
    support: float
    valid: bool


@dataclass(frozen=True)
class FieldGrid:
    """Row-major lattice of field samples; shape is the per-axis count."""

    shape: tuple[int, ...]
    samples: tuple[FieldSample, ...]


def query_field(
    state: EmState, labels: LabelResult, m: MatchSet, pts, cfg: Config
) -> list[FieldSample]:
    """Evaluate the field at arbitrary points (k, dim).

    Each point blends the motions of its core.N_NEIGHBOR[dim] nearest
    labeled inliers with weights exp(-|pt - x_j|^2 / 2 r^2) * posterior_j,
    the M-step's rule (em_refine.blend_neighbors), and applies the blended
    motion to the point. support is the raw weight sum; a sample with support below
    SUPPORT_MIN (0.01) is flagged invalid but still reports the blended
    motion applied to the point. Only a sample without
    any weight (support 0) reports the query point itself as the displaced
    position. With zero inliers every sample is invalid.
    Query points obey the coordinate rule (core.coords_in_range: finite and
    at most MAX_COORD in magnitude); a ValueError names the first that
    breaks it. labels and state must come from a run on m's n matches; a
    ValueError names both counts when either does not.
    """
    for what, count in (("labels", labels.n), ("EM state", state.qs.shape[0])):
        if count != m.n:
            raise ValueError(f"{what} of {count} matches used with {m.n} matches")
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != m.dim:
        raise ValueError(f"query points must be (k, {m.dim}), got {pts.shape}")
    ok = coords_in_range(pts)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"query point {i} must be {COORD_RULE}, got {pts[i].tolist()}")
    disp, support, valid = _field_eval(state, labels, m, pts, cfg)
    # tuple.__new__ builds each sample in C, without FieldSample's Python-level __new__
    return list(map(tuple.__new__, repeat(FieldSample),
                    zip(pts.copy(), disp, support.tolist(), valid.tolist())))


def _field_eval(state: EmState, labels: LabelResult, m: MatchSet, pts: FloatArray, cfg: Config):
    n_pts = pts.shape[0]
    inl = np.nonzero(labels.inlier)[0]
    if inl.size == 0:
        return pts.copy(), np.zeros(n_pts), np.zeros(n_pts, dtype=bool)
    k = min(N_NEIGHBOR[m.dim], inl.size)
    tree = cKDTree(m.x[inl])
    qs, mus, post = state.qs[inl], state.mus[inl], labels.posterior[inl]
    disp = np.empty_like(pts)
    support = np.empty(n_pts)
    for lo in range(0, n_pts, QUERY_BLOCK):
        rows = slice(lo, lo + QUERY_BLOCK)
        # a list of k keeps the neighbor axis when k is 1
        dist, jdx = tree.query(pts[rows], k=[k] if k == 1 else k)
        qbar, mubar, support[rows] = blend_neighbors(dist, post[jdx], qs, mus, jdx, cfg.r)
        # rows without support blended to NaN; they keep the query point
        moved = dq8_apply(qbar, mubar, pts[rows])
        disp[rows] = np.where((support[rows] > 0.0)[:, None], moved, pts[rows])
    return disp, support, support >= SUPPORT_MIN


@contextmanager
def _lattice_fits(counts: list[int], step: float):
    """Turn a MemoryError raised while a lattice's axes or points are
    allocated into a ValueError naming the per-axis sample counts."""
    try:
        yield
    except MemoryError:
        raise ValueError(f"lattice of {counts} samples per axis at step {step} "
                         "does not fit in memory") from None


def grid_axes(bounds, step: float, dim: int) -> list[FloatArray]:
    """Per-axis sample positions: sample i is lo + i * step, rounded per
    sample rather than summed from a rounded increment.

    bounds is (mins, maxs), whose corners obey the coordinate rule (see
    core.box_corners). An axis holds floor((hi - lo) / step) + 1 samples:
    bounds (0, 11) at step 4 give 0, 4, 8. A ratio a few ulps short of an
    integer counts as that integer, so an exact multiple keeps its end
    sample, and a last sample that rounds past hi becomes hi: (0, 0.7) at
    step 0.1 ends at exactly 0.7. So no sample lies past hi, and every
    lattice point obeys the coordinate rule. Sample 0 is lo itself, so a
    zero keeps its sign; where (lo + step) - lo == step, as in every box
    starting at 0, the samples are np.arange's bits. A step larger than an
    extent yields the single sample at that axis minimum. Rejects inverted
    bounds, non-finite or non-positive steps, an axis with more samples
    than an index can count, axes too long to allocate, and samples that
    would not all differ (a step at or below the float spacing at the box).
    """
    mins, maxs = box_corners(bounds, dim)
    if (maxs < mins).any():
        raise ValueError("empty bounds: max < min")
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    # a tiny step can still take the ratio past a float
    with np.errstate(over="ignore"):
        q = (maxs - mins) / step
    if not (q < np.iinfo(np.intp).max).all():
        raise ValueError(f"lattice of {(np.floor(q) + 1.0).tolist()} samples per axis at step "
                         f"{step} overflows an index")
    counts = np.floor(q + 4.0 * np.spacing(q)).astype(np.intp) + 1
    with _lattice_fits(counts.tolist(), step):
        axes = [np.concatenate(([lo], lo + np.arange(1, c) * step)) for lo, c in zip(mins, counts)]
    # np.where, unlike np.minimum, keeps the sign of a zero sample
    axes = [np.where(ax > hi, hi, ax) for ax, hi in zip(axes, maxs)]
    for a, (ax, c) in enumerate(zip(axes, counts)):
        if not (np.diff(ax) > 0.0).all():
            raise ValueError(f"lattice axis {a}: step {step} is at or below the float spacing "
                             f"at the box, so its {c} samples would not all differ")
    return axes


def grid_points(bounds, step: float, dim: int) -> tuple[tuple[int, ...], FloatArray]:
    """The lattice of grid_axes as its per-axis counts and its (k, dim)
    points in row-major order. A lattice whose axes or points cannot be
    allocated raises ValueError naming the per-axis sample counts."""
    axes = grid_axes(bounds, step, dim)
    shape = tuple(ax.size for ax in axes)
    with _lattice_fits(list(shape), step):
        return shape, np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def grid_field(
    state: EmState, labels: LabelResult, m: MatchSet, bounds, step: float, cfg: Config
) -> FieldGrid:
    """Sample the field at the points of grid_points(bounds, step, m.dim)."""
    shape, pts = grid_points(bounds, step, m.dim)
    return FieldGrid(shape=shape, samples=tuple(query_field(state, labels, m, pts, cfg)))


def write_field_csv(grid: FieldGrid, path, dim: int) -> None:
    """Write samples as CSV: query coords, displaced coords, support, valid.

    Samples whose query or displaced points are not dim wide raise
    ValueError before the file is opened, so nothing is written.
    """
    header = ",".join(["qx", "qy", "qz"][:dim] + ["dx", "dy", "dz"][:dim] + ["support", "valid"])
    columns = []
    if grid.samples:
        # one C-level pass per field; zip(*samples) would make an iterator per sample
        for f, name in enumerate(("query", "displaced")):
            pts = np.array(list(map(itemgetter(f), grid.samples)), dtype=np.float64)
            if pts.shape[1:] != (dim,):
                raise ValueError(f"field samples hold {name} points of shape {pts.shape[1:]}, "
                                 f"but dim is {dim}")
            columns += [(float_column, c) for c in pts.T]
        columns += [(float_column, list(map(itemgetter(2), grid.samples))),
                    (flag_column, list(map(itemgetter(3), grid.samples)))]
    write_csv_columns(path, header, columns)


def render_scene_svg(
    m: MatchSet, labels: LabelResult, grid: FieldGrid | None, path
) -> None:
    """Draw a 2D scene: match segments colored by label, plus the grid quiver.

    Inlier matches are teal segments from x to y, outliers faint red, and
    every valid grid sample becomes an arrow from the query point to its
    displaced position. labels must come from a run on m's n matches; a
    ValueError names both counts, before the file is opened, when they
    do not.
    """
    if m.dim != 2:
        raise ValueError("SVG rendering is 2D only")
    if labels.n != m.n:
        raise ValueError(f"labels of {labels.n} matches used with {m.n} matches")
    pts = [m.x, m.y]
    if grid is not None and grid.samples:
        pts += [np.array([s.query for s in grid.samples])]
    allp = np.vstack(pts)
    lo = allp.min(axis=0) - 20.0
    hi = allp.max(axis=0) + 20.0
    size = hi - lo
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo[0]:.1f} {lo[1]:.1f} '
        f'{size[0]:.1f} {size[1]:.1f}">',
        '<defs><marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="5" markerHeight="5" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#1f5fbf"/></marker></defs>',
        f'<rect x="{lo[0]:.1f}" y="{lo[1]:.1f}" width="{size[0]:.1f}" '
        f'height="{size[1]:.1f}" fill="white"/>',
    ]
    for i in range(m.n):
        color = "#0e8f7a" if labels.inlier[i] else "#d05050"
        width = "1.2" if labels.inlier[i] else "0.6"
        op = "0.9" if labels.inlier[i] else "0.45"
        parts.append(
            f'<line x1="{m.x[i, 0]:.2f}" y1="{m.x[i, 1]:.2f}" x2="{m.y[i, 0]:.2f}" '
            f'y2="{m.y[i, 1]:.2f}" stroke="{color}" stroke-width="{width}" opacity="{op}"/>'
        )
    if grid is not None:
        for s in grid.samples:
            if not s.valid:
                parts.append(
                    f'<circle cx="{s.query[0]:.2f}" cy="{s.query[1]:.2f}" r="1.5" '
                    'fill="#bbbbbb"/>'
                )
                continue
            parts.append(
                f'<line x1="{s.query[0]:.2f}" y1="{s.query[1]:.2f}" '
                f'x2="{s.displaced[0]:.2f}" y2="{s.displaced[1]:.2f}" stroke="#1f5fbf" '
                'stroke-width="1.0" marker-end="url(#tip)"/>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
