"""Dense queries of the deformation field away from the matches.

After EM the field is defined by the labeled inliers and their per-match
motions: a query point blends the motions of its nearest inlier matches,
weighted by a source-side Gaussian of the distance times the match's
posterior. Sparse inlier coverage far from the query shows up as a small
weight sum, reported as the sample's support; samples below a support
floor are flagged invalid rather than extrapolated silently.

Also holds the lattice sampler plus the CSV and SVG emitters used by the
command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .core import Config, FloatArray, LabelResult, MatchSet
from .dualquat import dq8_apply
from .em_refine import EmState, blend_neighbors
from .io_eval import flag_column, float_column, write_csv_columns

# a sample is valid when the blend weights sum to at least this much
SUPPORT_MIN = 0.01
# query points are blended this many rows at a time, so the gathered
# (rows, N_neighbor, 8) neighbor motions stay a few MB however many points
# are asked for; every step is row-wise, so the result does not depend on it
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

    Each point blends the motions of its N_neighbor nearest labeled inliers
    with weights exp(-|pt - x_j|^2 / 2 r^2) * posterior_j and applies the
    blended motion to the point. support is the raw weight sum; a sample
    with support below 0.01 is invalid and reports the query point itself
    as the displaced position. With zero inliers every sample is invalid.
    Rejects non-finite query points with a ValueError naming the first.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if pts.shape[1] != m.dim:
        raise ValueError(f"query points must be (k, {m.dim}), got {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"query point {i} is not finite: {pts[i].tolist()}")
    disp, support, valid = _field_eval(state, labels, m, pts, cfg)
    return list(map(FieldSample, pts.copy(), disp, support.tolist(), valid.tolist()))


def _field_eval(state: EmState, labels: LabelResult, m: MatchSet, pts: FloatArray, cfg: Config):
    n_pts = pts.shape[0]
    inl = np.nonzero(labels.inlier)[0]
    if inl.size == 0:
        return pts.copy(), np.zeros(n_pts), np.zeros(n_pts, dtype=bool)
    k = min(cfg.N_neighbor, inl.size)
    tree = cKDTree(m.x[inl])
    qs, mus, post = state.qs[inl], state.mus[inl], labels.posterior[inl]
    disp = np.empty_like(pts)
    support = np.empty(n_pts)
    for lo in range(0, n_pts, QUERY_BLOCK):
        rows = slice(lo, lo + QUERY_BLOCK)
        # a list of k keeps the neighbor axis when k is 1
        dist, jdx = tree.query(pts[rows], k=[k] if k == 1 else k)
        w = np.exp(-(dist * dist) / (2.0 * cfg.r * cfg.r)) * post[jdx]
        qbar, mubar, support[rows] = blend_neighbors(w, qs, mus, jdx)
        # rows without support blended to NaN; they keep the query point
        moved = dq8_apply(qbar, mubar, pts[rows])
        disp[rows] = np.where((support[rows] > 0.0)[:, None], moved, pts[rows])
    return disp, support, support >= SUPPORT_MIN


def grid_axes(bounds, step: float, dim: int) -> list[FloatArray]:
    """Per-axis sample positions: lo, lo + step, ... up to and including hi.

    bounds is (mins, maxs). A step larger than an extent yields the single
    sample at that axis minimum. Rejects non-finite or inverted bounds and
    non-finite or non-positive steps.
    """
    mins = np.asarray(bounds[0], dtype=np.float64)
    maxs = np.asarray(bounds[1], dtype=np.float64)
    if mins.shape != (dim,) or maxs.shape != (dim,):
        raise ValueError(f"bounds must be two {dim}-vectors")
    if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
        raise ValueError(f"bounds must be finite, got {mins.tolist()} to {maxs.tolist()}")
    if (maxs < mins).any():
        raise ValueError("empty bounds: max < min")
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    return [np.arange(lo, hi + 0.5 * step, step) for lo, hi in zip(mins, maxs)]


def grid_field(
    state: EmState, labels: LabelResult, m: MatchSet, bounds, step: float, cfg: Config
) -> FieldGrid:
    """Sample the field on a regular lattice over bounds with the given step."""
    axes = grid_axes(bounds, step, m.dim)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    samples = query_field(state, labels, m, pts, cfg)
    return FieldGrid(shape=tuple(len(ax) for ax in axes), samples=tuple(samples))


def write_field_csv(grid: FieldGrid, path, dim: int) -> None:
    """Write samples as CSV: query coords, displaced coords, support, valid."""
    header = ",".join(["qx", "qy", "qz"][:dim] + ["dx", "dy", "dz"][:dim] + ["support", "valid"])
    columns = []
    if grid.samples:
        query, displaced, support, valid = zip(*grid.samples)
        columns += [float_column(c) for c in np.array(query, dtype=np.float64).T]
        columns += [float_column(c) for c in np.array(displaced, dtype=np.float64).T]
        columns += [float_column(support), flag_column(valid)]
    write_csv_columns(path, header, columns)


def render_scene_svg(
    m: MatchSet, labels: LabelResult, grid: FieldGrid | None, path
) -> None:
    """Draw a 2D scene: match segments colored by label, plus the grid quiver.

    Inlier matches are teal segments from x to y, outliers faint red, and
    every valid grid sample becomes an arrow from the query point to its
    displaced position.
    """
    if m.dim != 2:
        raise ValueError("SVG rendering is 2D only")
    pts = [m.x, m.y]
    if grid is not None:
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
