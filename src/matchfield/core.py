"""Shared domain types, configuration, validation, and the kNN graph.

Everything downstream (the RANSAC stage, the EM refinement, field queries)
consumes the value types defined here. All of them are immutable after
construction; the arrays they hold are marked read-only so accidental
mutation fails loudly. The k-nearest-neighbor graph lives here because a
run makes one kd-tree query and both stages read its answer: RANSAC picks
its controls from the first POOL_COLUMNS neighbors, EM blends over all
N_NEIGHBOR[dim] of them. The graph is the neighbor indices and source
distances; it holds no weights, so one graph serves any radius r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

FloatArray = NDArray[np.float64]
BoolArray = NDArray[np.bool_]
IntArray = NDArray[np.int64]


class MatchFieldError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(MatchFieldError, ValueError):
    """A configuration value is out of its legal range."""


class DegenerateGeometryError(MatchFieldError):
    """Point geometry is too degenerate to determine a transform."""


class DegenerateScaleError(MatchFieldError):
    """Point clouds have zero spatial spread, no scale can be estimated."""


def make_rng(seed: int) -> np.random.Generator:
    """All randomness flows from generators built here, one per entry point.

    Identical seeds therefore replay identical control-point choices and
    synthetic scenes.
    """
    return np.random.default_rng(seed)


def _frozen_array(a, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


# near source neighbors (columns 1..POOL_COLUMNS of the kNN graph) whose
# distances a control's score reads (ransac.control_pool), in 2D and in 3D.
# 16 is the whole 2D graph. The 3D graph has 24, but over all 24 a wrong
# match finds two consistent neighbors by chance far more often: on the 3D
# benchmark scenes (629/0.76, 1784/0.39, 693/0.16 inliers) the first 16 cut
# mean trials from 69/459/321 to 12/32/38, all 24 only to 21/67/93
POOL_COLUMNS = 16
# neighbors each match's motion is blended from, in EM and in field
# queries, per dimension. In 3D the field's hold-out error over 24 is at
# most 9.9% above its error over 50, over 16 up to 39.7%
# (BENCH_neighbors_3d.json). Both values are at least POOL_COLUMNS, so a
# run's one graph serves both the control pool and the blend
N_NEIGHBOR = {2: 16, 3: 24}

# largest coordinate magnitude the package takes in, in match files, match
# sets, synthetic and lattice boxes and query points. Squared distances
# between any two such points then stay below 1.2e291, and the fits, the
# scale estimate and EM add up n of them times small constants, which stays
# finite for any n that fits in memory. A bound on each cloud's extent alone
# is not enough: EM squares y - x wherever no motion covers a match, and a
# cloud on one point at 1e175 squares its rounding error when it is centred
MAX_COORD = 1e145
# the coordinate rule as every error message words it
COORD_RULE = f"finite and at most {MAX_COORD:g} in magnitude"


def coords_in_range(a) -> BoolArray:
    """The coordinate rule, per row of an (n, dim) array, or for one (dim,)
    row: whether every value of the row is finite and at most MAX_COORD in
    magnitude. NaN fails the comparison, so it fails the rule."""
    ok = np.abs(a) <= MAX_COORD
    # and-ing the columns is several times faster than ok.all(axis=-1),
    # which reduces each short row on its own
    return reduce(np.logical_and, ok.T)


@dataclass(frozen=True)
class MatchSet:
    """Paired point clouds, x[i] in the source frame matched to y[i] in the target.

    dim is 2 or 3 and both arrays are (n, dim) float64. Coordinates obey
    the coordinate rule (coords_in_range: finite and at most MAX_COORD,
    1e145, in magnitude), so no squared distance overflows; n >= 1.
    """

    dim: int
    x: FloatArray
    y: FloatArray

    def __post_init__(self) -> None:
        check_dim(self.dim)
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"x must be (n, {self.dim}), got {x.shape}")
        if y.shape != x.shape:
            raise ValueError(f"x and y shapes differ: {x.shape} vs {y.shape}")
        if x.shape[0] < 1:
            raise ValueError("need at least one match")
        ok = coords_in_range(x) & coords_in_range(y)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"match {i}: coordinates must be {COORD_RULE}, got "
                             f"{x[i].tolist()} -> {y[i].tolist()}")
        object.__setattr__(self, "x", _frozen_array(x))
        object.__setattr__(self, "y", _frozen_array(y))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_points(cls, x, y) -> "MatchSet":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be (n, dim), got {x.shape}")
        return cls(dim=int(x.shape[1]), x=x, y=y)


def check_dim(dim) -> None:
    """Raise ValueError unless dim is a Python or numpy integer 2 or 3."""
    if not isinstance(dim, (int, np.integer)) or dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")


def check_count(name: str, v, least: int, error=ValueError) -> None:
    """Raise error naming the field name unless v is a Python or numpy
    integer of at least least. A bool or a float of integral value is no
    integer here, so neither stands in for a count or a seed."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise error(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise error(f"{name} must be >= {least}, got {v}")


def small_det(a: FloatArray) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion.

    A few products of Python floats, where np.linalg.det pays for a LAPACK
    LU factorization; used by the 3D fits.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    return (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )


@dataclass(frozen=True)
class LabelResult:
    """Per-match output labels: inlier flag, inlier posterior, field residual."""

    inlier: BoolArray
    posterior: FloatArray
    residual: FloatArray

    def __post_init__(self) -> None:
        inl = np.asarray(self.inlier, dtype=bool)
        post = np.asarray(self.posterior, dtype=np.float64)
        res = np.asarray(self.residual, dtype=np.float64)
        n = inl.shape[0]
        if inl.ndim != 1 or post.shape != (n,) or res.shape != (n,):
            raise ValueError("labels must be parallel 1-d arrays")
        # NaN fails both comparisons, so it fails the check
        if not ((post >= 0.0) & (post <= 1.0)).all():
            raise ValueError("posteriors must lie in [0, 1]")
        if (res < 0.0).any() or np.isnan(res).any():
            raise ValueError("residuals must be non-negative")
        object.__setattr__(self, "inlier", _frozen_array(inl, dtype=bool))
        object.__setattr__(self, "posterior", _frozen_array(post))
        object.__setattr__(self, "residual", _frozen_array(res))

    @property
    def n(self) -> int:
        return self.inlier.shape[0]


@dataclass(frozen=True)
class Config:
    """Algorithm parameters. Defaults are the tuned 2D pixel-scale values;
    Config.for_matches, the one builder of a run's config, rescales them
    for 3D inputs.

    H     inlier residual threshold
    r     radius of the Gaussian distance weights of the blend
    seed  seed for every random draw in a run

    These are exactly the settings the filter and field flags set: the two
    for_matches sets per dimension, and the seed. Values no caller sets
    are module constants beside the code that reads them: N_NEIGHBOR (one
    per dimension), ransac.T_MIN, ransac.N_REWEIGHT_ITERS,
    ransac.RANSAC_P, em_refine.P_MIN, em_refine.THETA and
    em_refine.MAX_EM_ITERS. The mixture's uniform
    outlier density is no setting either: em_refine.e_step takes it from
    the data, as the inverse volume of the targets' bounding box padded by
    H (ransac.padded_box_fraction).
    """

    H: float = 20.0
    r: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("seed", self.seed, 0, ConfigError)
        for name in ("H", "r"):
            v = getattr(self, name)
            # bool is an int subclass, so True would pass as 1
            if isinstance(v, bool) or not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be positive, got {v}")

    @classmethod
    def for_matches(cls, m: MatchSet, **overrides) -> "Config":
        """The one builder of a run's config: defaults, rescaled to m's
        spatial scale s = scale_estimate(m) when m is 3D, then overrides.

        3D inputs have no pixel grid, so H becomes 0.1 s and r becomes
        0.3 s. Every other length the run uses (sigma, the targets' padded
        box) comes from the data, so a change of units leaves every
        posterior, and so every label, unchanged.

        The CLI passes the flags it was given as the overrides, so a run's
        settings are the defaults, then the 3D adaptation, then the flags.
        """
        scaled = {}
        if m.dim == 3:
            s = scale_estimate(m)
            scaled = dict(H=0.1 * s, r=0.3 * s)
        return cls(**{**scaled, **overrides})


@dataclass(frozen=True)
class NeighborGraph:
    """Immutable k-nearest-neighbor structure over the source points: what
    the kd-tree query returns.

    idx is (n, k) with column 0 the match itself, and dist holds the source
    distances |x_j - x_i| per (match, neighbor), so column 0 is 0. The
    weights that blend over it (em_refine.blend_neighbors) are formed from
    dist by whoever blends.
    matches records the match set build_neighbors built the graph from; a
    graph made by hand has none and is never taken for a build.
    """

    idx: IntArray
    dist: FloatArray
    matches: MatchSet | None = field(default=None, repr=False, compare=False)


def build_neighbors(m: MatchSet) -> NeighborGraph:
    """k-nearest neighbors by source-side distance, self in column 0: the
    N_NEIGHBOR[m.dim] nearest, or every other match when n is smaller,
    plus the match itself. The indices and distances are the kd-tree
    query's, so dist is bit-identical to the square root of the summed
    squared source differences. A run builds its graph once, before
    RANSAC; it never changes.
    """
    n = m.n
    if n == 1:
        idx = np.zeros((1, 1), dtype=np.int64)
        dist = np.zeros((1, 1))
    else:
        dist, idx = cKDTree(m.x).query(m.x, k=min(N_NEIGHBOR[m.dim], n - 1) + 1)
        idx = idx.astype(np.int64)
        # the kd-tree breaks distance ties arbitrarily; force self into
        # column 0 so blending always sees the match's own motion. Only
        # duplicates of the source, at distance 0, come before it, so the
        # swap leaves dist valid. A row that misses itself (more duplicates
        # than columns) finds no hit, argmax 0, and takes itself in column 0
        wrong = np.flatnonzero(idx[:, 0] != np.arange(n))
        rows = idx[wrong]
        idx[wrong, np.argmax(rows == wrong[:, None], axis=1)] = rows[:, 0]
        idx[wrong, 0] = wrong
    # the outcome and every EM state on it share these arrays
    for a in (idx, dist):
        a.setflags(write=False)
    return NeighborGraph(idx=idx, dist=dist, matches=m)


def box_corners(bounds, dim: int) -> tuple[FloatArray, FloatArray]:
    """The (mins, maxs) of a box as float arrays.

    Rejects anything but two dim-vectors and corners that break the
    coordinate rule (coords_in_range), so no extent, nor the sum of the
    squared extents, overflows a float. Says nothing about order.
    """
    mins = np.asarray(bounds[0], dtype=np.float64)
    maxs = np.asarray(bounds[1], dtype=np.float64)
    if mins.shape != (dim,) or maxs.shape != (dim,):
        raise ValueError(f"bounds must be two {dim}-vectors")
    if not (coords_in_range(mins) and coords_in_range(maxs)):
        raise ValueError(f"bounds must be {COORD_RULE}, got {mins.tolist()} to {maxs.tolist()}")
    return mins, maxs


def scale_estimate(m: MatchSet) -> float:
    """Root mean squared distance of both clouds from their centroids.

    s = sqrt((sum ||x_i - mean(x)||^2 + sum ||y_i - mean(y)||^2) / (2 n)).
    Translation invariant and homogeneous of degree one under scaling of
    both clouds. Raises DegenerateScaleError for fewer than two matches
    and when both clouds collapse to single points: s at most 1e-12 of the
    largest coordinate magnitude, a tolerance relative at every scale, so
    a cloud of spread 1e-14 is not taken for a point.
    """
    if m.n < 2:
        raise DegenerateScaleError("scale estimate needs at least two matches")
    xc = m.x - m.x.mean(axis=0)
    yc = m.y - m.y.mean(axis=0)
    s = math.sqrt((np.sum(xc * xc) + np.sum(yc * yc)) / (2.0 * m.n))
    tol = 1e-12 * max(float(np.abs(m.x).max()), float(np.abs(m.y).max()))
    if s <= tol:
        raise DegenerateScaleError("all points coincide, scale is undefined")
    return s
