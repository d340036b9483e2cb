"""Re-weighted one-point RANSAC over locally rigid scaled motions.

Classic RANSAC needs a minimal sample per model (three pairs for a 2D
similarity), so its trial count explodes at high outlier ratios. Here a
single control match o seeds each trial: relative to o the model
y_i - y_o = mu R (x_i - x_o) is fit to all matches at once, and a few
fit/re-weight rounds with weights w_i = min(H / d_i, 1) let the nearby
consistent matches take the fit over. Each accepted hypothesis reserves its
inliers so later trials hunt for other locally rigid motions, which yields a
multi-hypothesis cover of a non-rigid scene. The kept motions leave the run
as unit dual quaternions with a scale, in the one (..., 8) layout of
dualquat: they are the initial values of EM's blended field.

Controls are not drawn from all n matches. A run first builds one kNN
graph over the sources (core.build_neighbors), core.N_NEIGHBOR[dim]
neighbors wide, and opens only the matches that keep their distances to
near neighbors: a wrong match rarely agrees with two of its 16 nearest
neighbors (control_pool). This is the neighborhood-preservation test of
LPM (Ma et al., IJCV 2019) used only as a prior on which controls are
drawn, as in PROSAC (Chum & Matas, CVPR 2005); every kept motion still
scores every match, and EM still decides the labels. The graph travels to
EM on the outcome, which blends over all of its neighbors, so a run makes
one kd-tree query.

A motion is kept only when chance cannot explain its support (the a
contrario rule of Moisan & Stival, IJCV 2004). A wrong match lands within H
of a random motion's prediction with probability p_c, the volume of an
H-ball over that of y's bounding box padded by H on every side, so a random
motion catches Binomial(n, p_c) matches. The run's acceptance threshold
t_acc is the smallest support with P[Binomial(n, p_c) >= t_acc] <= ALPHA,
and never below T_MIN; it replaces T_MIN in the acceptance test, in the
stop on too few unreserved matches and in the trial bound. Without it a
large scene keeps nearly every trial: at n = 10k in an 800x600 frame a
random motion catches about 23 wrong matches within H = 20, and t_acc is 41.

The fit/re-weight loop is written once for both dimensions. Each dimension
supplies four parts: positions relative to the control, per-match fit terms
built once per control, the weighted fit (rotation, mu) from the squared
weights, and residuals under a fit. 2D parts are closed form: with points as
complex numbers the weighted similarity reduces to a few weighted sums of
per-match products. 3D parts keep coordinates coordinate-major, as (3, n)
arrays of positions relative to the control with their squared norms; each
round is one weighted (3, n) @ (n, 3) product, the SVD of the resulting 3x3
cross matrix and one residual pass. The SVD calls LAPACK's dgesdd directly
through scipy.linalg.lapack: np.linalg.svd runs the same routine with the
same bits, but its Python wrapper costs more than the 3x3 decomposition.
The two reject different geometry. 3D rejects a weighted cross matrix of
rank one or less, such as points collinear through the control; coplanar
points give rank two, whose best rotation is still unique once the
determinant is corrected, so they fit. In 2D one relative vector already
fixes a plane rotation, so collinear points fit; only a cross matrix
without a rotation part, or points collapsed onto the control, are
degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .core import (
    POOL_COLUMNS,
    Config,
    DegenerateGeometryError,
    FloatArray,
    IntArray,
    LabelResult,
    MatchSet,
    NeighborGraph,
    build_neighbors,
    make_rng,
    small_det,
)
from .dualquat import dq8_apply, dq8_from_rt

# relative second singular value below which a 3D weighted cross matrix is
# treated as rank one or less (points collinear through the control, or
# collapsed), and relative size below which a 2D cross matrix has no
# rotation part
RANK_TOL = 1e-9

# chance level of the acceptance test: a motion is kept only when a random
# motion reaches its support with probability at most ALPHA
ALPHA = 1e-3

# floor on the support of a kept motion, however little chance explains
T_MIN = 5

# consistent neighbors a control needs among those columns. With 2, 2D
# trials at n = 1000 fall from 92/146/215/272 to 12/15/23/28 at
# 30/50/70/85% outliers, and mean F at 85% moves from 0.9766 to 0.9763. 3
# cuts trials further but keeps only 50% (2D, 85%) and 59% (3D, 693/0.16)
# of the true inliers in the pool
POOL_MIN_SCORE = 2

# fit/re-weight rounds per trial. Every accuracy gate and benchmark figure
# was measured with 3, and no caller ever set another count
N_REWEIGHT_ITERS = 3

# confidence of the trial bound. On the seed-977 benchmark scenes the pool
# runs out first in all 69 runs (7-45 trials against bounds of 81-636)
RANSAC_P = 0.95


@dataclass(frozen=True)
class TransformHypothesis:
    """One locally rigid motion found by a trial.

    control is the index of the match the trial grew from; dq (a read-only
    (8,) row in the dualquat layout) and mu are the scaled motion
    x -> mu (R x + t); inliers are all matches within H of it, and
    support, their count, is the T_o score.
    """

    control: int
    dq: FloatArray
    mu: float
    inliers: IntArray

    @property
    def support(self) -> int:
        return int(self.inliers.size)


@dataclass(frozen=True)
class RansacOutcome:
    """What a run decided: the kept hypotheses in the order they were
    found, the match count n, gamma after each trial, the size of the
    control pool the trials drew from, and the run's kNN graph
    (core.build_neighbors), which EM blends over (None in an outcome made
    by hand).

    Everything else is derived from these. trials is the length of
    gamma_history, one entry per trial; owner names the motion that owns
    each match, inlier_union holds the covered matches and gamma is
    |inlier_union| / n. gamma_history is non-decreasing because the
    cover only grows.
    """

    hypotheses: tuple[TransformHypothesis, ...]
    n: int
    gamma_history: tuple[float, ...]
    pool: int = 0
    graph: NeighborGraph | None = field(default=None, repr=False, compare=False)

    @property
    def trials(self) -> int:
        return len(self.gamma_history)

    @cached_property
    def owner(self) -> IntArray:
        """Read-only (n,) int64: the index of the covering hypothesis with
        the largest support, the earliest one among equal supports, or -1
        where no hypothesis covers the match. EM seeds each match from its
        owner and labels_from_outcome takes the owner's residual."""
        hyps = self.hypotheses
        # hypotheses ranked by falling support, earlier first among ties;
        # assigned from the last rank to the first, so the best rank
        # covering a match writes last
        rank = np.argsort([-h.support for h in hyps], kind="stable")
        owner = np.full(self.n, -1, dtype=np.int64)
        for j in rank[::-1].tolist():
            owner[hyps[j].inliers] = j
        # every reader shares the cached array
        owner.setflags(write=False)
        return owner

    def owner_for(self, m: MatchSet) -> IntArray:
        """owner, for a reader pairing the outcome with match set m; raises
        ValueError naming both counts when the run was on another n."""
        if self.n != m.n:
            raise ValueError(f"RANSAC outcome of {self.n} matches used with {m.n} matches")
        return self.owner

    @property
    def inlier_union(self) -> IntArray:
        return np.flatnonzero(self.owner >= 0)

    @property
    def gamma(self) -> float:
        return self.inlier_union.size / self.n


def padded_box_fraction(m: MatchSet, length: float, H: float) -> float:
    """prod_i length / (ptp_i(y) + 2 H): the volume of a cube of side length
    over that of y's bounding box padded by H on every side, the box a
    wrong match's target is taken to fall in uniformly. RANSAC's chance
    level (acceptance_threshold, length H) and EM's outlier term
    (em_refine.e_step, length sigma) both read it. It is formed from
    per-axis ratios, so no power of a length or product of extents can
    overflow; the padding keeps each extent at least 2 H, even when every
    target sits on one point. Unchanged by a shift, and by a rescale that
    rescales length and H with the scene.
    """
    return math.prod((length / (np.ptp(m.y, axis=0) + 2.0 * H)).tolist())


def acceptance_threshold(m: MatchSet, cfg: Config) -> int:
    """Smallest support that chance explains with probability at most ALPHA.

    A wrong match falls within H of a random motion's prediction with
    probability p_c = (pi H^2 in 2D, 4/3 pi H^3 in 3D) / volume of y's
    bounding box padded by H on every side, the ball constant times
    padded_box_fraction(m, H, H), the box EM takes its outlier density
    from. Each of its ratios H / padded extent is at most 1/2, so p_c stays
    below pi / 4 even when every target sits on one point. The chance
    support of a motion is then Binomial(n, p_c); its upper tail is found
    by walking the CDF up from 0 in log space. Returns t_acc = max(T_MIN, t)
    for the smallest t with P[Binomial(n, p_c) >= t] <= ALPHA. Depends only
    on the extent of y, so it is unchanged by a shift, and by a similarity
    rescale that rescales H with it.
    """
    n, H = m.n, cfg.H
    p_c = (math.pi if m.dim == 2 else 4.0 / 3.0 * math.pi) * padded_box_fraction(m, H, H)
    if p_c == 0.0:
        # in a 3D box some 1e108 H wide (2D: 1e162) p_c underflows, and
        # log(0) raises: chance explains no support, so t = 1, below T_MIN
        return T_MIN
    log_c, log_p, log_q = math.lgamma(n + 1), math.log(p_c), math.log1p(-p_c)
    cdf, t = 0.0, 0
    # P[X >= t] = 1 - P[X < t]; P[X >= n + 1] = 0 ends the walk at the latest
    while t <= n and 1.0 - cdf > ALPHA:
        log_pmf = log_c - math.lgamma(t + 1) - math.lgamma(n - t + 1)
        cdf += math.exp(log_pmf + t * log_p + (n - t) * log_q)
        t += 1
    return max(T_MIN, t)


def neighbor_sq_dists(pts: FloatArray, idx: IntArray) -> FloatArray:
    """|pts[idx] - pts[:, None]|^2 per (match, neighbor), added up one
    coordinate at a time in the order a sum over the last axis takes, so no
    (n, k, dim) temporary is built and the result is bit-identical."""
    cols = np.ascontiguousarray(pts.T)
    d2 = np.square(cols[0][idx] - cols[0][:, None])
    for col in cols[1:]:
        diff = col[idx] - col[:, None]
        d2 += np.square(diff, out=diff)
    return d2


def control_pool(m: MatchSet, graph: NeighborGraph, cfg: Config, t_acc: int) -> IntArray:
    """The matches a run may draw as controls, ascending.

    A match's score counts its first POOL_COLUMNS source neighbors j
    (columns 1..POOL_COLUMNS of graph.idx) with | |y_j - y_i| - |x_j - x_i| |
    < H; the source distances are the graph's dist, so only the target
    side is computed here. The pool holds the matches scoring at least
    POOL_MIN_SCORE. The threshold never exceeds t_acc - 1: a kept motion's
    control need not keep more neighbors than the motion has other
    inliers. When no match scores enough the pool is every match, the
    uniform draw trial_bound assumes: a small scene whose scale change
    stretches each neighbor distance past H still holds its motion.
    graph holds at least POOL_COLUMNS neighbors (core.N_NEIGHBOR), or every
    other match when n is smaller.
    """
    cols = slice(1, POOL_COLUMNS + 1)
    # a contiguous copy gathers about twice as fast as the strided view
    stretch = np.sqrt(neighbor_sq_dists(m.y, np.ascontiguousarray(graph.idx[:, cols])))
    stretch -= graph.dist[:, cols]
    score = np.count_nonzero(np.abs(stretch) < cfg.H, axis=1)
    pool = np.nonzero(score >= min(POOL_MIN_SCORE, t_acc - 1))[0]
    return pool if pool.size else np.arange(m.n)


def trial_bound(n: int, gamma: float, t_acc: int, p: float) -> float:
    """Trial count needed for confidence p that no findable motion remains.

    t_acc is the run's acceptance threshold, T_MIN or more. A remaining
    motion must have at least t_acc of the n (1 - gamma) unreserved
    matches, so a uniformly drawn control hits one with probability at
    least t_acc / (n - gamma n) per trial; the bound is
    log(1 - p) / log(1 - t_acc / (n - gamma n)). With exactly t_acc
    matches left every one of them is needed, one trial decides, and the
    bound is 0. Caller must ensure n (1 - gamma) >= t_acc.

    ransac_run draws its controls from the control pool, not uniformly:
    wrong matches rarely enter it, so a draw hits a remaining motion's
    pooled matches more often than the uniform premise assumes, and the
    bound is conservative for them. A motion none of whose matches enter
    the pool is never drawn, however many trials the bound allows.
    """
    remaining = n * (1.0 - gamma)
    if remaining <= t_acc:
        return 0.0
    return math.log(1.0 - p) / math.log(1.0 - t_acc / remaining)


def _column_sq_norms(cols: FloatArray) -> FloatArray:
    return np.einsum("ij,ij->j", cols, cols)


def _fit_spatial(terms: tuple, w2: FloatArray):
    """Weighted 3D rotation and scale by SVD of the weighted cross matrix.

    terms = (xr, yr, x2, y2) comes from _spatial_terms: (3, n) relative
    coordinates and their per-match squared norms; w2 holds the squared
    weights. The terms arrive as one value, like the 2D fit's P, so the
    re-weighting loop calls either fit without unpacking arguments.
    R = U V^T from the SVD of M = sum w^2 yr xr^T, with the last column of
    U negated when U and V^T have determinants of opposite sign (both are
    orthogonal, so each determinant is +-1 and a scalar cofactor expansion
    decides it); mu = sqrt(sum w^2 |y|^2 / sum w^2 |x|^2), the ratio of the
    weighted norms. Only M of rank one or less is degenerate: at rank two
    the sign fix picks the one proper rotation, so coplanar points fit.
    The SVD is LAPACK's dgesdd, called directly: U, S and Vt are the bits
    np.linalg.svd returns, at about 40% of its per-call cost, and a failed
    decomposition raises np.linalg.LinAlgError as np.linalg.svd does. The
    finiteness and rank tests read Python floats, not numpy scalars.
    """
    xr, yr, x2, y2 = terms
    M = (yr * w2) @ xr.T
    sxx = float(x2 @ w2)
    syy = float(y2 @ w2)
    if not all(map(math.isfinite, M.ravel().tolist() + [sxx, syy])):
        raise DegenerateGeometryError("non-finite weighted cross matrix")
    U, S, Vt, info = lapack.dgesdd(M)
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    s0, s1, _ = S.tolist()
    if s0 <= 0.0 or s1 <= RANK_TOL * s0:
        raise DegenerateGeometryError("weighted points are collinear through the control")
    if small_det(U) * small_det(Vt) < 0.0:
        U[:, -1] = -U[:, -1]
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateGeometryError("weighted points collapse onto the control")
    return U @ Vt, math.sqrt(syy / sxx)


def _spatial_relative(m: MatchSet, o: int):
    """Every match relative to match o, coordinate-major: C-contiguous
    (3, n) arrays, so every per-round pass runs over long contiguous rows."""
    return np.subtract(m.x.T, m.x[o][:, None], order="C"), np.subtract(m.y.T, m.y[o][:, None], order="C")


def _spatial_terms(xr: FloatArray, yr: FloatArray) -> tuple:
    return xr, yr, _column_sq_norms(xr), _column_sq_norms(yr)


def _spatial_residuals(rel: tuple, R: FloatArray, mu: float) -> FloatArray:
    """|yr - mu R xr| per match, with rel = (xr, yr) from _spatial_relative."""
    xr, yr = rel
    return np.sqrt(_column_sq_norms(yr - mu * (R @ xr)))


def _planar_relative(m: MatchSet, o: int):
    """Every match relative to match o, as complex numbers p_0 + i p_1."""
    zx, zy = m.x.view(np.complex128)[:, 0], m.y.view(np.complex128)[:, 0]
    return zx - zx[o], zy - zy[o]


def _planar_products(zx: np.ndarray, zy: np.ndarray) -> FloatArray:
    """Per-match terms of the 2D fit, one row each: Re and Im of conj(zx) zy,
    Re and Im of zx zy, |zx|^2 and |zy|^2. A fit under weights w needs only
    their weighted sums, the product of this matrix with w^2. The rows are
    filled in place through one complex buffer, each by the elementwise
    operations its formula names (one complex product, or two squares and
    a sum), so no row depends on how the matrix is assembled."""
    P = np.empty((6, zx.shape[0]))
    prod = np.conjugate(zx) * zy
    P[0] = prod.real
    P[1] = prod.imag
    np.multiply(zx, zy, out=prod)
    P[2] = prod.real
    P[3] = prod.imag
    for row, z in ((4, zx), (5, zy)):
        np.multiply(z.real, z.real, out=P[row])
        np.multiply(z.imag, z.imag, out=prod.real)
        P[row] += prod.real
    return P


def _fit_planar(P: FloatArray, w2: FloatArray) -> tuple[complex, float]:
    """Closed-form weighted rotation and scale in 2D (Umeyama, TPAMI 1991).

    P comes from _planar_products and w2 holds the squared weights. With
    alpha = sum w^2 conj(zx) zy and beta = sum w^2 zx zy, the weighted 2x2
    cross matrix splits into a rotation part of size |alpha| and a
    reflection part of size |beta|, so its singular values are
    (|alpha| + |beta|) / 2 and ||alpha| - |beta|| / 2 and the best proper
    rotation is alpha / |alpha|. Returns that rotation as a unit complex
    number u and mu = sqrt(sum w^2 |y|^2 / sum w^2 |x|^2). Unlike in 3D, a
    rank-one cross matrix is no degeneracy: one non-zero relative vector
    already fixes a plane rotation, so points collinear through the control
    fit. Only a cross matrix without a rotation part (|alpha| at most
    RANK_TOL of |alpha| + |beta|), which prefers no rotation, or points
    collapsed onto the control are degenerate.
    """
    s = (P @ w2).tolist()
    if not all(map(math.isfinite, s)):
        raise DegenerateGeometryError("non-finite weighted cross matrix")
    ar, ai, br, bi, sxx, syy = s
    rot = math.hypot(ar, ai)
    ref = math.hypot(br, bi)
    if rot <= RANK_TOL * (rot + ref):
        raise DegenerateGeometryError("weighted points fit no rotation")
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateGeometryError("weighted points collapse onto the control")
    return complex(ar / rot, ai / rot), math.sqrt(syy / sxx)


def _planar_residuals(rel: tuple, u: complex, mu: float) -> FloatArray:
    """|zy - (mu u) zx| per match in one buffer, with rel = (zx, zy) from
    _planar_relative; (mu u) zx is the operand order every fit has used
    (zx (mu u) changes bits)."""
    zx, zy = rel
    t = (mu * u) * zx
    return np.abs(np.subtract(zy, t, out=t))


def _parts(dim: int):
    """The four parts of a fit in dim dimensions: positions relative to
    the control, per-match fit terms built once per control, the weighted
    fit (rotation, mu) from w^2, and residuals under a fit."""
    if dim == 2:
        return _planar_relative, _planar_products, _fit_planar, _planar_residuals
    return _spatial_relative, _spatial_terms, _fit_spatial, _spatial_residuals


def _rotation_matrix(dim: int, rot) -> FloatArray:
    """A fit's rotation as a matrix: 2D fits give a unit complex number."""
    return rot if dim == 3 else np.array([[rot.real, -rot.imag], [rot.imag, rot.real]])


def weighted_rigid_fit(m: MatchSet, o: int, w: FloatArray):
    """Fit (R, mu) of y - y_o = mu R (x - x_o) under per-match weights.

    Returns the rotation matrix and scale. Weights must be non-negative
    with a positive sum. Raises DegenerateGeometryError when the weighted
    geometry cannot pin down a rotation. It runs the same parts as one
    round of reweight_fit: 2D fits are closed form, 3D fits use the SVD
    with its rank rule.
    """
    if m.n < 2:
        raise ValueError("need at least two matches")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (m.n,) or (w < 0.0).any() or not (w > 0.0).any():
        raise ValueError("weights must be non-negative with a positive sum")
    relative, terms, fit, _ = _parts(m.dim)
    rot, mu = fit(terms(*relative(m, o)), w * w)
    return _rotation_matrix(m.dim, rot), mu


def reweight_fit(m: MatchSet, o: int, cfg: Config):
    """Alternate rigid fits and residual re-weighting around control o.

    Runs N_REWEIGHT_ITERS rounds from uniform weights; after each fit the
    weights become w_i = min(H / d_i, 1) with d_i the residual of match i
    (weight 1 at zero residual), so matches the current fit explains keep
    full influence and distant ones fade as 1 / d. The loop is the same in
    2D and 3D; only its four parts differ (see _parts). 2D runs on complex numbers: the
    per-match products are built once, each round is one weighted sum plus
    the closed-form fit, and the residuals are |zy - mu u zx| over relative
    coordinates. 3D runs on (3, n) relative coordinates: each round is the
    weighted cross matrix, its SVD and the residuals |yr - mu R xr|; only a
    cross matrix of rank one or less is degenerate, so coplanar sources fit.

    Returns ((R, t, mu), d, w): the motion in y = mu (R x + t) form with
    t recovered as y_o / mu - R x_o, residuals d over all matches under
    the final fit, and the final weights.
    """
    relative, terms, fit, residuals = _parts(m.dim)
    rel = relative(m, o)
    fit_terms = terms(*rel)
    w = np.ones(m.n)
    for _ in range(N_REWEIGHT_ITERS):
        rot, mu = fit(fit_terms, w * w)
        d = residuals(rel, rot, mu)
        # bit-identical to min(H / d, 1), and 1 at d = 0
        w = cfg.H / np.maximum(d, cfg.H)
    R = _rotation_matrix(m.dim, rot)
    return (R, m.y[o] / mu - R @ m.x[o], mu), d, w


def ransac_run(m: MatchSet, cfg: Config) -> RansacOutcome:
    """Extract locally rigid motions until the confidence bound is met.

    The run first builds its one kNN graph (core.build_neighbors) and opens
    the control pool from it (control_pool): the matches that keep their
    distances to at least two of their 16 nearest source neighbors, or
    every match when none does.
    Controls are drawn uniformly from pooled matches that no accepted
    hypothesis covers yet, and each control is tried at most once (a trial
    is deterministic in the control, so retrying one is pointless), so a
    run makes at most pool <= n trials. Each trial fits on all n matches,
    and its motion is kept when at least
    t_acc = acceptance_threshold(m, cfg) matches fall within H of it:
    T_MIN, or more when a random motion would catch T_MIN wrong matches
    too often. The run stops when fewer than t_acc matches remain
    unreserved, when no untried control is left, or when the trial count
    exceeds the bound for t_acc at confidence RANSAC_P, re-evaluated with
    the current gamma before every trial.

    At the end of the run one batched dq8_from_rt call turns the kept
    motions into the dualquat rows EM seeds from. The outcome records the
    pool size and carries the graph; run_em on the same match set blends
    over it and queries no kd-tree. Fewer than T_MIN matches raise
    DegenerateGeometryError. With nothing but outliers the outcome is
    empty: no hypotheses and gamma = 0.
    """
    n = m.n
    if n < T_MIN:
        raise DegenerateGeometryError(f"{n} matches cannot support a hypothesis, which needs {T_MIN}")
    graph = build_neighbors(m)
    t_acc = acceptance_threshold(m, cfg)
    rng = make_rng(cfg.seed)
    inlier_mask = np.zeros(n, dtype=bool)
    # the open controls, pooled matches neither reserved by a hypothesis nor
    # tried yet, in ascending order
    candidates = control_pool(m, graph, cfg, t_acc)
    pool = candidates.size
    n_in = 0
    # (control, R, t, mu, inliers) of every accepted trial
    kept: list[tuple] = []
    # one entry per trial, so its length is the trial count
    gamma_history: list[float] = []
    # the three stopping rules, all on the current gamma
    while (n - n_in >= t_acc and candidates.size
           and len(gamma_history) <= trial_bound(n, n_in / n, t_acc, RANSAC_P)):
        # the same draw as rng.choice(candidates), without its overhead
        j = int(rng.integers(candidates.size))
        o = int(candidates[j])
        candidates = np.concatenate((candidates[:j], candidates[j + 1 :]))
        try:
            (R, t, mu), d, _ = reweight_fit(m, o, cfg)
        except DegenerateGeometryError:
            pass
        else:
            inl = np.nonzero(d < cfg.H)[0]
            if inl.size >= t_acc:
                kept.append((o, R, t, mu, np.asarray(inl, dtype=np.int64)))
                new = inl[~inlier_mask[inl]]
                inlier_mask[new] = True
                n_in += new.size
                candidates = candidates[~inlier_mask[candidates]]
        gamma_history.append(n_in / n)
    hyps = ()
    if kept:
        controls, Rs, ts, mus, inliers = zip(*kept)
        # a stack gives each motion its own 8-vector bit for bit
        dqs = dq8_from_rt(np.stack(Rs), np.stack(ts))
        dqs.setflags(write=False)
        hyps = tuple(map(TransformHypothesis, controls, dqs, mus, inliers))
    return RansacOutcome(hypotheses=hyps, n=n, gamma_history=tuple(gamma_history),
                         pool=pool, graph=graph)


def labels_from_outcome(m: MatchSet, outcome: RansacOutcome) -> LabelResult:
    """Hard labels straight from the RANSAC cover, for baselines and reports.

    A match is an inlier iff some hypothesis covers it. Posterior is 1 or 0;
    residual is the distance to the prediction of the match's owner (see
    RansacOutcome.owner), and for an uncovered match its smallest distance
    to any found motion (infinity with no hypotheses at all). An outcome of
    another match count raises ValueError.
    """
    owner = outcome.owner_for(m)
    # one residual row per motion, then an all-inf row: owner -1 picks it,
    # and without motions it leaves the minimum infinite
    d = np.array([np.linalg.norm(m.y - dq8_apply(h.dq, h.mu, m.x), axis=1)
                  for h in outcome.hypotheses] + [np.full(m.n, np.inf)])
    inlier = owner >= 0
    residual = np.where(inlier, d[owner, np.arange(m.n)], d.min(axis=0))
    return LabelResult(inlier=inlier, posterior=inlier.astype(np.float64), residual=residual)
