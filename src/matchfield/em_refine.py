"""EM refinement of match labels over a blended deformation field.

The RANSAC stage leaves a set of locally rigid motions, each explaining a
patch of matches and each already a unit dual quaternion with a scale. This
module melts them into one smooth field: every match carries its own scaled
motion g_i = (q_i, mu_i), seeded from the motion that covers it, the field
at a match is the distance-weighted blend of its neighbors' motions, and an
EM loop alternates between re-estimating the field (M-step) and re-scoring
how likely each match is to be an inlier under a Gaussian-plus-uniform
mixture (E-step). Outliers lose influence through their posterior, so the
field they would drag along snaps to the consensus of their surroundings
instead.

State is kept in flat arrays: qs holds one unit dual quaternion per match
as a row of 8, mus and p are per-match scale and posterior. blend_neighbors
is the one blending step of the field and owns its one weight rule, a
source-side Gaussian of radius r times the neighbor's posterior; the
M-step and the dense field queries in field.py both call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ransac
from .core import (
    BoolArray,
    Config,
    FloatArray,
    IntArray,
    LabelResult,
    MatchSet,
    NeighborGraph,
    build_neighbors,
)
from .dualquat import (
    dq8_apply,
    dq8_blend,
    dq8_identity,
    dq8_translate_after,
)
from .ransac import RansacOutcome

# running floor on sigma, as a fraction of H; keeps the Gaussian likelihood
# finite when the field explains every inlier almost exactly
SIGMA_FLOOR_FACTOR = 1e-3
# floor on the initial sigma estimated from the seeding residuals
SIGMA_INIT_FLOOR_FACTOR = 0.1
# the inlier fraction prior is clamped here and then held fixed
GAMMA_MIN = 0.05
GAMMA_MAX = 0.95
# EM iteration cap. Runs stop on theta long before it: after at most 15
# iterations on synthetic scenes at 30-97% outliers
MAX_EM_ITERS = 50


@dataclass
class EmState:
    """Mutable EM iteration state.

    Steps read the previous arrays and assign fresh ones (double-buffered),
    so a state is never observed half-updated. p starts as the raw support
    counts of the seeding hypotheses and becomes a proper posterior
    in [0, 1] after the first e_step. field_at_x caches f(x_i).
    """

    qs: FloatArray
    mus: FloatArray
    p: FloatArray
    sigma: float
    gamma: float
    graph: NeighborGraph
    field_at_x: FloatArray
    isolated: BoolArray
    converged: bool = False
    n_iters: int = 0
    delta_history: list = field(default_factory=list)


def init_from_hypotheses(m: MatchSet, outcome: RansacOutcome, cfg: Config) -> EmState:
    """Seed per-match motions from the RANSAC cover.

    Each covered match adopts the motion of its owner (RansacOutcome.owner:
    the covering hypothesis with the largest support, the earliest one
    among equal supports), its dual quaternion and scale as they are, and
    that support count as its (unnormalized) starting weight.
    Uncovered matches start at the identity with scale 1 and weight 0, so
    they pull no blend until the first E-step scores them. sigma starts at
    the RMS seeding residual of covered matches, floored at H / 10; the
    inlier prior gamma is the RANSAC cover fraction clamped to
    [0.05, 0.95] and stays fixed for the whole EM run.

    The state reads the first min(N_neighbor, n - 1) + 1 columns of the
    outcome's graph as views when build_neighbors built it on this very
    match set (identity, as matches are immutable) at least that wide,
    whatever cfg.r is. They hold what build_neighbors(m, cfg) finds, up
    to which of the sources tied at one distance come first. A hand-made,
    foreign, too narrow or missing graph is replaced by that build.

    An empty outcome is legal and yields the all-identity, all-zero-weight,
    gamma = 0.05 state. An outcome of another match count raises
    ValueError.
    """
    owner = outcome.owner_for(m)
    n = m.n
    k = min(cfg.N_neighbor, n - 1) + 1
    g = outcome.graph
    if g is None or g.matches is not m or g.idx.shape[1] < k:
        g = build_neighbors(m, cfg)
    graph = NeighborGraph(idx=g.idx[:, :k], dist=g.dist[:, :k], matches=m)
    qs = dq8_identity(n)
    mus = np.ones(n)
    p = np.zeros(n)
    hyps = outcome.hypotheses
    covered = owner >= 0
    if hyps:
        win = owner[covered]
        qs[covered] = np.stack([h.dq for h in hyps])[win]
        mus[covered] = np.array([h.mu for h in hyps])[win]
        p[covered] = np.array([h.support for h in hyps])[win]
    field_at_x = dq8_apply(qs, mus, m.x)
    resid = np.linalg.norm(m.y - field_at_x, axis=1)
    floor = SIGMA_INIT_FLOOR_FACTOR * cfg.H
    if covered.any():
        sigma = max(float(np.sqrt(np.mean(resid[covered] ** 2))), floor)
    else:
        sigma = floor
    gamma = float(np.clip(outcome.gamma, GAMMA_MIN, GAMMA_MAX))
    return EmState(
        qs=qs,
        mus=mus,
        p=p,
        sigma=sigma,
        gamma=gamma,
        graph=graph,
        field_at_x=field_at_x,
        isolated=~covered,
    )


def blend_neighbors(dist: FloatArray, p: FloatArray, qs: FloatArray, mus: FloatArray,
                    idx: IntArray, r: float):
    """Blend each row's neighbor motions (qs[idx], mus[idx]) under the one
    weight rule of the field, w = exp(-dist^2 / 2 r^2) * p.

    dist holds the (rows, k) source distances to the neighbors idx and p
    their posteriors, both non-negative. Each row of weights is divided by
    its sum before blending: a row of tiny but positive weights (sums near
    1e-224 occur) would otherwise give a blended quaternion whose squared
    norm underflows to 0 and normalizes to inf/NaN. Returns (qbar, mubar,
    wsum) with the raw row sums; rows whose weights sum to 0 come back as
    NaN motions of scale 0, for the caller to replace.
    """
    w = np.exp(-(dist * dist) / (2.0 * r * r)) * p
    # dq8_blend is looked up in this module, so a wrapper on
    # em_refine.dq8_blend sees every blend of EM and of field queries
    with np.errstate(invalid="ignore", divide="ignore"):
        wsum = w.sum(axis=1)
        w = w / np.where(wsum > 0.0, wsum, 1.0)[:, None]
        # np.take would copy a read-only idx (the kNN graph's) to index with it
        mubar = (w * mus[idx]).sum(axis=1)
        qbar = dq8_blend(w, qs, idx=idx)
    return qbar, mubar, wsum


def m_step(state: EmState, m: MatchSet, cfg: Config, update_sigma: bool = True) -> FloatArray:
    """Re-estimate the field, the noise level, and the per-match motions.

    For every match the neighbor motions are blended with weights
    w_j = exp(-|x_i - x_j|^2 / 2 r^2) * p_j (blend_neighbors), giving the
    smoothed motion (q_bar_i, mu_bar_i) and the field value f(x_i).
    sigma^2 becomes the posterior-weighted mean squared field residual
    (floored). Each blended motion is then nudged by
    the pure translation (y_i - f(x_i)) / mu_bar_i so the stored g_i maps
    x_i exactly onto y_i again; smoothness of the field lives in the blend,
    exactness of the per-match motions in this correction.

    update_sigma=False skips the noise re-estimate; the very first blend
    runs that way because its weights are still raw support counts, not
    posteriors, and the seed-residual sigma must survive until the first
    posterior pass has scored the matches.

    Matches whose neighbor weights vanish entirely keep their previous
    motion and their previous field value, and are flagged isolated: after
    an earlier correction that motion maps x_i exactly onto y_i, so the
    field there would claim a zero residual for a match nothing supports.
    Returns the new field values.
    """
    g = state.graph
    qbar, mubar, wsum = blend_neighbors(g.dist, state.p[g.idx], state.qs, state.mus, g.idx, cfg.r)
    active = wsum > 0.0
    qbar = np.where(active[:, None], qbar, state.qs)
    mubar = np.where(active, mubar, state.mus)
    f = dq8_apply(qbar, mubar, m.x)
    delta = (m.y - f) / mubar[:, None]
    q_new = np.where(active[:, None], dq8_translate_after(qbar, delta), state.qs)
    f = np.where(active[:, None], f, state.field_at_x)

    sigma = state.sigma
    psum = float(state.p.sum())
    if update_sigma and psum > 0.0:
        resid2 = np.sum((m.y - f) ** 2, axis=1)
        sigma = float(np.sqrt(np.dot(state.p, resid2) / psum))

    state.qs = q_new
    state.mus = mubar
    state.sigma = max(sigma, SIGMA_FLOOR_FACTOR * cfg.H)
    state.field_at_x = f
    state.isolated = ~active
    return f


def e_step(state: EmState, m: MatchSet, cfg: Config) -> FloatArray:
    """Posterior inlier probabilities under the current field.

    Each match is scored by the Gaussian likelihood of its field residual,
    G_i = exp(-|y_i - f(x_i)|^2 / 2 sigma^2), against a uniform outlier
    density a, mixed by the fixed inlier prior gamma:
    p_i = G_i / (G_i + 2 pi sigma^2 a (1 - gamma) / gamma). Returns the
    posteriors, which always lie in [0, 1].
    """
    resid2 = np.sum((m.y - state.field_at_x) ** 2, axis=1)
    s2 = state.sigma * state.sigma
    G = np.exp(-resid2 / (2.0 * s2))
    c = 2.0 * np.pi * s2 * cfg.a * (1.0 - state.gamma) / state.gamma
    p = G / (G + c)
    state.p = p
    return p


def run_em(m: MatchSet, outcome: RansacOutcome, cfg: Config) -> tuple[LabelResult, EmState]:
    """Full EM loop from a RANSAC outcome to final labels.

    The M-step runs first so the seeded motions are blended into an actual
    field before any posterior is computed; that opening blend keeps the
    seed-residual sigma (support counts are not posteriors yet) so the first
    posterior pass can still tell field-consistent matches from strays.
    Iterations stop when the mean absolute posterior change drops below
    theta, or at MAX_EM_ITERS with the converged flag left false. A match
    ends up an inlier when its final posterior exceeds p_min and its field
    residual stays below H. The kNN graph is the leading N_neighbor columns
    of the one RANSAC built on the same matches, carried on the outcome, or
    a fresh build (see init_from_hypotheses).
    """
    state = init_from_hypotheses(m, outcome, cfg)
    p_prev: FloatArray | None = None
    for it in range(1, MAX_EM_ITERS + 1):
        m_step(state, m, cfg, update_sigma=it > 1)
        p = e_step(state, m, cfg)
        state.n_iters = it
        if p_prev is not None:
            delta = float(np.mean(np.abs(p - p_prev)))
            state.delta_history.append(delta)
            if delta < cfg.theta:
                state.converged = True
                break
        p_prev = p
    residual = np.linalg.norm(m.y - state.field_at_x, axis=1)
    inlier = (state.p > cfg.p_min) & (residual < cfg.H)
    labels = LabelResult(inlier=inlier, posterior=state.p, residual=residual)
    return labels, state


def filter_and_refine(m: MatchSet, cfg: Config) -> tuple[LabelResult, EmState, RansacOutcome]:
    """The pipeline: RANSAC cover, then EM refinement.

    Both stages are looked up as module attributes at call time, so a
    wrapper installed on ransac.ransac_run or em_refine.run_em sees every
    run.
    """
    outcome = ransac.ransac_run(m, cfg)
    labels, state = run_em(m, outcome, cfg)
    return labels, state, outcome
