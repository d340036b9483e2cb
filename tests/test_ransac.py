import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from matchfield import ransac
from matchfield.core import (
    Config,
    DegenerateGeometryError,
    MatchSet,
    build_neighbors,
    make_rng,
    scale_estimate,
)
from matchfield.dualquat import dq8_apply, dq8_from_rt
from matchfield.em_refine import filter_and_refine
from matchfield.io_eval import SynthSpec, synth_generate
from matchfield.ransac import (
    ALPHA,
    RANK_TOL,
    T_MIN,
    RansacOutcome,
    TransformHypothesis,
    acceptance_threshold,
    labels_from_outcome,
    ransac_run,
    reweight_fit,
    trial_bound,
    weighted_rigid_fit,
)

from test_em_refine import graph_bytes


def svd_reference_fit(xr, yr, w):
    """The SVD fit of the weighted cross matrix, the reference for the 2D
    closed form and the coordinate-major 3D fit: R = U V^T with the last
    column of U negated when the determinant is negative, mu the ratio of
    the weighted norms. 3D rejects a rank-deficient cross matrix. A 2D
    cross matrix of rank one still has a unique best rotation; 2D rejects
    only a cross matrix without a rotation part, whose size is
    (S[0] + S[1]) / 2 without and (S[0] - S[1]) / 2 with the flip."""
    Xw = xr * w[:, None]
    Yw = yr * w[:, None]
    M = Yw.T @ Xw
    if not np.isfinite(M).all():
        raise DegenerateGeometryError("non-finite")
    U, S, Vt = np.linalg.svd(M)
    flip = np.linalg.det(U) * np.linalg.det(Vt) < 0.0
    if S[0] <= 0.0:
        raise DegenerateGeometryError("zero")
    if len(S) == 2 and S[0] + (-S[1] if flip else S[1]) <= 2.0 * RANK_TOL * S[0]:
        raise DegenerateGeometryError("no rotation part")
    if len(S) == 3 and S[1] <= RANK_TOL * S[0]:
        raise DegenerateGeometryError("rank")
    if flip:
        U = U.copy()
        U[:, -1] = -U[:, -1]
    nx = float(np.linalg.norm(Xw))
    ny = float(np.linalg.norm(Yw))
    if nx == 0.0 or ny == 0.0:
        raise DegenerateGeometryError("collapsed")
    return U @ Vt, ny / nx


def svd_reference_reweight(m, o, cfg):
    """reweight_fit's loop on the SVD reference fit; returns (R, mu, d, w)."""
    xr = m.x - m.x[o]
    yr = m.y - m.y[o]
    w = np.ones(xr.shape[0])
    for _ in range(ransac.N_REWEIGHT_ITERS):
        R, mu = svd_reference_fit(xr, yr, w)
        d = np.linalg.norm(yr - mu * (xr @ R.T), axis=1)
        with np.errstate(divide="ignore"):
            w = np.where(d > 0.0, np.minimum(cfg.H / d, 1.0), 1.0)
    return R, mu, d, w


def random_weighted_planar_set(rng, n):
    """Anisotropic noisy 2D similarity, reflected in y half of the time,
    with weights spread log-uniformly over 1e-6..1."""
    x = rng.normal(size=(n, 2)) * rng.uniform(0.1, 100.0, size=2) + rng.uniform(-500.0, 500.0, size=2)
    ang = rng.uniform(-np.pi, np.pi)
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    y = rng.uniform(0.2, 5.0) * x @ R.T + rng.normal(scale=rng.uniform(0.0, 30.0), size=(n, 2))
    if rng.uniform() < 0.5:
        y[:, 1] = -y[:, 1]
    w = 10.0 ** rng.uniform(-6.0, 0.0, size=n)
    return MatchSet.from_points(x, y), w


def random_rotation_3d(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_weighted_spatial_set(rng, n):
    """Anisotropic noisy 3D similarity, reflected in y[:, 2] half of the
    time, with weights spread log-uniformly over 1e-6..1."""
    x = rng.normal(size=(n, 3)) * rng.uniform(0.1, 100.0, size=3) + rng.uniform(-500.0, 500.0, size=3)
    R = random_rotation_3d(rng)
    y = rng.uniform(0.2, 5.0) * x @ R.T + rng.normal(scale=rng.uniform(0.0, 30.0), size=(n, 3))
    if rng.uniform() < 0.5:
        y[:, 2] = -y[:, 2]
    w = 10.0 ** rng.uniform(-6.0, 0.0, size=n)
    return MatchSet.from_points(x, y), w


def test_closed_form_matches_svd_reference():
    rng = make_rng(31)
    for make_set in (random_weighted_planar_set, random_weighted_spatial_set):
        fitted = 0
        for _ in range(300):
            n = int(rng.integers(2, 60))
            m, w = make_set(rng, n)
            o = int(rng.integers(n))
            try:
                R_ref, mu_ref = svd_reference_fit(m.x - m.x[o], m.y - m.y[o], w)
            except DegenerateGeometryError:
                with pytest.raises(DegenerateGeometryError):
                    weighted_rigid_fit(m, o, w)
                continue
            R_fit, mu_fit = weighted_rigid_fit(m, o, w)
            assert np.abs(R_fit - R_ref).max() < 1e-9
            assert abs(mu_fit - mu_ref) <= 1e-9 * mu_ref
            fitted += 1
        assert fitted > 250


def test_closed_form_and_svd_reference_agree_on_degenerate_input():
    line = np.stack([np.arange(6.0), 2.0 * np.arange(6.0) + 3.0], axis=1)
    ang = 0.3
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    rng = make_rng(32)
    line3 = np.arange(6.0)[:, None] * np.array([[1.0, 2.0, -0.5]]) + np.array([[3.0, -1.0, 7.0]])
    R3 = random_rotation_3d(make_rng(35))
    # a 2D line through the control fixes the rotation: both fits recover it
    m = MatchSet.from_points(line, 1.5 * line @ R.T + 4.0)
    w = rng.uniform(0.5, 1.0, size=m.n)
    for R_fit, mu_fit in (svd_reference_fit(m.x - m.x[0], m.y - m.y[0], w),
                          weighted_rigid_fit(m, 0, w)):
        assert np.abs(R_fit - R).max() < 1e-12
        assert abs(mu_fit - 1.5) < 1e-12
    cases = {
        "no rotation part": (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                             np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0]])),
        "collapsed": (np.ones((6, 2)), np.ones((6, 2))),
        "non-finite": (rng.normal(size=(6, 2)), rng.normal(size=(6, 2))),
        "collinear 3d": (line3, 1.5 * line3 @ R3.T + 4.0),
        "collapsed 3d": (np.ones((6, 3)), np.ones((6, 3))),
        "non-finite 3d": (rng.normal(size=(6, 3)), rng.normal(size=(6, 3))),
    }
    for name, (x, y) in cases.items():
        m = MatchSet.from_points(x, y)
        # equal weights keep the mirrored pair's rotation parts cancelling
        w = np.ones(m.n) if name == "no rotation part" else rng.uniform(0.5, 1.0, size=m.n)
        if name.startswith("non-finite"):
            # MatchSet bounds the coordinates, so huge weights overflow the sums
            w = 1e200 * w
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateGeometryError):
                svd_reference_fit(m.x - m.x[0], m.y - m.y[0], w)
            with pytest.raises(DegenerateGeometryError):
                weighted_rigid_fit(m, 0, w)


def surface_scene_3d(n, outlier_ratio, seed):
    """The 3D acceptance-scene construction: a smooth low-noise surface."""
    spec = SynthSpec(
        n=n,
        dim=3,
        outlier_ratio=outlier_ratio,
        n_anchors=3,
        max_rotation=0.05,
        max_scale_jitter=0.02,
        noise_sigma=0.05,
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
        seed=seed,
    )
    return synth_generate(spec)


def test_reweight_fit_matches_svd_reference():
    scenes = (
        synth_generate(SynthSpec(n=1000, outlier_ratio=0.5, seed=33))[0],
        surface_scene_3d(1784, 0.61, seed=37)[0],
    )
    for m in scenes:
        cfg = Config.for_matches(m)
        for o in range(0, m.n, 50):
            R_ref, mu_ref, d_ref, w_ref = svd_reference_reweight(m, o, cfg)
            (R, _, mu), d, w = reweight_fit(m, o, cfg)
            assert np.abs(R - R_ref).max() < 1e-9
            assert abs(mu - mu_ref) <= 1e-9 * mu_ref
            assert np.abs(d - d_ref).max() < 1e-8
            assert np.abs(w - w_ref).max() < 1e-9


@pytest.mark.parametrize("dim", [2, 3])
def test_hypotheses_score_every_match(dim):
    # each trial fits on all n matches, and each hypothesis takes its
    # inliers from the residuals of every match under that fit
    if dim == 2:
        m = synth_generate(SynthSpec(n=3000, outlier_ratio=0.5, seed=7))[0]
    else:
        m = surface_scene_3d(629, 0.24, seed=38)[0]
    cfg = Config.for_matches(m, seed=7)
    out = ransac_run(m, cfg)
    assert out.hypotheses
    for h in out.hypotheses[:5]:
        _, _, d_ref, _ = svd_reference_reweight(m, h.control, cfg)
        assert np.array_equal(h.inliers, np.nonzero(d_ref < cfg.H)[0])


def similarity_scene(rng, n, dim, mu=1.3):
    ang = 0.7
    if dim == 2:
        R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    else:
        c, s = math.cos(ang), math.sin(ang)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    t = rng.uniform(-5.0, 5.0, size=dim)
    x = rng.uniform(0.0, 100.0, size=(n, dim))
    y = mu * (x @ R.T + t)
    return MatchSet.from_points(x, y), R, t, mu


def test_weighted_fit_recovers_exact_rotation():
    rng = make_rng(21)
    for dim in (2, 3):
        for _ in range(10):
            m, R, t, mu = similarity_scene(rng, 40, dim)
            R_fit, mu_fit = weighted_rigid_fit(m, 0, np.ones(m.n))
            assert np.abs(R_fit - R).max() < 1e-6
            assert abs(mu_fit - mu) < 1e-6


def test_weighted_fit_ignores_zero_weight_strays():
    rng = make_rng(22)
    m, R, t, mu = similarity_scene(rng, 30, 2)
    y = m.y.copy()
    y[:5] += 300.0
    w = np.ones(30)
    w[:5] = 0.0
    R_fit, mu_fit = weighted_rigid_fit(MatchSet.from_points(m.x, y), 10, w)
    assert np.abs(R_fit - R).max() < 1e-6
    assert abs(mu_fit - mu) < 1e-6


def test_weighted_fit_input_validation():
    m = MatchSet.from_points([[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(ValueError):
        weighted_rigid_fit(m, 0, np.ones(1))
    m2 = MatchSet.from_points([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        weighted_rigid_fit(m2, 0, -np.ones(2))
    with pytest.raises(ValueError):
        weighted_rigid_fit(m2, 0, np.zeros(2))


def test_weighted_fit_degenerate_geometry():
    # collinear points through the control still pin a 2D rotation
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    R_fit, mu_fit = weighted_rigid_fit(MatchSet.from_points(x, x), 0, np.ones(4))
    assert np.array_equal(R_fit, np.eye(2)) and mu_fit == 1.0
    R90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    R_fit, mu_fit = weighted_rigid_fit(MatchSet.from_points(x, 2.0 * x @ R90.T), 0, np.ones(4))
    assert np.allclose(R_fit, R90, atol=1e-15) and mu_fit == 2.0
    # a 2D cross matrix without a rotation part: the mirror image of a
    # right angle correlates equally with every rotation
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    y = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DegenerateGeometryError):
        weighted_rigid_fit(MatchSet.from_points(x, y), 0, np.ones(3))
    # collinear points through the control pin no 3D rotation
    x3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        weighted_rigid_fit(MatchSet.from_points(x3, x3), 0, np.ones(4))
    # all matches collapsed onto the control
    z = np.zeros((4, 2))
    with pytest.raises(DegenerateGeometryError):
        weighted_rigid_fit(MatchSet.from_points(z, z), 0, np.ones(4))


def test_weighted_fit_recovers_rotation_on_coplanar_points():
    # sources exactly on z = 0 give a rank-2 cross matrix, which still has a
    # unique best rotation once the determinant is corrected
    rng = make_rng(26)
    for _ in range(10):
        R = random_rotation_3d(rng)
        x = np.column_stack([rng.uniform(0.0, 100.0, size=(40, 2)), np.zeros(40)])
        t = rng.uniform(-5.0, 5.0, size=3)
        m = MatchSet.from_points(x, 1.05 * (x @ R.T + t))
        w = rng.uniform(0.5, 1.0, size=m.n)
        o = int(rng.integers(m.n))
        S = np.linalg.svd((m.y - m.y[o]).T @ (w[:, None] ** 2 * (m.x - m.x[o])), compute_uv=False)
        assert S[2] <= 1e-12 * S[0]
        R_fit, mu_fit = weighted_rigid_fit(m, o, w)
        assert np.abs(R_fit - R).max() < 1e-9
        assert abs(mu_fit - 1.05) < 1e-9
        R_ref, mu_ref = svd_reference_fit(m.x - m.x[o], m.y - m.y[o], w)
        assert np.abs(R_fit - R_ref).max() < 1e-9


def test_collinear_2d_scene_is_one_hypothesis():
    # 200 matches on one line under an exact rotation and translation: the
    # first control's fit explains them all
    s = np.arange(200.0) * 3.0
    x = np.stack([100.0 + 0.8 * s, 50.0 + 0.6 * s], axis=1)
    R = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    m = MatchSet.from_points(x, x @ R.T + np.array([40.0, -25.0]))
    labels, _, outcome = filter_and_refine(m, Config(seed=0))
    assert outcome.trials == 1 and len(outcome.hypotheses) == 1
    assert labels.inlier.all()
    assert labels.residual.max() < 1e-9


def test_reweight_fit_exact_scene():
    rng = make_rng(23)
    m, R, t, mu = similarity_scene(rng, 50, 2)
    cfg = Config()
    (R_fit, t_fit, mu_fit), d, w = reweight_fit(m, 3, cfg)
    assert np.allclose(mu_fit * (m.x @ R_fit.T + t_fit), m.y, atol=1e-6)
    assert d.max() < 1e-6
    assert np.all(w == 1.0)


def test_reweight_fit_weights_match_final_residuals():
    rng = make_rng(24)
    m, R, t, mu = similarity_scene(rng, 60, 2)
    y = m.y.copy()
    y[7] += np.array([200.0, 0.0])
    y[19] += np.array([0.0, -150.0])
    m2 = MatchSet.from_points(m.x, y)
    cfg = Config()
    (R_fit, _, _), d, w = reweight_fit(m2, 0, cfg)
    # final weights are min(H/d, 1) under the final fit, weight 1 at d = 0
    with np.errstate(divide="ignore"):
        want = np.where(d > 0.0, np.minimum(cfg.H / d, 1.0), 1.0)
    assert np.allclose(w, want)
    assert w[7] < 0.2 and w[19] < 0.2
    # the strays barely perturb the recovered motion
    assert np.abs(R_fit - R).max() < 1e-3


def test_trial_bound_hand_value():
    # frozen: log(0.05) / log(1 - 5/50) = 28.4331588...
    b = trial_bound(100, 0.5, 5, 0.95)
    assert np.isclose(b, 28.433158805743414, rtol=0.0, atol=1e-9)
    assert math.ceil(b) == 29
    # tightens as gamma grows
    assert trial_bound(100, 0.6, 5, 0.95) < b
    # exactly T_MIN matches left: one trial decides, so the bound is 0
    assert trial_bound(5, 0.0, 5, 0.95) == 0.0
    assert trial_bound(50, 0.9, 5, 0.95) == 0.0


def exact_acceptance_threshold(n, p_c, t_min):
    """max(t_min, t) for the smallest t with P[Binomial(n, p_c) >= t] <= ALPHA,
    in exact integer arithmetic on the float p_c = a / b: the terms
    C(n, k) a^k (b - a)^(n - k) are b^n times the binomial probabilities."""
    a, b = Fraction(p_c).as_integer_ratio()
    alpha = Fraction(ALPHA)
    total = b**n
    term = (b - a) ** n
    lower, t = 0, 0
    while t <= n and (total - lower) * alpha.denominator > alpha.numerator * total:
        lower += term
        if t < n:
            term = term * (n - t) * a // ((t + 1) * (b - a))
        t += 1
    return max(t_min, t)


def box_targets(n, extent, seed=0):
    """n sources and targets spread over [0, extent], the targets' bounding
    box exactly that: its corners are two of the targets."""
    rng = make_rng(seed)
    extent = np.asarray(extent, dtype=np.float64)
    x = rng.uniform(0.0, 100.0, size=(n, extent.size))
    y = rng.uniform(0.0, 1.0, size=(n, extent.size)) * extent
    y[0], y[1] = 0.0, extent
    return MatchSet.from_points(x, y)


@pytest.mark.parametrize("n, extent, H", [
    (5, (100.0, 100.0), 20.0),
    (50, (100.0, 100.0), 20.0),
    (1000, (800.0, 600.0), 20.0),
    (10000, (800.0, 600.0), 20.0),
    (300, (0.0, 0.0), 20.0),
    (700, (100.0, 100.0, 100.0), 2.0),
    (2000, (100.0, 100.0, 100.0), 10.0),
    (300, (0.0, 0.0, 0.0), 2.0),
], ids=["2d-5", "2d-50", "2d-1000", "2d-10000", "2d-300-collapsed", "3d-700", "3d-2000",
        "3d-300-collapsed"])
def test_acceptance_threshold_is_the_exact_binomial_tail(n, extent, H):
    m = box_targets(n, extent)
    cfg = Config(H=H)
    ball = math.pi * H * H if m.dim == 2 else 4.0 / 3.0 * math.pi * H**3
    p_c = ball / math.prod(e + 2.0 * H for e in extent)
    assert acceptance_threshold(m, cfg) == exact_acceptance_threshold(n, p_c, T_MIN)


@pytest.mark.parametrize("dim", [2, 3])
def test_acceptance_threshold_of_collapsed_targets_is_finite(dim):
    # every target on one point: the padded box keeps p_c at pi / 4 (2D)
    # or pi / 6 (3D), so the threshold is a support chance rarely reaches
    m = collapsed_targets(dim)
    cfg = Config.for_matches(m, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = acceptance_threshold(m, cfg)
    assert isinstance(t, int)
    assert T_MIN < t <= m.n


@pytest.mark.parametrize("dim", [2, 3])
def test_acceptance_threshold_is_shift_and_scale_invariant(dim):
    if dim == 2:
        m = synth_generate(SynthSpec(n=1000, outlier_ratio=0.85, seed=5))[0]
        cfg = Config(seed=5)
    else:
        m = box_targets(2000, (100.0, 100.0, 100.0), seed=5)
        cfg = Config(H=10.0, seed=5)
    t = acceptance_threshold(m, cfg)
    assert t > T_MIN
    shifted = MatchSet.from_points(m.x + 1e6, m.y + 1e6)
    assert acceptance_threshold(shifted, cfg) == t
    for s in (0.37, 250.0):
        scaled = MatchSet.from_points(m.x * s, m.y * s)
        assert acceptance_threshold(scaled, replace(cfg, H=cfg.H * s)) == t


@pytest.mark.parametrize("n, outlier_ratio", [(629, 0.24), (1784, 0.61), (693, 0.84)])
def test_acceptance_threshold_is_t_min_on_3d_acceptance_scenes(n, outlier_ratio):
    # small H against a 100-unit cube: chance explains no T_MIN support, so
    # the 3D runs are the runs without the rule
    for seed in range(5):
        m, _ = surface_scene_3d(n, outlier_ratio, seed)
        cfg = Config.for_matches(m, seed=seed)
        assert acceptance_threshold(m, cfg) == T_MIN


def test_kept_hypotheses_beat_chance():
    # at n = 1000 and 85% outliers the threshold is above T_MIN, and every
    # kept motion reaches it
    m, _ = synth_generate(SynthSpec(n=1000, outlier_ratio=0.85, seed=0))
    cfg = Config(seed=0)
    t_acc = acceptance_threshold(m, cfg)
    assert t_acc > T_MIN
    out = ransac_run(m, cfg)
    assert out.hypotheses
    assert min(h.support for h in out.hypotheses) >= t_acc


def test_ransac_covers_rigid_scene():
    rng = make_rng(26)
    m, R, t, mu = similarity_scene(rng, 100, 2)
    out = ransac_run(m, Config(seed=1))
    assert len(out.hypotheses) >= 1
    assert out.gamma == 1.0
    assert np.array_equal(out.inlier_union, np.arange(100))
    top = max(out.hypotheses, key=lambda h: h.support)
    assert np.abs(top.dq - dq8_from_rt(R, t)).max() < 1e-6
    assert abs(top.mu - mu) < 1e-6


def test_ransac_outcome_bookkeeping():
    m, gt = synth_generate(SynthSpec(n=400, outlier_ratio=0.5, seed=5))
    out = ransac_run(m, Config(seed=5))
    union = out.inlier_union
    assert np.array_equal(union, np.unique(union))
    assert np.isclose(out.gamma, union.size / m.n)
    hist = np.array(out.gamma_history)
    assert len(hist) == out.trials
    assert np.all(np.diff(hist) >= 0.0)
    assert out.trials <= m.n
    controls = [h.control for h in out.hypotheses]
    assert len(controls) == len(set(controls))
    for h in out.hypotheses:
        assert h.support == h.inliers.size >= T_MIN


def test_ransac_is_deterministic():
    m, gt = synth_generate(SynthSpec(n=300, outlier_ratio=0.6, seed=9))
    a = ransac_run(m, Config(seed=3))
    b = ransac_run(m, Config(seed=3))
    assert a.trials == b.trials
    assert np.array_equal(a.inlier_union, b.inlier_union)
    assert [h.control for h in a.hypotheses] == [h.control for h in b.hypotheses]
    c = ransac_run(m, Config(seed=4))
    assert a.trials != c.trials or np.array_equal(a.inlier_union, c.inlier_union)


def test_ransac_covers_deformed_scene_with_local_motions():
    # strong deformation: no single similarity fits, so the cover needs
    # several locally rigid hypotheses
    n_hyps = []
    for seed in range(5):
        m, gt = synth_generate(
            SynthSpec(n=500, outlier_ratio=0.0, noise_sigma=0.0, max_rotation=1.0, seed=seed)
        )
        out = ransac_run(m, Config(seed=seed))
        assert out.gamma >= 0.95
        n_hyps.append(len(out.hypotheses))
    assert max(n_hyps) >= 2


def test_ransac_pure_noise_terminates():
    rng = make_rng(28)
    x = rng.uniform(0.0, 800.0, size=(200, 2))
    y = rng.uniform(0.0, 800.0, size=(200, 2))
    m = MatchSet.from_points(x, y)
    out = ransac_run(m, Config(seed=2))
    assert out.trials <= m.n
    assert out.gamma < 0.5


def test_ransac_rejects_tiny_input():
    m = MatchSet.from_points(np.zeros((3, 2)), np.ones((3, 2)))
    with pytest.raises(DegenerateGeometryError):
        ransac_run(m, Config())


def exact_similarity(n, seed=50):
    """n exact matches under one rotation, scale and translation."""
    rng = make_rng(seed)
    x = rng.uniform(0.0, 100.0, size=(n, 2))
    c, s = math.cos(0.5), math.sin(0.5)
    return MatchSet.from_points(x, 1.1 * x @ np.array([[c, -s], [s, c]]).T + np.array([3.0, -2.0]))


@pytest.mark.parametrize("n", [5, 6])
def test_t_min_and_t_min_plus_one_exact_matches_get_one_trial(n):
    # exact matches under one rotation and scale: the single trial explains
    # all of them, also at n = T_MIN, where the stopping rule must still
    # allow the first draw
    m = exact_similarity(n)
    cfg = Config(seed=0)
    assert T_MIN == 5
    out = ransac_run(m, cfg)
    assert out.trials == 1 and len(out.hypotheses) == 1
    assert np.array_equal(out.inlier_union, np.arange(n))
    labels, _, _ = filter_and_refine(m, cfg)
    assert labels.inlier.all()


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_small_scaled_scene_keeps_every_match(n):
    # n noisy matches under one similarity of scale 1.1 in a 100-unit box:
    # the scale rule's H is below many neighbor stretches, so on some seeds
    # no match scores and the pool falls back to every match. The first
    # trial then covers all n, and EM keeps them
    c, s = math.cos(0.3), math.sin(0.3)
    for seed in range(5):
        rng = make_rng(seed)
        x = rng.uniform(0.0, 100.0, size=(n, 2))
        y = 1.1 * x @ np.array([[c, -s], [s, c]]).T + np.array([10.0, -5.0])
        m = MatchSet.from_points(x, y + rng.normal(0.0, 0.2, size=(n, 2)))
        labels, _, out = filter_and_refine(m, Config.for_matches(m, seed=seed))
        assert out.pool > 0 and out.gamma == 1.0, seed
        assert labels.inlier.all(), seed


def test_labels_from_outcome_rigid_scene():
    rng = make_rng(30)
    m, R, t, mu = similarity_scene(rng, 60, 2)
    cfg = Config(seed=0)
    out = ransac_run(m, cfg)
    labels = labels_from_outcome(m, out)
    assert labels.inlier.all()
    assert labels.residual.max() < 1e-6
    assert set(np.unique(labels.posterior)) <= {0.0, 1.0}


def test_labels_from_empty_outcome():
    m = MatchSet.from_points(np.zeros((4, 2)) + np.arange(4)[:, None], np.ones((4, 2)))
    empty = RansacOutcome(hypotheses=(), n=m.n, gamma_history=())
    labels = labels_from_outcome(m, empty)
    assert not labels.inlier.any()
    assert np.isinf(labels.residual).all()


def reference_labels_from_outcome(m, outcome):
    """labels_from_outcome as first written, the reference for the one
    owner rule: a match's residual moves to a later hypothesis only on
    strictly larger support, and uncovered matches keep their running
    minimum."""
    n = m.n
    inlier = np.zeros(n, dtype=bool)
    best = np.zeros(n, dtype=np.int64)
    residual = np.full(n, np.inf)
    min_d = np.full(n, np.inf)
    for h in outcome.hypotheses:
        d = np.linalg.norm(m.y - dq8_apply(h.dq, h.mu, m.x), axis=1)
        min_d = np.minimum(min_d, d)
        take = np.zeros(n, dtype=bool)
        take[h.inliers] = True
        take &= h.support > best
        residual[take] = d[take]
        best[take] = h.support
        inlier[h.inliers] = True
    residual = np.where(inlier, residual, min_d)
    return inlier, inlier.astype(np.float64), residual


def tied_outcome():
    """Overlapping hypotheses with tied supports over six matches, two of
    them (6 and 7) uncovered."""
    x = np.arange(16.0).reshape(8, 2)
    m = MatchSet.from_points(x, x + 0.5)
    hyps = tuple(
        TransformHypothesis(
            control=int(rows[0]),
            dq=dq8_from_rt(np.eye(2), np.array([float(j), 0.5])),
            mu=1.0,
            inliers=np.array(rows, dtype=np.int64),
        )
        for j, rows in enumerate(([0, 1, 2], [2, 3, 4], [1, 4, 5], [0, 1, 2, 3]))
    )
    return m, RansacOutcome(hyps, n=8, gamma_history=(0.375, 0.625, 0.75, 0.75, 0.75))


def test_owner_is_the_largest_earliest_covering_hypothesis():
    m, out = tied_outcome()
    # support 4 takes matches 0-3; match 4 ties at support 3 between
    # hypotheses 1 and 2 and stays with the earlier one
    assert out.owner.dtype == np.int64 and not out.owner.flags.writeable
    assert out.owner is out.owner
    assert out.owner.tolist() == [3, 3, 3, 3, 1, 2, -1, -1]
    assert out.inlier_union.dtype == np.int64
    assert out.inlier_union.tolist() == [0, 1, 2, 3, 4, 5]
    assert out.gamma == 6 / 8
    assert [h.support for h in out.hypotheses] == [3, 3, 3, 4]
    empty = RansacOutcome(hypotheses=(), n=3, gamma_history=())
    assert empty.owner.tolist() == [-1, -1, -1]
    assert empty.inlier_union.size == 0 and empty.gamma == 0.0


def test_outcome_stores_only_what_the_run_decided():
    assert [f.name for f in fields(TransformHypothesis)] == ["control", "dq", "mu", "inliers"]
    # pool is the control pool's size and graph the kNN graph the pool was
    # read from, which EM reuses; trials is derived, one per gamma entry
    assert [f.name for f in fields(RansacOutcome)] == [
        "hypotheses", "n", "gamma_history", "pool", "graph"]
    assert RansacOutcome(hypotheses=(), n=3, gamma_history=(0.0, 0.0)).trials == 2


@pytest.mark.parametrize("scene", ["2d", "3d", "2d-collapsed-targets"])
def test_kept_motions_are_unit_read_only_and_replay_their_fit(scene, monkeypatch):
    # a kept motion is checked on the run's own output: a unit dual
    # quaternion, read-only, that moves every match as its control's fit
    # does; the run converts all of them in one call, or none
    m = {"2d": lambda: synth_generate(SynthSpec(n=1000, outlier_ratio=0.7, seed=42))[0],
         "3d": lambda: surface_scene_3d(693, 0.84, seed=43)[0],
         "2d-collapsed-targets": lambda: collapsed_targets(2)}[scene]()
    cfg = Config.for_matches(m, seed=42)
    calls, convert = [], ransac.dq8_from_rt

    def counted(R, t):
        calls.append(len(R))
        return convert(R, t)

    monkeypatch.setattr(ransac, "dq8_from_rt", counted)
    out = ransac_run(m, cfg)
    if scene.endswith("collapsed-targets"):
        assert out.hypotheses == () and out.trials > 0 and calls == []
        return
    assert len(out.hypotheses) >= 2 and calls == [len(out.hypotheses)]
    s = scale_estimate(m)
    for h in out.hypotheses:
        real, dual = h.dq[:4], h.dq[4:]
        assert h.dq.shape == (8,) and h.dq.dtype == np.float64
        assert abs(math.sqrt(real @ real) - 1.0) <= 1e-12
        assert abs(real @ dual) <= 1e-12
        assert not h.dq.flags.writeable
        with pytest.raises(ValueError):
            h.dq[0] = 1.0
        (R, t, mu), _, _ = reweight_fit(m, h.control, cfg)
        assert h.mu == mu
        assert np.abs(dq8_apply(h.dq, h.mu, m.x) - mu * (m.x @ R.T + t)).max() <= 1e-9 * s


@pytest.mark.parametrize("scene", ["ties", "2d", "2d-3000", "3d"])
def test_labels_from_outcome_equal_the_reference_loop(scene):
    if scene == "ties":
        m, out = tied_outcome()
        cfg = Config()
    else:
        if scene == "3d":
            m = surface_scene_3d(693, 0.84, seed=43)[0]
        else:
            n = 1000 if scene == "2d" else 3000
            m = synth_generate(SynthSpec(n=n, outlier_ratio=0.7, seed=42))[0]
        cfg = Config.for_matches(m, seed=42)
        out = ransac_run(m, cfg)
        assert len(out.hypotheses) >= 2
    labels = labels_from_outcome(m, out)
    inlier, posterior, residual = reference_labels_from_outcome(m, out)
    assert labels.inlier.tobytes() == inlier.tobytes()
    assert labels.posterior.tobytes() == posterior.tobytes()
    assert labels.residual.tobytes() == residual.tobytes()
    assert np.isfinite(labels.residual).all()


# The trial loop and one-point fits as first written, kept as the reference
# for the lean loop: the 2D products stacked from temporaries, the masks summed and searched
# every trial and controls drawn with rng.choice. Matches outside the
# control pool start out marked as tried. It takes the run's acceptance
# threshold from acceptance_threshold, tested on its own below.


def reference_planar_products(zx, zy):
    rot = zx.conj() * zy
    ref = zx * zy
    return np.stack([rot.real, rot.imag, ref.real, ref.imag,
                     zx.real * zx.real + zx.imag * zx.imag,
                     zy.real * zy.real + zy.imag * zy.imag])


def reference_fit_planar(P, w2):
    s = P @ w2
    if not np.isfinite(s).all():
        raise DegenerateGeometryError("non-finite weighted cross matrix")
    ar, ai, br, bi, sxx, syy = s.tolist()
    rot = math.hypot(ar, ai)
    ref = math.hypot(br, bi)
    if rot <= RANK_TOL * (rot + ref):
        raise DegenerateGeometryError("weighted points fit no rotation")
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateGeometryError("weighted points collapse onto the control")
    return complex(ar / rot, ai / rot), math.sqrt(syy / sxx)


def reference_reweight_planar(m, o, cfg):
    zx = m.x.view(np.complex128)[:, 0]
    zy = m.y.view(np.complex128)[:, 0]
    zx = zx - zx[o]
    zy = zy - zy[o]
    P = reference_planar_products(zx, zy)
    w = np.ones(zx.shape[0])
    for _ in range(ransac.N_REWEIGHT_ITERS):
        u, mu = reference_fit_planar(P, w * w)
        k = mu * u
        d = np.abs(zy - k * zx)
        w = cfg.H / np.maximum(d, cfg.H)
    return np.array([[u.real, -u.imag], [u.imag, u.real]]), mu, d, w


def reference_fit_spatial(xr, yr, x2, y2, w2):
    M = (yr * w2) @ xr.T
    sxx = float(x2 @ w2)
    syy = float(y2 @ w2)
    if not (np.isfinite(M).all() and math.isfinite(sxx) and math.isfinite(syy)):
        raise DegenerateGeometryError("non-finite weighted cross matrix")
    U, S, Vt = np.linalg.svd(M)
    if S[0] <= 0.0 or S[1] <= RANK_TOL * S[0]:
        raise DegenerateGeometryError("weighted points are collinear through the control")
    # both are orthogonal, so each determinant is +-1 and only its sign counts
    if np.linalg.det(U) * np.linalg.det(Vt) < 0.0:
        U[:, -1] = -U[:, -1]
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateGeometryError("weighted points collapse onto the control")
    return U @ Vt, math.sqrt(syy / sxx)


def reference_reweight_spatial(m, o, cfg):
    xr = np.subtract(m.x.T, m.x[o][:, None], order="C")
    yr = np.subtract(m.y.T, m.y[o][:, None], order="C")
    sq = lambda c: np.einsum("ij,ij->j", c, c)
    x2, y2 = sq(xr), sq(yr)
    w = np.ones(xr.shape[1])
    for _ in range(ransac.N_REWEIGHT_ITERS):
        R, mu = reference_fit_spatial(xr, yr, x2, y2, w * w)
        d = np.sqrt(sq(yr - mu * (R @ xr)))
        w = cfg.H / np.maximum(d, cfg.H)
    return R, mu, d, w


def reference_pool(m, cfg, t_acc):
    """Pool membership from the whole (n, k, dim) difference arrays: a match
    is a control candidate when at least min(2, t_acc - 1) of its first 16
    source neighbors (the columns after self in build_neighbors' order)
    change their distance by less than H; every match when none is."""
    idx = build_neighbors(m).idx[:, 1:17]
    dx = np.sqrt(np.sum((m.x[idx] - m.x[:, None, :]) ** 2, axis=-1))
    dy = np.sqrt(np.sum((m.y[idx] - m.y[:, None, :]) ** 2, axis=-1))
    pool = (np.abs(dy - dx) < cfg.H).sum(axis=1) >= min(2, t_acc - 1)
    return pool if pool.any() else np.ones(m.n, dtype=bool)


def reference_run(m, cfg):
    n = m.n
    t_acc = acceptance_threshold(m, cfg)
    rng = make_rng(cfg.seed)
    reweight = reference_reweight_planar if m.dim == 2 else reference_reweight_spatial
    inlier_mask = np.zeros(n, dtype=bool)
    tried = ~reference_pool(m, cfg, t_acc)
    hyps, gamma_history = [], []
    k = 0
    while True:
        n_in = int(inlier_mask.sum())
        gamma = n_in / n
        if n - n_in < t_acc:
            break
        candidates = np.nonzero(~inlier_mask & ~tried)[0]
        if candidates.size == 0:
            break
        if k > trial_bound(n, gamma, t_acc, ransac.RANSAC_P):
            break
        o = int(rng.choice(candidates))
        tried[o] = True
        k += 1
        try:
            R, mu, d, _ = reweight(m, o, cfg)
        except DegenerateGeometryError:
            gamma_history.append(gamma)
            continue
        inl = np.nonzero(d < cfg.H)[0]
        if inl.size >= t_acc:
            # one motion at a time: the run's stacked conversion must give
            # each motion these bits
            dq = dq8_from_rt(R, m.y[o] / mu - R @ m.x[o])
            hyps.append(TransformHypothesis(control=o, dq=dq, mu=mu, inliers=inl.astype(np.int64)))
            inlier_mask[inl] = True
        gamma_history.append(float(inlier_mask.sum()) / n)
    union = np.nonzero(inlier_mask)[0].astype(np.int64)
    outcome = RansacOutcome(hypotheses=tuple(hyps), n=n, gamma_history=tuple(gamma_history))
    return outcome, union, union.size / n


def collapsed_targets(dim, n=300, seed=0):
    """Sources spread over a box, every target on the first target."""
    rng = make_rng(seed)
    x = rng.uniform(0.0, 200.0 if dim == 2 else 100.0, size=(n, dim))
    y = np.tile(rng.uniform(50.0, 150.0 if dim == 2 else 50.0, size=dim), (n, 1))
    return MatchSet.from_points(x, y)


REFERENCE_SCENES = {
    **{f"2d-1000/{r}": (lambda r=r: synth_generate(SynthSpec(n=1000, outlier_ratio=r, seed=41))[0])
       for r in (0.3, 0.5, 0.7, 0.85)},
    "2d-3000/0.5": lambda: synth_generate(SynthSpec(n=3000, outlier_ratio=0.5, seed=42))[0],
    "3d-629/0.76": lambda: surface_scene_3d(629, 0.24, seed=43)[0],
    "3d-1784/0.39": lambda: surface_scene_3d(1784, 0.61, seed=44)[0],
    "2d-collapsed-targets": lambda: collapsed_targets(2),
    "3d-collapsed-targets": lambda: collapsed_targets(3),
    "2d-t-min": lambda: exact_similarity(T_MIN),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
def test_lean_loop_reproduces_the_reference_run(name):
    m = REFERENCE_SCENES[name]()
    # the scale rule gives the five t-min matches H of about 2.5, below the
    # 10% stretch of their source distances, so no match scores and the
    # pool is every match
    cfg = Config.for_matches(m, seed=7)
    ref, union, gamma = reference_run(m, cfg)
    out = ransac_run(m, cfg)
    assert out.trials == ref.trials <= m.n
    assert out.gamma_history == ref.gamma_history
    # the derived union and gamma equal the ones the reference kept itself
    assert out.gamma == ref.gamma == gamma
    assert out.inlier_union.tobytes() == ref.inlier_union.tobytes() == union.tobytes()
    assert len(out.hypotheses) == len(ref.hypotheses)
    for h, g in zip(out.hypotheses, ref.hypotheses):
        assert h.control == g.control and h.support == g.support == h.inliers.size
        assert h.dq.tobytes() == g.dq.tobytes()
        assert h.mu == g.mu
        assert h.inliers.dtype == g.inliers.dtype and h.inliers.tobytes() == g.inliers.tobytes()
    assert out.pool == np.count_nonzero(reference_pool(m, cfg, acceptance_threshold(m, cfg)))
    if name.endswith("collapsed-targets"):
        # every target on one point, so a stretch is the source distance:
        # some 2D sources keep two neighbors within H and are drawn; no 3D
        # source does, and the pool is every match. Each trial is degenerate
        assert out.hypotheses == () and out.trials > 0
        assert (out.pool == m.n) == name.startswith("3d")
    else:
        assert out.hypotheses


@pytest.mark.parametrize("scene", ["2d", "3d", "2d-collapsed-targets"])
def test_every_trial_calls_reweight_fit_through_the_module(scene, monkeypatch):
    # traced benchmark runs wrap ransac.reweight_fit to time each trial and
    # count the degenerate ones: the run must look it up at call time, once
    # per trial, and let DegenerateGeometryError pass through the wrapper
    if scene == "3d":
        m = surface_scene_3d(629, 0.24, seed=43)[0]
    elif scene == "2d-collapsed-targets":
        m = collapsed_targets(2)
    else:
        m = synth_generate(SynthSpec(n=400, outlier_ratio=0.5, seed=5))[0]
    calls, degenerate, fit = [], [], ransac.reweight_fit

    def counted_fit(m, o, cfg):
        calls.append(o)
        try:
            return fit(m, o, cfg)
        except DegenerateGeometryError:
            degenerate.append(o)
            raise

    monkeypatch.setattr(ransac, "reweight_fit", counted_fit)
    out = ransac_run(m, Config.for_matches(m, seed=5))
    assert out.trials > 0 and len(calls) == out.trials
    if scene.endswith("collapsed-targets"):
        assert out.hypotheses == () and len(degenerate) == out.trials
    else:
        assert out.hypotheses


def test_integers_draw_is_the_choice_draw():
    # candidates[rng.integers(size)] takes the element rng.choice(candidates)
    # takes and leaves the generator in the same state, on arrays that
    # shrink the way the candidate list does
    for seed in range(5):
        a, b = make_rng(seed), make_rng(seed)
        shrink = make_rng(100 + seed)
        candidates = np.arange(1000)
        while candidates.size:
            j = int(a.integers(candidates.size))
            assert int(candidates[j]) == int(b.choice(candidates))
            drop = shrink.integers(candidates.size, size=int(shrink.integers(1, 4)))
            candidates = np.delete(candidates, drop)
        assert a.random() == b.random()


def hand_made_spatial_terms(case):
    """(xr, yr) coordinate-major relative coordinates that send _fit_spatial
    down one branch each."""
    rng = make_rng(60)
    xr = rng.normal(size=(3, 8)) * [[40.0], [25.0], [10.0]]
    if case == "reflection":
        # y mirrors x through the xy-plane: det M < 0, so U's last column flips
        yr = 1.7 * np.diag([1.0, 1.0, -1.0]) @ xr
    elif case == "coplanar":
        xr[2] = 0.0
        yr = 0.8 * random_rotation_3d(rng) @ xr
    elif case == "rank-1":
        # every point on one line through the control
        xr = np.outer([0.3, -1.2, 0.7], rng.uniform(-50.0, 50.0, size=8))
        yr = 1.1 * random_rotation_3d(rng) @ xr
    else:
        yr = xr.copy()
        yr[1, 3] = np.nan
    return ransac._spatial_terms(np.ascontiguousarray(xr), np.ascontiguousarray(yr))


@pytest.mark.parametrize("case", ["reflection", "coplanar"])
def test_lapack_fit_is_the_numpy_svd_fit_on_each_branch(case):
    terms = hand_made_spatial_terms(case)
    w2 = make_rng(61).uniform(0.1, 1.0, size=terms[0].shape[1]) ** 2
    M = (terms[1] * w2) @ terms[0].T
    U, S, Vt = np.linalg.svd(M)
    if case == "reflection":
        assert np.linalg.det(U) * np.linalg.det(Vt) < 0.0
    else:
        assert S[2] <= 1e-12 * S[0] and S[1] > RANK_TOL * S[0]
    R, mu = ransac._fit_spatial(terms, w2)
    R_ref, mu_ref = reference_fit_spatial(*terms, w2)
    assert R.tobytes() == R_ref.tobytes() and mu == mu_ref
    assert np.allclose(R @ R.T, np.eye(3)) and np.isclose(np.linalg.det(R), 1.0)


@pytest.mark.parametrize("case,message", [("rank-1", "collinear"), ("non-finite", "non-finite")])
def test_lapack_fit_rejects_what_the_numpy_svd_fit_rejects(case, message):
    terms = hand_made_spatial_terms(case)
    w2 = np.ones(terms[0].shape[1])
    for fit in (lambda: ransac._fit_spatial(terms, w2), lambda: reference_fit_spatial(*terms, w2)):
        with pytest.raises(DegenerateGeometryError, match=message):
            fit()


@pytest.mark.parametrize("dim", [2, 3])
def test_fit_rejects_sources_collapsed_onto_the_control(dim):
    # sources spread by about 1e-170 and targets of order 1: the weighted
    # squared source norms underflow to 0 while the cross matrix (about
    # 1e-170) keeps its rank and its rotation part, so only the collapse
    # check stands between the fit and sqrt(syy / sxx) dividing by zero
    rng = make_rng(63)
    m = MatchSet.from_points(1e-170 * rng.normal(size=(12, dim)), rng.normal(size=(12, dim)))
    assert np.square(m.x - m.x[0]).sum() == 0.0 and np.abs(m.x - m.x[0]).max() > 0.0
    with pytest.raises(DegenerateGeometryError, match="weighted points collapse onto the control"):
        weighted_rigid_fit(m, 0, np.ones(m.n))


def test_unconverged_svd_raises_linalg_error(monkeypatch):
    m, w = random_weighted_spatial_set(make_rng(62), 20)
    dgesdd = ransac.lapack.dgesdd
    monkeypatch.setattr(ransac.lapack, "dgesdd", lambda a: dgesdd(a)[:3] + (1,))
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        weighted_rigid_fit(m, 0, w)


def test_3d_run_needs_no_numpy_svd(monkeypatch):
    # a 3D run goes to LAPACK directly: with np.linalg.svd unusable it still
    # returns the outcome of the np.linalg.svd reference, bit for bit
    m = REFERENCE_SCENES["3d-629/0.76"]()
    cfg = Config.for_matches(m, seed=7)
    ref, _, _ = reference_run(m, cfg)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    out = ransac_run(m, cfg)
    assert out.trials == ref.trials and out.gamma_history == ref.gamma_history
    assert len(out.hypotheses) == len(ref.hypotheses) > 0
    for h, g in zip(out.hypotheses, ref.hypotheses):
        assert h.control == g.control and h.inliers.tobytes() == g.inliers.tobytes()
        assert h.dq.tobytes() == g.dq.tobytes()
        assert h.mu == g.mu


@pytest.mark.parametrize("with_hypotheses", [False, True], ids=["empty", "hypotheses"])
def test_labels_from_outcome_of_another_match_count_raise(with_hypotheses):
    if with_hypotheses:
        m, out = tied_outcome()
        other = MatchSet.from_points(m.x[:5], m.y[:5])
        counts = "outcome of 8 matches used with 5 matches"
    else:
        other = MatchSet.from_points(np.arange(40.0).reshape(20, 2), np.arange(40.0).reshape(20, 2))
        out = RansacOutcome(hypotheses=(), n=25, gamma_history=())
        counts = "outcome of 25 matches used with 20 matches"
    with pytest.raises(ValueError, match=counts):
        labels_from_outcome(other, out)


def pool_of(m, cfg):
    return ransac.control_pool(m, build_neighbors(m), cfg, acceptance_threshold(m, cfg))


def with_wrong_targets(m, wrong, shift):
    """m with the targets of the matches in wrong moved by shift."""
    y = m.y.copy()
    y[wrong] += shift
    return MatchSet.from_points(m.x, y)


def test_pool_keeps_duplicated_matches_and_drops_a_duplicated_wrong_pair():
    # every match twice: a twin keeps its distance (0) exactly and counts as
    # one consistent neighbor; a true match keeps the others' distances too,
    # a wrong one keeps only its twin's and stays out of the pool
    m = with_wrong_targets(exact_similarity(40), [3], (300.0, -200.0))
    m = MatchSet.from_points(np.vstack([m.x, m.x]), np.vstack([m.y, m.y]))
    cfg = Config(seed=0)
    true = [i % 40 != 3 for i in range(80)]
    assert pool_of(m, cfg).tolist() == np.nonzero(true)[0].tolist()
    labels, _, outcome = filter_and_refine(m, cfg)
    assert outcome.pool == 78 and outcome.hypotheses
    assert labels.inlier.tolist() == true


def test_pool_just_above_t_min_drops_the_wrong_match():
    # six matches, one wrong: each true match keeps its distances to the four
    # other true ones (H = 20 against a stretch of at most 0.1 x 141), the
    # wrong one keeps none, and the one trial keeps all five true matches
    m = with_wrong_targets(exact_similarity(6), [2], (250.0, 100.0))
    cfg = Config(seed=0)
    assert acceptance_threshold(m, cfg) == T_MIN == 5
    labels, _, outcome = filter_and_refine(m, cfg)
    assert outcome.pool == 5 and outcome.trials == 1
    assert [h.inliers.tolist() for h in outcome.hypotheses] == [[0, 1, 3, 4, 5]]
    assert labels.inlier.tolist() == [True, True, False, True, True, True]


@pytest.mark.parametrize("dim", [2, 3])
def test_pool_of_a_graph_narrower_than_its_columns(dim):
    # n = 12 leaves 11 other matches in the graph, fewer than POOL_COLUMNS:
    # the score reads every one of them
    m, _, _, _ = similarity_scene(make_rng(27), 12, dim, mu=1.0)
    m = with_wrong_targets(m, [4, 9], 400.0)
    cfg = Config.for_matches(m, seed=0)
    assert build_neighbors(m).idx.shape == (12, 12)
    true = np.ones(12, dtype=bool)
    true[[4, 9]] = False
    pool = pool_of(m, cfg)
    assert pool.tolist() == np.nonzero(true)[0].tolist()
    assert np.array_equal(reference_pool(m, cfg, acceptance_threshold(m, cfg)), true)
    labels, _, outcome = filter_and_refine(m, cfg)
    assert outcome.pool == 10
    assert labels.inlier.tolist() == true.tolist()


def test_pool_threshold_never_exceeds_the_other_inliers_a_motion_needs():
    # a wrong match and its duplicate (5 and 12) keep only each other's
    # distance, a score of 1: a motion of t_acc matches has t_acc - 1 other
    # inliers, so the pool takes them below t_acc = 3 and every match,
    # down to the one match of a one-match set, at t_acc = 1
    m = with_wrong_targets(exact_similarity(12), [5], 300.0)
    m = MatchSet.from_points(np.vstack([m.x, m.x[5]]), np.vstack([m.y, m.y[5]]))
    cfg = Config()
    graph = build_neighbors(m)
    for t_acc, pool in ((1, range(13)), (2, range(13)), (3, [i for i in range(13) if i not in (5, 12)]),
                        (5, [i for i in range(13) if i not in (5, 12)])):
        assert ransac.control_pool(m, graph, cfg, t_acc).tolist() == list(pool)
    one = MatchSet.from_points([[1.0, 2.0]], [[3.0, 4.0]])
    assert ransac.control_pool(one, build_neighbors(one), cfg, 1).tolist() == [0]


def test_pool_on_collinear_2d_sources():
    # 200 sources on one line under one rigid motion, the last 40 targets
    # scattered over the frame: the line's matches keep their distances and
    # make up the pool, the scattered ones do not
    s = np.arange(200.0) * 3.0
    x = np.stack([100.0 + 0.8 * s, 50.0 + 0.6 * s], axis=1)
    R = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    y = x @ R.T + np.array([40.0, -25.0])
    y[160:] = make_rng(28).uniform(0.0, 1.0, size=(40, 2)) * [800.0, 600.0]
    m = MatchSet.from_points(x, y)
    cfg = Config(seed=0)
    assert pool_of(m, cfg).tolist() == list(range(160))
    labels, _, outcome = filter_and_refine(m, cfg)
    assert outcome.pool == 160 and outcome.trials == 1
    assert labels.inlier.tolist() == [i < 160 for i in range(200)]


@pytest.mark.parametrize("dim", [2, 3])
def test_pool_is_permutation_and_similarity_invariant(dim):
    if dim == 2:
        m = synth_generate(SynthSpec(n=1000, outlier_ratio=0.85, seed=5))[0]
    else:
        m = surface_scene_3d(693, 0.84, seed=5)[0]
    cfg = Config.for_matches(m, seed=5)
    pool = pool_of(m, cfg)
    assert 0 < pool.size < m.n
    perm = make_rng(8).permutation(m.n)
    permuted = MatchSet.from_points(m.x[perm], m.y[perm])
    assert np.array_equal(np.sort(perm[pool_of(permuted, cfg)]), pool)
    for s in (0.37, 250.0):
        scaled = MatchSet.from_points(m.x * s, m.y * s)
        assert np.array_equal(pool_of(scaled, replace(cfg, H=cfg.H * s, r=cfg.r * s)), pool)


def test_controls_come_from_the_pool():
    m, _ = synth_generate(SynthSpec(n=1000, outlier_ratio=0.7, seed=6))
    cfg = Config(seed=6)
    pool = pool_of(m, cfg)
    out = ransac_run(m, cfg)
    assert out.pool == pool.size < m.n
    assert out.graph.matches is m
    assert graph_bytes(out.graph) == graph_bytes(build_neighbors(m))
    assert np.isin([h.control for h in out.hypotheses], pool).all()
