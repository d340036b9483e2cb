from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from matchfield import em_refine, ransac
from matchfield.core import Config, MatchSet, make_rng
from matchfield.dualquat import (
    dq8_apply,
    dq8_from_rt,
    dq8_identity,
    dq8_translate_after,
    embed3,
)
from matchfield.em_refine import (
    EmState,
    NeighborGraph,
    build_neighbors,
    e_step,
    filter_and_refine,
    init_from_hypotheses,
    m_step,
    run_em,
)
from matchfield.field import query_field
from matchfield.io_eval import SynthSpec, compute_metrics, synth_generate
from matchfield.ransac import RansacOutcome, TransformHypothesis, ransac_run

from test_dualquat import reference_dq8_blend, reference_hemisphere_signs


def empty_outcome(n):
    return RansacOutcome(hypotheses=(), n=n, gamma_history=())


def self_only_state(m, p, sigma=5.0, gamma=0.5):
    n = m.n
    graph = NeighborGraph(idx=np.arange(n, dtype=np.int64)[:, None], dist=np.zeros((n, 1)))
    return EmState(
        qs=dq8_identity(n),
        mus=np.ones(n),
        p=np.asarray(p, dtype=np.float64),
        sigma=sigma,
        gamma=gamma,
        graph=graph,
        field_at_x=m.x.copy(),
        isolated=np.zeros(n, dtype=bool),
    )


def test_build_neighbors_layout():
    rng = make_rng(40)
    x = rng.uniform(0.0, 500.0, size=(30, 2))
    m = MatchSet.from_points(x, x + 1.0)
    g = build_neighbors(m, Config())
    assert g.idx.shape == (30, 17)
    assert np.array_equal(g.idx[:, 0], np.arange(30))
    assert not g.dist[:, 0].any()
    # RANSAC's outcome and every EM state on it share the arrays
    assert not any(a.flags.writeable for a in (g.idx, g.dist))
    # rows index real neighbors, no repeats of self past column 0
    for i in range(30):
        assert i not in g.idx[i, 1:]


def blend_weight_sums(g, p, r):
    """Row sums of the blend weights over graph g under posteriors p."""
    n = g.idx.shape[0]
    return em_refine.blend_neighbors(g.dist, np.asarray(p)[g.idx], dq8_identity(n), np.ones(n),
                                     g.idx, r)[2]


def test_neighbor_weight_hand_value():
    # frozen: sources one radius apart -> exp(-1/2) = 0.6065306..., beside
    # the self weight 1; the targets play no part
    m = MatchSet.from_points(
        [[0.0, 0.0], [50.0, 0.0]], [[100.0, 100.0], [100.0, 150.0]]
    )
    g = build_neighbors(m, Config())
    assert g.dist.tolist() == [[0.0, 50.0], [0.0, 50.0]]
    assert np.allclose(blend_weight_sums(g, [1.0, 1.0], 50.0), 1.0 + np.exp(-0.5),
                       rtol=1e-15, atol=0.0)


def test_neighbor_weight_reads_only_the_source_side():
    # far apart in x, coincident in y: ten radii of source distance leave
    # the pair a weight of exp(-50) whatever the targets do
    m = MatchSet.from_points([[0.0, 0.0], [500.0, 0.0]], [[7.0, 7.0], [7.0, 7.0]])
    g = build_neighbors(m, Config())
    assert g.dist[0, 1] == 500.0
    assert np.allclose(blend_weight_sums(g, [0.0, 1.0], 50.0)[0], np.exp(-50.0),
                       rtol=1e-12, atol=0.0)


def reference_neighbor_dists(m, idx):
    """The source distances from the whole (n, k, dim) difference array."""
    return np.sqrt(np.sum((m.x[idx] - m.x[:, None, :]) ** 2, axis=-1))


def with_duplicate_sources(m):
    """m with runs of matches moved onto one source point, more copies than
    a 3D graph has columns, so the kd-tree's ties push self out of column 0."""
    x = m.x.copy()
    x[1:4] = x[0]
    x[10:70] = x[9]
    return MatchSet.from_points(x, m.y)


def doubled(m, copies=2):
    """Every match of m repeated copies times, the copies one block each."""
    return MatchSet.from_points(np.tile(m.x, (copies, 1)), np.tile(m.y, (copies, 1)))


def reference_self_first(idx):
    """The kd-tree's neighbour rows with self moved into column 0, one row
    at a time: self's first hit swaps with column 0; a row that misses self
    takes it in column 0."""
    idx = idx.astype(np.int64)
    for i, row in enumerate(idx):
        if row[0] != i:
            hits = np.flatnonzero(row == i)
            if hits.size:
                row[hits[0]] = row[0]
            row[0] = i
    return idx


def test_neighbor_distances_bit_identical_to_full_difference_array():
    spec_3d = dict(
        dim=3, n_anchors=3, max_rotation=0.05, max_scale_jitter=0.02, noise_sigma=0.05,
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
    )
    big_2d = synth_generate(SynthSpec(n=1000, outlier_ratio=0.5, seed=41))[0]
    big_3d = synth_generate(SynthSpec(n=693, outlier_ratio=0.84, seed=42, **spec_3d))[0]
    scenes = [
        big_2d,
        big_3d,
        with_duplicate_sources(big_2d),
        with_duplicate_sources(big_3d),
        doubled(big_2d),
        doubled(big_3d),
        doubled(big_2d, 4),
        synth_generate(SynthSpec(n=12, outlier_ratio=0.5, seed=43))[0],
        synth_generate(SynthSpec(n=40, outlier_ratio=0.5, seed=44, **spec_3d))[0],
        MatchSet.from_points([[1.0, 2.0, 3.0]], [[4.0, 5.0, 6.0]]),
    ]
    for m in scenes:
        cfg = Config.for_matches(m) if m.n > 1 else Config()
        g = build_neighbors(m, cfg)
        assert g.idx.shape == g.dist.shape == (m.n, min(cfg.N_neighbor + 1, m.n))
        assert np.array_equal(g.idx[:, 0], np.arange(m.n))
        assert g.dist.tobytes() == reference_neighbor_dists(m, g.idx).tobytes()
        if m.n > 1:
            # the kd-tree's own rows, self moved to column 0 and nothing else
            raw = cKDTree(m.x).query(m.x, k=g.idx.shape[1])[1]
            assert np.array_equal(g.idx, reference_self_first(raw))
            kept = (raw == np.arange(m.n)[:, None]).any(axis=1)
            assert np.array_equal(np.sort(g.idx[kept], axis=1), np.sort(raw[kept], axis=1))
    # every doubled point sees its twin at distance 0, so the kd-tree put
    # self out of column 0 in some rows, and no row misses self
    m = doubled(big_2d)
    raw = cKDTree(m.x).query(m.x, k=Config.for_matches(m).N_neighbor + 1)[1]
    assert (raw[:, 0] != np.arange(m.n)).any()
    assert (raw == np.arange(m.n)[:, None]).any(axis=1).all()


def test_init_adopts_largest_support_and_seeds_sigma():
    x = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [300.0, 300.0]])
    m = MatchSet.from_points(x, x)
    ident = dq8_from_rt(np.eye(2), np.zeros(2))
    shift = dq8_from_rt(np.eye(2), np.array([1.0, 0.0]))
    h1 = TransformHypothesis(control=0, dq=ident, mu=1.0, inliers=np.array([0, 1]))
    h2 = TransformHypothesis(control=2, dq=shift, mu=1.0, inliers=np.array([1, 2, 3]))
    out = RansacOutcome(hypotheses=(h1, h2), n=5, gamma_history=(0.4, 0.8))
    cfg = Config(H=2.0)
    state = init_from_hypotheses(m, out, cfg)
    assert np.allclose(state.qs[0], dq8_from_rt(np.eye(2), np.zeros(2)))
    # match 1 is covered by both; the support-3 hypothesis wins
    assert np.allclose(state.qs[1], dq8_from_rt(np.eye(2), np.array([1.0, 0.0])))
    assert np.allclose(state.p, [2.0, 3.0, 3.0, 3.0, 0.0])
    assert np.allclose(state.qs[4], dq8_identity())
    assert state.isolated[4] and not state.isolated[0]
    # frozen: covered residuals {0, 1, 1, 1} -> rms sqrt(3/4)
    assert np.isclose(state.sigma, np.sqrt(0.75))
    assert np.isclose(state.gamma, 0.8)


def reference_seeds(m, outcome):
    """The per-hypothesis seeding loop the batched pass replaced: a match
    moves to a later hypothesis only on strictly larger support."""
    n = m.n
    qs = dq8_identity(n)
    mus = np.ones(n)
    p = np.zeros(n)
    best = np.zeros(n, dtype=np.int64)
    for h in outcome.hypotheses:
        take = h.inliers[h.support > best[h.inliers]]
        if take.size == 0:
            continue
        qs[take] = h.dq
        mus[take] = h.mu
        p[take] = float(h.support)
        best[take] = h.support
    return qs, mus, p


def test_batched_seeding_bit_identical_to_loop():
    # equal supports on overlapping inliers: the earliest hypothesis wins
    x = np.arange(12.0).reshape(6, 2)
    m_ties = MatchSet.from_points(x, x)
    hyps = tuple(
        TransformHypothesis(
            control=int(rows[0]),
            dq=dq8_from_rt(np.eye(2), np.array([float(j), 0.0])),
            mu=1.0 + j,
            inliers=np.array(rows, dtype=np.int64),
        )
        for j, rows in enumerate(([0, 1, 2], [2, 3, 4], [1, 4, 5], [0, 1, 2, 3]))
    )
    ties = RansacOutcome(hyps, 6, (0.5, 0.8, 1.0, 1.0))
    m2, _ = synth_generate(SynthSpec(n=1000, outlier_ratio=0.7, seed=42))
    m3, _ = synth_generate(SynthSpec(
        n=693, dim=3, outlier_ratio=0.2, n_anchors=3, max_rotation=0.05,
        max_scale_jitter=0.02, noise_sigma=0.05,
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)), seed=43,
    ))
    cases = [(m_ties, ties, Config())]
    cases += [(m, ransac_run(m, cfg), cfg)
              for m, cfg in ((m2, Config(seed=42)), (m3, Config.for_matches(m3, seed=43)))]
    for m, outcome, cfg in cases:
        assert len(outcome.hypotheses) >= 4
        state = init_from_hypotheses(m, outcome, cfg)
        qs, mus, p = reference_seeds(m, outcome)
        assert np.array_equal(state.qs, qs)
        assert np.array_equal(state.mus, mus)
        assert np.array_equal(state.p, p)
    # support 4 takes matches 0-3; match 4 ties at support 3 between
    # hypotheses 1 and 2 and stays with the earlier one
    state = init_from_hypotheses(m_ties, ties, Config())
    assert list(state.mus) == [4.0, 4.0, 4.0, 4.0, 2.0, 3.0]


def test_init_empty_outcome_and_gamma_clamp():
    rng = make_rng(41)
    x = rng.uniform(0.0, 100.0, size=(20, 2))
    m = MatchSet.from_points(x, x)
    cfg = Config()
    state = init_from_hypotheses(m, empty_outcome(m.n), cfg)
    assert np.all(state.p == 0.0)
    assert np.isclose(state.sigma, cfg.H / 10.0)
    assert np.isclose(state.gamma, 0.05)
    ident = dq8_from_rt(np.eye(2), np.zeros(2))
    full = RansacOutcome(
        hypotheses=(TransformHypothesis(control=0, dq=ident, mu=1.0, inliers=np.arange(20)),),
        n=20,
        gamma_history=(1.0,),
    )
    assert np.isclose(init_from_hypotheses(m, full, cfg).gamma, 0.95)


def test_e_step_hand_value():
    # frozen: zero residual, sigma=2, gamma=0.9, a=1e-5
    # p = 1 / (1 + 2 pi 4 (1/9) 1e-5) = 0.999972075...
    m = MatchSet.from_points([[0.0, 0.0], [10.0, 0.0]], [[0.0, 0.0], [10.0, 0.0]])
    state = self_only_state(m, p=[1.0, 1.0], sigma=2.0, gamma=0.9)
    p = e_step(state, m, Config(a=1e-5))
    want = 1.0 / (1.0 + 2.0 * np.pi * 4.0 * (1.0 / 9.0) * 1e-5)
    assert np.allclose(p, want, rtol=0.0, atol=1e-12)


def test_e_step_large_residual_goes_to_zero():
    m = MatchSet.from_points([[0.0, 0.0]], [[500.0, 0.0]])
    state = self_only_state(m, p=[1.0], sigma=2.0, gamma=0.5)
    p = e_step(state, m, Config())
    assert p[0] < 1e-12
    assert ((0.0 <= p) & (p <= 1.0)).all()


def test_m_step_sigma_hand_value_and_exactness():
    # frozen: residuals {3, 4} with posteriors {1, 1} -> sigma^2 = 12.5
    x = np.array([[0.0, 0.0], [10.0, 0.0]])
    y = x + np.array([[3.0, 0.0], [0.0, 4.0]])
    m = MatchSet.from_points(x, y)
    state = self_only_state(m, p=[1.0, 1.0], sigma=5.0)
    f = m_step(state, m, Config())
    assert np.allclose(f, x)
    assert np.isclose(state.sigma, np.sqrt(12.5))
    # the translation correction re-pins each motion onto its own match
    for i in range(2):
        assert np.allclose(dq8_apply(state.qs[i], state.mus[i], x[i]), y[i], atol=1e-12)


def test_m_step_can_hold_sigma():
    x = np.array([[0.0, 0.0], [10.0, 0.0]])
    y = x + np.array([[3.0, 0.0], [0.0, 4.0]])
    m = MatchSet.from_points(x, y)
    state = self_only_state(m, p=[1.0, 1.0], sigma=5.0)
    m_step(state, m, Config(), update_sigma=False)
    assert state.sigma == 5.0


def test_m_step_zero_weights_keep_motions():
    rng = make_rng(42)
    x = rng.uniform(0.0, 100.0, size=(10, 2))
    m = MatchSet.from_points(x, x + 2.0)
    cfg = Config()
    state = init_from_hypotheses(m, empty_outcome(m.n), cfg)
    qs_before = state.qs.copy()
    m_step(state, m, cfg)
    assert state.isolated.all()
    assert np.array_equal(state.qs, qs_before)


def test_m_step_exactness_through_iterations():
    m, gt = synth_generate(SynthSpec(n=400, outlier_ratio=0.3, seed=8))
    cfg = Config(seed=8)
    out = ransac_run(m, cfg)
    state = init_from_hypotheses(m, out, cfg)
    for it in range(1, 6):
        m_step(state, m, cfg, update_sigma=it > 1)
        live = ~state.isolated
        assert live.any()
        mapped = dq8_apply(state.qs[live], state.mus[live], m.x[live])
        assert np.abs(mapped - m.y[live]).max() < 1e-6
        e_step(state, m, cfg)


def test_run_em_rigid_scene_converges():
    rng = make_rng(43)
    ang = 0.5
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    x = rng.uniform(0.0, 400.0, size=(80, 2))
    y = 1.2 * (x @ R.T + np.array([10.0, -5.0]))
    m = MatchSet.from_points(x, y)
    cfg = Config(seed=1)
    labels, state = run_em(m, ransac_run(m, cfg), cfg)
    assert labels.inlier.all()
    assert state.converged
    assert labels.residual.max() < 1e-6
    assert len(state.delta_history) == state.n_iters - 1
    assert state.delta_history[-1] < cfg.theta


def test_run_em_pure_noise_labels_almost_nothing():
    rng = make_rng(44)
    x = rng.uniform(0.0, 800.0, size=(1000, 2))
    y = rng.uniform(0.0, 600.0, size=(1000, 2))
    m = MatchSet.from_points(x, y)
    labels, state, out = filter_and_refine(m, Config(seed=2))
    assert labels.inlier.mean() <= 0.05


def test_2d_motions_stay_planar_through_em():
    # 2D runs lift their points into z = 0 for the 8-wide kernels; the
    # off-plane columns of every motion must stay exactly zero
    m, _ = synth_generate(SynthSpec(n=500, outlier_ratio=0.5, seed=4))
    cfg = Config(seed=4)
    _, state = run_em(m, ransac_run(m, cfg), cfg)
    assert state.n_iters > 1
    assert not state.qs[:, [1, 2, 4, 7]].any()


def test_run_em_empty_outcome_all_outlier():
    rng = make_rng(45)
    x = rng.uniform(0.0, 100.0, size=(30, 2))
    m = MatchSet.from_points(x, x[::-1].copy())
    labels, state = run_em(m, empty_outcome(m.n), Config())
    assert not labels.inlier.any()


def test_labels_consistent_with_state():
    m, gt = synth_generate(SynthSpec(n=500, outlier_ratio=0.5, seed=3))
    cfg = Config(seed=3)
    labels, state, out = filter_and_refine(m, cfg)
    want = (state.p > cfg.p_min) & (labels.residual < cfg.H)
    assert np.array_equal(labels.inlier, want)
    assert np.allclose(labels.residual, np.linalg.norm(m.y - state.field_at_x, axis=1))


def test_pipeline_is_deterministic():
    m, gt = synth_generate(SynthSpec(n=600, outlier_ratio=0.6, seed=5))
    a_labels, a_state, _ = filter_and_refine(m, Config(seed=5))
    b_labels, b_state, _ = filter_and_refine(m, Config(seed=5))
    assert np.array_equal(a_labels.inlier, b_labels.inlier)
    assert np.array_equal(a_labels.posterior, b_labels.posterior)
    assert np.array_equal(a_state.qs, b_state.qs)
    assert a_state.n_iters == b_state.n_iters


def test_run_em_survives_underflowing_blend_weights():
    # a 3D acceptance-style scene where some rows' blend weights sum to
    # about 6e-218: unnormalized, the blended quaternion's norm underflows
    # and the residuals came out NaN
    spec = SynthSpec(
        n=693,
        dim=3,
        outlier_ratio=0.84,
        n_anchors=3,
        max_rotation=0.05,
        max_scale_jitter=0.02,
        noise_sigma=0.05,
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
        seed=54,
    )
    m, gt = synth_generate(spec)
    labels, state, _ = filter_and_refine(m, Config.for_matches(m, seed=54))
    assert np.isfinite(labels.residual).all()
    assert np.isfinite(state.qs).all()
    assert compute_metrics(labels, gt).fscore >= 0.93


def reference_m_step(state, m, cfg, update_sigma=True, row_sums=None):
    """The M-step as written before blend_neighbors: its own weight
    normalization, the written-out blend of test_dualquat over the gathered
    neighbour motions, 2D points lifted into z = 0 by hand and sliced back,
    and the three-branch sigma update. Rows without weight keep their last field
    value. row_sums, if given, collects each call's smallest positive weight
    sum."""
    idx = state.graph.idx
    wt = np.exp(-(state.graph.dist ** 2) / (2.0 * cfg.r * cfg.r)) * state.p[idx]
    wsum = wt.sum(axis=1)
    active = wsum > 0.0
    if row_sums is not None and active.any():
        row_sums.append(float(wsum[active].min()))
    wsum_safe = np.where(active, wsum, 1.0)
    wt = wt / wsum_safe[:, None]
    mubar = np.where(active, (wt * state.mus[idx]).sum(axis=1), state.mus)
    with np.errstate(invalid="ignore", divide="ignore"):
        qbar = reference_dq8_blend(wt, state.qs[idx])
        qbar = np.where(active[:, None], qbar, state.qs)
        f = dq8_apply(qbar, mubar, embed3(m.x))[:, : m.dim]
        delta = (m.y - f) / mubar[:, None]
        q_new = dq8_translate_after(qbar, embed3(delta))
        q_new = np.where(active[:, None], q_new, state.qs)
    f = np.where(active[:, None], f, state.field_at_x)
    resid2 = np.sum((m.y - f) ** 2, axis=1)
    floor = em_refine.SIGMA_FLOOR_FACTOR * cfg.H
    if update_sigma:
        psum = float(state.p.sum())
        if psum > 0.0:
            sigma = max(float(np.sqrt(np.dot(state.p, resid2) / psum)), floor)
        else:
            sigma = max(state.sigma, floor)
    else:
        sigma = max(state.sigma, floor)
    state.qs = q_new
    state.mus = np.where(active, mubar, state.mus)
    state.sigma = sigma
    state.field_at_x = f
    state.isolated = ~active
    return f


def em_bytes(labels, state):
    arrays = (labels.inlier, labels.posterior, labels.residual, state.qs, state.mus, state.p,
              state.field_at_x, state.isolated, np.array([state.sigma]))
    return [np.ascontiguousarray(a).tobytes() for a in arrays] + [state.n_iters]


ACCEPTANCE_3D = dict(dim=3, n_anchors=3, max_rotation=0.05, max_scale_jitter=0.02,
                     noise_sigma=0.05, bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)))


@pytest.mark.parametrize("spec", [
    SynthSpec(n=800, outlier_ratio=0.7, seed=11),
    SynthSpec(n=629, outlier_ratio=0.24, seed=12, **ACCEPTANCE_3D),
    # rows whose blend weights sum to about 6e-218
    SynthSpec(n=693, outlier_ratio=0.84, seed=54, **ACCEPTANCE_3D),
], ids=["2d", "3d", "3d-underflow"])
def test_run_em_byte_equal_to_the_inline_blend(spec, monkeypatch):
    m, _ = synth_generate(spec)
    cfg = Config.for_matches(m, seed=spec.seed)
    outcome = ransac_run(m, cfg)
    want = em_bytes(*run_em(m, outcome, cfg))
    sums = []
    monkeypatch.setattr(em_refine, "m_step",
                        lambda *a, **k: reference_m_step(*a, **k, row_sums=sums))
    assert em_bytes(*run_em(m, outcome, cfg)) == want
    if spec.seed == 54:
        assert min(sums) < 1e-200


def test_m_step_zero_weight_rows_byte_equal_to_the_inline_blend():
    # all-zero weight rows keep their motion, scale and field value; the
    # other rows blend
    m, _ = synth_generate(SynthSpec(n=300, outlier_ratio=0.5, seed=9))
    cfg = Config(seed=9)
    state = init_from_hypotheses(m, ransac_run(m, cfg), cfg)
    idx = state.graph.idx
    # three rows with disjoint neighborhoods: two see only zero posteriors,
    # the third sees weights whose sum is near 1e-224
    rows = [0]
    for i in range(m.n):
        if len(rows) < 3 and not np.isin(idx[i], idx[rows]).any():
            rows.append(i)
    state.p[idx[rows[:2]]] = 0.0
    state.p[idx[rows[2]]] = 1e-224
    state.mus[rows] = [0.9, 1.1, 1.05]
    ref = replace(state)
    f = m_step(state, m, cfg)
    reference_m_step(ref, m, cfg)
    assert state.isolated[rows].tolist() == [True, True, False]
    assert 0.0 < blend_weight_sums(ref.graph, ref.p, cfg.r)[rows[2]] < 1e-200
    for a, b in [(f, ref.field_at_x), (state.qs, ref.qs), (state.mus, ref.mus),
                 (state.isolated, ref.isolated)]:
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    assert state.sigma == ref.sigma
    assert np.isfinite(state.qs).all()


@pytest.mark.parametrize("spec", [
    SynthSpec(n=300, outlier_ratio=0.5, seed=9),
    SynthSpec(n=629, outlier_ratio=0.24, seed=12, **ACCEPTANCE_3D),
], ids=["2d", "3d"])
def test_m_step_over_antipodes_byte_equal_to_the_inline_blend(spec):
    # the scenes' own blends flip no sign; storing every other motion as its
    # antipode (the same motion) makes the hemisphere test flip weights in
    # most rows, and the blend must still equal the written-out one
    m, _ = synth_generate(spec)
    cfg = Config.for_matches(m, seed=spec.seed)
    state = init_from_hypotheses(m, ransac_run(m, cfg), cfg)
    state.qs[1::2] *= -1.0
    g = state.graph
    w = np.exp(-(g.dist ** 2) / (2.0 * cfg.r * cfg.r)) * state.p[g.idx]
    flips = (reference_hemisphere_signs(w, state.qs[g.idx]) < 0.0).any(axis=1)
    assert flips.mean() > 0.3
    ref = replace(state)
    f = m_step(state, m, cfg)
    reference_m_step(ref, m, cfg)
    for a, b in [(f, ref.field_at_x), (state.qs, ref.qs), (state.mus, ref.mus)]:
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    assert state.sigma == ref.sigma


def test_isolated_match_does_not_vouch_for_itself():
    # a stray match whose neighbourhood loses all weight after the first
    # M-step keeps the field value blended there; its own corrected motion
    # maps it onto its target exactly and would score it an inlier
    rng = make_rng(46)
    x = rng.uniform(0.0, 100.0, size=(40, 2))
    y = x + 2.0
    y[0] += 50.0
    m = MatchSet.from_points(x, y)
    cfg = Config()
    hyp = TransformHypothesis(
        control=1,
        dq=dq8_from_rt(np.eye(2), np.array([2.0, 2.0])),
        mu=1.0,
        inliers=np.arange(40, dtype=np.int64),
    )
    outcome = RansacOutcome(hypotheses=(hyp,), n=40, gamma_history=(1.0,))
    state = init_from_hypotheses(m, outcome, cfg)
    state.p[:] = 1.0
    state.p[0] = 1e-3
    m_step(state, m, cfg, update_sigma=False)
    blended = state.field_at_x[0].copy()
    assert np.abs(blended - (x[0] + 2.0)).max() < 0.1
    # the correction made the stored motion exact at the stray match
    assert np.abs(dq8_apply(state.qs[0], state.mus[0], x[0]) - y[0]).max() < 1e-9
    qs0 = state.qs[0].copy()
    state.p[state.graph.idx[0]] = 0.0
    m_step(state, m, cfg, update_sigma=False)
    assert state.isolated[0]
    assert np.array_equal(state.qs[0], qs0)
    assert state.field_at_x[0].tobytes() == blended.tobytes()
    state.sigma = 5.0
    c = 2.0 * np.pi * 25.0 * cfg.a * (1.0 - state.gamma) / state.gamma
    # a zero residual would have scored it 1 / (1 + c)
    assert 1.0 / (1.0 + c) > 0.9
    G = np.exp(-np.sum((y[0] - blended) ** 2) / 50.0)
    p = e_step(state, m, cfg)
    assert np.isclose(p[0], G / (G + c), rtol=1e-12, atol=0.0)
    assert p[0] < 1e-9


@pytest.mark.parametrize("with_hypotheses", [False, True], ids=["empty", "hypotheses"])
def test_em_readers_reject_an_outcome_of_another_match_count(with_hypotheses):
    m = synth_generate(SynthSpec(n=20, outlier_ratio=0.0, seed=3))[0]
    if with_hypotheses:
        big = synth_generate(SynthSpec(n=25, outlier_ratio=0.0, seed=3))[0]
        out = ransac_run(big, Config(seed=3))
        assert out.hypotheses
    else:
        out = empty_outcome(25)
    cfg = Config(seed=3)
    for read in (lambda: init_from_hypotheses(m, out, cfg), lambda: run_em(m, out, cfg)):
        with pytest.raises(ValueError, match="outcome of 25 matches used with 20 matches"):
            read()


def graph_bytes(g):
    return [np.ascontiguousarray(a).tobytes() for a in (g.idx, g.dist)]


def count_builds(monkeypatch):
    """The module of every build_neighbors call the pipeline makes, looked
    up through ransac.build_neighbors and em_refine.build_neighbors."""
    calls = []
    for mod in (ransac, em_refine):
        def counted(m, cfg, build=mod.build_neighbors, name=mod.__name__):
            calls.append(name)
            return build(m, cfg)
        monkeypatch.setattr(mod, "build_neighbors", counted)
    return calls


def test_run_em_reuses_only_the_graph_built_for_its_matches_and_settings(monkeypatch):
    m, _ = synth_generate(SynthSpec(n=500, outlier_ratio=0.5, seed=21))
    cfg = Config(seed=21)
    outcome = ransac_run(m, cfg)
    bare = replace(outcome, graph=None)
    calls = count_builds(monkeypatch)
    # the graph holds distances, not weights, so another r reads it too, and
    # a narrower N_neighbor reads its leading columns as views: no build,
    # and the bytes of a fresh build
    for other_cfg in (cfg, replace(cfg, r=35.0), replace(cfg, r=80.0),
                      replace(cfg, N_neighbor=9), replace(cfg, N_neighbor=1)):
        labels, state = run_em(m, outcome, other_cfg)
        assert calls == []
        assert state.graph.idx.shape == (m.n, other_cfg.N_neighbor + 1)
        assert np.shares_memory(state.graph.idx, outcome.graph.idx)
        assert np.shares_memory(state.graph.dist, outcome.graph.dist)
        assert graph_bytes(state.graph) == graph_bytes(build_neighbors(m, other_cfg))
        assert em_bytes(labels, state) == em_bytes(*run_em(m, bare, other_cfg))
        calls.clear()
    # a wider N_neighbor than the graph holds, another match set of the same
    # n, an equal copy of m (identity, not content, ties a graph to its
    # matches) and no graph each get a fresh build, with the bytes of a run
    # that never had a graph
    same_n, _ = synth_generate(SynthSpec(n=500, outlier_ratio=0.5, seed=22))
    copy = MatchSet.from_points(m.x.copy(), m.y.copy())
    for other_m, other_cfg, out in ((m, replace(cfg, N_neighbor=24), outcome), (same_n, cfg, outcome),
                                    (copy, cfg, outcome), (m, cfg, bare)):
        labels, state = run_em(other_m, out, other_cfg)
        assert calls == ["matchfield.em_refine"]
        assert not np.shares_memory(state.graph.idx, outcome.graph.idx)
        assert state.graph.matches is other_m
        assert graph_bytes(state.graph) == graph_bytes(build_neighbors(other_m, other_cfg))
        assert em_bytes(labels, state) == em_bytes(*run_em(other_m, bare, other_cfg))
        calls.clear()


def test_a_hand_made_graph_is_never_taken_for_a_build(monkeypatch):
    # a graph made by hand records no matches, so EM builds its own, even
    # when the hand-made one holds the very arrays of a build
    m = synth_generate(SynthSpec(n=30, outlier_ratio=0.0, seed=4))[0]
    cfg = Config(seed=4)
    outcome = ransac_run(m, cfg)
    g = outcome.graph
    calls = count_builds(monkeypatch)
    for hand_made in (NeighborGraph(idx=g.idx, dist=g.dist),
                      NeighborGraph(idx=np.arange(m.n, dtype=np.int64)[:, None], dist=np.zeros((m.n, 1)))):
        labels, state = run_em(m, replace(outcome, graph=hand_made), cfg)
        assert calls == ["matchfield.em_refine"]
        assert state.graph is not hand_made and state.graph.matches is m
        assert graph_bytes(state.graph) == graph_bytes(build_neighbors(m, cfg))
        assert em_bytes(labels, state) == em_bytes(*run_em(m, outcome, cfg))
        calls.clear()


def spy_blend_weights(monkeypatch):
    """Record the normalized weights and neighbor indices of every
    dq8_blend call that blend_neighbors makes."""
    calls = []
    def spy(w, qs, idx=None, blend=em_refine.dq8_blend):
        calls.append((w.copy(), idx))
        return blend(w, qs, idx=idx)
    monkeypatch.setattr(em_refine, "dq8_blend", spy)
    return calls


def normalized(w):
    return w / w.sum(axis=1, keepdims=True)


def test_m_step_and_field_queries_weigh_through_the_one_rule(monkeypatch):
    m, _ = synth_generate(SynthSpec(n=400, outlier_ratio=0.3, seed=24))
    cfg = Config(seed=24, r=40.0)
    labels, state, _ = filter_and_refine(m, cfg)
    calls = spy_blend_weights(monkeypatch)
    g = state.graph
    m_step(replace(state), m, cfg)
    (w, idx), = calls
    assert idx is g.idx
    want = np.exp(-(g.dist * g.dist) / (2.0 * cfg.r * cfg.r)) * state.p[g.idx]
    assert w.tobytes() == normalized(want).tobytes()
    # a field query weighs its nearest inliers by the same rule
    calls.clear()
    pts = np.array([[100.0, 100.0], [400.0, 300.0], [650.0, 520.0]])
    query_field(state, labels, m, pts, cfg)
    (w, jdx), = calls
    inl = np.nonzero(labels.inlier)[0]
    dist = np.sqrt(np.sum((m.x[inl][jdx] - pts[:, None, :]) ** 2, axis=-1))
    want = np.exp(-(dist * dist) / (2.0 * cfg.r * cfg.r)) * labels.posterior[inl][jdx]
    assert np.allclose(w, normalized(want), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("path", ["filter_and_refine", "ransac_run-then-run_em"])
def test_a_run_builds_the_neighbor_graph_once(path, monkeypatch):
    # RANSAC builds the graph and hands it to EM on the outcome, also when a
    # caller passes only the outcome between the stages
    calls = count_builds(monkeypatch)
    m, _ = synth_generate(SynthSpec(n=400, outlier_ratio=0.5, seed=23))
    cfg = Config(seed=23)
    if path == "filter_and_refine":
        filter_and_refine(m, cfg)
    else:
        run_em(m, ransac.ransac_run(m, cfg), cfg)
    assert calls == ["matchfield.ransac"]


@pytest.mark.parametrize("dim,n_neighbor", [(2, 1), (2, 9), (2, 16), (3, 9), (3, 50)])
def test_one_kd_query_per_run_whatever_n_neighbor(dim, n_neighbor, monkeypatch):
    # the run's one graph is max(N_neighbor, 16) wide: the control pool
    # reads its first 16 columns and builds nothing, EM its first N_neighbor
    if dim == 2:
        m, _ = synth_generate(SynthSpec(n=400, outlier_ratio=0.5, seed=25))
    else:
        m, _ = synth_generate(SynthSpec(n=400, outlier_ratio=0.5, seed=25, **ACCEPTANCE_3D))
    cfg = Config.for_matches(m, seed=25, N_neighbor=n_neighbor)
    calls = count_builds(monkeypatch)
    labels, state, outcome = filter_and_refine(m, cfg)
    assert calls == ["matchfield.ransac"]
    assert outcome.graph.idx.shape == (m.n, max(n_neighbor, ransac.POOL_COLUMNS) + 1)
    assert state.graph.idx.shape == (m.n, n_neighbor + 1)
    assert graph_bytes(state.graph) == graph_bytes(build_neighbors(m, cfg))
    calls.clear()
    # the same labels and EM state as EM on a graph of its own
    assert em_bytes(labels, state) == em_bytes(*run_em(m, replace(outcome, graph=None), cfg))
    assert calls == ["matchfield.em_refine"]


def test_em_stops_at_the_iteration_cap(monkeypatch):
    # no scene reaches MAX_EM_ITERS = 50 (at most 15 iterations on synthetic
    # scenes at 30-97% outliers), so a cap of 2 stands in for it
    m, _ = synth_generate(SynthSpec(n=1000, outlier_ratio=0.9, seed=0))
    cfg = Config(seed=0)
    outcome = ransac_run(m, cfg)
    _, free = run_em(m, outcome, cfg)
    assert free.converged and free.n_iters > 2
    monkeypatch.setattr(em_refine, "MAX_EM_ITERS", 2)
    _, capped = run_em(m, outcome, cfg)
    assert not capped.converged and capped.n_iters == 2
    assert len(capped.delta_history) == 1 and capped.delta_history[0] >= cfg.theta
