"""Metamorphic checks: transforming the input in a way the model is
invariant to must leave the run unchanged."""

from dataclasses import replace

import numpy as np
import pytest

from matchfield.core import Config, MatchSet, make_rng
from matchfield.em_refine import run_em
from matchfield.io_eval import SynthSpec, compute_metrics, synth_generate
from matchfield.ransac import ransac_run


def run_pipeline(m, cfg):
    outcome = ransac_run(m, cfg)
    labels, _ = run_em(m, outcome, cfg)
    return outcome, labels


def scene_2d():
    m, gt = synth_generate(SynthSpec(n=1000, outlier_ratio=0.70, seed=8))
    return m, gt, Config(seed=8)


def scene_3d():
    spec = SynthSpec(
        n=693,
        dim=3,
        outlier_ratio=0.84,
        n_anchors=3,
        max_rotation=0.05,
        max_scale_jitter=0.02,
        noise_sigma=0.05,
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
        seed=8,
    )
    m, gt = synth_generate(spec)
    return m, gt, Config.for_matches(m, seed=8)


@pytest.mark.parametrize("make_scene", [scene_2d, scene_3d], ids=["2d", "3d"])
def test_rescale_with_rescaled_thresholds_is_bit_identical(make_scene):
    # a similarity rescale by s with H s and r s leaves every decision
    # unchanged: sigma and the targets' padded box, whose ratio gives EM's
    # outlier term, rescale with the scene. Powers of two keep the scaled
    # coordinates exact
    m, _, cfg = make_scene()
    base_out, base = run_pipeline(m, cfg)
    assert base.inlier.any()
    for s in (4.0, 0.25):
        ms = MatchSet.from_points(m.x * s, m.y * s)
        cs = replace(cfg, H=cfg.H * s, r=cfg.r * s)
        out, labels = run_pipeline(ms, cs)
        assert out.trials == base_out.trials
        assert np.array_equal(labels.inlier, base.inlier)
        assert np.array_equal(labels.posterior, base.posterior)


def test_3d_rescale_with_plain_config_keeps_labels():
    # Config.for_matches adapts H and r to the cloud scale, and EM's outlier
    # term is a ratio of lengths, so a change of units alone leaves every
    # label unchanged; powers of two keep the posteriors bit-identical, other
    # factors round in the last bits. A spread far below 1 is a scale like
    # any other, not a collapsed cloud
    m, _, cfg = scene_3d()
    _, base = run_pipeline(m, cfg)
    assert base.inlier.any()
    for s, tol in ((4.0, 0.0), (0.25, 0.0), (10.0, 1e-12), (0.1, 1e-12),
                   (2.0 ** -50, 0.0), (2.0 ** -300, 0.0), (2.0 ** -480, 0.0)):
        ms = MatchSet.from_points(m.x * s, m.y * s)
        _, labels = run_pipeline(ms, Config.for_matches(ms, seed=8))
        assert np.array_equal(labels.inlier, base.inlier)
        assert np.abs(labels.posterior - base.posterior).max() <= tol


@pytest.mark.parametrize("make_scene", [scene_2d, scene_3d], ids=["2d", "3d"])
def test_permuting_the_matches_keeps_the_fscore(make_scene):
    # match order only changes which controls RANSAC draws first
    m, gt, cfg = make_scene()
    _, base = run_pipeline(m, cfg)
    f_base = compute_metrics(base, gt).fscore
    rng = make_rng(0)
    for _ in range(3):
        perm = rng.permutation(m.n)
        _, labels = run_pipeline(MatchSet.from_points(m.x[perm], m.y[perm]), cfg)
        assert abs(compute_metrics(labels, gt[perm]).fscore - f_base) <= 0.01


def scene_2d_half_outliers(seed):
    m, gt = synth_generate(SynthSpec(n=1000, outlier_ratio=0.5, seed=seed))
    return m, gt, Config(seed=seed)


SWAP_SCENES = [
    pytest.param(lambda seed=seed: scene_2d_half_outliers(seed), id=f"2d-seed{seed}")
    for seed in range(3)
] + [pytest.param(scene_3d, id="3d")]


@pytest.mark.parametrize("make_scene", SWAP_SCENES)
def test_permuting_the_coordinate_axes_keeps_the_fscore(make_scene):
    # the same axis permutation of both clouds (a reflection in 2D) is a
    # change of frame; the scale estimate and so the config do not move
    m, gt, cfg = make_scene()
    _, base = run_pipeline(m, cfg)
    perm = [1, 0] if m.dim == 2 else [2, 0, 1]
    _, labels = run_pipeline(MatchSet.from_points(m.x[:, perm], m.y[:, perm]), cfg)
    assert abs(compute_metrics(labels, gt).fscore - compute_metrics(base, gt).fscore) <= 0.01


@pytest.mark.parametrize("make_scene", SWAP_SCENES)
def test_swapping_source_and_target_keeps_the_fscore(make_scene):
    # the inverse of a locally rigid field is locally rigid, so matching y
    # to x finds the same inliers; the scale estimate is symmetric in x, y
    m, gt, cfg = make_scene()
    _, base = run_pipeline(m, cfg)
    _, labels = run_pipeline(MatchSet.from_points(m.y, m.x), cfg)
    assert abs(compute_metrics(labels, gt).fscore - compute_metrics(base, gt).fscore) <= 0.01


def rotation(dim):
    """45 degrees about the z axis in 3D, the same turn in the plane in 2D."""
    c = s = np.sqrt(0.5)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return R[:dim, :dim]


@pytest.mark.parametrize("dim, ratio", [(2, 0.85), (3, 0.85), (3, 0.5)])
def test_rotating_the_targets_about_their_centre_keeps_the_mean_fscore(dim, ratio):
    # a rigid turn of the targets composes with every local motion, so the
    # field stays locally rigid; only the targets' axis-aligned box, and
    # with it the acceptance threshold and EM's outlier density, moves.
    # Labels may flip near the threshold, but the mean F over a few scenes
    # holds
    f_base, f_rot = [], []
    for seed in range(4):
        m, gt = synth_generate(SynthSpec(n=1000, dim=dim, outlier_ratio=ratio, seed=seed))
        cfg = Config.for_matches(m, seed=seed)
        _, base = run_pipeline(m, cfg)
        centre = m.y.mean(axis=0)
        turned = MatchSet.from_points(m.x, (m.y - centre) @ rotation(dim).T + centre)
        _, labels = run_pipeline(turned, cfg)
        f_base.append(compute_metrics(base, gt).fscore)
        f_rot.append(compute_metrics(labels, gt).fscore)
    assert min(f_base) > 0.9
    assert abs(np.mean(f_rot) - np.mean(f_base)) <= 0.01
