"""Metamorphic checks: transforming the input in a way the model is
invariant to must leave the run unchanged."""

from dataclasses import replace

import numpy as np
import pytest

from matchfield.core import Config, MatchSet
from matchfield.em_refine import run_em
from matchfield.io_eval import SynthSpec, synth_generate
from matchfield.ransac import ransac_run


def run_pipeline(m, cfg):
    outcome = ransac_run(m, cfg)
    labels, _ = run_em(m, outcome, cfg)
    return outcome, labels


def scene_2d():
    m, _ = synth_generate(SynthSpec(n=1000, outlier_ratio=0.70, seed=8))
    return m, Config(seed=8)


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
    m, _ = synth_generate(spec)
    return m, Config.for_matches(m, seed=8)


@pytest.mark.parametrize("make_scene", [scene_2d, scene_3d], ids=["2d", "3d"])
def test_rescale_with_rescaled_thresholds_is_bit_identical(make_scene):
    # a similarity rescale by s with H s, r s and a / s^2 (a is a density
    # per unit area) leaves every decision unchanged; powers of two keep
    # the scaled coordinates exact
    m, cfg = make_scene()
    base_out, base = run_pipeline(m, cfg)
    assert base.inlier.any()
    for s in (4.0, 0.25):
        ms = MatchSet.from_points(m.x * s, m.y * s)
        cs = replace(cfg, H=cfg.H * s, r=cfg.r * s, a=cfg.a / s**2)
        out, labels = run_pipeline(ms, cs)
        assert out.trials == base_out.trials
        assert np.array_equal(labels.inlier, base.inlier)
        assert np.array_equal(labels.posterior, base.posterior)
