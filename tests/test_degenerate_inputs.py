"""Valid but unusual inputs: duplicate matches, collapsed sources, the
smallest scenes RANSAC can cover, and outlier ratios past the paper's 85%
limit. Each case pins the behaviour measured on the current pipeline."""

import numpy as np
import pytest

from matchfield import ransac
from matchfield.cli import main
from matchfield.core import Config, DegenerateGeometryError, MatchSet, make_rng
from matchfield.em_refine import filter_and_refine
from matchfield.io_eval import SynthSpec, compute_metrics, load_labels, save_matches, synth_generate

SPEC_3D = dict(
    dim=3,
    n_anchors=3,
    max_rotation=0.05,
    max_scale_jitter=0.02,
    noise_sigma=0.05,
    bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
)


def fscore(m, gt, cfg):
    labels, _, outcome = filter_and_refine(m, cfg)
    return compute_metrics(labels, gt).fscore, labels, outcome


def assert_label_invariants(labels, n):
    assert labels.n == n
    assert np.isfinite(labels.posterior).all()
    assert ((labels.posterior >= 0.0) & (labels.posterior <= 1.0)).all()
    assert np.isfinite(labels.residual).all() and (labels.residual >= 0.0).all()


@pytest.mark.parametrize("dim, n, n_dup", [(2, 500, 100), (3, 300, 50)])
def test_duplicate_matches_keep_the_fscore(dim, n, n_dup):
    spec = SPEC_3D if dim == 3 else {}
    for seed in range(3):
        m, gt = synth_generate(SynthSpec(n=n, outlier_ratio=0.5, seed=seed, **spec))
        f_base, _, _ = fscore(m, gt, Config.for_matches(m, seed=seed))
        dup = make_rng(100 + seed).choice(n, n_dup, replace=False)
        md = MatchSet.from_points(np.concatenate([m.x, m.x[dup]]), np.concatenate([m.y, m.y[dup]]))
        f_dup, labels, _ = fscore(md, np.concatenate([gt, gt[dup]]), Config.for_matches(md, seed=seed))
        assert abs(f_dup - f_base) <= 0.01
        # a match and its copy get the same label
        assert np.array_equal(labels.inlier[n:], labels.inlier[dup])


@pytest.mark.parametrize("dim", [2, 3])
def test_identical_sources_find_no_motion_and_warn_consistently(tmp_path, capsys, dim):
    # every x on one point pins no rotation: RANSAC keeps no hypothesis,
    # and filter still exits 0 with a warning that states the label count
    rng = make_rng(60 + dim)
    n = 120
    x = np.tile(np.full(dim, 40.0), (n, 1))
    y = x + rng.normal(scale=300.0, size=(n, dim))
    m = MatchSet.from_points(x, y)
    _, _, outcome = filter_and_refine(m, Config.for_matches(m, seed=0))
    assert outcome.hypotheses == ()
    scene = tmp_path / "collapsed.csv"
    labels_csv = tmp_path / "labels.csv"
    save_matches(scene, m)
    assert main(["filter", "--input", str(scene), "--output", str(labels_csv), "--seed", "0"]) == 0
    err = capsys.readouterr().err
    n_in = int(load_labels(labels_csv).inlier.sum())
    assert "no rigid motion found" in err
    if n_in == 0:
        assert "labeling everything outlier" in err
    else:
        assert f"{n_in} of {n} matches are inliers" in err


@pytest.mark.parametrize("dim", [2, 3])
def test_collapsed_targets_find_no_motion_and_warn_consistently(tmp_path, capsys, monkeypatch, dim):
    # every y on one point: each trial's targets collapse onto the control,
    # so every trial is degenerate and RANSAC keeps no hypothesis; a
    # collapsed target box lets chance explain almost any support, so the
    # acceptance threshold (258 in 2D, 185 in 3D) ends the run after a few
    # trials. A neighbor's stretch is then its source distance: some 2D
    # sources have two neighbors within H and are drawn, no 3D source has,
    # so the 3D control pool falls back to every match
    rng = make_rng(70 + dim)
    n = 300
    x = rng.uniform(0.0, 200.0 if dim == 2 else 100.0, size=(n, dim))
    y = np.tile(x[0] + 5.0, (n, 1))
    m = MatchSet.from_points(x, y)
    degenerate = []
    fit = ransac.reweight_fit

    def counted_fit(*args, **kwargs):
        try:
            return fit(*args, **kwargs)
        except DegenerateGeometryError:
            degenerate.append(args[1])
            raise

    monkeypatch.setattr(ransac, "reweight_fit", counted_fit)
    labels, _, outcome = filter_and_refine(m, Config.for_matches(m, seed=0))
    assert outcome.hypotheses == ()
    assert outcome.trials == len(degenerate) == {2: 2, 3: 4}[dim]
    assert (outcome.pool == n) == (dim == 3)
    assert_label_invariants(labels, n)
    scene = tmp_path / "collapsed-targets.csv"
    labels_csv = tmp_path / "labels.csv"
    save_matches(scene, m)
    assert main(["filter", "--input", str(scene), "--output", str(labels_csv), "--seed", "0"]) == 0
    err = capsys.readouterr().err
    n_in = int(load_labels(labels_csv).inlier.sum())
    assert n_in == int(labels.inlier.sum())
    if n_in == 0:
        assert err == "warning: no rigid motion found, labeling everything outlier\n"
    else:
        assert err == (f"warning: no rigid motion found, refined from the identity motion, "
                       f"{n_in} of {n} matches are inliers\n")


def flat_scene_3d(seed, n=600, n_out=240):
    """Sources on the plane z = 0 under one 0.3 rad rotation about a generic
    axis, scale 1.05 and noise 0.05, with 40% uniform outlier targets."""
    rng = make_rng(seed)
    x = np.column_stack([rng.uniform(0.0, 100.0, size=(n, 2)), np.zeros(n)])
    k = np.array([[0.0, -2.0, 2.0], [2.0, 0.0, -1.0], [-2.0, 1.0, 0.0]]) / 3.0
    R = np.eye(3) + np.sin(0.3) * k + (1.0 - np.cos(0.3)) * k @ k
    y = 1.05 * x @ R.T + np.array([10.0, -5.0, 20.0]) + rng.normal(scale=0.05, size=(n, 3))
    out = rng.choice(n, size=n_out, replace=False)
    y[out] = rng.uniform(y.min(axis=0), y.max(axis=0), size=(n_out, 3))
    gt = np.ones(n, dtype=bool)
    gt[out] = False
    return MatchSet.from_points(x, y), gt


@pytest.mark.parametrize("seed", range(2))
def test_flat_3d_scene_finds_its_motion(seed):
    # coplanar sources give rank-2 cross matrices; rejecting those too left
    # this scene with 0 hypotheses in 358 trials and F 0.0, while a 0.1
    # z-spread gave F 1.0
    m, gt = flat_scene_3d(seed)
    f, labels, outcome = fscore(m, gt, Config.for_matches(m, seed=seed))
    assert_label_invariants(labels, m.n)
    assert outcome.hypotheses
    assert f >= 0.95


@pytest.mark.parametrize("seed", range(3))
def test_ninety_percent_outliers_keep_most_inliers(seed):
    # past the paper's 85% limit the filter degrades but still works:
    # F measured 0.92, 0.91 and 0.92 on these scenes; seed 2 lost every
    # inlier when an isolated EM row could vouch for itself
    m, gt = synth_generate(SynthSpec(n=1000, outlier_ratio=0.9, seed=seed))
    f, labels, _ = fscore(m, gt, Config(seed=seed))
    assert_label_invariants(labels, m.n)
    assert f >= 0.75


@pytest.mark.parametrize("seed", range(3))
def test_ninety_five_percent_outliers_give_valid_labels(seed):
    # far past the paper's limit: F measured 0.73, 0.73 and 0.70, from 8 or
    # 9 hypotheses that beat chance; a run that keeps hypotheses but no
    # inlier warns (test_cli.py::test_zero_inlier_run_warns_although_ransac_kept_motions)
    m, gt = synth_generate(SynthSpec(n=1000, outlier_ratio=0.95, seed=seed))
    _, labels, outcome = fscore(m, gt, Config(seed=seed))
    assert_label_invariants(labels, m.n)
    assert outcome.hypotheses
    assert labels.inlier.any()


@pytest.mark.parametrize("scale", [1e90, 1e103, 1e140])
def test_huge_3d_coordinates_keep_the_labels(tmp_path, capsys, scale):
    # the 3D config sets H = 0.1 s, and H**3 overflowed acceptance_threshold
    # at 1e103; p_c is now a product of ratios H / extent, each at most 1/2
    m, gt = synth_generate(SynthSpec(n=400, outlier_ratio=0.3, seed=5, **SPEC_3D))
    labels, _, _ = filter_and_refine(m, Config.for_matches(m, seed=5))
    big = MatchSet.from_points(m.x * scale, m.y * scale)
    big_labels, _, _ = filter_and_refine(big, Config.for_matches(big, seed=5))
    assert np.array_equal(big_labels.inlier, labels.inlier)
    assert compute_metrics(labels, gt).fscore > 0.99
    scene, out = tmp_path / "scene.csv", tmp_path / "labels.csv"
    save_matches(scene, big, gt=gt)
    assert main(["filter", "--input", str(scene), "--output", str(out), "--seed", "5"]) == 0
    assert np.array_equal(load_labels(out).inlier, labels.inlier)


def test_underflowing_chance_level_keeps_t_min(tmp_path, capsys):
    # 3D targets some 1e110 wide with H = 100: p_c = 4/3 pi prod H / extent
    # underflows to 0, and math.log(p_c) raised "math domain error" (exit
    # 2 naming nothing). Chance explains no support, so t_acc is T_MIN; H
    # is far below the 2e108 noise, so no motion is found and all matches
    # are outliers
    m, gt = synth_generate(SynthSpec(n=300, dim=3, seed=1))
    big = MatchSet.from_points(m.x * 1e108, m.y * 1e108)
    cfg = Config.for_matches(big, H=100.0)
    assert ransac.acceptance_threshold(big, cfg) == ransac.T_MIN
    labels, _, _ = filter_and_refine(big, cfg)
    assert_label_invariants(labels, big.n)
    assert not labels.inlier.any()
    scene, out = tmp_path / "scene.csv", tmp_path / "labels.csv"
    save_matches(scene, big, gt=gt)
    assert main(["filter", "--input", str(scene), "--output", str(out), "--H", "100"]) == 0
    assert np.array_equal(load_labels(out).inlier, labels.inlier)
    assert "no rigid motion found" in capsys.readouterr().err


def test_overflowing_residual_quotient_does_not_warn():
    # 2D clouds times 1e138 with H = 1e-20: EM's sigma is so small that
    # resid2 / (2 sigma^2) overflows, which warned under -W error although
    # G = exp(-inf) = 0 is what a finite quotient past 745 gives too
    m, _ = synth_generate(SynthSpec(n=300, seed=1))
    big = MatchSet.from_points(m.x * 1e138, m.y * 1e138)
    labels, _, _ = filter_and_refine(big, Config.for_matches(big, seed=1, H=1e-20))
    assert_label_invariants(labels, big.n)


@pytest.mark.parametrize("dim", [2, 3])
def test_coordinates_past_the_bound_exit_2(tmp_path, capsys, dim):
    # squared distances of 1e155 coordinates overflow, and the kd-tree then
    # reported neighbor index n (IndexError, exit 1); MatchSet now refuses
    # any coordinate past MAX_COORD = 1e145, so no run squares its way past
    # a float
    spec = SPEC_3D if dim == 3 else {}
    m, gt = synth_generate(SynthSpec(n=200, outlier_ratio=0.3, seed=1, **spec))
    with pytest.raises(ValueError, match=r"at most 1e\+145 in magnitude"):
        MatchSet.from_points(m.x * 1e155, m.y * 1e155)
    assert MatchSet.from_points(m.x, m.y + 1e145 - 1e143).n == m.n
    scene = tmp_path / "scene.csv"
    rows = [f"{dim},{m.n},units"] + [",".join(repr(float(v) * 1e155) for v in (*m.x[i], *m.y[i]))
                                     for i in range(m.n)]
    scene.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv")]) == 2
    assert "at most 1e+145 in magnitude" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
