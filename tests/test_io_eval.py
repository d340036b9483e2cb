import numpy as np
import pytest

from matchfield.core import Config, LabelResult, MatchSet, make_rng
from matchfield.io_eval import (
    DimensionMismatchError,
    MatchFileError,
    NonNumericRowError,
    SynthSpec,
    TruncatedFileError,
    compute_metrics,
    load_labels,
    load_matches,
    save_labels,
    save_matches,
    synth_generate,
)
from matchfield.ransac import weighted_rigid_fit


def test_match_file_round_trip(tmp_path):
    rng = make_rng(50)
    x = rng.uniform(0.0, 800.0, size=(40, 2))
    y = rng.uniform(0.0, 600.0, size=(40, 2))
    m = MatchSet.from_points(x, y)
    gt = rng.uniform(size=40) < 0.5
    path = tmp_path / "matches.csv"
    save_matches(path, m, gt=gt, units="pixels")
    m2, gt2 = load_matches(path)
    assert m2.dim == 2
    assert np.array_equal(m2.x, m.x)
    assert np.array_equal(m2.y, m.y)
    assert np.array_equal(gt2, gt)
    assert path.read_text().splitlines()[0] == "2,40,pixels"


def test_match_file_without_labels(tmp_path):
    m = MatchSet.from_points([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]], [[1.0, 1.0, 1.0], [2.0, 3.0, 4.0]])
    path = tmp_path / "m3.csv"
    save_matches(path, m)
    m2, gt2 = load_matches(path)
    assert m2.dim == 3 and gt2 is None
    assert np.array_equal(m2.y, m.y)


def test_load_matches_error_classes(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(TruncatedFileError):
        load_matches(p)
    p.write_text("2,2,units\n0,0,1,1\n")
    with pytest.raises(TruncatedFileError):
        load_matches(p)
    p.write_text("4,1,units\n0,0,0,0,1,1,1,1\n")
    with pytest.raises(DimensionMismatchError):
        load_matches(p)
    p.write_text("2,1,units\n0,0,1\n")
    with pytest.raises(DimensionMismatchError):
        load_matches(p)
    p.write_text("2,1,units\n0,oops,1,1\n")
    with pytest.raises(NonNumericRowError):
        load_matches(p)
    p.write_text("2,1,units\n0,nan,1,1\n")
    with pytest.raises(NonNumericRowError):
        load_matches(p)
    p.write_text("2,1,units\n0,0,1,1,2\n")
    with pytest.raises(NonNumericRowError):
        load_matches(p)  # gt flag must be 0 or 1
    p.write_text("2,1\n0,0,1,1\n")
    with pytest.raises(MatchFileError):
        load_matches(p)


def test_label_file_round_trip(tmp_path):
    labels = LabelResult(
        inlier=np.array([True, False, True]),
        posterior=np.array([0.9, 0.2, 0.51]),
        residual=np.array([1.5, 80.0, 3.25]),
    )
    path = tmp_path / "labels.csv"
    save_labels(path, labels)
    back = load_labels(path)
    assert np.array_equal(back.inlier, labels.inlier)
    assert np.array_equal(back.posterior, labels.posterior)
    assert np.array_equal(back.residual, labels.residual)


def test_load_labels_errors(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("wrong,header\n")
    with pytest.raises(MatchFileError):
        load_labels(p)
    p.write_text("index,inlier,posterior,residual\n1,1,0.5,0.0\n")
    with pytest.raises(MatchFileError):
        load_labels(p)  # indices must start at 0
    p.write_text("index,inlier,posterior,residual\n0,2,0.5,0.0\n")
    with pytest.raises(NonNumericRowError):
        load_labels(p)


def test_metrics_hand_values():
    # frozen: tp=4653 fn=47 fp=297 -> recall 0.99, precision 0.94,
    # fscore 2*0.99*0.94/1.93 = 0.9643523...
    gt = np.zeros(4997, dtype=bool)
    gt[:4700] = True
    pred = np.zeros(4997, dtype=bool)
    pred[:4653] = True
    pred[4700:] = True
    met = compute_metrics(pred, gt)
    assert met.n_errors == 47 + 297
    assert np.isclose(met.recall, 0.99)
    assert np.isclose(met.precision, 0.94)
    assert np.isclose(met.fscore, 2.0 * 0.99 * 0.94 / 1.93)
    assert met.recall_defined


def test_metrics_edge_cases():
    met = compute_metrics(np.array([False, False]), np.array([False, False]))
    assert met.recall == 0.0 and not met.recall_defined
    assert met.precision == 0.0 and met.fscore == 0.0 and met.n_errors == 0
    met = compute_metrics(np.array([False, True]), np.array([True, True]))
    assert met.recall == 0.5 and met.precision == 1.0
    with pytest.raises(ValueError):
        compute_metrics(np.array([True]), np.array([True, False]))


def test_metrics_accept_label_result_and_ignore_order():
    rng = make_rng(51)
    gt = rng.uniform(size=200) < 0.6
    pred = gt ^ (rng.uniform(size=200) < 0.1)
    met = compute_metrics(pred, gt)
    perm = rng.permutation(200)
    met_p = compute_metrics(pred[perm], gt[perm])
    assert met == met_p
    labels = LabelResult(
        inlier=pred, posterior=pred.astype(float), residual=np.zeros(200)
    )
    assert compute_metrics(labels, gt) == met


def test_synth_is_deterministic_and_respects_counts():
    spec = SynthSpec(n=250, outlier_ratio=0.3, seed=12)
    m1, gt1 = synth_generate(spec)
    m2, gt2 = synth_generate(spec)
    assert np.array_equal(m1.x, m2.x)
    assert np.array_equal(m1.y, m2.y)
    assert np.array_equal(gt1, gt2)
    assert int((~gt1).sum()) == round(0.3 * 250)
    m3, gt3 = synth_generate(SynthSpec(n=250, outlier_ratio=0.3, seed=13))
    assert not np.array_equal(m1.y, m3.y)


def test_synth_points_inside_bounds():
    spec = SynthSpec(n=300, outlier_ratio=0.5, seed=3)
    m, gt = synth_generate(spec)
    mins, maxs = np.array(spec.bounds[0]), np.array(spec.bounds[1])
    assert (m.x >= mins).all() and (m.x <= maxs).all()
    # outlier targets are drawn inside the bounds too
    assert (m.y[~gt] >= mins).all() and (m.y[~gt] <= maxs).all()


def test_synth_single_anchor_is_one_similarity():
    spec = SynthSpec(
        n=100, outlier_ratio=0.0, n_anchors=1, max_scale_jitter=0.0, noise_sigma=0.0, seed=4
    )
    m, gt = synth_generate(spec)
    assert gt.all()
    R, mu = weighted_rigid_fit(m, 0, np.ones(m.n))
    pred = m.y[0] + mu * ((m.x - m.x[0]) @ R.T)
    assert np.abs(pred - m.y).max() < 1e-9


def test_synth_multiple_anchors_bend_the_field():
    spec = SynthSpec(n=400, outlier_ratio=0.0, noise_sigma=0.0, seed=5)
    m, gt = synth_generate(spec)
    R, mu = weighted_rigid_fit(m, 0, np.ones(m.n))
    pred = m.y[0] + mu * ((m.x - m.x[0]) @ R.T)
    # no single similarity explains a three-anchor scene
    assert np.abs(pred - m.y).max() > 5.0


def test_synth_3d_scene():
    spec = SynthSpec(
        n=150,
        dim=3,
        outlier_ratio=0.4,
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
        seed=6,
    )
    m, gt = synth_generate(spec)
    assert m.dim == 3
    assert m.x.shape == (150, 3)
    assert int(gt.sum()) == 150 - round(0.4 * 150)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(dim=4)
    with pytest.raises(ValueError):
        SynthSpec(n=0)
    with pytest.raises(ValueError):
        SynthSpec(outlier_ratio=1.0)
    with pytest.raises(ValueError):
        SynthSpec(n_anchors=0)
    with pytest.raises(ValueError):
        SynthSpec(max_scale_jitter=1.0)
    with pytest.raises(ValueError):
        SynthSpec(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        SynthSpec(bounds=((0.0, 0.0), (0.0, 600.0)))
    with pytest.raises(ValueError):
        SynthSpec(dim=3, bounds=((0.0, 0.0), (800.0, 600.0)))


def reference_save_matches(path, m, gt=None, units="units"):
    # the per-row writer the column-wise save_matches replaced
    lines = [f"{m.dim},{m.n},{units}"]
    for i in range(m.n):
        vals = [repr(float(v)) for v in m.x[i]] + [repr(float(v)) for v in m.y[i]]
        if gt is not None:
            vals.append("1" if gt[i] else "0")
        lines.append(",".join(vals))
    path.write_text("\n".join(lines) + "\n")


def reference_save_labels(path, labels):
    lines = ["index,inlier,posterior,residual"]
    for i in range(labels.n):
        lines.append(
            f"{i},{1 if labels.inlier[i] else 0},{repr(float(labels.posterior[i]))},"
            f"{repr(float(labels.residual[i]))}"
        )
    path.write_text("\n".join(lines) + "\n")


def awkward_floats(rng, shape):
    # ordinary values plus negative zeros, integers, and huge and tiny
    # magnitudes, all of which repr spells differently
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = v.reshape(-1)
    flat[::7] = -0.0
    flat[1::7] = np.round(flat[1::7] * 1e-290)
    flat[2::7] = 5e-324
    return v


@pytest.mark.parametrize("dim", [2, 3])
def test_match_file_bytes_match_per_row_writer(tmp_path, dim):
    rng = make_rng(60 + dim)
    m = MatchSet.from_points(awkward_floats(rng, (57, dim)), awkward_floats(rng, (57, dim)))
    gt = rng.uniform(size=57) < 0.5
    for flags in (gt, None):
        save_matches(tmp_path / "got.csv", m, gt=flags, units="pixels")
        reference_save_matches(tmp_path / "want.csv", m, gt=flags, units="pixels")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert "-0.0" in (tmp_path / "got.csv").read_text()


def test_label_file_bytes_match_per_row_writer(tmp_path):
    rng = make_rng(62)
    n = 1234
    labels = LabelResult(
        inlier=rng.uniform(size=n) < 0.4,
        posterior=np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(size=n)),
        residual=np.abs(awkward_floats(rng, (n,))),
    )
    save_labels(tmp_path / "got.csv", labels)
    reference_save_labels(tmp_path / "want.csv", labels)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
