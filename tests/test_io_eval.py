import re
import tracemalloc

import numpy as np
import pytest

from matchfield.cli import main
from matchfield.core import Config, LabelResult, MatchSet, make_rng
from matchfield.field import FieldGrid, FieldSample, write_field_csv
from matchfield.io_eval import (
    CSV_BLOCK,
    MatchFileError,
    SynthSpec,
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
    with pytest.raises(MatchFileError):
        load_matches(p)
    p.write_text("2,2,units\n0,0,1,1\n")
    with pytest.raises(MatchFileError):
        load_matches(p)
    p.write_text("4,1,units\n0,0,0,0,1,1,1,1\n")
    with pytest.raises(MatchFileError):
        load_matches(p)
    p.write_text("2,1,units\n0,0,1\n")
    with pytest.raises(MatchFileError):
        load_matches(p)
    p.write_text("2,1,units\n0,oops,1,1\n")
    with pytest.raises(MatchFileError):
        load_matches(p)
    p.write_text("2,1,units\n0,nan,1,1\n")
    with pytest.raises(MatchFileError):
        load_matches(p)
    p.write_text("2,1,units\n0,0,1,1,2\n")
    with pytest.raises(MatchFileError):
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
    # spaces around an inlier flag are stripped, as around a gt flag
    path.write_text(path.read_text().replace(",1,", ", 1 ,").replace(",0,", ",0 ,"))
    assert np.array_equal(load_labels(path).inlier, labels.inlier)


def test_load_labels_errors(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("wrong,header\n")
    with pytest.raises(MatchFileError):
        load_labels(p)
    p.write_text("index,inlier,posterior,residual\n1,1,0.5,0.0\n")
    with pytest.raises(MatchFileError):
        load_labels(p)  # indices must start at 0
    p.write_text("index,inlier,posterior,residual\n0,2,0.5,0.0\n")
    with pytest.raises(MatchFileError):
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
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SynthSpec(seed=-1)
    with pytest.raises(ValueError):
        SynthSpec(bounds=((0.0, 0.0), (0.0, 600.0)))
    with pytest.raises(ValueError):
        SynthSpec(dim=3, bounds=((0.0, 0.0), (800.0, 600.0)))
    # finite corners whose extent overflows a float break the coordinate rule
    with pytest.raises(ValueError, match=r"bounds must be finite and at most 1e\+145"):
        SynthSpec(bounds=((-1e308, -1e308), (1e308, 1e308)))


@pytest.mark.parametrize("name", ["max_rotation", "noise_sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -0.5, -1e-300])
def test_synth_spec_rejects_a_non_finite_or_negative_rotation_or_noise(name, value):
    # nan once passed the noise check and meant no noise; inf and negative
    # rotations ended in numpy errors when the scene was drawn
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and non-negative, got {value}")):
        SynthSpec(**{name: value})
    # zero is legal: a rigid scene, or one without noise
    assert getattr(SynthSpec(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("name", ["n", "dim", "n_anchors", "seed"])
@pytest.mark.parametrize("value", [2.0, 2.5, True, np.float64(3.0)])
def test_synth_spec_rejects_integer_fields_given_as_floats_or_bools(name, value):
    # n=2.5 once ended in numpy's "'float' object cannot be interpreted as
    # an integer", and dim=2.0 passed as 2
    want = f"dim must be 2 or 3, got {value}" if name == "dim" else f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        SynthSpec(**{name: value})


def test_synth_spec_takes_python_and_numpy_integers():
    plain = synth_generate(SynthSpec(n=40, dim=3, n_anchors=2, seed=7))
    spec = SynthSpec(n=np.int64(40), dim=np.int32(3), n_anchors=np.uint8(2), seed=np.int64(7))
    m, gt = synth_generate(spec)
    assert m.x.tobytes() == plain[0].x.tobytes() and m.y.tobytes() == plain[0].y.tobytes()
    assert gt.tolist() == plain[1].tolist()


@pytest.mark.parametrize("dim", [2, 3])
def test_synth_rejects_squared_extent_overflow_and_keeps_huge_boxes_finite(dim):
    # squares of 2e200 overflow a float; the coordinate rule refuses such a
    # box, and any box past 1e145, before a point is drawn
    for bound in (1e200, 1e150):
        with pytest.raises(ValueError, match=r"bounds must be finite and at most 1e\+145"):
            SynthSpec(dim=dim, bounds=((-bound,) * dim, (bound,) * dim))
    # a box of extent 1e140 gives a finite scene (RuntimeWarnings are errors
    # under the test settings)
    m, gt = synth_generate(SynthSpec(n=200, dim=dim, bounds=((0.0,) * dim, (1e140,) * dim)))
    assert np.isfinite(m.x).all() and np.isfinite(m.y).all()
    assert gt.sum() == 100 and np.ptp(m.x, axis=0).min() > 1e139
    # the widest box the rule allows takes no squared extent past a float
    assert SynthSpec(dim=dim, bounds=((-1e145,) * dim, (1e145,) * dim)).n == 1000


NEAR_BOUND_BOXES = [(-1e145, 1e145), (0.0, 1e145), (-1e145, 0.0)]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lo, hi", NEAR_BOUND_BOXES)
def test_synth_names_the_box_whose_motions_carry_targets_past_the_rule(dim, lo, hi):
    # the box keeps the coordinate rule, but rotations, scale jitter and
    # translations move inlier targets out of it; the error names the box,
    # not a match the caller never wrote
    spec = SynthSpec(n=300, dim=dim, bounds=((lo,) * dim, (hi,) * dim), seed=3)
    box = f"box {[lo] * dim} to {[hi] * dim}: its anchor motions carry targets past the "
    with pytest.raises(ValueError) as e:
        synth_generate(spec)
    assert str(e.value) == box + "coordinate rule, finite and at most 1e+145 in magnitude"


def test_synth_spec_default_box_follows_dim():
    assert SynthSpec().bounds == ((0.0, 0.0), (800.0, 600.0))
    assert SynthSpec(dim=3).bounds == ((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
    assert SynthSpec(dim=3) == SynthSpec(dim=3, bounds=((0.0,) * 3, (100.0,) * 3))


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


def awkward_floats(rng, shape, top=300):
    # ordinary values plus negative zeros, integers, and huge and tiny
    # magnitudes up to 10**top, all of which repr spells differently
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-300, top, size=shape)
    flat = v.reshape(-1)
    flat[::7] = -0.0
    flat[1::7] = np.round(flat[1::7] * 1e-290)
    flat[2::7] = 5e-324
    return v


# row counts at either side of the writer's block seams; a block boundary
# that drops, repeats or merges a row changes the bytes
SEAM_ROWS = [0, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 1]


@pytest.mark.parametrize("dim", [2, 3])
def test_match_file_bytes_match_per_row_writer(tmp_path, dim):
    # a MatchSet holds at least one match, so its shortest file has one row
    for rows in [57, 1] + SEAM_ROWS[1:]:
        rng = make_rng(60 + dim)
        m = MatchSet.from_points(awkward_floats(rng, (rows, dim), top=140),
                                 awkward_floats(rng, (rows, dim), top=140))
        gt = rng.uniform(size=rows) < 0.5
        for flags in (gt, None):
            save_matches(tmp_path / "got.csv", m, gt=flags, units="pixels")
            reference_save_matches(tmp_path / "want.csv", m, gt=flags, units="pixels")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert "-0.0" in (tmp_path / "got.csv").read_text()


def test_label_file_bytes_match_per_row_writer(tmp_path):
    for n in [1234] + SEAM_ROWS:
        rng = make_rng(62)
        labels = LabelResult(
            inlier=rng.uniform(size=n) < 0.4,
            posterior=np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(size=n)),
            residual=np.abs(awkward_floats(rng, (n,))),
        )
        save_labels(tmp_path / "got.csv", labels)
        reference_save_labels(tmp_path / "want.csv", labels)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def traced_peak(write) -> int:
    """The peak of memory traced while write() runs, in bytes."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writers_hold_a_block_not_the_file(tmp_path):
    # written whole, a file's cells, rows and text peaked at 8-9x its size;
    # streamed in blocks, the match and label writers hold one block however
    # long the file, and the field writer also the columns it gathers from
    # its samples
    peaks = {}
    for n in (20_000, 80_000):
        rng = make_rng(n)
        x, y = rng.uniform(0.0, 800.0, size=(2, n, 2))
        m = MatchSet.from_points(x, y)
        labels = LabelResult(inlier=rng.uniform(size=n) < 0.5, posterior=rng.uniform(size=n),
                             residual=rng.uniform(0.0, 50.0, size=n))
        grid = FieldGrid(shape=(n,), samples=tuple(map(
            FieldSample, x, y, labels.posterior.tolist(), labels.inlier.tolist())))
        writers = {"save_matches": lambda p: save_matches(p, m, gt=labels.inlier),
                   "save_labels": lambda p: save_labels(p, labels),
                   "write_field_csv": lambda p: write_field_csv(grid, p, 2)}
        for name, write in writers.items():
            path = tmp_path / f"{name}.csv"
            peaks[name, n] = traced_peak(lambda: write(path))
            assert peaks[name, n] < 1.5 * path.stat().st_size, (name, n)
    for name in ("save_matches", "save_labels"):
        assert abs(peaks[name, 80_000] - peaks[name, 20_000]) < 0.2e6, name


def reference_load_matches(path):
    # the per-row parser the bulk load_matches replaced, for valid files
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    dim, n = (int(v) for v in lines[0].split(",")[:2])
    has_gt = len(lines[1].split(",")) == 2 * dim + 1
    x, y, gt = np.empty((n, dim)), np.empty((n, dim)), np.empty(n, dtype=bool)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        vals = [float(v) for v in parts[: 2 * dim]]
        x[i], y[i] = vals[:dim], vals[dim:]
        if has_gt:
            gt[i] = parts[2 * dim].strip() == "1"
    return x, y, (gt if has_gt else None)


@pytest.mark.parametrize("dim", [2, 3])
def test_bulk_parse_equals_the_per_row_parser(tmp_path, dim):
    rng = make_rng(70 + dim)
    m = MatchSet.from_points(awkward_floats(rng, (83, dim), top=140),
                             awkward_floats(rng, (83, dim), top=140))
    gt = rng.uniform(size=83) < 0.5
    p = tmp_path / "m.csv"
    for flags in (gt, None):
        save_matches(p, m, gt=flags)
        # spellings float() accepts besides repr: padding, signs, exponents,
        # digit separators, and flags with spaces around them
        lines = p.read_text().splitlines()
        lines[1] = ",".join(f" {v} " for v in lines[1].split(","))
        lines[2] = ",".join(["+1e3", "1_000.5", "-0", "  7"] + lines[2].split(",")[4:])
        p.write_text("\n".join(lines) + "\n")
        got, got_gt = load_matches(p)
        x, y, want_gt = reference_load_matches(p)
        assert got.x.tobytes() == x.tobytes() and got.y.tobytes() == y.tobytes()
        if flags is None:
            assert got_gt is None and want_gt is None
        else:
            assert np.array_equal(got_gt, want_gt) and np.array_equal(got_gt, flags)


def test_line_endings_and_blank_lines_read_identically(tmp_path):
    rng = make_rng(74)
    m = MatchSet.from_points(rng.normal(size=(40, 2)), rng.normal(size=(40, 2)))
    labels = LabelResult(
        inlier=rng.uniform(size=40) < 0.5,
        posterior=rng.uniform(size=40),
        residual=rng.uniform(size=40),
    )
    for save, load, unpack in (
        (lambda p: save_matches(p, m, gt=labels.inlier), load_matches,
         lambda r: (r[0].x, r[0].y, r[1])),
        (lambda p: save_labels(p, labels), load_labels,
         lambda r: (r.inlier, r.posterior, r.residual)),
    ):
        plain = tmp_path / "plain.csv"
        save(plain)
        text = plain.read_text()
        lines = text.splitlines()
        variants = {
            "crlf": text.replace("\n", "\r\n"),
            "blank": "\n" + "\n\n".join(lines[:5]) + "\n   \n\t\n" + "\n".join(lines[5:]) + "\n\n\n",
            "crlf-blank": "\r\n".join(lines[:3] + [""] + lines[3:]) + "\r\n\r\n",
            "no-final-newline": text.rstrip("\n"),
        }
        want = unpack(load(plain))
        for name, body in variants.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(body.encode())
            got = unpack(load(path))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), name


MATCH_ROWS = ["0,0,1,1,1", "2,2,3,3,0"]


@pytest.mark.parametrize(
    "bad_rows, message",
    [
        # a row of the wrong width after rows that set the gt column
        (["6,6,7,7", "8,8,9,9,1"], "row 3 has 4 fields, expected 5 for dim=2"),
        (["6,6,7,7,1,1", "8,8,9,9,1"], "row 3 has 6 fields, expected 5 for dim=2"),
        (["6,oops,7,7,1", "8,8,9,9,1"], "row 3: could not convert string to float: 'oops'"),
        (["6,inf,7,7,1", "8,8,9,9,1"],
         "row 3: coordinates must be finite and at most 1e+145 in magnitude"),
        (["6,6,7,7,2", "8,8,9,9,1"], "row 3: gt flag must be 0 or 1"),
        # the first bad row names the error, whatever the later rows hold
        (["6,nan,7,7,1", "8,oops,9,9,1"],
         "row 3: coordinates must be finite and at most 1e+145 in magnitude"),
        (["6,6,7,7,1.0", "8,8"], "row 3: gt flag must be 0 or 1"),
        (["6,6,7,7,x", "8,8,9,-inf,1"], "row 3: gt flag must be 0 or 1"),
        (["6,6,7,oops,1", "8,8,9,9,7"], "row 3: could not convert string to float: 'oops'"),
        # a finite coordinate past the coordinate rule's 1e145 is named by
        # row too, not left to MatchSet, which knows neither path nor row
        (["6,6,1e160,7,1", "8,8,9,9,1"],
         "row 3: coordinates must be finite and at most 1e+145 in magnitude"),
        (["6,6,7,7,1", "8,-1e146,9,9,1"],
         "row 4: coordinates must be finite and at most 1e+145 in magnitude"),
    ],
)
def test_match_file_errors_name_the_first_bad_row(tmp_path, bad_rows, message):
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(["2,4,units", *MATCH_ROWS, *bad_rows]) + "\n")
    with pytest.raises(MatchFileError) as info:
        load_matches(p)
    assert str(info.value) == f"{p}: {message}"


def test_match_file_width_errors_without_gt_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("2,3,units\n0,0,1\n2,2,3,3\n4,4,5,5\n")
    with pytest.raises(MatchFileError) as info:
        load_matches(p)
    assert str(info.value) == f"{p}: row 1 has 3 fields, expected 4 for dim=2"
    p.write_text("3,3,units\n0,0,0,1,1,1\n2,2,2,3,3,3\n4,4,4,5,5\n")
    with pytest.raises(MatchFileError) as info:
        load_matches(p)
    assert str(info.value) == f"{p}: row 3 has 5 fields, expected 6 for dim=3"


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("2,1,0.5,0.0,9", "row 3 has 5 fields"),
        ("2,1,half,0.0", "row 3: could not convert string to float: 'half'"),
        ("2,2,0.5,0.0", "row 3: inlier flag must be 0 or 1"),
        ("2, 2 ,0.5,0.0", "row 3: inlier flag must be 0 or 1"),
        # padding around the flag is stripped, as around a match file's gt
        # flag, so this row reads and the next one fails
        ("2, 1, 0.5, 3.0", "row 4 has 3 fields"),
        ("two,1,0.5,0.0", "row 3: invalid literal for int() with base 10: 'two'"),
        ("3,1,0.5,0.0", "rows out of order at 3"),
    ],
)
def test_label_file_errors_name_the_first_bad_row(tmp_path, bad_row, message):
    p = tmp_path / "bad.csv"
    rows = ["index,inlier,posterior,residual", "0,1,0.9,1.5", "1,0,0.1,80.0", bad_row, "3,x,y"]
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(MatchFileError) as info:
        load_labels(p)
    assert str(info.value) == f"{p}: {message}"


def test_save_matches_rejects_a_flag_array_of_another_length(tmp_path):
    m = MatchSet.from_points(np.zeros((4, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="one flag per match"):
        save_matches(tmp_path / "m.csv", m, gt=np.ones(3, dtype=bool))
    assert not (tmp_path / "m.csv").exists()


def test_save_matches_writes_only_units_load_matches_reads_back(tmp_path):
    # units is the header's third field: a comma or any line break
    # str.splitlines knows would give a header load_matches refuses
    m = MatchSet.from_points(np.zeros((4, 2)), np.ones((4, 2)))
    p = tmp_path / "m.csv"
    for units in ("a,b", "a\nb", "a\r\nb", "a\rb", "a\x0bb", "a\u2028b", "mm\n"):
        with pytest.raises(ValueError, match="units must hold no comma or line break"):
            save_matches(p, m, units=units)
        assert not p.exists()
    for units in ("mm (scan 2)", "", "µm"):
        save_matches(p, m, units=units)
        m2, _ = load_matches(p)
        assert np.array_equal(m2.x, m.x) and np.array_equal(m2.y, m.y)
        assert p.read_text().splitlines()[0] == f"2,4,{units}"


@pytest.mark.parametrize("dim", [2, 3])
def test_a_match_file_of_no_rows_is_named(tmp_path, capsys, dim):
    p = tmp_path / "m.csv"
    p.write_text(f"{dim},0,units\n")
    message = f"{p}: header declares 0 rows, need at least one match"
    with pytest.raises(MatchFileError) as e:
        load_matches(p)
    assert str(e.value) == message
    assert main(["filter", "--input", str(p), "--output", str(tmp_path / "l.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "l.csv").exists()


@pytest.mark.parametrize("header", ["two,1,units", "2,one,units", "2,1.5,units"])
def test_non_numeric_header_counts_are_named(tmp_path, header):
    p = tmp_path / "m.csv"
    p.write_text(f"{header}\n0,0,1,1\n")
    with pytest.raises(MatchFileError, match="non-numeric header counts"):
        load_matches(p)


def test_well_formed_label_file_with_a_non_numeric_posterior(tmp_path):
    # widths and indices pass the bulk checks; float() fails in bulk, and the
    # row walk names the row
    p = tmp_path / "l.csv"
    p.write_text("index,inlier,posterior,residual\n0,1,0.5,1.0\n1,0,half,2.0\n")
    with pytest.raises(MatchFileError, match="row 2"):
        load_labels(p)
