from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from matchfield import em_refine, field
from matchfield.core import N_NEIGHBOR, Config, LabelResult, MatchSet, make_rng
from matchfield.dualquat import dq8_apply, dq8_blend, embed3
from matchfield.em_refine import filter_and_refine, run_em
from matchfield.field import (
    QUERY_BLOCK,
    FieldGrid,
    FieldSample,
    grid_axes,
    grid_field,
    query_field,
    render_scene_svg,
    write_field_csv,
)
from matchfield.io_eval import CSV_BLOCK, SynthSpec, synth_generate
from matchfield.ransac import RansacOutcome

from test_dualquat import reference_dq8_blend


def rigid_pipeline(seed=1, n=120):
    rng = make_rng(seed)
    ang = 0.4
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    t = np.array([12.0, -7.0])
    mu = 1.1
    x = rng.uniform(0.0, 500.0, size=(n, 2))
    y = mu * (x @ R.T + t)
    m = MatchSet.from_points(x, y)
    cfg = Config(seed=seed)
    labels, state, out = filter_and_refine(m, cfg)
    return m, cfg, labels, state, R, t, mu


def test_query_at_match_points_reproduces_targets():
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    samples = query_field(state, labels, m, m.x, cfg)
    assert all(s.valid for s in samples)
    got = np.stack([s.displaced for s in samples])
    assert np.abs(got - m.y).max() < 1e-6


def test_grid_matches_matrix_oracle_on_rigid_scene():
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    grid = grid_field(state, labels, m, (np.array([50.0, 50.0]), np.array([450.0, 450.0])), 100.0, cfg)
    for s in grid.samples:
        assert s.valid
        want = mu * (R @ s.query + t)
        assert np.abs(s.displaced - want).max() < 1e-6


def test_grid_axes_lattice_sizes():
    axes = grid_axes((np.zeros(2), np.array([800.0, 600.0])), 50.0, 2)
    assert len(axes[0]) == 17
    assert len(axes[1]) == 13
    assert axes[0][0] == 0.0 and axes[0][-1] == 800.0
    # a step beyond the extent leaves one sample at the minimum
    axes = grid_axes((np.zeros(2), np.array([10.0, 10.0])), 100.0, 2)
    assert len(axes[0]) == 1 and axes[0][0] == 0.0


def test_grid_axes_stay_inside_the_box():
    # np.arange's count would add 12 past 11 and 15 past 10
    axes = grid_axes(((0.0, 0.0), (11.0, 10.0)), 4.0, 2)
    assert axes[0].tolist() == [0.0, 4.0, 8.0] and axes[1].tolist() == [0.0, 4.0, 8.0]
    axes = grid_axes(((0.0, 0.0), (10.0, 10.0)), 15.0, 2)
    assert [a.tolist() for a in axes] == [[0.0], [0.0]]
    # an exact multiple keeps its end sample, also when the ratio rounds
    # to a few ulps short of it (0.7 / 0.1 = 6.999999999999999), and a
    # last sample np.arange rounds past hi becomes hi
    assert 0.7 / 0.1 < 7.0 and np.arange(0.0, 0.75, 0.1)[-1] > 0.7
    axes = grid_axes(((0.0, 0.0), (0.7, 800.0)), 0.1, 2)
    assert axes[0].size == 8 and axes[0][-1] == 0.7
    assert axes[0][:7].tobytes() == np.arange(0.0, 0.75, 0.1)[:7].tobytes()
    # the widest lattice the coordinate rule allows stays inside its box
    # (np.arange ends at 1.0000000000000011e145), with no RuntimeWarning
    axes = grid_axes(((-1e145, -1e145), (1e145, 1e145)), 1e144, 2)
    assert [a.size for a in axes] == [21, 21]
    assert all(a[0] == -1e145 and a[-1] == 1e145 and (np.diff(a) > 0.0).all() for a in axes)
    # a zero sample keeps its sign
    assert np.signbit(grid_axes(((-0.0, 0.0), (0.0, 1.0)), 1.0, 2)[0]).tolist() == [True]
    # kept samples are np.arange's bits
    axes = grid_axes(((0.0, 0.0), (800.0, 600.0)), 50.0, 2)
    assert [a.size for a in axes] == [17, 13]
    for a, hi in zip(axes, (800.0, 600.0)):
        assert a.tobytes() == np.arange(0.0, hi + 25.0, 50.0).tobytes()


def test_grid_axes_rejects_a_step_at_or_below_the_float_spacing():
    # at 1e16 the float spacing is 2: np.arange's increment (lo + 1) - lo is
    # 0, which gave ten copies of 1e16 where the count rule asks for 11
    box = ((1e16, 0.0), (1e16 + 10, 1.0))
    with pytest.raises(ValueError, match=r"lattice axis 0: step 1.0 .* 11 samples"):
        grid_axes(box, 1.0, 2)
    # a step the spacing resolves keeps its distinct samples, and the other
    # axis is named when it is the one that fails
    assert grid_axes(box, 2.0, 2)[0].tolist() == [1e16 + 2.0 * i for i in range(6)]
    with pytest.raises(ValueError, match=r"lattice axis 2: step 1.0"):
        grid_axes(((0.0, 0.0, 1e16), (10.0, 10.0, 1e16 + 10)), 1.0, 3)


def test_grid_axes_sample_i_is_lo_plus_i_steps():
    # np.arange steps by the increment (lo + step) - lo, which the float
    # spacing at lo rounds: 2 for a step of 3 at 1e16, 0.000999... for 1e-3
    # at 1e10. Sample i is lo + i * step instead, so these boxes give
    # distinct samples within one spacing of the exact lo + i * step
    cases = [(1e16 - 10, 1e16 + 10, 3.0, 7), (1e10, 1e10 + 1.0, 1e-3, 1001),
             (0.0, 800.0, 5.0, 161), (0.1, 10.1, 0.2, 51), (0.0, 0.7, 0.1, 8)]
    for lo, hi, step, count in cases:
        ax = grid_axes(((lo, 0.0), (hi, 1.0)), step, 2)[0]
        i = np.arange(count)
        assert ax.size == count
        assert ax.tobytes() == np.minimum(lo + i * step, hi).tobytes()
        assert ax[0] == lo and (np.diff(ax) > 0.0).all()
        exact = [Fraction(lo) + k * Fraction(step) for k in range(ax.size)]
        assert all(abs(Fraction(a) - e) < np.spacing(a) for a, e in zip(ax.tolist(), exact))
        # where the increment is the step, the samples below hi are
        # np.arange's bits; (0.1 + 0.2) - 0.1 is not 0.2, so that box moves
        # in the last bits
        want = np.arange(lo, hi + 0.5 * step, step)[:ax.size]
        same = ax[:-1].tobytes() == want[:-1].tobytes()
        assert same == ((lo + step) - lo == step), (lo, hi, step)


def test_grid_axes_rejects_samples_that_round_together_a_binade_up():
    # the increment 1 is exact at 2**53 - 4 but below the spacing 2 past
    # 2**53, where two samples round to one: no drift, so the sample check
    # rejects it
    lo = 2.0 ** 53 - 4
    assert (lo + 1.0) - lo == 1.0
    with pytest.raises(ValueError, match=r"lattice axis 0: step 1.0 .* 9 samples would not all "
                                         r"differ"):
        grid_axes(((lo, 0.0), (lo + 8, 1.0)), 1.0, 2)


def test_grid_axes_rejects_bad_bounds():
    with pytest.raises(ValueError):
        grid_axes((np.array([10.0, 0.0]), np.array([0.0, 10.0])), 5.0, 2)
    with pytest.raises(ValueError):
        grid_axes((np.zeros(2), np.ones(2)), 0.0, 2)
    with pytest.raises(ValueError):
        grid_axes((np.zeros(3), np.ones(3)), 1.0, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_axes_rejects_non_finite_bounds_and_steps(bad):
    with pytest.raises(ValueError, match="bounds must be finite"):
        grid_axes((np.array([bad, 0.0]), np.array([10.0, 10.0])), 1.0, 2)
    with pytest.raises(ValueError, match="bounds must be finite"):
        grid_axes((np.zeros(2), np.array([10.0, bad])), 1.0, 2)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        grid_axes((np.zeros(2), np.array([10.0, 10.0])), bad, 2)


def test_grid_axes_rejects_an_overflowing_extent():
    # each corner is finite, but max - min is not; the coordinate rule
    # refuses corners past 1e145, and no RuntimeWarning leaks
    for bound in (1e308, 1e200, 1e146):
        with pytest.raises(ValueError, match=r"bounds must be finite and at most 1e\+145"):
            grid_axes((np.full(2, -bound), np.full(2, bound)), 1.0, 2)


def test_grid_axes_rejects_a_lattice_that_overflows_an_index():
    # np.arange's own error names neither the counts nor the step; corners
    # within the coordinate rule overflow an index at a tiny step
    with pytest.raises(ValueError, match=r"lattice of \[1e\+25, 1e\+25\] samples per axis "
                                         r"at step 1e\+120 overflows an index"):
        grid_axes(((0.0, 0.0), (1e145, 1e145)), 1e120, 2)
    with pytest.raises(ValueError, match="overflows an index"):
        grid_axes(((0.0, 0.0), (1.0, 1.0)), 1e-300, 2)
    assert [a.size for a in grid_axes(((0.0, 0.0), (800.0, 600.0)), 50.0, 2)] == [17, 13]


def zero_inlier_field():
    rng = make_rng(10)
    x = rng.uniform(0.0, 100.0, size=(25, 2))
    m = MatchSet.from_points(x, x + 500.0)
    empty = RansacOutcome(hypotheses=(), n=m.n, gamma_history=())
    cfg = Config()
    labels, state = run_em(m, empty, cfg)
    return m, cfg, labels, state


def test_far_query_is_invalid_and_unmoved():
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    far = np.array([[1e6, 1e6]])
    s = query_field(state, labels, m, far, cfg)[0]
    assert not s.valid
    assert s.support < 0.01
    assert np.allclose(s.displaced, far[0])


def test_3d_query_with_tiny_support_stays_finite():
    # supports of 1e-197..1e-293 are positive, so the blend runs; with raw
    # weights the 3D blended quaternion's squared norm underflowed to 0
    spec = SynthSpec(
        n=300,
        dim=3,
        outlier_ratio=0.3,
        n_anchors=3,
        max_rotation=0.05,
        max_scale_jitter=0.02,
        noise_sigma=0.05,
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
        seed=1,
    )
    m, gt = synth_generate(spec)
    cfg = Config.for_matches(m, seed=1)
    labels, state, _ = filter_and_refine(m, cfg)
    pts = np.array([[100.0 + d, 50.0, 50.0] for d in (450.0, 500.0, 550.0)])
    samples = query_field(state, labels, m, pts, cfg)
    assert all(0.0 < s.support < 1e-190 for s in samples)
    assert all(np.isfinite(s.displaced).all() and not s.valid for s in samples)


def test_low_support_sample_is_invalid_but_moved():
    # below SUPPORT_MIN a sample is flagged invalid, yet it still carries the
    # blended motion applied to the query; only support 0 keeps the query
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    pts = np.array([[500.0 + d, 250.0] for d in range(0, 400, 10)] + [[1e6, 1e6]])
    samples = query_field(state, labels, m, pts, cfg)
    low = [s for s in samples if 0.0 < s.support < field.SUPPORT_MIN]
    assert low
    for s in low:
        assert not s.valid
        # every inlier motion is the scene's one similarity, so any blend is it
        assert np.abs(s.displaced - mu * (R @ s.query + t)).max() < 1e-6
        assert np.abs(s.displaced - s.query).max() > 1.0
    assert samples[-1].support == 0.0 and not samples[-1].valid
    assert samples[-1].displaced.tobytes() == pts[-1].tobytes()


def test_valid_tracks_support_threshold():
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    rng = make_rng(9)
    pts = np.vstack(
        [rng.uniform(0.0, 500.0, size=(20, 2)), rng.uniform(5e3, 6e3, size=(20, 2))]
    )
    for s in query_field(state, labels, m, pts, cfg):
        assert s.valid == (s.support >= 0.01)


def test_no_inliers_means_no_field():
    m, cfg, labels, state = zero_inlier_field()
    x = m.x
    samples = query_field(state, labels, m, x[:5], cfg)
    assert all(not s.valid for s in samples)
    assert np.allclose(np.stack([s.displaced for s in samples]), x[:5])


def test_field_is_continuous():
    m, gt = synth_generate(SynthSpec(n=500, outlier_ratio=0.3, seed=6))
    cfg = Config(seed=6)
    labels, state, out = filter_and_refine(m, cfg)
    rng = make_rng(7)
    for _ in range(50):
        p = rng.uniform([50.0, 50.0], [750.0, 550.0])
        q = p + 0.5 * rng.normal(size=2)
        sp, sq = query_field(state, labels, m, np.stack([p, q]), cfg)
        if sp.valid and sq.valid:
            gap = np.linalg.norm(sp.displaced - sq.displaced)
            assert gap <= 10.0 * np.linalg.norm(p - q) + 1e-9


def test_blocked_query_equals_per_block_and_single_block_queries(monkeypatch):
    # query_field blends QUERY_BLOCK rows at a time; every step is row-wise,
    # so neither the block boundaries nor the block size show in the output
    m, _ = synth_generate(SynthSpec(n=600, outlier_ratio=0.3, seed=5))
    cfg = Config(seed=5)
    labels, state, _ = filter_and_refine(m, cfg)
    pts = make_rng(6).uniform(-100.0, 900.0, size=(QUERY_BLOCK + 1500, 2))

    def as_bytes(samples):
        return b"".join(np.array(col).tobytes() for col in zip(*samples))

    whole = query_field(state, labels, m, pts, cfg)
    parts = [query_field(state, labels, m, pts[lo:lo + QUERY_BLOCK], cfg)
             for lo in range(0, len(pts), QUERY_BLOCK)]
    assert as_bytes(whole) == as_bytes([s for part in parts for s in part])
    assert any(s.valid for s in whole) and not all(s.valid for s in whole)
    monkeypatch.setattr(field, "QUERY_BLOCK", len(pts))
    assert as_bytes(query_field(state, labels, m, pts, cfg)) == as_bytes(whole)


def test_query_rejects_wrong_width():
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    with pytest.raises(ValueError):
        query_field(state, labels, m, np.zeros((3, 3)), cfg)
    with pytest.raises(ValueError, match=r"query points must be \(k, 2\), got \(2, 2, 2\)"):
        query_field(state, labels, m, np.full((2, 2, 2), 100.0), cfg)


@pytest.mark.parametrize("n_other", [200, 400])
def test_query_rejects_labels_and_state_of_another_match_count(n_other):
    # a field fitted on 300 matches and queried with a smaller match set
    # once indexed past its end, and with a larger one blended the wrong
    # sources without a word
    m, _ = synth_generate(SynthSpec(n=300, outlier_ratio=0.3, seed=4))
    cfg = Config(seed=4)
    labels, state, _ = filter_and_refine(m, cfg)
    other, _ = synth_generate(SynthSpec(n=n_other, outlier_ratio=0.3, seed=5))
    counts = f"labels of 300 matches used with {n_other} matches"
    with pytest.raises(ValueError, match=counts):
        query_field(state, labels, other, [[400.0, 300.0]], cfg)
    with pytest.raises(ValueError, match=counts):
        grid_field(state, labels, other, ((0.0, 0.0), (800.0, 600.0)), 100.0, cfg)
    fits = LabelResult(inlier=np.ones(n_other, dtype=bool), posterior=np.ones(n_other),
                       residual=np.zeros(n_other))
    with pytest.raises(ValueError, match=f"EM state of 300 matches used with {n_other} matches"):
        query_field(state, fits, other, [[400.0, 300.0]], cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_query_rejects_non_finite_points_with_and_without_inliers(bad):
    pts = np.array([[10.0, 10.0], [20.0, 20.0], [30.0, 30.0], [bad, 40.0], [50.0, bad]])
    for m, cfg, labels, state in (rigid_pipeline()[:4], zero_inlier_field()):
        with pytest.raises(ValueError, match=r"query point 3 must be finite and at most 1e\+145"):
            query_field(state, labels, m, pts, cfg)
        assert len(query_field(state, labels, m, pts[:3], cfg)) == 3


def test_query_keeps_to_the_coordinate_rule():
    # a point past 1e145 used to reach the kd-tree, whose neighbor index n
    # for an infinite distance raised IndexError
    m, cfg, labels, state = rigid_pipeline()[:4]
    with pytest.raises(ValueError, match=r"query point 1 must be finite and at most 1e\+145"):
        query_field(state, labels, m, [[0.0, 0.0], [1e160, -1e160]], cfg)
    # points at the bound still get a sample, with no RuntimeWarning
    samples = query_field(state, labels, m, [[1e145, -1e145], [-1e145, 1e145]], cfg)
    assert all(np.isfinite(s.displaced).all() and not s.valid for s in samples)


def test_samples_are_named_tuples_over_one_copied_array():
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    pts = np.array([[10.0, 20.0], [30.0, 40.0], [1e6, 1e6]])
    samples = query_field(state, labels, m, pts, cfg)
    assert all(isinstance(s, FieldSample) for s in samples)
    query, displaced, support, valid = samples[0]
    assert type(support) is float and type(valid) is bool
    assert samples[0].valid and not samples[2].valid
    # the caller's array is copied, so changing it later leaves samples alone
    pts[0, 0] = -1.0
    assert samples[0].query[0] == 10.0
    assert np.array_equal(np.stack([s.query for s in samples]), [[10.0, 20.0], [30.0, 40.0], [1e6, 1e6]])
    with pytest.raises(AttributeError):
        samples[0].valid = False


def reference_write_field_csv(grid, path, dim):
    # the per-sample writer the column-wise write_field_csv replaced
    q_cols = ["qx", "qy", "qz"][:dim]
    d_cols = ["dx", "dy", "dz"][:dim]
    lines = [",".join(q_cols + d_cols + ["support", "valid"])]
    for s in grid.samples:
        vals = [repr(float(v)) for v in s.query] + [repr(float(v)) for v in s.displaced]
        vals.append(repr(float(s.support)))
        vals.append("1" if s.valid else "0")
        lines.append(",".join(vals))
    Path(path).write_text("\n".join(lines) + "\n")


def assert_field_csv_bytes_match_reference(grid, dim, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_field_csv(grid, got, dim)
    reference_write_field_csv(grid, want, dim)
    assert got.read_bytes() == want.read_bytes()


def test_field_csv_bytes_match_per_sample_writer_2d(tmp_path):
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    grid = grid_field(state, labels, m, (np.array([-30.0, 0.0]), np.array([700.0, 520.0])), 7.5, cfg)
    # the lattice reaches past the inliers, so invalid samples are in it
    assert any(s.valid for s in grid.samples) and not all(s.valid for s in grid.samples)
    assert_field_csv_bytes_match_reference(grid, 2, tmp_path)


@pytest.mark.parametrize("rows", [0, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 1])
def test_field_csv_bytes_match_per_sample_writer_at_block_seams(tmp_path, rows):
    # a block boundary that drops, repeats or merges a row changes the bytes
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    pts = make_rng(rows).uniform(-300.0, 800.0, size=(rows, 2))
    samples = query_field(state, labels, m, pts, cfg)
    assert_field_csv_bytes_match_reference(FieldGrid(shape=(rows,), samples=tuple(samples)), 2,
                                           tmp_path)


def test_field_csv_bytes_match_per_sample_writer_3d(tmp_path):
    rng = make_rng(21)
    x = rng.uniform(0.0, 100.0, size=(150, 3))
    y = x @ np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T + 3.0
    m = MatchSet.from_points(x, y)
    cfg = Config.for_matches(m, seed=21)
    labels, state, _ = filter_and_refine(m, cfg)
    grid = grid_field(state, labels, m, (np.full(3, -20.0), np.full(3, 120.0)), 10.0, cfg)
    assert grid.shape == (15, 15, 15)
    assert any(s.valid for s in grid.samples) and not all(s.valid for s in grid.samples)
    assert_field_csv_bytes_match_reference(grid, 3, tmp_path)


def test_field_csv_bytes_match_per_sample_writer_edge_cases(tmp_path):
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    # negative zeros in valid rows, and in invalid rows whose displaced
    # position is the query itself
    pts = np.array([[-0.0, 5.0], [120.0, -0.0], [-0.0, -0.0], [-0.0, 1e6], [1e6, -0.0]])
    samples = query_field(state, labels, m, pts, cfg)
    assert [s.valid for s in samples] == [True, True, True, False, False]
    assert_field_csv_bytes_match_reference(FieldGrid(shape=(5,), samples=tuple(samples)), 2, tmp_path)
    assert "-0.0" in (tmp_path / "got.csv").read_text()
    # zero inliers: every sample invalid with support 0.0
    m0, cfg0, labels0, state0 = zero_inlier_field()
    samples0 = query_field(state0, labels0, m0, np.vstack([m0.x, pts]), cfg0)
    assert not any(s.valid for s in samples0)
    assert_field_csv_bytes_match_reference(FieldGrid(shape=(len(samples0),), samples=tuple(samples0)), 2, tmp_path)
    # no samples: the header line alone
    assert_field_csv_bytes_match_reference(FieldGrid(shape=(0,), samples=()), 2, tmp_path)
    assert (tmp_path / "got.csv").read_text() == "qx,qy,dx,dy,support,valid\n"


def test_field_csv_rejects_samples_of_another_width(tmp_path):
    # a 2D grid written as 3D used to get the 3D header over 6-field rows
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    grid = grid_field(state, labels, m, (np.zeros(2), np.array([200.0, 200.0])), 100.0, cfg)
    path = tmp_path / "field.csv"
    with pytest.raises(ValueError, match=r"query points of shape \(2,\), but dim is 3"):
        write_field_csv(grid, path, 3)
    with pytest.raises(ValueError, match=r"query points of shape \(2,\), but dim is 1"):
        write_field_csv(grid, path, 1)
    assert not path.exists()
    mixed = FieldSample(np.zeros(2), np.zeros(3), 1.0, True)
    with pytest.raises(ValueError, match=r"displaced points of shape \(3,\), but dim is 2"):
        write_field_csv(FieldGrid(shape=(1,), samples=(mixed,)), path, 2)
    assert not path.exists()


def test_field_csv_round_trip(tmp_path):
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    grid = grid_field(state, labels, m, (np.zeros(2), np.array([200.0, 200.0])), 100.0, cfg)
    path = tmp_path / "field.csv"
    write_field_csv(grid, path, dim=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "qx,qy,dx,dy,support,valid"
    assert len(lines) == 1 + len(grid.samples)
    first = lines[1].split(",")
    s0 = grid.samples[0]
    assert np.allclose([float(v) for v in first[:4]], np.concatenate([s0.query, s0.displaced]))
    assert first[5] in ("0", "1")


def test_svg_draws_invalid_samples_as_circles(tmp_path):
    # a valid sample is an arrow, an invalid one a grey dot at its query
    m, cfg, labels, state, R, t, mu = rigid_pipeline(n=40)
    grid = grid_field(state, labels, m, (np.zeros(2), np.array([2000.0, 200.0])), 100.0, cfg)
    invalid = [s for s in grid.samples if not s.valid]
    assert invalid and len(invalid) < len(grid.samples)
    path = tmp_path / "scene.svg"
    render_scene_svg(m, labels, grid, path)
    text = path.read_text()
    assert text.count("<circle") == len(invalid)
    s = invalid[0]
    assert f'<circle cx="{s.query[0]:.2f}" cy="{s.query[1]:.2f}" r="1.5"' in text
    assert text.count('marker-end="url(#tip)"') == len(grid.samples) - len(invalid)


def test_svg_rendering(tmp_path):
    m, cfg, labels, state, R, t, mu = rigid_pipeline(n=40)
    grid = grid_field(state, labels, m, (np.zeros(2), np.array([200.0, 200.0])), 100.0, cfg)
    path = tmp_path / "scene.svg"
    render_scene_svg(m, labels, grid, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<line") >= m.n
    render_scene_svg(m, labels, None, tmp_path / "bare.svg")
    # a grid without samples draws the matches alone
    render_scene_svg(m, labels, FieldGrid(shape=(0,), samples=()), tmp_path / "empty.svg")
    assert (tmp_path / "empty.svg").read_text() == (tmp_path / "bare.svg").read_text()
    x3 = np.zeros((6, 3))
    x3[:, 0] = np.arange(6)
    m3 = MatchSet.from_points(x3, x3 + 1.0)
    labels3 = LabelResult(
        inlier=np.ones(6, dtype=bool), posterior=np.ones(6), residual=np.zeros(6)
    )
    with pytest.raises(ValueError):
        render_scene_svg(m3, labels3, None, tmp_path / "bad.svg")


@pytest.mark.parametrize("n_matches,n_labels", [(300, 200), (200, 300)])
def test_svg_rejects_labels_of_another_match_count(tmp_path, n_matches, n_labels):
    # fewer labels than matches once indexed past their end; more drew the
    # scene in the wrong labels' colours without a word
    m, _ = synth_generate(SynthSpec(n=n_matches, outlier_ratio=0.3, seed=4))
    other, _ = synth_generate(SynthSpec(n=n_labels, outlier_ratio=0.3, seed=5))
    labels, _, _ = filter_and_refine(other, Config(seed=5))
    path = tmp_path / "scene.svg"
    counts = f"labels of {n_labels} matches used with {n_matches} matches"
    with pytest.raises(ValueError, match=counts):
        render_scene_svg(m, labels, None, path)
    assert not path.exists()


def reference_field_eval(state, labels, m, pts, cfg):
    """query_field's blend as written before blend_neighbors: its own weight
    normalization, the written-out blend of test_dualquat over the gathered
    neighbour motions, 2D points lifted into z = 0 by hand and sliced back,
    all rows in one block."""
    inl = np.nonzero(labels.inlier)[0]
    k = min(N_NEIGHBOR[m.dim], inl.size)
    qs, mus, post = state.qs[inl], state.mus[inl], labels.posterior[inl]
    dist, jdx = cKDTree(m.x[inl]).query(pts, k=[k] if k == 1 else k)
    w = np.exp(-(dist * dist) / (2.0 * cfg.r * cfg.r)) * post[jdx]
    support = w.sum(axis=1)
    ok = support > 0.0
    w = w / np.where(ok, support, 1.0)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        mubar = np.where(ok, (w * mus[jdx]).sum(axis=1), 1.0)
        qbar = reference_dq8_blend(w, qs[jdx])
        moved = dq8_apply(qbar, mubar, embed3(pts))[:, : m.dim]
    return np.where(ok[:, None], moved, pts), support, support >= field.SUPPORT_MIN


def query_scene(dim):
    """A fitted scene and query points far from it (zero and tiny support)
    and over it, in 2D or 3D."""
    if dim == 2:
        m, _ = synth_generate(SynthSpec(n=600, outlier_ratio=0.5, seed=21))
        far = [[1e5, 1e5], [-4e3, 0.0]]
        pts = make_rng(22).uniform(-100.0, 900.0, size=(300, 2))
    else:
        m, _ = synth_generate(SynthSpec(n=300, dim=3, outlier_ratio=0.3, n_anchors=3,
                                        max_rotation=0.05, max_scale_jitter=0.02,
                                        noise_sigma=0.05, seed=1,
                                        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))))
        far = [[100.0 + d, 50.0, 50.0] for d in (450.0, 500.0, 550.0, 5e3)]
        pts = make_rng(23).uniform(-20.0, 120.0, size=(300, 3))
    cfg = Config.for_matches(m, seed=1)
    labels, state, _ = filter_and_refine(m, cfg)
    return m, cfg, labels, state, np.vstack([far, pts, far])


def assert_query_equals_reference(state, labels, m, pts, cfg):
    samples = query_field(state, labels, m, pts, cfg)
    disp, support, valid = reference_field_eval(state, labels, m, pts, cfg)
    assert np.array([s.displaced for s in samples]).tobytes() == disp.tobytes()
    assert np.array([s.support for s in samples]).tobytes() == support.tobytes()
    assert [s.valid for s in samples] == valid.tolist()
    return support


@pytest.mark.parametrize("dim", [2, 3])
def test_query_byte_equal_to_the_inline_blend(dim, monkeypatch):
    # ordinary, zero-support and tiny-support (1e-197..1e-293) rows, over
    # several query blocks
    m, cfg, labels, state, pts = query_scene(dim)
    monkeypatch.setattr(field, "QUERY_BLOCK", 64)
    support = assert_query_equals_reference(state, labels, m, pts, cfg)
    assert support.min() == 0.0
    if dim == 3:
        assert 0.0 < support[:3].min() < 1e-190


@pytest.mark.parametrize("dim", [2, 3])
def test_query_over_antipodes_byte_equal_to_the_inline_blend(dim):
    # every other inlier motion stored as its antipode (the same motion):
    # query rows flip weights in the hemisphere test and still equal the
    # written-out blend, whose displaced points they keep up to rounding
    m, cfg, labels, state, pts = query_scene(dim)
    before = np.array([s.displaced for s in query_field(state, labels, m, pts, cfg)])
    inl = np.flatnonzero(labels.inlier)
    state.qs[inl[1::2]] *= -1.0
    assert_query_equals_reference(state, labels, m, pts, cfg)
    after = np.array([s.displaced for s in query_field(state, labels, m, pts, cfg)])
    assert np.allclose(after, before, rtol=0.0, atol=1e-9 * np.abs(before).max())


def test_field_queries_blend_through_the_em_refine_kernel(monkeypatch):
    # query_field blends with the helper EM uses, which looks dq8_blend up
    # in em_refine, so one wrapper there sees the blends of both
    m, cfg, labels, state, R, t, mu = rigid_pipeline()
    calls = []

    def counting(w, dqs, idx=None):
        calls.append(w.shape)
        return dq8_blend(w, dqs, idx)

    monkeypatch.setattr(em_refine, "dq8_blend", counting)
    query_field(state, labels, m, m.x[:5], cfg)
    assert calls == [(5, N_NEIGHBOR[2])]
