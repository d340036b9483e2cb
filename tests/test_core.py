import re
from dataclasses import fields

import numpy as np
import pytest

from matchfield.core import (
    MIN_LENGTH,
    SCALE_FRACTIONS,
    Config,
    DegenerateGeometryError,
    LabelResult,
    MatchSet,
    make_rng,
    scale_estimate,
    small_det,
)


def test_matchset_basic():
    m = MatchSet.from_points([[0.0, 0.0], [1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]])
    assert m.n == 2
    assert m.dim == 2
    assert m.x.dtype == np.float64
    assert np.allclose(m.y[1], [5.0, 6.0])


def test_matchset_arrays_are_read_only():
    m = MatchSet.from_points([[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(ValueError):
        m.x[0, 0] = 9.0


def test_matchset_rejects_bad_inputs():
    with pytest.raises(ValueError):
        MatchSet(dim=4, x=np.zeros((3, 4)), y=np.zeros((3, 4)))
    # a float dim once passed as 2 and was stored as 2.0
    for dim in (2.0, True, 1):
        with pytest.raises(ValueError, match="dim must be"):
            MatchSet(dim=dim, x=np.zeros((3, 2)), y=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        MatchSet(dim=2, x=np.zeros((3, 3)), y=np.zeros((3, 3)))
    # one point as a flat list once raised IndexError reading its width
    with pytest.raises(ValueError, match=re.escape("x must be (n, dim), got (2,)")):
        MatchSet.from_points([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValueError):
        MatchSet(dim=2, x=np.zeros((3, 2)), y=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        MatchSet(dim=2, x=np.zeros((0, 2)), y=np.zeros((0, 2)))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        MatchSet(dim=2, x=bad, y=np.zeros((2, 2)))
    # a non-finite or too large target is caught whatever the sources hold
    for v in (np.nan, np.inf, 1e146):
        bad[0, 0] = v
        with pytest.raises(ValueError, match="must be finite and at most 1e\\+145"):
            MatchSet(dim=2, x=np.ones((2, 2)), y=bad)


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def test_small_det_agrees_with_linalg_det():
    rng = make_rng(90)
    for _ in range(10000):
        R = random_rotation(rng, 3)
        assert abs(small_det(R) - np.linalg.det(R)) <= 1e-12
    for _ in range(100):
        A = rng.normal(size=(3, 3))
        assert abs(small_det(A) - np.linalg.det(A)) <= 1e-12 * max(1.0, abs(np.linalg.det(A)))


def test_label_result_validation():
    ok = LabelResult(
        inlier=np.array([True, False]),
        posterior=np.array([0.9, 0.1]),
        residual=np.array([1.0, 50.0]),
    )
    assert ok.n == 2
    with pytest.raises(ValueError):
        LabelResult(
            inlier=np.array([True]),
            posterior=np.array([1.5]),
            residual=np.array([0.0]),
        )
    with pytest.raises(ValueError):
        LabelResult(
            inlier=np.array([True]),
            posterior=np.array([0.5]),
            residual=np.array([-1.0]),
        )
    with pytest.raises(ValueError):
        LabelResult(
            inlier=np.array([True, False]),
            posterior=np.array([0.5]),
            residual=np.array([0.0]),
        )
    # NaN fails every comparison, so a check for values outside [0, 1] let
    # it through
    with pytest.raises(ValueError, match=re.escape("posteriors must lie in [0, 1]")):
        LabelResult(inlier=[True, False], posterior=[0.5, np.nan], residual=[0.0, 0.0])


def test_config_defaults():
    cfg = Config()
    assert cfg.H == 20.0
    assert cfg.r == 50.0
    assert cfg.seed == 0
    # one RANSAC path: no sample-size knob left
    assert not hasattr(cfg, "N_sparse")


@pytest.mark.parametrize("name", ["ransac_p", "n_reweight_iters", "max_em_iters", "a",
                                  "T_min", "p_min", "theta", "N_neighbor"])
def test_config_holds_no_unset_knob(name):
    # settings no caller sets are module constants, not Config fields
    # (ransac.T_MIN, em_refine.P_MIN, em_refine.THETA and core.N_NEIGHBOR
    # among them), and the outlier density a is taken from the targets' box
    assert not hasattr(Config(), name)
    with pytest.raises(TypeError):
        Config(**{name: 1})


def test_config_rejects_out_of_range():
    with pytest.raises(ValueError):
        Config(H=0.0)
    with pytest.raises(ValueError):
        Config(r=-1.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Config(seed=-1)
    assert Config(seed=0).seed == 0
    # H=True once ran as H = 1
    for name in ("H", "r"):
        for v in (True, False):
            with pytest.raises(ValueError, match=f"{name} must be positive, got {v}"):
                Config(**{name: v})
        # r * r underflows to 0 near 1e-162 and EM's blend weights became
        # 0 / 0; from MIN_LENGTH up, r^2, H^2 and sigma^2 >= (1e-3 H)^2 are
        # normal floats
        assert getattr(Config(**{name: MIN_LENGTH}), name) == MIN_LENGTH == 1e-150
        for v in (MIN_LENGTH * 0.999, 1e-170, 5e-324):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be at least 1e-150, got {v}")):
                Config(**{name: v})


@pytest.mark.parametrize("name", ["seed"])
@pytest.mark.parametrize("value", [2.0, 2.5, True, False, np.float64(9.0), "9"])
def test_config_rejects_integer_fields_given_as_other_types(name, value):
    # Config(seed=1.5) once failed in numpy's SeedSequence
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        Config(**{name: value})


def test_config_takes_python_and_numpy_integers():
    assert Config(seed=np.uint64(4)).seed == Config(seed=np.int32(4)).seed == 4
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Config(seed=np.int64(-1))


def test_config_scale_adaptation():
    # Config.for_matches is the one builder of a run's config; these clouds
    # have scale estimate exactly 50
    x = [[50.0, 0.0, 0.0], [-50.0, 0.0, 0.0]]
    m = MatchSet.from_points(x, x)
    assert scale_estimate(m) == 50.0
    cfg = Config.for_matches(m)
    assert np.isclose(cfg.H, 5.0)
    assert np.isclose(cfg.r, 15.0)
    assert not hasattr(Config, "adapted_for_scale")
    # a set without spread has no scale to adapt to, in either dimension
    for p in (x[:1] * 2, [[3.0, 4.0]] * 2):
        with pytest.raises(DegenerateGeometryError):
            Config.for_matches(MatchSet.from_points(p, p))


def test_config_for_matches_follows_the_scale_in_every_dimension():
    # one rule: H and r are the dimension's fractions of the scale estimate,
    # so a power-of-two change of units scales both exactly, in 2D as in 3D
    rng = make_rng(0)
    for dim in (2, 3):
        x = rng.uniform(0.0, 100.0, size=(50, dim))
        m = MatchSet.from_points(x, x + 1.0)
        cfg = Config.for_matches(m, seed=7)
        h, f = SCALE_FRACTIONS[dim]
        s = scale_estimate(m)
        assert (cfg.H, cfg.r, cfg.seed) == (h * s, f * s, 7)
        for k in (2.0 ** -40, 0.25, 4.0, 2.0 ** 40):
            ck = Config.for_matches(MatchSet.from_points(x * k, (x + 1.0) * k), seed=7)
            assert (ck.H, ck.r, ck.seed) == (k * cfg.H, k * cfg.r, 7)
        # flags override the rule's values one by one
        assert Config.for_matches(m, H=3.0) == Config(H=3.0, r=f * s)
    # the 2D fractions keep the tuned pixel values on an 800x600 frame
    x = rng.uniform((0.0, 0.0), (800.0, 600.0), size=(20000, 2))
    cfg2 = Config.for_matches(MatchSet.from_points(x, x))
    assert abs(cfg2.H - Config().H) < 0.5 and abs(cfg2.r - Config().r) < 1.0


def test_config_holds_only_what_the_scale_sets_and_the_seed():
    # a setting stays a Config field only while a second value of it is in
    # use: for_matches gives each match set, 2D or 3D, its own value of
    # every field but the seed. A one-value knob fails here; make it a
    # module constant
    rng = make_rng(0)
    for dim in (2, 3):
        x = rng.uniform(0.0, 100.0, size=(50, dim))
        cfg = Config.for_matches(MatchSet.from_points(x, x + 1.0))
        scaled = {f.name for f in fields(Config) if getattr(cfg, f.name) != getattr(Config(), f.name)}
        assert {f.name for f in fields(Config)} == scaled | {"seed"}


def test_scale_estimate_hand_value():
    # frozen: each cloud contributes sum ||p - mean||^2 = 2, s = sqrt(4/4) = 1
    m = MatchSet.from_points([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]])
    assert np.isclose(scale_estimate(m), 1.0)


def test_scale_estimate_invariances():
    rng = make_rng(11)
    for _ in range(10):
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=(30, 3))
        m = MatchSet.from_points(x, y)
        s = scale_estimate(m)
        shifted = MatchSet.from_points(x + 100.0, y - 42.0)
        assert np.isclose(scale_estimate(shifted), s)
        scaled = MatchSet.from_points(3.0 * x, 3.0 * y)
        assert np.isclose(scale_estimate(scaled), 3.0 * s)


def test_scale_estimate_degenerate():
    # the tolerance is relative to the coordinates, so clouds on one point
    # raise at any magnitude, zero and 1e-300 included
    for x in (np.tile([1.0, 2.0], (5, 1)), np.zeros((5, 3)), np.full((5, 3), 1e-300)):
        with pytest.raises(DegenerateGeometryError, match="all points coincide"):
            scale_estimate(MatchSet.from_points(x, x))
    # one match has no spread either: degenerate, not a malformed input
    with pytest.raises(DegenerateGeometryError, match="at least two matches"):
        scale_estimate(MatchSet.from_points([[0.0, 1.0, 2.0]], [[3.0, 4.0, 5.0]]))


def test_make_rng_reproducible():
    a = make_rng(123).uniform(size=8)
    b = make_rng(123).uniform(size=8)
    assert np.array_equal(a, b)
