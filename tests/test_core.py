from dataclasses import fields

import numpy as np
import pytest

from matchfield.core import (
    ORTHONORMAL_TOL,
    Config,
    ConfigError,
    DegenerateScaleError,
    LabelResult,
    MatchSet,
    RigidTransform,
    config_overrides_from_file,
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
    with pytest.raises(ValueError):
        MatchSet(dim=2, x=np.zeros((3, 3)), y=np.zeros((3, 3)))
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


def test_rigid_transform_apply():
    # 90 degree rotation, then translate, then scale by 2
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    rt = RigidTransform(R=R, t=np.array([1.0, 0.0]), mu=2.0)
    out = rt.apply(np.array([[1.0, 0.0]]))
    assert np.allclose(out, [[2.0, 2.0]])
    assert rt.dim == 2


def test_rigid_transform_rejects_bad_matrices():
    with pytest.raises(ValueError):
        RigidTransform(R=np.array([[1.0, 0.1], [0.0, 1.0]]), t=np.zeros(2), mu=1.0)
    # reflection has det -1
    with pytest.raises(ValueError):
        RigidTransform(R=np.array([[1.0, 0.0], [0.0, -1.0]]), t=np.zeros(2), mu=1.0)
    with pytest.raises(ValueError):
        RigidTransform(R=np.eye(2), t=np.zeros(3), mu=1.0)
    with pytest.raises(ValueError):
        RigidTransform(R=np.eye(2), t=np.zeros(2), mu=0.0)
    with pytest.raises(ValueError):
        RigidTransform(R=np.eye(2), t=np.zeros(2), mu=-2.0)
    # square and orthonormal, but of no supported dimension
    with pytest.raises(ValueError, match="R must be 2x2 or 3x3, got \\(4, 4\\)"):
        RigidTransform(R=np.eye(4), t=np.zeros(4), mu=1.0)


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def reference_transform_check(R, t) -> bool:
    """The transform checks as first written, on numpy reductions and
    np.linalg.det: True when R and t would be accepted."""
    d = R.shape[0]
    return bool(
        np.isfinite(R).all()
        and np.isfinite(t).all()
        and np.abs(R.T @ R - np.eye(d)).max() <= ORTHONORMAL_TOL
        and abs(np.linalg.det(R) - 1.0) <= ORTHONORMAL_TOL
    )


def accepts(R, t) -> bool:
    try:
        RigidTransform(R=R, t=t, mu=1.0)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("d", [2, 3])
def test_rigid_transform_rejects_reflections_off_rotations_and_non_finite(d):
    rng = make_rng(70 + d)
    t = np.zeros(d)
    for _ in range(20):
        Q = random_rotation(rng, d)
        assert accepts(Q, t)
        mirror = Q.copy()
        mirror[:, 0] = -mirror[:, 0]
        assert not accepts(mirror, t)
        # a shear I + e (E_01 + E_10) leaves det - 1 at -e^2 and puts an
        # error of 2 e into R^T R - I
        for scale, ok in ((1.0, False), (0.25, True)):
            S = np.eye(d)
            S[0, 1] = S[1, 0] = scale * ORTHONORMAL_TOL
            assert accepts(Q @ S, t) is ok
        for bad in (np.nan, np.inf, -np.inf):
            R = Q.copy()
            R[d - 1, 0] = bad
            assert not accepts(R, t)
            tb = t.copy()
            tb[0] = bad
            assert not accepts(Q, tb)


@pytest.mark.parametrize("d", [2, 3])
def test_rigid_transform_accepts_what_the_numpy_check_accepts(d):
    # rotations perturbed by errors spread over 0.1 to 10 times the
    # tolerance: the closed-form check decides each like the numpy one
    rng = make_rng(80 + d)
    decided = []
    for _ in range(2000):
        R = random_rotation(rng, d) + ORTHONORMAL_TOL * 10.0 ** rng.uniform(-1.0, 1.0) * rng.normal(size=(d, d))
        if rng.uniform() < 0.2:
            R[:, 0] = -R[:, 0]
        want = reference_transform_check(R, np.zeros(d))
        assert accepts(R, np.zeros(d)) is want
        decided.append(want)
    assert 0.2 < np.mean(decided) < 0.8


def test_small_det_agrees_with_linalg_det():
    rng = make_rng(90)
    for d in (2, 3):
        for _ in range(10000):
            R = random_rotation(rng, d)
            assert abs(small_det(R) - np.linalg.det(R)) <= 1e-12
        for _ in range(100):
            A = rng.normal(size=(d, d))
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


def test_config_defaults():
    cfg = Config()
    assert cfg.H == 20.0
    assert cfg.T_min == 5
    assert cfg.r == 50.0
    assert cfg.a == 1e-5
    assert cfg.p_min == 0.5
    assert cfg.theta == 0.005
    assert cfg.N_neighbor == 16
    assert cfg.seed == 0
    # one RANSAC path: no sample-size knob left
    assert not hasattr(cfg, "N_sparse")


@pytest.mark.parametrize("name", ["ransac_p", "n_reweight_iters", "max_em_iters"])
def test_config_holds_no_unset_knob(name):
    # settings no caller sets are module constants, not Config fields
    assert not hasattr(Config(), name)
    with pytest.raises(TypeError):
        Config(**{name: 1})


def test_config_rejects_out_of_range():
    with pytest.raises(ConfigError):
        Config(H=0.0)
    with pytest.raises(ConfigError):
        Config(r=-1.0)
    with pytest.raises(ConfigError):
        Config(p_min=0.0)
    with pytest.raises(ConfigError):
        Config(p_min=1.0)
    with pytest.raises(ConfigError):
        Config(T_min=0)
    with pytest.raises(ConfigError):
        Config(N_neighbor=0)


def test_config_scale_adaptation():
    # Config.for_matches is the one builder of a 3D config; these clouds
    # have scale estimate exactly 50
    x = [[50.0, 0.0, 0.0], [-50.0, 0.0, 0.0]]
    m = MatchSet.from_points(x, x)
    assert scale_estimate(m) == 50.0
    cfg = Config.for_matches(m)
    assert np.isclose(cfg.H, 5.0)
    assert np.isclose(cfg.r, 15.0)
    assert np.isclose(cfg.a, 0.008)
    assert cfg.N_neighbor == 50
    assert not hasattr(Config, "adapted_for_scale")
    # a 3D set without spread has no scale to adapt to
    with pytest.raises(DegenerateScaleError):
        Config.for_matches(MatchSet.from_points(x[:1] * 2, x[:1] * 2))


def test_config_for_matches_adapts_only_3d():
    m2 = MatchSet.from_points([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]])
    cfg2 = Config.for_matches(m2)
    assert cfg2 == Config()
    rng = make_rng(0)
    x3 = rng.uniform(0.0, 100.0, size=(50, 3))
    m3 = MatchSet.from_points(x3, x3 + 1.0)
    cfg3 = Config.for_matches(m3, seed=7)
    s = scale_estimate(m3)
    assert np.isclose(cfg3.H, 0.1 * s)
    assert np.isclose(cfg3.a, 20.0 / s**2)
    assert cfg3.N_neighbor == 50
    assert cfg3.seed == 7


def test_config_file_parsing(tmp_path):
    p = tmp_path / "params.cfg"
    p.write_text("# comment\n\nH = 30\nT_min=7\nseed=3\n")
    out = config_overrides_from_file(p)
    assert out == {"H": 30.0, "T_min": 7, "seed": 3}
    m = MatchSet.from_points([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]])
    cfg = Config.for_matches(m, **out)
    assert cfg.H == 30.0 and cfg.T_min == 7 and cfg.seed == 3


def test_config_file_values_take_their_field_type(tmp_path):
    # every key parses to the type its Config field is annotated with
    p = tmp_path / "params.cfg"
    default = Config()
    for f in fields(Config):
        p.write_text(f"{f.name}={getattr(default, f.name)}\n")
        out = config_overrides_from_file(p)
        assert out == {f.name: getattr(default, f.name)}
        assert type(out[f.name]).__name__ == f.type
        if f.type == "int":
            p.write_text(f"{f.name}=2.5\n")
            with pytest.raises(ConfigError, match=f"bad value for {f.name}"):
                config_overrides_from_file(p)


def test_config_file_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("no equals sign\n")
    with pytest.raises(ConfigError):
        config_overrides_from_file(p)
    p.write_text("unknown_key=1\n")
    with pytest.raises(ConfigError):
        config_overrides_from_file(p)
    p.write_text("N_sparse = none\n")
    with pytest.raises(ConfigError, match="unknown config key 'N_sparse'"):
        config_overrides_from_file(p)
    p.write_text("T_min=abc\n")
    with pytest.raises(ConfigError):
        config_overrides_from_file(p)


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
    x = np.tile([1.0, 2.0], (5, 1))
    with pytest.raises(DegenerateScaleError):
        scale_estimate(MatchSet.from_points(x, x))
    # one match has no spread either: degenerate, not a malformed input
    with pytest.raises(DegenerateScaleError, match="at least two matches"):
        scale_estimate(MatchSet.from_points([[0.0, 1.0, 2.0]], [[3.0, 4.0, 5.0]]))


def test_make_rng_reproducible():
    a = make_rng(123).uniform(size=8)
    b = make_rng(123).uniform(size=8)
    assert np.array_equal(a, b)
