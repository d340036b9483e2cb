import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from matchfield.core import make_rng
from matchfield.dualquat import (
    dq8_apply,
    dq8_blend,
    dq8_from_rt,
    dq8_identity,
    dq8_mul,
    dq8_normalize,
    dq8_to_rt,
    dq8_translate_after,
    dq8_translation,
    dq_apply,
    dq_blend,
    dq_from_transform,
    dq_multiply,
    embed3,
    quat_from_matrix,
    quat_mul,
    quat_rotate,
    quat_to_matrix,
)

# columns of the 8-wide layout that a planar (z = 0) motion leaves zero
OFF_PLANE_COLS = [1, 2, 4, 7]


def random_rotation_obj(rng):
    q = rng.normal(size=4)
    return Rotation.from_quat(q / np.linalg.norm(q))


def random_rotation(rng, dim):
    if dim == 3:
        return random_rotation_obj(rng).as_matrix()
    ang = rng.uniform(-np.pi, np.pi)
    c, s = np.cos(ang), np.sin(ang)
    return np.array([[c, -s], [s, c]])


def unit_residual(a):
    r, d = a[0:4], a[4:8]
    return max(abs(np.linalg.norm(r) - 1.0), abs(float(np.dot(r, d))))


def test_quat_mul_matches_rotation_composition():
    rng = make_rng(2)
    for _ in range(20):
        Ra = random_rotation_obj(rng)
        Rb = random_rotation_obj(rng)
        qa = quat_from_matrix(Ra.as_matrix())
        qb = quat_from_matrix(Rb.as_matrix())
        M = quat_to_matrix(quat_mul(qa, qb))
        assert np.allclose(M, (Ra * Rb).as_matrix(), atol=1e-12)


def test_quat_rotate_matches_matrix():
    rng = make_rng(3)
    for _ in range(20):
        R = random_rotation_obj(rng)
        q = quat_from_matrix(R.as_matrix())
        v = rng.normal(size=3)
        assert np.allclose(quat_rotate(q, v), R.apply(v), atol=1e-12)


def test_quat_matrix_round_trip():
    rng = make_rng(4)
    for _ in range(20):
        R = random_rotation_obj(rng).as_matrix()
        assert np.allclose(quat_to_matrix(quat_from_matrix(R)), R, atol=1e-12)


def test_dq8_apply_matches_matrix_oracle():
    rng = make_rng(5)
    for dim in (2, 3):
        for _ in range(20):
            R = random_rotation(rng, dim)
            t = rng.normal(size=dim)
            mu = rng.uniform(0.5, 2.0)
            dq = dq8_from_rt(R, t)
            assert unit_residual(dq) < 1e-9
            pts = rng.normal(size=(7, 3))
            if dim == 2:
                pts[:, 2] = 0.0
            want3 = np.zeros((7, 3))
            want3[:, :dim] = mu * (pts[:, :dim] @ R.T + t)
            got = dq8_apply(dq, mu, pts)
            assert np.allclose(got, want3, atol=1e-9)


def test_dq8_to_rt_round_trip():
    rng = make_rng(6)
    for _ in range(20):
        R = random_rotation(rng, 3)
        t = rng.normal(size=3)
        R2, t2 = dq8_to_rt(dq8_from_rt(R, t))
        assert np.allclose(R2, R, atol=1e-12)
        assert np.allclose(t2, t, atol=1e-12)


def test_dq8_identity_and_translation():
    assert np.allclose(dq8_identity(), [1, 0, 0, 0, 0, 0, 0, 0])
    assert dq8_identity(4).shape == (4, 8)
    dq = dq8_translation(np.array([2.0, 4.0, 6.0]))
    assert np.allclose(dq[4:8], [0.0, 1.0, 2.0, 3.0])


def test_trans2dq_hand_value():
    # frozen: a 2D translation lifted into z = 0 has dual = t_quat / 2 times
    # the identity real part -> (0, 1, 2, 0)
    dq = dq8_translation(embed3([2.0, 4.0]))
    assert np.allclose(dq[0:4], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(dq[4:8], [0.0, 1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        embed3([1.0, 2.0, 3.0, 4.0])


def test_dq_multiply_applies_right_operand_first():
    rng = make_rng(7)
    for _ in range(10):
        Ra, ta = random_rotation(rng, 3), rng.normal(size=3)
        Rb, tb = random_rotation(rng, 3), rng.normal(size=3)
        a = dq_from_transform(Ra, ta)
        b = dq_from_transform(Rb, tb)
        Rc, tc = dq8_to_rt(dq_multiply(a, b))
        # b first, then a: x -> Ra (Rb x + tb) + ta
        assert np.allclose(Rc, Ra @ Rb, atol=1e-9)
        assert np.allclose(tc, Ra @ tb + ta, atol=1e-9)


def test_dq8_translate_after_equals_product():
    rng = make_rng(8)
    for _ in range(10):
        dq = dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3))
        t = rng.normal(size=3)
        want = dq8_mul(dq8_translation(t), dq)
        assert np.allclose(dq8_translate_after(dq, t), want, atol=1e-12)


def test_dq8_mul_keeps_unit_invariants():
    rng = make_rng(9)
    for _ in range(20):
        a = dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3))
        b = dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3))
        assert unit_residual(dq8_normalize(dq8_mul(a, b))) < 1e-9


def test_dq_normalize_restores_invariants():
    rng = make_rng(10)
    for _ in range(10):
        a = dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3))
        noisy = a * 1.7 + np.concatenate([np.zeros(4), 1e-3 * rng.normal(size=4)])
        fixed = dq8_normalize(noisy)
        assert unit_residual(fixed) < 1e-9


def test_unit_dual_quaternion_validation():
    # every checked entry point rejects a dq off the unit invariants or of
    # the wrong shape
    not_unit = np.array([2.0, 0, 0, 0, 0, 0, 0, 0])
    not_orthogonal = np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0])
    ident = dq8_identity()
    for bad in (not_unit, not_orthogonal, np.ones(4)):
        with pytest.raises(ValueError):
            dq_apply(bad, 1.0, np.zeros(3))
        with pytest.raises(ValueError):
            dq_multiply(ident, bad)
        with pytest.raises(ValueError):
            dq_multiply(bad, ident)
        with pytest.raises(ValueError):
            dq_blend([(1.0, ident), (1.0, bad)])
    assert not dq8_identity()[OFF_PLANE_COLS].any()


def test_dq_from_transform_rejects_non_rotation():
    with pytest.raises(ValueError):
        dq_from_transform(np.array([[1.0, 0.2], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        dq_from_transform(np.diag([1.0, -1.0, 1.0]), np.zeros(3))


def test_dq_apply_scalar_layer():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    dq = dq_from_transform(R, np.array([1.0, 0.0]))
    out = dq_apply(dq, 2.0, np.array([1.0, 0.0]))
    assert np.allclose(out, [2.0, 2.0], atol=1e-12)
    assert np.allclose(dq_apply(dq, 2.0, [[1.0, 0.0], [0.0, 0.0]]), [[2.0, 2.0], [2.0, 0.0]])
    for mu in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            dq_apply(dq, mu, [1.0, 0.0])
    with pytest.raises(ValueError):
        dq_apply(dq, 1.0, np.zeros(5))


@pytest.mark.parametrize("lead", [(), (7,), (4, 5)])
def test_2d_points_equal_the_lifted_3d_result_bit_for_bit(lead):
    # dq8_apply and dq8_translate_after lift 2D input into z = 0 themselves;
    # the result must be the one of 3D input lifted by hand, sliced to 2D
    rng = make_rng(16)
    k = int(np.prod(lead, dtype=np.int64))
    # planar and general motions alternate
    dqs = np.stack([dq8_from_rt(random_rotation(rng, d), rng.normal(size=d) * 50.0)
                    for d in ([2, 3] * k)[:k]]).reshape(lead + (8,))
    mu = rng.uniform(0.5, 2.0, size=lead)
    pts = rng.normal(size=lead + (2,)) * 100.0
    lifted = np.concatenate([pts, np.zeros(lead + (1,))], axis=-1)
    out = dq8_apply(dqs, mu, pts)
    assert out.shape == lead + (2,)
    assert out.tobytes() == dq8_apply(dqs, mu, lifted)[..., :2].tobytes()
    moved = dq8_translate_after(dqs, pts)
    assert moved.tobytes() == dq8_translate_after(dqs, lifted).tobytes()
    if not lead:
        one = dq_apply(dqs, float(mu), pts)
        assert one.tobytes() == dq8_apply(dqs, mu, lifted)[:2].tobytes()


@pytest.mark.parametrize("width", [1, 4])
def test_apply_rejects_points_neither_2_nor_3_wide(width):
    dq = dq8_identity()
    for pts in (np.zeros(width), np.zeros((5, width))):
        with pytest.raises(ValueError):
            dq8_apply(dq, 1.0, pts)
        with pytest.raises(ValueError):
            dq_apply(dq, 1.0, pts)


def test_planar_motions_stay_planar_through_kernels():
    # 2D runs use the 8-wide kernels on motions in the z = 0 plane; every
    # kernel must leave the off-plane columns exactly zero
    rng = make_rng(13)
    for _ in range(10):
        dqs = np.stack(
            [dq8_from_rt(random_rotation(rng, 2), rng.normal(size=2)) for _ in range(5)]
        )
        assert not dqs[:, OFF_PLANE_COLS].any()
        w = rng.uniform(0.1, 1.0, size=5)
        moved = dq8_translate_after(dqs, embed3(rng.normal(size=(5, 2))))
        for dq in (dq8_blend(w, dqs), dq8_normalize(dq8_mul(dqs[0], dqs[1])), moved):
            assert not dq[..., OFF_PLANE_COLS].any()
        pts = embed3(rng.normal(size=(5, 2)))
        assert not dq8_apply(dqs, w, pts)[:, 2].any()


def test_blend_of_perpendicular_rotations_bisects():
    # frozen: equal-weight blend of 0 and 90 degree rotations about the same
    # center is the 45 degree rotation about that center
    center = np.array([3.0, 1.0])
    R90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    R45 = np.array(
        [[np.cos(np.pi / 4), -np.sin(np.pi / 4)], [np.sin(np.pi / 4), np.cos(np.pi / 4)]]
    )
    a = dq_from_transform(np.eye(2), np.zeros(2))
    b = dq_from_transform(R90, center - R90 @ center)
    blended = dq_blend([(1.0, a), (1.0, b)])
    Rc, tc = dq8_to_rt(blended)
    Rc, tc = Rc[:2, :2], tc[:2]
    assert np.allclose(Rc, R45, atol=1e-12)
    assert np.allclose(tc, center - R45 @ center, atol=1e-12)


def test_blend_ignores_antipodes_and_weight_scale():
    rng = make_rng(14)
    for _ in range(10):
        qs = [dq_from_transform(random_rotation(rng, 3), rng.normal(size=3)) for _ in range(4)]
        w = list(rng.uniform(0.1, 1.0, size=4))
        base = dq_blend(zip(w, qs))
        flipped = [-qs[1]] + qs[:1] + qs[2:]
        wf = [w[1], w[0]] + w[2:]
        other = dq_blend(zip(wf, flipped))
        scaled = dq_blend(zip([5.0 * v for v in w], qs))
        p = rng.normal(size=3)
        assert np.allclose(dq_apply(base, 1.0, p), dq_apply(other, 1.0, p), atol=1e-9)
        assert np.allclose(dq_apply(base, 1.0, p), dq_apply(scaled, 1.0, p), atol=1e-9)


def test_blend_unit_invariants_and_errors():
    rng = make_rng(15)
    qs = [dq_from_transform(random_rotation(rng, 3), rng.normal(size=3)) for _ in range(6)]
    out = dq_blend([(w, q) for w, q in zip(rng.uniform(0.0, 1.0, size=6), qs)])
    assert unit_residual(out) < 1e-9
    with pytest.raises(ValueError):
        dq_blend([])
    with pytest.raises(ValueError):
        dq_blend([(-1.0, qs[0])])
    with pytest.raises(ValueError):
        dq_blend([(0.0, qs[0]), (0.0, qs[1])])


def test_dq_to_transform_planar_slice():
    # a 2D motion comes back as the 2x2 block of a rotation about z and a
    # translation with zero z
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    dq = dq_from_transform(R, np.array([2.0, 5.0]))
    R3, t3 = dq8_to_rt(dq)
    assert np.allclose(R3[:2, :2], R, atol=1e-12)
    assert np.allclose(R3[2], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(R3[:, 2], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(t3, [2.0, 5.0, 0.0], atol=1e-12)


def reference_dq8_blend(weights, dqs):
    # the broadcast-multiply-then-sum form the einsum kernel replaced
    ref_idx = np.argmax(weights, axis=-1)
    ref = np.take_along_axis(dqs[..., 0:4], ref_idx[..., None, None], axis=-2)
    dots = np.sum(dqs[..., 0:4] * ref, axis=-1)
    signed = np.where(dots < 0.0, -weights, weights)
    return dq8_normalize(np.sum(signed[..., None] * dqs, axis=-2))


@pytest.mark.parametrize("k", [1, 16, 50])
@pytest.mark.parametrize("lead", [(), (7,), (3, 5), (400,)])
def test_blend_kernels_bit_identical_to_broadcast_sum(k, lead):
    rng = make_rng(100 + k + len(lead))
    # weights over ten orders of magnitude, motions of both hemispheres
    w = rng.uniform(0.0, 1.0, size=lead + (k,)) * 10.0 ** rng.uniform(-5.0, 5.0, size=lead + (k,))
    dqs = rng.normal(size=lead + (k, 8)) * np.array([1.0] * 4 + [50.0] * 4)
    assert np.array_equal(dq8_blend(w, dqs), reference_dq8_blend(w, dqs))
    # unit motions as the EM and field stages pass them
    unit = dq8_normalize(dqs)
    assert np.array_equal(dq8_blend(w, unit), reference_dq8_blend(w, unit))


@pytest.mark.parametrize("k", [1, 3, 16, 50])
def test_blend_of_shared_and_gathered_motions_bit_identical(k):
    rng = make_rng(200 + k)
    motions = np.stack(
        [dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3) * 40.0) for _ in range(k)]
    )
    w = np.exp(-rng.uniform(0.0, 3.0, size=(300, k)))
    # synth_generate blends one shared set of anchor motions for every
    # match through a zero-stride np.broadcast_to view
    dqs = np.broadcast_to(motions, (300, k, 8))
    assert np.array_equal(dq8_blend(w, dqs), reference_dq8_blend(w, dqs))
    # m_step and query_field gather motion rows with np.take
    idx = rng.integers(0, k, size=(300, k))
    gathered = np.take(motions, idx, axis=0)
    assert np.array_equal(dq8_blend(w, gathered), reference_dq8_blend(w, gathered))


def reference_quat_from_matrix(R):
    # the single-matrix form the masked, batched kernel replaced
    m00, m01, m02 = R[0]
    m10, m11, m12 = R[1]
    m20, m21, m22 = R[2]
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s])
    elif m00 >= m11 and m00 >= m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        q = np.array([(m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s])
    elif m11 >= m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        q = np.array([(m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s])
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        q = np.array([(m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def reference_dq8_from_rt(R, t):
    R3 = np.eye(3)
    R3[: R.shape[0], : R.shape[0]] = R
    t3 = np.zeros(3)
    t3[: t.shape[0]] = t
    real = reference_quat_from_matrix(R3)
    dual = 0.5 * quat_mul(np.array([0.0, t3[0], t3[1], t3[2]]), real)
    return np.concatenate([real, dual])


def rotations_of_every_branch(rng, k):
    """3D rotations whose quaternion takes each branch of quat_from_matrix:
    small angles (positive trace), and half turns about axes near x, y
    and z (largest diagonal term m00, m11, m22)."""
    out = [Rotation.from_rotvec(rng.normal(size=(k, 3)) * 0.3).as_matrix()]
    for axis in np.eye(3):
        v = axis + 0.1 * rng.normal(size=(k, 3))
        v *= (np.pi - rng.uniform(0.0, 0.2, size=(k, 1))) / np.linalg.norm(v, axis=1)[:, None]
        out.append(Rotation.from_rotvec(v).as_matrix())
    out.append(Rotation.random(k, random_state=int(rng.integers(1 << 30))).as_matrix())
    return np.concatenate(out)


def test_batched_dq8_from_rt_bit_identical_to_single_reference():
    rng = make_rng(300)
    R3 = rotations_of_every_branch(rng, 200)
    diag = np.diagonal(R3, axis1=1, axis2=2)
    tr = diag.sum(axis=1)
    branch = np.where(tr > 0.0, 0, 1 + np.argmax(diag, axis=1))
    assert np.bincount(branch, minlength=4).min() >= 100
    # plane rotations take the positive-trace branch, or past 2 pi / 3 the m22 one
    ang = np.concatenate([rng.uniform(-np.pi, np.pi, 500), np.pi - rng.uniform(0.0, 1e-3, 20)])
    c, s = np.cos(ang), np.sin(ang)
    R2 = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    for R in (R3, R2):
        d = R.shape[-1]
        t = rng.normal(size=(R.shape[0], d)) * 10.0 ** rng.uniform(-3.0, 6.0, size=(R.shape[0], 1))
        ref = np.stack([reference_dq8_from_rt(Ri, ti) for Ri, ti in zip(R, t)])
        assert np.array_equal(dq8_from_rt(R, t), ref)
        if d == 3:
            assert np.array_equal(quat_from_matrix(R), ref[:, :4])
        # any leading shape, and one matrix at a time as dq_from_transform calls it
        lead = dq8_from_rt(R.reshape(2, -1, d, d), t.reshape(2, -1, d))
        assert np.array_equal(lead.reshape(-1, 8), ref)
        for i in range(0, R.shape[0], 37):
            assert np.array_equal(dq8_from_rt(R[i], t[i]), ref[i])
            assert np.array_equal(dq_from_transform(R[i], t[i]), ref[i])
