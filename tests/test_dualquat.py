import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from matchfield.core import make_rng
from matchfield.dualquat import (
    _unturned,
    dq8_apply,
    dq8_blend,
    dq8_from_rt,
    dq8_identity,
    dq8_mul,
    dq8_normalize,
    dq8_translate_after,
    embed3,
    quat_from_matrix,
    quat_mul,
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


def test_apply_rotation_matches_scipy():
    # a motion without translation, at scale 1, rotates as scipy does
    rng = make_rng(3)
    for _ in range(20):
        R = random_rotation_obj(rng)
        dq = dq8_from_rt(R.as_matrix(), np.zeros(3))
        v = rng.normal(size=3)
        assert np.allclose(dq8_apply(dq, 1.0, v), R.apply(v), atol=1e-12)


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


def test_dq8_identity_and_translation():
    assert np.allclose(dq8_identity(), [1, 0, 0, 0, 0, 0, 0, 0])
    assert dq8_identity(4).shape == (4, 8)
    assert not dq8_identity()[OFF_PLANE_COLS].any()
    # a translation after the identity is the pure translation motion
    dq = dq8_translate_after(dq8_identity(), np.array([2.0, 4.0, 6.0]))
    assert np.allclose(dq[0:4], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(dq[4:8], [0.0, 1.0, 2.0, 3.0])
    p = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]])
    assert np.allclose(dq8_apply(dq, 1.0, p), p + [2.0, 4.0, 6.0], atol=1e-12)


def test_trans2dq_hand_value():
    # frozen: a 2D translation lifted into z = 0 has dual = t_quat / 2 times
    # the identity real part -> (0, 1, 2, 0)
    dq = dq8_translate_after(dq8_identity(), embed3([2.0, 4.0]))
    assert np.allclose(dq[0:4], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(dq[4:8], [0.0, 1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        embed3([1.0, 2.0, 3.0, 4.0])


def test_dq_multiply_applies_right_operand_first():
    # dq8_mul(a, b), renormalized, applies b first, then a:
    # x -> Ra (Rb x + tb) + ta, at points of both widths
    rng = make_rng(7)
    for dim in (2, 3):
        for _ in range(10):
            Ra, ta = random_rotation(rng, dim), rng.normal(size=dim)
            Rb, tb = random_rotation(rng, dim), rng.normal(size=dim)
            ab = dq8_normalize(dq8_mul(dq8_from_rt(Ra, ta), dq8_from_rt(Rb, tb)))
            x = rng.normal(size=(6, dim)) * 10.0
            want = (x @ Rb.T + tb) @ Ra.T + ta
            assert np.allclose(dq8_apply(ab, 1.0, x), want, atol=1e-9)


def test_dq8_translate_after_equals_product():
    rng = make_rng(8)
    for _ in range(10):
        dq = dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3))
        t = rng.normal(size=3)
        # the pure translation motion: identity real part, dual (0, t) / 2
        trans = np.concatenate([[1.0, 0.0, 0.0, 0.0, 0.0], 0.5 * t])
        want = dq8_mul(trans, dq)
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


def test_dq8_apply_hand_value():
    # frozen: a 90 degree turn then a unit step along x, at mu = 2, takes
    # (1, 0) to 2 ((0, 1) + (1, 0)) = (2, 2) and the origin to (2, 0)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    dq = dq8_from_rt(R, np.array([1.0, 0.0]))
    out = dq8_apply(dq, 2.0, np.array([1.0, 0.0]))
    assert out.shape == (2,)
    assert np.allclose(out, [2.0, 2.0], atol=1e-12)
    assert np.allclose(dq8_apply(dq, 2.0, [[1.0, 0.0], [0.0, 0.0]]), [[2.0, 2.0], [2.0, 0.0]])


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


@pytest.mark.parametrize("width", [1, 4])
def test_apply_rejects_points_neither_2_nor_3_wide(width):
    dq = dq8_identity()
    for pts in (np.zeros(width), np.zeros((5, width))):
        with pytest.raises(ValueError):
            dq8_apply(dq, 1.0, pts)
        with pytest.raises(ValueError):
            dq8_translate_after(dq, pts)


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
    a = dq8_from_rt(np.eye(2), np.zeros(2))
    b = dq8_from_rt(R90, center - R90 @ center)
    blended = dq8_blend(np.array([1.0, 1.0]), np.stack([a, b]))
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0], [-2.0, 5.0]])
    want = (pts - center) @ R45.T + center
    assert np.allclose(dq8_apply(blended, 1.0, pts), want, atol=1e-12)


def test_blend_ignores_antipodes_and_weight_scale():
    rng = make_rng(14)
    for _ in range(10):
        qs = np.stack([dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3))
                       for _ in range(4)])
        w = rng.uniform(0.1, 1.0, size=4)
        base = dq8_blend(w, qs)
        # the antipode of motion 1, moved to the front with its weight
        flipped = np.concatenate([-qs[1:2], qs[:1], qs[2:]])
        wf = np.concatenate([w[1:2], w[:1], w[2:]])
        other = dq8_blend(wf, flipped)
        scaled = dq8_blend(5.0 * w, qs)
        p = rng.normal(size=(5, 3))
        assert np.allclose(dq8_apply(base, 1.0, p), dq8_apply(other, 1.0, p), atol=1e-9)
        assert np.allclose(dq8_apply(base, 1.0, p), dq8_apply(scaled, 1.0, p), atol=1e-9)


def test_blend_unit_invariants():
    # a blend of unit motions, antipodes and zero weights among them, is a
    # unit motion; so is every row of a batched, indexed blend
    rng = make_rng(15)
    qs = np.stack([dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3)) for _ in range(6)])
    qs[::2] *= -1.0
    w = rng.uniform(0.0, 1.0, size=6)
    w[1] = 0.0
    assert unit_residual(dq8_blend(w, qs)) < 1e-9
    idx = rng.integers(0, 6, size=(50, 4))
    rows = dq8_blend(rng.uniform(0.1, 1.0, size=(50, 4)), qs, idx)
    assert max(unit_residual(r) for r in rows) < 1e-9


def test_dq_to_transform_planar_slice():
    # a 2D motion is a rotation about z, its 2x2 block the given one, and a
    # translation with zero z: the image of the 3D origin
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    dq = dq8_from_rt(R, np.array([2.0, 5.0]))
    R3 = quat_to_matrix(dq[0:4])
    assert np.allclose(R3[:2, :2], R, atol=1e-12)
    assert np.allclose(R3[2], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(R3[:, 2], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(dq8_apply(dq, 1.0, np.zeros(3)), [2.0, 5.0, 0.0], atol=1e-12)


def reference_dq8_normalize(dq):
    # the kernel's arithmetic written out: each four-term dot product added
    # left to right onto 0.0, as np.sum over a length-4 last axis does
    r0, r1, r2, r3, d0, d1, d2, d3 = np.moveaxis(dq, -1, 0)
    n2 = 0.0 + r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3
    n = np.sqrt(n2)
    s = (0.0 + r0 * d0 + r1 * d1 + r2 * d2 + r3 * d3) / n2
    rn = [r0 / n, r1 / n, r2 / n, r3 / n]
    dn = [d / n - rc * s for d, rc in zip((d0, d1, d2, d3), rn)]
    return np.stack(rn + dn, axis=-1)


def lifted_columns(pts):
    # x, y, z of (..., 2) or (..., 3) points, 2D ones lifted onto a column
    # of zeros
    pts = np.asarray(pts, dtype=np.float64)
    cols = list(np.moveaxis(pts, -1, 0))
    return cols + [np.zeros(pts.shape[:-1])] * (3 - len(cols))


def reference_dq8_apply(dq, mu, pts):
    # mu (R p + t) in its vector forms spelled out per component: the
    # rotation as p + w c + u x c with c = 2 u x p, each cross product as
    # np.cross takes it, and t = 2 (d conj(r)) as quat_mul's vector rows
    # with conj(r) the vector part of r times -1.0
    width = np.shape(pts)[-1]
    a, b, c = lifted_columns(pts)
    w, x, y, z, dw, dx, dy, dz = np.moveaxis(dq, -1, 0)
    c0, c1, c2 = 2.0 * (y * c - z * b), 2.0 * (z * a - x * c), 2.0 * (x * b - y * a)
    rotated = [a + w * c0 + (y * c2 - z * c1), b + w * c1 + (z * c0 - x * c2),
               c + w * c2 + (x * c1 - y * c0)]
    cx, cy, cz = x * -1.0, y * -1.0, z * -1.0
    t = [2.0 * (dw * cx + dx * w + dy * cz - dz * cy), 2.0 * (dw * cy - dx * cz + dy * w + dz * cx),
         2.0 * (dw * cz + dx * cy - dy * cx + dz * w)]
    mu = np.asarray(mu, dtype=np.float64)
    return np.stack([mu * (p + q) for p, q in zip(rotated, t)], axis=-1)[..., :width]


def reference_dq8_translate_after(dq, t):
    # the dual part plus 0.5 (0, t) r, quat_mul's four rows written out with
    # a scalar part of zeros
    tx, ty, tz = lifted_columns(t)
    w, x, y, z = np.moveaxis(dq[..., 0:4], -1, 0)
    zero = np.zeros(dq.shape[:-1])
    prod = [zero * w - tx * x - ty * y - tz * z, zero * x + tx * w + ty * z - tz * y,
            zero * y - tx * z + ty * w + tz * x, zero * z + tx * y - ty * x + tz * w]
    out = dq.copy()
    for c, pc in enumerate(prod):
        out[..., 4 + c] = dq[..., 4 + c] + 0.5 * pc
    return out


def reference_hemisphere_signs(weights, dqs):
    # weight j of a blend keeps its sign when the real part of motion j has
    # a non-negative dot product, its four products added left to right,
    # with the real part of the blend's first heaviest motion
    q = dqs[..., 0:4]
    head = np.take_along_axis(q, np.argmax(weights, axis=-1)[..., None, None], axis=-2)
    dots = (q[..., 0] * head[..., 0] + q[..., 1] * head[..., 1]
            + q[..., 2] * head[..., 2] + q[..., 3] * head[..., 3])
    return np.where(dots < 0.0, -weights, weights)


def reference_dq8_blend(weights, dqs):
    # the plain broadcast-multiply-then-sum form over a gathered
    # (..., k, 8) block, with signs and normalization written out
    signed = reference_hemisphere_signs(weights, dqs)
    return reference_dq8_normalize(np.sum(signed[..., None] * dqs, axis=-2))


def unit_motions_3d(rng, m):
    """m unit 3D motions with no zero column, half of them in the negative
    hemisphere, and far from planar."""
    q = rng.normal(size=(m, 4))
    R = Rotation.from_quat(q / np.linalg.norm(q, axis=1, keepdims=True)).as_matrix()
    dqs = dq8_from_rt(R, rng.normal(size=(m, 3)) * 40.0)
    return dqs * rng.choice([-1.0, 1.0], size=(m, 1))


@pytest.mark.parametrize("k", [1, 16, 50])
@pytest.mark.parametrize("lead", [(), (7,), (3, 5), (400,)])
def test_blend_kernels_bit_identical_to_broadcast_sum(k, lead):
    rng = make_rng(100 + k + len(lead))
    # weights over ten orders of magnitude, motions of both hemispheres
    w = rng.uniform(0.0, 1.0, size=lead + (k,)) * 10.0 ** rng.uniform(-5.0, 5.0, size=lead + (k,))
    dqs = rng.normal(size=lead + (k, 8)) * np.array([1.0] * 4 + [50.0] * 4)
    # every blend its own k table rows, and k rows drawn with repeats
    table = dqs.reshape(-1, 8)
    own = np.arange(table.shape[0]).reshape(lead + (k,))
    drawn = rng.integers(0, table.shape[0], size=lead + (k,))
    for t in (table, dq8_normalize(table)):
        for idx in (own, drawn):
            assert np.array_equal(dq8_blend(w, t, idx), reference_dq8_blend(w, t[idx]))


@pytest.mark.parametrize("k", [1, 3, 16, 50])
def test_blend_of_shared_and_gathered_motions_bit_identical(k):
    rng = make_rng(200 + k)
    motions = np.stack(
        [dq8_from_rt(random_rotation(rng, 3), rng.normal(size=3) * 40.0) for _ in range(k)]
    )
    w = np.exp(-rng.uniform(0.0, 3.0, size=(300, k)))
    # synth_generate blends one shared table of anchor motions for every
    # match: no index, every row takes the whole table
    shared = np.broadcast_to(motions, (300, k, 8))
    assert np.array_equal(dq8_blend(w, motions), reference_dq8_blend(w, shared))
    # m_step and query_field name each row's neighbour motions by index
    idx = rng.integers(0, k, size=(300, k))
    gathered = np.take(motions, idx, axis=0)
    assert np.array_equal(dq8_blend(w, motions, idx), reference_dq8_blend(w, gathered))


def test_normalize_bit_identical_to_the_written_out_order():
    # non-planar 3D motions, scaled and perturbed off the unit invariants,
    # so every product of every sum counts
    rng = make_rng(300)
    dqs = unit_motions_3d(rng, 2000)
    noisy = dqs * rng.uniform(0.5, 2.0, size=(2000, 1)) + 1e-3 * rng.normal(size=(2000, 8))
    for dq in (noisy, dqs, noisy.reshape(40, 50, 8), noisy[0]):
        assert not (dq == 0.0).any()
        assert np.array_equal(dq8_normalize(dq), reference_dq8_normalize(dq))


def planar_motions(rng, m):
    """m unit 2D motions of both hemispheres whose four off-plane columns
    are zeros of random sign."""
    ang = rng.uniform(-np.pi, np.pi, m)
    c, s = np.cos(ang), np.sin(ang)
    R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    dqs = dq8_from_rt(R, rng.normal(size=(m, 2)) * 40.0) * rng.choice([-1.0, 1.0], size=(m, 1))
    dqs[:, OFF_PLANE_COLS] = rng.choice([-0.0, 0.0], size=(m, 4))
    return dqs


def signed_zero_points(rng, shape):
    # points of 100s with about a fifth of their coordinates +0.0 and a
    # fifth -0.0
    pts = rng.normal(size=shape) * 100.0
    pts[rng.random(shape) < 0.2] = 0.0
    pts[rng.random(shape) < 0.25] = -0.0
    return pts


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lead", [(), (600,), (20, 30)])
def test_apply_and_translate_bit_identical_to_the_written_out_formulas(dim, lead):
    # unit motions of both hemispheres (2D ones with signed-zero off-plane
    # columns) over points with signed zeros, per-row and scalar mu, and
    # one (8,) motion over every point
    rng = make_rng(320 + dim + len(lead))
    k = int(np.prod(lead, dtype=np.int64))
    dqs = (planar_motions if dim == 2 else unit_motions_3d)(rng, max(k, 1))
    dqs = dqs.reshape(lead + (8,))
    pts = signed_zero_points(rng, lead + (dim,))
    mu = rng.uniform(0.5, 2.0, size=lead)
    for q, m_ in ((dqs, mu), (dqs, 1.7), (dqs.reshape(-1, 8)[0], 1.0), (dqs.reshape(-1, 8)[0], mu)):
        assert_same_bits(dq8_apply(q, m_, pts), reference_dq8_apply(q, m_, pts))
    if dim == 2:
        # a 2D point under a general 3D motion; rotations about the origin
        # (dual parts of signed zeros) over points that include the origin;
        # and 3D points in the plane, z of either sign, under the planar motions
        general = unit_motions_3d(rng, max(k, 1)).reshape(lead + (8,))
        still = dqs.copy()
        still[..., 4:8] = rng.choice([-0.0, 0.0], size=lead + (4,))
        flat = np.concatenate([pts, rng.choice([-0.0, 0.0], size=lead + (1,))], axis=-1)
        for q, p in ((general, pts), (still, pts), (dqs, flat), (still, flat)):
            assert_same_bits(dq8_apply(q, mu, p), reference_dq8_apply(q, mu, p))
            assert_same_bits(dq8_translate_after(q, p), reference_dq8_translate_after(q, p))
    assert_same_bits(dq8_translate_after(dqs, pts), reference_dq8_translate_after(dqs, pts))
    one = pts.reshape(-1, dim)[0]
    assert_same_bits(dq8_translate_after(dqs, one), reference_dq8_translate_after(dqs, one))
    assert_same_bits(dq8_normalize(dqs), reference_dq8_normalize(dqs))
    if dim == 3 and lead:
        # the references are the vector forms: quat_mul and np.cross
        r, d = dqs[..., 0:4], dqs[..., 4:8]
        c = 2.0 * np.cross(r[..., 1:4], pts)
        rotated = pts + r[..., 0:1] * c + np.cross(r[..., 1:4], c)
        t = 2.0 * quat_mul(d, r * np.array([1.0, -1.0, -1.0, -1.0]))[..., 1:4]
        assert_same_bits(reference_dq8_apply(dqs, mu, pts), mu[..., None] * (rotated + t))
        tq = np.zeros(lead + (4,))
        tq[..., 1:4] = pts
        assert_same_bits(reference_dq8_translate_after(dqs, pts)[..., 4:8],
                         d + 0.5 * quat_mul(tq, r))


def test_rotations_about_the_origin_keep_the_signs_of_its_zeros():
    # planar rotations with a dual part of signed zeros, at the origin with
    # signed-zero coordinates: every product is a zero, and the sign of the
    # result depends on each one, the products of the lifted z = 0 included
    rng = make_rng(331)
    dqs = planar_motions(rng, 20000)
    dqs[:, 4:8] = rng.choice([-0.0, 0.0], size=(20000, 4))
    origin = rng.choice([-0.0, 0.0], size=(20000, 2))
    for mu in (1.0, rng.uniform(0.5, 2.0, size=20000)):
        assert_same_bits(dq8_apply(dqs, mu, origin), reference_dq8_apply(dqs, mu, origin))
    assert_same_bits(dq8_translate_after(dqs, origin), reference_dq8_translate_after(dqs, origin))


def test_normalize_adds_the_dual_dot_onto_zero():
    # planar motions whose real-dual dot is four -0.0 products: added left
    # to right it is -0.0, onto 0.0 (as np.sum adds) it is +0.0, and the
    # sign shows in the -0.0 dual columns; the sum form and the kernel agree
    rng = make_rng(330)
    dqs = planar_motions(rng, 4000)
    r, d = dqs[:, 0:4], dqs[:, 4:8]
    dots = r * d
    assert ((dots == 0.0) & np.signbit(dots)).all(axis=1).sum() > 100
    n2 = np.sum(r * r, axis=-1, keepdims=True)
    summed = np.concatenate([r / np.sqrt(n2), d / np.sqrt(n2) - r / np.sqrt(n2)
                             * (np.sum(r * d, axis=-1, keepdims=True) / n2)], axis=-1)
    assert_same_bits(reference_dq8_normalize(dqs), summed)
    assert_same_bits(dq8_normalize(dqs), summed)
    for i in range(50):
        assert_same_bits(dq8_normalize(dqs[i]), summed[i])


def test_hemisphere_sign_follows_the_written_out_order():
    # motions whose real parts are orthogonal to the heaviest one up to
    # rounding: their dot products are a few ulps either side of zero, so
    # the sign each gets depends on the order its four products are added
    rng = make_rng(301)
    rows = 3000
    head = unit_motions_3d(rng, rows)
    other = unit_motions_3d(rng, rows)
    h = head[:, 0:4]
    r = other[:, 0:4]
    r = r - h * np.sum(r * h, axis=1, keepdims=True)
    other[:, 0:4] = r / np.linalg.norm(r, axis=1, keepdims=True)
    table = np.concatenate([head, other])
    idx = np.stack([np.arange(rows), np.arange(rows, 2 * rows)], axis=1)
    w = np.tile([1.0, 0.5], (rows, 1))
    gathered = table[idx]
    signs = np.sign(reference_hemisphere_signs(w, gathered)[:, 1])
    # the test discriminates: both signs occur, and adding the products in
    # another order decides some rows differently
    hr, rr = h, other[:, 0:4]
    paired = (rr[:, 0] * hr[:, 0] + rr[:, 1] * hr[:, 1]) + (rr[:, 2] * hr[:, 2] + rr[:, 3] * hr[:, 3])
    assert (signs > 0).any() and (signs < 0).any()
    assert ((paired < 0.0) != (signs < 0)).any()
    assert np.array_equal(dq8_blend(w, table, idx), reference_dq8_blend(w, gathered))


def motions_of(real, rng):
    """Unit motions with the given (m, 4) real parts and random translations."""
    real = np.asarray(real, dtype=np.float64)
    t = np.zeros((real.shape[0], 4))
    t[:, 1:4] = rng.normal(size=(real.shape[0], 3)) * 20.0
    return np.concatenate([real, 0.5 * quat_mul(t, real)], axis=1)


def opposed_pair(w, axis):
    """Two unit real parts of scalar part w whose vector parts point along
    +axis and -axis: their dot is w^2 - (1 - w^2)."""
    v = np.sqrt(1.0 - w * w) * np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    return [np.concatenate([[w], v]), np.concatenate([[w], -v])]


def test_blend_flips_an_antipode_among_small_motions():
    # a small 3D motion (w ~ 0.96) and the antipode of another small one:
    # the antipode's w^2 passes the 9/16 bound, but its negative w marks it
    # turned, so its row takes the dots and the antipode flips
    rng = make_rng(310)
    small = Rotation.from_rotvec([[0.3, -0.4, 0.2], [-0.2, 0.35, 0.25]]).as_quat(scalar_first=True)
    table = motions_of(small, rng)
    table[1] = -table[1]
    assert -0.98 < table[1, 0] < -0.95 and table[0, 0] > 0.95
    assert _unturned(np.ascontiguousarray(table[:, 0:4].T)).tolist() == [True, False]
    idx = np.array([[0, 1], [1, 0]])
    w = np.array([[1.0, 0.7], [0.2, 0.5]])
    assert (np.sign(reference_hemisphere_signs(w, table[idx])) == [[1, -1], [-1, 1]]).all()
    assert np.array_equal(dq8_blend(w, table, idx), reference_dq8_blend(w, table[idx]))


@pytest.mark.parametrize("w0,dot,flips", [(0.6, -0.28, True), (0.76, 0.1552, False)])
def test_blend_bound_at_three_quarters(w0, dot, flips):
    # unit pairs with opposing vector parts: at w = 0.6 (turned past the
    # bound) their dot is -0.28 and must flip; at w = 0.76 (inside it) the
    # dot is +0.155 and the row skips the dots
    rng = make_rng(311)
    table = motions_of(opposed_pair(w0, [1.0, -2.0, 0.5]), rng)
    assert np.isclose(np.dot(table[0, 0:4], table[1, 0:4]), dot, atol=1e-12)
    assert _unturned(np.ascontiguousarray(table[:, 0:4].T)).tolist() == [not flips] * 2
    idx = np.array([[0, 1], [1, 0], [0, 0]])
    w = np.array([[1.0, 0.3], [0.8, 0.4], [0.5, 0.5]])
    signs = np.sign(reference_hemisphere_signs(w, table[idx]))
    assert (signs[:2, 1] < 0).all() == flips and (signs[:2, 1] > 0).all() == (not flips)
    assert np.array_equal(dq8_blend(w, table, idx), reference_dq8_blend(w, table[idx]))


def test_blend_takes_the_dots_for_motions_of_extreme_norm():
    # real parts whose squares under- or overflow: at 1e-170 the turn of
    # (1e-170, -1e-165, 0, 0) is lost in w^2 = |r|^2 = 0, at 1e160 in
    # w^2 = |r|^2 = inf, so both count as turned, and the blends that hold
    # them flip the weight of the motion opposite their heaviest one
    small = [0.9, np.sqrt(1.0 - 0.81), 0.0, 0.0]
    for far, w in [([1e-170, -1e-165, 0.0, 0.0], [1e165, 1.0]),
                   ([1e160, -2e161, 0.0, 0.0], [1e-161, 1.0])]:
        table = np.zeros((2, 8))
        table[:, 0:4] = [far, small]
        assert _unturned(np.ascontiguousarray(table[:, 0:4].T)).tolist() == [False, True]
        w = np.array([w])
        assert (reference_hemisphere_signs(w, table[None]) < 0).any()
        assert np.array_equal(dq8_blend(w, table), reference_dq8_blend(w, table[None]))


def test_blend_mixes_rows_with_and_without_turned_motions():
    # one call over a table of small motions and turned ones (half turns,
    # antipodes, the w = 0.6 pair): rows of small motions skip the dots,
    # the other rows take them, and every row equals the written-out blend
    rng = make_rng(312)
    small = Rotation.from_rotvec(rng.normal(size=(40, 3)) * 0.3).as_quat(scalar_first=True)
    turned = np.concatenate([
        Rotation.from_rotvec(rng.normal(size=(10, 3)) * 2.5).as_quat(scalar_first=True),
        -small[:5],
        opposed_pair(0.6, [0.0, 1.0, 1.0]),
    ])
    table = motions_of(np.concatenate([small, turned]), rng)
    kind = _unturned(np.ascontiguousarray(table[:, 0:4].T))
    assert kind[:40].all() and not kind[40:].any()
    idx = np.concatenate([rng.integers(0, 40, size=(300, 8)),
                          rng.integers(0, table.shape[0], size=(300, 8))])
    w = rng.uniform(0.0, 1.0, size=idx.shape)
    holds_turned = ~kind[idx].all(axis=1)
    assert 250 < holds_turned.sum() < 300
    signs = reference_hemisphere_signs(w, table[idx])
    assert (signs[~holds_turned] == w[~holds_turned]).all() and (signs < 0).any()
    assert np.array_equal(dq8_blend(w, table, idx), reference_dq8_blend(w, table[idx]))


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
        # any leading shape, and one matrix at a time
        lead = dq8_from_rt(R.reshape(2, -1, d, d), t.reshape(2, -1, d))
        assert np.array_equal(lead.reshape(-1, 8), ref)
        for i in range(0, R.shape[0], 37):
            assert np.array_equal(dq8_from_rt(R[i], t[i]), ref[i])
