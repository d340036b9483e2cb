"""Quaternion and unit dual quaternion algebra with weighted linear blending.

A unit dual quaternion packs a rotation (real part, a unit quaternion) and a
translation (dual part, half the translation quaternion times the real part)
into eight numbers that can be blended linearly and renormalized. Scale is
kept outside as a separate positive factor, so a scaled rigid motion is the
pair (dq, mu) acting as p -> mu * (R p + t).

Every motion is a plain float array of shape (..., 8), column layout
[rw, rx, ry, rz, dw, dx, dy, dz], and the dq8_* kernels work on any number
of leading axes. 2D motions live in the z = 0 plane: their columns 1, 2, 4
and 7 are exactly zero and stay zero through products, blends and
translations, so 2D and 3D share one layout and one set of kernels.
dq8_apply and dq8_translate_after take (..., 2) or (..., 3) points and
vectors, lift 2D ones into that plane themselves and return the width they
were given. The dq_* functions are checked single-motion entry points onto
the same kernels.

Conventions used throughout:

* quaternion product is the Hamilton product;
* dual part of a motion (R, t) is 0.5 * t_quat * real where t_quat = (0, t);
* dq_multiply(a, b) is the motion "apply b first, then a", matching how
  rotation matrices compose.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FloatArray, RigidTransform

UNIT_TOL = 1e-9


def embed3(pts) -> FloatArray:
    """Points (..., 2) lifted into the z = 0 plane; (..., 3) returned as is."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.shape[-1] == 3:
        return pts
    if pts.shape[-1] != 2:
        raise ValueError(f"points must be 2- or 3-dimensional, got {pts.shape}")
    return np.concatenate([pts, np.zeros(pts.shape[:-1] + (1,))], axis=-1)


# ---------------------------------------------------------------------------
# plain quaternion kernels, vectorized over leading axes


def quat_mul(a: FloatArray, b: FloatArray) -> FloatArray:
    """Hamilton product of quaternion arrays (..., 4)."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def quat_conj(q: FloatArray) -> FloatArray:
    return q * _CONJ_SIGNS


def quat_rotate(q: FloatArray, v: FloatArray) -> FloatArray:
    """Rotate vectors (..., 3) by unit quaternions (..., 4)."""
    u = q[..., 1:4]
    w = q[..., 0:1]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def quat_to_matrix(q) -> FloatArray:
    """Rotation matrix (3, 3) of a unit quaternion (supports batched input)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def quat_from_matrix(R) -> FloatArray:
    """Unit quaternions of 3x3 rotation matrices (..., 3, 3), as (..., 4).

    Branches on the largest diagonal term for numerical stability, one
    masked pass per case; the sign is fixed so the returned scalar part is
    non-negative. Each case keeps the operation order of converting one
    matrix at a time, and the norm is sqrt(vecdot(q, q)), the dot product
    np.linalg.norm takes, so a stack gives each matrix's own quaternion
    bit for bit.
    """
    R = np.asarray(R, dtype=np.float64)
    m00, m01, m02 = R[..., 0, 0], R[..., 0, 1], R[..., 0, 2]
    m10, m11, m12 = R[..., 1, 0], R[..., 1, 1], R[..., 1, 2]
    m20, m21, m22 = R[..., 2, 0], R[..., 2, 1], R[..., 2, 2]
    tr = m00 + m11 + m22
    cw = tr > 0.0
    cx = ~cw & (m00 >= m11) & (m00 >= m22)
    cy = ~cw & ~cx & (m11 >= m22)
    cz = ~(cw | cx | cy)
    q = np.empty(R.shape[:-2] + (4,))
    s = np.sqrt(tr[cw] + 1.0) * 2.0
    q[cw] = np.stack([0.25 * s, (m21[cw] - m12[cw]) / s, (m02[cw] - m20[cw]) / s,
                      (m10[cw] - m01[cw]) / s], axis=-1)
    s = np.sqrt(1.0 + m00[cx] - m11[cx] - m22[cx]) * 2.0
    q[cx] = np.stack([(m21[cx] - m12[cx]) / s, 0.25 * s, (m01[cx] + m10[cx]) / s,
                      (m02[cx] + m20[cx]) / s], axis=-1)
    s = np.sqrt(1.0 + m11[cy] - m00[cy] - m22[cy]) * 2.0
    q[cy] = np.stack([(m02[cy] - m20[cy]) / s, (m01[cy] + m10[cy]) / s, 0.25 * s,
                      (m12[cy] + m21[cy]) / s], axis=-1)
    s = np.sqrt(1.0 + m22[cz] - m00[cz] - m11[cz]) * 2.0
    q[cz] = np.stack([(m10[cz] - m01[cz]) / s, (m02[cz] + m20[cz]) / s,
                      (m12[cz] + m21[cz]) / s, 0.25 * s], axis=-1)
    q /= np.sqrt(np.vecdot(q, q))[..., None]
    return np.where(q[..., 0:1] < 0.0, -q, q)


# ---------------------------------------------------------------------------
# generic 8-component dual quaternion kernels


def dq8_identity(n: int | None = None) -> FloatArray:
    one = np.zeros(8 if n is None else (n, 8))
    one[..., 0] = 1.0
    return one


def dq8_mul(a: FloatArray, b: FloatArray) -> FloatArray:
    """Dual quaternion product: real = ar br, dual = ar bd + ad br."""
    ar, ad = a[..., 0:4], a[..., 4:8]
    br, bd = b[..., 0:4], b[..., 4:8]
    real = quat_mul(ar, br)
    dual = quat_mul(ar, bd) + quat_mul(ad, br)
    return np.concatenate([real, dual], axis=-1)


def dq8_normalize(dq: FloatArray) -> FloatArray:
    """Normalize by the full dual-number norm.

    With real part r and dual part d this is r -> r/|r| and
    d -> d/|r| - r <r, d> / |r|^3, which restores both unit invariants
    (|real| = 1 and <real, dual> = 0) exactly up to rounding.
    """
    r = dq[..., 0:4]
    d = dq[..., 4:8]
    n2 = np.sum(r * r, axis=-1, keepdims=True)
    n = np.sqrt(n2)
    rn = r / n
    dn = d / n - rn * (np.sum(r * d, axis=-1, keepdims=True) / n2)
    return np.concatenate([rn, dn], axis=-1)


def dq8_apply(dq: FloatArray, mu, pts) -> FloatArray:
    """Apply scaled motions: mu * (R p + t) for unit dqs (..., 8).

    Points are (..., 2) or (..., 3) and the result has their width.
    """
    pts = np.asarray(pts, dtype=np.float64)
    r = dq[..., 0:4]
    d = dq[..., 4:8]
    rotated = quat_rotate(r, embed3(pts))
    t = 2.0 * quat_mul(d, quat_conj(r))[..., 1:4]
    mu = np.asarray(mu, dtype=np.float64)
    return (mu[..., None] * (rotated + t))[..., : pts.shape[-1]]


def dq8_from_rt(R, t) -> FloatArray:
    """Build the 8-vectors of rigid motions, R (..., d, d) and t (..., d).

    2D input is embedded in z = 0. Works over leading axes; a stack gives
    each motion's own 8-vector bit for bit.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.shape[-2:] == (2, 2):
        R3 = np.zeros(R.shape[:-2] + (3, 3))
        R3[..., :2, :2] = R
        R3[..., 2, 2] = 1.0
    else:
        R3 = R
    t3 = embed3(t)
    real = quat_from_matrix(R3)
    tq = np.zeros(t3.shape[:-1] + (4,))
    tq[..., 1:4] = t3
    dual = 0.5 * quat_mul(tq, real)
    return np.concatenate([real, dual], axis=-1)


def dq8_translation(t: FloatArray) -> FloatArray:
    """Pure translation dqs from vectors (..., 3)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape[:-1] + (8,))
    out[..., 0] = 1.0
    out[..., 5:8] = 0.5 * t
    return out


def dq8_translate_after(dq: FloatArray, t) -> FloatArray:
    """Compose a translation t, (..., 2) or (..., 3), applied after the
    motion of dq.

    Equals dq8_mul(dq8_translation(t), dq) but cheaper: the real part is
    unchanged and the dual part gains 0.5 * t_quat * real.
    """
    tq = np.zeros(dq.shape[:-1] + (4,))
    tq[..., 1:4] = embed3(t)
    out = dq.copy()
    out[..., 4:8] += 0.5 * quat_mul(tq, dq[..., 0:4])
    return out


def dq8_blend(weights: FloatArray, dqs: FloatArray) -> FloatArray:
    """Weighted linear blend of dqs (..., k, 8) with weights (..., k).

    Each contribution is flipped into the hemisphere of the heaviest-weight
    entry before summation (q and -q encode the same motion, so naive sums
    can cancel), then the sum is renormalized. Rows whose weights sum to
    zero are the caller's problem; this function assumes at least one
    positive weight per row.
    """
    ref_idx = np.argmax(weights, axis=-1)
    ref = np.take_along_axis(dqs[..., 0:4], ref_idx[..., None, None], axis=-2)
    dots = (
        dqs[..., 0] * ref[..., 0]
        + dqs[..., 1] * ref[..., 1]
        + dqs[..., 2] * ref[..., 2]
        + dqs[..., 3] * ref[..., 3]
    )
    signed = np.where(dots < 0.0, -weights, weights)
    # einsum adds the k products in index order, bit for bit as summing the
    # broadcast product over axis -2 does for C-ordered, gathered and
    # zero-stride inputs (the tests check each), without the (..., k, 8)
    # temporary
    total = np.einsum("...k,...kc->...c", signed, dqs)
    return dq8_normalize(total)


def dq8_to_rt(dq: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Recover (R, t) in 3D from unit dqs (..., 8)."""
    r = dq[..., 0:4]
    d = dq[..., 4:8]
    R = quat_to_matrix(r)
    t = 2.0 * quat_mul(d, quat_conj(r))[..., 1:4]
    return R, t


# ---------------------------------------------------------------------------
# checked operations on single (8,) dual quaternions


def _unit_dq(dq) -> FloatArray:
    """A caller's dual quaternion as an (8,) array, held to the unit invariants.

    Rejects any other shape, |real| off 1 by more than UNIT_TOL, and real
    and dual parts further than UNIT_TOL from orthogonal.
    """
    a = np.asarray(dq, dtype=np.float64)
    if a.shape != (8,):
        raise ValueError(f"expected 8 components, got shape {a.shape}")
    if abs(np.linalg.norm(a[0:4]) - 1.0) > UNIT_TOL:
        raise ValueError("real part must be a unit quaternion")
    if abs(float(np.dot(a[0:4], a[4:8]))) > UNIT_TOL:
        raise ValueError("real and dual parts must be orthogonal")
    return a


def dq_from_transform(R, t) -> FloatArray:
    """Encode a rigid motion (R, t), 2D or 3D, as a unit dual quaternion (8,).

    Scale stays outside; pass it to dq_apply for the full mapping
    mu * (R x + t). Rejects what RigidTransform rejects: a matrix that is
    not a proper rotation, or a t that does not fit R.
    """
    rt = RigidTransform(R, t, 1.0)
    return dq8_from_rt(rt.R, rt.t)


def dq_apply(dq, mu: float, x) -> FloatArray:
    """Apply the scaled motion (dq, mu) to one point or an array of points.

    Accepts (..., 2) or (..., 3) points and returns the same shape; mu must
    be finite and positive.
    """
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be finite and positive, got {mu}")
    return dq8_apply(_unit_dq(dq), mu, x)


def dq_multiply(a, b) -> FloatArray:
    """Compose motions: the result applies b first, then a.

    The product is renormalized, so the output satisfies the unit
    invariants even after long chains.
    """
    return dq8_normalize(dq8_mul(_unit_dq(a), _unit_dq(b)))


def dq_blend(pairs) -> FloatArray:
    """Blend weighted unit dual quaternions: normalized sign-consistent sum.

    pairs is an iterable of (weight, dq) with non-negative weights, at
    least one positive. Invariant under rescaling all weights and under
    replacing any input by its antipode.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (weight, dq) pair")
    w = np.array([float(p[0]) for p in pairs])
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    if not (w > 0.0).any():
        raise ValueError("at least one weight must be positive")
    return dq8_blend(w, np.stack([_unit_dq(p[1]) for p in pairs]))
