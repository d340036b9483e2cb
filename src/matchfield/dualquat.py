"""Quaternion and unit dual quaternion algebra with weighted linear blending.

A unit dual quaternion packs a rotation (real part, a unit quaternion) and a
translation (dual part, half the translation quaternion times the real part)
into eight numbers that can be blended linearly and renormalized. Scale is
kept outside as a separate positive factor, so a scaled rigid motion is the
pair (dq, mu) acting as p -> mu * (R p + t).

Every motion is a plain float array of shape (..., 8), column layout
[rw, rx, ry, rz, dw, dx, dy, dz], and the dq8_* kernels work on any number
of leading axes; dq8_blend reads its motions from an (m, 8) table by index.

2D motions live in the z = 0 plane: their columns 1, 2, 4 and 7 are
exactly zero and stay zero through products, blends and translations, so
2D and 3D share one layout and one set of kernels.
dq8_apply and dq8_translate_after take (..., 2) or (..., 3) points and
vectors, lift 2D ones into that plane themselves and return the width they
were given. The dq_* functions are checked single-motion entry points onto
the same kernels.

dq8_blend flips each motion into the hemisphere of its blend's heaviest
one (Kavan et al., "Geometric Skinning with Approximate Dual Quaternion
Blending", 2008), and takes those dot products only in blends that hold a
turned motion. A motion is unturned when its scalar part w is positive and
at least 3/4 of its real part's norm (a turn of at most ~83 degrees); two
unturned motions have a dot of at least cos(2 acos(3/4)) = 1/8 of their
norms' product, so a blend of them flips nothing and skips the dots with
the same bits.

Conventions used throughout:

* quaternion product is the Hamilton product;
* dual part of a motion (R, t) is 0.5 * t_quat * real where t_quat = (0, t);
* dq_multiply(a, b) is the motion "apply b first, then a", matching how
  rotation matrices compose.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_array

from .core import BoolArray, FloatArray, IntArray, RigidTransform

UNIT_TOL = 1e-9


def embed3(pts) -> FloatArray:
    """Points (..., 2) lifted into the z = 0 plane; (..., 3) returned as is."""
    pts = _points(pts)
    if pts.shape[-1] == 3:
        return pts
    return np.concatenate([pts, np.zeros(pts.shape[:-1] + (1,))], axis=-1)


def _points(pts) -> FloatArray:
    """Points or vectors as a float array, (..., 2) or (..., 3)."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.shape[-1:] not in ((2,), (3,)):
        raise ValueError(f"points must be 2- or 3-dimensional, got {pts.shape}")
    return pts


def _xyz(pts: FloatArray):
    """The x, y and z columns of _points; z of 2D points is the scalar 0.0,
    whose products are those of a zero column."""
    x, y, *z = np.moveaxis(pts, -1, 0)
    return x, y, (z[0] if z else 0.0)


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

    Component-wise, each four-term dot product added left to right. <r, d>
    then gets + 0.0, so a dot of four -0.0 products is +0.0, as np.sum
    gives by adding onto its identity 0.0; the sign shows in d.
    """
    r0, r1, r2, r3, d0, d1, d2, d3 = np.moveaxis(dq, -1, 0)
    n2 = r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3
    n = np.sqrt(n2)
    s = (r0 * d0 + r1 * d1 + r2 * d2 + r3 * d3 + 0.0) / n2
    out = np.empty(np.shape(n) + (8,))
    for c, (rc, dc) in enumerate(zip((r0, r1, r2, r3), (d0, d1, d2, d3))):
        rn = np.divide(rc, n, out=out[..., c])
        np.subtract(dc / n, rn * s, out=out[..., 4 + c])
    return out


def dq8_apply(dq: FloatArray, mu, pts) -> FloatArray:
    """Apply scaled motions: mu * (R p + t) for unit dqs (..., 8).

    Points are (..., 2) or (..., 3) and the result has their width.
    Component-wise, with 2D points at z = 0: R p = (p + w c) + u x c for
    the real part (w, u) and c = 2 u x p, t = 2 (d conj(r)), the vector
    part of the Hamilton product, each sum in that order.
    """
    pts = _points(pts)
    px, py, pz = _xyz(pts)
    w, x, y, z, dw, dx, dy, dz = np.moveaxis(dq, -1, 0)
    mu = np.asarray(mu, dtype=np.float64)
    c0 = 2.0 * (y * pz - z * py)
    c1 = 2.0 * (z * px - x * pz)
    c2 = 2.0 * (x * py - y * px)
    # a product with a part of conj(r) is the negated product with r's,
    # and a + (-b) is a - b exactly; -(p) - q is kept, as -(p + q) can
    # differ from it in the sign of a zero
    cols = [
        mu * (((px + w * c0) + (y * c2 - z * c1)) + 2.0 * (((dx * w - dw * x) - dy * z) + dz * y)),
        mu * (((py + w * c1) + (z * c0 - x * c2)) + 2.0 * (((dx * z - dw * y) + dy * w) - dz * x)),
    ]
    if pts.shape[-1] == 3:
        cols.append(mu * (((pz + w * c2) + (x * c1 - y * c0))
                          + 2.0 * (((-(dw * z) - dx * y) + dy * x) + dz * w)))
    return np.stack(cols, axis=-1)


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
    unchanged and the dual part gains 0.5 * t_quat * real, t_quat =
    (0, t), its Hamilton product written out component-wise.
    """
    tx, ty, tz = _xyz(_points(t))
    w, x, y, z = np.moveaxis(dq[..., 0:4], -1, 0)
    out = dq.copy()
    o = np.moveaxis(out, -1, 0)
    o[4] += 0.5 * (((0.0 * w - tx * x) - ty * y) - tz * z)
    o[5] += 0.5 * (((0.0 * x + tx * w) + ty * z) - tz * y)
    o[6] += 0.5 * (((0.0 * y - tx * z) + ty * w) + tz * x)
    o[7] += 0.5 * (((0.0 * z + tx * y) - ty * x) + tz * w)
    return out


def dq8_blend(weights: FloatArray, dqs: FloatArray, idx: IntArray | None = None) -> FloatArray:
    """Weighted linear blends of motions drawn from a table.

    dqs is an (m, 8) table of motions; idx (..., k) names the k table rows
    each blend takes and weights (..., k) weighs them. Without idx every
    blend takes the whole table in order (k = m). Returns (..., 8).

    Each contribution is flipped into the hemisphere of the heaviest-weight
    entry before summation (q and -q encode the same motion, so naive sums
    can cancel), then the sum is renormalized. Rows whose weights sum to
    zero are the caller's problem; this function assumes at least one
    positive weight per row.

    The hemisphere dots are taken only on rows that hold a turned table
    motion. A motion is unturned when its real part r has a positive scalar
    part w of at least 3/4 of |r| (w^2 >= 9/16 |r|^2, a turn of at most ~83
    degrees; _unturned). Two unturned motions have a dot of at least
    cos(2 acos(3/4)) = 1/8 of their norms' product, so no weight of a row
    of them would flip, and its signed weights are its weights, bit for bit.
    """
    if idx is None:
        idx = np.broadcast_to(np.arange(dqs.shape[0]), weights.shape)
    lead, k = idx.shape[:-1], idx.shape[-1]
    idx = idx.reshape(-1, k)
    weights = weights.reshape(-1, k)
    rows = idx.shape[0]
    # the real parts component-major, so each component of the k neighbours
    # of every row is gathered as one contiguous (rows, k) plane rather than
    # read with a stride of 8 from a gathered (rows, k, 8) block
    real = np.ascontiguousarray(dqs[:, 0:4].T)
    turned = ~_unturned(real)
    signed = weights
    if turned.any():
        # np.take would copy a read-only idx (the kNN graph's) to index with it
        need = np.flatnonzero(turned[idx].any(axis=1))
        sub, w = idx[need], weights[need]
        heaviest = np.take_along_axis(sub, np.argmax(w, axis=1)[:, None], axis=1)
        head = np.take(real, heaviest, axis=1)
        dots = np.take(real[0], sub) * head[0]
        for c in range(1, 4):
            term = np.take(real[c], sub)
            dots += np.multiply(term, head[c], out=term)
        signed = weights.copy()
        signed[need] = np.negative(w, out=w, where=dots < 0.0)
    # one CSR product adds each row's k weighted table rows in index order
    # onto 0.0, without gathering a (rows, k, 8) block
    mix = csr_array((signed.ravel(), idx.ravel(), np.arange(0, rows * k + 1, k)),
                    shape=(rows, dqs.shape[0]))
    return dq8_normalize(mix @ dqs).reshape(lead + (8,))


def _unturned(real: FloatArray) -> BoolArray:
    """Which motions of a component-major (4, m) real-part table are
    unturned (see dq8_blend): w > 0 and w^2 >= 9/16 |r|^2.

    |r|^2 must also lie within 1e-300..1e300, so that no product of a dot
    under- or overflows and the bound of 1/8 of the norms' product stays
    far above the rounding of four products and three sums. Other motions,
    NaN ones included, count as turned.
    """
    w = real[0]
    with np.errstate(over="ignore"):
        rr = w * w + real[1] * real[1] + real[2] * real[2] + real[3] * real[3]
        return (w > 0.0) & (w * w >= 0.5625 * rr) & (rr >= 1e-300) & (rr <= 1e300)


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
