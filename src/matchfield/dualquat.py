"""Quaternion and unit dual quaternion algebra with weighted linear blending.

A unit dual quaternion packs a rotation (real part, a unit quaternion) and a
translation (dual part, half the translation quaternion times the real part)
into eight numbers that can be blended linearly and renormalized. Scale is
kept outside as a separate positive factor, so a scaled rigid motion is the
pair (dq, mu) acting as p -> mu * (R p + t).

Two representations coexist:

* generic arrays of shape (..., 8), column layout
  [rw, rx, ry, rz, dw, dx, dy, dz], valid for any rigid motion in 3D, with
  2D motions embedded in the z = 0 plane;
* a planar fast path of shape (..., 4), columns [rw, rz, dx, dy], exploiting
  that a rigid motion of the plane leaves the other four components exactly
  zero. Both paths must agree to near machine precision on planar input;
  the test suite checks that.

Conventions used throughout:

* quaternion product is the Hamilton product;
* dual part of a motion (R, t) is 0.5 * t_quat * real where t_quat = (0, t);
* dq_multiply(a, b) is the motion "apply b first, then a", matching how
  rotation matrices compose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FloatArray, RigidTransform

UNIT_TOL = 1e-9

# columns of the planar compact layout inside the 8-wide layout
PLANAR_COLS = (0, 3, 5, 6)


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
    """Unit quaternion of a single 3x3 rotation matrix.

    Branches on the largest diagonal term for numerical stability; the sign
    is fixed so the returned scalar part is non-negative.
    """
    R = np.asarray(R, dtype=np.float64)
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


def dq8_apply(dq: FloatArray, mu, pts: FloatArray) -> FloatArray:
    """Apply scaled motions: mu * (R p + t) for unit dqs (..., 8), points (..., 3)."""
    r = dq[..., 0:4]
    d = dq[..., 4:8]
    rotated = quat_rotate(r, pts)
    t = 2.0 * quat_mul(d, quat_conj(r))[..., 1:4]
    mu = np.asarray(mu, dtype=np.float64)
    return mu[..., None] * (rotated + t)


def dq8_from_rt(R, t) -> FloatArray:
    """Build the 8-vector of a rigid motion. 2D input is embedded in z = 0."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape == (2, 2):
        R3 = np.eye(3)
        R3[:2, :2] = R
    else:
        R3 = R
    t3 = embed3(t)
    real = quat_from_matrix(R3)
    tq = np.array([0.0, t3[0], t3[1], t3[2]])
    dual = 0.5 * quat_mul(tq, real)
    return np.concatenate([real, dual])


def dq8_translation(t: FloatArray) -> FloatArray:
    """Pure translation dqs from vectors (..., 3)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape[:-1] + (8,))
    out[..., 0] = 1.0
    out[..., 5:8] = 0.5 * t
    return out


def dq8_translate_after(dq: FloatArray, t: FloatArray) -> FloatArray:
    """Compose a translation applied after the motion of dq.

    Equals dq8_mul(dq8_translation(t), dq) but cheaper: the real part is
    unchanged and the dual part gains 0.5 * t_quat * real.
    """
    tq = np.zeros(dq.shape[:-1] + (4,))
    tq[..., 1:4] = t
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
# planar fast path: columns [rw, rz, dx, dy]


def dq4_from8(dq: FloatArray) -> FloatArray:
    return dq[..., PLANAR_COLS]

def dq4_to8(c: FloatArray) -> FloatArray:
    out = np.zeros(c.shape[:-1] + (8,))
    out[..., PLANAR_COLS] = c
    return out


def dq4_normalize(c: FloatArray) -> FloatArray:
    # a planar dq satisfies <real, dual> = 0 identically, so the dual-number
    # norm reduces to the real norm
    n = np.hypot(c[..., 0], c[..., 1])[..., None]
    return c / n


def dq4_apply(c: FloatArray, mu, pts: FloatArray) -> FloatArray:
    """Planar counterpart of dq8_apply for points (..., 2)."""
    w, z, dx, dy = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    cos_t = w * w - z * z
    sin_t = 2.0 * w * z
    tx = 2.0 * (dx * w - dy * z)
    ty = 2.0 * (dx * z + dy * w)
    px, py = pts[..., 0], pts[..., 1]
    mu = np.asarray(mu, dtype=np.float64)
    out = np.stack([cos_t * px - sin_t * py + tx, sin_t * px + cos_t * py + ty], axis=-1)
    return mu[..., None] * out


def dq4_translate_after(c: FloatArray, t: FloatArray) -> FloatArray:
    w, z = c[..., 0], c[..., 1]
    tx, ty = t[..., 0], t[..., 1]
    out = c.copy()
    out[..., 2] += 0.5 * (tx * w + ty * z)
    out[..., 3] += 0.5 * (ty * w - tx * z)
    return out


def dq4_blend(weights: FloatArray, cs: FloatArray) -> FloatArray:
    """Planar counterpart of dq8_blend for compact dqs (..., k, 4)."""
    ref_idx = np.argmax(weights, axis=-1)
    ref = np.take_along_axis(cs[..., 0:2], ref_idx[..., None, None], axis=-2)
    dots = cs[..., 0] * ref[..., 0] + cs[..., 1] * ref[..., 1]
    signed = np.where(dots < 0.0, -weights, weights)
    total = np.einsum("...k,...kc->...c", signed, cs)
    return dq4_normalize(total)


# ---------------------------------------------------------------------------
# public value types and scalar operations


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def as_array(self) -> FloatArray:
        return np.array([self.w, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        a = np.asarray(a, dtype=np.float64)
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


@dataclass(frozen=True)
class UnitDualQuaternion:
    """A unit dual quaternion: |real| = 1 and <real, dual> = 0 within 1e-9.

    Planar motions use only (real.w, real.z, dual.x, dual.y); the other four
    components are identically zero for them.
    """

    real: Quaternion
    dual: Quaternion

    def __post_init__(self) -> None:
        r = self.real.as_array()
        d = self.dual.as_array()
        if abs(np.linalg.norm(r) - 1.0) > UNIT_TOL:
            raise ValueError("real part must be a unit quaternion")
        if abs(float(np.dot(r, d))) > UNIT_TOL:
            raise ValueError("real and dual parts must be orthogonal")

    def as_array(self) -> FloatArray:
        return np.concatenate([self.real.as_array(), self.dual.as_array()])

    @classmethod
    def from_array(cls, a) -> "UnitDualQuaternion":
        a = np.asarray(a, dtype=np.float64)
        return cls(Quaternion.from_array(a[0:4]), Quaternion.from_array(a[4:8]))

    @classmethod
    def identity(cls) -> "UnitDualQuaternion":
        return cls(Quaternion(1.0, 0.0, 0.0, 0.0), Quaternion(0.0, 0.0, 0.0, 0.0))

    def is_planar(self, tol: float = 1e-12) -> bool:
        a = self.as_array()
        off = [i for i in range(8) if i not in PLANAR_COLS]
        return bool(np.abs(a[off]).max() <= tol)


@dataclass(frozen=True)
class ScaledDq:
    """A unit dual quaternion with a separate positive isotropic scale."""

    dq: UnitDualQuaternion
    mu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")

    def apply(self, x) -> FloatArray:
        return dq_apply(self.dq, self.mu, x)


def dq_from_transform(R, t) -> UnitDualQuaternion:
    """Encode a rigid motion (R, t), 2D or 3D, as a unit dual quaternion.

    Scale stays outside; pair the result with mu in a ScaledDq for the full
    mapping mu * (R x + t). Rejects what RigidTransform rejects: a matrix
    that is not a proper rotation, or a t that does not fit R.
    """
    rt = RigidTransform(R, t, 1.0)
    return UnitDualQuaternion.from_array(dq8_from_rt(rt.R, rt.t))


def trans2dq(t) -> UnitDualQuaternion:
    """Unit dual quaternion of a pure translation (2D or 3D vector)."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape not in ((2,), (3,)):
        raise ValueError(f"t must be a 2- or 3-vector, got {t.shape}")
    return UnitDualQuaternion.from_array(dq8_translation(embed3(t)))


def dq_apply(dq: UnitDualQuaternion, mu: float, x) -> FloatArray:
    """Apply the scaled motion (dq, mu) to one point or an array of points.

    Accepts (..., 2) or (..., 3) points and returns the same shape.
    """
    x = np.asarray(x, dtype=np.float64)
    return dq8_apply(dq.as_array(), float(mu), embed3(x))[..., : x.shape[-1]]


def dq_multiply(a: UnitDualQuaternion, b: UnitDualQuaternion) -> UnitDualQuaternion:
    """Compose motions: the result applies b first, then a.

    The product is renormalized, so the output satisfies the unit
    invariants even after long chains.
    """
    return UnitDualQuaternion.from_array(dq8_normalize(dq8_mul(a.as_array(), b.as_array())))


def dq_normalize(dq) -> UnitDualQuaternion:
    """Normalize any dual quaternion with a nonzero real part to a unit one.

    Accepts a UnitDualQuaternion or an 8-element array.
    """
    if isinstance(dq, UnitDualQuaternion):
        a = dq.as_array()
    else:
        a = np.asarray(dq, dtype=np.float64)
        if a.shape != (8,):
            raise ValueError(f"expected 8 components, got shape {a.shape}")
    if np.linalg.norm(a[0:4]) == 0.0:
        raise ValueError("cannot normalize a dual quaternion with zero real part")
    return UnitDualQuaternion.from_array(dq8_normalize(a))


def dq_blend(pairs) -> UnitDualQuaternion:
    """Blend weighted unit dual quaternions: normalized sign-consistent sum.

    pairs is an iterable of (weight, UnitDualQuaternion) with non-negative
    weights, at least one positive. Invariant under rescaling all weights
    and under replacing any input by its antipode.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (weight, dq) pair")
    w = np.array([float(p[0]) for p in pairs])
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    if not (w > 0.0).any():
        raise ValueError("at least one weight must be positive")
    dqs = np.stack([p[1].as_array() for p in pairs])
    return UnitDualQuaternion.from_array(dq8_blend(w, dqs))


def dq_to_transform(dq: UnitDualQuaternion, dim: int = 3) -> tuple[FloatArray, FloatArray]:
    """Recover (R, t) from a unit dual quaternion.

    dim selects the output size; dim=2 expects a planar motion and returns
    the 2x2 block and 2-vector. Note the double cover: dq and its antipode
    map to the same transform.
    """
    R3, t3 = dq8_to_rt(dq.as_array())
    if dim == 3:
        return R3, t3
    if dim == 2:
        return np.ascontiguousarray(R3[:2, :2]), t3[:2]
    raise ValueError(f"dim must be 2 or 3, got {dim}")
