"""Match file and label I/O, scoring metrics, and synthetic ground truth.

File formats are plain CSV with one-line headers:

* match files: header "dim,n,units", then n rows of
  x1,..,xD,y1,..,yD with an optional trailing 0/1 ground-truth column;
* label files: header "index,inlier,posterior,residual".

Floats are written with repr, which round-trips float64 exactly, so saving
and loading is lossless and byte-deterministic. Every CSV file of the
package, field files included, goes out through write_csv_columns,
CSV_BLOCK rows at a time.

The synthetic generator builds scenes with known labels: inlier targets
follow a smooth non-rigid field obtained by blending a few anchored rigid
motions, outlier targets are uniform over the bounds. It is the ground
truth oracle for the evaluation suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core import (COORD_RULE, BoolArray, LabelResult, MatchSet, box_corners, check_count,
                   check_dim, coords_in_range, make_rng)
from .dualquat import dq8_apply, dq8_blend, dq8_from_rt, quat_to_matrix


# rows each CSV write formats and joins at a time. Written whole, a file's
# cells, rows and text peaked at 8-9x its size (47 MB for 80,000 match
# rows), and that peak set the process's peak RSS on perfbench field-dense
# (a 19,481-row field file): 103 MB on a 2-core Xeon VM. There 4,096-row
# blocks read 95 MB, 1,024-row blocks 93 MB, and 256-row blocks no less
CSV_BLOCK = 1024


class MatchFileError(ValueError):
    """A match or label file that does not decode or parse, or breaks a
    rule of its format; the message names the file, and the first bad row
    where there is one."""


def float_column(values) -> list[str]:
    """repr of each value as a Python float: the shortest text that reads
    back to the same float64, with -0.0, nan and inf spelled as Python does."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def flag_column(values) -> list[str]:
    """"1" for each true value, "0" for each false one."""
    return np.where(np.asarray(values, dtype=bool), "1", "0").tolist()


def index_column(values) -> list[str]:
    """The decimal text of each integer."""
    return list(map(str, values))


def write_csv_columns(path, header: str, columns) -> None:
    """Write a header line, then one comma-joined row per position of the
    equally long columns; every line ends in a newline.

    columns holds (format, values) pairs, where format turns a slice of
    values into its cells (float_column, flag_column, index_column). The
    rows are formatted and written CSV_BLOCK at a time, so the text held at
    once is one block's, however long the file.
    """
    n = len(columns[0][1]) if columns else 0
    with open(path, "w") as f:
        f.write(header + "\n")
        for lo in range(0, n, CSV_BLOCK):
            cells = [fmt(values[lo:lo + CSV_BLOCK]) for fmt, values in columns]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def save_matches(path, m: MatchSet, gt: BoolArray | None = None, units: str = "units") -> None:
    """Write a match file, appending the ground-truth column when given.

    units is the header's third field, so a comma or a line break in it
    raises ValueError before the file is opened: load_matches could not
    read the header back."""
    header = f"{m.dim},{m.n},{units}"
    if header.count(",") != 2 or header.splitlines() != [header]:
        raise ValueError(f"units must hold no comma or line break, got {units!r}")
    if gt is not None:
        gt = np.asarray(gt, dtype=bool)
        if gt.shape != (m.n,):
            raise ValueError("gt must be one flag per match")
    columns = [(float_column, c) for c in (*m.x.T, *m.y.T)]
    if gt is not None:
        columns.append((flag_column, gt))
    write_csv_columns(path, header, columns)


def _data_lines(path) -> list[str]:
    """The file's non-blank lines, with any line ending (LF, CRLF, CR)
    removed; a file that does not decode raises MatchFileError naming it."""
    try:
        return [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    except UnicodeDecodeError as e:
        raise MatchFileError(f"{path}: {e}") from None


def _widths_agree(body: list[str], cols: int) -> bool:
    """True when every row of body has exactly cols comma-separated fields."""
    return list(map(str.count, body, repeat(","))).count(cols - 1) == len(body)


def _fields(body: list[str]) -> list[str]:
    """Every field of body in row-major order."""
    return ",".join(body).split(",") if body else []


def load_matches(path) -> tuple[MatchSet, BoolArray | None]:
    """Read a match file back into a MatchSet and its optional labels.

    Raises MatchFileError for an empty file or a bad header, a bad declared
    dimension, a row count that disagrees with the header, wrong row
    widths, unparseable fields, coordinates that break the coordinate rule
    (core.coords_in_range) and gt flags other than 0 and 1. The first data
    row decides whether the ground-truth column is present. The
    body is checked and converted in bulk; only a file that fails a check
    is walked row by row, so its error names the path and the first bad
    row.
    """
    lines = _data_lines(path)
    if not lines:
        raise MatchFileError(f"{path}: empty file")
    head = lines[0].split(",")
    if len(head) != 3:
        raise MatchFileError(f"{path}: header must be dim,n,units, got {lines[0]!r}")
    try:
        dim = int(head[0])
        n = int(head[1])
    except ValueError as e:
        raise MatchFileError(f"{path}: non-numeric header counts {lines[0]!r}") from e
    if dim not in (2, 3):
        raise MatchFileError(f"{path}: dim must be 2 or 3, got {dim}")
    body = lines[1:]
    if len(body) != n:
        raise MatchFileError(f"{path}: header declares {n} rows, found {len(body)}")
    if not body:
        raise MatchFileError(f"{path}: header declares 0 rows, need at least one match")
    width = 2 * dim
    cols = body[0].count(",") + 1
    if cols not in (width, width + 1) or not _widths_agree(body, cols):
        _raise_first_bad_match_row(path, body, dim)
    has_gt = cols == width + 1
    fields = _fields(body)
    flags = None
    if has_gt:
        flags = np.array(list(map(str.strip, fields[width::cols])))
        del fields[width::cols]
    try:
        xy = np.array(list(map(float, fields))).reshape(n, width)
    except ValueError:
        _raise_first_bad_match_row(path, body, dim)
    if not coords_in_range(xy).all() or (has_gt and not np.isin(flags, ("0", "1")).all()):
        _raise_first_bad_match_row(path, body, dim)
    gt = flags == "1" if has_gt else None
    return MatchSet(dim=dim, x=xy[:, :dim], y=xy[:, dim:]), gt


def _raise_first_bad_match_row(path, body: list[str], dim: int) -> NoReturn:
    """Raise the error of the first row of a match file body that fails a
    check, checking each row's width, numbers, coordinate rule and flag in
    turn."""
    width = 2 * dim
    has_gt: bool | None = None
    for i, line in enumerate(body):
        parts = line.split(",")
        if has_gt is None:
            if len(parts) == width + 1:
                has_gt = True
            elif len(parts) == width:
                has_gt = False
        if len(parts) != width + (1 if has_gt else 0):
            raise MatchFileError(f"{path}: row {i + 1} has {len(parts)} fields, expected "
                                 f"{width + (1 if has_gt else 0)} for dim={dim}")
        try:
            vals = [float(v) for v in parts[:width]]
        except ValueError as e:
            raise MatchFileError(f"{path}: row {i + 1}: {e}") from e
        if not coords_in_range(vals):
            raise MatchFileError(f"{path}: row {i + 1}: coordinates must be {COORD_RULE}")
        if has_gt and parts[width].strip() not in ("0", "1"):
            raise MatchFileError(f"{path}: row {i + 1}: gt flag must be 0 or 1")
    raise AssertionError("bulk check failed but every row passes")


def save_labels(path, labels: LabelResult) -> None:
    columns = [
        (index_column, range(labels.n)),
        (flag_column, labels.inlier),
        (float_column, labels.posterior),
        (float_column, labels.residual),
    ]
    write_csv_columns(path, "index,inlier,posterior,residual", columns)


def load_labels(path) -> LabelResult:
    """Read a label file written by save_labels.

    Raises MatchFileError for a missing header, rows that are not 4 fields
    wide, unparseable fields, inlier flags other than 0 and 1 (padding
    around a flag is stripped, as load_matches strips its gt flag) and
    indices that do not count up from 0, naming the first row that fails:
    one walk over the rows parses and checks each in turn (its width, then
    each field, then its index).
    """
    lines = _data_lines(path)
    if not lines or lines[0] != "index,inlier,posterior,residual":
        raise MatchFileError(f"{path}: missing label header")
    flags, post, resid = [], [], []
    for row, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 4:
            raise MatchFileError(f"{path}: row {row + 1} has {len(parts)} fields")
        try:
            i = int(parts[0])
            flag = parts[1].strip()
            if flag not in ("0", "1"):
                raise ValueError("inlier flag must be 0 or 1")
            flags.append(flag == "1")
            post.append(float(parts[2]))
            resid.append(float(parts[3]))
        except ValueError as e:
            raise MatchFileError(f"{path}: row {row + 1}: {e}") from e
        if i != row:
            raise MatchFileError(f"{path}: rows out of order at {row + 1}")
    return LabelResult(inlier=np.array(flags, dtype=bool), posterior=np.array(post),
                       residual=np.array(resid))


@dataclass(frozen=True)
class Metrics:
    """Label agreement scores against ground truth.

    n_errors is the Hamming distance between label vectors. recall_defined
    is false when the ground truth has no positives at all; recall is then
    reported as 0. fscore is the harmonic mean of recall and precision, 0
    when both vanish.
    """

    n_errors: int
    recall: float
    precision: float
    fscore: float
    recall_defined: bool = True


def compute_metrics(pred, gt) -> Metrics:
    """Score predicted inlier labels against ground-truth flags.

    pred may be a LabelResult or a boolean array. Invariant to permuting
    matches (counts only).
    """
    pred_arr = np.asarray(pred.inlier if isinstance(pred, LabelResult) else pred, dtype=bool)
    gt_arr = np.asarray(gt, dtype=bool)
    if pred_arr.shape != gt_arr.shape or pred_arr.ndim != 1:
        raise ValueError("prediction and ground truth must be equal-length 1-d")
    tp = int(np.sum(pred_arr & gt_arr))
    fp = int(np.sum(pred_arr & ~gt_arr))
    fn = int(np.sum(~pred_arr & gt_arr))
    n_errors = fp + fn
    recall_defined = bool(gt_arr.any())
    recall = tp / (tp + fn) if recall_defined else 0.0
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    fscore = 2.0 * recall * precision / (recall + precision) if (recall + precision) > 0 else 0.0
    return Metrics(
        n_errors=n_errors,
        recall=recall,
        precision=precision,
        fscore=fscore,
        recall_defined=recall_defined,
    )


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic scene.

    n matches of dimension dim inside bounds (mins, maxs). A fraction
    outlier_ratio gets uniform random targets; the rest follow a smooth
    field blended from n_anchors rigid motions, each a rotation of at most
    max_rotation radians about its anchor, a scale within
    1 +- max_scale_jitter, and a bounded translation, plus isotropic
    Gaussian noise of noise_sigma. Everything is a pure function of seed.

    bounds left as None becomes the default box of dim: the 800 x 600
    frame ((0, 0), (800, 600)) in 2D, the 100-unit cube ((0, 0, 0),
    (100, 100, 100)) in 3D. Bounds obey the coordinate rule (finite and at
    most core.MAX_COORD in magnitude, checked by core.box_corners), so the
    squared distances across the box that the anchor weights take stay
    finite, and have a positive extent on every axis.
    """

    n: int = 1000
    dim: int = 2
    outlier_ratio: float = 0.5
    n_anchors: int = 3
    max_rotation: float = 0.4
    max_scale_jitter: float = 0.1
    noise_sigma: float = 2.0
    bounds: tuple | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_dim(self.dim)
        if self.bounds is None:
            box = ((0.0, 0.0), (800.0, 600.0)) if self.dim == 2 else ((0.0,) * 3, (100.0,) * 3)
            object.__setattr__(self, "bounds", box)
        for name, least in (("n", 1), ("n_anchors", 1), ("seed", 0)):
            check_count(name, getattr(self, name), least)
        if not (0.0 <= self.outlier_ratio < 1.0):
            raise ValueError("outlier_ratio must lie in [0, 1)")
        if not (0.0 <= self.max_scale_jitter < 1.0):
            raise ValueError("max_scale_jitter must lie in [0, 1)")
        for name in ("max_rotation", "noise_sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        mins, maxs = box_corners(self.bounds, self.dim)
        if not (maxs > mins).all():
            raise ValueError("bounds must have positive extent on every axis")


def _anchor_rotation(rng: np.random.Generator, dim: int, max_rotation: float):
    angle = rng.uniform(-max_rotation, max_rotation)
    if dim == 2:
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    half = 0.5 * angle
    q = np.concatenate([[math.cos(half)], math.sin(half) * axis])
    return quat_to_matrix(q)


def synth_generate(spec: SynthSpec) -> tuple[MatchSet, BoolArray]:
    """Generate a scene with known labels.

    Anchored motions rotate and scale about their anchor point and add a
    translation of at most 0.25 * max_rotation of the extent per axis (a
    tenth of the extent at the 0.4 rad default), so a single knob scales
    the deformation strength. Inlier targets blend the anchor motions with
    Gaussian distance weights of radius half the largest extent, which
    keeps the ground-truth field smooth but genuinely non-rigid once two
    anchors disagree. A box so near the coordinate bound that the motions
    carry a target past it raises ValueError naming the box.
    """
    rng = make_rng(spec.seed)
    mins = np.asarray(spec.bounds[0], dtype=np.float64)
    maxs = np.asarray(spec.bounds[1], dtype=np.float64)
    extent = maxs - mins
    x = rng.uniform(mins, maxs, size=(spec.n, spec.dim))

    n_out = int(round(spec.outlier_ratio * spec.n))
    gt = np.zeros(spec.n, dtype=bool)
    gt[: spec.n - n_out] = True
    rng.shuffle(gt)

    centers = mins + extent * rng.uniform(0.15, 0.85, size=(spec.n_anchors, spec.dim))
    dqs = np.zeros((spec.n_anchors, 8))
    mus = np.zeros(spec.n_anchors)
    for a in range(spec.n_anchors):
        R = _anchor_rotation(rng, spec.dim, spec.max_rotation)
        mu = 1.0 + rng.uniform(-spec.max_scale_jitter, spec.max_scale_jitter)
        tau_frac = 0.25 * spec.max_rotation
        tau = rng.uniform(-tau_frac, tau_frac, size=spec.dim) * extent
        # rotate and scale about the anchor: y = mu R (x - c) + c + tau,
        # rewritten as mu (R x + t)
        t = (centers[a] + tau) / mu - R @ centers[a]
        dqs[a] = dq8_from_rt(R, t)
        mus[a] = mu

    y = np.empty_like(x)
    inl = np.nonzero(gt)[0]
    out = np.nonzero(~gt)[0]
    if inl.size:
        radius = 0.5 * float(extent.max())
        d2 = np.sum((x[inl, None, :] - centers[None, :, :]) ** 2, axis=-1)
        w = np.exp(-d2 / (2.0 * radius * radius))
        qbar = dq8_blend(w, dqs)
        mubar = (w * mus).sum(axis=1) / w.sum(axis=1)
        y[inl] = dq8_apply(qbar, mubar, x[inl])
        if spec.noise_sigma > 0.0:
            y[inl] += rng.normal(0.0, spec.noise_sigma, size=(inl.size, spec.dim))
    if out.size:
        y[out] = rng.uniform(mins, maxs, size=(out.size, spec.dim))
    if not coords_in_range(y).all():
        raise ValueError(f"box {mins.tolist()} to {maxs.tolist()}: its anchor motions carry "
                         f"targets past the coordinate rule, {COORD_RULE}")
    return MatchSet(dim=spec.dim, x=x, y=y), gt
