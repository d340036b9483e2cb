"""The four benchmark workloads and the output checks they run.

Each workload builds its inputs from the workload seed in prepare(), runs
one closed-loop operation per op() call and checks every result in check().
The package is driven only through its public functions: synth_generate,
save_matches, load_matches, ransac_run, run_em, query_field,
write_field_csv, save_labels and cli.main. Calls go through module
attributes (``ransac.ransac_run`` rather than an imported name) so that the
traced run can wrap them.

Every scene withholds some ground-truth inliers from the filter; the
distance between the field's prediction at those points and their true
targets, each capped at the inlier threshold H, gives the hold-out error.
The cap keeps a few points the field misses entirely (sparse inliers at 85%
outliers) from deciding the mean on their own; they still count as H.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from matchfield import cli, em_refine, field, io_eval, ransac
from matchfield.core import Config, DegenerateGeometryError, MatchSet
from matchfield.io_eval import SynthSpec

# F-score floors of the acceptance tests (mean over 20 seeds there), shown
# next to the per-group F-scores; reported, not enforced per run
FLOOR_2D = {0.30: 0.95, 0.50: 0.95, 0.70: 0.95, 0.85: 0.90}
FLOOR_3D = 0.93

SPEC_3D = dict(
    dim=3,
    n_anchors=3,
    max_rotation=0.05,
    max_scale_jitter=0.02,
    noise_sigma=0.05,
    bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
)
SCENES_3D = ((629, 0.76), (1784, 0.39), (693, 0.16))


@dataclass
class Scene:
    group: str
    m: MatchSet
    gt: np.ndarray
    hold_x: np.ndarray
    hold_y: np.ndarray
    seed: int
    path: Path | None = None


def make_scene(group: str, seed: int, n: int, outlier_ratio: float, **spec) -> Scene:
    """A synthetic scene of exactly n matches and round(ratio * n) outliers,
    plus max(50, n // 10) withheld inliers from the same field."""
    n_out = round(outlier_ratio * n)
    n_hold = max(50, n // 10)
    total = n + n_hold
    m_all, gt_all = io_eval.synth_generate(
        SynthSpec(n=total, outlier_ratio=n_out / total, seed=seed, **spec)
    )
    if int((~gt_all).sum()) != n_out:
        raise RuntimeError(f"scene {group} seed {seed}: outlier count off")
    hold = np.nonzero(gt_all)[0][:n_hold]
    keep = np.ones(total, dtype=bool)
    keep[hold] = False
    m = MatchSet(dim=m_all.dim, x=m_all.x[keep], y=m_all.y[keep])
    return Scene(group, m, gt_all[keep], m_all.x[hold], m_all.y[hold], seed)


def label_errors(labels, n: int) -> list[str]:
    errs = []
    if labels.n != n:
        errs.append(f"{labels.n} labels for {n} matches")
    p = labels.posterior
    if not (np.isfinite(p).all() and (p >= 0.0).all() and (p <= 1.0).all()):
        errs.append("posterior outside [0, 1]")
    r = labels.residual
    if not (np.isfinite(r).all() and (r >= 0.0).all()):
        errs.append("residual negative or not finite")
    return errs


def label_digest(labels) -> str:
    h = hashlib.sha256()
    for a in (labels.inlier, labels.posterior, labels.residual):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def fscore(labels, gt) -> float:
    return io_eval.compute_metrics(labels, gt).fscore


def holdout_errors(state, labels, scene: Scene, cfg: Config) -> np.ndarray:
    samples = field.query_field(state, labels, scene.m, scene.hold_x, cfg)
    disp = np.array([s.displaced for s in samples])
    return np.linalg.norm(disp - scene.hold_y, axis=1)


def row_count(path: Path) -> int:
    """Data rows of a CSV file with a one-line header."""
    return path.read_bytes().count(b"\n") - 1


@dataclass
class Quality:
    """Per-scene accuracy, recorded the first time a scene is checked."""

    floors: dict
    fscores: dict = dc_field(default_factory=dict)
    holdout: list = dc_field(default_factory=list)
    holdout_capped: list = dc_field(default_factory=list)
    holdout_over_cap: int = 0

    def add(self, group: str, f: float, hold_err: np.ndarray, cap: float) -> None:
        self.fscores.setdefault(group, []).append(f)
        self.holdout.extend(hold_err.tolist())
        self.holdout_capped.extend(np.minimum(hold_err, cap).tolist())
        self.holdout_over_cap += int((hold_err > cap).sum())

    def groups(self) -> dict:
        return {
            g: {"fscore_mean": float(np.mean(v)), "scenes": len(v), "floor": self.floors[g],
                "floor_met": bool(np.mean(v) >= self.floors[g])}
            for g, v in self.fscores.items()
        }


class Workload:
    """Shared bookkeeping: per-scene output digests and accuracy."""

    def __init__(self, scenes: list[Scene], floors: dict) -> None:
        self.scenes = scenes
        self.quality = Quality(floors)
        self.digests: dict[int, str] = {}
        self.pool: list[int] = []

    def group(self, i: int) -> str:
        return self.scenes[i].group

    def describe(self, i: int) -> str:
        """The input of pool entry i: its group, size and make_scene seed."""
        s = self.scenes[i]
        return f"scene {s.group} n={s.m.n} dim={s.m.dim} seed {s.seed}"

    def points(self, i: int) -> int:
        return self.scenes[i].m.n

    def _first_or_same(self, i: int, digest: str) -> list[str]:
        if i not in self.digests:
            self.digests[i] = digest
            return []
        if self.digests[i] != digest:
            return ["output differs from the first run of the same input"]
        return []

    def finish(self, workdir: Path) -> list[str]:
        return []


class FilterInMemory(Workload):
    """ransac_run + run_em on in-memory scenes (2d-1k-mix, 3d-surface)."""

    def prepare(self, workdir: Path) -> None:
        self.pool = list(range(len(self.scenes)))
        for i in self.pool[:2]:
            self.op(i)

    def op(self, i: int):
        m = self.scenes[i].m
        cfg = Config.for_matches(m)
        outcome = ransac.ransac_run(m, cfg)
        labels, state = em_refine.run_em(m, outcome, cfg)
        return cfg, labels, state

    def check(self, i: int, out) -> list[str]:
        cfg, labels, state = out
        scene = self.scenes[i]
        errs = label_errors(labels, scene.m.n)
        first = i not in self.digests
        errs += self._first_or_same(i, label_digest(labels))
        if first and not errs:
            hold = holdout_errors(state, labels, scene, cfg)
            if not np.isfinite(hold).all():
                errs.append("hold-out prediction not finite")
            self.quality.add(scene.group, fscore(labels, scene.gt), hold, cfg.H)
        return errs


class FilterFiles(Workload):
    """cli.main filter on a pre-written match file (2d-10k-files)."""

    def __init__(self, scene: Scene, warm: Scene, floors: dict) -> None:
        super().__init__([scene], floors)
        self.scene = scene
        self.warm = warm
        self.first_labels = None

    def prepare(self, workdir: Path) -> None:
        for s in (self.scene, self.warm):
            s.path = workdir / f"matches-{s.m.n}.csv"
            io_eval.save_matches(s.path, s.m, gt=s.gt, units="pixels")
        self.out = workdir / "labels.csv"
        self.pool = [0]
        self._filter(self.warm.path)

    def _filter(self, path: Path):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(["filter", "--input", str(path), "--output", str(self.out)])
        return rc, sink.getvalue()

    def op(self, i: int):
        return self._filter(self.scene.path)

    def check(self, i: int, out) -> list[str]:
        rc, summary = out
        n = self.scene.m.n
        if rc != 0:
            return [f"filter exited with {rc}"]
        errs = [] if summary.startswith(f"n={n} ") else [f"unexpected summary {summary!r}"]
        if row_count(self.out) != n:
            return errs + ["label file row count differs from n"]
        labels = io_eval.load_labels(self.out)
        errs += label_errors(labels, n)
        errs += self._first_or_same(i, hashlib.sha256(self.out.read_bytes()).hexdigest())
        if self.first_labels is None:
            self.first_labels = labels
        return errs

    def finish(self, workdir: Path) -> list[str]:
        """Re-run the filter in process once: its labels must match the CLI's
        file byte for byte, and its field gives the hold-out error."""
        if not self.digests:
            return []
        m, gt = io_eval.load_matches(self.scene.path)
        cfg = Config.for_matches(m)
        outcome = ransac.ransac_run(m, cfg)
        labels, state = em_refine.run_em(m, outcome, cfg)
        ref = workdir / "labels-ref.csv"
        io_eval.save_labels(ref, labels)
        errs = []
        if hashlib.sha256(ref.read_bytes()).hexdigest() != self.digests[0]:
            errs.append("cli labels differ from the in-process pipeline")
        hold = holdout_errors(state, labels, self.scene, cfg)
        self.quality.add(self.scene.group, fscore(self.first_labels, gt), hold, cfg.H)
        return errs


class FieldDense(Workload):
    """query_field on a lattice + write_field_csv, fields fitted in set-up."""

    def __init__(self, scenes: list[Scene], step: float, floors: dict) -> None:
        super().__init__(scenes, floors)
        axes = [np.arange(0.0, hi + 0.5 * step, step) for hi in (800.0, 600.0)]
        self.shape = tuple(len(a) for a in axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        self.lattice = np.stack([g.ravel() for g in mesh], axis=-1)

    def prepare(self, workdir: Path) -> None:
        self.out = workdir / "field.csv"
        self.fits = []
        for scene in self.scenes:
            cfg = Config.for_matches(scene.m)
            outcome = ransac.ransac_run(scene.m, cfg)
            labels, state = em_refine.run_em(scene.m, outcome, cfg)
            self.fits.append((cfg, labels, state))
            hold = holdout_errors(state, labels, scene, cfg)
            self.quality.add(scene.group, fscore(labels, scene.gt), hold, cfg.H)
        self.pool = list(range(len(self.scenes)))
        self.op(0)

    def points(self, i: int) -> int:
        return self.lattice.shape[0]

    def op(self, i: int):
        cfg, labels, state = self.fits[i]
        samples = field.query_field(state, labels, self.scenes[i].m, self.lattice, cfg)
        field.write_field_csv(field.FieldGrid(shape=self.shape, samples=tuple(samples)), self.out, 2)
        return samples

    def check(self, i: int, samples) -> list[str]:
        k = self.lattice.shape[0]
        errs = []
        if len(samples) != k:
            errs.append(f"{len(samples)} samples for {k} lattice points")
        disp = np.array([s.displaced for s in samples])
        sup = np.array([s.support for s in samples])
        if not (np.isfinite(disp).all() and np.isfinite(sup).all()):
            errs.append("field sample not finite")
        if row_count(self.out) != k:
            errs.append("field file row count differs from the lattice size")
        return errs + self._first_or_same(i, hashlib.sha256(self.out.read_bytes()).hexdigest())


def build(name: str, seed: int, small: bool = False) -> Workload:
    """The named workload with inputs derived from seed; small shrinks
    every size for the self-check."""
    base = 1000 * seed
    if name == "2d-1k-mix":
        n, per_ratio = (200, 1) if small else (1000, 8)
        scenes = [
            make_scene(f"{ratio:.0%}", base + 10 * k + j, n, ratio)
            for k in range(per_ratio)
            for j, ratio in enumerate(FLOOR_2D)
        ]
        return FilterInMemory(scenes, {f"{r:.0%}": f for r, f in FLOOR_2D.items()})
    if name == "2d-10k-files":
        n = 1000 if small else 10000
        scene = make_scene("50%", base, n, 0.50)
        warm = make_scene("50%", base + 1, 200 if small else 1000, 0.50)
        return FilterFiles(scene, warm, {"50%": FLOOR_2D[0.50]})
    if name == "3d-surface":
        div, per_scene = (4, 1) if small else (1, 12)
        scenes = [
            make_scene(f"{n}/{inl}", base + 10 * k + j, n // div, round(1.0 - inl, 2), **SPEC_3D)
            for k in range(per_scene)
            for j, (n, inl) in enumerate(SCENES_3D)
        ]
        return FilterInMemory(scenes, {s.group: FLOOR_3D for s in scenes})
    if name == "field-dense":
        n, fits, step = (300, 1, 25.0) if small else (1000, 4, 5.0)
        scenes = [make_scene("50%", base + j, n, 0.50) for j in range(fits)]
        return FieldDense(scenes, step, {"50%": FLOOR_2D[0.50]})
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("2d-1k-mix", "2d-10k-files", "3d-surface", "field-dense")


def _count_ransac(rec, args, kwargs, outcome) -> None:
    rec.count("ransac.trials", outcome.trials)
    rec.count("ransac.hypotheses", len(outcome.hypotheses))


def _count_em(rec, args, kwargs, result) -> None:
    state = result[1]
    rec.count("em_refine.runs")
    rec.count("em_refine.iters", state.n_iters)
    rec.count("em_refine.converged", state.converged)


def _count_query(rec, args, kwargs, samples) -> None:
    rec.count("field.samples", len(samples))
    rec.count("field.valid", sum(s.valid for s in samples))


def _count_blend(rec, args, kwargs, out) -> None:
    w, dqs = args
    rec.count("dualquat.bytes_computed", w.nbytes + dqs.nbytes + out.nbytes)


def _count_apply(rec, args, kwargs, out) -> None:
    dq, mu, pts = args
    rec.count("dualquat.bytes_computed",
              dq.nbytes + np.asarray(mu).nbytes + pts.nbytes + out.nbytes)


def _count_read(rec, args, kwargs, result) -> None:
    rec.count("io_eval.bytes_read", Path(args[0]).stat().st_size)


def _count_written(path_arg: int):
    def hook(rec, args, kwargs, result) -> None:
        rec.count("io_eval.bytes_written", Path(args[path_arg]).stat().st_size)
    return hook


def install_tracing(rec) -> None:
    """Wrap every layer boundary the pipeline looks up at call time."""
    rec.wrap(ransac, "ransac_run", "ransac.ransac_run", _count_ransac)
    rec.wrap(ransac, "reweight_fit", "ransac.reweight_fit",
             counted_error=(DegenerateGeometryError, "ransac.trials_degenerate"))
    rec.wrap(em_refine, "run_em", "em_refine.run_em", _count_em)
    for attr in ("build_neighbors", "init_from_hypotheses", "m_step", "e_step"):
        rec.wrap(em_refine, attr, f"em_refine.{attr}")
    for mod in (em_refine, field):
        for kernel in ("dq4_blend", "dq8_blend"):
            rec.wrap(mod, kernel, "dualquat.blend", _count_blend)
        for kernel in ("dq4_apply", "dq8_apply"):
            rec.wrap(mod, kernel, "dualquat.apply", _count_apply)
    rec.wrap(field, "query_field", "field.query_field", _count_query)
    rec.wrap(field, "write_field_csv", "io_eval.write_field_csv", _count_written(1))
    rec.wrap(cli, "main", "cli.main")
    rec.wrap(cli, "load_matches", "io_eval.load_matches", _count_read)
    rec.wrap(cli, "ransac_run", "ransac.ransac_run", _count_ransac)
    rec.wrap(cli, "run_em", "em_refine.run_em", _count_em)
    rec.wrap(cli, "save_labels", "io_eval.save_labels", _count_written(0))
