"""Command line front end.

Subcommands:

* filter: label a match file, writing per-match labels
* field:  filter, then sample the deformation field on a lattice
* synth:  generate a ground-truthed synthetic match file
* eval:   score a label file against a ground-truthed match file
* bench:  outlier-ratio and size sweep with accuracy and runtime columns

Exit codes: 0 on success, 2 for unparseable input (bad flags or malformed
files), 3 for degenerate input such as collapsed geometry or too few
matches. Identical invocations with identical seeds write byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from .core import (
    Config,
    ConfigError,
    DegenerateGeometryError,
    DegenerateScaleError,
    MatchSet,
)
from .em_refine import filter_and_refine
from .field import grid_field, grid_points, render_scene_svg, write_field_csv
from .io_eval import (
    DimensionMismatchError,
    MatchFileError,
    SynthSpec,
    compute_metrics,
    load_labels,
    load_matches,
    save_labels,
    save_matches,
    synth_generate,
)
from .ransac import labels_from_outcome


# default lattice spacing of field, and the one bench samples at
GRID_STEP = 50.0

# (flag, Config field, type, help) of every parameter flag of filter and field
_CONFIG_FLAGS = (
    ("--H", "H", float, "inlier residual threshold"),
    ("--r", "r", float, "neighborhood radius"),
    ("--seed", "seed", int, "random seed"),
)

# (flag, SynthSpec field, type, help) of every scene flag of synth; a flag
# left out keeps the SynthSpec default
_SYNTH_FLAGS = (
    ("--n", "n", int, "number of matches"),
    ("--outlier-ratio", "outlier_ratio", float, "fraction of wrong matches"),
    ("--anchors", "n_anchors", int, "anchor motions blended into the field"),
    ("--max-rotation", "max_rotation", float, "anchor rotation bound in radians"),
    ("--scale-jitter", "max_scale_jitter", float, "anchor scales lie within 1 +- this"),
    ("--noise-sigma", "noise_sigma", float, "Gaussian noise on inlier targets"),
    ("--seed", "seed", int, "random seed"),
)


def _add_flags(g, table) -> None:
    for flag, name, kind, text in table:
        g.add_argument(flag, dest=name, type=kind, default=None, help=text)


def _given(args, table) -> dict:
    """The table's fields whose flags were given."""
    return {n: getattr(args, n) for _, n, _, _ in table if getattr(args, n) is not None}


def _parse_list(flag: str, text: str, kind) -> list:
    """The comma-separated items of a list flag, each read with kind; a
    ValueError names the flag and the first item that does not read."""
    vals = []
    for item in text.split(","):
        try:
            vals.append(kind(item))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag} item {item!r} is not {what}") from None
    return vals


def _parse_bounds(text: str, dim: int):
    vals = _parse_list("--bounds", text, float)
    if len(vals) != 2 * dim:
        raise ValueError(f"--bounds needs {2 * dim} comma-separated values for {dim}D")
    return tuple(vals[:dim]), tuple(vals[dim:])


def _run_pipeline(m: MatchSet, cfg: Config):
    """filter_and_refine with its wall time in ms."""
    t0 = time.perf_counter()
    labels, state, outcome = filter_and_refine(m, cfg)
    return labels, state, outcome, (time.perf_counter() - t0) * 1000.0


def _warn_if_no_inliers(outcome, labels, nothing: str) -> None:
    """Warn when RANSAC found no motion or the labels hold no inlier,
    worded from the hypothesis and label counts; nothing says what the
    command makes of no inliers.

    Without a motion EM starts from the identity motion everywhere, so
    matches with y close to x can still come out as inliers. With motions
    EM can still reject every match, for instance on a scene with 97%
    outliers, where the few true motions do not hold the field.
    """
    n_in = int(labels.inlier.sum())
    n_hyp = len(outcome.hypotheses)
    if n_hyp and n_in:
        return
    if n_hyp == 0:
        head = "no rigid motion found"
        what = (f"refined from the identity motion, {n_in} of {labels.n} matches are inliers"
                if n_in else nothing)
    else:
        head = (f"{n_hyp} rigid motions cover {outcome.inlier_union.size} of {labels.n} "
                f"matches, but refinement keeps 0 inliers")
        what = nothing
    print(f"warning: {head}, {what}", file=sys.stderr)


def _run(args, nothing: str, bounds_of=lambda m: None) -> SimpleNamespace:
    """The run step of filter and field.

    Loads the input and checks --dim, takes field's lattice bounds_of(m)
    before the pipeline spends its time, builds the config with
    Config.for_matches (defaults, scale-adapted for 3D, then the flags
    given), runs the pipeline and warns when no match is an inlier.
    Returns the run with its bounds and the head of the summary line.
    """
    m, _ = load_matches(args.input)
    if args.dim is not None and args.dim != m.dim:
        raise DimensionMismatchError(
            f"{args.input}: file is {m.dim}D but --dim {args.dim} was requested"
        )
    bounds = bounds_of(m)
    cfg = Config.for_matches(m, **_given(args, _CONFIG_FLAGS))
    labels, state, outcome, elapsed_ms = _run_pipeline(m, cfg)
    _warn_if_no_inliers(outcome, labels, nothing)
    head = (f"n={m.n} gamma={outcome.gamma:.4f} inliers={int(labels.inlier.sum())} "
            f"em_iters={state.n_iters}")
    return SimpleNamespace(m=m, bounds=bounds, cfg=cfg, labels=labels, state=state,
                           head=head, ms=elapsed_ms)


def cmd_filter(args) -> int:
    run = _run(args, "labeling everything outlier")
    save_labels(args.output, run.labels)
    print(f"{run.head} converged={run.state.converged} time_ms={run.ms:.1f}")
    return 0


def _field_bounds(args, m):
    """The lattice bounds, checked with --svg before the pipeline runs: a
    lattice that field.grid_points refuses, or that does not fit in
    memory, exits before RANSAC spends its time."""
    if args.svg is not None and m.dim != 2:
        raise ValueError("--svg requires 2D input")
    if args.bounds is not None:
        bounds = _parse_bounds(args.bounds, m.dim)
    else:
        bounds = (m.x.min(axis=0), m.x.max(axis=0))
    grid_points(bounds, args.grid_step, m.dim)
    return bounds


def cmd_field(args) -> int:
    run = _run(args, "field has no support", lambda m: _field_bounds(args, m))
    grid = grid_field(run.state, run.labels, run.m, run.bounds, args.grid_step, run.cfg)
    write_field_csv(grid, args.output, run.m.dim)
    if args.labels_output is not None:
        save_labels(args.labels_output, run.labels)
    if args.svg is not None:
        render_scene_svg(run.m, run.labels, grid, args.svg)
    n_valid = sum(1 for s in grid.samples if s.valid)
    print(f"{run.head} grid={'x'.join(str(s) for s in grid.shape)} valid={n_valid} "
          f"time_ms={run.ms:.1f}")
    return 0


def cmd_synth(args) -> int:
    bounds = None if args.bounds is None else _parse_bounds(args.bounds, args.dim)
    m, gt = synth_generate(SynthSpec(dim=args.dim, bounds=bounds, **_given(args, _SYNTH_FLAGS)))
    save_matches(args.output, m, gt=gt, units="pixels" if m.dim == 2 else "units")
    print(f"n={m.n} dim={m.dim} inliers={int(gt.sum())} outliers={int((~gt).sum())}")
    return 0


def cmd_eval(args) -> int:
    labels = load_labels(args.input)
    m, gt = load_matches(args.truth)
    if gt is None:
        raise MatchFileError(f"{args.truth}: no ground-truth column to evaluate against")
    if labels.n != m.n:
        raise MatchFileError(f"label count {labels.n} does not match {m.n} matches")
    met = compute_metrics(labels, gt)
    flag = "" if met.recall_defined else " (no ground-truth positives)"
    print(
        f"n_errors={met.n_errors} recall={met.recall:.4f} precision={met.precision:.4f} "
        f"fscore={met.fscore:.4f}{flag}"
    )
    return 0


def _bench_once(spec: SynthSpec) -> tuple:
    """One repeat's record: RANSAC and EM error counts and F-scores, EM
    recall and precision, RANSAC trials and control pool size, then filter
    and field times in ms, the field sampled at GRID_STEP."""
    m, gt = synth_generate(spec)
    cfg = Config.for_matches(m, seed=spec.seed)
    labels, state, outcome, filter_ms = _run_pipeline(m, cfg)
    rm = compute_metrics(labels_from_outcome(m, outcome), gt)
    em = compute_metrics(labels, gt)
    t1 = time.perf_counter()
    grid_field(state, labels, m, spec.bounds, GRID_STEP, cfg)
    field_ms = (time.perf_counter() - t1) * 1000.0
    return (rm.n_errors, em.n_errors, rm.fscore, em.fscore, em.recall, em.precision,
            outcome.trials, outcome.pool, filter_ms, field_ms)


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    ratios = _parse_list("--ratios", args.ratios, float)
    bad = [r for r in ratios if not 0.0 <= r < 100.0]
    if bad:
        raise ValueError(f"--ratios are outlier percentages in [0, 100), got {bad[0]:g}")
    sizes = _parse_list("--n", args.n, int)
    bad = [s for s in sizes if s < 1]
    if bad:
        raise ValueError(f"--n counts must be >= 1, got {bad[0]}")
    rows = ["ratio_pct,n,repeats,ransac_errors,em_errors,ransac_fscore,em_fscore,"
            "recall,precision,trials,pool,filter_ms_median,field_ms_median"]
    for ratio in ratios:
        for size in sizes:
            specs = [SynthSpec(n=size, outlier_ratio=ratio / 100.0, seed=args.seed + rep)
                     for rep in range(args.repeats)]
            records = list(map(_bench_once, specs))
            means = [statistics.mean(r[i] for r in records) for i in range(8)]
            medians = [statistics.median(r[i] for r in records) for i in (8, 9)]
            cells = [f"{v:.{dp}f}" for v, dp in zip(means + medians, (2, 2, 4, 4, 4, 4, 1, 1, 2, 2))]
            rows.append(",".join([f"{ratio:g}", str(size), str(args.repeats)] + cells))
    print("\n".join(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchfield",
        description="Remove mismatched point correspondences under non-rigid deformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # input and parameters shared by filter and field
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--input", type=Path, required=True, help="match CSV file")
    run.add_argument("--dim", type=int, choices=(2, 3), default=None,
                     help="expected input dimension")
    params = run.add_argument_group("algorithm parameters")
    _add_flags(params, _CONFIG_FLAGS)

    p_filter = sub.add_parser("filter", parents=[run],
                              help="label matches as inliers or outliers")
    p_filter.add_argument("--output", type=Path, required=True, help="label CSV to write")
    p_filter.set_defaults(func=cmd_filter)

    p_field = sub.add_parser("field", parents=[run],
                             help="filter, then sample the deformation field")
    p_field.add_argument("--output", type=Path, required=True, help="field CSV to write")
    p_field.add_argument("--labels-output", type=Path, default=None,
                         help="also write the match labels here")
    p_field.add_argument("--grid-step", type=float, default=GRID_STEP, help="lattice spacing")
    p_field.add_argument("--bounds", type=str, default=None,
                         help="lattice bounds mins,maxs (e.g. 0,0,800,600); default: data extent")
    p_field.add_argument("--svg", type=Path, default=None, help="render the 2D scene here")
    p_field.set_defaults(func=cmd_field)

    p_synth = sub.add_parser("synth", help="generate a ground-truthed synthetic scene")
    p_synth.add_argument("--output", type=Path, required=True)
    p_synth.add_argument("--dim", type=int, choices=(2, 3), default=SynthSpec.dim)
    p_synth.add_argument("--bounds", type=str, default=None,
                         help="scene box mins,maxs; default 0,0,800,600 in 2D, the 100 cube in 3D")
    _add_flags(p_synth, _SYNTH_FLAGS)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score labels against ground truth")
    p_eval.add_argument("--input", type=Path, required=True, help="label CSV")
    p_eval.add_argument("--truth", type=Path, required=True,
                        help="match CSV with a ground-truth column")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="accuracy and runtime sweep on synthetic scenes")
    p_bench.add_argument("--ratios", type=str, default="30,50,70,85",
                         help="outlier percentages, comma separated")
    p_bench.add_argument("--n", type=str, default=str(SynthSpec.n),
                         help="match counts, comma separated")
    p_bench.add_argument("--repeats", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=SynthSpec.seed)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatchFileError, ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DegenerateGeometryError, DegenerateScaleError) as e:
        print(f"error: degenerate input: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
