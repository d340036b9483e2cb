"""Command line front end.

Subcommands:

* filter: label a match file, writing per-match labels
* field:  filter, then sample the deformation field on a lattice
* synth:  generate a ground-truthed synthetic match file
* eval:   score a label file against a ground-truthed match file
* bench:  outlier-ratio sweep with accuracy and runtime columns

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

import numpy as np

from .core import (
    Config,
    ConfigError,
    DegenerateGeometryError,
    DegenerateScaleError,
    MatchSet,
    config_overrides_from_file,
)
from .em_refine import filter_and_refine
from .field import grid_axes, grid_field, render_scene_svg, write_field_csv
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


# (flag, Config field, type, help) of every parameter flag of filter and field
_CONFIG_FLAGS = (
    ("--H", "H", float, "inlier residual threshold"),
    ("--r", "r", float, "neighborhood radius"),
    ("--a", "a", float, "uniform outlier density"),
    ("--p-min", "p_min", float, "posterior threshold for inliers"),
    ("--theta", "theta", float, "EM termination threshold"),
    ("--t-min", "T_min", int, "minimum hypothesis support"),
    ("--n-neighbor", "N_neighbor", int, "neighbors for blending"),
    ("--seed", "seed", int, "random seed"),
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("algorithm parameters")
    g.add_argument("--config", type=Path, default=None, help="key=value parameter file")
    for flag, name, kind, text in _CONFIG_FLAGS:
        g.add_argument(flag, dest=name, type=kind, default=None, help=text)


def _build_config(args, m: MatchSet) -> Config:
    """Defaults, scale-adapted for 3D, then file overrides, then flags."""
    overrides = {} if args.config is None else config_overrides_from_file(args.config)
    flags = {name: getattr(args, name) for _, name, _, _ in _CONFIG_FLAGS}
    overrides.update((k, v) for k, v in flags.items() if v is not None)
    return Config.for_matches(m, **overrides)


def _load_input(args) -> MatchSet:
    m, _ = load_matches(args.input)
    if args.dim is not None and args.dim != m.dim:
        raise DimensionMismatchError(
            f"{args.input}: file is {m.dim}D but --dim {args.dim} was requested"
        )
    return m


def _run_pipeline(m: MatchSet, cfg: Config):
    """filter_and_refine with its wall time in ms."""
    t0 = time.perf_counter()
    labels, state, outcome = filter_and_refine(m, cfg)
    return labels, state, outcome, (time.perf_counter() - t0) * 1000.0


def _warn_if_no_inliers(outcome, labels, field: bool) -> None:
    """Warn when RANSAC found no motion or the labels hold no inlier,
    worded from the hypothesis and label counts.

    Without a motion EM starts from the identity motion everywhere, so
    matches with y close to x can still come out as inliers. With motions
    EM can still reject every match, for instance when random hypotheses
    of a mostly-outlier scene agree on no field.
    """
    n_in = int(labels.inlier.sum())
    n_hyp = len(outcome.hypotheses)
    if n_hyp and n_in:
        return
    nothing = "field has no support" if field else "labeling everything outlier"
    if n_hyp == 0:
        head = "no rigid motion found"
        what = (f"refined from the identity motion, {n_in} of {labels.n} matches are inliers"
                if n_in else nothing)
    else:
        head = (f"{n_hyp} rigid motions cover {outcome.inlier_union.size} of {labels.n} "
                f"matches, but refinement keeps 0 inliers")
        what = nothing
    print(f"warning: {head}, {what}", file=sys.stderr)


def cmd_filter(args) -> int:
    m = _load_input(args)
    cfg = _build_config(args, m)
    labels, state, outcome, elapsed_ms = _run_pipeline(m, cfg)
    _warn_if_no_inliers(outcome, labels, field=False)
    save_labels(args.output, labels)
    print(
        f"n={m.n} gamma={outcome.gamma:.4f} inliers={int(labels.inlier.sum())} "
        f"em_iters={state.n_iters} converged={state.converged} time_ms={elapsed_ms:.1f}"
    )
    return 0


def _parse_bounds(text: str, dim: int):
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 2 * dim:
        raise ValueError(f"--bounds needs {2 * dim} comma-separated values for {dim}D")
    return np.array(vals[:dim]), np.array(vals[dim:])


def cmd_field(args) -> int:
    m = _load_input(args)
    if args.svg is not None and m.dim != 2:
        print("error: --svg requires 2D input", file=sys.stderr)
        return 2
    if args.bounds is not None:
        bounds = _parse_bounds(args.bounds, m.dim)
    else:
        bounds = (m.x.min(axis=0), m.x.max(axis=0))
    # reject a bad lattice before the pipeline spends its time
    grid_axes(bounds, args.grid_step, m.dim)
    cfg = _build_config(args, m)
    labels, state, outcome, elapsed_ms = _run_pipeline(m, cfg)
    _warn_if_no_inliers(outcome, labels, field=True)
    grid = grid_field(state, labels, m, bounds, args.grid_step, cfg)
    write_field_csv(grid, args.output, m.dim)
    if args.labels_output is not None:
        save_labels(args.labels_output, labels)
    if args.svg is not None:
        render_scene_svg(m, labels, grid, args.svg)
    n_valid = sum(1 for s in grid.samples if s.valid)
    print(
        f"n={m.n} gamma={outcome.gamma:.4f} inliers={int(labels.inlier.sum())} "
        f"em_iters={state.n_iters} grid={'x'.join(str(s) for s in grid.shape)} "
        f"valid={n_valid} time_ms={elapsed_ms:.1f}"
    )
    return 0


def cmd_synth(args) -> int:
    dim = args.dim or 2
    if args.bounds is not None:
        mins, maxs = _parse_bounds(args.bounds, dim)
        bounds = (tuple(mins), tuple(maxs))
    elif dim == 2:
        bounds = SynthSpec.bounds
    else:
        bounds = ((0.0,) * 3, (100.0,) * 3)
    spec = SynthSpec(
        n=args.n,
        dim=dim,
        outlier_ratio=args.outlier_ratio,
        n_anchors=args.anchors,
        max_rotation=args.max_rotation,
        max_scale_jitter=args.scale_jitter,
        noise_sigma=args.noise_sigma,
        bounds=bounds,
        seed=args.seed if args.seed is not None else 0,
    )
    m, gt = synth_generate(spec)
    save_matches(args.output, m, gt=gt, units="pixels" if dim == 2 else "units")
    print(f"n={m.n} dim={dim} inliers={int(gt.sum())} outliers={int((~gt).sum())}")
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


def _bench_once(spec: SynthSpec, grid_step: float):
    m, gt = synth_generate(spec)
    cfg = Config.for_matches(m, seed=spec.seed)
    labels, state, outcome, filter_ms = _run_pipeline(m, cfg)
    ransac_metrics = compute_metrics(labels_from_outcome(m, outcome, cfg), gt)
    em_metrics = compute_metrics(labels, gt)
    bounds = (np.asarray(spec.bounds[0]), np.asarray(spec.bounds[1]))
    t1 = time.perf_counter()
    grid_field(state, labels, m, bounds, grid_step, cfg)
    field_ms = (time.perf_counter() - t1) * 1000.0
    return ransac_metrics, em_metrics, filter_ms, field_ms


def cmd_bench(args) -> int:
    ratios = [float(v) for v in args.ratios.split(",")]
    sizes = [int(v) for v in args.sizes.split(",")] if args.sizes else [args.n]
    base_seed = args.seed if args.seed is not None else 0
    header = (
        "ratio_pct,n,repeats,ransac_errors,em_errors,ransac_fscore,em_fscore,"
        "recall,precision,filter_ms_median,field_ms_median"
    )
    rows = [header]
    for ratio in ratios:
        for size in sizes:
            r_err, e_err, r_f, e_f, rec, prec, t_filter, t_field = [], [], [], [], [], [], [], []
            for rep in range(args.repeats):
                spec = SynthSpec(
                    n=size, outlier_ratio=ratio / 100.0, seed=base_seed + rep, dim=2
                )
                rm, em, f_ms, g_ms = _bench_once(spec, args.grid_step)
                r_err.append(rm.n_errors)
                e_err.append(em.n_errors)
                r_f.append(rm.fscore)
                e_f.append(em.fscore)
                rec.append(em.recall)
                prec.append(em.precision)
                t_filter.append(f_ms)
                t_field.append(g_ms)
            rows.append(
                f"{ratio:g},{size},{args.repeats},"
                f"{statistics.mean(r_err):.2f},{statistics.mean(e_err):.2f},"
                f"{statistics.mean(r_f):.4f},{statistics.mean(e_f):.4f},"
                f"{statistics.mean(rec):.4f},{statistics.mean(prec):.4f},"
                f"{statistics.median(t_filter):.2f},{statistics.median(t_field):.2f}"
            )
    table = "\n".join(rows)
    print(table)
    if args.output is not None:
        Path(args.output).write_text(table + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchfield",
        description="Remove mismatched point correspondences under non-rigid deformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_filter = sub.add_parser("filter", help="label matches as inliers or outliers")
    p_filter.add_argument("--input", type=Path, required=True, help="match CSV file")
    p_filter.add_argument("--output", type=Path, required=True, help="label CSV to write")
    p_filter.add_argument("--dim", type=int, choices=(2, 3), default=None,
                          help="expected input dimension")
    _add_config_flags(p_filter)
    p_filter.set_defaults(func=cmd_filter)

    p_field = sub.add_parser("field", help="filter, then sample the deformation field")
    p_field.add_argument("--input", type=Path, required=True)
    p_field.add_argument("--output", type=Path, required=True, help="field CSV to write")
    p_field.add_argument("--labels-output", type=Path, default=None,
                         help="also write the match labels here")
    p_field.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p_field.add_argument("--grid-step", type=float, default=50.0, help="lattice spacing")
    p_field.add_argument("--bounds", type=str, default=None,
                         help="lattice bounds mins,maxs (e.g. 0,0,800,600); default: data extent")
    p_field.add_argument("--svg", type=Path, default=None, help="render the 2D scene here")
    _add_config_flags(p_field)
    p_field.set_defaults(func=cmd_field)

    p_synth = sub.add_parser("synth", help="generate a ground-truthed synthetic scene")
    p_synth.add_argument("--output", type=Path, required=True)
    p_synth.add_argument("--n", type=int, default=1000)
    p_synth.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p_synth.add_argument("--outlier-ratio", type=float, default=0.5)
    p_synth.add_argument("--anchors", type=int, default=3)
    p_synth.add_argument("--max-rotation", type=float, default=0.4,
                         help="anchor rotation bound in radians")
    p_synth.add_argument("--scale-jitter", type=float, default=0.1)
    p_synth.add_argument("--noise-sigma", type=float, default=2.0)
    p_synth.add_argument("--bounds", type=str, default=None)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score labels against ground truth")
    p_eval.add_argument("--input", type=Path, required=True, help="label CSV")
    p_eval.add_argument("--truth", type=Path, required=True,
                        help="match CSV with a ground-truth column")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="accuracy and runtime sweep on synthetic scenes")
    p_bench.add_argument("--ratios", type=str, default="30,50,70,85",
                         help="outlier percentages, comma separated")
    p_bench.add_argument("--n", type=int, default=1000)
    p_bench.add_argument("--sizes", type=str, default=None,
                         help="comma-separated n values overriding --n")
    p_bench.add_argument("--repeats", type=int, default=20)
    p_bench.add_argument("--grid-step", type=float, default=50.0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", type=Path, default=None, help="also write the table here")
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
