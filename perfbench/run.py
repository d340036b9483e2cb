"""Benchmark of the matchfield pipeline, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload 2d-1k-mix --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): 2d-1k-mix, 2d-10k-files, 3d-surface,
field-dense. Inputs are generated from --seed in set-up; the package is
imported from the checkout's src/ directory. Each workload runs as a closed
loop with one client, in whole passes over its input pool, until --seconds
have elapsed. Every operation's output is checked.

Latencies are reported at a reference machine speed. On a shared or
virtualised host the speed of a core drifts by tens of percent over
minutes, and flips between a fast and a slow state that can last from a
fraction of a second to many seconds. After every operation a fixed NumPy
kernel (reference_kernel, independent of the package) is timed for about
REFERENCE_SHARE of the operation's time, at least three times, and the
median of those runs is taken. Each operation's time is scaled by
REFERENCE_MS over the mean of those kernel medians for the operations
around it, so a drift that slows the kernel and the pipeline alike cancels
out. The mean, not the median, weighs the two states by how often the
kernel met them; a median would jump to one state, which moves a run of a
few two-second operations by 20%. The raw wall-clock figures and the speed
factor are in the detail record.

setup_s is the median import time of seven fresh interpreters plus the
median of five complete set-ups (scene and file generation, field
fitting, warm-up operations), scaled the same way by the mean of kernel
times taken after each of them.

With --trace 0 the result carries the end-to-end metrics. With --trace 1
passes alternate between untraced and traced; the result carries the
per-layer metrics of the traced passes (span times as measured, counts per
operation) and trace.overhead_pct, the traced minus the untraced median
latency, and the spans are written to
.perfbench_out/spans-<workload>-<seed>.jsonl.

The second-to-last stdout line is a JSON detail record (environment, sample
counts, tail percentile, per-group F-scores next to the acceptance floors,
check errors). The last line is the result:
{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}.
When an operation fails, its scene and error are also written to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# fresh-interpreter imports and complete set-ups timed for setup_s; with
# three of each, bursts of load on a shared 2-core VM moved the medians by
# up to 19% between sets of runs
IMPORT_REPEATS = 7
SETUP_REPEATS = 5
# the tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
# time of reference_kernel at the reference speed, as measured on a 2-core
# Xeon VM with Python 3.11 and NumPy 2.4
REFERENCE_MS = 1.2
# kernel runs after each timed step: at least REFERENCE_REPEATS, and enough
# to take REFERENCE_SHARE of the step's time, so that a 2 s operation is not
# scaled by three kernel runs of a few ms that one burst of load can skew;
# operations on each side whose kernel times give an operation's local speed
REFERENCE_REPEATS = 3
REFERENCE_SHARE = 0.05
REFERENCE_WINDOW = 4

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "points_per_s": "1/s",
    "fscore_mean": "ratio",
    "fscore_worst_group": "ratio",
    "field_holdout_err": "input_units",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "ransac.ms": "ms",
    "ransac.share": "ratio",
    "ransac.trials": "count",
    "ransac.trials_degenerate": "count",
    "ransac.hypotheses": "count",
    "ransac.accept_ratio": "ratio",
    "ransac.reweight_fit_us": "us",
    "em_refine.ms": "ms",
    "em_refine.build_neighbors_ms": "ms",
    "em_refine.init_ms": "ms",
    "em_refine.m_step_ms": "ms",
    "em_refine.e_step_ms": "ms",
    "em_refine.iters": "count",
    "em_refine.converged_ratio": "ratio",
    "dualquat.blend_ms": "ms",
    "dualquat.apply_ms": "ms",
    "dualquat.blend_calls": "count",
    "dualquat.bytes_computed": "B",
    "field.query_ms": "ms",
    "field.samples": "count",
    "field.valid_ratio": "ratio",
    "io_eval.load_ms": "ms",
    "io_eval.save_ms": "ms",
    "io_eval.write_field_ms": "ms",
    "io_eval.bytes_read": "B",
    "io_eval.bytes_written": "B",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


# run in a fresh interpreter: seconds to import the package and every module
# the workloads drive
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t0 = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t0)"
)


def bootstrap() -> None:
    """Import the package from the checkout's src/.

    Exits with an error when the checkout holds no package source, so the
    benchmark never measures some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "matchfield" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {src}")
    sys.path.insert(0, str(src))
    import matchfield

    if Path(matchfield.__file__).resolve().parent != (src / "matchfield").resolve():
        sys.exit(f"error: matchfield imported from {matchfield.__file__}, not {src}")


def import_seconds() -> float:
    """Import time of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def reference_kernel():
    """A fixed workload of small NumPy calls and 1000-row array passes,
    about the mix of a RANSAC trial, that never touches the package."""
    import numpy as np

    rng = np.random.default_rng(12345)
    x = rng.uniform(0.0, 800.0, size=(1000, 2))
    y = x + rng.normal(0.0, 20.0, size=(1000, 2))

    def kernel() -> float:
        s = 0.0
        for k in range(12):
            xr = x - x[k]
            yr = y - y[k]
            u, sv, vt = np.linalg.svd(yr.T @ xr)
            d = np.linalg.norm(yr - sv[0] * (xr @ (u @ vt).T), axis=1)
            s += float(np.minimum(20.0 / (d + 1e-9), 1.0).sum())
        return s

    return kernel


def reference_ms(kernel, step_ms: float) -> float:
    """Median time of the kernel runs that follow a step of step_ms."""
    times = []
    for _ in range(max(REFERENCE_REPEATS, round(REFERENCE_SHARE * step_ms / REFERENCE_MS))):
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def at_reference_speed(ops: list) -> list[float]:
    """Each operation's ms scaled to the reference machine speed."""
    ref = [r for *_, r in ops]
    out = []
    for j, (ms, *_) in enumerate(ops):
        local = statistics.fmean(ref[max(0, j - REFERENCE_WINDOW): j + REFERENCE_WINDOW + 1])
        out.append(ms * REFERENCE_MS / local)
    return out


def median(values) -> float:
    """Median, 0.0 when every operation failed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples no percentile above the median
    has that many samples beyond it, so the median (p50) is reported; the
    maximum of a dozen samples reads mostly machine noise.
    """
    s = sorted(values)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return median(s), 50.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(wl, seconds: float, trace: bool, rec, install, kernel) -> dict:
    """Closed loop over whole passes of wl.pool until seconds have passed.

    With trace, odd passes run with the wrappers installed and an active
    operation id; even passes run without them.
    """
    perf = time.perf_counter
    ops = []  # (ms, traced, pool index, reference kernel ms)
    points = 0
    attempted = failed = 0
    errors: list[str] = []
    passes = 0
    deadline = perf() + seconds
    while True:
        traced = trace and passes % 2 == 1
        if traced:
            install(rec)
        try:
            for i in wl.pool:
                attempted += 1
                rec.op = attempted if traced else None
                try:
                    t0 = perf()
                    if traced:
                        with rec.span("op"):
                            out = wl.op(i)
                    else:
                        out = wl.op(i)
                    t1 = perf()
                except Exception as e:  # a failing operation is counted, not fatal
                    failed += 1
                    errors.append(f"op {attempted} ({wl.describe(i)}): {e!r}")
                    continue
                finally:
                    rec.op = None
                try:
                    errs = wl.check(i, out)
                except Exception as e:  # a check that cannot run fails the operation
                    errs = [f"check raised {e!r}"]
                if errs:
                    failed += 1
                    errors.extend(f"op {attempted} ({wl.describe(i)}): {e}" for e in errs)
                ms = (t1 - t0) * 1e3
                ops.append((ms, traced, i, reference_ms(kernel, ms)))
                if not traced:
                    points += wl.points(i)
        finally:
            rec.restore()
        passes += 1
        if perf() >= deadline and passes >= (2 if trace else 1):
            break
    return {"ops": ops, "points": points, "attempted": attempted, "failed": failed,
            "errors": errors, "passes": passes}


def layer_metrics(rec, n_ops: int, op_s: float, overhead_pct: float) -> tuple[dict, dict]:
    from spans import self_times

    dur: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    own = self_times(rec.spans)
    layer_self: defaultdict[str, float] = defaultdict(float)
    for _, sid, _, name, t0, t1 in rec.spans:
        dur[name] += t1 - t0
        calls[name] += 1
        layer_self[name.split(".")[0]] += own[sid]
    c = rec.counts

    def ms(name):
        return 1e3 * dur[name] / n_ops

    def per_op(name):
        return c[name] / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "ransac.ms": ms("ransac.ransac_run"),
        "ransac.share": ratio(dur["ransac.ransac_run"], op_s),
        "ransac.trials": per_op("ransac.trials"),
        "ransac.trials_degenerate": per_op("ransac.trials_degenerate"),
        "ransac.hypotheses": per_op("ransac.hypotheses"),
        "ransac.accept_ratio": ratio(c["ransac.hypotheses"], c["ransac.trials"]),
        "ransac.reweight_fit_us": 1e6 * ratio(dur["ransac.reweight_fit"], calls["ransac.reweight_fit"]),
        "em_refine.ms": ms("em_refine.run_em"),
        "em_refine.build_neighbors_ms": ms("em_refine.build_neighbors"),
        "em_refine.init_ms": ms("em_refine.init_from_hypotheses"),
        "em_refine.m_step_ms": ms("em_refine.m_step"),
        "em_refine.e_step_ms": ms("em_refine.e_step"),
        "em_refine.iters": per_op("em_refine.iters"),
        "em_refine.converged_ratio": ratio(c["em_refine.converged"], c["em_refine.runs"]),
        "dualquat.blend_ms": ms("dualquat.blend"),
        "dualquat.apply_ms": ms("dualquat.apply"),
        "dualquat.blend_calls": calls["dualquat.blend"] / n_ops,
        "dualquat.bytes_computed": per_op("dualquat.bytes_computed"),
        "field.query_ms": ms("field.query_field"),
        "field.samples": per_op("field.samples"),
        "field.valid_ratio": ratio(c["field.valid"], c["field.samples"]),
        "io_eval.load_ms": ms("io_eval.load_matches"),
        "io_eval.save_ms": ms("io_eval.save_labels"),
        "io_eval.write_field_ms": ms("io_eval.write_field_csv"),
        "io_eval.bytes_read": per_op("io_eval.bytes_read"),
        "io_eval.bytes_written": per_op("io_eval.bytes_written"),
        "cli.self_ms": 1e3 * layer_self["cli"] / n_ops,
        "trace.overhead_pct": overhead_pct,
    }
    layers = {k: 1e3 * v / n_ops for k, v in sorted(layer_self.items()) if k != "op"}
    detail = {
        "layer_self_ms_per_op": layers,
        "self_time_accounted": ratio(sum(layers.values()) * n_ops / 1e3, op_s),
        "dualquat.bytes_computed": "computed from argument and result array shapes",
    }
    return m, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> tuple[dict, dict, dict]:
    """Set up, measure and check one workload.

    Returns (result, detail, output digests per pool entry).
    """
    import workloads
    from spans import SpanRecorder

    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    kernel = reference_kernel()
    try:
        import_s, prep_s, setup_ref = [], [], []
        for _ in range(IMPORT_REPEATS):
            import_s.append(import_seconds())
            setup_ref.append(reference_ms(kernel, 1e3 * import_s[-1]))
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = workloads.build(name, seed, small)
            wl.prepare(workdir)
            prep_s.append(time.perf_counter() - t0)
            setup_ref.append(reference_ms(kernel, 1e3 * prep_s[-1]))
        setup_raw = statistics.median(import_s) + statistics.median(prep_s)
        setup_s = setup_raw * REFERENCE_MS / statistics.fmean(setup_ref)

        rec = SpanRecorder()
        run = measure(wl, seconds, trace, rec, workloads.install_tracing, kernel)
        try:
            finish_errors = wl.finish(workdir)
        except Exception as e:  # the final check fails the run, not the benchmark
            finish_errors = [f"final check raised {e!r}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = run["ops"]
    scaled = at_reference_speed(ops)
    plain = [ms for ms, (_, traced, *_) in zip(scaled, ops) if not traced]
    raw = [ms for ms, traced, *_ in ops if not traced]
    p50 = median(plain)
    groups = wl.quality.groups()
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": run["passes"],
        "pool": len(wl.pool),
        "untraced_ops": len(plain),
        "import_repeats_s": import_s,
        "setup_repeats_s": prep_s,
        "setup_s_raw": setup_raw,
        "fscore_groups": groups,
        "fscore_floors_met": all(g["floor_met"] for g in groups.values()),
        "holdout_points": len(wl.quality.holdout),
        "holdout_err_uncapped": statistics.fmean(wl.quality.holdout) if wl.quality.holdout else None,
        "holdout_points_over_cap": wl.quality.holdout_over_cap,
        "op_ms_p50_by_group": {
            g: median(ms for ms, (_, traced, i, _) in zip(scaled, ops)
                      if not traced and wl.group(i) == g)
            for g in groups
        },
        "op_ms_p50_raw_by_group": {
            g: median(ms for ms, traced, i, _ in ops if not traced and wl.group(i) == g)
            for g in groups
        },
        "op_ms_p50_raw": median(raw),
        "machine_speed": REFERENCE_MS / statistics.fmean(r for *_, r in ops) if ops else 0.0,
        "errors": (run["errors"] + finish_errors)[:10],
        "env": environment(),
    }
    if trace:
        traced_ms = [ms for ms, (_, traced, *_) in zip(scaled, ops) if traced]
        traced_raw_s = sum(ms for ms, traced, *_ in ops if traced) / 1e3
        overhead = 100.0 * (median(traced_ms) / p50 - 1.0) if p50 else 0.0
        metrics, extra = layer_metrics(rec, max(len(traced_ms), 1), traced_raw_s, overhead)
        detail.update(extra, traced_ops=len(traced_ms))
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}-{seed}.jsonl"
        rec.dump(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
        units = PER_LAYER_UNITS
    else:
        tail_ms, tail_pct = tail(plain)
        detail.update(op_ms_tail_pct=tail_pct)
        fs = [f for g in wl.quality.fscores.values() for f in g]
        metrics = {
            "op_ms_p50": p50,
            "op_ms_tail": tail_ms,
            "points_per_s": run["points"] / (sum(plain) / 1e3) if plain else 0.0,
            "fscore_mean": sum(fs) / len(fs) if fs else 0.0,
            "fscore_worst_group": min(g["fscore_mean"] for g in groups.values()) if groups else 0.0,
            "field_holdout_err": (statistics.fmean(wl.quality.holdout_capped)
                                  if wl.quality.holdout_capped else 0.0),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": run["failed"] == 0 and not finish_errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, detail, dict(wl.digests)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result, detail, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["correct"]:
        print(f"{args.workload} seed {args.seed}: {result['failed']} of {result['attempted']} "
              "operations failed; first errors:", file=sys.stderr)
        for e in detail["errors"]:
            print(f"  {e}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
