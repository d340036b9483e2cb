"""Self-check of the benchmark, at small sizes.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload it checks that
- every metric BENCHMARK.json names prints, with the unit it declares, in
  the untraced (end-to-end) and the traced (per-layer) result;
- every output passes its checks;
- label and field bytes of a traced run equal those of an untraced run with
  the same seed;
- the counts (trials, hypotheses, EM iterations, field samples) repeat
  exactly between two traced runs;
- on the filter workloads, layer self times plus cli.self_ms account for
  the operation time within 3 percent.
It also checks that the span recorder counts a degenerate trial, re-raises
it, and restores every wrapped attribute after a failing operation.
Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import sys

import run

SECONDS = 0.2
SEED = 7
ACCOUNTED_MIN = 0.97
FILTER_WORKLOADS = ("2d-1k-mix", "2d-10k-files", "3d-surface")
REPEATED_COUNTS = ("ransac.trials", "ransac.hypotheses", "em_refine.iters", "field.samples")


def declared_units() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def metric_problems(result: dict, declared: dict) -> list[str]:
    got = result["metrics"]
    out = [f"{k} missing" for k in declared if k not in got]
    out += [f"{k} has unit {got[k]['unit']!r}, declared {u!r}"
            for k, u in declared.items() if k in got and got[k]["unit"] != u]
    return out


def check_workload(name: str, e2e: dict, layer: dict) -> list[str]:
    problems = []
    plain, _, plain_digests = run.run_workload(name, SEED, SECONDS, False, small=True)
    traced, detail, traced_digests = run.run_workload(name, SEED, SECONDS, True, small=True)
    again, _, _ = run.run_workload(name, SEED, SECONDS, True, small=True)
    problems += metric_problems(plain, e2e) + metric_problems(traced, layer)
    for r in (plain, traced, again):
        if not r["correct"] or r["failed"]:
            problems.append(f"failed output checks: {r['failed']} of {r['attempted']}")
    if plain_digests != traced_digests:
        problems.append("traced outputs differ from untraced outputs")
    for k in REPEATED_COUNTS:
        a, b = traced["metrics"][k]["value"], again["metrics"][k]["value"]
        if a != b:
            problems.append(f"{k} differs between runs: {a} vs {b}")
    if name in FILTER_WORKLOADS and detail["self_time_accounted"] < ACCOUNTED_MIN:
        problems.append(f"layer self times cover {detail['self_time_accounted']:.3f} of op time")
    return problems


class _Failing:
    """A one-entry workload whose operation hits a degenerate trial."""

    def __init__(self) -> None:
        import numpy as np
        from matchfield.core import MatchSet

        # collinear 3D points leave the rotation about the line undetermined
        t = np.linspace(0.0, 100.0, 20)
        line = np.stack([t, 2.0 * t, 3.0 * t], axis=1)
        self.m = MatchSet.from_points(line, line + 5.0)
        self.pool = [0]

    def op(self, i):
        from matchfield import ransac
        from matchfield.core import Config

        return ransac.reweight_fit(self.m, 0, Config())

    def check(self, i, out):
        return []

    def points(self, i):
        return self.m.n

    def describe(self, i):
        return "collinear 3D line"


def check_recorder() -> list[str]:
    import workloads
    from spans import SpanRecorder
    from matchfield import cli, em_refine, field, ransac

    modules = (cli, em_refine, field, ransac)
    before = [dict(vars(m)) for m in modules]
    rec = SpanRecorder()
    res = run.measure(_Failing(), 0.0, True, rec, workloads.install_tracing,
                      run.reference_kernel())
    problems = []
    if res["failed"] != 2 or "DegenerateGeometryError" not in res["errors"][-1]:
        problems.append(f"degenerate trial not re-raised: {res['errors']}")
    if rec.counts["ransac.trials_degenerate"] != 1:
        problems.append("degenerate trial not counted in the traced pass")
    for mod, old in zip(modules, before):
        changed = [k for k, v in vars(mod).items() if old.get(k) is not v]
        if changed:
            problems.append(f"{mod.__name__}: not restored: {changed}")
    return problems


def main() -> int:
    run.bootstrap()
    e2e, layer = declared_units()
    missing = [k for k in e2e if k not in run.END_TO_END_UNITS]
    missing += [k for k in layer if k not in run.PER_LAYER_UNITS]
    failures = {"BENCHMARK.json": [f"{k} is not produced" for k in missing]}
    failures["span recorder"] = check_recorder()
    import workloads

    for name in workloads.WORKLOADS:
        failures[name] = check_workload(name, e2e, layer)
    ok = True
    for what, problems in failures.items():
        print(f"{what}: {'ok' if not problems else '; '.join(problems)}")
        ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
