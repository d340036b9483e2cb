"""Run every workload, untraced and traced, and print one trajectory entry.

Run from the repository root:

    python3 perfbench/record.py --seed 101 --seconds 20 --label "seed commit"

Each workload runs twice through run.py, in its own process: with --trace 0
for the end-to-end metrics and with --trace 1 for the per-layer metrics.
The entry is one JSON line with the environment, every metric and, from
the 2d-1k-mix run, the 50%-outlier median set against the 100 ms runtime
budget of the acceptance tests, as measured (wall clock) and at reference
speed. --append adds the line to a file, such as perfbench/trajectory.jsonl.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("2d-1k-mix", "2d-10k-files", "3d-surface", "field-dense")
BUDGET_MS = 100.0


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return detail, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--label", required=True)
    ap.add_argument("--append", type=Path, default=None)
    args = ap.parse_args()

    entry = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        d0, r0 = run_one(w, args.seed, args.seconds, 0)
        d1, r1 = run_one(w, args.seed, args.seconds, 1)
        entry.setdefault("env", d0["env"])
        entry["workloads"][w] = {
            "correct": r0["correct"] and r1["correct"],
            "attempted": r0["attempted"] + r1["attempted"],
            "failed": r0["failed"] + r1["failed"],
            "end_to_end": {k: v["value"] for k, v in r0["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in r1["metrics"].items()},
            "untraced_ops": d0["untraced_ops"],
            "op_ms_tail_pct": d0["op_ms_tail_pct"],
            "fscore_groups": d0["fscore_groups"],
            "op_ms_p50_by_group": d0["op_ms_p50_by_group"],
            "op_ms_p50_raw_by_group": d0["op_ms_p50_raw_by_group"],
            "machine_speed": d0["machine_speed"],
            "self_time_accounted": d1["self_time_accounted"],
            "layer_self_ms_per_op": d1["layer_self_ms_per_op"],
            "errors": d0["errors"] + d1["errors"],
        }
        ok &= entry["workloads"][w]["correct"]
        m = r0["metrics"]
        print(f"{w:14s} p50 {m['op_ms_p50']['value']:9.1f} ms  tail {m['op_ms_tail']['value']:9.1f} ms"
              f"  F {m['fscore_mean']['value']:.4f}  ransac.share "
              f"{r1['metrics']['ransac.share']['value']:.3f}  correct {r0['correct'] and r1['correct']}",
              file=sys.stderr)
    mix = entry["workloads"]["2d-1k-mix"]
    raw = mix["op_ms_p50_raw_by_group"]["50%"]
    entry["runtime_budget"] = {
        "what": "2d-1k-mix op p50 at 50% outliers vs the acceptance budget",
        "op_ms_p50_wall": raw,
        "op_ms_p50_at_reference_speed": mix["op_ms_p50_by_group"]["50%"],
        "budget_ms": BUDGET_MS,
        "met": raw < BUDGET_MS,
    }
    line = json.dumps(entry)
    print(line)
    if args.append is not None:
        with open(args.append, "a") as f:
            f.write(line + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
