"""Print one sha256 per benchmark workload over the pipeline's output bytes.

Run from anywhere:

    python tools/scene_digest.py [--seed N] [--small]

The scenes are the benchmark's own, built by perfbench's workloads.build
from --seed (default 977) and --small (the self-check sizes). Each scene
runs ransac_run and run_em at Config.for_matches, and its workload's digest
takes, in scene order: the kNN graph, EM's seed state and final state, the
labels, the hold-out query_field samples and, for field-dense, the lattice
query_field samples. Every array enters with its dtype and shape, so a
change of dtype changes the digest even where the values agree. The package
is imported from this checkout's src/, so two checkouts of equal output
print equal lines.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from matchfield import em_refine, field, ransac  # noqa: E402
from matchfield.core import Config  # noqa: E402


def _update(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def _state(h, state) -> None:
    _update(h, state.qs, state.mus, state.p, state.field_at_x, state.isolated,
            np.float64([state.sigma, state.gamma]), np.int64([state.converged, state.n_iters]))


def _samples(h, samples) -> None:
    _update(h, np.array([s.displaced for s in samples]), np.array([s.support for s in samples]),
            np.array([s.valid for s in samples]))


def workload_digest(name: str, seed: int, small: bool) -> str:
    w = workloads.build(name, seed, small)
    h = hashlib.sha256()
    for scene in w.scenes:
        m = scene.m
        cfg = Config.for_matches(m)
        outcome = ransac.ransac_run(m, cfg)
        labels, state = em_refine.run_em(m, outcome, cfg)
        _update(h, state.graph.idx, state.graph.dist)
        _state(h, em_refine.init_from_hypotheses(m, outcome, cfg))
        _state(h, state)
        _update(h, labels.inlier, labels.posterior, labels.residual)
        _samples(h, field.query_field(state, labels, m, scene.hold_x, cfg))
        if name == "field-dense":
            _samples(h, field.query_field(state, labels, m, w.lattice, cfg))
    return h.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Digest the pipeline's bytes per workload.")
    parser.add_argument("--seed", type=int, default=977, help="workload seed")
    parser.add_argument("--small", action="store_true", help="the self-check's small scenes")
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        print(f"{workload_digest(name, args.seed, args.small)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
