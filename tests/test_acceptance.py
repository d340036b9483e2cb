"""End-to-end performance gate: accuracy sweeps, runtime budgets, numerical
invariants, and determinism, each as a single pass/fail test."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from matchfield.core import Config, MatchSet, make_rng
from matchfield.dualquat import (
    dq8_apply,
    dq8_blend,
    dq8_from_rt,
    dq8_mul,
    dq8_normalize,
    dq_apply,
)
from matchfield.em_refine import e_step, filter_and_refine, init_from_hypotheses, m_step, run_em
from matchfield.io_eval import SynthSpec, compute_metrics, save_matches, synth_generate
from matchfield.ransac import labels_from_outcome, ransac_run, trial_bound, weighted_rigid_fit

RATIOS = (0.30, 0.50, 0.70, 0.85)
N_SEEDS = 20


@pytest.fixture(scope="module")
def sweep_2d():
    """Per-ratio metrics for the consensus stage alone and the full pipeline."""
    results = {}
    for ratio in RATIOS:
        rows = []
        for seed in range(N_SEEDS):
            m, gt = synth_generate(SynthSpec(n=1000, outlier_ratio=ratio, seed=seed))
            cfg = Config(seed=seed)
            outcome = ransac_run(m, cfg)
            labels, state = run_em(m, outcome, cfg)
            rows.append(
                (
                    compute_metrics(labels_from_outcome(m, outcome, cfg), gt),
                    compute_metrics(labels, gt),
                )
            )
        results[ratio] = rows
    return results


def test_2d_outlier_sweep_accuracy(sweep_2d):
    # mean F-score over 20 seeds: >= 0.95 up to 70% outliers, >= 0.90 at 85%
    for ratio in RATIOS:
        mean_f = np.mean([em.fscore for _, em in sweep_2d[ratio]])
        floor = 0.90 if ratio > 0.70 else 0.95
        assert mean_f >= floor, f"ratio {ratio:.0%}: mean fscore {mean_f:.4f} < {floor}"


def test_refinement_improves_on_consensus_stage(sweep_2d):
    # refinement must not lose accuracy at any ratio
    for ratio in RATIOS:
        ransac_err = np.mean([r.n_errors for r, _ in sweep_2d[ratio]])
        em_err = np.mean([e.n_errors for _, e in sweep_2d[ratio]])
        assert em_err <= ransac_err, (
            f"ratio {ratio:.0%}: refinement errors {em_err:.1f} > consensus {ransac_err:.1f}"
        )
    # a mutually consistent wrong group fools the consensus stage but not the
    # per-match refinement: precision gap of at least 0.1
    gaps = []
    for seed in range(5):
        m, gt = synth_generate(SynthSpec(n=600, outlier_ratio=0.30, seed=seed))
        rng = make_rng(1000 + seed)
        bad = np.nonzero(~gt)[0]
        group = bad[: bad.size // 2]
        y = m.y.copy()
        y[group] = m.x[group] + np.array([130.0, 40.0]) + rng.normal(scale=1.0, size=(group.size, 2))
        m = MatchSet.from_points(m.x, y)
        cfg = Config(seed=seed)
        outcome = ransac_run(m, cfg)
        labels, _ = run_em(m, outcome, cfg)
        p_ransac = compute_metrics(labels_from_outcome(m, outcome, cfg), gt).precision
        p_em = compute_metrics(labels, gt).precision
        gaps.append(p_em - p_ransac)
    assert np.mean(gaps) >= 0.1, f"precision gaps {np.round(gaps, 3)}"


def test_3d_accuracy_across_inlier_ratios():
    # smooth low-noise 3D surfaces at three inlier levels; mean F >= 0.93 each
    cases = ((629, 0.76), (1784, 0.39), (693, 0.16))
    for n, inlier_ratio in cases:
        scores = []
        for seed in range(5):
            spec = SynthSpec(
                n=n,
                dim=3,
                outlier_ratio=round(1.0 - inlier_ratio, 2),
                n_anchors=3,
                max_rotation=0.05,
                max_scale_jitter=0.02,
                noise_sigma=0.05,
                bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
                seed=seed,
            )
            m, gt = synth_generate(spec)
            cfg = Config.for_matches(m, seed=seed)
            labels, _, _ = filter_and_refine(m, cfg)
            scores.append(compute_metrics(labels, gt).fscore)
        mean_f = float(np.mean(scores))
        assert mean_f >= 0.93, (
            f"n={n} inliers {inlier_ratio:.0%}: mean fscore {mean_f:.4f}, seeds {np.round(scores, 3)}"
        )


def test_runtime_budgets(capsys):
    # 20-run medians from the bench subcommand: full pipeline on n=1000 at
    # 50% outliers under 100 ms, 17x13 grid sampling under 20 ms
    from matchfield.cli import main

    rc = main(["bench", "--ratios", "50", "--n", "1000", "--repeats", "20", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    filter_ms = float(fields["filter_ms_median"])
    field_ms = float(fields["field_ms_median"])
    assert filter_ms < 100.0, f"pipeline median {filter_ms:.1f} ms"
    assert field_ms < 20.0, f"grid median {field_ms:.1f} ms"


def test_numerical_invariants():
    rng = make_rng(99)

    def unit_residual(a):
        a = np.atleast_2d(a)
        r, d = a[..., 0:4], a[..., 4:8]
        return max(
            float(np.abs(np.linalg.norm(r, axis=-1) - 1.0).max()),
            float(np.abs(np.sum(r * d, axis=-1)).max()),
        )

    def random_rt(dim):
        if dim == 2:
            ang = rng.uniform(-np.pi, np.pi)
            return np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]), rng.normal(size=2)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        R = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        return R, rng.normal(size=3)

    # unit and orthogonality conditions survive construction, products, blends
    for _ in range(25):
        dqs = np.stack([dq8_from_rt(*random_rt(3)) for _ in range(4)])
        assert unit_residual(dqs) < 1e-9
        prod = dq8_normalize(dq8_mul(dqs[0], dqs[1]))
        assert unit_residual(prod) < 1e-9
        blended = dq8_blend(rng.uniform(0.1, 1.0, size=4), dqs)
        assert unit_residual(blended) < 1e-9

    # motion application agrees with the matrix form
    for _ in range(25):
        R, t = random_rt(3)
        mu = rng.uniform(0.5, 2.0)
        pts = rng.normal(size=(6, 3))
        got = dq8_apply(dq8_from_rt(R, t), mu, pts)
        assert np.abs(got - mu * (pts @ R.T + t)).max() < 1e-9

    # exact recovery of a noiseless similarity
    for dim in (2, 3):
        for _ in range(10):
            R, t = random_rt(dim)
            mu = rng.uniform(0.5, 2.0)
            x = rng.uniform(0.0, 100.0, size=(40, dim))
            m = MatchSet.from_points(x, mu * (x @ R.T + t))
            R_fit, mu_fit = weighted_rigid_fit(m, 0, np.ones(40))
            assert np.abs(R_fit - R).max() < 1e-6
            assert abs(mu_fit - mu) < 1e-6

    # every refinement step leaves each live motion mapping its own match exactly
    m, gt = synth_generate(SynthSpec(n=500, outlier_ratio=0.5, seed=17))
    cfg = Config(seed=17)
    state = init_from_hypotheses(m, ransac_run(m, cfg), cfg)
    for it in range(1, 7):
        m_step(state, m, cfg, update_sigma=it > 1)
        live = np.nonzero(~state.isolated)[0]
        mapped = np.stack([dq_apply(state.qs[i], state.mus[i], m.x[i]) for i in live])
        assert np.abs(mapped - m.y[live]).max() < 1e-6
        e_step(state, m, cfg)

    # trial-count bound spot check
    assert math.ceil(trial_bound(100, 0.5, 5, 0.95)) == 29


def test_byte_identical_outputs(tmp_path):
    # same input, config, and seed must give byte-identical label and field
    # files across repeated runs and across BLAS thread counts
    scene = tmp_path / "scene.csv"
    m, gt = synth_generate(SynthSpec(n=800, outlier_ratio=0.5, seed=4))
    save_matches(scene, m, gt=gt, units="pixels")
    outputs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        labels = tmp_path / f"labels_{tag}.csv"
        field = tmp_path / f"field_{tag}.csv"
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        env["MKL_NUM_THREADS"] = threads
        proc = subprocess.run(
            [
                sys.executable, "-m", "matchfield", "field",
                "--input", str(scene),
                "--output", str(field),
                "--labels-output", str(labels),
                "--bounds", "0,0,800,600",
                "--grid-step", "50",
                "--seed", "4",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((labels.read_bytes(), field.read_bytes()))
    assert outputs[0] == outputs[1], "repeat run changed output bytes"
    assert outputs[0] == outputs[2], "thread count changed output bytes"


def test_byte_identical_outputs_3d(tmp_path):
    # the 3D fits reduce over all n matches in one (3, n) @ (n, 3) product,
    # so the BLAS thread count must not reorder those sums either
    scene = tmp_path / "scene3.csv"
    spec = SynthSpec(
        n=1784,
        dim=3,
        outlier_ratio=0.61,
        n_anchors=3,
        max_rotation=0.05,
        max_scale_jitter=0.02,
        noise_sigma=0.05,
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 100.0)),
        seed=4,
    )
    m, gt = synth_generate(spec)
    save_matches(scene, m, gt=gt, units="units")
    outputs = []
    for tag, threads in (("a", "1"), ("b", "4")):
        labels = tmp_path / f"labels_{tag}.csv"
        field = tmp_path / f"field_{tag}.csv"
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        env["MKL_NUM_THREADS"] = threads
        proc = subprocess.run(
            [
                sys.executable, "-m", "matchfield", "field",
                "--input", str(scene),
                "--output", str(field),
                "--labels-output", str(labels),
                "--bounds", "0,0,0,100,100,100",
                "--grid-step", "20",
                "--seed", "4",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((labels.read_bytes(), field.read_bytes()))
    assert outputs[0] == outputs[1], "thread count changed output bytes"
