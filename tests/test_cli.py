import argparse
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from matchfield import cli, em_refine, ransac
from matchfield.cli import main
from matchfield.core import (
    Config,
    LabelResult,
    MatchSet,
    scale_estimate,
)
from matchfield.em_refine import filter_and_refine
from matchfield.io_eval import (
    SynthSpec,
    load_labels,
    load_matches,
    save_labels,
    save_matches,
    synth_generate,
)


def run_ok(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return out


def test_synth_filter_eval_round_trip(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    labels = tmp_path / "labels.csv"
    out = run_ok(
        ["synth", "--output", str(scene), "--n", "300", "--outlier-ratio", "0.3", "--seed", "1"],
        capsys,
    )
    assert "n=300" in out
    out = run_ok(
        ["filter", "--input", str(scene), "--output", str(labels), "--seed", "1"], capsys
    )
    assert re.search(r"inliers=\d+", out)
    result = load_labels(labels)
    assert result.n == 300
    out = run_ok(["eval", "--input", str(labels), "--truth", str(scene)], capsys)
    fscore = float(re.search(r"fscore=([0-9.]+)", out).group(1))
    assert fscore > 0.9


def test_synth_defaults_are_the_synth_spec_defaults(tmp_path, capsys):
    # without --bounds, synth writes the library's default scene of its
    # dimension: the 800x600 frame in 2D, the 100-unit cube in 3D
    for dim_flag, box, seed in (([], "0,0,800,600", 3), (["--dim", "3"], "0,0,0,100,100,100", 5)):
        spec = SynthSpec(dim=3 if dim_flag else 2, seed=seed)
        lib = tmp_path / "lib.csv"
        save_matches(lib, *synth_generate(spec), units="units" if dim_flag else "pixels")
        for bounds in ([], ["--bounds", box]):
            cmd = tmp_path / "cmd.csv"
            run_ok(["synth", "--output", str(cmd), "--seed", str(seed)] + dim_flag + bounds,
                   capsys)
            assert cmd.read_bytes() == lib.read_bytes()


@pytest.mark.parametrize("seed", [9, 1, 2])
def test_default_3d_synth_scene_keeps_its_inliers(tmp_path, capsys, seed):
    # synth's default 3D noise once drove every posterior below P_MIN, so
    # filter labelled all 600 matches outliers
    scene = tmp_path / "scene3.csv"
    labels = tmp_path / "labels3.csv"
    run_ok(["synth", "--output", str(scene), "--dim", "3", "--n", "600",
            "--outlier-ratio", "0.4", "--seed", str(seed)], capsys)
    run_ok(["filter", "--input", str(scene), "--output", str(labels)], capsys)
    out = run_ok(["eval", "--input", str(labels), "--truth", str(scene)], capsys)
    assert float(re.search(r"fscore=([0-9.]+)", out).group(1)) >= 0.9


def test_field_command_writes_grid_and_svg(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    field_csv = tmp_path / "field.csv"
    labels_csv = tmp_path / "labels.csv"
    svg = tmp_path / "scene.svg"
    run_ok(
        ["synth", "--output", str(scene), "--n", "400", "--outlier-ratio", "0.2", "--seed", "2"],
        capsys,
    )
    out = run_ok(
        [
            "field",
            "--input", str(scene),
            "--output", str(field_csv),
            "--labels-output", str(labels_csv),
            "--svg", str(svg),
            "--bounds", "0,0,800,600",
            "--grid-step", "50",
            "--seed", "2",
        ],
        capsys,
    )
    assert "grid=17x13" in out
    lines = field_csv.read_text().strip().splitlines()
    assert len(lines) == 1 + 17 * 13
    assert labels_csv.exists()
    assert svg.read_text().startswith("<svg")


def test_eval_of_perfect_labels(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    labels = tmp_path / "labels.csv"
    run_ok(
        ["synth", "--output", str(scene), "--n", "100", "--outlier-ratio", "0.4", "--seed", "3"],
        capsys,
    )
    m, gt = load_matches(scene)
    from matchfield.core import LabelResult
    from matchfield.io_eval import save_labels

    save_labels(
        labels,
        LabelResult(inlier=gt, posterior=gt.astype(float), residual=np.zeros(m.n)),
    )
    out = run_ok(["eval", "--input", str(labels), "--truth", str(scene)], capsys)
    assert "fscore=1.0000" in out
    assert "n_errors=0" in out


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--output", "x.csv"])
    assert exc.value.code == 2


def test_missing_input_file_returns_2(tmp_path, capsys):
    rc = main(["filter", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_an_undecodable_input_is_named_and_exits_2(tmp_path, capsys):
    # the decode error names the file, so eval tells --input from --truth
    scene, labels, bad = tmp_path / "scene.csv", tmp_path / "labels.csv", tmp_path / "bad.csv"
    run_ok(["synth", "--output", str(scene), "--n", "60", "--seed", "3"], capsys)
    run_ok(["filter", "--input", str(scene), "--output", str(labels)], capsys)
    bad.write_bytes(b"\xff\xfe2,3,px\n")
    out = tmp_path / "l.csv"
    for argv in (["filter", "--input", str(bad), "--output", str(out)],
                 ["eval", "--input", str(bad), "--truth", str(scene)],
                 ["eval", "--input", str(labels), "--truth", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff"), err
    assert not out.exists()


def test_eval_of_labels_for_another_match_count_returns_2(tmp_path, capsys):
    scene, labels = tmp_path / "scene.csv", tmp_path / "labels.csv"
    run_ok(["synth", "--output", str(scene), "--n", "60", "--seed", "3"], capsys)
    save_labels(labels, LabelResult(inlier=np.ones(59, bool), posterior=np.ones(59),
                                    residual=np.zeros(59)))
    assert main(["eval", "--input", str(labels), "--truth", str(scene)]) == 2
    assert capsys.readouterr().err == "error: label count 59 does not match 60 matches\n"


def test_eval_of_labels_with_a_nan_posterior_returns_2(tmp_path, capsys):
    scene, labels = tmp_path / "scene.csv", tmp_path / "labels.csv"
    run_ok(["synth", "--output", str(scene), "--n", "3", "--seed", "3"], capsys)
    labels.write_text("index,inlier,posterior,residual\n0,1,0.9,0.5\n1,1,nan,0.5\n2,0,0.1,40\n")
    assert main(["eval", "--input", str(labels), "--truth", str(scene)]) == 2
    assert capsys.readouterr().err == "error: posteriors must lie in [0, 1]\n"


def test_eval_without_ground_truth_returns_2(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    labels = tmp_path / "labels.csv"
    m = MatchSet.from_points(np.random.default_rng(0).uniform(size=(10, 2)), np.zeros((10, 2)))
    save_matches(scene, m)  # no gt column
    from matchfield.core import LabelResult
    from matchfield.io_eval import save_labels

    save_labels(
        labels,
        LabelResult(inlier=np.ones(10, bool), posterior=np.ones(10), residual=np.zeros(10)),
    )
    rc = main(["eval", "--input", str(labels), "--truth", str(scene)])
    assert rc == 2


def test_degenerate_input_returns_3(tmp_path, capsys):
    scene = tmp_path / "tiny.csv"
    m = MatchSet.from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    save_matches(scene, m)
    rc = main(["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "degenerate" in capsys.readouterr().err


def test_filter_and_field_take_the_dimension_from_the_file(tmp_path, capsys):
    # the match file's header fixes a run's dimension, so filter and field
    # have no --dim: argparse refuses it, whatever the file holds
    scene = tmp_path / "scene.csv"
    run_ok(["synth", "--output", str(scene), "--n", "50", "--seed", "0"], capsys)
    for cmd in ("filter", "field"):
        for dim in ("2", "3"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--input", str(scene), "--output", str(tmp_path / "o.csv"),
                      "--dim", dim])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --dim {dim}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_svg_flag_rejects_3d_input(tmp_path, capsys):
    scene = tmp_path / "scene3.csv"
    run_ok(
        ["synth", "--output", str(scene), "--n", "200", "--dim", "3",
         "--outlier-ratio", "0.1", "--seed", "4"],
        capsys,
    )
    rc = main(
        ["field", "--input", str(scene), "--output", str(tmp_path / "f.csv"),
         "--svg", str(tmp_path / "s.svg")]
    )
    assert rc == 2


def test_svg_flag_rejects_3d_input_before_writing(tmp_path, capsys):
    scene = tmp_path / "scene3.csv"
    run_ok(
        ["synth", "--output", str(scene), "--n", "200", "--dim", "3",
         "--outlier-ratio", "0.1", "--seed", "4"],
        capsys,
    )
    field, labels = tmp_path / "f.csv", tmp_path / "l.csv"
    rc = main(
        ["field", "--input", str(scene), "--output", str(field),
         "--labels-output", str(labels), "--svg", str(tmp_path / "s.svg")]
    )
    assert rc == 2
    assert "--svg requires 2D input" in capsys.readouterr().err
    assert not field.exists() and not labels.exists()


@pytest.mark.parametrize("bounds", ["nan,0,10,10", "0,0,inf,10"])
def test_field_rejects_non_finite_bounds(tmp_path, capsys, bounds):
    scene = tmp_path / "scene.csv"
    run_ok(["synth", "--output", str(scene), "--n", "150", "--seed", "3"], capsys)
    field, labels = tmp_path / "f.csv", tmp_path / "l.csv"
    rc = main(
        ["field", "--input", str(scene), "--output", str(field),
         "--labels-output", str(labels), "--bounds", bounds, "--seed", "3"]
    )
    assert rc == 2
    assert "bounds must be finite" in capsys.readouterr().err
    assert not field.exists() and not labels.exists()
    # synth rejects the same bounds before it draws a point
    synth = tmp_path / "s.csv"
    assert main(["synth", "--output", str(synth), "--n", "50", "--bounds", bounds]) == 2
    assert "error: bounds must be finite" in capsys.readouterr().err
    assert not synth.exists()


def test_every_parameter_flag_sets_its_config_field(monkeypatch, tmp_path):
    # the flags are one table; each must reach its Config field with its type
    seen = {}

    def fake_pipeline(m, cfg):
        seen["cfg"] = cfg
        raise ValueError("stop")

    monkeypatch.setattr(cli, "_run_pipeline", fake_pipeline)
    scene = tmp_path / "scene.csv"
    save_matches(scene, *synth_generate(SynthSpec(n=50, seed=0)))
    want = {"H": 12.5, "r": 40.0, "seed": 4}
    flags = ["--H", "12.5", "--r", "40", "--seed", "4"]
    for cmd in ("filter", "field"):
        assert main([cmd, "--input", str(scene), "--output", str(tmp_path / "o.csv")]
                    + flags) == 2
        got = {k: getattr(seen["cfg"], k) for k in want}
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    assert len(cli._CONFIG_FLAGS) == len(want)


def test_retired_sparse_flag_and_config_key_exit_2(tmp_path, capsys):
    # RANSAC has one path, so --sparse and --n-sparse are gone; ransac_p,
    # n_reweight_iters, max_em_iters, T_min, p_min, theta and N_neighbor are
    # module constants, and EM takes its outlier density a from the targets'
    # box. The key=value config file is gone too: each setting has its flag
    scene = tmp_path / "scene.csv"
    run_ok(["synth", "--output", str(scene), "--n", "50", "--seed", "5"], capsys)
    argv = ["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv")]
    for flags in (["--sparse"], ["--n-sparse", "100"], ["--a", "1"], ["--t-min", "5"],
                  ["--p-min", "0.5"], ["--theta", "0.005"], ["--n-neighbor", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
    # argparse refuses --config before the input is read: a missing input
    # would exit 2 through main's handler instead, without SystemExit
    for cmd in ("filter", "field"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--input", str(tmp_path / "missing.csv"), "--output",
                  str(tmp_path / "o.csv"), "--config", "x.cfg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config x.cfg" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_config_flags_set_exactly_the_config_fields():
    # the flags set exactly the Config fields, and nothing else
    names = [name for _, name, _, _ in cli._CONFIG_FLAGS]
    assert sorted(names) == sorted(f.name for f in fields(Config)) and len(set(names)) == 3


def test_bench_emits_table(tmp_path, capsys):
    # the table goes to stdout, and nowhere else
    out = run_ok(["bench", "--ratios", "30,50", "--n", "120", "--repeats", "1", "--seed", "0"],
                 capsys)
    lines = out.strip().splitlines()
    assert lines[0] == ("ratio_pct,n,repeats,ransac_errors,em_errors,ransac_fscore,em_fscore,"
                        "recall,precision,trials,pool,filter_ms_median,field_ms_median")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "30"
    header_fields = lines[0].split(",")
    assert len(lines[1].split(",")) == len(header_fields)
    # one repeat: the trials and pool cells are that run's counts
    m, _ = synth_generate(SynthSpec(n=120, outlier_ratio=0.3, seed=0))
    outcome = ransac.ransac_run(m, Config.for_matches(m, seed=0))
    cells = dict(zip(header_fields, lines[1].split(",")))
    assert (cells["trials"], cells["pool"]) == (f"{outcome.trials:.1f}", f"{outcome.pool:.1f}")


def test_bench_size_sweep_is_a_list_of_n(capsys):
    # --n takes the whole size sweep: one row per ratio and size, in that order
    out = run_ok(["bench", "--ratios", "30,50", "--n", "120,150", "--repeats", "1"], capsys)
    rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
    assert rows == [["30", "120", "1"], ["30", "150", "1"], ["50", "120", "1"], ["50", "150", "1"]]
    # no second flag overrides --n
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "120"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["bench", "--n", "120,x", "--repeats", "1"]) == 2


@pytest.mark.parametrize("command", ["filter", "field"])
@pytest.mark.parametrize("shift", [1.0, 500.0])
def test_no_motion_warning_agrees_with_labels(tmp_path, capsys, command, shift):
    # sources collapsed onto one point pin no rotation, so RANSAC finds no
    # motion; EM then refines from the identity motion, which explains
    # y = x + 1 but not a 500-unit scatter. The scale rule would set H from
    # the scatter itself (s = shift / sqrt(2)), so H and r are fixed in
    # pixels to keep both cases
    n = 200
    x = np.tile([200.0, 100.0], (n, 1))
    ang = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=n)
    y = x + shift * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    scene = tmp_path / "line.csv"
    labels_csv = tmp_path / "labels.csv"
    save_matches(scene, MatchSet.from_points(x, y))
    argv = [command, "--input", str(scene), "--seed", "0", "--H", "20", "--r", "50"]
    if command == "filter":
        argv += ["--output", str(labels_csv)]
    else:
        argv += ["--output", str(tmp_path / "field.csv"), "--labels-output", str(labels_csv)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    n_in = int(load_labels(labels_csv).inlier.sum())
    assert "no rigid motion found" in err
    if n_in == 0:
        assert ("labeling everything outlier" if command == "filter" else "field has no support") in err
    else:
        assert f"{n_in} of {n} matches are inliers" in err
    assert (n_in == n) if shift == 1.0 else (n_in == 0)


@pytest.mark.parametrize("outlier_ratio, seed, warns", [(0.98, 14, True), (0.95, 1, False)])
def test_zero_inlier_run_warns_although_ransac_kept_motions(tmp_path, capsys, outlier_ratio, seed,
                                                            warns):
    # at 98% outliers RANSAC keeps one hypothesis of 9 matches on seed 14,
    # yet EM labels no match an inlier; at 95% seed 1 keeps inliers
    m, _ = synth_generate(SynthSpec(n=1000, outlier_ratio=outlier_ratio, seed=seed))
    scene = tmp_path / "scene.csv"
    labels_csv = tmp_path / "labels.csv"
    save_matches(scene, m)
    assert main(["filter", "--input", str(scene), "--output", str(labels_csv),
                 "--seed", str(seed)]) == 0
    captured = capsys.readouterr()
    n_in = int(load_labels(labels_csv).inlier.sum())
    assert f"inliers={n_in} " in captured.out
    _, _, outcome = filter_and_refine(m, Config(seed=seed))
    assert outcome.hypotheses
    if warns:
        assert n_in == 0
        assert captured.err == (
            f"warning: {len(outcome.hypotheses)} rigid motions cover "
            f"{outcome.inlier_union.size} of 1000 matches, but refinement keeps 0 inliers, "
            "labeling everything outlier\n"
        )
    else:
        assert n_in > 0 and captured.err == ""


def _synth(path, capsys, dim=2, n=300, seed=9):
    argv = ["synth", "--output", str(path), "--n", str(n), "--dim", str(dim),
            "--outlier-ratio", "0.4", "--seed", str(seed)]
    if dim == 3:
        argv += ["--noise-sigma", "0.05", "--max-rotation", "0.05", "--scale-jitter", "0.02"]
    run_ok(argv, capsys)
    return path


def _count_stage_calls(monkeypatch) -> dict:
    """Wrap the RANSAC and EM module attributes; record the config of each call."""
    calls = {"ransac": [], "em": []}
    ransac_run, run_em = ransac.ransac_run, em_refine.run_em

    def counted_ransac(m, cfg):
        calls["ransac"].append(cfg)
        return ransac_run(m, cfg)

    def counted_em(m, outcome, cfg):
        calls["em"].append(cfg)
        return run_em(m, outcome, cfg)

    monkeypatch.setattr(ransac, "ransac_run", counted_ransac)
    monkeypatch.setattr(em_refine, "run_em", counted_em)
    return calls


@pytest.mark.parametrize(
    "lattice",
    [["--bounds", "nan,0,10,10"], ["--bounds", "0,0,10"], ["--grid-step", "0"],
     ["--bounds=0,0,1e200,1e200", "--grid-step", "5e199"],
     ["--bounds=1e16,0,10000000000000010,1", "--grid-step", "1"]],
    ids=["nan-bounds", "bounds-count", "zero-step", "past-the-coordinate-rule",
         "step-below-the-float-spacing"],
)
def test_field_rejects_bad_lattice_before_the_pipeline(tmp_path, capsys, monkeypatch, lattice):
    scene = _synth(tmp_path / "scene.csv", capsys, n=150)
    calls = _count_stage_calls(monkeypatch)
    field, labels = tmp_path / "f.csv", tmp_path / "l.csv"
    rc = main(["field", "--input", str(scene), "--output", str(field),
               "--labels-output", str(labels)] + lattice)
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not calls["ransac"] and not calls["em"]
    assert not field.exists() and not labels.exists()


def test_field_samples_a_step_the_float_spacing_rounds(tmp_path, capsys):
    # at 1e16 the float spacing is 2, so a step of 3 cannot be held exactly;
    # sample i is still lo + 3 i, rounded, and the 7 samples all differ
    scene = _synth(tmp_path / "scene.csv", capsys, n=150)
    field = tmp_path / "f.csv"
    out = run_ok(["field", "--input", str(scene), "--output", str(field),
                  "--bounds=9999999999999990,0,10000000000000010,1", "--grid-step", "3"], capsys)
    assert "grid=7x1" in out
    qx = [float(row.split(",")[0]) for row in field.read_text().splitlines()[1:]]
    assert qx == [9999999999999990.0 + 3.0 * i for i in range(7)]
    assert len(set(qx)) == 7 and qx[-1] <= 1e16 + 10


@pytest.mark.parametrize("entry", ["filter", "field", "library"])
def test_each_run_passes_both_stage_attributes_once(tmp_path, capsys, monkeypatch, entry):
    # the traced benchmark run wraps ransac.ransac_run and em_refine.run_em;
    # every way into the pipeline must go through those module attributes
    scene = _synth(tmp_path / "scene.csv", capsys, n=200)
    calls = _count_stage_calls(monkeypatch)
    if entry == "library":
        m, _ = load_matches(scene)
        filter_and_refine(m, Config.for_matches(m))
    else:
        run_ok([entry, "--input", str(scene), "--output", str(tmp_path / "out.csv")], capsys)
    assert len(calls["ransac"]) == 1 and len(calls["em"]) == 1
    assert calls["ransac"][0] is calls["em"][0]


@pytest.mark.parametrize("dim,H,r", [(2, 15.0, 35.0), (3, 3.0, 9.0)], ids=["2d", "3d"])
def test_cli_labels_equal_library_run(tmp_path, capsys, dim, H, r):
    scene = _synth(tmp_path / "scene.csv", capsys, dim=dim)
    cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
    run_ok(["filter", "--input", str(scene), "--output", str(cli_out),
            "--H", repr(H), "--r", repr(r), "--seed", "4"], capsys)
    m, _ = load_matches(scene)
    cfg = Config.for_matches(m, H=H, r=r, seed=4)
    labels, _, _ = filter_and_refine(m, cfg)
    save_labels(lib_out, labels)
    assert cli_out.read_bytes() == lib_out.read_bytes()


def test_negative_seed_exits_2_before_the_pipeline(tmp_path, capsys, monkeypatch):
    # a seed below 0 is refused where the config or scene is built, naming
    # seed, before any RANSAC run and without writing an output file
    scene = _synth(tmp_path / "scene.csv", capsys, n=150)
    out = tmp_path / "o.csv"
    calls = _count_stage_calls(monkeypatch)
    for argv, got in (
        (["filter", "--input", str(scene), "--seed", "-1"], "got -1"),
        (["field", "--input", str(scene), "--seed", "-1"], "got -1"),
        (["synth", "--n", "50", "--seed", "-1"], "got -1"),
    ):
        assert main(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"seed must be >= 0, {got}" in err
        assert not out.exists()
    assert not calls["ransac"]


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_rejects_fewer_than_one_repeat(capsys, repeats):
    assert main(["bench", "--ratios", "30", "--n", "50", "--repeats", repeats]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --repeats must be >= 1, got {repeats}\n"
    assert captured.out == ""


@pytest.mark.parametrize("ratios, n, message", [
    ("30,x", "50", "--ratios item 'x' is not a number"),
    ("30", "5x", "--n item '5x' is not an integer"),
    ("100", "50", "--ratios are outlier percentages in [0, 100), got 100"),
    ("30", "0", "--n counts must be >= 1, got 0"),
    ("30", "-5", "--n counts must be >= 1, got -5"),
    ("30", "50,0", "--n counts must be >= 1, got 0"),
])
def test_bench_list_flag_errors_name_the_flag(capsys, ratios, n, message):
    assert main(["bench", "--ratios", ratios, "--n", n, "--repeats", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["field", "synth"])
def test_bounds_item_errors_name_the_flag(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    argv = [command, "--output", str(out), "--bounds", "0,0,x,1"]
    if command == "field":
        argv += ["--input", str(_synth(tmp_path / "scene.csv", capsys, n=150))]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --bounds item 'x' is not a number\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["filter", "field"])
@pytest.mark.parametrize("flags", [{}, {"H": 7.5}], ids=["rule", "H-flag"])
@pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
def test_summary_prints_the_H_and_r_in_force(tmp_path, capsys, command, flags, dim):
    # the scale rule sets H and r from the data, so the summary line shows
    # the values the run used: for_matches' with the flags given
    scene = _synth(tmp_path / "scene.csv", capsys, dim=dim, n=150)
    argv = [command, "--input", str(scene), "--output", str(tmp_path / "o.csv")]
    for name, v in flags.items():
        argv += [f"--{name}", repr(v)]
    out = run_ok(argv, capsys)
    cfg = Config.for_matches(load_matches(scene)[0], **flags)
    assert re.search(r" em_iters=\d+ H=(\S+) r=(\S+) ", out).groups() == (
        f"{cfg.H:.6g}", f"{cfg.r:.6g}")


def test_3d_flag_overrides_keep_the_scale_adaptation(tmp_path, capsys, monkeypatch):
    # precedence: the scale rule, then flags; a flag for H leaves the
    # scale's r alone
    scene = _synth(tmp_path / "scene3.csv", capsys, dim=3)
    calls = _count_stage_calls(monkeypatch)
    run_ok(["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv"),
            "--seed", "4", "--H", "2.5"], capsys)
    cfg = calls["ransac"][0]
    s = scale_estimate(load_matches(scene)[0])
    assert cfg.H == 2.5
    assert np.isclose(cfg.r, 0.3 * s)
    assert cfg.seed == 4
    # a bad flag value exits 2 before RANSAC runs
    rc = main(["filter", "--input", str(scene), "--output", str(tmp_path / "bad.csv"),
               "--r", "-1"])
    assert rc == 2
    assert "r must be positive" in capsys.readouterr().err
    assert len(calls["ransac"]) == 1 and not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("command", ["filter", "field"])
def test_lengths_below_the_floor_exit_2(tmp_path, capsys, command):
    # r * r of r = 1e-170 underflows and EM's blend weights became 0 / 0;
    # Config refuses H and r below core.MIN_LENGTH, and at the floor a run
    # raises no RuntimeWarning
    scene = _synth(tmp_path / "scene.csv", capsys, n=300, seed=1)
    out = tmp_path / "out.csv"
    argv = [command, "--input", str(scene), "--output", str(out)]
    for flag in ("--H", "--r"):
        assert main(argv + [flag, "1e-170"]) == 2
        assert capsys.readouterr().err == f"error: {flag[2:]} must be at least 1e-150, got 1e-170\n"
        assert not out.exists()
    run_ok(argv + ["--H", "1e-150", "--r", "1e-150"], capsys)
    run_ok(argv + ["--r", "1e-150"], capsys)


def test_overflowing_bounds_exit_2(tmp_path, capsys):
    # every corner is finite, but the extent max - min overflows a float;
    # the coordinate rule refuses corners past 1e145
    scene = _synth(tmp_path / "scene.csv", capsys, n=150)
    synth, field = tmp_path / "s.csv", tmp_path / "f.csv"
    for argv in (["synth", "--output", str(synth), "--n", "50"],
                 ["field", "--input", str(scene), "--output", str(field)]):
        assert main(argv + ["--bounds=-1e308,-1e308,1e308,1e308"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: bounds must be finite and at most 1e+145 in magnitude")
    assert not synth.exists() and not field.exists()


def test_synth_rejects_a_box_whose_squared_extent_overflows(tmp_path, capsys):
    # the extent 2e200 fits a float, its square does not: exit 2 naming the
    # bounds, with no RuntimeWarning from the scene generator
    synth = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["synth", "--output", str(synth), "--n", "50",
                   "--bounds=-1e200,-1e200,1e200,1e200"])
    assert rc == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err == ("error: bounds must be finite and at most 1e+145 in magnitude, got "
                   "[-1e+200, -1e+200] to [1e+200, 1e+200]\n")
    assert not synth.exists()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lo, hi", [("-1e145", "1e145"), ("0", "1e145"), ("-1e145", "0")])
def test_synth_names_a_box_near_the_bound_whose_targets_leave_it(tmp_path, capsys, dim, lo, hi):
    synth = tmp_path / "s.csv"
    bounds = ",".join([lo] * dim + [hi] * dim)
    rc = main(["synth", "--dim", str(dim), "--output", str(synth), "--n", "300", "--seed", "3",
               f"--bounds={bounds}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: box {[float(lo)] * dim} to {[float(hi)] * dim}: its anchor "
                          "motions carry targets past the coordinate rule")
    assert "match" not in err and not synth.exists()


@pytest.mark.parametrize("flag, name", [("--max-rotation", "max_rotation"),
                                        ("--noise-sigma", "noise_sigma")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_synth_rejects_a_non_finite_or_negative_rotation_or_noise(tmp_path, capsys, flag, name, value):
    synth = tmp_path / "s.csv"
    assert main(["synth", "--output", str(synth), "--n", "50", f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {name} must be finite and non-negative, got {float(value)}\n"
    assert not synth.exists()


def test_field_rejects_a_lattice_that_overflows_an_index(tmp_path, capsys, monkeypatch):
    scene = _synth(tmp_path / "scene.csv", capsys, n=150)
    calls = _count_stage_calls(monkeypatch)
    field = tmp_path / "f.csv"
    # corners within the coordinate rule overflow an index at a tiny step
    rc = main(["field", "--input", str(scene), "--output", str(field),
               "--bounds=0,0,1e145,1e145", "--grid-step", "1e120"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lattice of [1e+25, 1e+25] samples per axis at step 1e+120")
    assert "overflows an index" in err
    assert not calls["ransac"] and not field.exists()


def test_field_on_a_lattice_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # 100,001 samples per axis are 0.8 MB each, but the 1e15-point 3D
    # lattice needs petabytes, which numpy refuses without allocating; the
    # lattice is built before RANSAC runs
    scene = _synth(tmp_path / "scene3.csv", capsys, dim=3, n=150)
    calls = _count_stage_calls(monkeypatch)
    field, labels = tmp_path / "f.csv", tmp_path / "l.csv"
    rc = main(["field", "--input", str(scene), "--output", str(field),
               "--labels-output", str(labels), "--bounds=0,0,0,1e5,1e5,1e5", "--grid-step", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: lattice of [100001, 100001, 100001] samples per axis at step 1.0 "
                   "does not fit in memory\n")
    assert not calls["ransac"] and not field.exists() and not labels.exists()
    # one axis of 1e14 samples (728 TiB) already fails as its axes are
    # allocated, with the same message, before RANSAC runs
    scene = _synth(tmp_path / "scene2.csv", capsys, n=150)
    rc = main(["field", "--input", str(scene), "--output", str(field),
               "--bounds=0,0,1e14,1", "--grid-step", "1"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: lattice of [100000000000001, 2] samples per axis "
                                       "at step 1.0 does not fit in memory\n")
    assert not calls["ransac"] and not field.exists()


def test_field_and_bench_share_the_grid_step_default(capsys, monkeypatch):
    # bench samples at field's default step, the step its 20 ms gate was set
    # for, and has no flag to change it, nor one to write its table to a file
    parser = cli.build_parser()
    field = parser.parse_args(["field", "--input", "m.csv", "--output", "f.csv"])
    assert field.grid_step == cli.GRID_STEP == 50.0
    steps = []
    grid_field = cli.grid_field

    def recorded(state, labels, m, bounds, step, cfg):
        steps.append(step)
        return grid_field(state, labels, m, bounds, step, cfg)

    monkeypatch.setattr(cli, "grid_field", recorded)
    run_ok(["bench", "--ratios", "30", "--n", "120", "--repeats", "1"], capsys)
    assert steps == [cli.GRID_STEP]
    for flag in ("--grid-step", "--output"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["bench", flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("command", ["filter", "field"])
def test_one_match_file_is_degenerate(tmp_path, capsys, command, dim):
    # too few matches exit 3 in both dimensions
    scene, out = tmp_path / "one.csv", tmp_path / "out.csv"
    x = np.arange(dim, dtype=float)[None, :]
    save_matches(scene, MatchSet.from_points(x, x + 1.0))
    assert main([command, "--input", str(scene), "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: degenerate input: ")
    assert not out.exists()


def test_filter_and_field_go_through_the_traced_io_names(tmp_path, capsys, monkeypatch):
    # the traced benchmark run wraps cli.load_matches and cli.save_labels,
    # so both commands must look them up in cli's module globals
    scene = _synth(tmp_path / "scene.csv", capsys, n=150)
    calls = {"load_matches": 0, "save_labels": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(cli, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(cli, name, counted)
    run_ok(["filter", "--input", str(scene), "--output", str(tmp_path / "l.csv")], capsys)
    assert calls == {"load_matches": 1, "save_labels": 1}
    run_ok(["field", "--input", str(scene), "--output", str(tmp_path / "f.csv"),
            "--labels-output", str(tmp_path / "fl.csv")], capsys)
    assert calls == {"load_matches": 2, "save_labels": 2}


def test_readme_parameter_table_is_the_flag_table():
    # the README's parameter table lists the flags of _CONFIG_FLAGS in
    # order: the seed with its Config default, H and r with the value the
    # scale rule gives on an 800x600 scene, the Config default (the rule's
    # fractions are checked in tests/test_readme.py)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Parameters", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(--[\w-]+)` \| ([^|]+) \|", section, re.M)
    assert [flag for flag, _ in rows] == [flag for flag, *_ in cli._CONFIG_FLAGS]
    for (_, default), (_, name, kind, _) in zip(rows, cli._CONFIG_FLAGS):
        want = getattr(Config(), name)
        if name == "seed":
            assert kind(default.strip()) == want
        else:
            assert default.strip().endswith(f"≈ {want:g} on an 800×600 scene"), name


def _subcommand_flags() -> dict:
    """Each subcommand's long flags, --help left out."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for a in sub._actions for opt in a.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, sub in subparsers.choices.items()}


def test_readme_and_the_parser_name_the_same_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags = _subcommand_flags()
    assert sorted(flags) == ["bench", "eval", "field", "filter", "synth"]
    assert flags["bench"] == {"--ratios", "--n", "--repeats", "--seed"}
    # every flag the parser defines is documented
    for name, defined in flags.items():
        for flag in defined:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", readme), (name, flag)
    # every README example passes only flags its subcommand defines, so no
    # removed flag (bench --grid-step, --output, --sizes) lingers there
    examples = re.findall(r"^matchfield (\w+)(.*)$", readme.replace("\\\n", " "), re.M)
    assert {name for name, _ in examples} == set(flags)
    for name, rest in examples:
        assert set(re.findall(r"--[a-z][\w-]*", rest)) <= flags[name], (name, rest)


def test_python_m_matchfield_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "matchfield", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("--help")
    assert done.returncode == 0 and "usage: matchfield" in done.stdout
    done = run("eval", "--input", str(tmp_path / "nope.csv"), "--truth", str(tmp_path / "t.csv"))
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "nope.csv" in lines[0]
