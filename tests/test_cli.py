import re

import numpy as np
import pytest

from matchfield import cli, em_refine, ransac
from matchfield.cli import main
from matchfield.core import Config, MatchSet, config_overrides_from_file, scale_estimate
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
    # without --bounds, 2D synth writes the library's default scene
    lib = tmp_path / "lib.csv"
    save_matches(lib, *synth_generate(SynthSpec(seed=3)), units="pixels")
    for bounds in ([], ["--bounds", "0,0,800,600"]):
        cmd = tmp_path / "cmd.csv"
        run_ok(["synth", "--output", str(cmd), "--seed", "3"] + bounds, capsys)
        assert cmd.read_bytes() == lib.read_bytes()


@pytest.mark.parametrize("seed", [9, 1, 2])
def test_default_3d_synth_scene_keeps_its_inliers(tmp_path, capsys, seed):
    # synth's default 3D noise once drove every posterior below p_min, so
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


def test_dim_flag_mismatch_returns_2(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    run_ok(["synth", "--output", str(scene), "--n", "50", "--seed", "0"], capsys)
    rc = main(
        ["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv"), "--dim", "3"]
    )
    assert rc == 2


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


def test_flag_overrides_config_file(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    run_ok(
        ["synth", "--output", str(scene), "--n", "200", "--outlier-ratio", "0.3", "--seed", "0"],
        capsys,
    )
    cfgfile = tmp_path / "strict.cfg"
    cfgfile.write_text("H=0.5\n")
    out_small = run_ok(
        ["filter", "--input", str(scene), "--output", str(tmp_path / "a.csv"),
         "--config", str(cfgfile), "--seed", "0"],
        capsys,
    )
    n_small = int(re.search(r"inliers=(\d+)", out_small).group(1))
    out_big = run_ok(
        ["filter", "--input", str(scene), "--output", str(tmp_path / "b.csv"),
         "--config", str(cfgfile), "--H", "20", "--seed", "0"],
        capsys,
    )
    n_big = int(re.search(r"inliers=(\d+)", out_big).group(1))
    assert n_big > n_small


def test_every_parameter_flag_sets_its_config_field(monkeypatch, tmp_path):
    # the flags are one table; each must reach its Config field with its type
    seen = {}

    def fake_pipeline(m, cfg):
        seen["cfg"] = cfg
        raise ValueError("stop")

    monkeypatch.setattr(cli, "_run_pipeline", fake_pipeline)
    scene = tmp_path / "scene.csv"
    save_matches(scene, *synth_generate(SynthSpec(n=50, seed=0)))
    want = {"H": 12.5, "r": 40.0, "a": 2e-5, "p_min": 0.6, "theta": 0.01, "T_min": 6,
            "N_neighbor": 9, "seed": 4}
    flags = ["--H", "12.5", "--r", "40", "--a", "2e-5", "--p-min", "0.6", "--theta", "0.01",
             "--t-min", "6", "--n-neighbor", "9", "--seed", "4"]
    for cmd in ("filter", "field"):
        assert main([cmd, "--input", str(scene), "--output", str(tmp_path / "o.csv")]
                    + flags) == 2
        got = {k: getattr(seen["cfg"], k) for k in want}
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    assert len(cli._CONFIG_FLAGS) == len(want)


def test_bad_config_file_returns_2(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    run_ok(["synth", "--output", str(scene), "--n", "50", "--seed", "0"], capsys)
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("H=not_a_number\n")
    rc = main(
        ["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv"),
         "--config", str(cfgfile)]
    )
    assert rc == 2


def test_retired_sparse_flag_and_config_key_exit_2(tmp_path, capsys):
    # RANSAC has one path, so --sparse, --n-sparse and N_sparse are gone
    scene = tmp_path / "scene.csv"
    run_ok(["synth", "--output", str(scene), "--n", "50", "--seed", "5"], capsys)
    argv = ["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv")]
    for flags in (["--sparse"], ["--n-sparse", "100"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text("N_sparse = 100\n")
    capsys.readouterr()
    assert main(argv + ["--config", str(cfgfile)]) == 2
    assert "unknown config key 'N_sparse'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_bench_emits_table(tmp_path, capsys):
    table_path = tmp_path / "bench.csv"
    out = run_ok(
        ["bench", "--ratios", "30,50", "--n", "120", "--repeats", "1", "--seed", "0",
         "--output", str(table_path)],
        capsys,
    )
    lines = out.strip().splitlines()
    assert lines[0].startswith("ratio_pct,n,repeats,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "30"
    assert table_path.read_text().strip() == out.strip()
    header_fields = lines[0].split(",")
    assert len(lines[1].split(",")) == len(header_fields)


@pytest.mark.parametrize("command", ["filter", "field"])
@pytest.mark.parametrize("shift", [1.0, 500.0])
def test_no_motion_warning_agrees_with_labels(tmp_path, capsys, command, shift):
    # sources collapsed onto one point pin no rotation, so RANSAC finds no
    # motion; EM then refines from the identity motion, which explains
    # y = x + 1 but not a 500-unit scatter
    n = 200
    x = np.tile([200.0, 100.0], (n, 1))
    ang = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=n)
    y = x + shift * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    scene = tmp_path / "line.csv"
    labels_csv = tmp_path / "labels.csv"
    save_matches(scene, MatchSet.from_points(x, y))
    argv = [command, "--input", str(scene), "--seed", "0"]
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


@pytest.mark.parametrize("seed, warns", [(0, True), (1, False)])
def test_zero_inlier_run_warns_although_ransac_kept_motions(tmp_path, capsys, seed, warns):
    # at 95% outliers RANSAC keeps about 100 random hypotheses on seed 0,
    # yet EM labels no match an inlier; seed 1 keeps 71 inliers
    m, _ = synth_generate(SynthSpec(n=1000, outlier_ratio=0.95, seed=seed))
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
    [["--bounds", "nan,0,10,10"], ["--bounds", "0,0,10"], ["--grid-step", "0"]],
    ids=["nan-bounds", "bounds-count", "zero-step"],
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


@pytest.mark.parametrize("dim,cfg_text,H", [(2, "H = 12\nN_neighbor = 24\nseed = 4\n", 15.0),
                                            (3, "r = 9\nseed = 4\n", 3.0)],
                         ids=["2d", "3d"])
def test_cli_labels_equal_library_run(tmp_path, capsys, dim, cfg_text, H):
    scene = _synth(tmp_path / "scene.csv", capsys, dim=dim)
    cfgfile = tmp_path / "f.cfg"
    cfgfile.write_text(cfg_text)
    cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
    run_ok(["filter", "--input", str(scene), "--output", str(cli_out),
            "--config", str(cfgfile), "--H", repr(H)], capsys)
    m, _ = load_matches(scene)
    cfg = Config.for_matches(m, **{**config_overrides_from_file(cfgfile), "H": H})
    labels, _, _ = filter_and_refine(m, cfg)
    save_labels(lib_out, labels)
    assert cli_out.read_bytes() == lib_out.read_bytes()


def test_3d_flag_overrides_keep_the_scale_adaptation(tmp_path, capsys, monkeypatch):
    # precedence: defaults, 3D adaptation, config file, flags; a flag for H
    # leaves the adapted r alone
    scene = _synth(tmp_path / "scene3.csv", capsys, dim=3)
    cfgfile = tmp_path / "f.cfg"
    cfgfile.write_text("seed = 4\nN_neighbor = 30\n")
    calls = _count_stage_calls(monkeypatch)
    run_ok(["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv"),
            "--config", str(cfgfile), "--H", "2.5"], capsys)
    cfg = calls["ransac"][0]
    s = scale_estimate(load_matches(scene)[0])
    assert cfg.H == 2.5
    assert np.isclose(cfg.r, 0.3 * s) and np.isclose(cfg.a, 20.0 / s**2)
    assert cfg.N_neighbor == 30 and cfg.seed == 4
    # a bad file value exits 2 even when a flag overrides it
    cfgfile.write_text("r = -1\n")
    for flags in ([], ["--r", "5"]):
        rc = main(["filter", "--input", str(scene), "--output", str(tmp_path / "bad.csv"),
                   "--config", str(cfgfile)] + flags)
        assert rc == 2
        assert "r must be positive" in capsys.readouterr().err
    assert len(calls["ransac"]) == 1 and not (tmp_path / "bad.csv").exists()
