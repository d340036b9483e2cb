import re

import numpy as np
import pytest

from matchfield.cli import main
from matchfield.core import MatchSet
from matchfield.io_eval import load_labels, load_matches, save_matches


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


def test_sparse_flag_smoke(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    run_ok(
        ["synth", "--output", str(scene), "--n", "500", "--outlier-ratio", "0.4", "--seed", "5"],
        capsys,
    )
    out = run_ok(
        ["filter", "--input", str(scene), "--output", str(tmp_path / "o.csv"),
         "--sparse", "--n-sparse", "100", "--seed", "5"],
        capsys,
    )
    assert re.search(r"inliers=\d+", out)


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
    # sources on one line pin no rotation, so RANSAC finds no motion; EM
    # then refines from the identity motion, which explains y = x + 1 but
    # not a 500-unit scatter
    n = 200
    x = np.stack([np.linspace(0.0, 400.0, n), np.full(n, 100.0)], axis=1)
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
