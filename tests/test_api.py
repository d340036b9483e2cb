"""The package's public names: everything exported resolves, and the
dual-quaternion toolbox is the (..., 8) array kernels alone."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchfield
from matchfield import core, dualquat, em_refine, ransac


def test_every_exported_name_resolves():
    assert len(set(matchfield.__all__)) == len(matchfield.__all__)
    for name in matchfield.__all__:
        assert getattr(matchfield, name) is not None, name


@pytest.mark.parametrize(
    "name",
    ["Quaternion", "UnitDualQuaternion", "ScaledDq", "PLANAR_COLS", "dq4_from8", "dq4_to8",
     "dq4_normalize", "dq4_apply", "dq4_translate_after", "dq4_blend", "dq_normalize",
     "dq_to_transform", "trans2dq", "dq_from_transform", "dq_apply", "dq_multiply",
     "dq_blend", "_unit_dq", "UNIT_TOL", "dq8_to_rt", "dq8_translation", "quat_conj"],
)
def test_removed_dual_quaternion_layers_are_gone(name):
    assert not hasattr(dualquat, name)
    assert not hasattr(matchfield, name)
    assert name not in matchfield.__all__


def test_dual_quaternion_functions_return_plain_arrays():
    dq = dualquat.dq8_from_rt(np.eye(2), np.array([2.0, 4.0]))
    assert type(dq) is np.ndarray and dq.shape == (8,)
    for out in (dualquat.dq8_normalize(dualquat.dq8_mul(dq, dq)),
                dualquat.dq8_blend(np.ones(1), dq[None]),
                dualquat.dq8_translate_after(dq, np.ones(2))):
        assert type(out) is np.ndarray and out.shape == (8,)
    y = dualquat.dq8_apply(dq, 2.0, np.zeros((3, 2)))
    assert type(y) is np.ndarray and y.shape == (3, 2)


def test_neighbor_graph_lives_in_core_and_stays_importable_from_em_refine():
    # RANSAC builds the graph and EM reuses it, so both import it from core
    assert em_refine.build_neighbors is core.build_neighbors is matchfield.build_neighbors
    assert em_refine.NeighborGraph is core.NeighborGraph is matchfield.NeighborGraph


@pytest.mark.parametrize("name", ["RigidTransform", "ORTHONORMAL_TOL"])
def test_the_matrix_motion_type_is_gone(name):
    # a kept RANSAC motion is a dq row and a scale, the layout EM blends
    assert not hasattr(core, name)
    assert not hasattr(ransac, name)
    assert not hasattr(matchfield, name)
    assert name not in matchfield.__all__


def test_sparse_ransac_entry_point_is_gone():
    # every run goes through ransac_run
    assert not hasattr(ransac, "ransac_run_sparse")
    assert not hasattr(matchfield, "ransac_run_sparse")
    assert "ransac_run_sparse" not in matchfield.__all__


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds about 0.6 s to a fresh import; the package uses only
    # scipy.spatial and takes its binomial tail from math.lgamma
    src = str(Path(matchfield.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = ("import sys, matchfield, matchfield.cli; "
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# names the benchmark's tracer still asks for although the package dropped
# them; the tracer skips a missing name, so its per-layer number reads 0
STALE_TRACED_NAMES = {"matchfield.em_refine.dq4_blend", "matchfield.em_refine.dq4_apply",
                      "matchfield.field.dq4_blend", "matchfield.field.dq4_apply",
                      "matchfield.field.dq8_blend", "matchfield.cli.ransac_run",
                      "matchfield.cli.run_em"}


def test_every_traced_layer_is_called_through_its_module(tmp_path, monkeypatch):
    # the benchmark's per-layer split (perfbench/workloads.py install_tracing)
    # replaces module attributes; a layer renamed or called past its module
    # attribute would read 0 there without any error
    from dataclasses import replace

    from matchfield import cli, field, io_eval

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

    class Recorder:
        """What install_tracing asks of the benchmark's span recorder."""

        def __init__(self):
            self.asked, self.wrapped = set(), []

        def wrap(self, module, attr, name, on_result=None, counted_error=None):
            key = f"{module.__name__}.{attr}"
            self.asked.add(key)
            if hasattr(module, attr):
                self.wrapped.append((module, attr, key, on_result))

        def count(self, name, value=1):
            pass

    rec = Recorder()
    workloads.install_tracing(rec)
    calls = {key: [] for _, _, key, _ in rec.wrapped}
    for module, attr, key, on_result in rec.wrapped:
        def traced(*args, _orig=getattr(module, attr), _key=key, _hook=on_result, **kwargs):
            calls[_key].append(args)
            result = _orig(*args, **kwargs)
            # the tracer's counters unpack the arguments and the result
            if _hook is not None:
                _hook(rec, args, kwargs, result)
            return result
        monkeypatch.setattr(module, attr, traced)
    assert rec.asked - set(calls) <= STALE_TRACED_NAMES

    m, gt = io_eval.synth_generate(io_eval.SynthSpec(n=300, outlier_ratio=0.5, seed=5))
    cfg = matchfield.Config.for_matches(m, seed=5)
    labels, state, outcome = em_refine.filter_and_refine(m, cfg)
    grid = field.grid_field(state, labels, m, ((0.0, 0.0), (800.0, 600.0)), 100.0, cfg)
    field.write_field_csv(grid, tmp_path / "field.csv", 2)
    io_eval.save_matches(tmp_path / "scene.csv", m, gt=gt)
    assert cli.main(["filter", "--input", str(tmp_path / "scene.csv"),
                     "--output", str(tmp_path / "labels.csv")]) == 0
    # the run's graph comes from ransac_run through core.build_neighbors, so
    # EM's own build_neighbors runs only when the outcome carries no graph
    # it can read (its traced span reads 0 on the benchmark)
    assert {key for key, args in calls.items() if not args} == {
        "matchfield.em_refine.build_neighbors"}
    em_refine.run_em(m, replace(outcome, graph=None), cfg)
    assert calls["matchfield.em_refine.build_neighbors"]
    # the blend counter unpacks (weights, motions)
    assert all(len(args) == 2 for args in calls["matchfield.em_refine.dq8_blend"])
