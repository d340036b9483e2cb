"""The package's public names: everything exported resolves, and the
dual-quaternion toolbox is the array kernels plus four checked functions."""

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
     "dq_to_transform", "trans2dq"],
)
def test_removed_dual_quaternion_layers_are_gone(name):
    assert not hasattr(dualquat, name)
    assert not hasattr(matchfield, name)
    assert name not in matchfield.__all__


def test_dual_quaternion_functions_return_plain_arrays():
    dq = matchfield.dq_from_transform(np.eye(2), np.array([2.0, 4.0]))
    assert type(dq) is np.ndarray and dq.shape == (8,)
    assert matchfield.dq_multiply(dq, dq).shape == (8,)
    assert matchfield.dq_blend([(1.0, dq)]).shape == (8,)


def test_neighbor_graph_lives_in_core_and_stays_importable_from_em_refine():
    # RANSAC builds the graph and EM reuses it, so both import it from core
    assert em_refine.build_neighbors is core.build_neighbors is matchfield.build_neighbors
    assert em_refine.NeighborGraph is core.NeighborGraph is matchfield.NeighborGraph


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
