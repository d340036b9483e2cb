"""The package's public names: everything exported resolves, and the
dual-quaternion toolbox is the array kernels plus four checked functions."""

import numpy as np
import pytest

import matchfield
from matchfield import dualquat, ransac


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


def test_sparse_ransac_entry_point_is_gone():
    # every run fits on at most ransac.FIT_ROWS matches through ransac_run
    assert not hasattr(ransac, "ransac_run_sparse")
    assert not hasattr(matchfield, "ransac_run_sparse")
    assert "ransac_run_sparse" not in matchfield.__all__
