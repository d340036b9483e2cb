"""Every ```python block of README.md runs, so an example cannot name a
function the package no longer has, and README's 3D defaults and named
module constants are the ones the code sets."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import matchfield
from matchfield import Config, ransac_run, reweight_fit
from matchfield.core import N_NEIGHBOR, scale_estimate
from matchfield.io_eval import SynthSpec, synth_generate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 2
    # the names the blocks leave open: a small scene's matches x -> y and
    # one scaled rigid motion R, t, mu that RANSAC finds in it
    m, _ = synth_generate(SynthSpec(n=200, outlier_ratio=0.3, seed=5))
    cfg = Config.for_matches(m, seed=5)
    (R, t, mu), _, _ = reweight_fit(m, ransac_run(m, cfg).hypotheses[0].control, cfg)
    scene = {"x": m.x, "y": m.y, "R": R, "t": t, "mu": mu}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), dict(scene))


def test_readme_3d_defaults_are_the_builders():
    # the sentence on 3D defaults names the factors of H and r that
    # Config.for_matches sets, and the 3D neighborhood size
    text = " ".join(README.read_text().split())
    found = re.search(r"\(H = ([\d.]+) s, r = ([\d.]+) s for scale s, (\d+) neighbors\)", text)
    assert found, "README no longer states the 3D defaults"
    h, r, k = float(found[1]), float(found[2]), int(found[3])
    m, _ = synth_generate(SynthSpec(n=200, dim=3, seed=5))
    s = scale_estimate(m)
    cfg = Config.for_matches(m)
    assert np.isclose(cfg.H, h * s) and np.isclose(cfg.r, r * s)
    assert N_NEIGHBOR[3] == k


@pytest.mark.parametrize("name", ["ransac.T_MIN", "ransac.N_REWEIGHT_ITERS", "ransac.RANSAC_P",
                                  "em_refine.P_MIN", "em_refine.THETA",
                                  "em_refine.MAX_EM_ITERS", "core.N_NEIGHBOR"])
def test_readme_states_each_retired_setting_as_its_constant(name):
    # the config-key paragraph names the module constants that took the
    # place of settings, each with the value the code holds
    found = re.search(rf"`matchfield\.{re.escape(name)} = ([^`]+)`", README.read_text())
    assert found, f"README does not state matchfield.{name}"
    module, attr = name.split(".")
    assert ast.literal_eval(found[1]) == getattr(getattr(matchfield, module), attr)
