"""Every ```python block of README.md runs, so an example cannot name a
function the package no longer has, and README's scale rule, named
module constants and error classes are the ones the code sets."""

import ast
import builtins
import re
from pathlib import Path

import pytest

import matchfield
from matchfield import Config, ransac_run, reweight_fit
from matchfield.core import scale_estimate
from matchfield.io_eval import SynthSpec, synth_generate

from test_api import package_exception_classes

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
    # the scale rule's fractions of H and r, as README's table and its
    # constant state them, are the ones Config.for_matches applies, in 2D
    # and in 3D
    text = README.read_text()
    found = re.search(r"`matchfield\.core\.SCALE_FRACTIONS = ([^`]+)`", text)
    assert found, "README no longer states the scale rule"
    fractions = ast.literal_eval(found[1])
    assert sorted(fractions) == [2, 3]
    for name, col in (("H", 0), ("r", 1)):
        row = re.search(rf"\| `--{name}` \| ([\d.]+) s in 2D, ([\d.]+) s in 3D;", text)
        assert row, f"README's table no longer states the rule for {name}"
        assert [float(row[1]), float(row[2])] == [fractions[2][col], fractions[3][col]]
    for dim, (h, f) in fractions.items():
        m, _ = synth_generate(SynthSpec(n=200, dim=dim, seed=5))
        s = scale_estimate(m)
        cfg = Config.for_matches(m)
        assert (cfg.H, cfg.r) == (h * s, f * s)


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


def test_readme_error_paragraph_names_exactly_the_package_error_classes():
    # the exit-code paragraph names each error class of the package, and no
    # class the package no longer has
    paragraph = next(p for p in README.read_text().split("\n\n") if p.startswith("Exit codes:"))
    named = set(re.findall(r"`(?:matchfield\.)?(\w+Error)`", paragraph))
    assert named - set(dir(builtins)) == set(package_exception_classes())
