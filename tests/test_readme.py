"""Every ```python block of README.md runs, so an example cannot name a
function the package no longer has."""

import re
from pathlib import Path

from matchfield import Config, ransac_run, reweight_fit
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
