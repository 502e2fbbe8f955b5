"""Smoke test: the demo scripts and README's Python run against the current library."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["triangle_decomposition_demo", "energy_bounds_demo",
                                  "disorder_functionals_demo", "sampling_demo"])
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out
    if name == "triangle_decomposition_demo":
        assert "roundtrip exact: True" in out
    if name == "sampling_demo":
        assert out.count(" sampled ") == 3


def test_readme_python_runs():
    # the blocks build on each other, so they run in order in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
