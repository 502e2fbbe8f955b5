"""Smoke test: the demo scripts run against the current library.

``sampling_demo.py`` is left out on purpose: it runs Metropolis chains
for about 20 s, and the sampler it drives is covered by ``test_mc.py``.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["triangle_decomposition_demo", "energy_bounds_demo",
                                  "disorder_functionals_demo"])
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out
    if name == "triangle_decomposition_demo":
        assert "roundtrip exact: True" in out
