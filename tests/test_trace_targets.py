"""The benchmark's trace targets all exist in the library.

``perfbench/tracing.py`` records a target it cannot find as absent and
carries on, so deleting or renaming a traced function would silently zero
its per-layer metrics. This test reads the target table and resolves
every entry; it does not install the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rfim1d import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize("target", TRACING_MODULE.TARGETS, ids=lambda t: t[0])
def test_target_resolves(target):
    _name, module, path, _counter = target
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_cli_subcommands_exist():
    assert set(TRACING_MODULE.CLI_SUBCOMMANDS) <= set(cli.COMMANDS)
