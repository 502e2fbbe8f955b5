"""The benchmark's invocations all parse.

``perfbench/run.py`` appends ``--seed N --out out.csv`` to every
invocation in ``perfbench/workloads.py``; an option a subcommand stops
taking would turn each of those operations into an exit code 1. This test
reads the workload table and parses every invocation as the benchmark
launches it; it runs none of them. Each is a well-formed line, which the
CLI reads from its option table without argparse, as argparse would.
"""

import importlib.util
import sys
from pathlib import Path

from rfim1d import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves its annotations there
    spec.loader.exec_module(module)
    return module


def test_every_invocation_parses():
    invocations = {argv for workload in _workloads().WORKLOADS.values()
                   for argv, _check in workload.invocations}
    assert {argv[0] for argv in invocations} == set(cli.COMMANDS) - {"sweep"}
    for argv in invocations:
        line = [*argv, "--seed", "4200", "--out", "out.csv"]
        flags = cli.read_flags(line)
        assert flags is not None, line
        assert (flags["command"], flags["seed"], flags["out"]) == (argv[0], 4200, "out.csv")
        args = vars(cli.build_parser().parse_args(line))
        assert flags == {k: v for k, v in args.items() if v is not None}
