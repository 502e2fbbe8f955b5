"""Golden outputs: small ``--deterministic`` runs of every subcommand and
one invocation of each sampling benchmark workload, compared with the
fixtures under ``tests/golden/``, and the ``--help`` text of the top
level and of every subcommand.

Integers, booleans and strings must match exactly and floats to a
relative error of 1e-12, so a different numpy or libm cannot fail the
test while any change in what the program computes does.  Help texts
must match byte for byte at 80 columns.  A change that
is meant to alter outputs regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says why they moved.
"""

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path

import pytest

from rfim1d.cli import COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12
HOT = "--alpha 0.55 --j1 1.5 --theta 1.0 --realizations 3 --seed 11"

CASES = {
    "enumerate-contours": "enumerate-contours --mmax 4",
    "certify-c0": "certify-c0 --mmax 4",
    "verify-energy": "verify-energy --n 8",
    "roundtrip-test": "roundtrip-test --n 10",
    "verify-disorder": "verify-disorder",
    "simulate-plus": f"simulate {HOT} --beta 0.2 --size 64 --sweeps 40 --burnin 10 --boundary +",
    "simulate-minus": f"simulate {HOT} --beta 0.2 --size 64 --sweeps 40 --burnin 10 --boundary -",
    "sweep": f"sweep {HOT} --beta 0.2,0.4 --size 32 --sweeps 30 --burnin 5",
    # one invocation of each sampling workload in perfbench/workloads.py, at benchmark seed 42
    "sample-hot": "simulate --alpha 0.55 --j1 1.5 --beta 0.2 --theta 1.0 --size 512"
                  " --sweeps 3 --burnin 2 --realizations 5 --seed 4200",
    "sample-cold": "simulate --alpha 0.55 --beta 5 --theta 0.05 --j1 10 --size 4096"
                   " --sweeps 40 --burnin 10 --realizations 1 --seed 4200",
    # rare accepts (acceptance about 0.016): no workload runs this regime
    "simulate-rare": "simulate --alpha 0.55 --j1 1.5 --theta 1.0 --beta 0.4 --size 512"
                     " --sweeps 20 --burnin 5 --realizations 2 --seed 11",
}
# the JSON of verify-energy repeats its CSV rows at three times the size
FILES = [(name, fmt) for name in CASES for fmt in ("csv", "json")
         if (name, fmt) != ("verify-energy", "json")]


def _run(name: str, fmt: str, out: Path) -> int:
    return main(CASES[name].split() + ["--format", fmt, "--deterministic", "--out", str(out)])


def _help(command: str) -> str:
    """``rfim1d [command] --help`` as printed; its width follows ``COLUMNS``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(([command] if command else []) + ["--help"])
        except SystemExit as exc:
            assert exc.code == 0
    return out.getvalue()


HELP = {"help": ""} | {f"help-{name}": name for name in COMMANDS}


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(text: str, fmt: str):
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    assert lines[1].startswith("# ")
    return {"schema": lines[0], "meta": json.loads(lines[1][2:]),
            "rows": [[_cell(cell) for cell in row] for row in csv.reader(lines[2:])]}


def _assert_same(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name,fmt", FILES)
def test_matches_golden(tmp_path, capsys, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    assert _run(name, fmt, out) == 0
    capsys.readouterr()
    want = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    _assert_same(_parse(out.read_text(encoding="utf-8"), fmt), _parse(want, fmt), f"{name}.{fmt}")


@pytest.mark.parametrize("name", HELP)
def test_help_matches_golden(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert _help(HELP[name]) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_comparison_can_fail():
    want = _parse((GOLDEN / "simulate-plus.csv").read_text(encoding="utf-8"), "csv")
    got = json.loads(json.dumps(want))
    got["rows"][1][1] *= 1.0 + 1e-11  # the first estimate
    with pytest.raises(AssertionError, match="rows"):
        _assert_same(got, want, "simulate-plus.csv")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, fmt in FILES:
        _run(name, fmt, GOLDEN / f"{name}.{fmt}")
    os.environ["COLUMNS"] = "80"
    for name, command in HELP.items():
        (GOLDEN / f"{name}.txt").write_text(_help(command), encoding="utf-8")
