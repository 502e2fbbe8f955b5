import argparse
import csv
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rfim1d
from oracles import materialized_bound_rows
from rfim1d import (ConstrainedEnsemble, CouplingSpec, bounds, cli, disorder, enumeration,
                    enumerate_origin_contours)
from rfim1d import mc as mc_module
from rfim1d import triangles
from rfim1d.cli import main
from test_golden import CASES as GOLDEN_CASES
from test_golden import _cell


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(fn):
    """fn() and the peak bytes that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the first work of each subcommand: inside the library, behind the checks it makes
WORK = ((mc_module, "_stream_words"), (bounds, "enumerate_spins"), (bounds, "energy"),
        (bounds, "families"), (enumeration, "contour_shapes"),
        (enumeration, "_shape_aggregates"), (disorder, "enumerate_spins"),
        (triangles, "families"))


def forbid_work(monkeypatch, what):
    """Make the first work of every subcommand fail."""
    def no_work(*args, **kwargs):
        raise AssertionError(f"work started with {what}")

    for module, name in WORK:
        monkeypatch.setattr(module, name, no_work)


def argparse_flags(argv):
    """The flags argparse reads from argv, without the absent ones."""
    return {k: v for k, v in vars(cli.build_parser().parse_args(argv)).items() if v is not None}


def typed(flags):
    """Flag values with their types: 8 and 8.0 differ, nan equals nan."""
    return {k: repr(v) for k, v in flags.items()}


def _flag_worded(index, argv, message):
    return pytest.param(argv, message, id=f"argv{index}---{message}")


class TestParsing:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "roundtrip-test", "--frobnicate")
        assert code == 1

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "verify-energy", "--alpha", "0.7", "--n", "4")
        assert code == 1
        assert "alpha" in err

    # the commands that read --c, each with arguments small enough to run
    READS_C = {
        "simulate": ("--size", "8", "--sweeps", "20", "--burnin", "2", "--realizations", "1"),
        "sweep": ("--size", "8", "--sweeps", "20", "--burnin", "2", "--realizations", "1"),
        "verify-energy": ("--n", "4"),
        "enumerate-contours": ("--mmax", "3"),
        "certify-c0": ("--mmax", "3"),
    }
    @pytest.mark.parametrize("command", list(READS_C))
    @pytest.mark.parametrize("c", ["0", "-2"])
    def test_separation_constant_below_one(self, capsys, monkeypatch, command, c):
        forbid_work(monkeypatch, f"{command} --c {c}")
        code, out, err = run_cli(capsys, command, "--c", c, *self.READS_C[command],
                                 "--deterministic")
        assert (code, out, err) == (1, "", f"error: separation constant c must be >= 1, got {c}\n")

    def test_bad_numeric_value(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--beta", "abc", "--size", "4",
                               "--sweeps", "20", "--burnin", "2", "--realizations", "1")
        assert code == 1

    @pytest.mark.parametrize("command, beta, theta", [
        ("simulate", "-0.5", "1000"),
        ("simulate", "nan", "0.05"),
        ("simulate", "0.2", "nan"),
        ("simulate", "0.2", "-1"),  # a negative field strength
        ("sweep", "0.2,-1", "0.05"),  # a later grid point stops the run before the first
        ("sweep", "0.2", "0.05,nan"),
    ])
    def test_meaningless_temperature_rejected_before_work(self, capsys, monkeypatch,
                                                          command, beta, theta):
        forbid_work(monkeypatch, f"{command} --beta {beta} --theta {theta}")
        code, out, err = run_cli(capsys, command, "--beta", beta, "--theta", theta,
                                 "--size", "16", "--sweeps", "3", "--burnin", "1",
                                 "--realizations", "1")
        assert code == 1
        assert err.startswith("error: ") and ("beta" in err or "theta" in err)
        assert out == ""

    @pytest.mark.parametrize("theta", ["inf", "-inf"])
    def test_infinite_theta_rejected(self, capsys, monkeypatch, theta):
        # every flip energy would be +-inf and the drift check cannot flag it
        forbid_work(monkeypatch, f"--theta {theta}")
        # "--theta=-inf": argparse reads a bare "-inf" as an option, not a number
        code, out, err = run_cli(capsys, "simulate", f"--theta={theta}", "--size", "16",
                                 "--sweeps", "3", "--burnin", "1", "--realizations", "1")
        assert code == 1
        assert err == f"error: theta must be finite, got {theta}\n"
        assert out == ""

    @pytest.mark.parametrize("flag, value, message", [
        ("--theta", "-inf", "theta must be finite, got -inf"),
        ("--beta", "-inf", "beta must be >= 0, got -inf"),
        ("--beta", "-1e3", "beta must be >= 0, got -1000.0"),
    ])
    def test_dash_value_reaches_checks(self, capsys, monkeypatch, flag, value, message):
        # a value that starts with "-" is the flag's argument, not an option
        forbid_work(monkeypatch, f"{flag} {value}")
        code, out, err = run_cli(capsys, "simulate", flag, value, "--size", "16",
                                 "--sweeps", "3", "--burnin", "1", "--realizations", "1")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_huge_sweep_count_rejected_before_work(self, capsys, monkeypatch, command):
        # a chain's records and draw counters are bounded before any field is drawn
        forbid_work(monkeypatch, "--sweeps 100000000000000")
        code, out, err = run_cli(capsys, command, "--size", "16", "--sweeps",
                                 "100000000000000", "--burnin", "1", "--realizations", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: sweeps must be <= 100000000 and 2 * size * sweeps")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_huge_realization_count_rejected_before_work(self, capsys, monkeypatch, command):
        # the seed words of all realizations are drawn up front, so their count is bounded
        huge = "99999999999999999999999"
        forbid_work(monkeypatch, f"--realizations {huge}")
        code, out, err = run_cli(capsys, command, "--size", "8", "--sweeps", "3",
                                 "--burnin", "1", "--realizations", huge)
        assert (code, out) == (1, "")
        assert err == f"error: realizations must be in [1, 1000000], got {huge}\n"

    RUN = ("--size", "16", "--sweeps", "3", "--burnin", "1", "--realizations", "1")
    PEIERLS = "alpha={} outside [0, 0.584963); the Peierls constant is not positive there"

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--j1", "nan", *RUN), "j1 must be finite and exceed 1, got nan"),
        (("simulate", "--j1", "inf", *RUN), "j1 must be finite and exceed 1, got inf"),
        (("sweep", "--j1", "1", *RUN), "j1 must be finite and exceed 1, got 1.0"),
        (("verify-energy", "--j1", "nan"), "j1 must be finite and exceed 1, got nan"),
        (("verify-energy", "--j1", "inf"), "j1 must be finite and exceed 1, got inf"),
        (("simulate", "--beta", "inf", "--theta", "20", "--j1", "1.5", "--size", "64",
          "--sweeps", "3", "--burnin", "1", "--realizations", "2"),
         "beta must be finite, got inf"),
        (("sweep", "--beta", "0.2,inf", *RUN), "beta must be finite, got inf"),
        # these ids keep the --flag wording the CLI once gave the message
        _flag_worded(7, ("verify-disorder", "--beta", "nan"),
                     "beta must be positive and finite, got nan"),
        _flag_worded(8, ("verify-disorder", "--beta", "0"),
                     "beta must be positive and finite, got 0.0"),
        _flag_worded(9, ("verify-disorder", "--beta", "-1"),
                     "beta must be positive and finite, got -1.0"),
        _flag_worded(10, ("verify-disorder", "--beta", "inf"),
                     "beta must be positive and finite, got inf"),
        _flag_worded(11, ("verify-disorder", "--theta", "nan"),
                     "theta must be finite, got nan"),
        _flag_worded(12, ("verify-disorder", "--theta", "inf"),
                     "theta must be finite, got inf"),
        _flag_worded(13, ("certify-c0", "--gamma", "nan"),
                     "gamma must be positive and finite, got nan"),
        _flag_worded(14, ("certify-c0", "--gamma", "-inf"),
                     "gamma must be positive and finite, got -inf"),
        (("simulate", "--alpha", "0.7", *RUN), PEIERLS.format(0.7)),
        # -0.1 breaks CouplingSpec's rule first; the id keeps the message it once expected
        pytest.param(("sweep", "--alpha", "-0.1", *RUN), "alpha must lie in [0, 1), got -0.1",
                     id=f"argv16-{PEIERLS.format(-0.1)}"),
        (("verify-energy", "--alpha", "0.6"), PEIERLS.format(0.6)),
        (("verify-disorder", "--alpha", "0.99"), PEIERLS.format(0.99)),
        (("simulate", "--jobs", "0", *RUN), "jobs must be >= 1, got 0"),
        (("simulate", "--jobs", "-3", *RUN), "jobs must be >= 1, got -3"),
        (("sweep", "--jobs", "0", *RUN), "jobs must be >= 1, got 0"),
        (("verify-energy", "--n", "1"),
         "n must lie in 2..14 for exhaustive energy checks, got 1"),
        (("verify-energy", "--n", "15"),
         "n must lie in 2..14 for exhaustive energy checks, got 15"),
        (("roundtrip-test", "--n", "0"),
         "n must lie in 1..16 for the exhaustive roundtrip, got 0"),
        (("roundtrip-test", "--n", "17"),
         "n must lie in 1..16 for the exhaustive roundtrip, got 17"),
    ])
    def test_bad_physics_parameter_rejected_before_work(self, capsys, monkeypatch,
                                                        argv, message):
        forbid_work(monkeypatch, " ".join(argv))
        code, out, err = run_cli(capsys, *argv, "--deterministic")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    # one value per option, none of them a default
    EVERY_FLAG = {"alpha": 0.4, "beta": "0.3", "theta": "0.2", "j1": 2.5, "size": 9,
                  "sweeps": 7, "burnin": 3, "seed": 5, "realizations": 2, "boundary": "-",
                  "c": 4, "gamma": 0.2, "mmax": 3, "n": 5, "out": "o.csv", "format": "json",
                  "jobs": 2, "deterministic": True, "distribution": "gaussian",
                  "config": "c.json"}
    UNIVERSAL = {"seed", "out", "format", "deterministic", "config"}
    SAMPLING = {"alpha", "beta", "theta", "j1", "size", "sweeps", "burnin", "realizations",
                "boundary", "distribution", "c", "jobs"}
    TAKES = {"simulate": SAMPLING, "sweep": SAMPLING,
             "verify-energy": {"alpha", "j1", "n", "c"},
             "verify-disorder": {"alpha", "beta", "theta", "j1"},
             "enumerate-contours": {"c", "mmax"},
             "certify-c0": {"gamma", "mmax", "c"},
             "roundtrip-test": {"n"}}

    @classmethod
    def _argv(cls, keys):
        argv = []
        for key in keys:
            value = cls.EVERY_FLAG[key]
            argv += [f"--{key}"] if value is True else [f"--{key}", str(value)]
        return argv

    def test_option_table_is_complete(self):
        assert set(cli.COMMANDS) == set(self.TAKES)
        assert set(cli.OPTIONS) == set(self.EVERY_FLAG)
        assert sum(len(t | self.UNIVERSAL) for t in self.TAKES.values()) == 73

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_subcommand_parses_every_flag(self, command):
        """Each subcommand parses every option of its set and rejects all others."""
        takes = self.TAKES[command] | self.UNIVERSAL
        argv = [command] + self._argv(sorted(takes))
        want = {k: self.EVERY_FLAG[k] for k in takes} | {"command": command}
        assert vars(cli.build_parser().parse_args(argv)) == want
        assert typed(cli.read_flags(argv)) == typed(want)
        for key in set(self.EVERY_FLAG) - takes:
            with pytest.raises(cli.CliError, match=f"unrecognized arguments: --{key}"):
                cli.build_parser().parse_args([command] + self._argv([key]))
            assert cli.read_flags([command] + self._argv([key])) is None

    # one option of another subcommand's set per subcommand
    FOREIGN = {"simulate": ("--n", "4"), "sweep": ("--mmax", "3"),
               "verify-energy": ("--beta", "2"), "verify-disorder": ("--c", "2"),
               "enumerate-contours": ("--gamma", "0.1"), "certify-c0": ("--n", "4"),
               "roundtrip-test": ("--mmax", "3")}

    @pytest.mark.parametrize("command", list(FOREIGN))
    def test_option_of_another_subcommand_rejected(self, capsys, monkeypatch, command):
        forbid_work(monkeypatch, f"{command} {' '.join(self.FOREIGN[command])}")
        code, out, err = run_cli(capsys, command, *self.FOREIGN[command], "--deterministic")
        assert code == 1
        assert err == f"error: unrecognized arguments: {' '.join(self.FOREIGN[command])}\n"
        assert out == ""

    def test_prefix_is_not_an_abbreviation(self, capsys):
        # "--c" would otherwise read as "--config" where --c is not taken
        code, _, err = run_cli(capsys, "verify-disorder", "--c", "missing.json")
        assert code == 1
        assert err == "error: unrecognized arguments: --c missing.json\n"

    @staticmethod
    def _counting_subparsers(monkeypatch):
        """The names of the subparsers built from now on."""
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        return names

    def test_well_formed_line_builds_no_subparser(self, capsys, monkeypatch):
        names = self._counting_subparsers(monkeypatch)
        code, out, _ = run_cli(capsys, "simulate", "--size", "8", "--sweeps", "3",
                               "--burnin", "1", "--realizations", "1", "--deterministic")
        assert code == 0 and out.startswith("# schema=")
        assert names == []

    def test_error_line_builds_its_command_subparser_alone(self, capsys, monkeypatch):
        names = self._counting_subparsers(monkeypatch)
        code, out, err = run_cli(capsys, "roundtrip-test", "--n", "4", "--frobnicate")
        assert (code, out, err) == (1, "", "error: unrecognized arguments: --frobnicate\n")
        assert names == ["roundtrip-test"]

    def test_well_formed_line_loads_no_argparse(self):
        # a fresh interpreter: this one imported argparse for the tests
        code = ("import os, sys; from rfim1d.cli import main; "
                "assert main(['roundtrip-test', '--n', '4', '--deterministic',"
                " '--out', os.devnull]) == 0; "
                "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
        src = str(Path(rfim1d.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], timeout=120, capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path), text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    # lines the table reads: a repeated flag's last value wins, a value may
    # start with one "-", and "--key=value" reads as "--key value"
    READ = [
        (["simulate", "--size", "8", "--size", "9", "--seed=3", "--seed", "4"],
         {"size": 9, "seed": 4}),
        (["simulate", "--theta", "-inf", "--beta=-1", "--boundary", "-", "--out", "-x",
          "--deterministic", "--deterministic"],
         {"theta": "-inf", "beta": "-1", "boundary": "-", "out": "-x", "deterministic": True}),
        (["certify-c0", "--gamma=0.25", "--format=json", "--out=", "--c", "+5"],
         {"gamma": 0.25, "format": "json", "out": "", "c": 5}),
        (["verify-energy", "--alpha", " 0.3 ", "--n", "1_0"], {"alpha": 0.3, "n": 10}),
        (["roundtrip-test"], {}),
    ]

    @pytest.mark.parametrize("argv, want", READ)
    def test_table_reads_as_argparse_does(self, argv, want):
        want = typed(want | {"command": argv[0]})
        assert typed(cli.read_flags(argv)) == want
        assert typed(argparse_flags(argv)) == want

    # lines the table leaves to argparse
    DECLINED = [
        [], ["--help"], ["bogus"], ["--seed", "3", "simulate"], ["simulate", "-h"],
        ["simulate", "--help"],
        ["simulate", "--format", "xml"], ["simulate", "--boundary", "0"],  # not a choice
        ["simulate", "--size", "1.5"], ["simulate", "--size", "8.0"], ["simulate", "--size=x"],
        ["roundtrip-test", "--mmax", "3"], ["verify-disorder", "--c", "2"],  # foreign
        ["simulate", "--siz", "8"], ["simulate", "--Size", "8"],  # not a flag in full
        ["simulate", "--deterministic=x"], ["simulate", "--deterministic="],
        ["simulate", "--out", "--size"], ["simulate", "--out=--x"], ["simulate", "--out", "--"],
        ["simulate", "--size"], ["simulate", "8"], ["simulate", "--size", "8", "-1"],
        ["simulate", "--"], ["simulate", "-s", "8"], ["simulate", "--=8"],
    ]

    @pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
    def test_table_declines(self, argv):
        assert cli.read_flags(argv) is None

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_command_help_from_its_subparser_alone(self, capsys, monkeypatch, command):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        want = capsys.readouterr().out
        names = self._counting_subparsers(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == want
        assert names == [command]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--seed", "3", "simulate"]],
                             ids=["none", "help", "unknown", "flag-first"])
    def test_full_parser_without_a_leading_command(self, capsys, monkeypatch, argv):
        # what the full parser prints: its help, or its error as main reports it
        try:
            args = cli.build_parser().parse_args(argv)
            assert args.command is None
            want = ("", "error: a subcommand is required (see --help)\n")
        except SystemExit:
            want = (capsys.readouterr().out, "")
        except cli.CliError as exc:
            want = ("", f"error: {exc}\n")
        names = self._counting_subparsers(monkeypatch)
        try:
            assert main(argv) == 1
        except SystemExit as exc:
            assert exc.code == 0 and argv == ["--help"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == want
        assert names == list(cli.COMMANDS)


class TestRoundtripCommand:
    def test_small_volume_passes(self, capsys):
        code, out, _ = run_cli(capsys, "roundtrip-test", "--n", "6", "--deterministic")
        assert code == 0
        assert out.startswith("# schema=1\n")
        assert "256" not in out.splitlines()[0]

    def test_json_format_sorted_keys(self, capsys):
        code, out, _ = run_cli(capsys, "roundtrip-test", "--n", "4",
                               "--format", "json", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_lost_triangle_fails(self, capsys, monkeypatch):
        real = triangles.pair_interface_bonds
        monkeypatch.setattr(triangles, "pair_interface_bonds", lambda bonds: real(bonds)[:-1])
        code, out, _ = run_cli(capsys, "roundtrip-test", "--n", "6",
                               "--format", "json", "--deterministic")
        assert code == 2
        assert json.loads(out)["roundtrip_failures"] > 0

    def test_ma1_violation_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(triangles, "satisfies_ma1", lambda family: False)
        code, out, _ = run_cli(capsys, "roundtrip-test", "--n", "6",
                               "--format", "json", "--deterministic")
        assert code == 2
        assert json.loads(out)["compatibility_failures"] == 2**6

    def test_memory_does_not_grow_with_the_code_table(self):
        code, peak = traced_peak(lambda: main(
            ["roundtrip-test", "--n", "16", "--deterministic", "--out", os.devnull]))
        assert code == 0
        # the families of all 65,536 configurations at once took 16.1 MB
        assert peak < 2 * 2**20


class TestVerifyEnergyCommand:
    def test_passes_at_default_j1(self, capsys):
        code, out, _ = run_cli(capsys, "verify-energy", "--alpha", "0.55",
                               "--j1", "10", "--n", "5", "--deterministic")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema=1"
        assert lines[2].split(",")[:4] == ["alpha", "j1", "C", "N"]

    def test_exit_two_on_failed_bound(self, capsys):
        code, out, _ = run_cli(capsys, "verify-energy", "--alpha", "0.55",
                               "--j1", "1.01", "--n", "6", "--deterministic")
        assert code == 2
        assert ",0\n" in out or out.rstrip().endswith(",0")

    def test_worst_check_names_a_failing_row(self, capsys):
        # the spec of test_bounds' failing case
        code, out, _ = run_cli(capsys, "verify-energy", "--alpha", "0.55",
                               "--j1", "1.01", "--n", "6", "--deterministic")
        assert code == 2
        lines = out.splitlines()
        meta = json.loads(lines[1][2:])
        rows = list(csv.DictReader(lines[2:]))
        assert meta["failures"] == sum(row["pass"] == "0" for row in rows) > 0
        worst = [row for row in rows if row["instance"] == meta["worst_instance"]]
        assert len(worst) == 1 and worst[0]["pass"] == "0"
        assert meta["worst_margin"] == min(float(row["margin"]) for row in rows)
        assert meta["worst_margin"] == float(worst[0]["margin"])

    def test_worst_check_reported_when_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-energy", "--n", "5",
                               "--format", "json", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        margins = {r["instance"]: r["margin"] for r in payload["reports"]}
        assert payload["all_pass"] is True
        assert payload["worst_margin"] == min(margins.values()) > 0
        assert margins[payload["worst_instance"]] == payload["worst_margin"]

    def test_rows_match_the_materialized_reports(self, tmp_path):
        out = tmp_path / "energy.csv"
        assert main(["verify-energy", "--n", "12", "--deterministic", "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").split("\n", 3)[3]
        assert rows == materialized_bound_rows(CouplingSpec(alpha=0.55, j1=10.0), 12)

    def test_csv_memory_does_not_grow_with_the_checks(self):
        code, peak = traced_peak(lambda: main(
            ["verify-energy", "--n", "12", "--deterministic", "--out", os.devnull]))
        assert code == 0
        # 17,907 reports, their rows and the CSV text at once took 11.5 MB
        assert peak < 4 * 2**20


class TestVerifyDisorderCommand:
    def test_identities_hold(self, capsys):
        code, out, _ = run_cli(capsys, "verify-disorder", "--alpha", "0.55",
                               "--beta", "2", "--theta", "0.3",
                               "--format", "json", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["antisymmetry"] is True
        assert payload["partition"] is True
        assert [e["j"] for e in payload["estimates"]] == [-1, 0, 1]

    def test_one_ensemble_per_run(self, capsys, monkeypatch):
        calls = []
        original = ConstrainedEnsemble.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ConstrainedEnsemble, "__init__", counting)
        code, _, _ = run_cli(capsys, "verify-disorder", "--deterministic")
        assert code == 0
        assert len(calls) == 1

    def test_two_evaluations_of_f_per_run(self, capsys, monkeypatch):
        # one for the antisymmetry of every level, one for the B_j events
        calls = []
        original = ConstrainedEnsemble.f_values

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ConstrainedEnsemble, "f_values", counting)
        code, _, _ = run_cli(capsys, "verify-disorder", "--deterministic")
        assert code == 0
        assert len(calls) == 2


class TestEnumerationCommands:
    def test_enumerate_counts(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-contours", "--mmax", "2",
                               "--deterministic")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "m,contours,shapes"
        assert rows[1].startswith("1,1,")
        assert rows[2].startswith("2,14,")

    def test_enumerate_counts_match_materialized_contours(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-contours", "--mmax", "4",
                               "--deterministic")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[3:]]
        assert [int(r[1]) for r in rows] == [len(enumerate_origin_contours(m))
                                             for m in range(1, 5)]

    def test_enumerate_cap_checked_before_work(self, capsys, monkeypatch):
        forbid_work(monkeypatch, "--mmax 7")
        code, out, err = run_cli(capsys, "enumerate-contours", "--mmax", "7",
                                 "--deterministic")
        assert code == 1
        assert err.startswith("error: mass 7 exceeds enumeration cap")
        assert out == ""

    @pytest.mark.parametrize("command", ["enumerate-contours", "certify-c0"])
    @pytest.mark.parametrize("mmax, c", [("4", "30"), ("3", "300")])
    def test_search_width_checked_before_work(self, capsys, monkeypatch, command, mmax, c):
        # c * m**3 bounds the gaps the search tries; above 3 * 6**3 it is refused
        forbid_work(monkeypatch, f"{command} --mmax {mmax} --c {c}")
        code, out, err = run_cli(capsys, command, "--mmax", mmax, "--c", c,
                                 "--deterministic")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: c * m**3 = {int(c) * int(mmax)**3} ")

    @pytest.mark.parametrize("command", ["enumerate-contours", "certify-c0"])
    @pytest.mark.parametrize("mmax, c", [("6", "3"), ("1", "648")])
    def test_widest_admitted_searches_run(self, capsys, command, mmax, c):
        code, out, _ = run_cli(capsys, command, "--mmax", mmax, "--c", c, "--deterministic")
        assert code == 0 and out

    def test_certify_reports_b_star(self, capsys):
        code, out, err = run_cli(capsys, "certify-c0", "--gamma", "0.1",
                                 "--mmax", "2", "--deterministic")
        assert code == 0
        assert "b* =" in err

    def test_capacity_error_is_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "certify-c0", "--mmax", "7", "--deterministic")
        assert code == 1
        assert err.startswith("error: mass 7 exceeds enumeration cap")
        assert out == ""


class TestSimulateCommand:
    ARGS = ("simulate", "--alpha", "0.55", "--beta", "0.1", "--theta", "0.1",
            "--size", "8", "--sweeps", "200", "--burnin", "50", "--seed", "7",
            "--realizations", "2", "--format", "json", "--deterministic")

    def test_report_structure(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        report = payload["report"]
        assert report["config"]["seed"] == 7
        assert len(report["chains"]) == 2
        assert 0.0 <= report["estimate"] <= 1.0

    def test_deterministic_outputs_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(out_file))
        assert code == 0
        assert out == ""
        assert json.loads(out_file.read_text())["command"] == "simulate"

    def test_energy_drift_is_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(mc_module, "DRIFT_TOLERANCE", -1.0)
        code, out, err = run_cli(capsys, "simulate", "--size", "100", "--sweeps", "101",
                                 "--burnin", "1", "--realizations", "1", "--deterministic")
        assert code == 1
        assert err.startswith("error: energy drift")
        assert "Traceback" not in err
        assert out == ""

    def test_jobs_in_an_unguarded_script_is_exit_one(self, tmp_path):
        # the spawned workers re-import the script, whose top level starts a pool again
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from rfim1d.cli import main\n"
            "raise SystemExit(main(['simulate', '--jobs', '2', '--size', '16', '--sweeps', '2',"
            " '--burnin', '1', '--realizations', '2', '--out', 'report.csv']))\n")
        src = str(Path(rfim1d.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert done.returncode == 1, done.stderr
        # the workers' tracebacks share stderr and may cut into the error line
        assert done.stderr.count("error: a worker process died") == 1, done.stderr
        assert 'script must make its call under `if __name__ == "__main__":`' in done.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_out_file_and_stdout_are_identical(capsys, tmp_path, name, fmt):
    argv = GOLDEN_CASES[name].split() + ["--format", fmt, "--deterministic"]
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_bytes().decode("utf-8")


# each command whose JSON report lists its CSV rows, and the key of that list
ROW_LISTS = {
    "verify-energy --n 6": "reports",
    "verify-disorder": "estimates",
    "enumerate-contours --mmax 3": "summary",
    "certify-c0 --mmax 3": "rows",
}


@pytest.mark.parametrize("command", ROW_LISTS)
def test_json_rows_equal_csv_rows(capsys, command):
    argv = command.split() + ["--deterministic"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(lines[2:])]
    assert main(argv + ["--format", "json"]) == 0
    listed = json.loads(capsys.readouterr().out)[ROW_LISTS[command]]
    assert rows and rows == listed


def _simulate_rows(payload):
    """simulate's CSV rows from its JSON report: one per realization."""
    rep = payload["report"]
    return [{"realization": r, "estimate": ch["estimate"], "stderr": ch["stderr"],
             "occupancy": ch["occupancy"], "acceptance": ch["acceptance"],
             "violations": ch["violations"], "mean_estimate": rep["estimate"],
             "mean_stderr": rep["stderr"], "b_bar": rep["b_bar"],
             "reference_100": rep["reference_100"]} for r, ch in enumerate(rep["chains"])]


def _sweep_rows(payload):
    """sweep's CSV rows from its JSON reports: one per grid point."""
    return [{"beta": rep["config"]["beta"], "theta": rep["config"]["theta"],
             **{k: rep[k] for k in ("estimate", "stderr", "occupancy", "b_bar", "reference_100")}}
            for rep in payload["reports"]]


@pytest.mark.parametrize("name, rebuild", [("simulate-plus", _simulate_rows),
                                           ("sweep", _sweep_rows)])
def test_json_reports_give_csv_rows(capsys, name, rebuild):
    # simulate and sweep list no rows in JSON; their reports hold every value of one
    argv = GOLDEN_CASES[name].split() + ["--deterministic"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(lines[2:])]
    assert main(argv + ["--format", "json"]) == 0
    assert len(rows) > 1 and rows == rebuild(json.loads(capsys.readouterr().out))


class TestSweepCommand:
    def test_grid_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--beta", "0.1,0.2",
                               "--theta", "0.1", "--size", "8", "--sweeps", "120",
                               "--burnin", "20", "--seed", "3",
                               "--realizations", "1", "--deterministic")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0].startswith("beta,theta,")
        assert len(rows) == 3

    def test_one_point_grid_matches_simulate(self, capsys):
        # both commands build their run configuration from the same options
        args = ("--beta", "0.2", "--theta", "0.3", "--size", "8", "--sweeps", "60",
                "--burnin", "10", "--seed", "5", "--realizations", "2", "--boundary", "-",
                "--distribution", "uniform", "--format", "json", "--deterministic")
        _, sim, _ = run_cli(capsys, "simulate", *args)
        _, grid, _ = run_cli(capsys, "sweep", *args)
        report = json.loads(sim)["report"]
        assert report["config"]["boundary"] == -1
        assert json.loads(grid)["reports"] == [report]


class TestConfiguration:
    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("RFIM_SEED", "99")
        code, out, _ = run_cli(capsys, "simulate", "--beta", "0.1", "--theta", "0.1",
                               "--size", "8", "--sweeps", "120", "--burnin", "20",
                               "--realizations", "1", "--format", "json",
                               "--deterministic")
        assert code == 0
        assert json.loads(out)["report"]["config"]["seed"] == 99

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size": 8, "sweeps": 120, "burnin": 20,
                                   "realizations": 1, "seed": 4, "beta": 0.1,
                                   "theta": 0.1, "format": "json"}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--seed", "12", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["config"]["seed"] == 12  # flag wins
        assert payload["report"]["config"]["size"] == 8   # file beats default

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizzle": 1}))
        code, _, err = run_cli(capsys, "roundtrip-test", "--config", str(cfg))
        assert code == 1
        assert "unknown config keys" in err

    @pytest.mark.parametrize("text", ["3", "[]", '"n"', '{"n": null}', '{"n": 4.5}',
                                      '{"n": true}', '{"n": "six"}', '{"n": [6]}',
                                      '{"format": "xml"}', '{"deterministic": 1}'])
    def test_malformed_config_rejected(self, capsys, monkeypatch, tmp_path, text):
        forbid_work(monkeypatch, f"config {text}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "roundtrip-test", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_config_values_read_as_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "4", "format": "json", "deterministic": True}))
        from_file = run_cli(capsys, "roundtrip-test", "--config", str(cfg))
        from_flags = run_cli(capsys, "roundtrip-test", "--n", "4", "--format", "json",
                             "--deterministic")
        assert from_file[:2] == from_flags[:2]
        assert from_file[0] == 0

    @pytest.mark.parametrize("key", ["mmax", "beta", "c"])
    def test_config_key_of_another_subcommand(self, capsys, monkeypatch, tmp_path, key):
        forbid_work(monkeypatch, f"config key {key}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 3, "seed": 1}))
        code, out, err = run_cli(capsys, "roundtrip-test", "--config", str(cfg))
        assert code == 1
        assert err == f"error: unknown config keys for roundtrip-test: ['{key}']\n"
        assert out == ""


class TestFuzz:
    """Seeded random command lines and config files: ``main`` returns an exit
    code with a message and never raises, and a non-finite physics
    parameter stops it before any work."""

    FLOATS = ["", "nan", "-nan", "inf", "-inf", "+inf", "1e308", "-1e308", "0", "-1",
              "0.3", "0.55", "1.5", "2", "abc", "9" * 40, "0.2,0.3", "1,nan"]
    INTS = ["", "0", "1", "2", "3", "-1", "-7", "9" * 40, "-" + "9" * 40, "1e308", "nan",
            "inf", "1.5", "1,2", "abc"]
    CHOICES = ["", "x", "+-", "unknown", "CSV"]
    JSON_VALUES = [None, True, False, 0, -1, 3, 10**40, 1.5, 1e308, math.nan, math.inf,
                   -math.inf, "", "nan", "inf", "0.2,0.3", "+", "json", "gaussian", [1],
                   {"a": 1}]
    # values with which a command line can reach work
    VALID = {"alpha": 0.3, "beta": "0.5", "theta": "0.2", "j1": 2.0, "size": 8, "sweeps": 3,
             "burnin": 1, "realizations": 1, "c": 3, "jobs": 1, "gamma": 0.2, "mmax": 2,
             "n": 4, "seed": 1, "boundary": "+", "distribution": "gaussian", "format": "json"}
    PHYSICS = ("alpha", "beta", "theta", "j1", "gamma")

    @staticmethod
    def _keys(rng, command, p):
        """Each option of the command with probability p, and now and then a foreign one."""
        keys = [k for k in cli.TAKES[command] + cli.UNIVERSAL if rng.random() < p]
        return keys + (rng.sample(sorted(cli.OPTIONS), 1) if rng.random() < 0.1 else [])

    @classmethod
    def _value(cls, rng, key, tmp_path):
        kwargs = cli.OPTIONS[key][1]
        if key in cls.VALID and rng.random() < 0.75:
            return str(cls.VALID[key])
        if key == "out":
            return rng.choice(["", str(tmp_path / "out.txt")])
        if "choices" in kwargs:
            return rng.choice([*kwargs["choices"], *cls.CHOICES])
        return rng.choice(cls.INTS if kwargs.get("type") is int else cls.FLOATS)

    @classmethod
    def _config(cls, rng, command, path):
        """Write a config file of random keys and JSON values, or a malformed one,
        or none; return the keys and values the file holds."""
        kind = rng.random()
        if kind < 0.2:
            if kind < 0.1:
                path.write_text(rng.choice(["{", "3", "[]", "null", '"n"', "NaN"]))
            return {}
        data = {k: rng.choice([*cls.JSON_VALUES, cls.VALID.get(k, 1)])
                for k in dict.fromkeys(cls._keys(rng, command, 0.3)) if k != "config"}
        path.write_text(json.dumps(data))
        return data

    @staticmethod
    def _non_finite(value) -> bool:
        try:
            return any(not math.isfinite(float(v)) for v in str(value).split(","))
        except ValueError:
            return False

    @classmethod
    def _lines(cls, command, tmp_path):
        """The 100 seeded lines of a command: each argv, its flag values and
        the keys and values of its config file, which is written here."""
        rng = random.Random(f"fuzz {command}")
        for i in range(100):
            argv, flags, config = [command], {}, {}
            for key in dict.fromkeys(cls._keys(rng, command, 0.5)):
                if key == "deterministic":
                    argv.append("--deterministic")
                    continue
                if key == "config":
                    path = tmp_path / f"config-{i}.json"
                    config = cls._config(rng, command, path)
                    value = str(path)
                else:
                    value = flags[key] = cls._value(rng, key, tmp_path)
                argv += [f"--{key}", value]
            yield argv, flags, config

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_random_command_lines(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.delenv("RFIM_SEED", raising=False)
        forbid_work(monkeypatch, "fuzz")
        outcomes = {"work": 0, 1: 0, "non-finite": 0}
        for argv, flags, config in self._lines(command, tmp_path):
            try:
                code = main(argv)
            except AssertionError as exc:
                assert str(exc) == "work started with fuzz", argv
                code = "work"
            err = capsys.readouterr().err
            assert code in ("work", 0, 1, 2), argv
            if code == 1:
                assert err.startswith("error: "), argv
            # a flag's value wins over the config file's
            if any(self._non_finite(flags.get(k, config.get(k))) for k in self.PHYSICS):
                assert code == 1, argv
                outcomes["non-finite"] += 1
            outcomes[code] = outcomes.get(code, 0) + 1
        # the draws reach work, fail validation, and hold non-finite values
        if not set(self.PHYSICS) & set(cli.TAKES[command]):
            del outcomes["non-finite"]
        assert min(outcomes.values()) >= 3, outcomes

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_table_agrees_with_argparse(self, tmp_path, command):
        """Wherever the table reads a line, argparse reads the same values."""
        read = 0
        for argv, _, _ in self._lines(command, tmp_path):
            flags = cli.read_flags(argv)
            if flags is not None:
                assert typed(flags) == typed(argparse_flags(argv)), argv
                read += 1
        # the lines hold both kinds
        assert 10 <= read <= 90, read
