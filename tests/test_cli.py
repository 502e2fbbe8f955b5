import json
import os

import pytest

from rfim1d import ConstrainedEnsemble, cli, enumeration, enumerate_origin_contours
from rfim1d import mc as mc_module
from rfim1d import triangles
from rfim1d.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("command", ["simulate", "verify-energy",
                                         "enumerate-contours", "certify-c0"])
    @pytest.mark.parametrize("c", ["0", "-2"])
    def test_separation_constant_below_one(self, capsys, monkeypatch, command, c):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work with --c {c}")

        for name in ("disorder_sweep", "exhaustive_reports", "contour_shapes",
                     "_shape_aggregates", "certify_C0"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run_cli(capsys, command, "--c", c, "--mmax", "3", "--n", "4",
                                 "--size", "8", "--sweeps", "20", "--burnin", "2",
                                 "--realizations", "1", "--deterministic")
        assert code == 1
        assert err.startswith("error: --c must be >= 1")
        assert out == ""

    def test_bad_numeric_value(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--beta", "abc", "--size", "4",
                               "--sweeps", "20", "--burnin", "2", "--realizations", "1")
        assert code == 1

    @pytest.mark.parametrize("command, beta, theta", [
        ("simulate", "-0.5", "1000"),
        ("simulate", "nan", "0.05"),
        ("simulate", "0.2", "nan"),
        ("sweep", "0.2,-1", "0.05"),  # a later grid point stops the run before the first
        ("sweep", "0.2", "0.05,nan"),
    ])
    def test_meaningless_temperature_rejected_before_work(self, capsys, monkeypatch,
                                                          command, beta, theta):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work at beta {beta}, theta {theta}")

        monkeypatch.setattr(cli, "disorder_sweep", no_work)
        code, out, err = run_cli(capsys, command, "--beta", beta, "--theta", theta,
                                 "--size", "16", "--sweeps", "3", "--burnin", "1",
                                 "--realizations", "1")
        assert code == 1
        assert err.startswith("error: ") and ("beta" in err or "theta" in err)
        assert out == ""

    @pytest.mark.parametrize("theta", ["inf", "-inf"])
    def test_infinite_theta_rejected(self, capsys, monkeypatch, theta):
        # every flip energy would be +-inf and the drift check cannot flag it
        def no_work(*args, **kwargs):
            raise AssertionError(f"simulate started work at theta {theta}")

        monkeypatch.setattr(cli, "disorder_sweep", no_work)
        # "--theta=-inf": argparse reads a bare "-inf" as an option, not a number
        code, out, err = run_cli(capsys, "simulate", f"--theta={theta}", "--size", "16",
                                 "--sweeps", "3", "--burnin", "1", "--realizations", "1")
        assert code == 1
        assert err == f"error: theta must be finite, got {theta}\n"
        assert out == ""

    # one value per shared flag, none of them a default
    EVERY_FLAG = {"alpha": 0.4, "beta": "0.3", "theta": "0.2", "j1": 2.5, "size": 9,
                  "sweeps": 7, "burnin": 3, "seed": 5, "realizations": 2, "boundary": "-",
                  "c": 4, "gamma": 0.2, "mmax": 3, "n": 5, "out": "o.csv", "format": "json",
                  "jobs": 2, "deterministic": True, "distribution": "gaussian",
                  "config": "c.json"}

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_subcommand_parses_every_flag(self, command):
        argv = [command]
        for key, value in self.EVERY_FLAG.items():
            argv += [f"--{key}"] if value is True else [f"--{key}", str(value)]
        args = cli.build_parser().parse_args(argv)
        assert vars(args) == dict(self.EVERY_FLAG, command=command)
        assert set(self.EVERY_FLAG) == set(cli.DEFAULTS) | {"config"}


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
        monkeypatch.setattr(cli, "satisfies_ma1", lambda family: False)
        code, out, _ = run_cli(capsys, "roundtrip-test", "--n", "6",
                               "--format", "json", "--deterministic")
        assert code == 2
        assert json.loads(out)["compatibility_failures"] == 2**6


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
        def no_work(*args):
            raise AssertionError("contour_shapes called before the cap check")

        monkeypatch.setattr(enumeration, "contour_shapes", no_work)
        monkeypatch.setattr(cli, "contour_shapes", no_work)
        code, out, err = run_cli(capsys, "enumerate-contours", "--mmax", "7",
                                 "--deterministic")
        assert code == 1
        assert err.startswith("error: mass 7 exceeds enumeration cap")
        assert out == ""

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
