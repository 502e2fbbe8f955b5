"""Tests of the benchmark's output checks and span tracing.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import run
import tracing
from workloads import VERIFY_CHECKS, WORKLOADS, sample_check

HERE = Path(__file__).resolve().parent


def report(meta, columns, rows):
    lines = ["# schema=1", "# " + json.dumps(meta), ",".join(columns)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


GOOD_VERIFY = {
    "certify-c0": report({"b_star": 6.0, "m_max": 5}, ["m", "b"], [[1, 1.0]]),
    "enumerate-contours": report(
        {}, ["m", "contours", "shapes"],
        [[1, 1, 1], [2, 14, 4], [3, 92, 15], [4, 7548, 392], [5, 61944, 2729]]),
    "verify-energy": report({"all_pass": True, "checks": 17907, "failures": 0},
                            ["instance"], [["0:prefix1"]]),
    "roundtrip-test": report({"all_pass": True, "configurations": 16384},
                             ["configurations"], [[16384]]),
    "verify-disorder": report({"antisymmetry": True, "partition": True}, ["j"], [[0]]),
}

CORRUPTED_VERIFY = [
    ("certify-c0", GOOD_VERIFY["certify-c0"].replace('"b_star": 6.0', '"b_star": 7.0')),
    ("enumerate-contours", GOOD_VERIFY["enumerate-contours"].replace("7548", "7549")),
    ("enumerate-contours", GOOD_VERIFY["enumerate-contours"].replace("5,61944,2729\n", "")),
    ("verify-energy", GOOD_VERIFY["verify-energy"].replace('"all_pass": true', '"all_pass": false')),
    ("verify-energy", GOOD_VERIFY["verify-energy"].replace("17907", "17906")),
    ("roundtrip-test", GOOD_VERIFY["roundtrip-test"].replace('"all_pass": true',
                                                             '"all_pass": false')),
    ("verify-disorder", GOOD_VERIFY["verify-disorder"].replace('"partition": true',
                                                               '"partition": false')),
    ("verify-disorder", "not a report"),
]

CHAIN_COLUMNS = ["realization", "estimate", "stderr", "occupancy", "acceptance", "violations"]


def chains(*rows):
    return report({"command": "simulate"}, CHAIN_COLUMNS, rows)


GOOD_HOT = chains([0, 0.25, 0.1, 1.0, 0.32, 0], [1, 0.05, 0.05, 1.0, 0.29, 0],
                  [2, 0.1, 0.05, 1.0, 0.31, 0])


@pytest.mark.parametrize("sub", sorted(VERIFY_CHECKS))
def test_verify_check_accepts_seed_output(sub):
    assert VERIFY_CHECKS[sub](0, GOOD_VERIFY[sub]) == (1, [])


@pytest.mark.parametrize("sub,text", CORRUPTED_VERIFY)
def test_verify_check_counts_corrupted_output(sub, text):
    attempted, failures = VERIFY_CHECKS[sub](0, text)
    assert (attempted, len(failures)) == (1, 1)


@pytest.mark.parametrize("sub", sorted(VERIFY_CHECKS))
def test_verify_check_counts_nonzero_exit(sub):
    assert VERIFY_CHECKS[sub](2, GOOD_VERIFY[sub]) == (1, ["exit code 2"])


@pytest.mark.parametrize("text,failed", [
    (GOOD_HOT, 0),
    (GOOD_HOT.replace("0.29,0\n", "0.29,1\n"), 1),       # one violation
    (GOOD_HOT.replace("0.31,0\n", "0.01,0\n"), 1),       # acceptance below its band
    (GOOD_HOT.replace("0.31,0\n", "0.91,0\n"), 1),       # acceptance above its band
    (GOOD_HOT.replace("0,0.25,", "0,1.25,"), 1),         # estimate outside [0, 1]
    (GOOD_HOT.replace("0.29,1", "0.29,0").replace("2,0.1,0.05,1.0,0.31,0\n", ""), 1),
    (GOOD_HOT.replace(",0\n", ",2\n"), 3),
])
def test_sample_check_counts_failed_chains(text, failed):
    attempted, failures = sample_check(3, (0.2, 0.45))(0, text)
    assert (attempted, len(failures)) == (3, failed)


def test_frozen_band_rejects_any_accepted_flip():
    check = sample_check(1, (0.0, 0.0))
    assert check(0, chains([0, 0.0, 0.0, 0.0, 0.0, 0])) == (1, [])
    assert len(check(0, chains([0, 0.0, 0.0, 0.0, 0.0001, 0]))[1]) == 1


def test_sample_check_fails_every_chain_on_crash():
    assert sample_check(3, (0.2, 0.45))(1, "") == (3, ["exit code 1"] * 3)


class FakeLauncher:
    """Hands run_pass canned invocation records instead of starting processes.
    The reference loop reads half its nominal time: the machine runs at
    twice the nominal speed, so scaled times are twice the measured ones."""

    def __init__(self, outputs):
        self.outputs = outputs  # subcommand -> output, or a list used in order
        self.seeds = []

    def launch(self, mode, cli_args):
        self.seeds.append(int(cli_args[cli_args.index("--seed") + 1]))
        out = self.outputs[cli_args[0]]
        return {"rc": 0, "launched": 0.0, "ready": 0.25, "start": 0.5, "end": 1.5,
                "pre": [reference.REFERENCE_S / 2] * 4, "during": [reference.REFERENCE_S / 2] * 9,
                "output": out.pop(0) if isinstance(out, list) else out, "stderr": ""}


def test_run_pass_counts_failures_per_operation():
    outputs = dict(GOOD_VERIFY, **{"certify-c0": CORRUPTED_VERIFY[0][1]})
    p = run.run_pass(FakeLauncher(outputs), WORKLOADS["verify"], 1, "run")
    assert p.attempted == 5
    assert len(p.failures) == 1 and p.failures[0].startswith("certify-c0")
    assert p.wall_s == pytest.approx(5.0)
    assert p.walls == pytest.approx([2.0] * 5)
    assert p.raw_setup_s == [0.25] * 5 and p.setup_s == pytest.approx([0.5] * 5)

    invocations = WORKLOADS["sample-hot"].invocations
    n = len(invocations)
    argv = invocations[0][0]
    m = int(argv[argv.index("--realizations") + 1])
    good = chains(*[[r, 0.1, 0.05, 1.0, 0.3, 0] for r in range(m)])
    bad = chains(*[[r, 0.1, 0.05, 1.0, 0.3, int(r == 1)] for r in range(m)])
    launcher = FakeLauncher({"simulate": [good, bad] + [good] * (n - 2)})
    p = run.run_pass(launcher, WORKLOADS["sample-hot"], 3, "run")
    assert (p.attempted, len(p.failures)) == (n * m, 1)
    assert launcher.seeds == [300 + k for k in range(n)]


def test_scaled_wall_sums_per_invocation_medians():
    passes = [run.Pass(walls=[1.0, 5.0]), run.Pass(walls=[3.0, 4.0]),
              run.Pass(walls=[2.0, 9.0]), run.Pass(walls=[100.0])]  # last one incomplete
    assert run.scaled_wall(passes, 2) == pytest.approx(2.0 + 5.0)
    assert run.scaled_wall(passes[3:], 2) is None


def test_reference_loop_scales_to_nominal_speed():
    times = reference.measure(loops=2)
    assert len(times) == 2 and all(t > 0 for t in times)
    r = reference.REFERENCE_S
    # mean speed of the nine fastest loops; the slowest tenth is dropped
    assert reference.speed_factor([r] * 5 + [r / 2] * 4 + [100 * r]) == pytest.approx(13 / 9)


def test_sampler_times_loops_while_the_program_runs():
    sampler = reference.Sampler()
    sampler.start()
    deadline = time.monotonic() + 3 * reference.PERIOD_S
    while time.monotonic() < deadline:
        sum(range(1000))
    assert len(sampler.stop()) >= 2 and not sampler.is_alive()


def test_missing_targets_are_reported_absent():
    rec = tracing.Recorder(1)
    targets = [("x.gone", "rfim1d_no_such_module", "f", None),
               ("x.attr", "json", "no_such_function", None)]
    assert tracing.install(rec, targets)[:2] == ["x.gone", "x.attr"]


def test_generator_span_covers_consumption():
    rec = tracing.Recorder(1)

    def gen(n):
        yield from range(n)

    wrapped = tracing._wrap(rec, "bounds.exhaustive_reports", gen,
                            tracing._count_reports)
    it = wrapped(3)
    assert rec.spans == []
    assert list(it) == [0, 1, 2]
    (span,) = rec.spans
    assert span[2] is not None and span[5] == {"bounds.reports": 3}


def test_self_time_subtracts_children():
    spans = [["cli.simulate", 0.0, 10.0, -1, "1.0", None],
             ["mc.metropolis_run", 1.0, 9.0, 0, "1.0", None],
             ["contours.contours", 2.0, 5.0, 1, "1.0", {"contours.contours.triangles": 7}]]
    m = tracing.layer_metrics([spans, spans])
    assert m["cli.simulate.self_s"] == pytest.approx(4.0)
    assert m["mc.metropolis_run.self_s"] == pytest.approx(10.0)
    assert m["contours.contours.calls"] == 2
    assert m["contours.contours.triangles"] == 14
    assert m["trace.self_sum_s"] == pytest.approx(20.0)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {"perfbench"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    per_layer = set(tracing.layer_metrics([])) - {"trace.self_sum_s"}
    per_layer |= {"trace.wall_s", "trace.coverage", "trace.untraced_wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])


def traced_counts(tmp_path, cli_args):
    """Per-layer counts of one traced CLI invocation."""
    sidecar = tmp_path / "launch.json"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    rc = subprocess.run([sys.executable, str(HERE / "launch.py"), str(sidecar), "1", "trace",
                         *cli_args, "--out", str(tmp_path / "out.csv")],
                        env=env, timeout=120).returncode
    assert rc == 0
    record = json.loads(sidecar.read_text())
    assert record["absent"] == []
    m = tracing.layer_metrics([record["spans"]])
    return {k: m[k] for k in (*tracing.COUNT_NAMES, *(f"{s}.calls" for s in tracing.SPAN_NAMES))}


def test_traced_counts_repeat_exactly(tmp_path):
    sim = ["simulate", "--alpha", "0.55", "--j1", "1.5", "--beta", "0.2", "--theta", "1.0",
           "--size", "32", "--sweeps", "6", "--burnin", "2", "--realizations", "2", "--seed", "5"]
    first = traced_counts(tmp_path, sim)
    assert first == traced_counts(tmp_path, sim)
    assert first["mc.updates"] == 6 * 32 * 2
    assert first["mc.metropolis_run.calls"] == 2
    assert first["contours.contours.calls"] == first["triangles.spins_to_triangles.calls"] == 8
    assert first["mc.accepted"] > 0

    energy = traced_counts(tmp_path, ["verify-energy", "--n", "4"])
    assert energy["bounds.exhaustive_reports.calls"] == 1
    assert energy["bounds.reports"] > 0 and energy["cli.verify-energy.calls"] == 1
