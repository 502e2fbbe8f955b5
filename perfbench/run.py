"""rfim1d benchmark: run one workload through the CLI, check it, print metrics.

    python3 perfbench/run.py --workload {sample-hot,sample-cold,verify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs to be installed
beyond numpy and scipy, and this script uses only the standard library.
One client, closed loop: every CLI invocation starts a fresh interpreter
in a fresh working directory (so no cache survives between invocations),
with ``src`` on the path and the BLAS thread pools pinned to one thread.

A pass is the workload's fixed list of invocations. Passes repeat until
``--seconds`` would be exceeded (at least one). Each measured time is
scaled to a fixed machine speed by a reference loop timed in the same
process at the same moments (``reference.py``). With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics:
``wall_s`` (the sum over the pass's invocations of the median, over
passes, of the time from import-ready to exit of ``main``), ``setup_s``
(median time from launching an interpreter until ``rfim1d.cli`` is
imported) and ``peak_rss_mb`` (largest peak RSS of any launched process).
The unscaled times are printed above the JSON line. With ``--trace 1``
untraced and traced passes alternate and the JSON holds the per-layer
metrics of the traced passes (medians) plus the tracing overhead; the
spans are written to
``.bench_run/trace-<workload>-seed<N>.json``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import reference
import tracing
from workloads import WORKLOADS, Workload, invocation_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
SETUP_LAUNCHES = 5
HARD_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Pass:
    wall_s: float = 0.0  # unscaled
    walls: List[float] = field(default_factory=list)  # scaled, one per invocation
    setup_s: List[float] = field(default_factory=list)  # scaled
    raw_setup_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    spans: List[list] = field(default_factory=list)  # one span list per process
    absent: List[str] = field(default_factory=list)


class Launcher:
    """Starts each CLI invocation in a fresh interpreter and working directory."""

    def __init__(self, rundir: Path, deadline: float):
        self.rundir = rundir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{var: "1" for var in BLAS_THREAD_VARS})

    def launch(self, mode: str, cli_args: List[str]) -> dict:
        """Run one invocation; return its sidecar record plus rc, launch time, output."""
        self.count += 1
        work = self.rundir / f"inv{self.count}"
        work.mkdir()
        sidecar = work / "launch.json"
        cmd = [sys.executable, str(LAUNCH), str(sidecar), str(self.count), mode, *cli_args]
        launched = time.monotonic()
        with open(work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                rc: Optional[int] = proc.wait(timeout=max(1.0, self.deadline - launched))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
        try:
            record = json.loads(sidecar.read_text())
        except (OSError, ValueError):  # never written, or cut short by the timeout
            record = {}
        record.update(rc=rc, launched=launched,
                      output=(work / "out.csv").read_text() if (work / "out.csv").exists() else "",
                      stderr=(work / "stderr.txt").read_text(errors="replace")[-2000:])
        shutil.rmtree(work)
        return record


def run_pass(launcher: Launcher, workload: Workload, seed: int, mode: str) -> Pass:
    result = Pass()
    for k, (argv, check) in enumerate(workload.invocations):
        rec = launcher.launch(mode, [*argv, "--seed", str(invocation_seed(seed, k)),
                                     "--out", "out.csv"])
        if "ready" in rec:
            result.raw_setup_s.append(rec["ready"] - rec["launched"])
            result.setup_s.append(result.raw_setup_s[-1] * reference.speed_factor(rec["pre"]))
        if "end" in rec:
            result.wall_s += rec["end"] - rec["start"]
            speed = reference.speed_factor(rec["during"] or rec["pre"])
            result.walls.append((rec["end"] - rec["start"]) * speed)
        attempted, failures = check(rec["rc"], rec["output"])
        result.attempted += attempted
        result.failures += [f"{argv[0]}: {f}" for f in failures]
        if failures and rec["rc"] != 0:
            print(f"{argv[0]} stderr:\n{rec['stderr']}", file=sys.stderr)
        result.spans.append(rec.get("spans", []))
        result.absent = rec.get("absent", result.absent)
    return result


def measure(launcher: Launcher, workload: Workload, seed: int, seconds: float,
            modes: List[str]) -> Dict[str, List[Pass]]:
    """Repeat rounds of one pass per mode until the next would pass ``seconds``."""
    passes: Dict[str, List[Pass]] = {mode: [] for mode in modes}
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for mode in modes:
            passes[mode].append(run_pass(launcher, workload, seed, mode))
        now = time.monotonic()
        if now + (now - round_start) > min(start + seconds, launcher.deadline):
            return passes


def scaled_wall(passes: List[Pass], invocations: int) -> Optional[float]:
    """Sum over invocations of the median scaled wall time over complete passes."""
    complete = [p.walls for p in passes if len(p.walls) == invocations]
    return sum(map(statistics.median, zip(*complete))) if complete else None


def environment(setup_env: dict) -> dict:
    env = dict(setup_env)
    env["kernel_backend"] = "numba" if env.get("numba_importable") else "python"
    env["cpu_count"] = os.cpu_count()
    env["affinity"] = len(os.sched_getaffinity(0))
    env["blas_threads"] = {var: "1" for var in BLAS_THREAD_VARS}
    env["commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def _median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def trace_report(workload: Workload, seed: int, env: dict, passes: Dict[str, List[Pass]],
                 untraced_wall: float) -> Dict[str, dict]:
    """Per-layer metrics (medians over traced passes); writes the trace file."""
    per_pass = [tracing.layer_metrics(p.spans) for p in passes["trace"]]
    for metrics, p in zip(per_pass, passes["trace"]):
        metrics["trace.wall_s"] = sum(p.walls)  # scaled, like wall_s
        metrics["trace.coverage"] = metrics.pop("trace.self_sum_s") / p.wall_s
    metrics = _median_metrics(per_pass)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    counts_differ = [k for k in tracing.COUNT_NAMES if len({m[k] for m in per_pass}) > 1]
    if counts_differ:
        print(f"WARNING counts differ between traced passes: {counts_differ}")
    absent = passes["trace"][0].absent
    if absent:
        print(f"absent spans (reported as 0): {absent}")
    trace_file = ROOT / ".bench_run" / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "env": env, "absent": absent,
        "metrics": metrics,
        "span_fields": ["name", "start", "end", "parent", "op", "counts"],
        "passes": [p.spans for p in passes["trace"]]}))
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    return {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rfim1d" / "cli.py").is_file():
        print(f"error: no rfim1d sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + HARD_LIMIT_S
    rundir = ROOT / ".bench_run" / f"{workload.name}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    launcher = Launcher(rundir, deadline)
    try:
        setups = [launcher.launch("setup", []) for _ in range(SETUP_LAUNCHES)]
        broken = [s for s in setups if s["rc"] != 0 or "ready" not in s]
        if broken:
            print(f"error: rfim1d.cli does not import:\n{broken[0]['stderr']}", file=sys.stderr)
            return 1
        env = environment(setups[0]["env"])
        modes = ["run", "trace"] if args.trace else ["run"]
        passes = measure(launcher, workload, args.seed, args.seconds, modes)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    every = [p for mode in modes for p in passes[mode]]
    attempted = sum(p.attempted for p in every)
    failures = [f for p in every for f in p.failures]
    unscaled_wall = statistics.median(p.wall_s for p in passes["run"])
    wall = scaled_wall(passes["run"], len(workload.invocations)) or unscaled_wall
    setup_samples = [(s["ready"] - s["launched"]) * reference.speed_factor(s["pre"])
                     for s in setups] + [x for p in every for x in p.setup_s]
    raw_setup = [s["ready"] - s["launched"] for s in setups] + [
        x for p in every for x in p.raw_setup_s]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for mode in modes:
        print(f"{mode} pass walls (s, unscaled): "
              + " ".join(f"{p.wall_s:.4f}" for p in passes[mode]))
        print(f"{mode} pass walls (s, scaled): "
              + " ".join(f"{sum(p.walls):.4f}" for p in passes[mode]))
    print("invocation walls (s, scaled), one row per pass:")
    for p in passes["run"]:
        print("  " + " ".join(f"{w:.4f}" for w in p.walls))
    print(f"unscaled: wall_s {unscaled_wall:.6g} s  setup_s {statistics.median(raw_setup):.6g} s")
    print("env " + json.dumps(env, sort_keys=True))
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"fail_ratio {len(failures) / attempted:.4g} ({len(failures)}/{attempted} operations)")
    if workload.updates:
        print(f"updates_per_s {workload.updates / wall:.6g} 1/s "
              f"({workload.updates} updates per pass)")

    if args.trace:
        out = trace_report(workload, args.seed, env, passes, wall)
    else:
        out = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    for k, v in out.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
