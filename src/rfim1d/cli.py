"""Command-line interface: simulate, verify, enumerate, certify, sweep.

Exit codes: 0 success, 1 validation or library error (a capacity limit,
an energy-drift check), 2 a verification suite failed.
Outputs are self-describing (full config and seeds embedded), CSV carries
a `# schema=1` header line, JSON is emitted with sorted keys.  With
--deterministic no timestamp is included, so identical command lines
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from .bounds import BOUND_CSV_COLUMNS, exhaustive_reports
from .contours import Contour
from .disorder import (BJ_CSV_COLUMNS, ConstrainedEnsemble, check_antisymmetry,
                       estimate_Bj_probability, thresholds)
from .enumeration import (DEFAULT_MASS_CAP, ENUM_CSV_COLUMNS, _check_cap,
                          _shape_aggregates, certify_C0, contour_shapes)
from .mc import RUN_CSV_COLUMNS, EnergyDriftError, RunConfig, disorder_sweep
from .model import ALPHA_PEIERLS_MAX, CapacityError, CouplingSpec, Volume
from .triangles import families, family_code, satisfies_ma1

SCHEMA_VERSION = 1

DEFAULTS: Dict[str, object] = {
    "alpha": 0.55,
    "beta": 1.0,
    "theta": 0.05,
    "j1": 10.0,
    "size": 512,
    "sweeps": 10_000,
    "burnin": 1_000,
    "seed": None,
    "realizations": 64,
    "boundary": "+",
    "c": 3,
    "gamma": 0.1,
    "mmax": 6,
    "n": 12,
    "out": None,
    "format": "csv",
    "jobs": 1,
    "deterministic": False,
    "distribution": "bernoulli",
}


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for suite failures
        raise CliError(message)


def _shared_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, built once and shared as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=str, help="inverse temperature (comma list for sweep)")
    p.add_argument("--theta", type=str, help="field strength (comma list for sweep)")
    p.add_argument("--j1", type=float)
    p.add_argument("--size", type=int)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--burnin", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--realizations", type=int)
    p.add_argument("--boundary", choices=["+", "-"])
    p.add_argument("--c", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--mmax", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--out", type=str)
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--jobs", type=int)
    p.add_argument("--deterministic", action="store_true", default=None)
    p.add_argument("--distribution", choices=["bernoulli", "gaussian", "uniform"])
    p.add_argument("--config", type=str, help="JSON file with default option values")
    return p


def _merge_options(args: argparse.Namespace) -> Dict[str, object]:
    """Precedence: flags, then --config file, then built-in defaults."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_opts = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file: {exc}")
        unknown = set(file_opts) - set(DEFAULTS)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_opts)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if merged["seed"] is None:
        merged["seed"] = int(os.environ.get("RFIM_SEED", "0"))
    if int(merged["c"]) < 1:
        raise CliError(f"--c must be >= 1 (separation constant), got {merged['c']}")
    return merged


def _floats(value, name: str) -> List[float]:
    if isinstance(value, (int, float)):
        return [float(value)]
    try:
        return [float(v) for v in str(value).split(",")]
    except ValueError:
        raise CliError(f"bad value for --{name}: {value!r}")


def _one_float(value, name: str) -> float:
    vals = _floats(value, name)
    if len(vals) != 1:
        raise CliError(f"--{name} takes a single value for this command")
    return vals[0]


def _require_peierls_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < ALPHA_PEIERLS_MAX:
        raise CliError(
            f"alpha={alpha} outside [0, {ALPHA_PEIERLS_MAX:.6f}); "
            "the Peierls constant is not positive there"
        )


def _emit(opts: Dict[str, object], payload: dict, columns: List[str],
          rows: List[List]) -> None:
    """Write JSON or CSV to --out (stdout when absent)."""
    if not opts["deterministic"]:
        payload = dict(payload, timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))
    if opts["format"] == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# schema={SCHEMA_VERSION}\n")
        meta = {k: v for k, v in sorted(payload.items())
                if k == "options" or not isinstance(v, (list, dict))}
        buf.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_payload(command: str, opts: Dict[str, object]) -> dict:
    echo = {k: opts[k] for k in sorted(DEFAULTS) if k not in ("out", "config")}
    return {"command": command, "schema": SCHEMA_VERSION, "options": echo}


def _run_config(opts: Dict[str, object], beta: float, theta: float) -> RunConfig:
    return RunConfig(
        alpha=float(opts["alpha"]), beta=beta, theta=theta, j1=float(opts["j1"]),
        size=int(opts["size"]), sweeps=int(opts["sweeps"]), burnin=int(opts["burnin"]),
        seed=int(opts["seed"]), boundary=+1 if opts["boundary"] == "+" else -1,
        realizations=int(opts["realizations"]), distribution=str(opts["distribution"]),
        c=int(opts["c"]))


def cmd_simulate(opts: Dict[str, object]) -> int:
    beta = _one_float(opts["beta"], "beta")
    theta = _one_float(opts["theta"], "theta")
    _require_peierls_alpha(float(opts["alpha"]))
    config = _run_config(opts, beta, theta)
    report = disorder_sweep(config, jobs=int(opts["jobs"]))
    payload = _base_payload("simulate", opts)
    payload["report"] = report.to_dict()
    _emit(opts, payload, RUN_CSV_COLUMNS, report.csv_rows())
    return 0


def cmd_sweep(opts: Dict[str, object]) -> int:
    """Disorder-averaged runs over a grid of beta and theta values."""
    betas = _floats(opts["beta"], "beta")
    thetas = _floats(opts["theta"], "theta")
    _require_peierls_alpha(float(opts["alpha"]))
    # every grid point is validated before the first one runs
    configs = [_run_config(opts, beta, theta) for beta in betas for theta in thetas]
    rows = []
    reports = []
    for config in configs:
        report = disorder_sweep(config, jobs=int(opts["jobs"]))
        reports.append(report.to_dict())
        rows.append([config.beta, config.theta, report.estimate, report.stderr,
                     report.occupancy, report.b_bar, report.reference_100])
    payload = _base_payload("sweep", opts)
    payload["reports"] = reports
    _emit(opts, payload,
          ["beta", "theta", "estimate", "stderr", "occupancy", "b_bar", "reference_100"],
          rows)
    return 0


def cmd_verify_energy(opts: Dict[str, object]) -> int:
    alpha = float(opts["alpha"])
    _require_peierls_alpha(alpha)
    n = int(opts["n"])
    if not 2 <= n <= 14:
        raise CliError("--n must lie in 2..14 for exhaustive energy checks")
    spec = CouplingSpec(alpha=alpha, j1=float(opts["j1"]))
    reports = list(exhaustive_reports(spec, n, int(opts["c"])))
    rows = [r.csv_row() for r in reports]
    all_pass = all(r.passed for r in reports)
    payload = _base_payload("verify-energy", opts)
    payload["checks"] = len(reports)
    payload["failures"] = sum(not r.passed for r in reports)
    payload["all_pass"] = all_pass
    if opts["format"] == "json":
        payload["reports"] = [dict(zip(BOUND_CSV_COLUMNS, row)) for row in rows]
    _emit(opts, payload, BOUND_CSV_COLUMNS, rows)
    return 0 if all_pass else 2


def _reference_disorder_instance():
    """A two-class nested contour on a 10-site volume for disorder checks."""
    vol = Volume(0, 9)
    contour = Contour.of([(0, 8), (3, 4)])
    return vol, contour


def cmd_verify_disorder(opts: Dict[str, object]) -> int:
    alpha = float(opts["alpha"])
    _require_peierls_alpha(alpha)
    beta = _one_float(opts["beta"], "beta")
    theta = _one_float(opts["theta"], "theta")
    spec = CouplingSpec(alpha=alpha, j1=float(opts["j1"]))
    vol, contour = _reference_disorder_instance()
    ens = ConstrainedEnsemble(spec, contour, vol)
    anti_ok = all(check_antisymmetry(ens, j, theta, beta) for j in range(ens.n_levels))
    try:
        estimates = estimate_Bj_probability(ens, theta, beta, exhaustive=True)
        partition_ok = True
    except AssertionError:
        estimates = []
        partition_ok = False
    instance = "nested-2class-10"
    rows = [e.csv_row(instance) for e in estimates]
    payload = _base_payload("verify-disorder", opts)
    payload["instance"] = instance
    payload["antisymmetry"] = anti_ok
    payload["partition"] = partition_ok
    payload["thresholds"] = [float(a) for a in thresholds(contour, alpha)]
    if opts["format"] == "json":
        payload["estimates"] = [dict(zip(BJ_CSV_COLUMNS, row)) for row in rows]
    _emit(opts, payload, BJ_CSV_COLUMNS, rows)
    # bound comparisons are observational; the suite demands the identities
    return 0 if (anti_ok and partition_ok) else 2


def cmd_enumerate_contours(opts: Dict[str, object]) -> int:
    c = int(opts["c"])
    mmax = int(opts["mmax"])
    gamma = float(opts["gamma"])
    _check_cap(mmax, DEFAULT_MASS_CAP)
    rows = []
    summary = []
    for m in range(1, mmax + 1):
        # each shape spanning bonds [0, B] gives B origin contours
        n_contours = sum(_shape_aggregates(m, c).values())
        n_shapes = len(contour_shapes(m, c))
        summary.append({"m": m, "contours": n_contours, "shapes": n_shapes})
        rows.append([m, n_contours, n_shapes])
    payload = _base_payload("enumerate-contours", opts)
    payload["separation_constant"] = c
    payload["gamma"] = gamma
    payload["summary"] = summary
    _emit(opts, payload, ["m", "contours", "shapes"], rows)
    return 0


def cmd_certify_c0(opts: Dict[str, object]) -> int:
    gamma = float(opts["gamma"])
    result = certify_C0(gamma, m_max=int(opts["mmax"]), c=int(opts["c"]))
    payload = _base_payload("certify-c0", opts)
    payload["b_star"] = result.b_star
    payload["m_max"] = result.m_max
    _emit(opts, payload, ENUM_CSV_COLUMNS, result.csv_rows())
    if result.b_star is None:
        print("certify-c0: no admissible b* on the grid", file=sys.stderr)
        return 2
    print(f"certify-c0: b* = {result.b_star:g} (gamma={gamma:g}, m<={result.m_max})",
          file=sys.stderr)
    return 0


def cmd_roundtrip_test(opts: Dict[str, object]) -> int:
    n = int(opts["n"])
    if not 1 <= n <= 16:
        raise CliError("--n must lie in 1..16 for the exhaustive roundtrip")
    vol = Volume.centered(n)
    failures = 0
    ma1_failures = 0
    for code, fam in enumerate(families(vol)):
        if family_code(fam, vol) != code:
            failures += 1
        if not satisfies_ma1(fam):
            ma1_failures += 1
    payload = _base_payload("roundtrip-test", opts)
    payload["configurations"] = 2**n
    payload["roundtrip_failures"] = failures
    payload["compatibility_failures"] = ma1_failures
    payload["all_pass"] = failures == 0 and ma1_failures == 0
    _emit(opts, payload,
          ["configurations", "roundtrip_failures", "compatibility_failures", "pass"],
          [[2**n, failures, ma1_failures, int(failures == 0 and ma1_failures == 0)]])
    return 0 if failures == 0 and ma1_failures == 0 else 2


COMMANDS = {
    "simulate": cmd_simulate,
    "verify-energy": cmd_verify_energy,
    "verify-disorder": cmd_verify_disorder,
    "enumerate-contours": cmd_enumerate_contours,
    "certify-c0": cmd_certify_c0,
    "sweep": cmd_sweep,
    "roundtrip-test": cmd_roundtrip_test,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="rfim1d", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    shared = _shared_flags()
    for name in COMMANDS:
        sub.add_parser(name, parents=[shared])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise CliError("a subcommand is required (see --help)")
        opts = _merge_options(args)
        return COMMANDS[args.command](opts)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, CapacityError, EnergyDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
