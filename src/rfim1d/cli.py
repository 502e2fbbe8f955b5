"""Command-line interface: simulate, verify, enumerate, certify, sweep.

A handler parses its options, calls the library and emits the result; the
library checks each value before its work and its message is the error.
Exit codes: 0 success, 1 validation or library error (a capacity limit,
an energy-drift check), 2 a verification suite failed.
Each subcommand takes only the options it reads.  Outputs are
self-describing (those options and the seed embedded), CSV carries
a `# schema=1` header line, JSON is emitted with sorted keys.  With
--deterministic no timestamp is included, so identical command lines
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bounds import TOLERANCE, exhaustive_reports
from .contours import Contour
from .disorder import (ConstrainedEnsemble, check_antisymmetry, check_beta_theta,
                       estimate_Bj_probability, thresholds)
from .enumeration import certify_C0, origin_contour_counts
from .mc import EnergyDriftError, RunConfig, WorkerPoolError, disorder_sweep
from .model import DISTRIBUTIONS, CapacityError, CouplingSpec, Volume
from .triangles import roundtrip_failures

SCHEMA_VERSION = 1

_RUN = {f.name: f.default for f in dataclasses.fields(RunConfig)}

# Every option: its default and its argparse keywords.  The sampling defaults
# are RunConfig's, but the boundary is spelled "+" or "-" and a missing seed
# falls back to RFIM_SEED.
OPTIONS: Dict[str, Tuple[object, dict]] = {
    "alpha": (_RUN["alpha"], {"type": float}),
    "beta": (_RUN["beta"], {"type": str, "help": "inverse temperature"}),
    "theta": (_RUN["theta"], {"type": str, "help": "field strength"}),
    "j1": (_RUN["j1"], {"type": float}),
    "size": (_RUN["size"], {"type": int}),
    "sweeps": (_RUN["sweeps"], {"type": int}),
    "burnin": (_RUN["burnin"], {"type": int}),
    "realizations": (_RUN["realizations"], {"type": int}),
    "boundary": ("+", {"choices": ["+", "-"]}),
    "distribution": (_RUN["distribution"], {"choices": DISTRIBUTIONS}),
    "c": (_RUN["c"], {"type": int}),
    "jobs": (1, {"type": int}),
    "gamma": (0.1, {"type": float}),
    "mmax": (6, {"type": int}),
    "n": (12, {"type": int}),
    "seed": (None, {"type": int}),
    "out": (None, {"type": str}),
    "format": ("csv", {"choices": ["csv", "json"]}),
    "deterministic": (False, {"action": "store_true", "default": None}),
    "config": (None, {"type": str, "help": "JSON file with default option values"}),
}
UNIVERSAL = ("seed", "out", "format", "deterministic", "config")

_SAMPLING = ("alpha", "beta", "theta", "j1", "size", "sweeps", "burnin", "realizations",
             "boundary", "distribution", "c", "jobs")
# the options each handler reads, besides the UNIVERSAL ones
TAKES: Dict[str, Tuple[str, ...]] = {
    "simulate": _SAMPLING,
    "verify-energy": ("alpha", "j1", "n", "c"),
    "verify-disorder": ("alpha", "beta", "theta", "j1"),
    "enumerate-contours": ("c", "mmax"),
    "certify-c0": ("gamma", "mmax", "c"),
    "sweep": _SAMPLING,
    "roundtrip-test": ("n",),
}


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for suite failures
        raise CliError(message)

    def parse_known_args(self, args=None, namespace=None):
        # "--theta -inf" -> "--theta=-inf": argparse would read "-inf" as an option
        joined: List[str] = []
        for arg in sys.argv[1:] if args is None else args:
            flag = joined[-1][2:] if joined and joined[-1][:2] == "--" else ""
            if arg[:1] == "-" and arg[:2] != "--" and "type" in OPTIONS.get(flag, ("", {}))[1]:
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _config_value(key: str, value) -> object:
    """A --config value, converted or checked as the flag's own argument would be."""
    kwargs = OPTIONS[key][1]
    if kwargs.get("action") == "store_true":
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        text = str(value)
        if text in kwargs.get("choices", (text,)):
            try:
                return kwargs.get("type", str)(text)
            except ValueError:
                pass
    raise CliError(f"bad config value for {key}: {value!r}")


def _merge_options(args: argparse.Namespace) -> Dict[str, object]:
    """The options the subcommand takes. Precedence: flags, then --config file, then defaults."""
    command = args.command
    merged = {k: OPTIONS[k][0] for k in TAKES[command] + UNIVERSAL if k != "config"}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_opts = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file: {exc}")
        if not isinstance(file_opts, dict):
            raise CliError(f"config file must hold a JSON object, got {file_opts!r}")
        unknown = set(file_opts) - set(merged)
        if unknown:
            raise CliError(f"unknown config keys for {command}: {sorted(unknown)}")
        merged.update((k, _config_value(k, v)) for k, v in file_opts.items())
    for key in merged:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    if merged["seed"] is None:
        merged["seed"] = int(os.environ.get("RFIM_SEED", "0"))
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


def _emit(opts: Dict[str, object], payload: dict, columns: List[str],
          rows: Iterable[Sequence] = (), text: Iterable[str] = (),
          key: Optional[str] = None) -> None:
    """Write JSON or CSV to --out (stdout when absent) as it is formatted.

    The CSV body is ``rows``, then ``text``: pieces of rows already in CSV form.
    With ``key`` the JSON lists ``rows`` under it, each row as an object
    keyed by ``columns``.
    """
    if key is not None and opts["format"] == "json":
        payload = {**payload, key: [dict(zip(columns, row)) for row in rows]}
    if not opts["deterministic"]:
        payload = dict(payload, timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))
    out = open(opts["out"], "w", encoding="utf-8", newline="") if opts["out"] else sys.stdout
    try:
        if opts["format"] == "json":
            json.dump(payload, out, sort_keys=True, indent=2)
            out.write("\n")
        else:
            meta = {k: v for k, v in sorted(payload.items())
                    if k == "options" or not isinstance(v, (list, dict))}
            out.write(f"# schema={SCHEMA_VERSION}\n# {json.dumps(meta, sort_keys=True)}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
            out.writelines(text)
    finally:
        if out is not sys.stdout:
            out.close()


def _base_payload(command: str, opts: Dict[str, object]) -> dict:
    echo = {k: opts[k] for k in sorted(opts) if k != "out"}
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
    config = _run_config(opts, beta, theta)
    report = disorder_sweep(config, jobs=int(opts["jobs"]))
    payload = _base_payload("simulate", opts)
    payload["report"] = dataclasses.asdict(report)
    columns = ["realization", "estimate", "stderr", "occupancy", "acceptance",
               "violations", "mean_estimate", "mean_stderr", "b_bar", "reference_100"]
    rows = [[r, chain.estimate, chain.stderr, chain.occupancy, chain.acceptance,
             chain.violations, report.estimate, report.stderr, report.b_bar,
             report.reference_100] for r, chain in enumerate(report.chains)]
    _emit(opts, payload, columns, rows)
    return 0


def cmd_sweep(opts: Dict[str, object]) -> int:
    """Disorder-averaged runs over a grid of beta and theta values."""
    betas = _floats(opts["beta"], "beta")
    thetas = _floats(opts["theta"], "theta")
    # every grid point is validated before the first one runs
    configs = [_run_config(opts, beta, theta) for beta in betas for theta in thetas]
    rows = []
    reports = []
    for config in configs:
        report = disorder_sweep(config, jobs=int(opts["jobs"]))
        reports.append(dataclasses.asdict(report))
        rows.append([config.beta, config.theta, report.estimate, report.stderr,
                     report.occupancy, report.b_bar, report.reference_100])
    payload = _base_payload("sweep", opts)
    payload["reports"] = reports
    _emit(opts, payload,
          ["beta", "theta", "estimate", "stderr", "occupancy", "b_bar", "reference_100"],
          rows)
    return 0


def cmd_verify_energy(opts: Dict[str, object]) -> int:
    """One pass over the bound reports.  For CSV each report becomes its line
    as it arrives; the lines are spooled to a temporary file, because the
    header before them carries the counts, so memory does not grow with --n.
    JSON keeps every report."""
    import tempfile

    n, c = int(opts["n"]), int(opts["c"])
    spec = CouplingSpec(alpha=float(opts["alpha"]), j1=float(opts["j1"]))
    as_json = opts["format"] == "json"
    columns = ["alpha", "j1", "C", "N", "instance", "lhs", "rhs", "margin", "pass"]
    # a line as csv.writer writes the row: floats as repr, no field needs
    # quoting, and alpha, j1, C and N open every line
    head = ",".join(map(repr, (spec.alpha, spec.j1, c, n)))
    reports = []
    checks = failures = 0
    worst_margin, worst_instance = math.inf, None
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        for report in exhaustive_reports(spec, n, c):
            margin = report.margin
            passed = margin >= -TOLERANCE
            checks += 1
            failures += not passed
            if margin < worst_margin:
                worst_margin, worst_instance = margin, report.instance
            if as_json:
                reports.append(dict(zip(columns, (spec.alpha, spec.j1, c, n, report.instance,
                                                  report.lhs, report.rhs, margin, int(passed)))))
            else:
                spool.write(f"{head},{report.instance},{report.lhs!r},{report.rhs!r},"
                            f"{margin!r},{int(passed)}\n")
        payload = _base_payload("verify-energy", opts)
        payload["checks"] = checks
        payload["failures"] = failures
        payload["all_pass"] = failures == 0
        payload["worst_margin"] = worst_margin
        payload["worst_instance"] = worst_instance
        if as_json:
            payload["reports"] = reports
        spool.seek(0)
        _emit(opts, payload, columns, text=iter(lambda: spool.read(1 << 16), ""))
    return 0 if failures == 0 else 2


def cmd_verify_disorder(opts: Dict[str, object]) -> int:
    alpha = float(opts["alpha"])
    beta = _one_float(opts["beta"], "beta")
    theta = _one_float(opts["theta"], "theta")
    spec = CouplingSpec(alpha=alpha, j1=float(opts["j1"]))
    # a two-class nested contour on a 10-site volume
    contour = Contour.of([(0, 8), (3, 4)])
    levels = [float(a) for a in thresholds(contour, alpha)]  # checks alpha's Peierls range
    check_beta_theta(beta, theta)
    ens = ConstrainedEnsemble(spec, contour, Volume(0, 9))
    anti_ok = all(check_antisymmetry(ens, theta, beta))
    try:
        estimates = estimate_Bj_probability(ens, theta, beta)
        partition_ok = True
    except AssertionError:
        estimates = []
        partition_ok = False
    instance = "nested-2class-10"
    rows = [[instance, e.j, e.estimate, e.bound, int(e.passed)] for e in estimates]
    payload = _base_payload("verify-disorder", opts)
    payload["instance"] = instance
    payload["antisymmetry"] = anti_ok
    payload["partition"] = partition_ok
    payload["thresholds"] = levels
    _emit(opts, payload, ["instance", "j", "estimate", "bound", "pass"], rows,
          key="estimates")
    # bound comparisons are observational; the suite demands the identities
    return 0 if (anti_ok and partition_ok) else 2


def cmd_enumerate_contours(opts: Dict[str, object]) -> int:
    c = int(opts["c"])
    counts = origin_contour_counts(int(opts["mmax"]), c)
    rows = [[m, contours, shapes] for m, (contours, shapes) in enumerate(counts, 1)]
    payload = _base_payload("enumerate-contours", opts)
    payload["separation_constant"] = c
    _emit(opts, payload, ["m", "contours", "shapes"], rows, key="summary")
    return 0


def cmd_certify_c0(opts: Dict[str, object]) -> int:
    gamma, mmax = float(opts["gamma"]), int(opts["mmax"])
    result = certify_C0(gamma, m_max=mmax, c=int(opts["c"]))
    payload = _base_payload("certify-c0", opts)
    payload["b_star"] = result.b_star
    payload["m_max"] = mmax
    rows = [[m, b, gamma, s, bd, int(ok)] for m, b, s, bd, ok in result.rows]
    _emit(opts, payload, ["m", "b", "gamma", "weight_sum", "bound", "pass"], rows, key="rows")
    if result.b_star is None:
        print("certify-c0: no admissible b* on the grid", file=sys.stderr)
        return 2
    print(f"certify-c0: b* = {result.b_star:g} (gamma={gamma:g}, m<={mmax})",
          file=sys.stderr)
    return 0


def cmd_roundtrip_test(opts: Dict[str, object]) -> int:
    n = int(opts["n"])
    failures, ma1_failures = roundtrip_failures(n)
    ok = failures == 0 and ma1_failures == 0
    payload = _base_payload("roundtrip-test", opts)
    payload["configurations"] = 2**n
    payload["roundtrip_failures"] = failures
    payload["compatibility_failures"] = ma1_failures
    payload["all_pass"] = ok
    _emit(opts, payload,
          ["configurations", "roundtrip_failures", "compatibility_failures", "pass"],
          [[2**n, failures, ma1_failures, int(ok)]])
    return 0 if ok else 2


# plain handlers: the benchmark's tracer wraps them in place
COMMANDS = {
    "simulate": cmd_simulate,
    "verify-energy": cmd_verify_energy,
    "verify-disorder": cmd_verify_disorder,
    "enumerate-contours": cmd_enumerate_contours,
    "certify-c0": cmd_certify_c0,
    "sweep": cmd_sweep,
    "roundtrip-test": cmd_roundtrip_test,
}


def build_parser(commands: Iterable[str] = tuple(COMMANDS)) -> _Parser:
    """The rfim1d parser with a subparser for each of the given commands."""
    parser = _Parser(prog="rfim1d", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in commands:
        # no abbreviations: "--c" must not stand for "--config" where --c is not taken
        p = sub.add_parser(name, allow_abbrev=False)
        for key in TAKES[name] + UNIVERSAL:
            kwargs = OPTIONS[key][1]
            if name == "sweep" and key in ("beta", "theta"):
                kwargs = dict(kwargs, help=kwargs["help"] + " (comma list for sweep)")
            p.add_argument(f"--{key}", **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line argv (sys.argv[1:] when None); returns the exit code.

    When argv starts with a command, only that command's subparser is built;
    anything else (--help, no argument, an unknown command) gets the full
    parser, whose help text and errors list every command.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise CliError("a subcommand is required (see --help)")
        opts = _merge_options(args)
        return COMMANDS[args.command](opts)
    except (CliError, ValueError, OSError, CapacityError, EnergyDriftError,
            WorkerPoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
