"""The benchmark's workloads and the checks on their CLI outputs.

A pass is a fixed list of CLI invocations; invocation k of a pass gets
``--seed`` ``invocation_seed(seed, k)``, so the same benchmark seed gives
the same inputs and the chains of a pass have different disorder. Each
invocation writes its
report as CSV (a ``# schema=`` line, a ``# {json}`` metadata line, then
rows); its check returns how many operations it attempted and which
failed. An operation is one disorder realization (chain) in ``simulate``
and one invocation everywhere else. Expected values were measured on the
seed commit; see README.md.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

Check = Callable[[Optional[int], str], Tuple[int, List[str]]]


def parse_report(text: str) -> Tuple[dict, List[Dict[str, str]]]:
    """Split a CLI CSV report into its metadata and its rows."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# schema=") or not lines[1].startswith("# {"):
        raise ValueError("not a CLI CSV report")
    return json.loads(lines[1][2:]), list(csv.DictReader(lines[2:]))


def _single(ok: Callable[[dict, List[Dict[str, str]]], bool], what: str) -> Check:
    """Check of an invocation that is one operation."""
    def check(rc: Optional[int], text: str) -> Tuple[int, List[str]]:
        if rc != 0:
            return 1, [f"exit code {rc}"]
        try:
            meta, rows = parse_report(text)
            passed = ok(meta, rows)
        except (ValueError, KeyError, TypeError) as exc:
            return 1, [f"unreadable report: {exc}"]
        return 1, [] if passed else [f"expected {what}"]
    return check


ENUMERATION_COUNTS = [(1, 1, 1), (2, 14, 4), (3, 92, 15), (4, 7548, 392), (5, 61944, 2729)]
ENERGY_CHECKS = 17907
ROUNDTRIP_CONFIGURATIONS = 2**14

VERIFY_CHECKS: Dict[str, Check] = {
    "certify-c0": _single(lambda meta, rows: meta["b_star"] == 6.0, "b* = 6"),
    "enumerate-contours": _single(
        lambda meta, rows: [(int(r["m"]), int(r["contours"]), int(r["shapes"]))
                            for r in rows] == ENUMERATION_COUNTS,
        f"(m, contours, shapes) = {ENUMERATION_COUNTS}"),
    "verify-energy": _single(
        lambda meta, rows: meta["all_pass"] is True and meta["checks"] == ENERGY_CHECKS,
        f"all_pass over {ENERGY_CHECKS} checks"),
    "roundtrip-test": _single(
        lambda meta, rows: (meta["all_pass"] is True
                            and meta["configurations"] == ROUNDTRIP_CONFIGURATIONS),
        f"all_pass over {ROUNDTRIP_CONFIGURATIONS} configurations"),
    "verify-disorder": _single(
        lambda meta, rows: meta["antisymmetry"] is True and meta["partition"] is True,
        "antisymmetry and partition true"),
}


def sample_check(realizations: int, acceptance: Tuple[float, float]) -> Check:
    """Per-chain check of a ``simulate`` report: every chain is an operation."""
    lo, hi = acceptance

    def problems(row: Optional[Dict[str, str]]) -> List[str]:
        if row is None:
            return ["missing"]
        try:
            violations = int(row["violations"])
            estimate = float(row["estimate"])
            accept = float(row["acceptance"])
        except (KeyError, TypeError, ValueError) as exc:
            return [f"unreadable row: {exc}"]
        found = []
        if violations != 0:
            found.append(f"{violations} violations")
        if not 0.0 <= estimate <= 1.0:
            found.append(f"estimate {estimate} outside [0, 1]")
        if not lo <= accept <= hi:
            found.append(f"acceptance {accept} outside [{lo}, {hi}]")
        return found

    def check(rc: Optional[int], text: str) -> Tuple[int, List[str]]:
        if rc != 0:
            return realizations, [f"exit code {rc}"] * realizations
        try:
            _, rows = parse_report(text)
        except ValueError as exc:
            return realizations, [f"unreadable report: {exc}"] * realizations
        by_index = {row.get("realization"): row for row in rows}
        failures = []
        for r in range(realizations):
            found = problems(by_index.get(str(r)))
            if found:
                failures.append(f"chain {r}: {'; '.join(found)}")
        return realizations, failures
    return check


def invocation_seed(seed: int, k: int) -> int:
    return 100 * seed + k


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Tuple[Tuple[Tuple[str, ...], Check], ...]  # (CLI arguments, check)
    updates: int  # attempted single-site updates per pass (0: no sampler)


def _simulate(name: str, params: str, sweeps: int, burnin: int, chains: int,
              invocations: int, acceptance: Tuple[float, float]) -> Workload:
    """``invocations`` runs of ``simulate`` with ``chains`` chains each. Short
    invocations let the reference loop around each follow the machine's
    speed; many chains average out the cost differences between disorder
    realizations."""
    argv = ("simulate",) + tuple(params.split()) + (
        "--sweeps", str(sweeps), "--burnin", str(burnin), "--realizations", str(chains))
    size = int(argv[argv.index("--size") + 1])
    return Workload(name, ((argv, sample_check(chains, acceptance)),) * invocations,
                    sweeps * size * chains * invocations)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    _simulate(
        "sample-hot",
        "--alpha 0.55 --j1 1.5 --beta 0.2 --theta 1.0 --size 512",
        # three sweeps from the all-plus start: acceptance 0.210 (sd 0.026) over 240 chains
        sweeps=3, burnin=2, chains=5, invocations=14, acceptance=(0.08, 0.40)),
    _simulate(
        "sample-cold",
        "--alpha 0.55 --beta 5 --theta 0.05 --j1 10 --size 4096",
        sweeps=40, burnin=10, chains=1, invocations=2, acceptance=(0.0, 0.0)),
    Workload(
        "verify",
        tuple((argv, VERIFY_CHECKS[argv[0]]) for argv in (
            ("certify-c0", "--gamma", "0.1", "--mmax", "5"),
            ("enumerate-contours", "--mmax", "5"),
            ("verify-energy", "--n", "12"),
            ("roundtrip-test", "--n", "14"),
            ("verify-disorder",))),
        0),
)}
