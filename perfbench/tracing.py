"""Spans around the public functions of each rfim1d layer.

``install`` runs inside a launched CLI process (see ``launch.py``). It
replaces each target function, in every ``rfim1d`` module namespace that
binds it, with a wrapper that records one span per call: name, start, end,
parent span and operation id, plus counts taken at the same boundary.
Spans stay in memory until the process ends. ``layer_metrics`` turns the
spans of one pass into the per-layer metrics. This module imports nothing
outside the standard library; rfim1d is resolved only by ``install``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PACKAGE = "rfim1d"
CHAIN_SPAN = "mc.metropolis_run"
SHAPES_SPAN = "enumeration.contour_shapes"
CONTOURS_SPAN = "contours.contours"
CLI_SUBCOMMANDS = ("simulate", "certify-c0", "enumerate-contours", "verify-energy",
                   "roundtrip-test", "verify-disorder")

Counter = Callable[[tuple, object], Dict[str, int]]


def _count_chain(args, result) -> Dict[str, int]:
    config = args[0]
    updates = config.sweeps * config.size
    return {"mc.updates": updates, "mc.accepted": round(result.acceptance * updates)}


def _count_triangles(args, result) -> Dict[str, int]:
    return {"contours.contours.triangles": len(args[0])}


def _count_reports(args, n_items) -> Dict[str, int]:
    return {"bounds.reports": n_items}


def _shapes_counter() -> Counter:
    """Shapes found, counted once per distinct argument tuple in a process,
    so calls answered from a cache add nothing."""
    seen = set()

    def count(args, result) -> Dict[str, int]:
        new = args not in seen
        seen.add(args)
        return {"enumeration.shapes": len(result) if new else 0}
    return count


# (span name, defining module, attribute path, counter factory)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[], Counter]]], ...] = (
    ("model.coupling_matrix", "rfim1d.model", "CouplingSpec.coupling_matrix", None),
    ("model.boundary_vector", "rfim1d.model", "CouplingSpec.boundary_vector", None),
    ("model.DisorderField.generate", "rfim1d.model", "DisorderField.generate", None),
    ("model.hamiltonian", "rfim1d.model", "hamiltonian", None),
    (CHAIN_SPAN, "rfim1d.mc", "metropolis_run", lambda: _count_chain),
    ("triangles.spins_to_triangles", "rfim1d.triangles", "spins_to_triangles", None),
    ("triangles.triangles_to_spins", "rfim1d.triangles", "triangles_to_spins", None),
    (CONTOURS_SPAN, "rfim1d.contours", "contours", lambda: _count_triangles),
    (SHAPES_SPAN, "rfim1d.enumeration", "contour_shapes", _shapes_counter),
    ("enumeration.enumerate_origin_contours", "rfim1d.enumeration",
     "enumerate_origin_contours", None),
    ("enumeration.certify_C0", "rfim1d.enumeration", "certify_C0", None),
    ("bounds.exhaustive_reports", "rfim1d.bounds", "exhaustive_reports",
     lambda: _count_reports),
    ("disorder.ConstrainedEnsemble", "rfim1d.disorder", "ConstrainedEnsemble.__init__", None),
    ("disorder.ConstrainedEnsemble.f_values", "rfim1d.disorder",
     "ConstrainedEnsemble.f_values", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS) + tuple(f"cli.{s}" for s in CLI_SUBCOMMANDS)
COUNT_NAMES = ("mc.updates", "mc.accepted", "contours.contours.triangles",
               "enumeration.shapes", "bounds.reports")


RATIOS = ("mc.acceptance", "enumeration.kept_ratio", "trace.coverage")


def unit(metric: str) -> str:
    """Unit of a per-layer metric."""
    if metric in RATIOS:
        return "ratio"
    return "s" if metric.endswith((".s", "_s")) else "count"


class Recorder:
    """In-memory spans of one process: ``[name, start, end, parent, op, counts]``.

    ``parent`` indexes this list (-1 for a root span). The operation id is
    ``"<invocation>.<chains completed>"``: in ``simulate`` every span of
    one disorder realization shares it, elsewhere the invocation is the
    operation.
    """

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.chains_done = 0
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           f"{self.invocation}.{self.chains_done}", None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, counts: Optional[Dict[str, int]]) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = counts
        # a generator abandoned early closes after spans opened later
        self._stack.remove(idx)
        if span[0] == CHAIN_SPAN:
            self.chains_done += 1


def _wrap(rec: Recorder, name: str, fn, count: Optional[Counter]):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            # the body starts at the first next(): the span covers consumption
            idx = rec.open(name)
            n_items = 0
            try:
                for item in fn(*args, **kwargs):
                    n_items += 1
                    yield item
            finally:
                rec.close(idx, count(args, n_items) if count else None)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, None)
            raise
        rec.close(idx, count(args, result) if count else None)
        return result
    return traced


def _rebind(orig, new) -> None:
    """Replace ``orig`` by ``new`` in every loaded rfim1d module namespace."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


def _install_one(rec: Recorder, name: str, module: str, path: str,
                 count: Optional[Counter]) -> None:
    # import_module, not attribute access: the package binds the name
    # ``contours`` to the function, shadowing the submodule
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(_wrap(rec, name, raw.__func__, count)))
    elif inspect.isclass(owner):
        setattr(owner, attr, _wrap(rec, name, raw, count))
    else:
        _rebind(raw, _wrap(rec, name, raw, count))


def _install_cli(rec: Recorder) -> List[str]:
    """Span each subcommand handler, in the dispatch table and module namespaces."""
    try:
        commands = getattr(importlib.import_module("rfim1d.cli"), "COMMANDS", {})
    except ImportError:
        commands = {}
    for sub in CLI_SUBCOMMANDS:
        if sub in commands:
            orig = commands[sub]
            commands[sub] = _wrap(rec, f"cli.{sub}", orig, None)
            _rebind(orig, commands[sub])
    return [f"cli.{s}" for s in CLI_SUBCOMMANDS if s not in commands]


def install(rec: Recorder, targets: Sequence[tuple] = TARGETS) -> List[str]:
    """Wrap every target; return the names of targets that no longer exist."""
    absent = []
    for name, module, path, make_counter in targets:
        try:
            _install_one(rec, name, module, path, make_counter() if make_counter else None)
        except (ImportError, AttributeError):
            absent.append(name)
    return absent + _install_cli(rec)


def layer_metrics(processes: Sequence[Sequence[list]]) -> Dict[str, float]:
    """Per-layer metrics of one pass, from the span lists of its processes.

    Self time is a span's duration minus the durations of its child spans.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    counts = dict.fromkeys(COUNT_NAMES, 0)
    contours_under_shapes = 0
    self_sum = 0.0
    for spans in processes:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op, _counts in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _op, span_counts) in enumerate(spans):
            own = end - start - child_time[i]
            self_sum += own
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            for key, value in (span_counts or {}).items():
                counts[key] += value
            if name == CONTOURS_SPAN:
                while parent >= 0 and spans[parent][0] != SHAPES_SPAN:
                    parent = spans[parent][3]
                contours_under_shapes += parent >= 0
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(counts)
    out["mc.acceptance"] = counts["mc.accepted"] / counts["mc.updates"] if counts["mc.updates"] else 0.0
    out["enumeration.kept_ratio"] = (counts["enumeration.shapes"] / contours_under_shapes
                                     if contours_under_shapes else 0.0)
    out["trace.self_sum_s"] = self_sum
    return out
