"""Spans and counters around pbtsim's public functions, installed from outside.

The tracer replaces module attributes (and two ``validate`` methods) with
wrappers at the places where callers look them up, so nothing under ``src/``
changes.  A wrapper records only while an operation is active; calls made by
input generation and by the correctness checks pass straight through.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Any, Callable


# layer name -> the (owner, attribute) pairs where its callers look it up;
# owners are dotted paths into the pbtsim package
LAYERS: dict[str, list[tuple[str, str]]] = {
    "spin.build_spin_basis": [("spin", "build_spin_basis"), ("choi", "build_spin_basis"),
                              ("kraus", "build_spin_basis")],
    "resources.make_family": [("resources", "make_family")],
    "resources.to_spin_coefficients": [("resources", "to_spin_coefficients"),
                                       ("choi", "to_spin_coefficients")],
    "resources.load_resource": [("resources", "load_resource")],
    "resources.save_resource": [("resources", "save_resource")],
    "resources.validate": [("resources.FullResource", "validate"),
                           ("resources.ReducedResource", "validate")],
    "resources.reduce_full": [("resources", "reduce_full")],
    "choi.assemble_choi": [("choi", "assemble_choi")],
    "choi.check_choi": [("choi", "check_choi")],
    "kraus.choi_to_kraus": [("kraus", "choi_to_kraus"), ("analysis", "choi_to_kraus")],
    "kraus.protocol_kraus": [("kraus", "protocol_kraus")],
    "kraus.apply_protocol": [("kraus", "apply_protocol")],
    "oracle.build_povm": [("oracle", "build_povm")],
    "oracle.oracle_choi": [("oracle", "oracle_choi")],
    "analysis.diamond_numeric": [("analysis", "diamond_numeric")],
    "analysis.diamond_bounds": [("analysis", "diamond_bounds")],
    "analysis.parameter_choice": [("analysis", "alternate_known_point"),
                                  ("analysis", "alternate_trace_min_a"),
                                  ("analysis", "trace_min_location")],
    "cli.sweep_rows": [("cli", "sweep_rows")],
}

# counter name -> patch points and the amount one call adds; counted calls
# get no span, so their time stays in the caller's self time
COUNTERS: dict[str, tuple[list[tuple[str, str]], Callable[[tuple, Any], float]]] = {
    "choi.g_sum_calls": ([("choi", "g_sum")], lambda args, out: 1),
    "analysis.alternate_xyz_calls": ([("analysis", "alternate_xyz")], lambda args, out: 1),
    "analysis.diamond_numeric_nfev": ([("analysis", "minimize")], lambda args, out: out.nfev),
}

# amounts taken from a layer's call and result, recorded with its span
SPAN_COUNTS: dict[str, Callable[[tuple, Any], dict[str, float]]] = {
    "kraus.protocol_kraus": lambda args, out: {"kraus.protocol_kraus_ops": len(out.ops)},
    "resources.load_resource": lambda args, out: {"resources.load_resource_bytes":
                                                  os.path.getsize(args[0])},
    "resources.save_resource": lambda args, out: {"resources.save_resource_bytes":
                                                  os.path.getsize(args[0])},
}


def _owner(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans (name, start, end, parent, op) and per-operation counts."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[Any, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: Any = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for name, points in LAYERS.items():
            for dotted, attr in points:
                owner = _owner(self.package, dotted)
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for name, (points, amount) in COUNTERS.items():
            for dotted, attr in points:
                owner = _owner(self.package, dotted)
                self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr), amount))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        extra = SPAN_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if extra is not None:
                for key, value in extra(args, out).items():
                    self.counts[self.op][key] += value
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn, amount):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.op is not None:
                self.counts[self.op][name] += amount(args, out)
            return out

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn):
        """Run one operation under a root span named "op"."""
        self.op = op_id
        index = self._open("op")
        try:
            return fn()
        finally:
            self._close(index)
            self.op = None

    # -- summaries ------------------------------------------------------------

    def self_times(self, op_ids) -> dict[str, float]:
        """Total self time (s) per span name over the given operations."""
        wanted = set(op_ids)
        children = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op in wanted:
                totals[name] += (end - start) - children[index]
        return totals

    def inclusive_times(self, op_ids) -> dict[str, float]:
        wanted = set(op_ids)
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if op in wanted:
                totals[name] += end - start
        return totals

    def count_totals(self, op_ids) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for op in op_ids:
            for key, value in self.counts.get(op, {}).items():
                totals[key] += value
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for op, counts in self.counts.items():
                fh.write(json.dumps({"op": op, "counts": dict(counts)}) + "\n")
