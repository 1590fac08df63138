"""Span tracer that wraps fairedge's public functions from outside the package.

Modules import functions by name (``fairedge.fairopt.utility_curve``,
``fairedge.cli.evaluate``, ``fairedge.scenario.load_stream``), so a wrapper on
the defining module alone would miss those calls.  ``install`` therefore
rebinds every attribute of every loaded ``fairedge`` module that refers to a
traced function, and ``uninstall`` puts the originals back.

Spans (name, start, end, parent, scenario) are kept in memory and written out
by ``write_spans`` at the end of a run.  Spans are recorded only while
``recording`` is set, so the correctness gate between timed passes adds none.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
from time import perf_counter

# "module.function" inside the fairedge package.
TARGETS = (
    "cli.main",
    "fairopt.solve_alternating",
    "fairopt.assignment_search",
    "fairopt.allocate_compute_dp",
    "fairopt.lower_bound",
    "fairopt.upper_bound",
    "exitpolicy.utility_curve",
    "exitpolicy.evaluate",
    "link.min_bandwidth_for_deadline",
    "trace.load_stream",
    "scenario.load_scenario",
    "scenario.write_bundle",
)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object] | None] = []
        self.recording = False
        self.scenario: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Counts taken at the same boundaries as the spans.
        self.solves = 0
        self.users_solved = 0
        self.event_layers = 0
        self.events_loaded = 0
        self.bytes_written = 0
        self.dp_inputs: set[tuple] = set()

    # Hooks: "before" runs ahead of the span's start, "after" once it ended.
    def _before_solve(self, args, kwargs):
        self.solves += 1
        self.users_solved += len(_arg(args, kwargs, 0, "scenario").ues)

    def _before_dp(self, args, kwargs):
        # Curve objects live for one solve, so their ids name the user set.
        curves = _arg(args, kwargs, 1, "curves")
        capacity = _arg(args, kwargs, 2, "capacity")
        self.dp_inputs.add((self.solves, capacity, tuple(map(id, curves))))

    def _after_curve(self, args, kwargs, result):
        stream = _arg(args, kwargs, 0, "stream")
        self.event_layers += len(stream.traces) * stream.layer_count

    def _after_load_stream(self, args, kwargs, result):
        self.events_loaded += len(result.traces)

    def _after_write_bundle(self, args, kwargs, result):
        self.bytes_written += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _hooks(self, target: str):
        before = {
            "fairopt.solve_alternating": self._before_solve,
            "fairopt.allocate_compute_dp": self._before_dp,
        }.get(target)
        after = {
            "exitpolicy.utility_curve": self._after_curve,
            "trace.load_stream": self._after_load_stream,
            "scenario.write_bundle": self._after_write_bundle,
        }.get(target)
        return before, after

    def _wrap(self, name: str, fn):
        before, after = self._hooks(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.scenario)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for target in TARGETS:
            module_name, attr = target.split(".")
            original = getattr(importlib.import_module(f"fairedge.{module_name}"), attr)
            wrapper = self._wrap(target, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "fairedge" and not mod_name.startswith("fairedge."):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per traced function: (calls, self time), self = duration - children."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {target: [0, 0.0] for target in TARGETS}
        for index, (name, start, end, _, _) in enumerate(spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write_spans(self, path) -> None:
        """Spans as gzip CSV; times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index,name,start_s,end_s,parent,scenario\n")
            for index, (name, start, end, parent, scenario) in enumerate(self.spans):
                out.write(
                    f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent},{scenario}\n"
                )
