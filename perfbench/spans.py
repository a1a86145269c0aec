"""Spans for the traced run, recorded from outside the program.

Two sources feed one span stack:

- the simulator's own profiler hook: :class:`SpanProfiler` is attached
  with ``Simulation(profiler=...)``, so the phases the program already
  brackets (``des.heap``, ``sched.decision``, ``lock.manager``,
  ``machine.cn``, ``machine.msg``, ``machine.scan``) arrive as spans;
- wrappers that :func:`simulator_wrappers` and :func:`runner_wrappers`
  put around public entry points of each layer (scheduler lifecycle,
  lock table, WTPG, chain ordering, control node, data nodes, workload
  generation, result cache, runner).

Generator entry points are timed per resume segment with the program's
own :func:`repro.obs.profile.profiled`, so a span never stays open while
the simulated process is suspended.  The wrappers must be installed
before a ``Simulation`` is built, because components cache
``env.profile`` when they are constructed.

Every span is kept in memory as (name, start, end, parent, cell) and
written out by :meth:`SpanProfiler.write`.  ``des.heap`` intervals are
leaves and come two per event, so they are summed per cell instead of
being kept one by one; their time is still carved out of the enclosing
span.  A span's self time is its duration minus the part its children
cover; it is summed online per (cell, name, parent name) when the span
closes.
"""

from __future__ import annotations

import array
import contextlib
import functools
import json
import pathlib
import sys
import time
import typing

from repro.obs.profile import SimProfiler, profiled

_clock = time.perf_counter

HEAP = "des.heap"

#: scheduler entry points timed per resume segment
SCHEDULER_METHODS = ("admit", "acquire", "commit", "abort")

#: span name -> layer metric its self time counts towards.  ``sched``
#: resolves per cell to ``core.sched.decision_s`` or, for the modern
#: schedulers, ``schedulers.modern.decision_s``.
LAYER_OF: typing.Dict[str, str] = {
    "sched.decision": "sched",
    **{f"Scheduler.{method}": "sched" for method in SCHEDULER_METHODS},
    "lock.manager": "core.locks.s",
    "LockTable.grant": "core.locks.s",
    "LockTable.release_all": "core.locks.s",
    "WTPG.hypothetical_grant_critical_path": "core.wtpg.hypothetical_s",
    "chain.compute_optimal_order": "core.chain.order_s",
    "machine.cn": "machine.cn_s",
    "ControlNode.consume": "machine.cn_s",
    "machine.msg": "machine.msg_s",
    "ControlNode.send_message": "machine.msg_s",
    "ControlNode.receive_message": "machine.msg_s",
    "machine.scan": "machine.scan_s",
    "DataProcessingNode.submit": "machine.scan_s",
    "Workload.make_transaction": "txn.generate_s",
    "sim.build": "sim.build_s",
    "ResultCache.get": "runner.cache_get_s",
    "ResultCache.put": "runner.cache_put_s",
    "ParallelRunner.run_batch": "runner.batch_s",
}

#: a CN slice taken inside a message send/receive is message cost
_MESSAGE_SPANS = frozenset(
    ("ControlNode.send_message", "ControlNode.receive_message")
)


class SpanProfiler(SimProfiler):
    """A profiler whose phase stack is recorded as spans.

    ``cell`` tags every span opened after it is set.
    """

    enabled = True

    def __init__(self) -> None:
        self.cell = 0
        self.names: typing.List[str] = []
        self._ids: typing.Dict[str, int] = {}
        self.name_ids = array.array("H")
        self.cells = array.array("H")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        #: open spans as [index, name id, seconds covered by children]
        self._stack: typing.List[typing.List[typing.Any]] = []
        #: (cell, name id, parent name id or -1) -> [calls, self seconds]
        self.self_time: typing.Dict[
            typing.Tuple[int, int, int], typing.List[float]
        ] = {}
        #: per cell: seconds covered by spans that have no parent
        self.root_seconds: typing.Dict[int, float] = {}
        #: per cell: [calls, seconds] of des.heap leaves
        self.heap: typing.Dict[int, typing.List[float]] = {}

    def _id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def push(self, phase: str) -> None:
        stack = self._stack
        self.name_ids.append(self._id(phase))
        self.cells.append(self.cell)
        self.parents.append(stack[-1][0] if stack else -1)
        self.ends.append(0.0)
        index = len(self.starts)
        stack.append([index, self.name_ids[index], 0.0])
        self.starts.append(_clock())

    def pop(self) -> None:
        end = _clock()
        index, name_id, covered = self._stack.pop()
        self.ends[index] = end
        duration = end - self.starts[index]
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[1]
        else:
            parent_id = -1
            self.root_seconds[self.cell] = (
                self.root_seconds.get(self.cell, 0.0) + duration
            )
        key = (self.cell, name_id, parent_id)
        entry = self.self_time.get(key)
        if entry is None:
            entry = self.self_time[key] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - covered

    def span(self, phase: str, start: float, end: float) -> None:
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_seconds[self.cell] = (
                self.root_seconds.get(self.cell, 0.0) + duration
            )
        entry = self.heap.get(self.cell)
        if entry is None:
            entry = self.heap[self.cell] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration

    # -- aggregation -------------------------------------------------------

    def layer_seconds(
        self, modern_cells: typing.Collection[int]
    ) -> typing.Dict[str, float]:
        """Self seconds per layer metric, summed over all cells."""
        totals: typing.Dict[str, float] = {}
        message_ids = {self._ids[n] for n in _MESSAGE_SPANS if n in self._ids}
        for (cell, name_id, parent_id), (_calls, seconds) in (
            self.self_time.items()
        ):
            name = self.names[name_id]
            layer = LAYER_OF.get(name, "unmapped")
            if name == "ControlNode.consume" and parent_id in message_ids:
                layer = "machine.msg_s"
            elif layer == "sched":
                layer = (
                    "schedulers.modern.decision_s"
                    if cell in modern_cells
                    else "core.sched.decision_s"
                )
            totals[layer] = totals.get(layer, 0.0) + seconds
        totals[HEAP] = sum(seconds for _calls, seconds in self.heap.values())
        return totals

    def calls(self, name: str) -> int:
        """How many spans named ``name`` closed, over all cells."""
        name_id = self._ids.get(name)
        return sum(
            int(calls)
            for (_cell, key_id, _parent), (calls, _s) in self.self_time.items()
            if key_id == name_id
        )

    def covered_seconds(self, cells: typing.Iterable[int]) -> float:
        """Wall seconds inside some span, over ``cells``."""
        return sum(self.root_seconds.get(cell, 0.0) for cell in cells)

    def write(
        self, path: pathlib.Path, cell_labels: typing.Sequence[str]
    ) -> None:
        """Write the spans: ``<path>.json`` index, ``<path>.bin`` arrays.

        The binary file holds the arrays named in the index, in order,
        in native byte order; ``parent`` is an index into the same
        arrays, -1 for a span with no parent.
        """
        columns = (
            ("name", self.name_ids),
            ("cell", self.cells),
            ("parent", self.parents),
            ("start", self.starts),
            ("end", self.ends),
        )
        with open(path.with_suffix(".bin"), "wb") as handle:
            for _column, values in columns:
                values.tofile(handle)
        index = {
            "count": len(self.starts),
            "byteorder": sys.byteorder,
            "columns": [
                {"name": column, "typecode": values.typecode}
                for column, values in columns
            ],
            "names": self.names,
            "cells": list(cell_labels),
            "heap_leaves": {
                str(cell): {"calls": int(calls), "seconds": seconds}
                for cell, (calls, seconds) in sorted(self.heap.items())
            },
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1))


# -- wrappers ---------------------------------------------------------------


def _timed_call(
    fn: typing.Callable[..., typing.Any], profiler: SpanProfiler, name: str
) -> typing.Callable[..., typing.Any]:
    @functools.wraps(fn)
    def wrapper(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
        profiler.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.pop()

    return wrapper


def _timed_segments(
    fn: typing.Callable[..., typing.Generator],
    profiler: SpanProfiler,
    name: str,
) -> typing.Callable[..., typing.Generator]:
    @functools.wraps(fn)
    def wrapper(*args: typing.Any, **kwargs: typing.Any) -> typing.Generator:
        return profiled(fn(*args, **kwargs), profiler, name)

    return wrapper


def _subclasses(cls: type) -> typing.List[type]:
    """``cls`` and all its subclasses, each once."""
    found = [cls]
    for klass in found:
        found.extend(s for s in klass.__subclasses__() if s not in found)
    return found


@contextlib.contextmanager
def _patched(
    apply: typing.Callable[[typing.Callable[..., None]], None],
) -> typing.Iterator[None]:
    """Run ``apply(patch)``, then restore every patched attribute."""
    undo: typing.List[typing.Tuple[typing.Any, str, typing.Any]] = []

    def patch(owner: typing.Any, attr: str, wrapped: typing.Any) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    try:
        apply(patch)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _wrap_calls(
    patch: typing.Callable[..., None],
    profiler: SpanProfiler,
    owner: type,
    label: str,
    *methods: str,
) -> None:
    for method in methods:
        patch(owner, method, _timed_call(
            owner.__dict__[method], profiler, f"{label}.{method}"
        ))


def simulator_wrappers(
    profiler: SpanProfiler,
) -> typing.ContextManager[None]:
    """Wrap the simulator layers' public entry points for a ``with``."""
    import repro.schedulers.modern  # noqa: F401  (registers subclasses)
    from repro.core import chain
    from repro.core.base import Scheduler
    from repro.core.locks import LockTable
    from repro.core.wtpg import WTPG
    from repro.machine.control_node import ControlNode
    from repro.machine.data_node import DataProcessingNode
    from repro.txn.workload import Workload

    def apply(patch: typing.Callable[..., None]) -> None:
        for cls in _subclasses(Scheduler):
            for method in SCHEDULER_METHODS:
                if method in cls.__dict__:
                    patch(cls, method, _timed_segments(
                        cls.__dict__[method], profiler, f"Scheduler.{method}"
                    ))
        for method in ("consume", "send_message", "receive_message"):
            patch(ControlNode, method, _timed_segments(
                ControlNode.__dict__[method], profiler,
                f"ControlNode.{method}",
            ))
        _wrap_calls(patch, profiler, LockTable, "LockTable",
                    "grant", "release_all")
        _wrap_calls(patch, profiler, WTPG, "WTPG",
                    "hypothetical_grant_critical_path")
        _wrap_calls(patch, profiler, DataProcessingNode,
                    "DataProcessingNode", "submit")
        for cls in _subclasses(Workload):
            if "make_transaction" in cls.__dict__:
                _wrap_calls(patch, profiler, cls, "Workload",
                            "make_transaction")
        # GOW imports compute_optimal_order by name: patch every binding
        original = chain.compute_optimal_order
        order = _timed_call(original, profiler, "chain.compute_optimal_order")
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and getattr(module, "compute_optimal_order", None) is original
            ):
                patch(module, "compute_optimal_order", order)

    return _patched(apply)


def runner_wrappers(profiler: SpanProfiler) -> typing.ContextManager[None]:
    """Wrap the runner's batch entry point and result-cache calls.

    Only these run in the parent process: pool workers execute the
    simulations, so the simulator wrappers would not reach them.
    """
    from repro.runner.cache import ResultCache
    from repro.runner.runner import ParallelRunner

    def apply(patch: typing.Callable[..., None]) -> None:
        _wrap_calls(patch, profiler, ResultCache, "ResultCache", "get", "put")
        _wrap_calls(patch, profiler, ParallelRunner, "ParallelRunner",
                    "run_batch")

    return _patched(apply)
