"""Spans around calls into each layer's public functions, kept in memory.

The tracer patches the program's classes from the benchmark's side only
(nothing in ``src/`` changes) and restores them on :meth:`Tracer.uninstall`.
Epoch-level calls become stored spans ``[name, thread, start_ns, end_ns,
same_thread_child_ns, parent]``; a layer's self time is its duration minus
what its children cover (the union of the intervals of children that ran
on other threads, e.g. the fan-out pool).  Per-message calls of the data
plane are too many to store, so they are folded on the fly into per-call
self-time samples.
"""

from __future__ import annotations

import json
import threading
from array import array
from time import perf_counter_ns

from repro.core.constellation import ConstellationCalculation, ConstellationState
from repro.core.coordinator import Coordinator
from repro.core.database import ConstellationDatabase
from repro.core.machine_manager import MachineManager
from repro.net.network import VirtualNetwork
from repro.serve import codec
from repro.topology.paths import PathEngine

#: (span name, owner, attribute, folded) for every traced call.
LAYER_CALLS = (
    ("constellation.diff", ConstellationCalculation, "diff_since", False),
    ("paths.advance", PathEngine, "advance_all", False),
    ("paths.solve", PathEngine, "solve", False),
    ("coordinator.update", Coordinator, "update", False),
    ("placement.create", Coordinator, "create_machine", False),
    ("hosts.sweep", Coordinator, "sample_all_usage", False),
    ("hosts.apply", MachineManager, "apply_diff", False),
    ("hosts.sample", MachineManager, "sample_usage", False),
    ("database.publish", ConstellationDatabase, "set_state", False),
    ("net.apply", VirtualNetwork, "apply_diff", False),
    ("codec.encode", codec, "encode_diff_update", False),
    ("codec.encode", codec, "encode_keyframe_update", False),
    ("query.path", ConstellationState, "path", True),
    ("net.send", VirtualNetwork, "send", True),
    ("database.pair_rule", ConstellationDatabase, "pair_rule", True),
)

GATEWAY_THREAD = "celestial-gateway"


def covered_ns(intervals, start: int = 0, end: int = 2**63) -> int:
    """Length of the union of ``(low, high)`` intervals within ``[start, end]``."""
    covered, reach = 0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


class Folded:
    """Per-call self times of one folded span name, split by thread kind."""

    def __init__(self):
        self.samples: dict[str, array] = {}
        self.root_ns = 0

    def add(self, kind: str, self_ns: int) -> None:
        self.samples.setdefault(kind, array("q")).append(self_ns)


class Tracer:
    """Records spans while installed; the records stay until :meth:`dump`."""

    def __init__(self):
        self.spans: list = []
        self.folded: dict[str, Folded] = {}
        self.publish_ns: dict[int, int] = {}
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def _kind(self) -> tuple[str, list]:
        thread = threading.current_thread()
        if thread is self._main:
            return "main", self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return ("gateway" if thread.name == GATEWAY_THREAD else "pool"), stack

    def _traced(self, name: str, original, folded: bool):
        tracer = self

        def traced(*args, **kwargs):
            kind, stack = tracer._kind()
            if folded:
                index = None
            else:
                if stack:
                    parent = stack[-1][0]
                elif kind == "pool" and tracer._main_stack:
                    # Fan-out pool work belongs to the main-thread call that
                    # submitted it and is waiting for it.
                    parent = tracer._main_stack[-1][0]
                else:
                    parent = None
                index = len(tracer.spans)
                tracer.spans.append([name, kind, 0, 0, 0, parent])
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if folded:
                    record = tracer.folded.setdefault(name, Folded())
                    record.add(kind, duration - frame[1])
                    if not stack and kind == "main":
                        record.root_ns += duration
                else:
                    span = tracer.spans[index]
                    span[2], span[3], span[4] = start, end, frame[1]

        return traced

    def on_publish(self, epoch: int, state, diff) -> None:
        """Database listener: when each epoch's publication fired."""
        self.publish_ns[epoch] = perf_counter_ns()

    def wrap(self, name: str, owner, attribute: str, folded: bool = False) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, self._traced(name, original, folded))
        self._patches.append((owner, attribute, original))

    def install(self, extra=()) -> None:
        """Patch every layer call (plus ``extra`` ``(name, owner, attr, folded)``)."""
        for name, owner, attribute, folded in (*LAYER_CALLS, *extra):
            self.wrap(name, owner, attribute, folded)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every stored span [ns]."""
        spans = self.spans
        cross: dict[int, list] = {}
        for span in spans:
            parent = span[5]
            if parent is not None and span[1] != spans[parent][1]:
                cross.setdefault(parent, []).append((span[2], span[3]))
        return [
            end - start - child_ns - covered_ns(cross.get(index, ()), start, end)
            for index, (_, _, start, end, child_ns, _) in enumerate(spans)
        ]

    def dump(self, path) -> None:
        """Write the spans and folded samples out (at the end of a run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "thread", "start_ns", "end_ns", "child_ns", "parent"],
                    "spans": self.spans,
                    "folded": {
                        name: {kind: len(samples) for kind, samples in record.samples.items()}
                        for name, record in self.folded.items()
                    },
                },
                handle,
            )
