"""Per-layer measurement of a replay, taken from outside the program.

Nothing under ``src/`` knows it is measured.  :class:`Instrumentation`
replaces public callables at runtime with wrappers defined here:

* **counters** count calls into the hot entry points of each layer
  (``Environment.schedule``, ``SharedLink.share``, ``DLU.push``, ...);
* **spans** time the layer boundaries of the replay engine (world
  build, simulation, fold, finalize) with the span that caused them,
  kept in memory and written out when the benchmark ends.

:func:`self_time_by_layer` reads a cProfile run taken *without* the
wrappers and sums self time by ``repro`` package, charging builtins and
stdlib calls to the package that called them.

Layer names are the package names under ``src/repro``.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import repro
from repro.cluster.container import ContainerPool
from repro.cluster.network import SharedLink
from repro.cluster.storage import BackendStore
from repro.core.dlu import DLU
from repro.core.pipes import PipeRouter
from repro.core.sink import WaitMatchMemory
from repro.parallel import engine
from repro.parallel.spec import ReplaySpec
from repro.sim.environment import Environment
from repro.sim.process import Process
from repro.systems.base import FunctionDispatcher

#: Counter metric -> the callables whose calls it counts.
COUNTED = {
    "sim.events_per_request": (
        (Environment, "schedule"), (Environment, "schedule_urgent"),
    ),
    "sim.processes_per_request": ((Process, "__init__"),),
    "cluster.link_share_calls_per_request": ((SharedLink, "share"),),
    "cluster.backend_ops_per_request": (
        (BackendStore, "put"), (BackendStore, "get"),
    ),
    "cluster.cold_starts_per_request": ((ContainerPool, "start_new"),),
    "core.dlu_pushes_per_request": ((DLU, "push"),),
    "core.pipe_pushes_per_request": ((PipeRouter, "push"),),
    "core.sink_deposits_per_request": ((WaitMatchMemory, "deposit"),),
    "systems.dispatches_per_request": ((FunctionDispatcher, "submit"),),
}

#: Span name -> the callable it times.  ``engine.replay_cell`` and
#: ``engine.run_trace`` are the module globals the engine calls through.
SPANNED = {
    "replay_cell": (engine, "replay_cell"),
    "build_setup": (ReplaySpec, "build_setup"),
    "run_trace": (engine, "run_trace"),
    "fold": (engine.StreamingMerge, "add"),
    "finalize": (engine.StreamingMerge, "finalize"),
}

_REPRO_DIR = Path(repro.__file__).resolve().parent


class Instrumentation:
    """Counting and span wrappers, installed for one replay."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        #: Flows started, read from each cell's ``NetworkFabric.flow_count``.
        self.flows = 0
        self.spans: List[dict] = []
        self._ids = itertools.count()
        self._open: List[int] = []
        self._undo: list = []

    def install(self) -> None:
        for metric, targets in COUNTED.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._counter(metric))
        for name, (owner, attr) in SPANNED.items():
            self._patch(owner, attr, self._span(name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def _counter(self, metric: str):
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[metric] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def _span(self, name: str):
        def make(original):
            def spanned(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if name == "run_trace":
                    self.flows += args[0].cluster.fabric.flow_count
                return result

            return spanned

        return make

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around any block, parented to the innermost open span."""
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "start_s": start, "end_s": end})

    def seconds(self, name: str) -> float:
        """Total wall time of every span called ``name``."""
        return sum(
            s["end_s"] - s["start_s"] for s in self.spans if s["name"] == name
        )


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` package a source file belongs to, or ``None``."""
    try:
        relative = Path(filename).resolve().relative_to(_REPRO_DIR)
    except ValueError:
        return None
    top = relative.parts[0]
    return top[:-3] if top.endswith(".py") else top


def self_time_by_layer(stats: Dict) -> Dict[str, float]:
    """Share of profiled self time per layer, from ``pstats.Stats.stats``.

    A function outside ``repro`` (a builtin such as ``heappush``, or
    stdlib code) is charged to the layers of its direct callers, in
    proportion to the time each caller spent in it.
    """
    layers = {}
    totals: Counter = Counter()
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        if filename not in layers:
            layers[filename] = layer_of(filename)
        layer = layers[filename]
        if layer is not None or not callers:
            totals[layer or "other"] += tt
            continue
        for (caller_file, _l, _n), caller_times in callers.items():
            if caller_file not in layers:
                layers[caller_file] = layer_of(caller_file)
            totals[layers[caller_file] or "other"] += caller_times[2]
    whole = sum(totals.values())
    return {layer: t / whole for layer, t in totals.items()} if whole else {}
