"""Per-layer wall-clock spans, recorded from outside the program.

:class:`SpanRecorder` replaces each layer's public entry points with a
timing wrapper for the length of a ``with`` block and puts the originals
back when it ends.  Every name is patched where its caller looks it up:
``find_relevant`` and ``canonicalize`` as bound in ``repro.core.planner``,
``canonical_key`` as bound in ``repro.core.cache``, ``sql_from_psj`` as
bound in ``repro.core.rdi``.

Spans stay in memory as ``[entry, parent, op, start_ns, end_ns]`` lists:
``parent`` indexes the enclosing span (-1 at the top), and ``op`` is set
on top-level spans only, by :meth:`SpanRecorder.label`; a nested span
belongs to the op of its top-level ancestor.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter

#: Timed entry points: (module the caller looks the name up in, attribute
#: path) -> the layer module it belongs to.
TIMED = {
    ("repro.ie.engine", "InferenceEngine.ask_all"): "repro.ie",
    ("repro.core.planner", "find_relevant"): "repro.core.subsumption",
    ("repro.core.planner", "canonicalize"): "repro.core.canonical",
    ("repro.core.cache", "canonical_key"): "repro.core.canonical",
    ("repro.core.planner", "QueryPlanner.plan"): "repro.core.planner",
    ("repro.core.cache", "Cache.lookup_exact"): "repro.core.cache",
    ("repro.core.cache", "Cache.store"): "repro.core.cache",
    ("repro.core.executor", "ExecutionMonitor.execute"): "repro.core.executor",
    ("repro.core.rdi", "sql_from_psj"): "repro.caql",
    ("repro.remote.server", "RemoteDBMS.execute"): "repro.remote",
    ("repro.remote.server", "RemoteDBMS.execute_stream"): "repro.remote",
    ("repro.remote.server", "RemoteDBMS.execute_batch"): "repro.remote",
    ("repro.server.braid_server", "BraidServer.step"): "repro.server",
}

#: Counted, not timed: ``match_element`` is a generator, so its work runs
#: inside ``find_relevant``'s span; each call is one candidate probed.
COUNTED = (("repro.core.subsumption", "match_element"),)

#: Self-time metric of each timed entry point.
SELF_METRIC = {
    "InferenceEngine.ask_all": "ie.self_ms",
    "find_relevant": "subsume.ms",
    "canonicalize": "canonical.ms",
    "canonical_key": "canonical.ms",
    "QueryPlanner.plan": "planner.self_ms",
    "Cache.lookup_exact": "cache.lookup_ms",
    "Cache.store": "cache.store_ms",
    "ExecutionMonitor.execute": "executor.self_ms",
    "sql_from_psj": "caql.translate_ms",
    "RemoteDBMS.execute": "remote.ms",
    "RemoteDBMS.execute_stream": "remote.ms",
    "RemoteDBMS.execute_batch": "remote.ms",
    "BraidServer.step": "server.step_self_ms",
}

#: Call-count metric of each timed entry point, where the table has one.
CALL_METRIC = {
    "find_relevant": "subsume.calls",
    "canonicalize": "canonical.calls",
    "canonical_key": "canonical.calls",
    "QueryPlanner.plan": "planner.plans",
    "Cache.store": "cache.stores",
    "sql_from_psj": "caql.translations",
    "BraidServer.step": "server.steps",
    "match_element": "subsume.candidates",
}


def resolve(module: str, path: str):
    """The object holding ``path`` in ``module``, and the attribute name."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class SpanRecorder:
    """Wraps every entry point in :data:`TIMED` and :data:`COUNTED`."""

    def __init__(self):
        self.spans: list[list] = []
        #: Calls of the counted (untimed) entry points.
        self.calls: Counter[str] = Counter()
        #: Subsumption matches returned by ``find_relevant``.
        self.matches = 0
        self._stack: list[int] = []
        self._labelled = 0
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        for module, path in TIMED:
            self._patch(module, path, self._timed)
        for module, path in COUNTED:
            self._patch(module, path, self._counted)
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _patch(self, module: str, path: str, make) -> None:
        owner, name = resolve(module, path)
        original = owner.__dict__[name]
        self._originals.append((owner, name, original))
        setattr(owner, name, make(original, path))

    def _timed(self, fn, entry: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_matches = entry == "find_relevant"

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [entry, stack[-1] if stack else -1, None, clock(), 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if count_matches:
                self.matches += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, entry: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[entry] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def label(self, op: str) -> None:
        """Assign ``op`` to every top-level span since the last label."""
        for span in self.spans[self._labelled:]:
            if span[1] == -1:
                span[2] = op
        self._labelled = len(self.spans)

    def write_jsonl(self, path) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w") as out:
            for index, (entry, parent, op, start, end) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "op": op,
                            "entry": entry,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> Counter:
    """Self milliseconds per metric of :data:`SELF_METRIC`."""
    covered = [0] * len(spans)
    for entry, parent, _op, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Counter[str] = Counter({m: 0 for m in SELF_METRIC.values()})
    for (entry, _parent, _op, start, end), child_ns in zip(spans, covered):
        totals[SELF_METRIC[entry]] += end - start - child_ns
    return Counter({metric: ns / 1e6 for metric, ns in totals.items()})


def entry_counts(recorder: SpanRecorder) -> dict[str, int]:
    """Calls per wrapped entry point, timed and counted."""
    counts = Counter({path: 0 for _module, path in (*TIMED, *COUNTED)})
    counts.update(entry for entry, *_ in recorder.spans)
    counts.update(recorder.calls)
    return dict(counts)


def call_counts(recorder: SpanRecorder) -> dict[str, int]:
    """The per-layer count metrics the wrappers measure."""
    counts: Counter[str] = Counter()
    for entry, calls in entry_counts(recorder).items():
        if entry in CALL_METRIC:
            counts[CALL_METRIC[entry]] += calls
    counts["subsume.matches"] = recorder.matches
    return dict(counts)


def step_wait_ms(spans: list[list], latency_ms: dict[str, float]) -> float:
    """Median over requests of latency minus the wall time of their own steps."""
    own: Counter[str] = Counter()
    for entry, parent, op, start, end in spans:
        if parent == -1 and entry == "BraidServer.step":
            own[op] += end - start
    waits = [latency_ms[op] - own[op] / 1e6 for op in latency_ms]
    return statistics.median(waits) if waits else 0.0
