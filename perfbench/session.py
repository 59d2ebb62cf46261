"""One benchmark session in a fresh process: set up, run the ops, report.

Usage: ``python3 perfbench/session.py --workload NAME --seed N
[--size full|tiny] [--traced] [--spans PATH] [--oracle]``.  Prints one
JSON object.

A session generates its workload's inputs from the seed, sets the system
up, then runs every op once in a closed loop from a cold cache.  There is
no warm-up: the cold-to-warm cache fill is part of what each workload
measures.  Right after each op completes, the session digests its answer
and times the calibration kernel (:mod:`calibrate`), both outside every
op's latency.  Once the loop ends it reads the peak RSS, drops the system
and times further set-ups, each followed by a kernel run, so the peak
holds the program and its inputs and nothing the benchmark adds.

``--oracle`` instead answers every op through the no-cache reference
(:func:`workloads.nocache`) and prints the answer digests the measuring
sessions are checked against.  The reference runs in a process of its
own, so it adds neither time nor memory to what the sessions measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.caql.parser import parse_query  # noqa: E402
from repro.common.errors import BraidError  # noqa: E402
from repro.common.metrics import REMOTE_DEGRADED_ANSWERS  # noqa: E402

#: Set-ups per untraced session; ``setup_s`` is the median over all
#: sessions' set-ups.
SETUP_REPEATS = 25

#: Metrics-ledger counters every session reports (deterministic per seed).
LEDGER = (
    "remote.requests",
    "remote.tuples_shipped",
    "remote.retries",
    "ie.inference_steps",
    "ie.caql_queries",
    "cache.hits.exact",
    "cache.canonical_hits",
    "cache.hits.subsumed",
    "cache.misses",
    "cache.evictions",
    "cache.tuples_processed",
    "cache.intermediate_stores",
    "server.shared_subplans",
)


class Loop:
    """What one closed loop produced: answer digests, op and kernel times.

    Answers are digested as they arrive, outside every timed window, so no
    op's rows stay alive to swell memory or garbage collection.  An op that
    raised or came back degraded is answered by ``None``.
    """

    def __init__(self, streams):
        self.digests = {stream: [] for stream in streams}
        self.latencies: list[float] = []
        #: Calibration kernel seconds, one per op, in completion order.
        self.kernel: list[float] = []
        #: Latency in ms per request id (``serve-*`` only).
        self.by_request: dict[str, float] = {}
        self.wall = 0.0

    def record(self, stream: str, answer) -> float:
        """Digest the next answer of ``stream`` and time the kernel; returns
        the seconds this took."""
        start = time.perf_counter()
        self.digests[stream].append(None if answer is None else workloads.digest(answer))
        self.kernel.append(calibrate.timed())
        return time.perf_counter() - start


def timed_setup(inputs: workloads.Inputs):
    """One set-up; the system and its duration."""
    tables = workloads.fresh_tables(inputs)
    start = time.perf_counter()
    system = workloads.setup(inputs, tables)
    return system, time.perf_counter() - start


def repeat_setups(inputs: workloads.Inputs, count: int) -> tuple[list[float], list[float]]:
    """Durations of ``count`` set-ups and of a kernel run after each."""
    durations, kernel = [], []
    for _ in range(count):
        durations.append(timed_setup(inputs)[1])
        kernel.append(calibrate.timed())
    return durations, kernel


def run_ie(system, inputs, recorder) -> Loop:
    """Ask every question in turn; one caller waits on each answer."""
    loop = Loop(inputs.ops)
    metrics = system.metrics
    for index, ask in enumerate(inputs.ops["ie"]):
        degraded_before = metrics.get(REMOTE_DEGRADED_ANSWERS)
        start = time.perf_counter()
        try:
            answers = system.ask_all(ask)
        except BraidError:
            answers = None
        loop.latencies.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.label(f"ask#{index}")
        if answers is not None and metrics.get(REMOTE_DEGRADED_ANSWERS) == degraded_before:
            answers = workloads.answer_rows(answers)
        else:
            answers = None
        loop.record("ie", answers)
    loop.wall = sum(loop.latencies)
    return loop


def run_serve(server, inputs, recorder) -> Loop:
    """Closed-loop clients: each submits its next request once the last finished.

    Latency runs from submit to ``Request.finished``, so it includes the
    time a request waits behind the other client's steps, but not the time
    spent digesting answers and timing the kernel meanwhile.
    """
    loop = Loop(inputs.ops)
    queued = {c: [parse_query(t) for t in texts] for c, texts in inputs.ops.items()}
    position = dict.fromkeys(queued, 0)
    pending: dict[str, tuple] = {}
    paused = 0.0
    start_all = time.perf_counter()
    while True:
        for client, queries in queued.items():
            index = position[client]
            if client not in pending and index < len(queries):
                submitted = time.perf_counter()
                request = server.submit(client, queries[index])
                position[client] += 1
                pending[client] = (request, submitted, paused)
        if not server.step():
            break
        if recorder is not None:
            recorder.label(server.schedule_trace[-1].request_id)
        for client, (request, submitted, paused_then) in list(pending.items()):
            if not request.finished:
                continue
            latency = time.perf_counter() - submitted - (paused - paused_then)
            loop.latencies.append(latency)
            loop.by_request[request.request_id] = latency * 1e3
            del pending[client]
            failed = request.error is not None or request.degraded
            paused += loop.record(client, None if failed else request.rows)
    loop.wall = time.perf_counter() - start_all - paused
    return loop


def run_session(workload: str, seed: int, size: str, traced: bool, spans_path=None) -> dict:
    """One fresh-process session; returns the report the parent aggregates."""
    inputs = workloads.make_inputs(workload, seed, size)
    recorder = layers.SpanRecorder() if traced else None
    with recorder if recorder is not None else contextlib.nullcontext():
        system, first_setup = timed_setup(inputs)
        metrics = system.metrics
        before = metrics.snapshot()
        sim_before = system.clock.now
        gc.collect()
        run = run_ie if workload == "ie-genealogy" else run_serve
        loop = run(system, inputs, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    delta = metrics.diff(before)
    cache = system.server.cache if workload == "ie-genealogy" else system.cache
    counts = {name: delta.get(name, 0) for name in LEDGER}
    counts["cache.elements"] = len(cache)
    counts["cache.used_bytes"] = cache.used_bytes()
    report = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "ops": len(loop.latencies),
        "wall_s": loop.wall,
        "latencies_ms": [x * 1e3 for x in loop.latencies],
        "kernel_s": loop.kernel,
        "sim_s": system.clock.now - sim_before,
        "counts": counts,
        "digests": loop.digests,
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        selfs = layers.self_times(recorder.spans)
        report["self_ms"] = dict(selfs)
        report["other_ms"] = loop.wall * 1e3 - sum(selfs.values())
        report["calls"] = layers.call_counts(recorder)
        report["entries"] = layers.entry_counts(recorder)
        report["server.wait_ms.p50"] = layers.step_wait_ms(recorder.spans, loop.by_request)
        if spans_path is not None:
            recorder.write_jsonl(spans_path)
    else:
        del system, metrics, cache, loop
        gc.collect()
        setups, kernel = repeat_setups(inputs, SETUP_REPEATS - 1)
        report["setups_s"] = [first_setup, *setups]
        report["setup_kernel_s"] = kernel
    return report


def oracle(workload: str, seed: int, size: str) -> dict:
    """Digests of every op's answer through the no-cache reference."""
    inputs = workloads.make_inputs(workload, seed, size)
    answer = workloads.nocache(inputs)
    return {
        "expected": {
            stream: [workloads.digest(answer(stream, index)) for index in range(len(ops))]
            for stream, ops in inputs.ops.items()
        }
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=tuple(workloads.OPS))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--oracle", action="store_true")
    args = parser.parse_args(argv)
    if args.oracle:
        report = oracle(args.workload, args.seed, args.size)
    else:
        report = run_session(args.workload, args.seed, args.size, args.traced, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
