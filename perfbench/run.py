"""Wall-clock benchmark of BrAID's IE -> CMS -> remote path.

Usage, from the repository root::

    python3 perfbench/run.py --workload ie-genealogy|serve-hot|serve-churn|all \\
        --seed N --seconds S --trace 0|1

Each workload's inputs come from ``--seed``.  Fresh-process sessions (see
``session.py``) run one after another, at least two, and more while
another fits in ``--seconds``;
every session repeats the same seeded inputs from a cold start, so the
deterministic numbers -- simulated seconds, remote requests, tuples
shipped, answers and every per-layer count -- must be identical across
them, and any difference fails the run.

Before the sessions, an oracle process answers every op through the
no-cache reference; every session's answers are checked against it.

``--trace 0`` reports the end-to-end metrics over the samples of all
sessions pooled, so they average over the whole run.  Wall-clock figures
are calibrated: each op's latency is divided by the host's slowdown
measured by the kernel run beside it (see ``calibrate.py``), so they read
as times on the reference host; the raw figures are printed beside them.
``--trace 1`` alternates untraced and traced sessions and reports the
per-layer metrics of the traced ones, plus the tracing overhead (traced
over untraced ops per second).  It also writes the last traced session's
spans and the full layer report under ``.perfbench/`` in the repository.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every answer matched the reference and every session agreed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Stop starting sessions once this many seconds have gone, whatever
#: ``--seconds`` says, so a run always ends within three minutes.
SESSION_BUDGET_S = 150.0

#: End-to-end metrics gated in BENCHMARK.json: name -> unit (``--trace 0``).
#: Times are calibrated to the reference host (see ``calibrate.py``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "sim_s": "sim-s",
    "remote_requests": "count",
    "tuples_shipped": "count",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics printed with the above but not gated: the raw wall
#: clock, which moves with the host's speed; the host's median slowdown
#: against the reference host; and the share of failed ops, which is 0
#: in a correct run and is carried by ``failed`` in the result object.
PRINTED = {
    "raw.setup_s": "s",
    "raw.ops_per_s": "ops/s",
    "raw.latency_ms.p50": "ms",
    "raw.latency_ms.tail": "ms",
    "host.slowdown": "ratio",
    "error_rate": "fraction",
}

#: Per-layer metrics: name -> unit (``--trace 1``).  Times are self
#: times summed over one session; ``other.ms`` is the traced wall time
#: no wrapped entry point covers, so the times add up to ``traced.wall_ms``.
PER_LAYER = {
    "caller.self_ms": "ms",
    "subsume.ms": "ms",
    "canonical.ms": "ms",
    "planner.self_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.store_ms": "ms",
    "executor.self_ms": "ms",
    "caql.translate_ms": "ms",
    "remote.ms": "ms",
    "other.ms": "ms",
    "traced.wall_ms": "ms",
    "trace.overhead": "ratio",
    "ie.caql_per_ask": "ratio",
    "ie.inference_steps": "count",
    "subsume.calls": "count",
    "subsume.candidates": "count",
    "subsume.matches": "count",
    "subsume.match_ratio": "ratio",
    "canonical.calls": "count",
    "planner.plans": "count",
    "cache.hits.exact": "count",
    "cache.canonical_hits": "count",
    "cache.hits.subsumed": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.evictions": "count",
    "cache.hit_rate": "ratio",
    "cache.elements": "count",
    "cache.used_bytes": "B",
    "cache.tuples_processed": "count",
    "cache.intermediate_stores": "count",
    "server.shared_subplans": "count",
    "caql.translations": "count",
    "remote.tuples_per_request": "ratio",
    "remote.retries": "count",
    "server.steps": "count",
}

#: Metrics read from the wall clock or the OS; every other metric repeats
#: exactly across runs of one seed.
MEASURED = {
    "setup_s",
    "ops_per_s",
    "latency_ms.p50",
    "latency_ms.tail",
    "peak_rss_mb",
    "trace.overhead",
    *(name for name, unit in PER_LAYER.items() if unit == "ms"),
}


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_child(workload: str, seed: int, size: str, timeout: float, *flags: str) -> dict:
    """One session (or the oracle) in a fresh interpreter; its JSON report."""
    command = [
        sys.executable,
        str(HERE / "session.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        *flags,
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"session failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def deterministic_part(report: dict) -> tuple:
    """What must repeat exactly across sessions of one seed."""
    return (
        report["ops"],
        report["sim_s"],
        json.dumps(report["counts"], sort_keys=True),
        json.dumps(report["digests"], sort_keys=True),
        json.dumps(report.get("calls"), sort_keys=True) if report["traced"] else None,
    )


def failed_ops(report: dict, expected: dict[str, list[str]]) -> int:
    """Ops that raised, came back degraded, or disagreed with the reference."""
    return sum(
        got is None or got != want
        for stream, wants in expected.items()
        for got, want in zip(report["digests"][stream], wants, strict=True)
    )


def end_to_end(reports: list[dict], tail_pct: int) -> dict[str, float]:
    """Wall metrics pooled over every session's samples of the run.

    An op's calibrated latency is its latency over the slowdown around it.
    A session's calibrated wall time is its wall time scaled by the same
    latency-weighted factor, and a set-up's by the session's median
    kernel time over its set-ups.
    """
    first = reports[0]
    raw: list[float] = []
    cal: list[float] = []
    slow: list[float] = []
    setups: list[float] = []
    raw_setups: list[float] = []
    raw_wall = cal_wall = 0.0
    for report in reports:
        slowdowns = calibrate.slowdowns(report["kernel_s"])
        latencies = report["latencies_ms"]
        scaled = [x / f for x, f in zip(latencies, slowdowns, strict=True)]
        raw += latencies
        cal += scaled
        slow += slowdowns
        raw_wall += report["wall_s"]
        cal_wall += report["wall_s"] * sum(scaled) / sum(latencies)
        setup_slowdown = statistics.median(report["setup_kernel_s"]) / calibrate.REFERENCE_S
        raw_setups += report["setups_s"]
        setups += [x / setup_slowdown for x in report["setups_s"]]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(cal) / cal_wall,
        "latency_ms.p50": statistics.median(cal),
        "latency_ms.tail": percentile(cal, tail_pct),
        "sim_s": first["sim_s"],
        "remote_requests": first["counts"]["remote.requests"],
        "tuples_shipped": first["counts"]["remote.tuples_shipped"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "raw.setup_s": statistics.median(raw_setups),
        "raw.ops_per_s": len(raw) / raw_wall,
        "raw.latency_ms.p50": statistics.median(raw),
        "raw.latency_ms.tail": percentile(raw, tail_pct),
        "host.slowdown": statistics.median(slow),
    }


def per_layer(traced: list[dict], untraced: list[dict], workload: str) -> dict[str, float]:
    """Per-layer metrics of the traced session with the median wall time.

    One session's self times and ``other.ms`` add up to its wall time
    exactly; counts are the same in every session of a seed.
    """
    middle = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    self_ms = middle["self_ms"]
    counts = {**middle["counts"], **middle["calls"]}
    hits = counts["cache.hits.exact"] + counts["cache.hits.subsumed"]
    lookups = hits + counts["cache.misses"]
    asks = middle["ops"] if workload == "ie-genealogy" else 0
    speed = [statistics.median(r["ops"] / r["wall_s"] for r in runs) for runs in (traced, untraced)]
    layer = {
        **self_ms,
        "caller.self_ms": self_ms["ie.self_ms"] + self_ms["server.step_self_ms"],
        "other.ms": middle["other_ms"],
        "traced.wall_ms": middle["wall_s"] * 1e3,
        "server.wait_ms.p50": middle["server.wait_ms.p50"],
        "trace.overhead": speed[0] / speed[1],
        "ie.caql_per_ask": counts["ie.caql_queries"] / asks if asks else 0.0,
        "subsume.match_ratio": (
            counts["subsume.matches"] / counts["subsume.candidates"]
            if counts["subsume.candidates"]
            else 0.0
        ),
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "remote.tuples_per_request": (
            counts["remote.tuples_shipped"] / counts["remote.requests"]
            if counts["remote.requests"]
            else 0.0
        ),
    }
    for name in PER_LAYER:
        layer.setdefault(name, counts.get(name))
    return layer


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """All sessions of one workload; the contract's result object."""
    import workloads

    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    expected = run_child(workload, seed, size, SESSION_BUDGET_S, "--oracle")["expected"]
    reports: list[dict] = []
    limit = min(seconds, SESSION_BUDGET_S)
    while True:
        flags = ()
        if trace and len(reports) % 2 == 1:
            flags = ("--traced", "--spans", str(OUT / f"{workload}-seed{seed}.spans.jsonl"))
        began = time.perf_counter()
        reports.append(
            run_child(workload, seed, size, SESSION_BUDGET_S + 20 - (began - start), *flags)
        )
        now = time.perf_counter()
        # Start another session only if one as long as the last still fits.
        if len(reports) >= workloads.MIN_SESSIONS and now - start + (now - began) > limit:
            break

    untraced = [r for r in reports if not r["traced"]]
    traced_reports = [r for r in reports if r["traced"]]
    failed = sum(failed_ops(r, expected) for r in reports)
    attempted = sum(r["ops"] for r in reports)
    agree = (
        len({deterministic_part(r)[:4] for r in reports}) == 1
        and len({deterministic_part(r) for r in traced_reports}) <= 1
    )
    if not agree:
        print(f"{workload}: sessions of seed {seed} disagree on deterministic output", file=sys.stderr)

    tail_pct = workloads.TAIL_PERCENTILE[workload]
    if trace:
        layer = per_layer(traced_reports, untraced, workload)
        (OUT / f"{workload}-seed{seed}.layers.json").write_text(
            json.dumps(layer, indent=2, sort_keys=True) + "\n"
        )
        shown = {name: (layer[name], PER_LAYER.get(name, "ms")) for name in sorted(layer)}
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        e2e = end_to_end(untraced, tail_pct)
        e2e["error_rate"] = failed / attempted
        shown = {name: (e2e[name], unit) for name, unit in {**END_TO_END, **PRINTED}.items()}
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(
        f"# {workload} seed={seed} sessions={len(reports)} ops/session={reports[0]['ops']} "
        f"tail=p{tail_pct} trace={int(trace)}"
    )
    for name, (value, unit) in shown.items():
        print(f"{name:28s} {value:>16.6f} {unit}")
    return {
        "correct": failed == 0 and agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload != "all" and args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; have {workloads.NAMES}")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)

    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        for name in names
    }
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
