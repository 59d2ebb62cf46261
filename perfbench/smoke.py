"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

Run from the repository root: ``python3 perfbench/smoke.py``.  Exits 0
when every check passes and 1 after listing the failures.  It checks that

* the wrappers replace every entry point and restore the originals;
* every layer's wrapped entry points fire on the workloads the layer
  works on, and never on the workloads it is absent from;
* every run answers like the oracle (no failed op) and its sessions agree;
* deterministic metrics and per-layer counts repeat across runs of a seed;
* the calibration kernel loads nothing from the program, so no change to
  the program can move the host speed it measures;
* ``BENCHMARK.json`` names the metrics the benchmark reports and records
  each workload's tail percentile.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5

#: Layers absent from a workload; every other layer must fire on it.
ABSENT = {
    "ie-genealogy": {"repro.server"},
    "serve-hot": {"repro.ie"},
    "serve-churn": {"repro.ie"},
}

#: Timed entry points that no workload reaches.
UNREACHED = {"RemoteDBMS.execute", "RemoteDBMS.execute_batch"}


def python(*args: str) -> dict:
    """The JSON last line of a benchmark script's output.

    A run that found wrong answers exits 1 but still prints its result,
    which the caller checks; any other failure raises.
    """
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, check=False
    )
    if done.returncode not in (0, 1) or not done.stdout:
        raise AssertionError(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def check_wrappers_restore(failures: list[str]) -> None:
    def current():
        found = {}
        for key in (*layers.TIMED, *layers.COUNTED):
            owner, name = layers.resolve(*key)
            found[key] = owner.__dict__[name]
        return found

    before = current()
    with layers.SpanRecorder():
        during = current()
    after = current()
    for key, original in before.items():
        if during[key] is original or during[key].__wrapped__ is not original:
            failures.append(f"{key} was not wrapped")
        if after[key] is not original:
            failures.append(f"{key} was not restored")


def check_calibration_standalone(failures: list[str]) -> None:
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, calibrate; calibrate.timed(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))",
        ],
        cwd=HERE,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0 or done.stdout.strip() != "[]":
        failures.append(f"calibration kernel loads the program: {done.stdout}{done.stderr}")


def check_entry_points(workload: str, failures: list[str]) -> set[str]:
    report = python(
        str(HERE / "session.py"), "--workload", workload, "--seed", str(SEED),
        "--size", "tiny", "--traced",
    )
    fired = {entry for entry, calls in report["entries"].items() if calls}
    for (_module, path), layer in layers.TIMED.items():
        if path in UNREACHED:
            continue
        expected = layer not in ABSENT[workload]
        if (path in fired) != expected:
            state = "did not fire" if expected else "fired"
            failures.append(f"{workload}: {layer} entry {path} {state}")
    if "match_element" not in fired:
        failures.append(f"{workload}: match_element was never counted")
    return fired


def check_runs(workload: str, failures: list[str]) -> None:
    common = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--size", "tiny"]
    for trace in ("0", "1"):
        first, second = (
            python(str(HERE / "run.py"), *common, "--trace", trace) for _ in range(2)
        )
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: {result['failed']} failed ops")
        names = run.END_TO_END if trace == "0" else run.PER_LAYER
        for name in names:
            if name in run.MEASURED:
                continue
            if first["metrics"][name] != second["metrics"][name]:
                failures.append(
                    f"{workload} trace={trace}: {name} differs across runs: "
                    f"{first['metrics'][name]} vs {second['metrics'][name]}"
                )


def check_benchmark_json(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        failures.append(f"BENCHMARK.json end_to_end {declared} != {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.PER_LAYER:
        failures.append("BENCHMARK.json per_layer does not match run.PER_LAYER")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if set(whys) != set(workloads.NAMES):
        failures.append(f"BENCHMARK.json workloads {sorted(whys)} != {workloads.NAMES}")
    for name, pct in workloads.TAIL_PERCENTILE.items():
        if f"tail is p{pct}" not in whys.get(name, ""):
            failures.append(f"BENCHMARK.json does not record p{pct} as {name}'s tail")
        ops = workloads.OPS["full"][name] * workloads.MIN_SESSIONS
        beyond = {p: ops * (100 - p) / 100 for p in (90, 95, 99)}
        if beyond[pct] < 10 or any(beyond[p] >= 10 for p in beyond if p > pct):
            failures.append(f"{name}: p{pct} is not the highest percentile with 10 beyond")


def main() -> int:
    failures: list[str] = []
    check_wrappers_restore(failures)
    check_calibration_standalone(failures)
    fired: set[str] = set()
    for workload in workloads.NAMES:
        fired |= check_entry_points(workload, failures)
        check_runs(workload, failures)
    for path in UNREACHED & fired:
        failures.append(f"{path} fired; drop it from UNREACHED")
    check_benchmark_json(failures)
    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
