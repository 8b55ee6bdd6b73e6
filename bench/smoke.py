"""Smoke test of the benchmark harness.

Usage, from the root of a checkout:

    python3 bench/smoke.py

Runs every workload at tiny size with tracing off and on, and checks that
each run exits 0, passes its output checks and emits exactly the metrics
BENCHMARK.json names, with their units; that a layer which does not run
reads 0; and that the benchmark refuses to run without the program's
source. It takes about a minute and stays out of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

# Layers that must read 0 on a workload that never reaches them.
_IDLE = {
    "predict-longdoc": ("encoder.layers.dropout_mask.s",
                        "encoder.layers.dense.bwd_s",
                        "encoder.training.step_ms.p50"),
    "sigtest-isnotes": ("encoder.", "context.", "dataset."),
    "train-desk": ("evaluation.", "encoder.checkpoint.load_s"),
}


def _run(root: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(root, workload, trace)
            label = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append(f"{label}: checks failed {result}")
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json "
                                f"{sorted(set(got) ^ set(want))}")
            for name, metric in result["metrics"].items():
                idle = trace and name.startswith(_IDLE.get(workload, ()))
                if idle and metric["value"] != 0:
                    problems.append(f"{label}: {name} = {metric['value']} "
                                    "on a workload that never runs it")
                if trace == 0 and not metric["value"] > 0:
                    problems.append(f"{label}: {name} = {metric['value']}")
            print(f"ok {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops", flush=True)

    bare = root / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(root / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "train-desk",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("the benchmark ran without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
