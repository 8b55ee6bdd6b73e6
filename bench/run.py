"""infostat benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-desk --seed 3 --seconds 10 --trace 0

Workloads: train-desk, predict-longdoc, sigtest-isnotes, crossval-jobs1
(see bench/README.md). The run makes the workload's inputs from the seed
several times before the timed part and several times after it, and
reports the median set-up time. It runs the timed part in a fresh
interpreter (bench/measure.py), checks every output, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, from a
traced run. ``--size tiny`` shrinks every input for the smoke test.

The run never sets BLAS or OpenMP thread variables; it records them as
found, with the rest of the environment, in the line before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
# Set-up is timed in two blocks, one before and one after the timed part,
# so its median samples two windows of the host's load. Each block makes
# at least this many set-ups and runs until this much time is spent.
SETUP_MIN_REPEATS = 4
SETUP_BLOCK_S = 1.5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS}}


def check_outputs(workload, inputs: dict, seed: int, iterations) -> int:
    """Check every op's output; returns the number of failed ops.

    Outputs of one kind must agree across ops (untraced and traced, and
    --jobs 1 against --jobs 2); at a workload's default seed each is also
    compared with the output stored in bench/reference.
    """
    first: dict[str, str] = {}
    failed = 0
    for it in iterations:
        for op in it["ops"]:
            errors = [] if op["code"] == 0 else [f"exit code {op['code']}"]
            if not errors:
                try:
                    errors = workload.validate(inputs, op)
                    kind, text = workload.signature(inputs, op)
                    if workload.uses_reference(seed):
                        errors += workload.compare_reference(kind, text)
                    elif first.setdefault(kind, text) != text:
                        errors.append(f"{kind} differs between runs of the "
                                      "same inputs")
                except (OSError, ValueError, KeyError, IndexError) as err:
                    errors.append(f"unreadable output: {err!r}")
            if errors:
                failed += 1
                print(f"check failed: infostat {' '.join(op['argv'])}: "
                      + "; ".join(errors), file=sys.stderr)
    return failed


def _rates(workload, inputs: dict, iterations, label: str):
    """Median (mentions/s, rounds/s) over the iterations of one pass."""
    rounds_per_s = statistics.median(workload.rounds() / it["seconds"]
                                     for it in iterations
                                     if it["pass"] == label)
    return rounds_per_s * inputs["mentions"], rounds_per_s


def end_to_end_metrics(workload, inputs, setup_times, measured) -> dict:
    mentions_per_s, rounds_per_s = _rates(workload, inputs,
                                          measured["iterations"], "timed")
    return {"setup_s": statistics.median(setup_times),
            "mentions_per_s": mentions_per_s, "rounds_per_s": rounds_per_s,
            "peak_rss_mb": measured["peak_rss_mb"]}


def per_layer_metrics(workload, inputs, measured) -> dict:
    """Each layer metric is the median over the run's traced iterations of
    its value in one iteration."""
    from tracing import layer_metrics
    iterations = measured["iterations"]
    traced_spans = [it["spans"] for it in iterations if it["pass"] == "traced"]
    per_iteration = [layer_metrics(spans) for spans in traced_spans]
    metrics = {name: statistics.median(m[name] for m in per_iteration)
               for name in per_iteration[0]}
    traced = _rates(workload, inputs, iterations, "traced")
    untraced = _rates(workload, inputs, iterations, "untraced")
    metrics["trace.overhead.mentions_per_s"] = untraced[0] - traced[0]
    metrics["trace.overhead.rounds_per_s"] = untraced[1] - traced[1]
    metrics["trace.overhead_frac"] = 1.0 - traced[1] / untraced[1]
    efficiency = 0.0
    if workload.parallel:
        fold_s = statistics.median(
            sum(end - start for name, start, end, _, _ in spans
                if name == "evaluation.crossval.fold")
            for spans in traced_spans)
        parallel_s = next(it["seconds"] for it in iterations
                          if it["pass"] == "parallel")
        efficiency = fold_s / (workload.p["jobs"] * parallel_s)
    metrics["evaluation.crossval.parallel_efficiency"] = efficiency
    return metrics


def _time_setups(workload, seed: int, work: Path, times: list) -> dict:
    """One block of set-ups, each into a directory of its own; appends their
    times and returns the inputs of the last."""
    block = []
    while len(block) < SETUP_MIN_REPEATS or sum(block) < SETUP_BLOCK_S:
        start = perf_counter()
        inputs = workload.setup(seed, work / f"setup{len(times) + len(block)}")
        block.append(perf_counter() - start)
    times.extend(block)
    return inputs


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "infostat" / "__init__.py").is_file():
        print(f"error: {src / 'infostat'} not found; run from the root of an "
              "infostat checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    workload = WORKLOADS[args.workload](args.size)
    print(json.dumps({"environment": environment()}), flush=True)

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        inputs = _time_setups(workload, args.seed, work, setup_times)

        spec = {"workload": args.workload, "size": args.size,
                "seconds": args.seconds, "trace": args.trace,
                "inputs": inputs, "src": str(src), "out": str(work / "out"),
                "result": str(work / "result.json")}
        (work / "spec.json").write_text(json.dumps(spec))
        # A session of its own, so a timeout also stops the fold workers.
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "measure.py"),
             str(work / "spec.json")],
            stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            code = child.wait(TIME_LIMIT_S - (perf_counter() - started))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        if code != 0:
            print(f"error: the timed run exited with {code}", file=sys.stderr)
            return 1
        measured = json.loads((work / "result.json").read_text())
        _time_setups(workload, args.seed, work, setup_times)

        iterations = measured["iterations"]
        failed = check_outputs(workload, inputs, args.seed, iterations)
        if args.trace:
            values = per_layer_metrics(workload, inputs, measured)
            names = declared["per_layer"]
        else:
            values = end_to_end_metrics(workload, inputs, setup_times, measured)
            names = declared["end_to_end"]
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {TIME_LIMIT_S:.0f} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != {m["name"] for m in names}:
        print("error: measured metrics do not match BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in names})}",
              file=sys.stderr)
        return 1
    attempted = sum(len(it["ops"]) for it in iterations)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
