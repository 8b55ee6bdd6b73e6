"""Timed part of one benchmark run, in a fresh interpreter.

Usage: python3 bench/measure.py SPEC.json  (written by bench/run.py)

Runs the workload's CLI calls in-process through ``infostat.cli.main`` in a
closed loop: one client, the next iteration starting when the previous one
has finished, for at least three iterations and then for as long as
another iteration is expected to end within the time budget. Untraced, it
measures the end-to-end rates and the peak RSS; traced, it runs one
warm-up iteration (with parallel workers where the workload has them) and
then alternates untraced and traced iterations, each traced iteration with
a span recorder of its own. It writes the op records, each with the spans
of its iteration when traced, and the peak RSS to the spec's result file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _run_op(cli, argv, recorder):
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if recorder is None:
                code = cli.main(argv)
            else:
                code = recorder.call(f"cli.{argv[0]}", cli.main, (argv,))
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    except Exception:  # an op that crashes is counted as failed, not fatal
        traceback.print_exc()
        code = -1
    return perf_counter() - start, code, out.getvalue()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from infostat import cli
    from tracing import Recorder
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](spec["size"])
    inputs = spec["inputs"]
    out_root = Path(spec["out"])
    iterations = []

    def iterate(label, parallel=False, traced=False):
        out = out_root / f"it{len(iterations):03d}"
        ops = []
        recorder = Recorder() if traced else None
        if recorder is not None:
            recorder.install()
        try:
            for argv in workload.iteration(inputs, out, parallel):
                seconds, code, stdout = _run_op(cli, argv, recorder)
                ops.append({"argv": argv, "out": str(out), "code": code,
                            "seconds": seconds, "stdout": stdout})
        finally:
            if recorder is not None:
                recorder.uninstall()
        seconds = sum(op["seconds"] for op in ops)
        iterations.append({"pass": label, "seconds": seconds, "ops": ops,
                           "spans": recorder.spans if traced else None})
        return seconds

    def loop(next_iteration, minimum):
        start = perf_counter()
        durations = [next_iteration(i) for i in range(minimum)]
        while perf_counter() - start + statistics.median(durations) \
                <= spec["seconds"]:
            durations.append(next_iteration(len(durations)))

    if spec["trace"]:
        # The first iteration warms up (BLAS threads, allocator). Spans
        # cannot cross processes, so a parallel iteration is only ever
        # untraced. Untraced and traced iterations then alternate in the
        # order U T T U, so the tracing overhead compares iterations of the
        # same time window and neither side always runs later.
        iterate("parallel" if workload.parallel else "warmup",
                parallel=workload.parallel)
        loop(lambda i: iterate("traced", traced=True) if i % 4 in (1, 2)
             else iterate("untraced"), minimum=2)
    else:
        # Three iterations at least, so the reported rate is always a
        # median of three or more, however fast the host.
        loop(lambda i: iterate("timed"), minimum=3)

    # Forked fold workers count as well; ru_maxrss is in KiB on Linux.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(
        {"iterations": iterations, "peak_rss_mb": rss_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
