"""Write the reference outputs that bench/run.py compares at default seeds.

Usage, from the root of a checkout:

    python3 bench/make_reference.py

For each workload it makes the full-size inputs at the
workload's default seed, runs one iteration through the CLI and stores the
output under bench/reference. Rerun it only in a change that means to alter
the program's outputs, and say so in that change.
"""

from __future__ import annotations

import gzip
import shutil
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, run_cli

    work = root / ".bench_work" / "reference"
    for name, make in WORKLOADS.items():
        workload = make("full")
        shutil.rmtree(work, ignore_errors=True)
        try:
            inputs = workload.setup(workload.default_seed, work / "setup")
            for argv in workload.iteration(inputs, work / "out"):
                op = {"argv": argv, "out": str(work / "out"), "code": 0,
                      "stdout": run_cli(argv)}
                errors = workload.validate(inputs, op)
                if errors:
                    print(f"{name}: {'; '.join(errors)}", file=sys.stderr)
                    return 1
                kind, text = workload.signature(inputs, op)
                path = workload.reference_file(kind)
                data = text.encode("utf-8")
                if path.suffix == ".gz":
                    data = gzip.compress(data, mtime=0)
                path.write_bytes(data)
                print(f"wrote {path.relative_to(root)}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
