"""Every command runs without scipy installed.

The case runs a fresh interpreter with sys.modules["scipy"] = None, so any
import of scipy, or of a scipy submodule, raises; this test process has
scipy loaded, as the test oracle of tests/test_erf.py.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import infostat

SRC = str(Path(infostat.__file__).resolve().parents[1])


def fresh_python(code: str, cwd: Path) -> str:
    """stdout of `code` run by a new interpreter that imports this infostat."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    """predict runs GELU in its worker threads, and crossval --jobs 2 in
    forked fold workers, which inherit the unimportable scipy."""
    for name, shift in (("a", 3), ("b", 5)):
        (tmp_path / f"{name}.jsonl").write_text("".join(
            json.dumps({"mention_id": f"m{i:02d}", "gold": g,
                        "pred": g if i % shift else "new"}) + "\n"
            for i, g in enumerate(["old", "new"] * 20)))
    out = fresh_python("""
        import json, sys, threading
        sys.modules["scipy"] = None

        from infostat import cli
        from infostat.encoder import model

        gelu_threads = set()
        real_gelu = model.gelu_forward

        def gelu_forward(*args, **kwargs):
            gelu_threads.add(threading.current_thread())
            return real_gelu(*args, **kwargs)

        model.gelu_forward = gelu_forward
        shape = ["--layers", "1", "--d-model", "16", "--heads", "4",
                 "--d-ff", "32", "--max-len", "32", "--epochs", "1",
                 "--batch-size", "16"]
        commands = {
            "gen-synthetic": ["--seed", "1", "--docs", "4", "--sentences",
                              "3", "--mentions-per-sentence", "2", "--out",
                              "corpus.json"],
            "build-vocab": ["--corpus", "corpus.json", "--mode", "context2",
                            "--out", "vocab.txt"],
            "train": ["--corpus", "corpus.json", "--out", "run", *shape],
            "predict": ["--corpus", "corpus.json", "--checkpoint",
                        "run/checkpoint.ckpt", "--vocab", "run/vocab.txt",
                        "--out", "preds.jsonl"],
            "crossval": ["--corpus", "corpus.json", "--k", "2", "--jobs",
                         "2", "--out", "cv", *shape],
            "grad-check": ["--layers", "1", "--d-model", "8", "--heads", "2",
                           "--d-ff", "8", "--max-len", "6", "--vocab-size",
                           "8", "--batch-size", "2"],
            "sigtest": ["--a", "a.jsonl", "--b", "b.jsonl", "--rounds",
                        "50"],
        }
        codes = {}
        for command, argv in commands.items():
            gelu_threads.clear()
            codes[command] = cli.main([command, *argv])
            if command == "predict":
                predict_threads = gelu_threads.copy()
        assert predict_threads, "predict ran no GELU"
        assert threading.main_thread() not in predict_threads
        assert sys.modules["scipy"] is None
        assert not [m for m in sys.modules if m.startswith("scipy.")]
        print(json.dumps(codes))
        """, tmp_path)
    codes = json.loads(out.splitlines()[-1])
    assert codes == {command: 0 for command in (
        "gen-synthetic", "build-vocab", "train", "predict", "crossval",
        "grad-check", "sigtest")}
    assert (tmp_path / "cv" / "report.json").exists()
