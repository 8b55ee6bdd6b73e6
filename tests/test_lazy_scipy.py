"""scipy loads at the first GELU, so commands without an encoder never load it.

Each case runs a fresh interpreter, because this test process has loaded
scipy already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import infostat
from infostat.encoder import (ModelConfig, init_params, make_check_batch,
                              predict_batch)
from infostat.encoder.model import PREDICT_CHUNK_ROWS

SRC = str(Path(infostat.__file__).resolve().parents[1])

CONFIG = dict(n_layers=2, d_model=16, n_heads=4, d_ff=32, max_len=24,
              vocab_size=24, dropout_rate=0.0)
ROWS = 3 * PREDICT_CHUNK_ROWS + 5


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


def test_commands_without_an_encoder_never_load_scipy(tmp_path):
    for name, shift in (("a", 3), ("b", 5)):
        (tmp_path / f"{name}.jsonl").write_text("".join(
            json.dumps({"mention_id": f"m{i:02d}", "gold": g,
                        "pred": g if i % shift else "new"}) + "\n"
            for i, g in enumerate(["old", "new"] * 20)))
    out = fresh_python("""
        import json, sys
        from infostat import cli

        def loaded(*argv):
            if argv:
                assert cli.main(list(argv)) == 0, argv
            return "scipy" in sys.modules

        seen = {
            "import": loaded(),
            "gen-synthetic": loaded("gen-synthetic", "--seed", "1", "--docs",
                                    "4", "--sentences", "3",
                                    "--mentions-per-sentence", "2",
                                    "--out", "corpus.json"),
            "build-vocab": loaded("build-vocab", "--corpus", "corpus.json",
                                  "--mode", "context2", "--out", "vocab.txt"),
            "sigtest": loaded("sigtest", "--a", "a.jsonl", "--b", "b.jsonl",
                              "--rounds", "50"),
            "train": loaded("train", "--corpus", "corpus.json", "--out",
                            "run", "--layers", "1", "--d-model", "16",
                            "--heads", "4", "--d-ff", "32", "--max-len", "32",
                            "--epochs", "1", "--batch-size", "16"),
        }
        print(json.dumps(seen))
        """, tmp_path)
    assert json.loads(out.splitlines()[-1]) == {
        "import": False, "gen-synthetic": False, "build-vocab": False,
        "sigtest": False, "train": True}


def test_first_gelu_in_predict_threads_gives_the_same_bits(tmp_path):
    """The first erf call imports scipy inside predict_batch's worker
    threads, over more than three chunks; the probabilities keep the bits
    this process computes for the same batch."""
    out = fresh_python(f"""
        import sys, threading
        from infostat.encoder import (ModelConfig, init_params,
                                      make_check_batch, predict_batch)
        from infostat.encoder import layers

        config = ModelConfig(**{CONFIG!r})
        batch = make_check_batch(config, 4, batch_size={ROWS})
        params = init_params(config, 7)
        assert "scipy" not in sys.modules
        first_erf = layers._erf
        callers = set()

        def spy(x, out=None):
            callers.add(threading.current_thread())
            return first_erf(x, out=out)

        layers._erf = spy
        probs = predict_batch(batch, params, config)
        assert callers and threading.main_thread() not in callers, callers
        from scipy.special import erf
        assert layers._erf is erf
        print(probs.dtype.str, probs.tobytes().hex())
        """, tmp_path)
    config = ModelConfig(**CONFIG)
    probs = predict_batch(make_check_batch(config, 4, batch_size=ROWS),
                          init_params(config, 7), config)
    assert out.split() == [probs.dtype.str, probs.tobytes().hex()]
