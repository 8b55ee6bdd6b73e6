"""The benchmark workloads.

Each workload makes its inputs from a seed (the program sees only the
written files), names the CLI calls of one closed-loop iteration, and
checks what those calls wrote. A round is one pass over the workload's
mentions: a training epoch, one predict or crossval run over the corpus,
or one randomization round over the paired predictions.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import random
from pathlib import Path

from infostat import cli
from infostat.corpus import LABELS, load_corpus
from infostat.encoder import load_checkpoint

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PROB_TOLERANCE = 1e-9
LOSS_TOLERANCE = 1e-9
BATCH_SIZE = 32


def run_cli(argv: list[str]) -> str:
    """Run one CLI call in-process and return its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"infostat {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _gen_synthetic(seed: int, docs: int, sentences: int, out: Path) -> int:
    run_cli(["gen-synthetic", "--seed", str(seed), "--docs", str(docs),
             "--sentences", str(sentences), "--mentions-per-sentence", "4",
             "--out", str(out)])
    return docs * sentences * 4


def _model_flags(seed: int) -> list[str]:
    # Desk preset; max_len and batch size are spelled out so that a change
    # of CLI defaults does not change the workload.
    return ["--seed", str(seed), "--mode", "context2", "--max-len", "64",
            "--batch-size", str(BATCH_SIZE)]


def read_reference(path: Path) -> str:
    data = path.read_bytes()
    return (gzip.decompress(data) if path.suffix == ".gz" else data).decode()


class Workload:
    name: str
    default_seed: int
    parallel = False  # whether the traced run adds a parallel iteration
    sizes: dict[str, dict]

    def __init__(self, size: str):
        self.size = size
        self.p = self.sizes[size]

    def setup(self, seed: int, directory: Path) -> dict:
        """Write the inputs under `directory`; returns their paths, the
        seed and the mention count."""
        raise NotImplementedError

    def iteration(self, inputs: dict, out: Path,
                  parallel: bool = False) -> list[list[str]]:
        """The CLI calls of one iteration, all writing under `out`."""
        raise NotImplementedError

    def rounds(self) -> int:
        """Rounds in one iteration; each covers inputs["mentions"]."""
        raise NotImplementedError

    def signature(self, inputs: dict, op: dict) -> tuple[str, str]:
        """(kind, text) of an op's output; ops of one kind must agree."""
        raise NotImplementedError

    def validate(self, inputs: dict, op: dict) -> list[str]:
        """Seed-free invariants of one op's output."""
        raise NotImplementedError

    def compare_reference(self, kind: str, text: str) -> list[str]:
        """Differences from the stored output of the default seed."""
        raise NotImplementedError

    def reference_file(self, kind: str) -> Path:
        raise NotImplementedError

    def uses_reference(self, seed: int) -> bool:
        return self.size == "full" and seed == self.default_seed


class TrainDesk(Workload):
    """Short documents: the encoder's forward, backward and optimizer do
    nearly all the work, and most computed positions are padding."""

    name = "train-desk"
    default_seed = 3
    sizes = {"full": dict(docs=40, sentences=8, epochs=1),
             "tiny": dict(docs=4, sentences=4, epochs=1)}

    def setup(self, seed, directory):
        corpus = directory / "corpus.json"
        mentions = _gen_synthetic(seed, self.p["docs"], self.p["sentences"],
                                  corpus)
        return {"seed": seed, "corpus": str(corpus), "mentions": mentions}

    def iteration(self, inputs, out, parallel=False):
        return [["train", "--corpus", inputs["corpus"], *_model_flags(
            inputs["seed"]), "--epochs", str(self.p["epochs"]),
            "--out", str(out)]]

    def rounds(self):
        return self.p["epochs"]

    def signature(self, inputs, op):
        return "loss_log", (Path(op["out"]) / "loss_log.json").read_text()

    def validate(self, inputs, op):
        log = json.loads((Path(op["out"]) / "loss_log.json").read_text())
        losses = log["epoch_losses"]
        steps = self.p["epochs"] * math.ceil(inputs["mentions"] / BATCH_SIZE)
        errors = []
        if len(losses) != self.p["epochs"] or log["steps"] != steps:
            errors.append(f"{len(losses)} epochs and {log['steps']} steps, "
                          f"expected {self.p['epochs']} and {steps}")
        if not all(math.isfinite(x) and x > 0 for x in losses):
            errors.append(f"epoch losses {losses} are not finite and positive")
        load_checkpoint(Path(op["out"]) / "checkpoint.ckpt")
        return errors

    def reference_file(self, kind):
        return REFERENCE_DIR / f"{self.name}.loss_log.json"

    def compare_reference(self, kind, text):
        got = json.loads(text)
        want = json.loads(read_reference(self.reference_file(kind)))
        if got["steps"] != want["steps"] or len(got["epoch_losses"]) != \
                len(want["epoch_losses"]):
            return ["loss log shape differs from the reference"]
        return [f"epoch {i} loss {g!r} differs from reference {w!r}"
                for i, (g, w) in enumerate(zip(got["epoch_losses"],
                                               want["epoch_losses"]))
                if abs(g - w) > LOSS_TOLERANCE * abs(w)]


class PredictLongdoc(Workload):
    """Long documents: forward-only batches of hundreds of rows per
    document, and the per-mention overlap scan over earlier mentions."""

    name = "predict-longdoc"
    default_seed = 5
    sizes = {"full": dict(docs=3, sentences=175, train_docs=2, train_sentences=8),
             "tiny": dict(docs=2, sentences=12, train_docs=1, train_sentences=4)}

    def setup(self, seed, directory):
        corpus = directory / "corpus.json"
        mentions = _gen_synthetic(seed, self.p["docs"], self.p["sentences"],
                                  corpus)
        train_corpus = directory / "train-corpus.json"
        _gen_synthetic(seed, self.p["train_docs"], self.p["train_sentences"],
                       train_corpus)
        model = directory / "model"
        run_cli(["train", "--corpus", str(train_corpus), *_model_flags(seed),
                 "--epochs", "1", "--out", str(model)])
        return {"seed": seed, "corpus": str(corpus), "mentions": mentions,
                "checkpoint": str(model / "checkpoint.ckpt"),
                "vocab": str(model / "vocab.txt")}

    def iteration(self, inputs, out, parallel=False):
        return [["predict", "--corpus", inputs["corpus"], "--checkpoint",
                 inputs["checkpoint"], "--vocab", inputs["vocab"],
                 "--out", str(out / "predictions.jsonl")]]

    def rounds(self):
        return 1

    def signature(self, inputs, op):
        return "predictions", (Path(op["out"]) / "predictions.jsonl").read_text()

    def validate(self, inputs, op):
        corpus = load_corpus(inputs["corpus"])
        expected = [m.id for d in corpus.documents for m in d.mentions]
        rows = [json.loads(line) for line in
                self.signature(inputs, op)[1].splitlines()]
        errors = []
        if [r["mention_id"] for r in rows] != expected:
            errors.append(f"{len(rows)} predictions do not match the "
                          f"{len(expected)} mentions in corpus order")
        for r in rows:
            probs = r["probs"]
            best = LABELS[max(range(len(probs)), key=probs.__getitem__)]
            if len(probs) != len(LABELS) or \
                    abs(math.fsum(probs) - 1.0) > PROB_TOLERANCE or \
                    r["pred"] != best.value:
                errors.append(f"mention {r['mention_id']}: probabilities "
                              "are not a distribution with pred at the argmax")
                break
        return errors

    def reference_file(self, kind):
        return REFERENCE_DIR / f"{self.name}.predictions.jsonl.gz"

    def compare_reference(self, kind, text):
        want = read_reference(self.reference_file(kind))
        got_rows = [json.loads(line) for line in text.splitlines()]
        want_rows = [json.loads(line) for line in want.splitlines()]
        if [(r["mention_id"], r["pred"]) for r in got_rows] != \
                [(r["mention_id"], r["pred"]) for r in want_rows]:
            return ["predicted classes differ from the reference"]
        worst = max(abs(g - w) for gr, wr in zip(got_rows, want_rows)
                    for g, w in zip(gr["probs"], wr["probs"]))
        if worst > PROB_TOLERANCE:
            return [f"probabilities differ from the reference by {worst:.3g}"]
        return []


# ISNotes-like class shares (old, mediated/*, new) for the gold labels.
_GOLD_WEIGHTS = (0.30, 0.06, 0.12, 0.03, 0.02, 0.05, 0.08, 0.34)


class SigtestIsnotes(Workload):
    """ISNotes-sized paired predictions: only evaluation and rng work; the
    accuracy statistic materialises rounds x n arrays and the F1
    statistic loops over rounds in Python."""

    name = "sigtest-isnotes"
    default_seed = 11
    sizes = {"full": dict(n=10980, rounds=2000),
             "tiny": dict(n=400, rounds=100)}
    f1_class = "old"

    def setup(self, seed, directory):
        directory.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        gold = rng.choices(range(len(LABELS)), _GOLD_WEIGHTS, k=self.p["n"])
        files = {}
        for system, accuracy in (("a", 0.62), ("b", 0.60)):
            lines = []
            for i, g in enumerate(gold):
                pred = g if rng.random() < accuracy \
                    else rng.randrange(len(LABELS))
                weights = [rng.random() for _ in LABELS]
                weights[pred] += len(LABELS)
                total = sum(weights)
                lines.append(json.dumps({
                    "mention_id": f"isnotes-{i:05d}", "gold": LABELS[g].value,
                    "pred": LABELS[pred].value,
                    "probs": [w / total for w in weights]}))
            path = directory / f"{system}.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            files[system] = str(path)
        return {"seed": seed, "mentions": self.p["n"], **files}

    def iteration(self, inputs, out, parallel=False):
        common = ["sigtest", "--a", inputs["a"], "--b", inputs["b"],
                  "--rounds", str(self.p["rounds"]), "--seed",
                  str(inputs["seed"])]
        return [common + ["--statistic", "accuracy"],
                common + ["--statistic", "f1", "--f1-class", self.f1_class]]

    def rounds(self):
        return 2 * self.p["rounds"]

    def signature(self, inputs, op):
        return op["argv"][op["argv"].index("--statistic") + 1], op["stdout"]

    def validate(self, inputs, op):
        p = float(op["stdout"].split("p-value:")[1])
        return [] if 0.0 < p <= 1.0 else [f"p-value {p} outside (0, 1]"]

    def reference_file(self, kind):
        return REFERENCE_DIR / f"{self.name}.{kind}.txt"

    def compare_reference(self, kind, text):
        want = read_reference(self.reference_file(kind))
        return [] if text == want else \
            [f"{kind} output {text.strip()!r} differs from {want.strip()!r}"]


class CrossvalJobs1(Workload):
    """The paper's document-level protocol. It is timed with one fold
    worker: with two, each worker's BLAS runs as many threads as there
    are cores, and the oversubscribed run times vary too widely to bound
    (see README.md). The traced run adds a --jobs 2 iteration and reports
    its parallel efficiency."""

    name = "crossval-jobs1"
    default_seed = 7
    parallel = True
    sizes = {"full": dict(docs=16, sentences=8, k=4, epochs=1, jobs=2),
             "tiny": dict(docs=4, sentences=4, k=2, epochs=1, jobs=2)}

    def setup(self, seed, directory):
        corpus = directory / "corpus.json"
        mentions = _gen_synthetic(seed, self.p["docs"], self.p["sentences"],
                                  corpus)
        return {"seed": seed, "corpus": str(corpus), "mentions": mentions}

    def iteration(self, inputs, out, parallel=False):
        jobs = self.p["jobs"] if parallel else 1
        return [["crossval", "--corpus", inputs["corpus"], *_model_flags(
            inputs["seed"]), "--k", str(self.p["k"]), "--epochs",
            str(self.p["epochs"]), "--jobs", str(jobs), "--out", str(out)]]

    def rounds(self):
        return 1

    def signature(self, inputs, op):
        # The report's counts hide small drifts; the fold predictions
        # carry every probability.
        out = Path(op["out"])
        return "outputs", "".join(
            path.read_text() for path in [out / "report.json"] + sorted(
                out.glob("fold-*/predictions.jsonl")))

    def validate(self, inputs, op):
        report = json.loads((Path(op["out"]) / "report.json").read_text())
        corpus = load_corpus(inputs["corpus"])
        errors = []
        if report["n"] != inputs["mentions"] or \
                sum(map(sum, report["confusion"])) != inputs["mentions"]:
            errors.append(f"report covers {report['n']} mentions, "
                          f"expected {inputs['mentions']}")
        tested = sorted(doc for fold in report["folds"]
                        for doc in fold["documents"])
        if tested != sorted(d.id for d in corpus.documents):
            errors.append("folds do not partition the corpus documents")
        for fold in report["folds"]:
            lines = (Path(op["out"]) / f"fold-{fold['fold']:02d}" /
                     "predictions.jsonl").read_text().splitlines()
            if len(lines) != fold["n"]:
                errors.append(f"fold {fold['fold']} wrote {len(lines)} "
                              f"predictions for {fold['n']} mentions")
        return errors

    def reference_file(self, kind):
        return REFERENCE_DIR / f"{self.name}.outputs.txt.gz"

    def compare_reference(self, kind, text):
        return [] if text == read_reference(self.reference_file(kind)) else \
            ["report.json or fold predictions differ from the reference"]


WORKLOADS = {w.name: w for w in (TrainDesk, PredictLongdoc, SigtestIsnotes,
                                 CrossvalJobs1)}
