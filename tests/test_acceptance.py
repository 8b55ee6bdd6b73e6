"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1-4 and 6-9
are here, each finishing in well under a minute. Criterion 5, the
cross-validation context ablation, is not in this file yet: it is pending
ROADMAP open item 1.
"""

import dataclasses
import functools
import json
import time

import numpy as np
import pytest

from infostat import cli, context as ctx, corpus as cp, evaluation as ev
from infostat.dataset import encode_pairs
from infostat.encoder import (Batch, ModelConfig, TrainConfig, forward,
                              gradient_check, init_params, loss_and_gradients,
                              make_check_batch, predict_batch, train)
from infostat.encoder.gradcheck import make_check_params
from infostat.encoder.model import WIDTH_MULTIPLE
from infostat.encoder.layers import attention_weights
from infostat.rng import SplitMix64, counter_uniforms

LBL = list(cp.LABELS)


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {title}")
                raise
            elapsed = time.time() - started
            suffix = f" ({detail})" if isinstance(detail, str) else ""
            print(f"[criterion {number}] PASS  {title} "
                  f"[{elapsed:.1f}s]{suffix}")
        return run
    return wrap


@criterion(1, "gradient fidelity vs central finite differences")
def test_criterion_1_gradient_fidelity():
    config = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=64,
                         max_len=16, vocab_size=32, dropout_rate=0.0)
    batch = make_check_batch(config, seed=0, batch_size=4)
    started = time.time()
    report = gradient_check(config, batch, seed=0, epsilon=1e-5)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    assert report.max_relative_error < 1e-4, report.per_tensor
    for name, err in report.per_tensor.items():
        assert err < 1e-4, f"tensor {name}: {err:.3e}"
    return (f"{report.n_entries} entries, "
            f"max rel err {report.max_relative_error:.2e}")


@criterion(2, "attention rows normalize; masked positions carry zero weight")
def test_criterion_2_attention_normalization():
    worst = 0.0
    for trial in range(100):
        rng = SplitMix64(trial)
        b = 1 + rng.randint(4)
        h = 1 + rng.randint(4)
        n = 2 + rng.randint(10)
        d = 1 + rng.randint(12)
        size = b * h * n * d
        q = (counter_uniforms(3 * trial + 1, size) * 8 - 4).reshape(b, h, n, d)
        k = (counter_uniforms(3 * trial + 2, size) * 8 - 4).reshape(b, h, n, d)
        mask = np.zeros((b, n), dtype=np.int64)
        for row in range(b):
            mask[row, :1 + rng.randint(n)] = 1
        weights = attention_weights(q, k, mask[:, None, :])
        sums = weights.sum(axis=-1)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
        assert np.all(np.abs(sums - 1.0) <= 1e-6)
        masked = np.broadcast_to((mask == 0)[:, None, None, :], weights.shape)
        assert np.all(weights[masked] == 0.0)
    return f"100 seeds/shapes, worst row-sum deviation {worst:.2e}"


@criterion(3, "padding mutations are inert bit-for-bit")
def test_criterion_3_padding_inertness():
    configs = [
        ModelConfig(n_layers=1, d_model=16, n_heads=4, d_ff=32, max_len=12,
                    vocab_size=24, dropout_rate=0.0),
        ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64, max_len=20,
                    vocab_size=40, dropout_rate=0.0),
    ]
    trials = trimmed = 0
    for c_idx, config in enumerate(configs):
        params = init_params(config, c_idx)
        train_config = dataclasses.replace(config, dropout_rate=0.1)
        for trial in range(50):
            rng = SplitMix64(1000 * c_idx + trial)
            batch = make_check_batch(config, seed=trial, batch_size=4)
            padded = np.argwhere(batch.mask == 0)
            if len(padded) == 0:
                continue
            ids = batch.ids.copy()
            for row, col in padded:
                ids[row, col] = rng.randint(config.vocab_size)
            mutated = Batch(ids=ids, mask=batch.mask, segments=batch.segments,
                            is_index=batch.is_index, labels=batch.labels)

            # The last block's keys read every position and it returns the
            # [IS] states: its input must match at every real position.
            h_ref, cache_ref = forward(batch.ids, batch.mask, batch.segments,
                                       batch.is_index, params, config)
            h_mut, cache_mut = forward(mutated.ids, mutated.mask,
                                       mutated.segments, mutated.is_index,
                                       params, config)
            assert np.array_equal(h_ref, h_mut)
            unmasked = batch.mask.astype(bool)
            last_in_ref = cache_ref["layer_caches"][-1]["cache_k"][0]
            last_in_mut = cache_mut["layer_caches"][-1]["cache_k"][0]
            assert np.array_equal(last_in_ref[unmasked],
                                  last_in_mut[unmasked])

            loss_ref, _ = loss_and_gradients(batch, params, config,
                                             train_mode=False)
            loss_mut, _ = loss_and_gradients(mutated, params, config,
                                             train_mode=False)
            assert loss_ref == loss_mut
            # A training step with dropout, on the trimmed batch.
            loss_ref, grads_ref = loss_and_gradients(
                batch, params, train_config, train_mode=True,
                dropout_seed=c_idx, step=trial)
            loss_mut, grads_mut = loss_and_gradients(
                mutated, params, train_config, train_mode=True,
                dropout_seed=c_idx, step=trial)
            assert loss_ref == loss_mut
            for name in grads_ref:
                assert grads_ref[name].tobytes() == \
                    grads_mut[name].tobytes(), name

            probs_ref = predict_batch(batch, params, config)
            probs_mut = predict_batch(mutated, params, config)
            assert np.array_equal(probs_ref, probs_mut)
            trials += 1
            # predict_batch and the training step trim the batch (here one
            # predict chunk) to the longest row rounded up to
            # WIDTH_MULTIPLE; count trials whose mutated padding lies inside
            # such a trimmed width.
            longest = int(batch.mask.sum(axis=1).max())
            cols = -(-longest // WIDTH_MULTIPLE) * WIDTH_MULTIPLE
            if cols < config.max_len and np.any(batch.mask[:, :cols] == 0):
                trimmed += 1
    assert trials >= 100
    assert trimmed >= 20
    return (f"{trials} mutation trials ({trimmed} inside a trimmed "
            "predict chunk and training width), all bit-identical")


@criterion(4, "desk-preset model overfits a 64-mention dataset")
def test_criterion_4_overfit_capacity():
    corpus = cp.generate_synthetic(seed=21, n_docs=4, sentences_per_doc=4,
                                   mentions_per_sentence=4)
    assert corpus.total_mentions() == 64
    mode = ctx.LOCAL_CONTEXT_OVERLAP
    vocab = ctx.build_vocab(corpus, mode)
    config = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256,
                         max_len=64, vocab_size=len(vocab), dropout_rate=0.1)
    pairs = [(d, m) for d in corpus.documents for m in d.mentions]
    data = encode_pairs(pairs, mode, vocab, config.max_len,
                        require_labels=True)

    started = time.time()
    chunk = 25
    epochs_done = 0
    params = None
    while epochs_done < 300:
        tc = TrainConfig(epochs=chunk, learning_rate=1e-3, batch_size=16,
                         seed=epochs_done)
        result = train(data, config, tc, init=params)
        params = result.params
        epochs_done += chunk
        probs = predict_batch(data, params, config)
        accuracy = float(np.mean(np.argmax(probs, axis=1) == data.labels))
        if accuracy == 1.0:
            break
    elapsed = time.time() - started
    assert accuracy == 1.0, f"training accuracy {accuracy} after 300 epochs"
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"
    return f"accuracy 1.0 after <= {epochs_done} epochs in {elapsed:.0f}s"


@criterion(6, "pseudo-sentence invariants hold exhaustively")
def test_criterion_6_pseudo_sentence_invariants():
    corpora = [
        cp.generate_synthetic(seed=31, n_docs=6, sentences_per_doc=6,
                              mentions_per_sentence=4),
        cp.generate_synthetic(seed=32, n_docs=3, sentences_per_doc=2,
                              mentions_per_sentence=1),
        cp.generate_synthetic(seed=33, n_docs=2, sentences_per_doc=10,
                              mentions_per_sentence=5),
    ]
    modes = [ctx.MENTION_ONLY, ctx.LOCAL_CONTEXT, ctx.LOCAL_CONTEXT_OVERLAP,
             ctx.ContextMode(ctx.ContextKind.LOCAL_CONTEXT_OVERLAP, 2)]
    checked = 0
    for corpus in corpora:
        for mode in modes:
            for max_len in (8, 16, 48):
                if max_len < 5 and mode.has_overlap:
                    continue
                for document in corpus.documents:
                    for mention in document.mentions:
                        ps = ctx.build_pseudo_sentence(mention, document,
                                                       mode, max_len)
                        assert len(ps) <= max_len
                        assert ps.surface_tokens[-1] == "[IS]"
                        assert ps.is_index == len(ps) - 1
                        delims = ps.surface_tokens.count("[DELIM]")
                        assert delims == (1 if mode.has_context else 0)
                        if mode.has_overlap:
                            assert ps.surface_tokens[0] in ("[STR+]", "[STR-]")
                            assert ps.surface_tokens[1] in ("[HEAD+]", "[HEAD-]")
                        mention_tokens = document.mention_tokens(mention)
                        first_kept = (ps.delimiter_index + 1
                                      if mode.has_context else 0)
                        kept = ps.surface_tokens[first_kept:-1]
                        if ps.truncated:
                            # a strict prefix of the mention survives
                            assert len(kept) < len(mention_tokens)
                            assert kept == mention_tokens[:len(kept)]
                        else:
                            assert kept == mention_tokens
                        checked += 1
    return f"{checked} pseudo sentences checked"


def brute_force_metrics(preds, gold):
    confusion = [[0] * 8 for _ in range(8)]
    for p, g in zip(preds, gold):
        confusion[LBL.index(g)][LBL.index(p)] += 1
    out = {}
    for c, label in enumerate(LBL):
        tp = confusion[c][c]
        fp = sum(confusion[r][c] for r in range(8)) - tp
        fn = sum(confusion[c]) - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        out[label] = (p, r, f, tp + fn)
    acc = sum(confusion[c][c] for c in range(8)) / len(gold)
    return confusion, out, acc


@criterion(7, "scorer equals brute-force confusion counting")
def test_criterion_7_metrics_oracle():
    rng = SplitMix64(77)
    for _ in range(1000):
        n = 1 + rng.randint(60)
        preds = [LBL[rng.randint(8)] for _ in range(n)]
        gold = [LBL[rng.randint(8)] for _ in range(n)]
        report = ev.score(preds, gold)
        confusion, metrics, acc = brute_force_metrics(preds, gold)
        assert report.confusion.tolist() == confusion
        assert report.accuracy == acc
        for label, (p, r, f, s) in metrics.items():
            m = report.per_class[label]
            assert (m.precision, m.recall, m.f1, m.support) == (p, r, f, s)

    old, new = cp.ISLabel.OLD, cp.ISLabel.NEW
    hand = ev.score([old, old, new], [old, new, new])
    assert abs(hand.accuracy - 2 / 3) < 1e-12
    assert abs(hand.per_class[old].f1 - 2 / 3) < 1e-12
    assert abs(hand.per_class[new].f1 - 2 / 3) < 1e-12
    assert hand.per_class[old].precision == 0.5
    assert hand.per_class[new].recall == 0.5
    return "1000 random vectors exact, hand case exact"


@criterion(8, "randomization test matches exact enumeration")
def test_criterion_8_randomization_test():
    gold_n = 30
    gold = [LBL[i % 8] for i in range(gold_n)]
    preds = [LBL[(i + 3) % 8] for i in range(gold_n)]
    assert ev.randomization_test(preds, preds, gold, rounds=1000, seed=0) == 1.0

    rounds = 100_000
    details = []
    for n in (6, 8, 10):
        rng = SplitMix64(n)
        gold = [LBL[rng.randint(8)] for _ in range(n)]
        preds_a = [LBL[rng.randint(3)] for _ in range(n)]
        preds_b = [LBL[rng.randint(3)] for _ in range(n)]
        p_mc = ev.randomization_test(preds_a, preds_b, gold, rounds=rounds,
                                     seed=4242)
        correct_a = [int(p == g) for p, g in zip(preds_a, gold)]
        correct_b = [int(p == g) for p, g in zip(preds_b, gold)]
        observed = abs(sum(correct_a) - sum(correct_b))
        hits = 0
        for pattern in range(2 ** n):
            diff = 0
            for i in range(n):
                delta = correct_a[i] - correct_b[i]
                diff += -delta if pattern >> i & 1 else delta
            if abs(diff) >= observed:
                hits += 1
        exact = hits / 2 ** n
        se = np.sqrt(max(exact * (1 - exact), 1e-12) / rounds)
        assert abs(p_mc - exact) <= 3 * se + 2 / rounds, \
            f"n={n}: mc {p_mc} vs exact {exact} (se {se:.2e})"
        details.append(f"n={n}: |mc-exact|={abs(p_mc - exact):.1e}")
    return "; ".join(details)


@criterion(9, "command-line runs are byte-reproducible, including --jobs 2")
def test_criterion_9_cli_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.json"
    args = ["gen-synthetic", "--seed", "5", "--docs", "6", "--sentences", "3",
            "--mentions-per-sentence", "2", "--out", str(corpus_path)]
    assert cli.main(args) == 0
    first = corpus_path.read_bytes()
    assert cli.main(args) == 0
    assert corpus_path.read_bytes() == first

    fast = ["--layers", "1", "--d-model", "16", "--heads", "4", "--d-ff",
            "32", "--max-len", "32", "--epochs", "2", "--learning-rate",
            "1e-3", "--batch-size", "16"]
    train_out = tmp_path / "train-out"
    train_args = ["train", "--corpus", str(corpus_path), "--mode", "context2",
                  "--seed", "3", "--out", str(train_out)] + fast
    artifacts = ("checkpoint.ckpt", "vocab.txt", "loss_log.json",
                 "resolved_config.json")
    assert cli.main(train_args) == 0
    snapshot = {a: (train_out / a).read_bytes() for a in artifacts}
    assert cli.main(train_args) == 0
    for artifact in artifacts:
        assert (train_out / artifact).read_bytes() == snapshot[artifact], \
            artifact

    cv_outs = []
    for name, jobs in (("cv1", "1"), ("cv2", "1"), ("cv4", "2")):
        out = tmp_path / name
        assert cli.main(["crossval", "--corpus", str(corpus_path), "--mode",
                         "context2", "--k", "2", "--seed", "1", "--jobs",
                         jobs, "--out", str(out)] + fast) == 0
        cv_outs.append(out)
    report = (cv_outs[0] / "report.json").read_bytes()
    assert (cv_outs[1] / "report.json").read_bytes() == report
    assert (cv_outs[2] / "report.json").read_bytes() == report, \
        "--jobs 2 must reproduce the sequential report"
    for fold in ("fold-00", "fold-01"):
        ref = (cv_outs[0] / fold / "predictions.jsonl").read_bytes()
        assert (cv_outs[2] / fold / "predictions.jsonl").read_bytes() == ref
    return "gen-synthetic, train, crossval (+parallel folds) byte-identical"
