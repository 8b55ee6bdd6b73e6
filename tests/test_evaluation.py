import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infostat import context as ctx
from infostat import corpus as cp
from infostat import evaluation as ev
from infostat.dataset import encode_pairs
from infostat.encoder import ModelConfig, TrainConfig, predict_batch, train
from infostat.rng import SplitMix64, counter_u64, derive_seed

LBL = list(cp.LABELS)


def label_corpus(n_docs: int) -> cp.Corpus:
    return cp.generate_synthetic(seed=1, n_docs=n_docs, sentences_per_doc=3,
                                 mentions_per_sentence=2)


class TestSplitFolds:
    def test_fifty_documents_ten_folds_of_five(self):
        split = ev.split_folds(label_corpus(50), k=10, seed=0)
        sizes = [len(split.documents_in(f)) for f in range(10)]
        assert sizes == [5] * 10

    def test_singleton_folds(self):
        split = ev.split_folds(label_corpus(10), k=10, seed=0)
        assert sorted(len(split.documents_in(f)) for f in range(10)) == [1] * 10

    def test_deterministic(self):
        a = ev.split_folds(label_corpus(12), k=5, seed=3)
        b = ev.split_folds(label_corpus(12), k=5, seed=3)
        assert a == b
        c = ev.split_folds(label_corpus(12), k=5, seed=4)
        assert c != a

    def test_too_many_folds_is_an_error(self):
        with pytest.raises(ValueError, match="cannot split"):
            ev.split_folds(label_corpus(3), k=4, seed=0)

    @given(st.integers(1, 30), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_partition_with_balanced_sizes(self, n_docs, seed):
        corpus = label_corpus(n_docs)
        k = 1 + seed % n_docs
        split = ev.split_folds(corpus, k=k, seed=seed)
        assigned = sorted(split.assignments)
        assert assigned == sorted(d.id for d in corpus.documents)
        sizes = [len(split.documents_in(f)) for f in range(k)]
        assert sum(sizes) == n_docs
        assert max(sizes) - min(sizes) <= 1


def brute_force_report(preds, gold):
    """Independent confusion counting with explicit loops."""
    confusion = [[0] * 8 for _ in range(8)]
    for p, g in zip(preds, gold):
        confusion[LBL.index(g)][LBL.index(p)] += 1
    metrics = {}
    for c, label in enumerate(LBL):
        tp = confusion[c][c]
        fp = sum(confusion[r][c] for r in range(8)) - tp
        fn = sum(confusion[c]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) \
            if precision + recall else 0.0
        metrics[label] = (precision, recall, f1, tp + fn)
    accuracy = sum(confusion[c][c] for c in range(8)) / len(gold)
    return confusion, metrics, accuracy


class TestScore:
    def test_perfect_system(self):
        gold = [LBL[i % 8] for i in range(40)]
        report = ev.score(gold, gold)
        assert report.accuracy == 1.0
        for label, m in report.per_class.items():
            if m.support:
                assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_hand_computed_case(self):
        old, new = cp.ISLabel.OLD, cp.ISLabel.NEW
        report = ev.score([old, old, new], [old, new, new])
        assert report.accuracy == pytest.approx(2 / 3)
        m_old = report.per_class[old]
        assert (m_old.precision, m_old.recall) == (0.5, 1.0)
        assert m_old.f1 == pytest.approx(2 / 3)
        m_new = report.per_class[new]
        assert (m_new.precision, m_new.recall) == (1.0, 0.5)
        assert m_new.f1 == pytest.approx(2 / 3)
        assert report.confusion.sum() == 3

    def test_matches_brute_force_on_random_vectors(self):
        rng = SplitMix64(42)
        for _ in range(1000):
            n = 1 + rng.randint(40)
            preds = [LBL[rng.randint(8)] for _ in range(n)]
            gold = [LBL[rng.randint(8)] for _ in range(n)]
            report = ev.score(preds, gold)
            confusion, metrics, accuracy = brute_force_report(preds, gold)
            assert report.confusion.tolist() == confusion
            assert report.accuracy == accuracy
            for label, (p, r, f, support) in metrics.items():
                m = report.per_class[label]
                assert (m.precision, m.recall, m.f1, m.support) \
                    == (p, r, f, support)

    def test_confusion_invariants(self):
        rng = SplitMix64(7)
        preds = [LBL[rng.randint(8)] for _ in range(200)]
        gold = [LBL[rng.randint(8)] for _ in range(200)]
        report = ev.score(preds, gold)
        assert int(report.confusion.sum()) == report.n == 200
        assert report.accuracy == np.trace(report.confusion) / 200
        for c, label in enumerate(LBL):
            assert report.per_class[label].support \
                == int(report.confusion[c].sum())

    @given(st.lists(st.tuples(st.sampled_from(LBL), st.sampled_from(LBL)),
                    min_size=1, max_size=100),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, pairs, pyrandom):
        preds = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        base = ev.score(preds, gold)
        order = list(range(len(pairs)))
        pyrandom.shuffle(order)
        permuted = ev.score([preds[i] for i in order], [gold[i] for i in order])
        assert permuted.accuracy == base.accuracy
        assert np.array_equal(permuted.confusion, base.confusion)
        assert permuted.per_class == base.per_class

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ev.score([LBL[0]], [LBL[0], LBL[1]])

    def test_json_shape(self):
        report = ev.score([LBL[0]], [LBL[0]])
        data = report.to_json_dict()
        assert set(data) == {"accuracy", "n", "per_class", "confusion"}
        assert set(data["per_class"]) == {l.value for l in LBL}
        assert set(data["per_class"]["old"]) == {"p", "r", "f", "support"}


def materialised_p(preds_a, preds_b, gold, rounds, seed,
                   statistic="accuracy", f1_label=None) -> float:
    """The randomization test before chunking, kept as the oracle: all
    rounds x n swap bits drawn at once, accuracy by a sign matmul, F1 by a
    loop over rounds."""
    a_idx, b_idx, gold_idx = (np.array([cp.LABEL_INDEX[l] for l in labels])
                              for labels in (preds_a, preds_b, gold))
    n = len(gold)
    bits = counter_u64(derive_seed(seed, "randomization"), rounds * n)
    swap = (bits & np.uint64(1)).astype(bool).reshape(rounds, n)
    if statistic == "accuracy":
        delta = (a_idx == gold_idx).astype(np.int64) \
            - (b_idx == gold_idx).astype(np.int64)
        observed = abs(int(delta.sum()))
        signs = 1 - 2 * swap.astype(np.int64)
        return (int(np.sum(np.abs(signs @ delta) >= observed)) + 1) \
            / (rounds + 1)
    c = cp.LABEL_INDEX[f1_label]

    def f1(pred_idx):
        tp = int(np.sum((pred_idx == c) & (gold_idx == c)))
        fp = int(np.sum((pred_idx == c) & (gold_idx != c)))
        fn = int(np.sum((pred_idx != c) & (gold_idx == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return 2 * precision * recall / (precision + recall) \
            if precision + recall else 0.0

    observed = abs(f1(a_idx) - f1(b_idx))
    exceed = 0
    for r in range(rounds):
        sa = np.where(swap[r], b_idx, a_idx)
        sb = np.where(swap[r], a_idx, b_idx)
        if abs(f1(sa) - f1(sb)) >= observed:
            exceed += 1
    return (exceed + 1) / (rounds + 1)


def paired_systems(n, seed, absent=(), accuracies=(0.6, 0.55)):
    """(preds_a, preds_b, gold) of two noisy systems over the labels not in
    `absent`, right about as often as `accuracies` says."""
    rng = SplitMix64(seed)
    present = [l for l in LBL if l not in absent]
    gold = [present[rng.randint(len(present))] for _ in range(n)]

    def system(accuracy):
        return [g if rng.uniform() < accuracy
                else present[rng.randint(len(present))] for g in gold]

    accuracy_a, accuracy_b = accuracies
    return system(accuracy_a), system(accuracy_b), gold


def discordant(preds_a, preds_b, gold, f1_label=None) -> int:
    """How many items count differently in the two systems: [correct], or
    [tp, fp, fn] of `f1_label`. Only these can move under a swap."""
    def counts(pred, g):
        if f1_label is None:
            return pred == g
        return (pred == f1_label == g, pred == f1_label != g,
                pred != f1_label == g)

    return sum(counts(a, g) != counts(b, g)
               for a, b, g in zip(preds_a, preds_b, gold))


@pytest.fixture()
def draws(monkeypatch):
    """The number of swap bits in every draw randomization_test makes."""
    counts = []

    def spy(seed, count, offset=0):
        counts.append(count * np.size(offset))
        return counter_u64(seed, count, offset)

    monkeypatch.setattr(ev, "counter_u64", spy)
    return counts


class TestRandomizationTest:
    def test_identical_systems_give_p_one(self, draws):
        gold = [LBL[i % 8] for i in range(25)]
        preds = [LBL[(i + 1) % 8] for i in range(25)]
        for statistic, label in (("accuracy", None), ("f1", LBL[1])):
            p = ev.randomization_test(preds, list(preds), gold, rounds=500,
                                      seed=0, statistic=statistic,
                                      f1_label=label)
            assert p == 1.0
            assert p == materialised_p(preds, preds, gold, 500, 0, statistic,
                                       label)
        assert draws == []  # no item can move, so no swap bit is drawn

    def test_concordant_items_draw_no_bits(self, monkeypatch):
        n, rounds = 61, 40
        preds_a, preds_b, gold = paired_systems(n, seed=8)
        offsets = []

        def spy(seed, count, offset=0):
            offsets.append(np.asarray(offset).ravel())
            return counter_u64(seed, count, offset)

        monkeypatch.setattr(ev, "counter_u64", spy)
        ev.randomization_test(preds_a, preds_b, gold, rounds=rounds, seed=0)
        drawn = np.concatenate(offsets)
        correct_a, correct_b = ([p == g for p, g in zip(preds, gold)]
                                for preds in (preds_a, preds_b))
        concordant = {i for i in range(n) if correct_a[i] == correct_b[i]}
        assert concordant and len(concordant) < n
        assert not concordant & set((drawn % n).tolist())
        # Every discordant item draws once per round, at position r*n + i.
        assert sorted(drawn.tolist()) == sorted(
            r * n + i for r in range(rounds) for i in range(n)
            if i not in concordant)

    def test_p_matches_exact_enumeration_on_small_n(self):
        rng = SplitMix64(5)
        n = 8
        gold = [LBL[rng.randint(8)] for _ in range(n)]
        preds_a = [LBL[rng.randint(8)] for _ in range(n)]
        preds_b = [LBL[rng.randint(8)] for _ in range(n)]
        rounds = 20000
        p = ev.randomization_test(preds_a, preds_b, gold, rounds=rounds, seed=9)

        correct_a = [int(p_ == g) for p_, g in zip(preds_a, gold)]
        correct_b = [int(p_ == g) for p_, g in zip(preds_b, gold)]
        observed = abs(sum(correct_a) - sum(correct_b))
        hits = 0
        for pattern in range(2 ** n):
            ca = cb = 0
            for i in range(n):
                if pattern >> i & 1:
                    ca += correct_b[i]
                    cb += correct_a[i]
                else:
                    ca += correct_a[i]
                    cb += correct_b[i]
            if abs(ca - cb) >= observed:
                hits += 1
        q = hits / 2 ** n
        allowed = 3 * np.sqrt(q * (1 - q) / rounds) + 2 / rounds
        assert abs(p - q) <= allowed

    def test_unreachable_difference_gives_floor_p(self):
        n = 60
        gold = [LBL[0]] * n
        preds_a = list(gold)          # all correct
        preds_b = [LBL[1]] * n        # all wrong
        for rounds in (100, 2000):
            p = ev.randomization_test(preds_a, preds_b, gold, rounds=rounds,
                                      seed=1)
            assert p == 1 / (rounds + 1)

    def test_p_decreases_as_the_observed_gap_grows(self):
        n = 20
        gold = [LBL[0]] * n
        preds_b = [LBL[1]] * n
        previous = 1.1
        for k in (1, 2, 4, 6, 8, 10):
            preds_a = [LBL[0]] * k + [LBL[1]] * (n - k)
            p = ev.randomization_test(preds_a, preds_b, gold, rounds=20000,
                                      seed=3)
            assert 0.0 < p <= previous
            previous = p

    def test_f1_statistic_runs(self):
        gold = [LBL[0], LBL[0], LBL[1], LBL[7]] * 5
        preds_a = [LBL[0], LBL[1], LBL[1], LBL[7]] * 5
        preds_b = [LBL[1], LBL[1], LBL[0], LBL[7]] * 5
        p = ev.randomization_test(preds_a, preds_b, gold, rounds=200, seed=0,
                                  statistic="f1", f1_label=cp.ISLabel.OLD)
        assert 0.0 < p <= 1.0
        assert p == materialised_p(preds_a, preds_b, gold, 200, 0, "f1",
                                   cp.ISLabel.OLD)
        with pytest.raises(ValueError, match="f1_label"):
            ev.randomization_test(preds_a, preds_b, gold, rounds=10, seed=0,
                                  statistic="f1")

    def test_f1_label_with_accuracy_is_rejected(self):
        preds_a, preds_b, gold = paired_systems(20, seed=0)
        with pytest.raises(ValueError, match="without f1_label"):
            ev.randomization_test(preds_a, preds_b, gold, rounds=10, seed=0,
                                  f1_label=cp.ISLabel.OLD)

    @pytest.mark.parametrize("n, rounds, f1_label, absent", [
        (0, 10, LBL[0], ()),  # no items: nothing can differ, p = 1
        (1, 1, LBL[0], ()),
        (40, 3000, LBL[7], ()),
        (60, 500, LBL[5], (LBL[5],)),  # class absent from gold and both systems
        (97, 50_000, LBL[0], ()),  # several chunks, the last one partial
    ])
    def test_matches_materialised_oracle(self, n, rounds, f1_label, absent,
                                         draws):
        preds_a, preds_b, gold = paired_systems(n, seed=n, absent=absent)
        for statistic, label in (("accuracy", None), ("f1", f1_label)):
            p = ev.randomization_test(preds_a, preds_b, gold, rounds=rounds,
                                      seed=4, statistic=statistic,
                                      f1_label=label)
            assert p == materialised_p(preds_a, preds_b, gold, rounds, 4,
                                       statistic, label)
        assert max(draws, default=0) <= ev.SWAP_DRAWS_PER_CHUNK
        assert sum(draws) == rounds * (
            discordant(preds_a, preds_b, gold)
            + discordant(preds_a, preds_b, gold, f1_label))

    @pytest.mark.parametrize("chunk", [16, 64, 1000])
    def test_small_chunks_match_materialised_oracle(self, chunk, draws,
                                                    monkeypatch):
        # Accuracy can move 46 items: at 16 each round spans three draws, at
        # 64 a draw holds one round, and at 1000 it holds 21 rounds and the
        # last chunk is partial.
        monkeypatch.setattr(ev, "SWAP_DRAWS_PER_CHUNK", chunk)
        preds_a, preds_b, gold = paired_systems(97, seed=2)
        live = [discordant(preds_a, preds_b, gold, label)
                for label in (None, LBL[0])]
        assert live == [46, 12]
        for statistic, label in (("accuracy", None), ("f1", LBL[0])):
            p = ev.randomization_test(preds_a, preds_b, gold, rounds=333,
                                      seed=1, statistic=statistic,
                                      f1_label=label)
            assert p == materialised_p(preds_a, preds_b, gold, 333, 1,
                                       statistic, label)
            if statistic == "accuracy" and chunk == 16:
                assert draws == [16, 16, 14] * 333
        assert max(draws) <= chunk
        assert sum(draws) == 333 * sum(live)

    def test_chunk_size_changes_no_p_value_at_benchmark_scale(self, draws,
                                                             monkeypatch):
        # ISNotes scale, two systems equally good, so that p lies strictly
        # between its extremes and depends on the swap bits. Each p-value is
        # the oracle's at 1 << 19 draws per chunk, at the current size, and
        # at one below the accuracy statistic's discordant count, where each
        # of its rounds spans two draws.
        n, rounds, small = 10980, 150, 4096
        preds_a, preds_b, gold = paired_systems(n, seed=0,
                                                accuracies=(0.6, 0.6))
        live = discordant(preds_a, preds_b, gold)
        assert small < live <= 2 * small
        chunks = (1 << 19, ev.SWAP_DRAWS_PER_CHUNK, small)
        for statistic, label in (("accuracy", None), ("f1", LBL[0])):
            expected = materialised_p(preds_a, preds_b, gold, rounds, 5,
                                      statistic, label)
            assert 1 / (rounds + 1) < expected < 1
            for chunk in chunks:
                monkeypatch.setattr(ev, "SWAP_DRAWS_PER_CHUNK", chunk)
                draws.clear()
                p = ev.randomization_test(preds_a, preds_b, gold,
                                          rounds=rounds, seed=5,
                                          statistic=statistic,
                                          f1_label=label)
                assert p == expected
                assert max(draws) <= chunk
                if statistic == "accuracy" and chunk == small:
                    assert draws == [small, live - small] * rounds

    def test_no_draw_exceeds_the_chunk(self, draws):
        n = 1000
        rounds = 10 * ev.SWAP_DRAWS_PER_CHUNK // n
        preds_a, preds_b, gold = paired_systems(n, seed=3)
        p = ev.randomization_test(preds_a, preds_b, gold, rounds=rounds,
                                  seed=0)
        assert 0.0 < p <= 1.0
        assert len(draws) > 1
        assert max(draws) <= ev.SWAP_DRAWS_PER_CHUNK
        assert sum(draws) == rounds * discordant(preds_a, preds_b, gold)

    @pytest.mark.parametrize("statistic, label",
                             [("accuracy", None), ("f1", LBL[0])])
    @pytest.mark.parametrize("rounds, one_discordant",
                             [(10_000, False), (1_000_000, True)])
    def test_peak_memory_is_bounded_by_the_chunk(self, statistic, label,
                                                 rounds, one_discordant):
        # ISNotes scale, at the CLI's default rounds, or with a single
        # discordant item, which packs the most rounds into a chunk. Three
        # chunk-sized arrays are alive at once, all inside the draw: the
        # stream offsets, the draw output and the scratch of its mixing. The
        # per-item arrays (label indices, counts, moves, discordant items)
        # get 16 int64 per item.
        n = 10980
        preds_a, preds_b, gold = paired_systems(n, seed=0)
        if one_discordant:
            i = gold.index(LBL[0])
            preds_b = list(preds_a)
            preds_b[i] = LBL[1] if preds_a[i] == LBL[0] else LBL[0]
            assert discordant(preds_a, preds_b, gold, label) == 1
        bound = 3 * 8 * ev.SWAP_DRAWS_PER_CHUNK + 16 * 8 * n
        tracemalloc.start()
        try:
            p = ev.randomization_test(preds_a, preds_b, gold, rounds=rounds,
                                      seed=0, statistic=statistic,
                                      f1_label=label)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < p <= 1.0
        assert peak < bound

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            ev.randomization_test([LBL[0]], [LBL[0], LBL[1]], [LBL[0]],
                                  rounds=10, seed=0)


SMALL_MODEL = ModelConfig(n_layers=1, d_model=16, n_heads=4, d_ff=32,
                          max_len=32, vocab_size=8, dropout_rate=0.0)
SMALL_TRAIN = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=16, seed=0)


def mention_pairs(documents):
    return [(d, m) for d in documents for m in d.mentions]


class TestFitPredict:
    def test_matches_the_hand_built_sequence(self):
        corpus = cp.generate_synthetic(seed=2, n_docs=4, sentences_per_doc=3,
                                       mentions_per_sentence=2)
        train_docs, test_docs = corpus.documents[1:], corpus.documents[:1]
        mode = ctx.LOCAL_CONTEXT_OVERLAP
        model, result = ev.fit(train_docs, mode, SMALL_MODEL, SMALL_TRAIN,
                               min_freq=2)
        records = ev.predict(model, test_docs)

        vocab = ctx.build_vocab(cp.Corpus(documents=train_docs), mode, 2)
        config = replace(SMALL_MODEL, vocab_size=len(vocab))
        trained = train(encode_pairs(mention_pairs(train_docs), mode, vocab,
                                     config.max_len, require_labels=True),
                        config, SMALL_TRAIN)
        probs = predict_batch(encode_pairs(mention_pairs(test_docs), mode,
                                           vocab, config.max_len),
                              trained.params, config)
        assert (model.vocab, model.config, model.mode) == (vocab, config, mode)
        assert result.epoch_losses == trained.epoch_losses
        assert model.params.keys() == trained.params.keys()
        for name, tensor in trained.params.items():
            assert model.params[name].tobytes() == tensor.tobytes(), name
        assert [r.mention_id for r in records] \
            == [m.id for _, m in mention_pairs(test_docs)]
        assert np.array([r.probs for r in records]).tobytes() \
            == probs.tobytes()

    def test_documents_without_mentions_predict_nothing(self):
        corpus = label_corpus(2)
        model, _ = ev.fit(corpus.documents, ctx.MENTION_ONLY, SMALL_MODEL,
                          SMALL_TRAIN)
        empty = cp.Document(id="empty", sentences=(("x",),), mentions=())
        assert ev.predict(model, [empty]) == []
        assert ev.predict(model, []) == []


class TestCrossValidation:
    def test_pooled_report_matches_recount(self):
        corpus = cp.generate_synthetic(seed=2, n_docs=6, sentences_per_doc=3,
                                       mentions_per_sentence=2)
        result = ev.run_cross_validation(corpus, ctx.MENTION_ONLY, SMALL_MODEL,
                                         SMALL_TRAIN, k=3, seed=0)
        records = result.pooled_records()
        assert len(records) == corpus.total_mentions()
        matches = sum(r.gold == r.pred for r in records)
        assert result.report.accuracy == matches / len(records)
        pooled = ev.score([r.pred for r in records], [r.gold for r in records])
        assert pooled.accuracy == result.report.accuracy
        assert np.array_equal(pooled.confusion, result.report.confusion)
        assert pooled.per_class == result.report.per_class
        assert len(result.folds) == 3

    def test_rare_class_appears_in_exactly_one_fold(self):
        # Hand-built corpus: comparative mentions exist in one document only.
        def doc(doc_id: str, comparative: bool) -> cp.Document:
            words = ["another", "law", "passed", "the", "vote", "."]
            mentions = [cp.Mention(f"{doc_id}.a", 0, 3, 5, 4,
                                   label=cp.ISLabel.NEW)]
            if comparative:
                mentions.insert(0, cp.Mention(f"{doc_id}.c", 0, 0, 2, 1,
                                              label=cp.ISLabel.MEDIATED_COMPARATIVE))
            return cp.Document(id=doc_id, sentences=(tuple(words),),
                               mentions=tuple(mentions))

        corpus = cp.Corpus(documents=(doc("d0", True), doc("d1", False),
                                      doc("d2", False), doc("d3", False)))
        result = ev.run_cross_validation(corpus, ctx.MENTION_ONLY, SMALL_MODEL,
                                         SMALL_TRAIN, k=4, seed=0)
        comparative = cp.ISLabel.MEDIATED_COMPARATIVE
        with_support = [f for f in result.folds
                        if f.report.per_class[comparative].support > 0]
        assert len(with_support) == 1

    def test_zero_mention_fold_is_an_error(self):
        empty = cp.Document(id="empty", sentences=(("x",),), mentions=())
        full = cp.generate_synthetic(seed=3, n_docs=2, sentences_per_doc=2,
                                     mentions_per_sentence=2)
        corpus = cp.Corpus(documents=full.documents + (empty,))
        with pytest.raises(ValueError, match="zero mentions"):
            ev.run_cross_validation(corpus, ctx.MENTION_ONLY, SMALL_MODEL,
                                    SMALL_TRAIN, k=3, seed=1)

    def test_workers_are_capped_at_the_fold_count(self, monkeypatch):
        # The pool starts every worker at its first submit, so a worker
        # beyond the fold count would be forked only to sit idle.
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(ev, "ProcessPoolExecutor", SerialPool)
        corpus = cp.generate_synthetic(seed=4, n_docs=4, sentences_per_doc=3,
                                       mentions_per_sentence=2)
        result = ev.run_cross_validation(corpus, ctx.LOCAL_CONTEXT, SMALL_MODEL,
                                         SMALL_TRAIN, k=2, seed=5, jobs=8)
        assert asked == [2]
        assert len(result.folds) == 2

    def test_parallel_folds_match_sequential(self):
        corpus = cp.generate_synthetic(seed=4, n_docs=4, sentences_per_doc=3,
                                       mentions_per_sentence=2)
        seq = ev.run_cross_validation(corpus, ctx.LOCAL_CONTEXT, SMALL_MODEL,
                                      SMALL_TRAIN, k=2, seed=5, jobs=1)
        par = ev.run_cross_validation(corpus, ctx.LOCAL_CONTEXT, SMALL_MODEL,
                                      SMALL_TRAIN, k=2, seed=5, jobs=2)
        assert seq.report.accuracy == par.report.accuracy
        assert [f.records for f in seq.folds] == [f.records for f in par.folds]
