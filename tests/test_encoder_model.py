import threading
import tracemalloc

import numpy as np
import pytest

from infostat import context as ctx
from infostat import corpus as cp
from infostat.evaluation import prediction_records
from infostat.dataset import encode_corpus, encode_pairs
from infostat.encoder import (Batch, ModelConfig, classify, forward, init_params, loss_and_gradients,
                              make_check_batch, predict_batch)
from infostat.encoder.layers import GRID_SLICE_COLS
from infostat.encoder.model import (PREDICT_CHUNK_ROWS, WIDTH_MULTIPLE,
                                    _trim_widths, backward, forward_loss)
from infostat.rng import SplitMix64, counter_uniforms

import full_width_encoder as full_width

SMALL = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, max_len=12,
                    vocab_size=24, dropout_rate=0.1)


def small_batch(seed=0, batch_size=5) -> Batch:
    return make_check_batch(SMALL, seed, batch_size=batch_size)


def run(batch, params, config, **kwargs):
    return forward(batch.ids, batch.mask, batch.segments, batch.is_index,
                   params, config, **kwargs)


def last_block_input(cache):
    """The hidden states [B, L, d] the last block reads, at every position."""
    return cache["layer_caches"][-1]["cache_k"][0]


class TestInitParams:
    def test_deterministic_given_seed(self):
        a = init_params(SMALL, 3)
        b = init_params(SMALL, 3)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_norm_scales_are_exactly_one(self):
        params = init_params(SMALL, 1)
        for name, tensor in params.items():
            if name.endswith("norm_scale"):
                assert np.all(tensor == 1.0)
            if name.endswith(("norm_offset", "bias", ".bq", ".bk", ".bv",
                              ".bo", ".b1", ".b2")):
                assert np.all(tensor == 0.0)

    def test_distinct_seeds_differ(self):
        a = init_params(SMALL, 1)
        b = init_params(SMALL, 2)
        assert not np.array_equal(a["embeddings.token"], b["embeddings.token"])

    def test_weights_respect_truncation(self):
        params = init_params(SMALL, 9)
        assert np.all(np.abs(params["embeddings.token"]) <= 0.04)


class TestForward:
    def test_inference_is_deterministic(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        h1, _ = run(batch, params, SMALL)
        h2, _ = run(batch, params, SMALL)
        assert h1.shape == (len(batch), SMALL.d_model)
        assert np.array_equal(h1, h2)

    def test_mutating_padding_ids_is_inert(self):
        params = init_params(SMALL, 4)
        batch = small_batch(seed=4)
        h_ref, cache_ref = run(batch, params, SMALL)
        rng = SplitMix64(99)
        ids = batch.ids.copy()
        padded = np.argwhere(batch.mask == 0)
        assert len(padded) > 0
        for row, col in padded:
            ids[row, col] = rng.randint(SMALL.vocab_size)
        h_mut, cache_mut = forward(ids, batch.mask, batch.segments,
                                   batch.is_index, params, SMALL)
        assert np.array_equal(h_ref, h_mut)
        unmasked = batch.mask.astype(bool)
        assert np.array_equal(last_block_input(cache_ref)[unmasked],
                              last_block_input(cache_mut)[unmasked])

    def test_zero_layers_is_normalized_embedding_sum_at_is(self):
        config = ModelConfig(n_layers=0, d_model=16, n_heads=4, d_ff=32,
                             max_len=12, vocab_size=24, dropout_rate=0.0)
        params = init_params(config, 0)
        batch = small_batch()
        h_is, _ = run(batch, params, config)
        emb = (params["embeddings.token"][batch.ids]
               + params["embeddings.position"][None]
               + params["embeddings.segment"][batch.segments])
        mu = emb.mean(-1, keepdims=True)
        var = emb.var(-1, keepdims=True)
        expected = (emb - mu) / np.sqrt(var + 1e-12)
        rows = np.arange(len(batch))
        assert np.allclose(h_is, expected[rows, batch.is_index], atol=1e-12)

    def test_dropout_replays_bitwise_with_same_seed_and_step(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        h1, _ = run(batch, params, SMALL, train_mode=True, dropout_seed=5,
                    step=7)
        h2, _ = run(batch, params, SMALL, train_mode=True, dropout_seed=5,
                    step=7)
        h3, _ = run(batch, params, SMALL, train_mode=True, dropout_seed=5,
                    step=8)
        assert np.array_equal(h1, h2)
        assert not np.array_equal(h1, h3)

    def test_all_masked_row_is_rejected(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        mask = batch.mask.copy()
        mask[0] = 0
        with pytest.raises(ValueError, match="empty sequence"):
            forward(batch.ids, mask, batch.segments, batch.is_index, params,
                    SMALL)

    def test_width_over_max_len_is_rejected(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        wide = np.pad(batch.ids, ((0, 0), (0, 1)))
        mask = np.pad(batch.mask, ((0, 0), (0, 1)))
        with pytest.raises(ValueError, match="exceeds max_len"):
            forward(wide, mask, wide * 0, batch.is_index, params, SMALL)
        with pytest.raises(ValueError, match="exceeds max_len"):
            predict_batch(Batch(ids=wide, mask=mask, segments=wide * 0,
                                is_index=batch.is_index), params, SMALL)

    def test_unbatched_sequence_is_rejected(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        with pytest.raises(ValueError, match=r"one shape \[B, L\]"):
            forward(batch.ids[2], batch.mask[2], batch.segments[2],
                    batch.is_index[2], params, SMALL)

    def test_out_of_vocab_ids_are_rejected(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        ids = batch.ids.copy()
        ids[0, 0] = SMALL.vocab_size
        with pytest.raises(ValueError, match="vocabulary"):
            forward(ids, batch.mask, batch.segments, batch.is_index, params,
                    SMALL)

    def test_is_index_at_padding_is_rejected(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        bad_index = batch.is_index.copy()
        bad_index[0] = SMALL.max_len - 1
        assert batch.mask[0, -1] == 0
        with pytest.raises(ValueError, match="padding"):
            forward(batch.ids, batch.mask, batch.segments, bad_index, params,
                    SMALL)


class TestClassify:
    def test_zero_head_gives_uniform(self):
        params = init_params(SMALL, 0)
        params["classifier.weight"][:] = 0.0
        params["classifier.bias"][:] = 0.0
        batch = small_batch()
        h_is, _ = run(batch, params, SMALL)
        probs = classify(h_is, params)
        assert np.allclose(probs, 0.125, atol=1e-12)

    def test_large_bias_dominates(self):
        params = init_params(SMALL, 0)
        params["classifier.weight"][:] = 0.0
        params["classifier.bias"][:] = 0.0
        params["classifier.bias"][0] = 10.0  # class `old`
        batch = small_batch()
        h_is, _ = run(batch, params, SMALL)
        probs = classify(h_is, params)
        # closed form: e^10 / (e^10 + 7)
        expected = np.exp(10.0) / (np.exp(10.0) + 7.0)
        assert np.allclose(probs[:, 0], expected, atol=1e-12)
        assert np.all(probs[:, 0] > 0.999)

    def test_probabilities_form_a_simplex_over_random_draws(self):
        batch = small_batch()
        for draw in range(1000):
            params = init_params(SMALL, draw)
            # only the head matters for the simplex property; reuse one forward
            if draw == 0:
                h_is, _ = run(batch, params, SMALL)
            probs = classify(h_is, params)
            assert np.all(probs >= 0)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestLoss:
    def test_perfect_prediction_gives_zero_loss_and_zero_bias_gradient(self):
        params = init_params(SMALL, 0)
        for name in params:
            if name.startswith("classifier"):
                params[name][:] = 0.0
        batch = small_batch()
        gold = int(batch.labels[0])
        labels = np.full_like(batch.labels, gold)
        batch = Batch(ids=batch.ids, mask=batch.mask, segments=batch.segments,
                      is_index=batch.is_index, labels=labels)
        params["classifier.bias"][gold] = 1000.0
        loss, grads = loss_and_gradients(batch, params, SMALL, train_mode=False)
        assert loss == 0.0
        assert np.allclose(grads["classifier.bias"], 0.0, atol=1e-300)

    def test_uniform_prediction_loss_is_log_n_classes(self):
        params = init_params(SMALL, 0)
        params["classifier.weight"][:] = 0.0
        params["classifier.bias"][:] = 0.0
        batch = small_batch()
        loss, _ = loss_and_gradients(batch, params, SMALL, train_mode=False)
        assert abs(loss - np.log(8.0)) < 1e-9

    def test_unlabeled_batch_is_rejected(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        unlabeled = Batch(ids=batch.ids, mask=batch.mask,
                          segments=batch.segments, is_index=batch.is_index)
        with pytest.raises(ValueError, match="unlabeled"):
            loss_and_gradients(unlabeled, params, SMALL)

    @pytest.mark.parametrize("position, match", [
        (SMALL.max_len - 1, "padding"), (SMALL.max_len, "outside"),
        (-1, "outside")])
    def test_bad_is_index_is_rejected_like_forward(self, position, match):
        params = init_params(SMALL, 0)
        batch = small_batch()
        assert batch.mask[0, -1] == 0
        bad_index = batch.is_index.copy()
        bad_index[0] = position
        bad = Batch(ids=batch.ids, mask=batch.mask, segments=batch.segments,
                    is_index=bad_index, labels=batch.labels)
        with pytest.raises(ValueError, match=match):
            run(bad, params, SMALL)
        with pytest.raises(ValueError, match=match):
            loss_and_gradients(bad, params, SMALL)

    def test_loss_and_padding_mutation(self):
        params = init_params(SMALL, 8)
        batch = small_batch(seed=8)
        loss_ref, grads_ref = loss_and_gradients(batch, params, SMALL,
                                                 train_mode=False)
        ids = batch.ids.copy()
        ids[batch.mask == 0] = 9
        mutated = Batch(ids=ids, mask=batch.mask, segments=batch.segments,
                        is_index=batch.is_index, labels=batch.labels)
        loss_mut, grads_mut = loss_and_gradients(mutated, params, SMALL,
                                                 train_mode=False)
        assert loss_ref == loss_mut
        for name in grads_ref:
            assert np.array_equal(grads_ref[name], grads_mut[name]), name

    def test_narrow_batch_gradients_match_full_width(self):
        params = init_params(SMALL, 3)
        batch = small_batch(seed=3)
        width = int(batch.mask.sum(axis=1).max())
        assert width < SMALL.max_len
        narrow = Batch(ids=batch.ids[:, :width], mask=batch.mask[:, :width],
                       segments=batch.segments[:, :width],
                       is_index=batch.is_index, labels=batch.labels)
        loss_full, grads_full = loss_and_gradients(batch, params, SMALL,
                                                   train_mode=False)
        loss_cut, grads_cut = loss_and_gradients(narrow, params, SMALL,
                                                 train_mode=False)
        assert np.isclose(loss_cut, loss_full, rtol=1e-12, atol=0)
        for name in grads_full:
            assert np.allclose(grads_cut[name], grads_full[name],
                               rtol=1e-9, atol=1e-15), name
        assert np.all(grads_cut["embeddings.position"][width:] == 0.0)

    def test_gradients_match_parameter_shapes(self):
        params = init_params(SMALL, 0)
        batch = small_batch()
        _, grads = loss_and_gradients(batch, params, SMALL, train_mode=False)
        assert set(grads) == set(params)
        for name in params:
            assert grads[name].shape == params[name].shape


class TestTrimmedTraining:
    """loss_and_gradients trims each batch to its longest row and runs the
    last block's output half at the [IS] rows only; with dropout on, the
    loss and every gradient must keep the bits of the full-width algorithm
    (full_width_encoder)."""

    @staticmethod
    def batch(config, lengths, width, seed) -> Batch:
        rng = SplitMix64(seed)
        n = len(lengths)
        ids = np.zeros((n, width), dtype=np.int64)
        mask = np.zeros_like(ids)
        segments = np.zeros_like(ids)
        for row, length in enumerate(lengths):
            ids[row, :length] = [rng.randint(config.vocab_size)
                                 for _ in range(length)]
            mask[row, :length] = 1
            segments[row, length // 2:length] = 1
        labels = [rng.randint(cp.N_CLASSES) for _ in range(n)]
        return Batch(ids=ids, mask=mask, segments=segments,
                     is_index=np.asarray(lengths, dtype=np.int64) - 1,
                     labels=np.asarray(labels, dtype=np.int64))

    @staticmethod
    def compare(config, width, longest, seed=0):
        """(trimmed, full-width) loss and gradients for a 32-row batch whose
        rows reach `longest`; 32 rows are enough for BLAS to split dw's sum
        over rows into blocks, as in real training batches."""
        rng = SplitMix64(seed + width + longest)
        lengths = [3 + rng.randint(longest - 3) for _ in range(31)] + [longest]
        batch = TestTrimmedTraining.batch(config, lengths, width, seed=longest)
        params = init_params(config, seed + 1)
        return (loss_and_gradients(batch, params, config, train_mode=True,
                                   dropout_seed=9, step=seed),
                full_width.loss_and_gradients(batch, params, config,
                                              dropout_seed=9, step=seed))

    # The desk preset's shapes (the ones the benchmark's reference outputs
    # pin) and a narrower model, both with float64 and head size 16 or 8.
    @pytest.mark.parametrize("d_model, d_ff", [(64, 256), (32, 64)])
    @pytest.mark.parametrize("width, longest, trims", [
        (64, 21, True),    # trims to 24
        (64, 64, False),   # a row fills max_len
        (45, 20, True),    # width not a multiple of 8, trims to 24
        (45, 41, False),   # rounds up past the width, capped at 45
    ])
    def test_matches_full_width_bit_for_bit(self, d_model, d_ff, width,
                                            longest, trims):
        config = ModelConfig(n_layers=2, d_model=d_model, n_heads=4,
                             d_ff=d_ff, max_len=64, vocab_size=40,
                             dropout_rate=0.1)
        assert (-(-longest // WIDTH_MULTIPLE) * WIDTH_MULTIPLE < width) == trims
        for seed in (0, 5):
            (loss, grads), (loss_full, grads_full) = self.compare(
                config, width, longest, seed)
            assert loss == loss_full
            assert set(grads) == set(grads_full)
            for name in grads_full:
                assert grads[name].dtype == grads_full[name].dtype, name
                assert grads[name].tobytes() == grads_full[name].tobytes(), name

    # Every depth, including none, and row counts from a single sequence
    # (whose one-row products numpy would send to gemv) past 32, at head
    # sizes 16, 8 and 4.
    @pytest.mark.parametrize("d_model, d_ff", [(64, 256), (32, 64), (16, 64)])
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 2, 7, 32, 33])
    def test_depths_and_row_counts_match_bit_for_bit(self, d_model, d_ff,
                                                     n_layers, rows):
        config = ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=4,
                             d_ff=d_ff, max_len=64, vocab_size=40,
                             dropout_rate=0.1)
        rng = SplitMix64(100 * n_layers + rows)
        lengths = [3 + rng.randint(30) for _ in range(rows)]
        batch = self.batch(config, lengths, 64, seed=rows)
        params = init_params(config, n_layers)
        loss, grads = loss_and_gradients(batch, params, config,
                                         train_mode=True, dropout_seed=9,
                                         step=rows)
        loss_full, grads_full = full_width.loss_and_gradients(
            batch, params, config, dropout_seed=9, step=rows)
        assert loss == loss_full
        assert set(grads) == set(grads_full)
        for name in grads_full:
            assert grads[name].tobytes() == grads_full[name].tobytes(), name
        assert predict_batch(batch, params, config).tobytes() == \
            full_width.predict(batch, params, config).tobytes()

    # Elsewhere OpenBLAS picks its kernels by matrix size, and some of them
    # group a trimmed product's sums differently: float32 attention, and
    # heads of size 4, 32 or 64. There the trimmed step is deterministic but
    # only agrees with full width to rounding.
    @pytest.mark.parametrize("d_model, n_heads, dtype, rtol", [
        (64, 1, "float64", 1e-9), (64, 2, "float64", 1e-9),
        (32, 4, "float32", 1e-4)])
    def test_other_shapes_match_full_width_to_rounding(self, d_model,
                                                       n_heads, dtype, rtol):
        config = ModelConfig(n_layers=2, d_model=d_model, n_heads=n_heads,
                             d_ff=64, max_len=64, vocab_size=40,
                             dropout_rate=0.1, dtype=dtype)
        (loss, grads), (loss_full, grads_full) = self.compare(config, 64, 21)
        assert np.isclose(loss, loss_full, rtol=rtol, atol=0)
        # Relative to the largest gradient entry: the key biases' gradients
        # are zero up to rounding noise, which no relative test can bound.
        scale = max(float(np.abs(g).max()) for g in grads_full.values())
        for name in grads_full:
            assert np.allclose(grads[name], grads_full[name], rtol=0,
                               atol=rtol * scale), name


class TestTrainingStepMemory:
    DESK = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256,
                       max_len=64, vocab_size=40, dropout_rate=0.1)

    def desk_batch(self):
        """32 rows, every one at the full width 64, so nothing is trimmed."""
        width = self.DESK.max_len
        return TestTrimmedTraining.batch(self.DESK, [width] * 32, width,
                                         seed=5)

    def test_backward_consumes_the_cache(self):
        batch, config = self.desk_batch(), self.DESK
        params = init_params(config, 3)
        _, log_probs, _, cache = forward_loss(batch, params, config,
                                              train_mode=True,
                                              dropout_seed=1, step=0)
        assert len(cache["layer_caches"]) == config.n_layers
        backward(np.exp(log_probs) @ params["classifier.weight"].T, cache,
                 params, config)
        assert cache == {}

    def traced_peak(self, batch, params):
        """tracemalloc peak of one training step, after a first step that
        imports scipy at its first GELU (no part of a step's memory)."""
        loss_and_gradients(batch, params, self.DESK, dropout_seed=1, step=0)
        tracemalloc.start()
        try:
            loss_and_gradients(batch, params, self.DESK, dropout_seed=1,
                               step=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def sizes(self, params, rows, cols):
        """Bytes of one hidden-width, one FFN-width and one attention
        probabilities tensor of `rows` rows at width `cols`, and of one
        parameter set."""
        config = self.DESK
        item = np.dtype(config.dtype).itemsize
        return (rows * cols * config.d_model * item,
                rows * cols * config.d_ff * item,
                rows * config.n_heads * cols * cols * item,
                sum(p.nbytes for p in params.values()))

    def test_desk_step_peak_memory_is_bounded(self):
        """A training step holds only live tensors. Its traced peak is in
        the first block's backward, where dense_backward of the second FFN
        product returns. What is live there, counted in tensors of the
        batch's shapes:
        - FFN-width [B*W, d_ff]: z and phi, the GELU output rebuilt from
          them and its gradient da1 (4); in gelu_backward, next, its one
          buffer takes the rebuilt output's place, and du is gone;
        - the attention probabilities [B, H, W, W] and their bool keep
          mask (1 + 1/8);
        - hidden-width [B*W, d]: the block's input, Q, K, V, the context,
          the first norm's normalized values and output, dres2, du, the
          gradient entering the block and the embedding norm's normalized
          values (11), and two bool keep masks (2/8);
        - the gradients, one parameter set.
        The bound adds two hidden-width tensors to that. A step that kept
        the block caches alive through backward would also hold the last
        block's input, K and V and the second norm's values (4
        hidden-width); one that kept the float masks, the GELU output and
        the dropped probabilities would hold far more, and so would a
        forward that kept its GELU output to the second norm or a GELU
        backward with temporaries of its own."""
        batch = self.desk_batch()
        params = init_params(self.DESK, 3)
        hidden, ffn, probs, grads = self.sizes(params, *batch.ids.shape)
        bound = 4 * ffn + 1.125 * probs + (11.25 + 2) * hidden + grads
        assert self.traced_peak(batch, params) < bound

    def test_trimmed_step_peak_memory_counts_one_grid_slice(self):
        """Rows of 24 of 64 positions: the step runs at width L = 24, and
        dense_backward sums dw over the full-width grid of B*W rows. Its
        traced peak is in the same dense_backward as at full width, while
        it builds that grid: the tensors counted there, at width L, less
        da1, which comes after the grid is freed; plus du's grid [B*W, d]
        and one slice of the GELU output's grid [B*W, GRID_SLICE_COLS].
        The whole [B*W, d_ff] grid of the GELU output would take
        d_ff / GRID_SLICE_COLS = 4 such slices."""
        config = self.DESK
        width, cols = config.max_len, 24
        batch = TestTrimmedTraining.batch(config, [cols] * 32, width, seed=5)
        params = init_params(config, 3)
        hidden, ffn, probs, grads = self.sizes(params, len(batch), cols)
        grid = (len(batch) * width * (config.d_model + GRID_SLICE_COLS)
                * np.dtype(config.dtype).itemsize)
        bound = (3 * ffn + 1.125 * probs + (11.25 + 2) * hidden + grads
                 + grid)
        assert self.traced_peak(batch, params) < bound


class TestPredict:
    def small_world(self):
        generated = cp.generate_synthetic(seed=6, n_docs=2, sentences_per_doc=4,
                                          mentions_per_sentence=2)
        vocab = ctx.build_vocab(generated, ctx.LOCAL_CONTEXT_OVERLAP)
        config = ModelConfig(n_layers=1, d_model=16, n_heads=4, d_ff=32,
                             max_len=32, vocab_size=len(vocab),
                             dropout_rate=0.0)
        params = init_params(config, 0)
        return generated, vocab, config, params

    def test_prediction_composes_from_pipeline_steps(self):
        generated, vocab, config, params = self.small_world()
        doc = generated.documents[0]
        batch = encode_pairs([(doc, m) for m in doc.mentions],
                             ctx.LOCAL_CONTEXT_OVERLAP, vocab, config.max_len)
        probs = predict_batch(batch, params, config)
        # stepwise recomposition, one mention at a time, as one-row batches
        for i, mention in enumerate(doc.mentions):
            ps = ctx.build_pseudo_sentence(mention, doc,
                                           ctx.LOCAL_CONTEXT_OVERLAP,
                                           config.max_len)
            ids, mask, segments = ctx.encode(ps, vocab, config.max_len)
            h_is, _ = forward(ids[None], mask[None], segments[None],
                              np.array([ps.is_index]), params, config)
            single = classify(h_is, params)[0]
            # batched and single-row BLAS paths may differ in the last ulp
            assert np.allclose(single, probs[i], atol=1e-12, rtol=0)
            assert np.argmax(single) == np.argmax(probs[i])

    def test_duplicate_mentions_get_identical_predictions(self):
        generated, vocab, config, params = self.small_world()
        doc = generated.documents[0]
        mentions = (doc.mentions[0], doc.mentions[0], doc.mentions[1])
        batch = encode_pairs([(doc, m) for m in mentions], ctx.LOCAL_CONTEXT,
                             vocab, config.max_len)
        probs = predict_batch(batch, params, config)
        assert np.array_equal(probs[0], probs[1])

    def test_argmax_labels_are_valid_and_ties_break_low(self):
        probs = np.zeros((1, 8))
        probs[0, 2] = 0.3
        probs[0, 5] = 0.3  # tie with class 2 -> lowest index wins
        generated, vocab, config, params = self.small_world()
        mentions = [m for d in generated.documents for m in d.mentions]
        preds = prediction_records(probs, mentions[:1])
        assert preds[0].pred is cp.LABELS[2]
        assert preds[0].gold is mentions[0].label
        full = encode_corpus(generated, ctx.MENTION_ONLY, vocab, config.max_len)
        out = prediction_records(predict_batch(full, params, config), mentions)
        assert [r.mention_id for r in out] == [m.id for m in mentions]
        assert all(r.pred in cp.LABELS for r in out)


class TestLengthSortedPredict:
    CONFIG = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=38, vocab_size=24, dropout_rate=0.0)

    def ragged_batch(self) -> Batch:
        """Rows over two chunks with no length a multiple of WIDTH_MULTIPLE:
        the first chunk holds only short rows and is trimmed, the second
        holds a row filling max_len, which caps its width."""
        config = self.CONFIG
        rng = SplitMix64(17)
        short = [n for n in range(2, 14) if n % WIDTH_MULTIPLE]
        long = [n for n in range(17, config.max_len) if n % WIDTH_MULTIPLE]
        lengths = [short[rng.randint(len(short))] for _ in range(270)]
        lengths += [long[rng.randint(len(long))] for _ in range(45)]
        lengths.append(config.max_len)
        SplitMix64(18).shuffle(lengths)
        n = len(lengths)
        ids = np.zeros((n, config.max_len), dtype=np.int64)
        mask = np.zeros_like(ids)
        segments = np.zeros_like(ids)
        for row, length in enumerate(lengths):
            ids[row, :length] = [rng.randint(config.vocab_size)
                                 for _ in range(length)]
            mask[row, :length] = 1
            segments[row, length // 2:length] = 1
        return Batch(ids=ids, mask=mask, segments=segments,
                     is_index=np.asarray(lengths, dtype=np.int64) - 1)

    def test_matches_full_width_forward_bit_for_bit(self):
        config = self.CONFIG
        params = init_params(config, 5)
        batch = self.ragged_batch()
        assert len(batch) > PREDICT_CHUNK_ROWS
        assert config.max_len % WIDTH_MULTIPLE != 0
        first_chunk = np.sort(batch.mask.sum(axis=1))[:PREDICT_CHUNK_ROWS]
        assert first_chunk.max() + WIDTH_MULTIPLE < config.max_len
        expected = full_width.predict(batch, params, config)
        assert np.array_equal(predict_batch(batch, params, config), expected)

    @pytest.mark.parametrize("d_model, d_ff", [(64, 256), (32, 64)])
    def test_one_row_chunk_matches_full_width(self, monkeypatch, d_model,
                                              d_ff):
        """A last chunk of one row keeps the bits the row gets among others:
        the head runs once over every chunk's [IS] states, not as a
        one-row product, which numpy would send to gemv."""
        monkeypatch.setattr("infostat.encoder.model.PREDICT_CHUNK_ROWS", 16)
        config = ModelConfig(n_layers=2, d_model=d_model, n_heads=4,
                             d_ff=d_ff, max_len=32, vocab_size=40,
                             dropout_rate=0.0)
        rng = SplitMix64(23)
        lengths = [3 + rng.randint(29) for _ in range(17)]
        batch = TestTrimmedTraining.batch(config, lengths, 32, seed=23)
        params = init_params(config, 2)
        assert predict_batch(batch, params, config).tobytes() == \
            full_width.predict(batch, params, config).tobytes()

    def test_rows_come_back_in_input_order(self):
        config = self.CONFIG
        params = init_params(config, 6)
        batch = self.ragged_batch()
        probs = predict_batch(batch, params, config)
        perm = np.asarray(SplitMix64(3).permutation(len(batch)))
        assert np.array_equal(predict_batch(batch.slice(perm), params, config),
                              probs[perm])
        for row in (0, len(batch) // 3, len(batch) - 1):
            one = predict_batch(batch.slice([row]), params, config)
            assert np.allclose(one[0], probs[row], atol=1e-12, rtol=0)

    def test_empty_batch_is_rejected(self):
        config = self.CONFIG
        params = init_params(config, 0)
        empty = self.ragged_batch().slice(slice(0, 0))
        with pytest.raises(ValueError, match="no rows"):
            predict_batch(empty, params, config)

    def test_matches_one_worker_and_full_width_across_calls(
            self, monkeypatch):
        """Chunks on the thread pool give the bytes of one chunk at a time
        and of one full-width forward, however the chunks interleave, and a
        chunk's error reaches the caller with no worker left running."""
        config = self.CONFIG
        params = init_params(config, 8)
        batch = self.ragged_batch()
        assert len(batch) >= 5 * PREDICT_CHUNK_ROWS
        expected = full_width.predict(batch, params, config).tobytes()
        pooled = [predict_batch(batch, params, config).tobytes()
                  for _ in range(3)]
        monkeypatch.setattr("infostat.encoder.model.PREDICT_WORKERS", 1)
        assert predict_batch(batch, params, config).tobytes() == expected
        assert pooled == [expected] * 3

        monkeypatch.undo()
        # The row that predict_batch runs last, in the last chunk.
        last = np.argsort(_trim_widths(batch, config), kind="stable")[-1]
        ids = batch.ids.copy()
        ids[last, 0] = config.vocab_size
        threads = threading.active_count()
        with pytest.raises(ValueError, match="outside the vocabulary"):
            predict_batch(Batch(ids=ids, mask=batch.mask,
                                segments=batch.segments,
                                is_index=batch.is_index), params, config)
        assert threading.active_count() == threads

    def test_holds_at_most_two_chunks(self, monkeypatch):
        """Six chunks of one width peak at no more than the memory of two
        chunks: two run at a time, and each chunk's forward cache is freed
        as soon as its forward returns. Twice the peak of one chunk is the
        bound, since two chunks peak anywhere between one and two chunks'
        memory, as their forwards happen to overlap."""
        config = self.CONFIG
        params = init_params(config, 7)
        monkeypatch.setattr("infostat.encoder.model.PREDICT_CHUNK_ROWS", 16)
        n, width = 96, config.max_len
        rng = SplitMix64(19)
        ids = np.asarray([[rng.randint(config.vocab_size)
                           for _ in range(width)] for _ in range(n)])
        batch = Batch(ids=ids, mask=np.ones_like(ids),
                      segments=np.zeros_like(ids),
                      is_index=np.full(n, width - 1))

        def peak(rows):
            part = batch.slice(slice(0, rows))
            tracemalloc.start()
            try:
                predict_batch(part, params, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(96) < 1.1 * 2 * peak(16)

    def test_desk_predict_peak_memory_is_bounded(self):
        """At the desk preset, 2000 rows trimmed to width 24, predict's
        traced peak stays under 32 MiB: the [B, d] states and output
        (1.1 MiB) plus the forwards of the two chunks in flight, whose
        every-block caches hold about 0.36 MiB per row at width 24. That
        allows two chunks of up to about 42 rows; one chunk of 256 rows
        would peak near 90 MiB."""
        config = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256,
                             max_len=64, vocab_size=40, dropout_rate=0.1)
        params = init_params(config, 3)
        n, width = 2000, config.max_len
        lengths = 17 + (8 * counter_uniforms(29, n)).astype(np.int64)
        mask = (np.arange(width) < lengths[:, None]).astype(np.int64)
        ids = mask * (config.vocab_size * counter_uniforms(30, n * width)
                      ).astype(np.int64).reshape(n, width)
        batch = Batch(ids=ids, mask=mask, segments=np.zeros_like(ids),
                      is_index=lengths - 1)
        assert set(_trim_widths(batch, config)) == {24}
        tracemalloc.start()
        try:
            predict_batch(batch, params, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
