from dataclasses import replace

import numpy as np
import pytest

from infostat import context as ctx
from infostat import corpus as cp
from infostat.dataset import encode_pairs
from infostat.encoder import (ModelConfig, TrainConfig, TrainingDivergedError,
                              init_params, make_check_batch, predict_batch,
                              train)

CONFIG = ModelConfig(n_layers=1, d_model=16, n_heads=4, d_ff=32, max_len=12,
                     vocab_size=24, dropout_rate=0.1)


def dataset(seed=0, size=24):
    return make_check_batch(CONFIG, seed, batch_size=size)


@pytest.mark.parametrize("field, value", [
    ("weight_decay", -0.5), ("weight_decay", float("nan")),
    ("weight_decay", float("inf")), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("grad_clip_norm", float("nan")),
    ("grad_clip_norm", float("inf"))])
def test_config_refuses_values_training_would_ignore(field, value):
    # Training applies decay only when weight_decay > 0 and clips only when
    # norm > grad_clip_norm, so these would skip both without a word.
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
        TrainConfig(**{field: value})
    TrainConfig(**{field: 0.0})


@pytest.mark.parametrize("field, value", [
    ("n_layers", 0), ("n_layers", 1.0), ("n_layers", True), ("n_heads", 0),
    ("n_heads", -4), ("max_len", 64.0), ("d_model", "16"),
    ("vocab_size", None), ("dropout_rate", False), ("dropout_rate", "0.1")])
def test_model_config_refuses_what_the_encoder_cannot_run(field, value):
    # A zero-layer encoder would see only the pseudo sentence's length.
    with pytest.raises(ValueError, match=field):
        replace(CONFIG, **{field: value})


def test_zero_learning_rate_leaves_parameters_bit_equal():
    data = dataset()
    config = TrainConfig(epochs=2, learning_rate=0.0, batch_size=8, seed=3)
    result = train(data, CONFIG, config)
    reference = init_params(CONFIG, 3)
    for name in reference:
        assert np.array_equal(result.params[name], reference[name]), name


def test_identical_runs_produce_identical_loss_logs():
    data = dataset()
    config = TrainConfig(epochs=3, learning_rate=1e-3, batch_size=8, seed=1)
    a = train(data, CONFIG, config)
    b = train(data, CONFIG, config)
    assert a.epoch_losses == b.epoch_losses
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = train(data, CONFIG, TrainConfig(epochs=3, learning_rate=1e-3,
                                        batch_size=8, seed=2))
    assert c.epoch_losses != a.epoch_losses


def test_step_count_covers_all_batches():
    data = dataset(size=21)
    config = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=8, seed=0)
    result = train(data, CONFIG, config)
    assert result.n_steps == 2 * ((21 + 7) // 8)
    assert len(result.epoch_losses) == 2


def test_loss_decreases_on_learnable_data():
    generated = cp.generate_synthetic(seed=1, n_docs=4, sentences_per_doc=4,
                                      mentions_per_sentence=3)
    vocab = ctx.build_vocab(generated, ctx.MENTION_ONLY)
    config = ModelConfig(n_layers=1, d_model=32, n_heads=4, d_ff=64,
                         max_len=16, vocab_size=len(vocab), dropout_rate=0.0)
    pairs = [(d, m) for d in generated.documents for m in d.mentions]
    data = encode_pairs(pairs, ctx.MENTION_ONLY, vocab, config.max_len,
                        require_labels=True)
    result = train(data, config, TrainConfig(epochs=20, learning_rate=2e-3,
                                             batch_size=16, seed=0))
    assert result.epoch_losses[-1] < 0.5 * result.epoch_losses[0]


# The infinite embedding makes layer norm compute inf - inf; that warning is
# the divergence this test provokes.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_divergence_aborts_with_last_finite_parameters():
    data = dataset()
    params = init_params(CONFIG, 0)
    params["embeddings.token"][0, 0] = np.inf
    with pytest.raises(TrainingDivergedError) as exc_info:
        train(data, CONFIG, TrainConfig(epochs=1, learning_rate=1e-3,
                                        batch_size=8, seed=0), init=params)
    err = exc_info.value
    assert err.epoch == 0
    assert err.last_params is not None


def test_unlabeled_dataset_is_rejected():
    data = dataset()
    unlabeled = type(data)(ids=data.ids, mask=data.mask, segments=data.segments,
                           is_index=data.is_index)
    with pytest.raises(ValueError, match="label"):
        train(unlabeled, CONFIG, TrainConfig(epochs=1, learning_rate=1e-3,
                                             batch_size=8, seed=0))


def test_training_improves_accuracy_on_surface_separable_labels():
    generated = cp.generate_synthetic(seed=9, n_docs=6, sentences_per_doc=4,
                                      mentions_per_sentence=3)
    vocab = ctx.build_vocab(generated, ctx.LOCAL_CONTEXT_OVERLAP)
    config = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64,
                         max_len=40, vocab_size=len(vocab), dropout_rate=0.0)
    pairs = [(d, m) for d in generated.documents for m in d.mentions]
    data = encode_pairs(pairs, ctx.LOCAL_CONTEXT_OVERLAP, vocab,
                        config.max_len, require_labels=True)
    result = train(data, config, TrainConfig(epochs=40, learning_rate=2e-3,
                                             batch_size=16, seed=0))
    probs = predict_batch(data, result.params, config)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == data.labels))
    assert accuracy > 0.9
