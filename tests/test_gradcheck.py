import numpy as np

from infostat.encoder import (ModelConfig, gradient_check, make_check_batch,
                              param_shapes)


def test_analytic_gradients_match_finite_differences_small_model():
    config = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_len=8,
                         vocab_size=16, dropout_rate=0.0)
    batch = make_check_batch(config, seed=0, batch_size=3)
    report = gradient_check(config, batch, seed=0, epsilon=1e-5)
    assert report.n_entries > 0
    assert report.max_relative_error < 1e-4, report.per_tensor
    # every tensor was visited
    assert set(report.per_tensor) == set(param_shapes(config))
    assert all(v < 1e-4 for v in report.per_tensor.values())


def test_gradcheck_catches_a_broken_gradient(monkeypatch):
    # Sanity check of the checker itself: corrupt one analytic gradient and
    # the report must flag it.
    from infostat.encoder import gradcheck as gc

    config = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_len=6,
                         vocab_size=12, dropout_rate=0.0)
    batch = make_check_batch(config, seed=1, batch_size=2)

    original = gc.loss_and_gradients

    def corrupted(b, params, cfg, **kwargs):
        loss, grads = original(b, params, cfg, **kwargs)
        grads["classifier.bias"] = grads["classifier.bias"] + 0.5
        return loss, grads

    monkeypatch.setattr(gc, "loss_and_gradients", corrupted)
    report = gc.gradient_check(config, batch, seed=1)
    assert report.per_tensor["classifier.bias"] > 1e-2


def test_gradcheck_requires_float64():
    config = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_len=6,
                         vocab_size=12, dropout_rate=0.0, dtype="float32")
    batch = make_check_batch(config, seed=0, batch_size=2)
    try:
        gradient_check(config, batch)
    except ValueError as err:
        assert "float64" in str(err)
    else:
        raise AssertionError("float32 configuration must be rejected")
