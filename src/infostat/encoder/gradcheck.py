"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..corpus import N_CLASSES
from ..rng import SplitMix64, derive_seed, truncated_normal
from .config import ModelConfig
from .model import Batch, forward_loss, loss_and_gradients
from .params import Params, init_params


@dataclass
class GradCheckReport:
    max_relative_error: float
    per_tensor: dict[str, float] = field(default_factory=dict)
    n_entries: int = 0

    def passed(self, threshold: float = 1e-4) -> bool:
        return self.max_relative_error < threshold


def make_check_batch(config: ModelConfig, seed: int, batch_size: int = 4) -> Batch:
    """Random but structurally valid encoded batch for gradient checking."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if config.max_len < 3:
        raise ValueError("max_len must be >= 3 to hold a checked row, "
                         f"got {config.max_len}")
    rng = SplitMix64(derive_seed(seed, "gradcheck-batch"))
    l = config.max_len
    ids = np.zeros((batch_size, l), dtype=np.int64)
    mask = np.zeros((batch_size, l), dtype=np.int64)
    segments = np.zeros((batch_size, l), dtype=np.int64)
    is_index = np.zeros(batch_size, dtype=np.int64)
    labels = np.zeros(batch_size, dtype=np.int64)
    for row in range(batch_size):
        length = 3 + rng.randint(l - 2)  # in [3, l]
        boundary = 1 + rng.randint(length - 1)
        for pos in range(length):
            ids[row, pos] = rng.randint(config.vocab_size)
            segments[row, pos] = 0 if pos < boundary else 1
        mask[row, :length] = 1
        is_index[row] = length - 1
        labels[row] = rng.randint(N_CLASSES)
    return Batch(ids=ids, mask=mask, segments=segments, is_index=is_index,
                 labels=labels)


def make_check_params(config: ModelConfig, seed: int) -> Params:
    """Parameters at a generic point, away from the near-zero init.

    At standard init the attention weights are so small that their true
    gradients sit below what 64-bit central differences can resolve;
    perturbing every tensor (std 0.2) makes all gradients well-conditioned.
    """
    params = init_params(config, seed)
    for name, tensor in params.items():
        noise = truncated_normal(derive_seed(seed, "check-point", name),
                                 tensor.shape, 0.2)
        params[name] = tensor + noise
    return params


# With loss values of order 1, 64-bit central differences at epsilon=1e-5
# carry rounding noise of roughly |loss| * 2^-52 / epsilon ~ 1e-11, so
# gradient entries below this floor are compared in absolute terms.
_DENOM_FLOOR = 1e-6


def gradient_check(config: ModelConfig, batch: Batch, params: Params | None = None,
                   seed: int = 0, epsilon: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Every entry of every parameter tensor is perturbed by +/- epsilon with
    dropout disabled. The relative error uses max(|analytic|, |numeric|,
    1e-6) as denominator; the floor absorbs the 64-bit rounding noise of
    the difference quotient on entries whose true gradient is ~0.
    """
    if config.dtype != "float64":
        raise ValueError("gradient checking requires the float64 configuration")
    if not (0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if params is None:
        params = make_check_params(config, seed)

    def loss_only() -> float:
        return forward_loss(batch, params, config, train_mode=False,
                            dropout_seed=0, step=0)[0]

    _, analytic = loss_and_gradients(batch, params, config, train_mode=False)
    report = GradCheckReport(max_relative_error=0.0)
    for name, tensor in params.items():
        worst = 0.0
        flat = tensor.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + epsilon
            loss_plus = loss_only()
            flat[j] = original - epsilon
            loss_minus = loss_only()
            flat[j] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            denom = max(abs(grad_flat[j]), abs(numeric), _DENOM_FLOOR)
            worst = max(worst, abs(grad_flat[j] - numeric) / denom)
            report.n_entries += 1
        report.per_tensor[name] = worst
        report.max_relative_error = max(report.max_relative_error, worst)
    return report
