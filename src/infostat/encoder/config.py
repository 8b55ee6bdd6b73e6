"""Model and training hyperparameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    max_len: int
    vocab_size: int
    dropout_rate: float = 0.1
    dtype: str = "float64"  # float32 available as a speed/size trade-off

    def __post_init__(self):
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be a positive multiple of n_heads")
        if self.d_ff < 1:
            raise ValueError("d_ff must be >= 1")
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        if self.vocab_size < len_reserved():
            raise ValueError("vocab_size smaller than the reserved token set")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be 'float64' or 'float32'")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def with_vocab_size(self, vocab_size: int) -> "ModelConfig":
        return replace(self, vocab_size=vocab_size)


def len_reserved() -> int:
    from ..context import RESERVED_TOKENS
    return len(RESERVED_TOKENS)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    learning_rate: float = 5e-5
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 0.01
    grad_clip_norm: float = 1.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # learning_rate 0 is allowed: it is the contractual no-op update.
        if not (0 <= self.learning_rate < math.inf):
            raise ValueError("learning_rate must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # Training skips decay at 0 and clipping at 0; a negative or NaN
        # value would skip them as well, without a word.
        if not (0 <= self.weight_decay < math.inf):
            raise ValueError("weight_decay must be finite and >= 0 "
                             "(0 disables decay)")
        if not (0 <= self.grad_clip_norm < math.inf):
            raise ValueError("grad_clip_norm must be finite and >= 0 "
                             "(0 disables clipping)")
