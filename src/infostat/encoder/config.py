"""Model and training hyperparameters."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..context import RESERVED_TOKENS


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
        # A checkpoint's manifest gives these from JSON, where 64.0 and true
        # would otherwise pass for 64 and 1.
        least = dict(n_layers=1, d_model=1, n_heads=1, d_ff=1, max_len=2,
                     vocab_size=len(RESERVED_TOKENS))
        for name, minimum in least.items():
            value = getattr(self, name)
            if type(value) is not int or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, "
                                 f"not {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be a multiple of n_heads")
        if (type(self.dropout_rate) not in (int, float)
                or not 0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be a number in [0, 1)")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be 'float64' or 'float32'")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


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
