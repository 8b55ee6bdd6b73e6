"""Mini-batch training with adaptive moments and decoupled weight decay.

Following the common fine-tuning recipe for this encoder family: decay
rates (0.9, 0.999), epsilon 1e-8, weight decay 0.01 applied to matrices and
embeddings but not to biases or normalization parameters, global gradient
norm clipped at 1.0, constant learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rng import SplitMix64, derive_seed
from .config import ModelConfig, TrainConfig
from .model import Batch, loss_and_gradients
from .params import Params, copy_params, global_grad_norm, init_params

# The moments' decay rates and epsilon, as the recipe above sets them.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """Raised when the loss or the gradient becomes non-finite; carries the
    last finite state."""

    def __init__(self, message: str, last_params: Params, epoch: int, step: int):
        super().__init__(message)
        self.last_params = last_params
        self.epoch = epoch
        self.step = step


@dataclass
class TrainResult:
    params: Params
    epoch_losses: list[float] = field(default_factory=list)
    n_steps: int = 0


def _weight_decay_applies(name: str, tensor: np.ndarray) -> bool:
    # Decay matrices and embeddings; leave biases and norm parameters alone.
    return tensor.ndim >= 2


def train(dataset: Batch, model_config: ModelConfig, train_config: TrainConfig,
          init: Params | None = None) -> TrainResult:
    """Run epochs x ceil(N/batch) optimizer steps over the labeled dataset.

    Shuffling, initialization and dropout all derive from train_config.seed,
    so identical inputs give bit-identical trajectories.
    """
    if dataset.labels is None:
        raise ValueError("training requires a labeled dataset")
    n = len(dataset)
    if n == 0:
        raise ValueError("training requires a non-empty dataset")

    params = copy_params(init) if init is not None \
        else init_params(model_config, train_config.seed)
    m = {name: np.zeros_like(t, dtype=np.float64) for name, t in params.items()}
    v = {name: np.zeros_like(t, dtype=np.float64) for name, t in params.items()}
    lr = train_config.learning_rate
    wd, clip = train_config.weight_decay, train_config.grad_clip_norm

    result = TrainResult(params=params)
    t = 0
    for epoch in range(train_config.epochs):
        order = SplitMix64(derive_seed(train_config.seed, "shuffle", epoch))
        perm = np.asarray(order.permutation(n), dtype=np.int64)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, train_config.batch_size):
            batch = dataset.slice(perm[start:start + train_config.batch_size])
            loss, grads = loss_and_gradients(batch, params, model_config,
                                             train_mode=True,
                                             dropout_seed=train_config.seed,
                                             step=t)
            # A finite loss can come with a non-finite gradient, whose NaN
            # norm no clip catches; the update would write it into params.
            norm = global_grad_norm(grads)
            for what, value in (("loss", loss), ("gradient", norm)):
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite {what} at epoch {epoch}, step {t}; the "
                        "exception carries the last finite parameters",
                        last_params=params, epoch=epoch, step=t)
            if 0 < clip < norm:
                factor = clip / norm
                for g in grads.values():
                    g *= factor
            t += 1
            correction = np.sqrt(1.0 - BETA2 ** t) / (1.0 - BETA1 ** t)
            for name, p in params.items():
                g = grads[name]
                m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
                v[name] = BETA2 * v[name] + (1.0 - BETA2) * (g * g)
                update = correction * m[name] / (np.sqrt(v[name]) + EPS)
                if wd > 0 and _weight_decay_applies(name, p):
                    update = update + wd * p
                p -= (lr * update).astype(p.dtype, copy=False)
            epoch_loss += loss
            n_batches += 1
        result.epoch_losses.append(epoch_loss / n_batches)
    result.n_steps = t
    return result
