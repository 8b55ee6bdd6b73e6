"""Named parameter store and its deterministic initialization."""

from __future__ import annotations

import numpy as np

from ..corpus import N_CLASSES
from ..rng import derive_seed, truncated_normal
from .config import ModelConfig

# Parameters are a plain name -> ndarray mapping in a fixed insertion order;
# that order is the checkpoint blob order.
Params = dict[str, np.ndarray]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Tensor names and shapes, in canonical (checkpoint) order."""
    d, f = config.d_model, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "embeddings.token": (config.vocab_size, d),
        "embeddings.position": (config.max_len, d),
        "embeddings.segment": (2, d),
        "embeddings.norm_scale": (d,),
        "embeddings.norm_offset": (d,),
    }
    for i in range(config.n_layers):
        p = f"layer{i}"
        shapes[f"{p}.attn.wq"] = (d, d)
        shapes[f"{p}.attn.bq"] = (d,)
        shapes[f"{p}.attn.wk"] = (d, d)
        shapes[f"{p}.attn.bk"] = (d,)
        shapes[f"{p}.attn.wv"] = (d, d)
        shapes[f"{p}.attn.bv"] = (d,)
        shapes[f"{p}.attn.wo"] = (d, d)
        shapes[f"{p}.attn.bo"] = (d,)
        shapes[f"{p}.attn.norm_scale"] = (d,)
        shapes[f"{p}.attn.norm_offset"] = (d,)
        shapes[f"{p}.ffn.w1"] = (d, f)
        shapes[f"{p}.ffn.b1"] = (f,)
        shapes[f"{p}.ffn.w2"] = (f, d)
        shapes[f"{p}.ffn.b2"] = (d,)
        shapes[f"{p}.ffn.norm_scale"] = (d,)
        shapes[f"{p}.ffn.norm_offset"] = (d,)
    shapes["classifier.weight"] = (d, N_CLASSES)
    shapes["classifier.bias"] = (N_CLASSES,)
    return shapes


_INIT_STD = 0.02


def init_params(config: ModelConfig, seed: int) -> Params:
    """Truncated-normal(std 0.02) weights, unit norm scales, zero offsets/biases.

    Deterministic given (config, seed): every tensor draws from its own
    seed substream keyed by the tensor name.
    """
    dtype = np.dtype(config.dtype)
    params: Params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("norm_scale"):
            tensor = np.ones(shape)
        elif name.endswith(("norm_offset", "bias", ".bq", ".bk", ".bv",
                            ".bo", ".b1", ".b2")):
            tensor = np.zeros(shape)
        else:
            tensor = truncated_normal(derive_seed(seed, "init", name),
                                      shape, _INIT_STD)
        params[name] = tensor.astype(dtype)
    return params


def zeros_like_params(params: Params) -> Params:
    return {name: np.zeros_like(tensor) for name, tensor in params.items()}


def copy_params(params: Params) -> Params:
    return {name: tensor.copy() for name, tensor in params.items()}


def global_grad_norm(grads: Params) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(total))
