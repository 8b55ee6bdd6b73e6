"""Forward/backward primitives for the self-attention encoder.

Everything is implemented directly on numpy arrays with explicit caches, so
the analytic gradients can be verified entry by entry against central
finite differences.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from ..rng import counter_uniforms, derive_seed

# Python floats, not np.float64: under NEP 50 promotion a numpy float64
# scalar would silently upcast float32 arrays.
_LN_EPS = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Dense

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    y = x @ w + b
    return y, (x, w)


def dense_backward(dy: np.ndarray, cache, width: int | None = None):
    """Gradients of dense_forward: (dx, dw, db).

    `width` is the sequence width W of the encoded batch when x and dy
    are [..., L, d] trimmed from it; the dw product then runs on both
    zero-padded back to W, so dw has the bits of an untrimmed batch.
    """
    x, w = cache
    # BLAS splits the K = rows sum of x.T @ dy into blocks, so dropping
    # the all-zero padding rows regroups it and moves dw by an ulp. The pad
    # keeps training bit-identical to full width; it can go once the
    # benchmark's reference outputs are re-derived from trimmed sums.
    flat_x = _pad_width(x, width).reshape(-1, x.shape[-1])
    flat_dy = _pad_width(dy, width).reshape(-1, dy.shape[-1])
    dw = flat_x.T @ flat_dy
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    # A C-order copy of w.T: with the transposed view, OpenBLAS's
    # small-matrix path sums some row counts in another order, so a row's
    # dx would depend on how many rows the batch was trimmed to.
    dx = dy @ np.ascontiguousarray(w.T)
    return dx, dw, db


def _pad_width(a: np.ndarray, width: int | None) -> np.ndarray:
    """`a` [..., L, d] with zero rows appended up to [..., width, d]."""
    if width is None or width == a.shape[-2]:
        return a
    out = np.zeros(a.shape[:-2] + (width, a.shape[-1]), dtype=a.dtype)
    out[..., :a.shape[-2], :] = a
    return out


# ---------------------------------------------------------------------------
# Layer normalization (over the last axis)

def layer_norm_forward(x: np.ndarray, scale: np.ndarray, offset: np.ndarray):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    x_hat = centered * inv_std
    y = scale * x_hat + offset
    return y, (x_hat, inv_std, scale)


def layer_norm_backward(dy: np.ndarray, cache):
    x_hat, inv_std, scale = cache
    d = x_hat.shape[-1]
    reduce_axes = tuple(range(dy.ndim - 1))
    dscale = (dy * x_hat).sum(axis=reduce_axes)
    doffset = dy.sum(axis=reduce_axes)
    dxhat = dy * scale
    dx = inv_std / d * (d * dxhat
                        - dxhat.sum(axis=-1, keepdims=True)
                        - x_hat * (dxhat * x_hat).sum(axis=-1, keepdims=True))
    return dx, dscale, doffset


# ---------------------------------------------------------------------------
# GELU (exact, erf-based)

def gelu_forward(z: np.ndarray):
    phi = 0.5 * (1.0 + erf(z * _INV_SQRT2))
    return z * phi, (z, phi)


def gelu_backward(da: np.ndarray, cache):
    z, phi = cache
    density = _INV_SQRT2PI * np.exp(-0.5 * z * z)
    return da * (phi + z * density)


# ---------------------------------------------------------------------------
# Softmax and scaled dot-product attention

def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dy: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    return y * (dy - (dy * y).sum(axis=axis, keepdims=True))


def attention_weights(queries: np.ndarray, keys: np.ndarray,
                      mask: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention distribution softmax(QK^T / sqrt(d_k)).

    `mask` holds 1 on real positions, 0 on padding; padded keys receive
    weight exactly 0. Accepts [L, d_k] with mask [L], or any batched layout
    [..., L, d_k] with mask broadcastable to [..., L]. A sequence whose
    positions are all masked is an invalid empty sequence.
    """
    q = np.asarray(queries, dtype=np.float64 if queries.dtype.kind != "f"
                   else queries.dtype)
    k = np.asarray(keys, dtype=q.dtype)
    m = np.asarray(mask)
    if q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]:
        raise ValueError(f"incompatible query/key shapes {q.shape} vs {k.shape}")
    key_valid = np.broadcast_to(m != 0, q.shape[:-2] + (k.shape[-2],))
    if not np.all(key_valid.any(axis=-1)):
        raise ValueError("invalid empty sequence: a row has every position masked")
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    scores = np.where(key_valid[..., None, :], scores, -np.inf)
    return softmax(scores, axis=-1)


# ---------------------------------------------------------------------------
# Dropout (counter-based PRNG keyed by seed, step, and tensor name)

def dropout_mask(shape: tuple[int, ...], rate: float, seed: int, step: int,
                 name: str, dtype, full_shape: tuple[int, ...] | None = None
                 ) -> np.ndarray:
    """Inverted-dropout keep mask, already scaled by 1/(1-rate).

    Draws are numbered by row-major position in `full_shape` (default
    `shape`), and the mask of a smaller `shape` is the leading block of
    the full one: a batch trimmed from width W keeps the entries it has at
    W. The mask is a pure function of (seed, step, name) and the shapes,
    never of the data, so replays are bit-identical.
    """
    full = tuple(shape if full_shape is None else full_shape)
    leading = tuple(slice(0, n) for n in shape[:-1])
    starts = np.arange(math.prod(full[:-1]),
                       dtype=np.uint64).reshape(full[:-1])[leading]
    u = counter_uniforms(derive_seed(seed, "dropout", step, name), shape[-1],
                         offset=starts * np.uint64(full[-1]))
    return (u >= rate).astype(dtype) / (1.0 - rate)
