"""Forward/backward primitives for the self-attention encoder.

Everything is implemented directly on numpy arrays with explicit caches, so
the analytic gradients can be verified entry by entry against central
finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import counter_uniforms, derive_seed

# Python floats, not np.float64: under NEP 50 promotion a numpy float64
# scalar would silently upcast float32 arrays.
_LN_EPS = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Dense

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    y = _matmul(x, w) + b
    return y, (x, w)


def dense_backward(dy: np.ndarray, cache, rows: np.ndarray | None = None,
                   n_rows: int = 0):
    """Gradients of dense_forward: (dx, dw, db).

    `rows` (grid_rows) places the rows of x and dy in the batch's
    full-width grid of `n_rows` rows, when they hold only some of them;
    dw is then summed over that grid, zero elsewhere, so it keeps the bits
    of the full-width batch.
    """
    x, w = cache
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    db = flat_dy.sum(axis=0)
    if rows is not None and rows.size < n_rows:
        dw = _dw_on_grid(flat_x, flat_dy, rows.ravel(), n_rows)
    else:
        dw = flat_x.T @ flat_dy
    # A C-order copy of w.T: with the transposed view, OpenBLAS's
    # small-matrix path sums some row counts in another order, so a row's
    # dx would depend on how many rows the batch was trimmed to.
    dx = _matmul(dy, np.ascontiguousarray(w.T))
    return dx, dw, db


# Columns of the wider operand's grid that _dw_on_grid builds at a time;
# at the desk preset's 32 x 64 grid rows in float64, a slice is 1 MiB.
GRID_SLICE_COLS = 64


def _dw_on_grid(flat_x: np.ndarray, flat_dy: np.ndarray, rows: np.ndarray,
                n_rows: int) -> np.ndarray:
    """flat_x.T @ flat_dy, with each operand's rows at `rows` of a zero
    grid of n_rows rows.

    BLAS splits the K = n_rows sum into blocks, so dropping the all-zero
    rows would regroup it and move dw by an ulp; the grid keeps training
    bit-identical to full width. It can go once the benchmark's reference
    outputs are re-derived from sums over the kept rows (ROADMAP item 4).

    The narrower operand's grid is built whole. The wider one's is built
    GRID_SLICE_COLS columns at a time, in one buffer whose zero rows stay
    zero, and each slice gives its columns of dw by one product over all
    n_rows rows. BLAS sums every entry over the same K blocks whatever the
    product's other dimensions, which is also what lets its threads split
    them, so a slice keeps its columns' bits. That holds for whole slices
    at least GRID_SLICE_COLS square. On OpenBLAS's SkylakeX kernels, a
    remainder narrower than a slice gets other bits than the same columns
    at the end of the whole product, and so does a slice against a partner
    of 8 to 32 columns at some K from 392 up, the pattern of its
    small-matrix path. Other shapes build the whole grid at once.
    """
    wide_is_x = flat_x.shape[1] > flat_dy.shape[1]
    wide, narrow = (flat_x, flat_dy) if wide_is_x else (flat_dy, flat_x)
    narrow_grid = _on_grid(narrow, rows, n_rows)
    cols = wide.shape[1]
    step = cols
    if cols % GRID_SLICE_COLS == 0 and narrow.shape[1] >= GRID_SLICE_COLS:
        step = GRID_SLICE_COLS
    grid = np.zeros((n_rows, step), dtype=wide.dtype)
    dw = np.empty((flat_x.shape[1], flat_dy.shape[1]),
                  dtype=np.result_type(flat_x, flat_dy))
    for start in range(0, cols, step):
        part = slice(start, start + step)
        grid[rows] = wide[:, part]
        if wide_is_x:
            dw[part] = grid.T @ narrow_grid
        else:
            dw[:, part] = narrow_grid.T @ grid
    return dw


def _matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w, with a single row run as two.

    numpy sends a one-row product to gemv, which sums in another order
    than gemm. Two rows keep the bits the row gets among others, for two
    kinds of product: the dense products of a one-sequence batch's [IS]
    row, and the last block's attention products, which have one query
    row per sequence and head.
    """
    if a.shape[-2] != 1:
        return a @ w
    return (np.concatenate([a, a], axis=-2) @ w)[..., :1, :]


# Trimmed widths are multiples of this (model._trim_widths), for two
# reasons. numpy's pairwise sum unrolls 8 ways, so padding a row by whole
# blocks of 8 exact zeros leaves the softmax denominator, and so every
# inference output bit, as at full width. softmax_backward's sum over keys
# is the same pairwise sum, so a trimmed training step keeps its bits too.
# At head size 4 the products BLAS sums over keys need 16 keys for that
# (_matmul_over_keys), and dense_backward pads its dw product for the rest.
WIDTH_MULTIPLE = 8


def _matmul_over_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_matmul(a, b) for a product summed over keys: a [..., n, keys] @
    b [..., keys, d], with fewer than 16 keys padded to 16 by zeros.

    At head size 4, OpenBLAS sums [n, 8] @ [8, 4] in another order than
    the same rows over 16 or more keys, so a batch trimmed to width 8
    would get other bits than at full width. Exact zeros add nothing, so
    the padded product has the full-width bits. This covers the context
    product attn @ v and backward's dscores @ k; the transposed forms
    (q @ kᵀ, attnᵀ @ dctx) match at 8 keys without it.
    """
    keys = a.shape[-1]
    if keys < 2 * WIDTH_MULTIPLE:
        pad = 2 * WIDTH_MULTIPLE - keys
        a = np.concatenate([a, np.zeros(a.shape[:-1] + (pad,), a.dtype)],
                           axis=-1)
        b = np.concatenate([b, np.zeros(b.shape[:-2] + (pad, b.shape[-1]),
                                        b.dtype)], axis=-2)
    return _matmul(a, b)


def _on_grid(flat: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The rows of `flat` [n, d] at `rows` of an otherwise zero [n_rows, d]."""
    out = np.zeros((n_rows, flat.shape[-1]), dtype=flat.dtype)
    out[rows.ravel()] = flat
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

def _erf(x: np.ndarray) -> np.ndarray:
    """scipy.special.erf, imported at the first call.

    GELU is scipy's only use, and importing scipy.special is over half of
    `import infostat.cli`'s time and ~20 MB of its RSS, so commands that
    run no encoder (sigtest, gen-synthetic, build-vocab) never load it.
    The first call rebinds this name to scipy's ufunc, so later calls run
    no import statement.
    """
    global _erf
    from scipy.special import erf
    _erf = erf
    return erf(x)


def gelu_forward(z: np.ndarray):
    # 0.5 * (1.0 + erf(z / sqrt 2)), computed in one buffer.
    phi = _erf(z * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    return z * phi, (z, phi)


def gelu_backward(da: np.ndarray, cache):
    # da * (phi + z * density), density = exp(-z²/2) / sqrt(2π), computed
    # in one buffer with the same operations in the same order.
    z, phi = cache
    out = -0.5 * z
    out *= z
    np.exp(out, out=out)
    out *= _INV_SQRT2PI
    out *= z
    out += phi
    out *= da
    return out


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
    scores = _matmul(q, np.swapaxes(k, -1, -2)) * scale
    scores = np.where(key_valid[..., None, :], scores, -np.inf)
    return softmax(scores, axis=-1)


# ---------------------------------------------------------------------------
# Rows at grid positions, and dropout (counter-based PRNG keyed by seed,
# step, and tensor name)

def grid_rows(n_blocks: int, width: int, cols: np.ndarray) -> np.ndarray:
    """Row numbers, in a grid of n_blocks blocks of `width` rows each, of
    the rows `cols` keeps in each block.

    The grid is a tensor of the batch at its encoded width W, viewed as
    rows: [B*W, d] for hidden states, [B*H*W, W] for attention
    probabilities. A batch trimmed to width L keeps `cols` = [0, L) of each
    block; the last block keeps one row per sequence (and head), its [IS]
    position. `cols` broadcasts to [n_blocks, k]; so does the result.
    """
    return np.arange(n_blocks, dtype=np.int64)[:, None] * width + cols


def dropout_mask(shape: tuple[int, ...], rate: float, seed: int, step: int,
                 name: str, dtype, rows: np.ndarray | None = None,
                 row_len: int | None = None) -> np.ndarray:
    """Inverted-dropout keep mask, already scaled by 1/(1-rate).

    Draws are numbered by row-major position in the grid the mask's rows
    sit in (grid_rows): row r of the mask is the leading shape[-1] draws
    of grid row rows[r], whose rows hold `row_len` draws (default
    shape[-1]; default rows: 0, 1, 2, ...). So a batch trimmed from width
    W, or cut to its [IS] rows, keeps the entries it has at W. The mask is
    a pure function of (seed, step, name), the shape and the rows, never of
    the data, so replays are bit-identical.
    """
    lead = tuple(shape[:-1])
    if rows is None:
        rows = np.arange(math.prod(lead))
    starts = rows.reshape(lead).astype(np.uint64)
    u = counter_uniforms(derive_seed(seed, "dropout", step, name), shape[-1],
                         offset=starts * np.uint64(row_len or shape[-1]))
    return _scaled_keep(u >= rate, rate, dtype)


def _scaled_keep(keep: np.ndarray, rate: float, dtype) -> np.ndarray:
    """The inverted-dropout mask of a boolean keep mask: 1/(1-rate) where
    kept, 0 elsewhere. Caches hold `keep`, and backward rebuilds the mask
    forward applied from it, bit for bit."""
    return keep.astype(dtype) / (1.0 - rate)
