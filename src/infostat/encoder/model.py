"""Self-attention encoder over encoded pseudo sentences.

The forward pass sums token, position and segment embeddings, applies layer
normalization, then n_layers of (multi-head attention + residual + norm,
feed-forward + residual + norm). The class distribution is read from the
hidden state at the [IS] position, and that is all forward returns: the
last block's keys and values run at every position, since every position
is a key, but its queries (Q projection, scores, softmax and attention
dropout) and its output half (output projection, both norms and the
feed-forward) run at the [IS] positions only. All gradients are computed
analytically by the mirrored backward pass.

Training's forward (forward_loss) keeps a cache for backward. It holds,
per block, what backward reads and cannot rebuild exactly: Q, K and V,
the attention probabilities, the inputs of the dense layers but the GELU
output, each norm's normalized values, GELU's (z, phi), and each dropout
keep mask as bool. Backward rebuilds the GELU output as z * phi in z's
buffer (layers.gelu_backward), the dropped probabilities as probabilities
times their mask, and each float mask from its keep mask
(layers._scaled_keep), all bit for bit. Backward consumes the cache: it
pops each block's cache as it reaches the block and each entry at its last
use, so a training step holds only the caches of the blocks that backward
has yet to reach.

predict_batch runs no backward, so its forward keeps no cache
(keep_cache=False): each block drops every intermediate at its last use,
and GELU forms its output in the buffer it computed erf in. A chunk's
memory then peaks inside its first block, at under half of a caching
forward's peak; the arithmetic, and so every bit, is the same.

Outputs keep the bits of the plain algorithm, every position of every
layer at the batch's encoded width, wherever BLAS sums a product's rows
alike at both widths and row counts: dropout masks and weight-gradient
sums are taken at the positions the kept rows have in that full-width grid
(layers.grid_rows), and products summed over keys run over 16 keys at
least (layers._matmul_over_keys). A weight gradient's grid holds the wider
operand a column slice at a time (layers._dw_on_grid): BLAS sums each dw
entry over the same blocks of grid rows whatever the product's other
dimensions, so a slice's product gives its columns the bits of the whole
one. The grid exists only to keep those bits; once the benchmark's
reference outputs are re-derived from sums over the kept rows, it can go
(ROADMAP item 4).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .layers import (WIDTH_MULTIPLE, _matmul, _matmul_over_keys,
                     _scaled_keep, attention_weights, dense_backward,
                     dense_forward, dropout_mask, gelu_backward, gelu_forward,
                     grid_rows, layer_norm_backward, layer_norm_forward,
                     softmax, softmax_backward)
from .params import Params, zeros_like_params


@dataclass(frozen=True)
class Batch:
    """Encoded pseudo sentences, one row per mention."""

    ids: np.ndarray        # [B, L] int
    mask: np.ndarray       # [B, L] 0/1
    segments: np.ndarray   # [B, L] 0/1
    is_index: np.ndarray   # [B] position of [IS] per row
    labels: np.ndarray | None = None  # [B] class indices, optional

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def slice(self, rows) -> "Batch":
        return Batch(ids=self.ids[rows], mask=self.mask[rows],
                     segments=self.segments[rows], is_index=self.is_index[rows],
                     labels=None if self.labels is None else self.labels[rows])


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """[B, L, d], or [B, d] at one position, to [B, heads, L, d_head]."""
    b, d = x.shape[0], x.shape[-1]
    return x.reshape(b, -1, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dk)


def _maybe_dropout(x, name, rows, row_len=None, *, rate, seed, step):
    """(x with dropout applied, its boolean keep mask), or (x, None)."""
    if rate == 0.0:
        return x, None
    scaled = dropout_mask(x.shape, rate, seed, step, name, x.dtype, rows,
                          row_len)
    return x * scaled, scaled != 0


def _dropped(x, keep, rate):
    """x times the dropout mask forward applied with `keep` (or x, if None)."""
    return x if keep is None else x * _scaled_keep(keep, rate, x.dtype)


def _layer_forward(x, mask, i, params, config, drop, width, is_index=None,
                   keep_cache=True):
    """One block: (its output, its cache for backward, or None without
    `keep_cache`, when each intermediate is freed at its last use).

    Its queries run at every position, or given `is_index` at each row's
    [IS] position only; so does all that follows them, and the block's
    output is then [B, d]. Keys and values run at every position."""
    p = f"layer{i}"
    b, cols = x.shape[:2]
    heads = config.n_heads
    if is_index is None:
        x_q, q_cols = x, np.broadcast_to(np.arange(cols), (b, cols))
    else:
        x_q, q_cols = x[np.arange(b), is_index], is_index[:, None]
    rows = grid_rows(b, width, q_cols)
    cache = dict(rows=rows, is_index=is_index) if keep_cache else None

    def keep(**entries):
        if cache is not None:
            cache.update(entries)

    def dense(x_in, entry, weight, bias):
        y, dense_cache = dense_forward(x_in, params[f"{p}.{weight}"],
                                       params[f"{p}.{bias}"])
        keep(**{entry: dense_cache})
        return y

    q = _split_heads(dense(x_q, "cache_q", "attn.wq", "attn.bq"), heads)
    k = _split_heads(dense(x, "cache_k", "attn.wk", "attn.bk"), heads)
    v = _split_heads(dense(x, "cache_v", "attn.wv", "attn.bv"), heads)
    attn = attention_weights(q, k, mask[:, None, :])
    attn_rows = grid_rows(b * heads, width, np.repeat(q_cols, heads, axis=0))
    attn_kept, attn_keep = drop(attn, f"{p}.attn_probs", attn_rows, width)
    keep(q=q, k=k, v=v, attn=attn, attn_keep=attn_keep)
    del q, k, attn
    context = _merge_heads(_matmul_over_keys(attn_kept, v)).reshape(x_q.shape)
    del attn_kept, v

    o, o_keep = drop(dense(context, "cache_o", "attn.wo", "attn.bo"),
                     f"{p}.attn_out", rows)
    del context
    o += x_q
    x1, cache_ln1 = layer_norm_forward(o, params[f"{p}.attn.norm_scale"],
                                       params[f"{p}.attn.norm_offset"])
    keep(o_keep=o_keep, cache_ln1=cache_ln1)
    del o, cache_ln1

    a1, cache_g = gelu_forward(dense(x1, "cache_f1", "ffn.w1", "ffn.b1"),
                               keep_cache)
    keep(cache_g=cache_g)
    # Not its cache, which would hold a1 past the del.
    z2 = dense_forward(a1, params[f"{p}.ffn.w2"], params[f"{p}.ffn.b2"])[0]
    del a1
    u, u_keep = drop(z2, f"{p}.ffn_out", rows)
    del z2
    u += x1
    x2, cache_ln2 = layer_norm_forward(u, params[f"{p}.ffn.norm_scale"],
                                       params[f"{p}.ffn.norm_offset"])
    # Neither the GELU output nor the dropped attention probabilities are
    # kept: backward rebuilds them from cache_g and attn_keep.
    keep(u_keep=u_keep, cache_ln2=cache_ln2)
    return x2, cache


def _at_is(a, is_index, cols):
    """[B, cols, d] zeros with the [IS] rows `a` [B, d] in place."""
    out = np.zeros((a.shape[0], cols, a.shape[-1]), dtype=a.dtype)
    out[np.arange(a.shape[0]), is_index] = a
    return out


def _layer_backward(dx2, cache, i, params, config, grads, hidden_rows, n_rows):
    """One block's backward. It pops each entry of `cache` at its last use
    and drops each gradient after its last use, so only live tensors are
    held."""
    p = f"layer{i}"
    scale = 1.0 / math.sqrt(config.d_head)
    rate = config.dropout_rate
    rows, is_index = cache.pop("rows"), cache.pop("is_index")

    dres2, dg, db = layer_norm_backward(dx2, cache.pop("cache_ln2"))
    grads[f"{p}.ffn.norm_scale"] += dg
    grads[f"{p}.ffn.norm_offset"] += db
    du = _dropped(dres2, cache.pop("u_keep"), rate)
    # The output is the exact product gelu_forward returned; both it and
    # the derivative take the buffers of the GELU cache.
    a1, dgelu = gelu_backward(cache.pop("cache_g"))
    da1, dw2, db2 = dense_backward(du, (a1, params[f"{p}.ffn.w2"]),
                                   rows, n_rows)
    del du, a1
    grads[f"{p}.ffn.w2"] += dw2
    grads[f"{p}.ffn.b2"] += db2
    da1 *= dgelu  # the gradient at the GELU input
    del dgelu
    dx1_ffn, dw1, db1 = dense_backward(da1, cache.pop("cache_f1"), rows, n_rows)
    del da1
    grads[f"{p}.ffn.w1"] += dw1
    grads[f"{p}.ffn.b1"] += db1
    dx1 = dres2 + dx1_ffn
    del dres2, dx1_ffn

    dres1, dg, db = layer_norm_backward(dx1, cache.pop("cache_ln1"))
    del dx1
    grads[f"{p}.attn.norm_scale"] += dg
    grads[f"{p}.attn.norm_offset"] += db
    do = _dropped(dres1, cache.pop("o_keep"), rate)
    dcontext, dwo, dbo = dense_backward(do, cache.pop("cache_o"), rows, n_rows)
    del do
    grads[f"{p}.attn.wo"] += dwo
    grads[f"{p}.attn.bo"] += dbo

    v, attn = cache.pop("v"), cache.pop("attn")
    attn_keep = cache.pop("attn_keep")
    cols = v.shape[2]
    dctx_heads = _split_heads(dcontext, config.n_heads)
    dattn = _dropped(_matmul(dctx_heads, np.swapaxes(v, -1, -2)), attn_keep,
                     rate)
    del v
    # attn * keep is the exact product forward ran the context product on.
    # With one query row, every entry of dv and dk is a single product,
    # exact in any summation order, so a plain @ keeps the bits.
    dv = np.swapaxes(_dropped(attn, attn_keep, rate), -1, -2) @ dctx_heads
    del dctx_heads, attn_keep
    dscores = softmax_backward(dattn, attn)
    del dattn, attn
    q, k = cache.pop("q"), cache.pop("k")
    dq = _matmul_over_keys(dscores, k) * scale
    dk = (np.swapaxes(dscores, -1, -2) @ q) * scale
    del dscores, q, k

    dx_q, dwq, dbq = dense_backward(_merge_heads(dq).reshape(dres1.shape),
                                    cache.pop("cache_q"), rows, n_rows)
    del dq
    grads[f"{p}.attn.wq"] += dwq
    grads[f"{p}.attn.bq"] += dbq
    dx = dres1 + dx_q
    del dres1, dx_q
    if is_index is not None:
        dx = _at_is(dx, is_index, cols)
    dx_k, dwk, dbk = dense_backward(_merge_heads(dk), cache.pop("cache_k"),
                                    hidden_rows, n_rows)
    del dk
    grads[f"{p}.attn.wk"] += dwk
    grads[f"{p}.attn.bk"] += dbk
    dx += dx_k
    del dx_k
    dx_v, dwv, dbv = dense_backward(_merge_heads(dv), cache.pop("cache_v"),
                                    hidden_rows, n_rows)
    del dv
    grads[f"{p}.attn.wv"] += dwv
    grads[f"{p}.attn.bv"] += dbv
    dx += dx_v
    return dx


def _check_width(width: int, config: ModelConfig) -> None:
    if width > config.max_len:
        raise ValueError(f"sequence length {width} exceeds "
                         f"max_len={config.max_len}")


def _trim_widths(batch: Batch, config: ModelConfig) -> np.ndarray:
    """Per row, the width a trimmed batch must keep.

    That is up to the last unmasked position or the [IS] position,
    whichever is later, rounded up to a multiple of WIDTH_MULTIPLE and
    capped at the batch width.
    """
    mask = np.asarray(batch.mask)
    width = mask.shape[1]
    _check_width(width, config)
    last_real = width - np.argmax(mask[:, ::-1] != 0, axis=1)
    longest = np.maximum(last_real, np.asarray(batch.is_index) + 1)
    return np.minimum(-(-longest // WIDTH_MULTIPLE) * WIDTH_MULTIPLE, width)


def forward(ids, mask, segments, is_index, params: Params, config: ModelConfig,
            train_mode: bool = False, dropout_seed: int = 0, step: int = 0,
            encoded_width: int | None = None, keep_cache: bool = True):
    """Run the encoder; returns (the [IS] hidden states, cache for backward).

    Takes a batch [B, L] with `is_index` [B] and gives [B, d]; L is any
    width of at most config.max_len, and position embeddings are those of
    positions 0..L-1. The last block's keys and values run at every
    position, its queries and its output half at the [IS] positions only.
    Dropout is active only in train_mode and is a deterministic function of
    (dropout_seed, step, tensor name). `encoded_width` (default L) is the
    width W the batch was encoded at when it was trimmed to L: dropout
    masks are drawn at the positions the kept rows have at W, and backward
    sums weight gradients over the rows at W, so both keep the bits of the
    untrimmed batch. The cache serves one backward call, which consumes it.
    Without `keep_cache` the cache is None, and each block frees every
    intermediate at its last use.
    """
    ids, mask, segments = (np.asarray(a) for a in (ids, mask, segments))
    if ids.ndim != 2 or ids.shape != mask.shape or ids.shape != segments.shape:
        raise ValueError("ids, mask and segments must share one shape [B, L]")
    b, width = ids.shape
    encoded = width if encoded_width is None else encoded_width
    if encoded < width:
        raise ValueError(f"encoded_width {encoded} is narrower than the "
                         f"batch width {width}")
    _check_width(encoded, config)
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id outside the vocabulary")
    if np.any(mask.sum(axis=1) == 0):
        raise ValueError("invalid empty sequence: a row has every position masked")
    idx = np.asarray(is_index, dtype=np.int64)
    if idx.shape != (b,):
        raise ValueError(f"is_index has shape {idx.shape}, not ({b},)")
    if idx.min() < 0 or idx.max() >= width:
        raise ValueError("is_index outside the sequence")
    if np.any(mask[np.arange(b), idx] == 0):
        raise ValueError("is_index points at padding")

    dtype = np.dtype(config.dtype)
    drop = functools.partial(
        _maybe_dropout, rate=config.dropout_rate if train_mode else 0.0,
        seed=dropout_seed, step=step)
    hidden_rows = grid_rows(b, encoded, np.arange(width))
    emb = (params["embeddings.token"][ids]
           + params["embeddings.position"][None, :width, :]
           + params["embeddings.segment"][segments]).astype(dtype, copy=False)
    x, cache_ln = layer_norm_forward(emb, params["embeddings.norm_scale"],
                                     params["embeddings.norm_offset"])
    del emb
    x, emb_keep = drop(x, "embeddings", hidden_rows)
    cache = dict(ids=ids, segments=segments, cache_ln=cache_ln,
                 emb_keep=emb_keep, layer_caches=[], hidden_rows=hidden_rows,
                 n_rows=b * encoded) if keep_cache else None
    del cache_ln

    mask_f = mask.astype(dtype)
    for i in range(config.n_layers):
        last = i == config.n_layers - 1
        x, layer_cache = _layer_forward(x, mask_f, i, params, config, drop,
                                        encoded, idx if last else None,
                                        keep_cache)
        if cache is not None:
            cache["layer_caches"].append(layer_cache)
    return x, cache


def backward(d_is: np.ndarray, cache, params: Params,
             config: ModelConfig) -> Params:
    """Backpropagate a gradient at the [IS] hidden states [B, d] into all
    parameters.

    The last block runs backward on the [IS] rows down to its queries;
    the gradients of its input enter at their positions, zero elsewhere,
    and its keys and values add theirs at every position. Weight gradients
    are summed over the full-width grid (dense_backward), so they keep the
    bits of the untrimmed batch.

    Consumes `cache`: each entry is popped at its last use, so the caches
    of the blocks already run backward are freed, and the cache is empty
    when backward returns.
    """
    grads = zeros_like_params(params)
    dx = d_is
    ids = cache.pop("ids")
    layer_caches = cache.pop("layer_caches")
    hidden_rows, n_rows = cache.pop("hidden_rows"), cache.pop("n_rows")
    for i in reversed(range(config.n_layers)):
        dx = _layer_backward(dx, layer_caches.pop(), i, params, config,
                             grads, hidden_rows, n_rows)
    dx = _dropped(dx, cache.pop("emb_keep"), config.dropout_rate)
    demb, dg, db = layer_norm_backward(dx, cache.pop("cache_ln"))
    del dx
    grads["embeddings.norm_scale"] += dg
    grads["embeddings.norm_offset"] += db

    d = demb.shape[-1]
    flat = demb.reshape(-1, d)
    np.add.at(grads["embeddings.token"], ids.ravel(), flat)
    grads["embeddings.position"][:demb.shape[1]] += demb.sum(axis=0)
    np.add.at(grads["embeddings.segment"], cache.pop("segments").ravel(), flat)
    return grads


def classify(h_is: np.ndarray, params: Params) -> np.ndarray:
    """Class distributions [B, n_classes] from [IS] hidden states [B, d]."""
    return softmax(_head_logits(h_is, params))


def _head_logits(h_is: np.ndarray, params: Params) -> np.ndarray:
    return h_is @ params["classifier.weight"] + params["classifier.bias"]


def forward_loss(batch: Batch, params: Params, config: ModelConfig,
                 train_mode: bool, dropout_seed: int, step: int):
    """Forward pass and mean cross-entropy over the batch, without backward.

    The batch is trimmed to the width of its longest row (_trim_widths) and
    run with encoded_width set to its own width; forward returns only the
    [IS] states the head reads. The loss, and the gradients backward
    derives from it, match the full-width algorithm at every position, bit
    for bit wherever BLAS sums a product's rows alike at both widths and
    row counts: in float64 at head sizes 4, 8 and 16, the desk preset's
    among them, whatever width the batch trims to; see the trimmed-training
    tests. Returns (loss, log_probs, h_is, cache): the loss and what
    loss_and_gradients needs to backpropagate it.
    """
    if batch.labels is None:
        raise ValueError("unlabeled example in batch: training requires labels")
    cols = int(_trim_widths(batch, config).max())
    h_is, cache = forward(batch.ids[:, :cols], batch.mask[:, :cols],
                          batch.segments[:, :cols], batch.is_index, params,
                          config, train_mode=train_mode,
                          dropout_seed=dropout_seed, step=step,
                          encoded_width=batch.ids.shape[1])
    logits = _head_logits(h_is, params)
    rows = np.arange(len(batch))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = float(-log_probs[rows, batch.labels].mean())
    return loss, log_probs, h_is, cache


def loss_and_gradients(batch: Batch, params: Params, config: ModelConfig,
                       train_mode: bool = True, dropout_seed: int = 0,
                       step: int = 0) -> tuple[float, Params]:
    """Mean cross-entropy over the batch and gradients for every parameter."""
    loss, log_probs, h_is, cache = forward_loss(
        batch, params, config, train_mode, dropout_seed, step)
    b = len(batch)
    dlogits = np.exp(log_probs)
    dlogits[np.arange(b), batch.labels] -= 1.0
    dlogits /= b

    grads = backward(dlogits @ params["classifier.weight"].T, cache, params,
                     config)
    grads["classifier.weight"] += h_is.T @ dlogits
    grads["classifier.bias"] += dlogits.sum(axis=0)
    return loss, grads


# Rows per forward call. The chunks in flight set predict's peak memory.
# At the desk preset in float64 a chunk peaks in its first block, at
# about 0.12 MiB per row at width 24, so under tracemalloc 2000 such rows
# peak near 8.9 MiB with two chunks of 32 in flight, and near 32 MiB with
# one chunk of 256. On a 2-vCPU Xeon, predict-longdoc ran faster at 32
# rows than at 64. The size changes no output bit (predict_batch).
PREDICT_CHUNK_ROWS = 32
# Chunks run at once, each on its own thread: numpy's loops and BLAS
# release the GIL, so two chunks keep both cores of a desk host busy. A
# constant, not the core count, so at most two chunks are in flight and
# the memory bound does not grow with the host.
PREDICT_WORKERS = 2


def predict_batch(batch: Batch, params: Params, config: ModelConfig) -> np.ndarray:
    """Probabilities [B, n_classes] for an encoded batch, dropout off.

    Rows are stable-sorted by trimmed width (_trim_widths) and run in
    chunks of at most PREDICT_CHUNK_ROWS, PREDICT_WORKERS chunks at a time
    on a thread pool; each chunk writes only its own rows of the [IS]
    states, and an error in any chunk is raised here. So the chunks in
    flight, not the batch, set the peak memory. Each chunk is trimmed to
    the width of its widest row, so no work is spent on columns that are
    padding in every row, and forward runs the last block's queries and
    output half at the [IS] rows only. The head then runs once over the
    [IS] states of the whole batch, in input row order, so a one-row chunk
    makes no one-row product (gemv). The result matches one full-width
    forward at every position; bit for bit wherever BLAS sums a product's
    rows alike at both widths and row counts, as in float64 at head sizes
    4, 8 and 16. So a row's probabilities do not depend on the chunk it
    lands in, on the chunk size or on the order chunks finish in.
    """
    ids, mask, segments, is_index = (np.asarray(a) for a in (
        batch.ids, batch.mask, batch.segments, batch.is_index))
    widths = _trim_widths(batch, config)
    if len(batch) == 0:
        raise ValueError("no rows to predict")
    order = np.argsort(widths, kind="stable")
    states = np.empty((len(order), config.d_model), dtype=config.dtype)

    def run_chunk(start):
        rows = order[start:start + PREDICT_CHUNK_ROWS]
        cols = int(widths[rows[-1]])
        states[rows] = forward(ids[rows, :cols], mask[rows, :cols],
                               segments[rows, :cols], is_index[rows], params,
                               config, keep_cache=False)[0]

    with ThreadPoolExecutor(PREDICT_WORKERS) as pool:
        # Reading every result re-raises the first chunk's error, if any.
        list(pool.map(run_chunk, range(0, len(order), PREDICT_CHUNK_ROWS)))
    return classify(states, params)
