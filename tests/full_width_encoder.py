"""The encoder computed at every position of every layer, as a test oracle.

`infostat.encoder.model` trims each batch to its longest row and runs the
last block's queries and output half only at the [IS] positions. This
module keeps the plain algorithm those shortcuts must reproduce: the batch
at its full encoded width, every block with a query at every position,
dropout drawn row-major over each full tensor, and the head reading the
[IS] row of the final hidden states. It is built from the same primitives (`infostat.encoder.layers`),
so the two agree bit for bit wherever BLAS sums a product's rows alike at
both widths and row counts.
"""

from __future__ import annotations

import math

import numpy as np

from infostat.encoder.layers import (attention_weights, dense_backward,
                                     dense_forward, dropout_mask,
                                     gelu_backward, gelu_forward,
                                     layer_norm_backward, layer_norm_forward,
                                     softmax, softmax_backward)
from infostat.encoder.params import zeros_like_params


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dk)


def _dropout(x, config, train_mode, seed, step, name):
    if not train_mode or config.dropout_rate == 0.0:
        return x, None
    keep = dropout_mask(x.shape, config.dropout_rate, seed, step, name,
                        x.dtype)
    return x * keep, keep


def _block_forward(x, mask, i, params, config, train_mode, seed, step):
    p = f"layer{i}"

    def drop(t, name):
        return _dropout(t, config, train_mode, seed, step, f"{p}.{name}")

    c = {}
    q_lin, c["q_lin"] = dense_forward(x, params[f"{p}.attn.wq"],
                                      params[f"{p}.attn.bq"])
    k_lin, c["k_lin"] = dense_forward(x, params[f"{p}.attn.wk"],
                                      params[f"{p}.attn.bk"])
    v_lin, c["v_lin"] = dense_forward(x, params[f"{p}.attn.wv"],
                                      params[f"{p}.attn.bv"])
    c["q"], c["k"], c["v"] = (_split_heads(t, config.n_heads)
                              for t in (q_lin, k_lin, v_lin))
    c["attn"] = attention_weights(c["q"], c["k"], mask[:, None, :])
    c["attn_kept"], c["attn_drop"] = drop(c["attn"], "attn_probs")
    context = _merge_heads(c["attn_kept"] @ c["v"])
    o_lin, c["o"] = dense_forward(context, params[f"{p}.attn.wo"],
                                  params[f"{p}.attn.bo"])
    o, c["o_drop"] = drop(o_lin, "attn_out")
    x1, c["ln1"] = layer_norm_forward(x + o, params[f"{p}.attn.norm_scale"],
                                      params[f"{p}.attn.norm_offset"])
    z1, c["f1"] = dense_forward(x1, params[f"{p}.ffn.w1"],
                                params[f"{p}.ffn.b1"])
    a1, c["g"] = gelu_forward(z1)
    z2, c["f2"] = dense_forward(a1, params[f"{p}.ffn.w2"],
                                params[f"{p}.ffn.b2"])
    u, c["u_drop"] = drop(z2, "ffn_out")
    x2, c["ln2"] = layer_norm_forward(x1 + u, params[f"{p}.ffn.norm_scale"],
                                      params[f"{p}.ffn.norm_offset"])
    return x2, c


def _add(grads, names, values):
    # Into the zeros of zeros_like_params, as the program does, so a -0.0
    # lands as +0.0 in both.
    for name, value in zip(names, values):
        grads[name] += value


def _block_backward(dx2, c, i, params, config, grads):
    p = f"layer{i}"
    dres2, *g = layer_norm_backward(dx2, c["ln2"])
    _add(grads, (f"{p}.ffn.norm_scale", f"{p}.ffn.norm_offset"), g)
    du = dres2 if c["u_drop"] is None else dres2 * c["u_drop"]
    da1, *g = dense_backward(du, c["f2"])
    _add(grads, (f"{p}.ffn.w2", f"{p}.ffn.b2"), g)
    dx1_ffn, *g = dense_backward(da1 * gelu_backward(c["g"])[1], c["f1"])
    _add(grads, (f"{p}.ffn.w1", f"{p}.ffn.b1"), g)
    dres1, *g = layer_norm_backward(dres2 + dx1_ffn, c["ln1"])
    _add(grads, (f"{p}.attn.norm_scale", f"{p}.attn.norm_offset"), g)
    do = dres1 if c["o_drop"] is None else dres1 * c["o_drop"]
    dcontext, *g = dense_backward(do, c["o"])
    _add(grads, (f"{p}.attn.wo", f"{p}.attn.bo"), g)

    dctx = _split_heads(dcontext, config.n_heads)
    dattn = dctx @ np.swapaxes(c["v"], -1, -2)
    dv = np.swapaxes(c["attn_kept"], -1, -2) @ dctx
    if c["attn_drop"] is not None:
        dattn = dattn * c["attn_drop"]
    dscores = softmax_backward(dattn, c["attn"])
    scale = 1.0 / math.sqrt(config.d_head)
    dq = (dscores @ c["k"]) * scale
    dk = (np.swapaxes(dscores, -1, -2) @ c["q"]) * scale
    dx = dres1
    for name, d in (("q", dq), ("k", dk), ("v", dv)):
        dx_part, *g = dense_backward(_merge_heads(d), c[f"{name}_lin"])
        _add(grads, (f"{p}.attn.w{name}", f"{p}.attn.b{name}"), g)
        dx = dx + dx_part
    return dx


def forward(batch, params, config, train_mode=False, seed=0, step=0):
    """Hidden states [B, W, d] at every position, and the cache."""
    dtype = np.dtype(config.dtype)
    width = batch.ids.shape[1]
    emb = (params["embeddings.token"][batch.ids]
           + params["embeddings.position"][None, :width, :]
           + params["embeddings.segment"][batch.segments]).astype(dtype)
    x, ln = layer_norm_forward(emb, params["embeddings.norm_scale"],
                               params["embeddings.norm_offset"])
    x, emb_drop = _dropout(x, config, train_mode, seed, step, "embeddings")
    mask = batch.mask.astype(dtype)
    blocks = []
    for i in range(config.n_layers):
        x, c = _block_forward(x, mask, i, params, config, train_mode, seed,
                              step)
        blocks.append(c)
    return x, dict(ln=ln, emb_drop=emb_drop, blocks=blocks)


def _is_states(hidden, batch):
    return hidden[np.arange(len(batch)), batch.is_index]


def predict(batch, params, config):
    """Class probabilities [B, n_classes] from one full-width forward."""
    hidden, _ = forward(batch, params, config)
    logits = (_is_states(hidden, batch) @ params["classifier.weight"]
              + params["classifier.bias"])
    return softmax(logits)


def loss_and_gradients(batch, params, config, dropout_seed, step,
                       train_mode=True):
    """Mean cross-entropy and every parameter's gradient, at full width."""
    hidden, cache = forward(batch, params, config, train_mode, dropout_seed,
                            step)
    rows = np.arange(len(batch))
    h_is = _is_states(hidden, batch)
    logits = h_is @ params["classifier.weight"] + params["classifier.bias"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[rows, batch.labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[rows, batch.labels] -= 1.0
    dlogits /= len(batch)

    grads = zeros_like_params(params)
    dx = np.zeros_like(hidden)
    dx[rows, batch.is_index] = dlogits @ params["classifier.weight"].T
    for i in reversed(range(config.n_layers)):
        dx = _block_backward(dx, cache["blocks"][i], i, params, config, grads)
    if cache["emb_drop"] is not None:
        dx = dx * cache["emb_drop"]
    demb, *g = layer_norm_backward(dx, cache["ln"])
    _add(grads, ("embeddings.norm_scale", "embeddings.norm_offset"), g)
    flat = demb.reshape(-1, demb.shape[-1])
    np.add.at(grads["embeddings.token"], batch.ids.ravel(), flat)
    grads["embeddings.position"][:demb.shape[1]] += demb.sum(axis=0)
    np.add.at(grads["embeddings.segment"], batch.segments.ravel(), flat)
    _add(grads, ("classifier.weight", "classifier.bias"),
         (h_is.T @ dlogits, dlogits.sum(axis=0)))
    return loss, grads
