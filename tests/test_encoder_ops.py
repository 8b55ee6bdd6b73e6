import inspect
import math

import mpmath
import numpy as np
import pytest

from infostat.encoder import attention_weights, layers
from infostat.encoder.model import _split_heads
from infostat.rng import SplitMix64, counter_uniforms, derive_seed


def test_singleton_sequence_attends_to_itself():
    q = np.array([[0.3, -1.2]])
    k = np.array([[2.0, 0.5]])
    w = attention_weights(q, k, np.array([1]))
    assert w.shape == (1, 1)
    assert w[0, 0] == 1.0


def test_zero_scores_give_uniform_rows():
    n = 5
    q = np.zeros((n, 4))
    k = np.zeros((n, 4))
    w = attention_weights(q, k, np.ones(n, dtype=int))
    assert np.allclose(w, 1.0 / n)


def test_matches_extended_precision_oracle():
    # Brute-force softmax(QK^T/sqrt(d)) at 50 significant digits.
    rng = SplitMix64(123)
    n, d = 4, 6
    q = np.array([[rng.uniform() * 4 - 2 for _ in range(d)] for _ in range(n)])
    k = np.array([[rng.uniform() * 4 - 2 for _ in range(d)] for _ in range(n)])
    w = attention_weights(q, k, np.ones(n, dtype=int))

    mpmath.mp.dps = 50
    scale = 1 / mpmath.sqrt(d)
    for i in range(n):
        scores = [sum(mpmath.mpf(q[i, t]) * mpmath.mpf(k[j, t])
                      for t in range(d)) * scale for j in range(n)]
        exps = [mpmath.e ** s for s in scores]
        total = sum(exps)
        for j in range(n):
            assert abs(w[i, j] - float(exps[j] / total)) < 1e-10


def test_masked_keys_get_exactly_zero_weight():
    rng = SplitMix64(7)
    n, d = 6, 4
    q = np.array([[rng.uniform() for _ in range(d)] for _ in range(n)])
    k = np.array([[rng.uniform() for _ in range(d)] for _ in range(n)])
    mask = np.array([1, 1, 1, 1, 0, 0])
    w = attention_weights(q, k, mask)
    assert np.all(w[:, 4:] == 0.0)
    assert np.allclose(w[:, :4].sum(axis=1), 1.0, atol=1e-6)


def test_rows_normalize_over_many_random_shapes():
    for trial in range(100):
        rng = SplitMix64(trial)
        b = 1 + rng.randint(3)
        h = 1 + rng.randint(3)
        n = 2 + rng.randint(6)
        d = 1 + rng.randint(8)
        size = b * h * n * d
        q = (counter_uniforms(trial * 2 + 1, size) * 6 - 3).reshape(b, h, n, d)
        k = (counter_uniforms(trial * 2 + 2, size) * 6 - 3).reshape(b, h, n, d)
        mask = np.zeros((b, n), dtype=int)
        for row in range(b):
            mask[row, :1 + rng.randint(n)] = 1
        w = attention_weights(q, k, mask[:, None, :])
        sums = w.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-6)
        masked = np.broadcast_to((mask == 0)[:, None, None, :], w.shape)
        assert np.all(w[masked] == 0.0)


def test_all_masked_sequence_is_an_error():
    q = np.zeros((2, 3))
    k = np.zeros((2, 3))
    with pytest.raises(ValueError, match="empty sequence"):
        attention_weights(q, k, np.array([0, 0]))


def test_incompatible_shapes_are_rejected():
    with pytest.raises(ValueError, match="incompatible"):
        attention_weights(np.zeros((2, 3)), np.zeros((2, 4)), np.array([1, 1]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_primitive_preserves_dtype(dtype):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 8)).astype(dtype)
    w = rng.standard_normal((8, 4)).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)
    scale = np.ones(8, dtype=dtype)
    offset = np.zeros(8, dtype=dtype)
    mask = np.array([[1, 1, 0], [1, 0, 0]])

    y, cache = layers.dense_forward(x, w, b)
    outputs = [y, *layers.dense_backward(y, cache)]
    y, cache = layers.layer_norm_forward(x, scale, offset)
    outputs += [y, *layers.layer_norm_backward(x, cache)]
    y, cache = layers.gelu_forward(x)
    outputs += [y, layers.gelu_backward(x, cache)]
    y = layers.softmax(x)
    outputs += [y, layers.softmax_backward(x, y)]
    outputs.append(layers.attention_weights(x, x, mask))
    outputs.append(layers.dropout_mask(x.shape, 0.1, 1, 2, "t", dtype))
    for out in outputs:
        assert out.dtype == dtype

    public = {name for name, f in vars(layers).items()
              if inspect.isfunction(f) and f.__module__ == layers.__name__
              and not name.startswith("_")}
    assert public == {"dense_forward", "dense_backward", "layer_norm_forward",
                      "layer_norm_backward", "gelu_forward", "gelu_backward",
                      "softmax", "softmax_backward", "attention_weights",
                      "grid_rows", "dropout_mask"}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.5])
@pytest.mark.parametrize("full, trimmed", [
    ((3, 24, 16), (3, 8, 16)),          # hidden states [B, W, d]
    ((3, 21, 16), (3, 16, 16)),         # W not a multiple of 8
    ((2, 4, 24, 24), (2, 4, 16, 16)),   # attention probabilities [B, H, W, W]
    ((2, 4, 13, 13), (2, 4, 8, 8)),
    ((2, 4, 13, 13), (2, 4, 13, 13)),   # nothing trimmed
])
def test_trimmed_dropout_mask_is_leading_block_of_full_mask(full, trimmed,
                                                             rate, dtype):
    # The full-shape mask as drawn before masks could be trimmed.
    u = counter_uniforms(derive_seed(11, "dropout", 4, "t"), math.prod(full))
    oracle = ((u >= rate).astype(dtype) / (1 - rate)).reshape(full)
    full_mask = layers.dropout_mask(full, rate, 11, 4, "t", dtype)
    assert full_mask.dtype == dtype
    assert full_mask.tobytes() == oracle.tobytes()
    blocks, width = math.prod(full[:-2]), full[-2]
    rows = layers.grid_rows(blocks, width, np.arange(trimmed[-2]))
    block = layers.dropout_mask(trimmed, rate, 11, 4, "t", dtype, rows,
                                full[-1])
    expected = full_mask[tuple(slice(0, n) for n in trimmed)]
    assert block.shape == trimmed and block.dtype == dtype
    assert block.tobytes() == np.ascontiguousarray(expected).tobytes()
    # The last block: one row per sequence, or per sequence and head, at
    # its [IS] position inside the trimmed width.
    b = full[0]
    is_index = np.asarray([SplitMix64(b + i).randint(trimmed[-2])
                           for i in range(b)])
    if len(full) == 3:
        rows = layers.grid_rows(b, width, is_index[:, None])
        at_is = layers.dropout_mask((b, full[-1]), rate, 11, 4, "t", dtype,
                                    rows)
        expected = full_mask[np.arange(b), is_index]
    else:
        heads = full[1]
        rows = layers.grid_rows(b * heads, width,
                                np.repeat(is_index, heads)[:, None])
        at_is = layers.dropout_mask((b, heads, 1, trimmed[-1]), rate, 11, 4,
                                    "t", dtype, rows, full[-1])
        expected = full_mask[np.arange(b), :, is_index, :trimmed[-1]]
    assert at_is.tobytes() == np.ascontiguousarray(expected).tobytes()


SLICE = layers.GRID_SLICE_COLS


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("b", [1, 3, 8, 32])
@pytest.mark.parametrize("d_in, d_out", [
    (SLICE, 4 * SLICE),      # dy built a slice at a time
    (4 * SLICE, SLICE),      # x built a slice at a time
    (SLICE // 4, SLICE // 2),  # the grid narrower than one slice
    (SLICE // 4, 4 * SLICE),   # too narrow a partner to slice
    (SLICE, 4 * SLICE + 44),   # no whole number of slices
], ids=["d_out-sliced", "d_in-sliced", "narrow", "narrow-partner", "ragged"])
@pytest.mark.parametrize("kept", ["trimmed", "is_rows"])
def test_dense_backward_on_grid_rows_sums_as_full_grid(kept, d_in, d_out, b,
                                                       dtype):
    # dw and db over the kept rows, placed in a zero grid, equal those of
    # the full grid whose other rows carry zero gradient, bit for bit. B=1
    # and 3 give small products; at B=8 and 32, 512 and 2048 grid rows are
    # enough for BLAS to split dw's sum into blocks.
    width = 64

    def uniforms(seed, shape):
        return (counter_uniforms(seed, math.prod(shape)).reshape(shape)
                - 0.5).astype(dtype)

    x = uniforms(1, (b * width, d_in))
    w = uniforms(2, (d_in, d_out))
    dy = uniforms(3, (b * width, d_out))
    cols = np.arange(24) if kept == "trimmed" \
        else (np.arange(b) * 7 % width)[:, None]
    rows = layers.grid_rows(b, width, cols).ravel()
    dy_full = np.zeros_like(dy)
    dy_full[rows] = dy[rows]
    _, dw_full, db_full = layers.dense_backward(dy_full, (x, w))
    _, dw, db = layers.dense_backward(dy[rows], (x[rows], w), rows,
                                      b * width)
    assert dw.dtype == dw_full.dtype
    assert dw.tobytes() == dw_full.tobytes()
    assert db.tobytes() == db_full.tobytes()


@pytest.mark.parametrize("d_head", [4, 8, 16])
@pytest.mark.parametrize("b", [1, 2, 7, 33])
@pytest.mark.parametrize("width", [8, 24, 64])
def test_is_query_row_products_match_rows_of_full_products(d_head, b, width):
    # The last block runs its queries at [IS] only. Its score row q·kᵀ and
    # its context row attn·v must be those rows of the products over every
    # query, byte for byte, with heads laid out as the model lays them out.
    heads = 4
    d = heads * d_head
    q, k, v = (_split_heads(counter_uniforms(seed, b * width * d)
                            .reshape(b, width, d) - 0.5, heads)
               for seed in (1, 2, 3))
    attn = counter_uniforms(4, b * heads * width * width) \
        .reshape(b, heads, width, width)
    is_index = np.asarray([SplitMix64(b + i).randint(width) for i in range(b)])
    at_is = (np.arange(b), slice(None), is_index)

    def is_rows(a):
        return np.ascontiguousarray(a[at_is][:, :, None, :])

    k_t = np.swapaxes(k, -1, -2)
    assert layers._matmul(is_rows(q), k_t).tobytes() == \
        is_rows(q @ k_t).tobytes()
    assert layers._matmul(is_rows(attn), v).tobytes() == \
        is_rows(attn @ v).tobytes()


@pytest.mark.parametrize("d_head", [4, 8, 16])
@pytest.mark.parametrize("b", [1, 2, 33])
@pytest.mark.parametrize("keys", [8, 16])
@pytest.mark.parametrize("queries", ["every", "is"])
def test_products_over_few_keys_match_full_width(d_head, b, keys, queries):
    # A batch trimmed to `keys` positions sums attn·v and dscores·k over
    # those keys only; at full width the other keys carry exact zeros. The
    # trimmed product must be those rows of the full-width one, byte for
    # byte, for every query row or one [IS] row per sequence and head.
    heads, width = 4, 64
    v = _split_heads(counter_uniforms(3, b * width * heads * d_head)
                     .reshape(b, width, heads * d_head) - 0.5, heads)
    attn = counter_uniforms(4, b * heads * width * width) \
        .reshape(b, heads, width, width)
    attn[..., keys:] = 0.0
    full = attn @ v
    n = keys if queries == "every" else 1
    got = layers._matmul_over_keys(np.ascontiguousarray(attn[:, :, :n, :keys]),
                                   v[:, :, :keys])
    assert got.tobytes() == np.ascontiguousarray(full[:, :, :n]).tobytes()
