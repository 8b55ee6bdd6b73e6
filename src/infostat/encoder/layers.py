"""Forward/backward primitives for the self-attention encoder.

Everything is implemented directly on numpy arrays with explicit caches, so
the analytic gradients can be verified entry by entry against central
finite differences. numpy is the only dependency: GELU's erf is a numpy
port of the Cephes erf that scipy.special.erf runs, with scipy's bits.
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
    y = _matmul(x, w)
    y += b
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
# erf and GELU (exact, erf-based)
#
# erf is a port of Cephes' erf and erfc (S. L. Moshier), the code
# scipy.special.erf runs, with its coefficients and its order of operations:
# every Horner step is a separate multiply and add, as in an x86-64 build
# without FMA, and exp is libm's, so each output has scipy's bits.

_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
# Cephes' log of the largest double: erfc(a) is 0 where a*a exceeds it.
_MAXLOG = 7.09782712893383996843e2

# Elements per block of erf and GELU: a float64 block and erf's two
# scratch rows stay in L2.
ERF_BLOCK = 32768


def _horner_pair(num, den):
    """Coefficients [steps, 2, 1] that step Cephes' polevl(x, num) and
    p1evl(x, den) together: row 0 the numerator, row 1 the denominator.

    p1evl's implied leading 1 becomes an explicit one (1 * x + den[0] is
    x + den[0] exactly), and the shorter polynomial gets leading zeros
    (0 * x + c is c exactly for finite x), so both rows take the same
    steps and each row keeps Cephes' bits."""
    den = (1.0,) + den
    steps = max(len(num), len(den))
    num = (0.0,) * (steps - len(num)) + num
    den = (0.0,) * (steps - len(den)) + den
    return np.array([num, den], dtype=np.float64).T[:, :, None]


_ERF_NEAR = _horner_pair(_ERF_T, _ERF_U)
_ERFC_MID = _horner_pair(_ERFC_P, _ERFC_Q)
_ERFC_FAR = _horner_pair(_ERFC_R, _ERFC_S)


def _ratio_rows(x: np.ndarray, coefs: np.ndarray, rows: np.ndarray):
    """The numerator and denominator of a _horner_pair at x [n], formed in
    rows [2, n]: each Horner step is one multiply and one add for both."""
    np.multiply(coefs[0], x, out=rows)
    rows += coefs[1]
    for c in coefs[2:]:
        rows *= x
        rows += c
    return rows


def _erf_past_one(x: np.ndarray) -> np.ndarray:
    """Cephes erf of the float64 values x [n] that are not within [-1, 1]:
    copysign(1 - erfc(|x|), x), and NaN at NaN.

    erfc(a) is exp(-a*a) * P(a) / Q(a) below 8 and * R(a) / S(a) from 8
    up, and 0 where a*a exceeds _MAXLOG. exp is Python's math.exp, libm's
    exp as Cephes calls it; numpy's own exp rounds some of these values
    otherwise."""
    a = np.abs(x)
    erfc = np.zeros_like(a)
    live = np.flatnonzero(a < 27.0)  # 27 * 27 > _MAXLOG; NaN is not live
    square = a[live] * a[live]
    keep = square <= _MAXLOG
    live, square = live[keep], square[keep]
    decay = np.fromiter(map(math.exp, (-square).tolist()), np.float64,
                        count=square.size)
    near = a[live] < 8.0
    for part, coefs in ((near, _ERFC_MID), (~near, _ERFC_FAR)):
        at = a[live[part]]
        num, den = _ratio_rows(at, coefs, np.empty((2, at.size)))
        erfc[live[part]] = decay[part] * num / den
    out = 1.0 - erfc
    np.copysign(out, x, out=out)
    out[np.isnan(x)] = np.nan
    return out


def _erf_block(z: np.ndarray, scale: float, out: np.ndarray,
               rows: np.ndarray, search: bool) -> None:
    """erf(z * scale) into `out`, for a 1-D block z; z * scale is rounded
    in z's dtype. float32 runs in float64 in rows[2] and is rounded once at
    the end, as scipy's float32 loop does.

    Within [-1, 1], erf(x) is x * T(x²) / U(x²), the two polynomials
    formed in rows[:2] over x² in the output's buffer (in rows[2] for
    float32). Unless `search` is off, which the caller may do when no
    element lies outside [-1, 1], the elements outside are found and take
    _erf_past_one's values; the polynomials see them clipped to [-1, 1],
    where x² cannot overflow."""
    np.multiply(z, scale, out=out)
    x = out if out.dtype == np.float64 else rows[2]
    if x is not out:
        x[...] = out
    if search:
        past = np.flatnonzero(~(np.abs(x, out=rows[0]) <= 1.0))
        past_values = _erf_past_one(x[past])
        np.clip(x, -1.0, 1.0, out=x)
    np.multiply(x, x, out=x)
    num, den = _ratio_rows(x, _ERF_NEAR, rows[:2])
    if x is out:
        np.multiply(z, scale, out=x)
    else:
        x[...] = out
    if search:
        np.clip(x, -1.0, 1.0, out=x)
    x *= num
    x /= den
    if search:
        x[past] = past_values
    if x is not out:
        out[...] = x


def _erf_blocks(z: np.ndarray, scale: float, out: np.ndarray):
    """erf(z * scale) into `out`, a C-order array of z's shape and dtype,
    ERF_BLOCK elements at a time: yields each block's slice of the flat
    arrays, and its z and out, once its erf is in place.

    One min and max of z decide whether any element can lie outside
    [-1, 1]; if none can, no block looks for them. The scratch rows are
    this call's own, so threads can run it at once."""
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    if flat_z.size == 0:
        return
    search = not (-1.0 <= flat_z.min() * scale
                  and flat_z.max() * scale <= 1.0)
    rows = np.empty((2 if out.dtype == np.float64 else 3,
                     min(flat_z.size, ERF_BLOCK)))
    for start in range(0, flat_z.size, ERF_BLOCK):
        part = slice(start, start + ERF_BLOCK)
        zb, ob = flat_z[part], flat_out[part]
        _erf_block(zb, scale, ob, rows[:, :zb.size], search)
        yield part, zb, ob


def erf(x: np.ndarray) -> np.ndarray:
    """The error function of a float64 or float32 array, bit for bit as
    scipy.special.erf computes it."""
    x = np.asarray(x)
    out = np.empty(x.shape, x.dtype)
    for _ in _erf_blocks(x, 1.0, out):
        pass
    return out


def gelu_forward(z: np.ndarray, keep_cache: bool = True):
    """GELU's output z * phi, phi = 0.5 * (1 + erf(z / sqrt 2)), and its
    cache (z, phi). Each ERF_BLOCK elements of phi take erf, +1 and *0.5,
    then give their output z * phi, while the block is in cache. Without
    `keep_cache` the output is formed in phi's buffer (phi *= z, the same
    bits) and the cache is None."""
    phi = np.empty(z.shape, z.dtype)
    y = np.empty(z.shape, z.dtype) if keep_cache else phi
    flat_y = y.reshape(-1)
    for part, zb, pb in _erf_blocks(z, _INV_SQRT2, phi):
        pb += 1.0
        pb *= 0.5
        np.multiply(zb, pb, out=flat_y[part])
    if not keep_cache:
        return phi, None
    return y, (z, phi)


def gelu_backward(cache):
    """GELU's output z * phi and derivative phi + z * density, density =
    exp(-z²/2) / sqrt(2π), formed in the buffers of gelu_forward's cache
    (z, phi), which this consumes; only the slope z * density takes a
    buffer of its own. The caller multiplies its gradient by the
    derivative."""
    z, phi = cache
    slope = -0.5 * z
    slope *= z
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= z
    z *= phi
    phi += slope
    return z, phi


# ---------------------------------------------------------------------------
# Softmax and scaled dot-product attention

def softmax(x: np.ndarray, axis: int = -1,
            out: np.ndarray | None = None) -> np.ndarray:
    """softmax of x along `axis`, formed in `out` if given (which may be x)."""
    peak = x.max(axis=axis, keepdims=True)
    out = np.subtract(x, peak, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


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
    scores = _matmul(q, np.swapaxes(k, -1, -2))
    scores *= scale
    np.copyto(scores, -np.inf, where=~key_valid[..., None, :])
    return softmax(scores, axis=-1, out=scores)


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
