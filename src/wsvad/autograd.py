"""Minimal reverse-mode autodiff over numpy arrays.

Values are stored in float32 by default (switchable via `using_dtype`, mainly
so gradient checks can run the whole graph in float64); reductions always
accumulate in float64. Softmax computes in the storage dtype, in one buffer,
and only its denominator accumulates in float64. Every op validates shapes up
front.

Without gradients, an op over stacked bags gives each bag the bits it gets
alone (`_product`): eval scores a batch of videos and each video's scores are
those it gets on its own.

A layer of the detector is one op, and so is each of its MLPs: `mlp` runs
every dense layer with its bias and activation and the dropout masks between
them (a single dense layer is `mlp` with one weight and one bias),
`conv1d_dilated` takes its branch's bias, and `nonlocal_attention` is the
embedded-Gaussian attention branch. Each computes in place what it can and
gives the same values and float32 gradients, bit for bit, as the chain of
single ops it replaces, up to the regrouped sums of the live-row backward
below. `mlp` takes its rows along every axis but the last, so the
classifier runs on the loss's (bags, alpha, d) gather as it does on
(rows, d). The two context-module ops take the constant feature batch and an
optional (rows, 1) `scale`, the attention's inclusion: they are linear in
their input rows, so they scale their projections rather than the input, and
backward gives the scale its gradient from the projections that forward
made, with no (rows, d) input gradient. A row scale of its own is `mul`'s
(rows, d) * (rows, 1) form.

Backward works over the rows that a gradient reaches. The loss reads only
each bag's top-alpha rows of the context features, and training runs the
classifier on those rows alone, so the gradient of the context module's
outputs is zero in every other row. `_live_rows` finds the rows of a
(rows, n) gradient that hold a nonzero, and three vjps take their products
over those rows alone: `conv1d_dilated` (weight and scale gradients, over
the input rows its taps reach from the live output rows), `mul`'s row
scale, and the theta part of `nonlocal_attention` (theta's gradient is zero
in the rows where the output's is). The rows they skip get exactly +0.0. A
dense gradient, such as the scorer's, keeps the full products, and so do an
all-zero one and one of fewer than `_LIVE_ROWS_MIN_SIZE` entries. The
skipped terms are exact zeros, so only the grouping of a weight gradient's
sum can change, where OpenBLAS splits the full product into two K-blocks:
at 256 rows every gradient keeps the full products' bits, and at 512 rows
(the paper shape) the weight gradients of the three convs and of the
attention's theta move at about 1e-7 relative.

No NaN or Inf gets past the engine; the first value to go non-finite raises
`NumericsError` naming the op that produced it. `Tensor` construction and
every op output are checked, except where `_SKIPS` says the value is finite
by construction: an op in it that receives checked inputs and needs no cast
to the storage dtype (structural moves, relu, clip, and sigmoid and softmax,
whose values lie in [0, 1]) cannot make a non-finite value. `linear`, the
record of `mlp`, is in it because it checks each layer's pre-activation
itself, and no activation makes a finite value non-finite. A fused op checks
one value where its chain checked several, a value that any earlier
non-finite one reaches: the conv output after the bias, the attention
logits, which cover theta and phi, and the next layer's pre-activation,
which covers a hidden output times its mask. Every gradient is
checked once it is final in its tensor's dtype, after the cast and after
accumulation, except a single uncast contribution from a vjp that only moves
or masks its own, already checked, incoming gradient.

The graph is the linked structure of op records hanging off each output
tensor; creation order is a topological order, and `backward` walks the
reachable records exactly once in reverse creation order. A graph is consumed
by `backward`; reusing it raises `GraphConsumedError`. Only the caller's
references keep a consumed node alive: `backward` lets go of each node, with
its value, gradient and vjp closure, as soon as that node's vjp has handed its
gradients on, so a node the caller does not hold is freed then, while every
tensor the caller holds keeps its `.grad`.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GraphConsumedError",
    "NumericsError",
    "ShapeError",
    "all_finite",
    "backward",
    "bag_length",
    "concat",
    "conv1d_dilated",
    "gather_rows",
    "l2_norm",
    "matmul",
    "mlp",
    "no_grad",
    "nonlocal_attention",
    "pin_malloc_thresholds",
    "softmax",
    "using_dtype",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class NumericsError(FloatingPointError):
    """A NaN or Inf appeared in a forward value or a gradient."""


def bag_length(rows: int, bags: int) -> int:
    """Rows per bag of ``bags`` equal bags stacked along ``rows`` rows."""
    if bags < 1 or rows % bags != 0:
        raise ShapeError(f"{rows} rows do not split into {bags} equal bags")
    return rows // bags


class GraphConsumedError(RuntimeError):
    """backward() was called on a graph that has already been consumed."""


_DTYPE = np.float32
_GRAD_ENABLED = True
_ids = itertools.count()


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the storage dtype for newly created tensors."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# glibc's <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_PINNED = False


def pin_malloc_thresholds() -> None:
    """Keep the heap's freed pages mapped for the rest of the process (glibc only).

    A training step frees megabytes of temporaries at once. glibc then trims
    the top of the heap back to the kernel, and the next step faults it back
    in. This pins, once per process, the two thresholds glibc otherwise adapts
    on its own: M_MMAP_THRESHOLD at 32 MiB, glibc's dynamic maximum, and
    M_TRIM_THRESHOLD at 64 MiB, twice that, as glibc's own rule sets it. Both
    are needed: any mallopt call switches the adaptation off, so with only the
    trim threshold set every array of 128 KiB or more is mmapped again.
    Values do not change. Where there is no glibc mallopt it does nothing.
    """
    global _MALLOC_PINNED
    if _MALLOC_PINNED:
        return
    _MALLOC_PINNED = True
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    # the parameter numbers above are glibc's
    if hasattr(libc, "mallopt") and hasattr(libc, "gnu_get_libc_version"):
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite, without a numpy warning."""
    # fast path: a finite sum of squares in the array's own dtype certifies
    # every entry; a non-finite one may be accumulator overflow, so only then
    # pay for the exact scan. np.vdot (BLAS) emits no overflow RuntimeWarning.
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def _ensure_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not all_finite(arr):
        raise NumericsError(f"non-finite values produced by '{name}' (shape {arr.shape})")
    return arr


# Checks an op skips because, given checked inputs, the value is finite by
# construction: (its forward output, the gradients its vjp hands on). Every op
# not listed, and every custom op, is checked both ways.
_SKIPS: dict[str, tuple[bool, bool]] = {
    "linear": (True, False),  # checks each pre-activation, before the activation
    "reshape": (True, True),
    "concat": (True, True),
    "relu": (True, True),
    "clip": (True, True),
    "gather_rows": (True, False),  # the scatter-add vjp can overflow
    "sigmoid": (True, False),
    "softmax": (True, False),
    "add": (False, True),  # same shape; the bias add sums its gradient
    "add_scalar": (False, True),
}
_CHECK_ALL = (False, False)


class _Record:
    """One op record: parents plus the vector-Jacobian product closure."""

    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op: str, parents: tuple["Tensor", ...], vjp: Callable):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A numpy array plus an optional gradient buffer and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_rec", "_consumed", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_DTYPE)
        _ensure_finite("tensor", arr)
        self._init(arr, bool(requires_grad), None)

    def _init(self, data: np.ndarray, requires_grad: bool, rec: _Record | None) -> None:
        """Set every field of a new tensor: its checked value, no gradient yet."""
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._rec = rec
        self._consumed = False
        self._id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return _add(self, other)
        return _add_scalar(self, float(other))

    __radd__ = __add__

    def __neg__(self):
        return _mul_scalar(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return _add(self, -other)
        return _add_scalar(self, -float(other))

    def __rsub__(self, other):
        return _add_scalar(-self, float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return _mul(self, other)
        return _mul_scalar(self, float(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def relu(self) -> "Tensor":
        return _relu(self)

    def sigmoid(self) -> "Tensor":
        return _sigmoid(self)

    def log(self) -> "Tensor":
        return _log(self)

    def clip(self, lo: float, hi: float) -> "Tensor":
        return _clip(self, lo, hi)

    def sum(self, axis: int | None = None) -> "Tensor":
        return _reduce(self, axis, kind="sum")

    def mean(self, axis: int | None = None) -> "Tensor":
        return _reduce(self, axis, kind="mean")

    def reshape(self, *shape: int) -> "Tensor":
        return _reshape(self, shape)


def _from_op(op: str, data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    arr = np.asarray(data, dtype=_DTYPE)
    # a cast to the storage dtype can overflow whatever the op computed
    if arr is not data or not _SKIPS.get(op, _CHECK_ALL)[0]:
        _ensure_finite(op, arr)
    requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out._init(arr, requires_grad, _Record(op, parents, vjp) if requires_grad else None)
    return out


# -- elementwise and structural ops -------------------------------------------


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """Gradient of a bias broadcast over the rows: the rows' float64 sum."""
    return np.sum(g, axis=0, dtype=np.float64).astype(g.dtype)


# A gradient of fewer entries counts as dense: below this, finding and
# gathering its live rows costs more than the products they cut (the conv
# and row-scale vjps, timed at widths 32 to 512 over 256 and 512 rows with
# 48 live).
_LIVE_ROWS_MIN_SIZE = 1 << 14


def _live_rows(g: np.ndarray) -> np.ndarray | slice:
    """The indices of the rows of a (rows, n) gradient that hold a nonzero,
    or ``slice(None)``, every row, when every row does, when none does or
    when ``g`` has fewer than ``_LIVE_ROWS_MIN_SIZE`` entries. A row of
    zeros, +0.0 or -0.0, adds nothing to a product over the rows, so a vjp
    may take its products over the live rows alone. An all-zero gradient
    takes the dense path, which gives its zero gradients without the
    empty products."""
    if g.size < _LIVE_ROWS_MIN_SIZE:
        return slice(None)
    live = np.flatnonzero(g.any(axis=1))
    return slice(None) if live.size in (0, g.shape[0]) else live


def _scattered(part: np.ndarray, rows: np.ndarray | slice, n_rows: int) -> np.ndarray:
    """The (n_rows, n) gradient whose rows ``rows`` are ``part`` and whose
    other rows are +0.0; ``part`` itself when ``rows`` is ``slice(None)``."""
    if isinstance(rows, slice):
        return part
    full = np.zeros((n_rows, part.shape[1]), dtype=part.dtype)
    full[rows] = part
    return full


def _add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        return _from_op("add", a.data + b.data, (a, b), lambda g: (g, g))
    # row-broadcast bias: (T, d) + (d,)
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return _from_op("add_bias", a.data + b.data, (a, b), lambda g: (g, _bias_grad(g)))
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def _add_scalar(a: Tensor, c: float) -> Tensor:
    return _from_op("add_scalar", a.data + np.asarray(c, dtype=_DTYPE), (a,), lambda g: (g,))


def _row_scale_grad(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gradient of a (rows, 1) row scale s in ``s * v``, for v (rows, n) or
    a stack (..., rows, n) that s scales alike, given the product's gradient
    g: the sum of g * v over all but the rows, multiplied and summed in
    float64, as (rows, 1) in g's dtype."""
    g3, v3 = g.reshape(-1, *g.shape[-2:]), v.reshape(-1, *v.shape[-2:])
    return np.einsum("kij,kij->i", g3, v3, dtype=np.float64)[:, None].astype(g.dtype)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors, or (rows, d) * (rows, 1):
    each row of a scaled by its entry of b. That row scale's gradient, one
    float64 sum per row, is taken over the live rows of the product's
    gradient (``_live_rows``) and is +0.0 in the others."""
    same = a.shape == b.shape
    if not same and not (a.ndim == 2 and b.shape == (a.shape[0], 1)):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def vjp(g):
        if not b.requires_grad:
            gb = None
        elif same:
            gb = g * a.data
        else:
            rows = _live_rows(g)
            gb = _scattered(_row_scale_grad(g[rows], a.data[rows]), rows, g.shape[0])
        return (g * b.data if a.requires_grad else None, gb)

    return _from_op("mul", a.data * b.data, (a, b), vjp)


def _mul_scalar(a: Tensor, c: float) -> Tensor:
    c = np.asarray(c, dtype=_DTYPE)
    return _from_op("mul_scalar", a.data * c, (a,), lambda g: (g * c,))


def _product(x: np.ndarray, w: np.ndarray, bags: int = 1) -> np.ndarray:
    """``x @ w`` for x (rows, k) holding ``bags`` equal bags and w
    (..., k, n): (..., rows, n).

    Without gradients each bag is its own BLAS call, through numpy's batched
    matmul, so it gets exactly the bits it gets alone. In one product over
    all rows a bag's values would depend on the bags stacked with it, since
    BLAS picks its kernel by the row count: an (m, k) @ (k, 1) product
    rounds its tail rows differently, a single row goes to the
    matrix-vector kernel, and OpenBLAS takes some shapes of up to
    m * n * k = 1e6 to a small-matrix SGEMM kernel. With gradients the
    product is one GEMM over all rows, which at the paper shape takes half
    the time of sixteen 32-row ones.
    """
    t_len = bag_length(x.shape[0], bags)
    if bags == 1 or _GRAD_ENABLED:
        return x @ w  # the operator: a call to np.matmul costs 2 us more
    per_bag = x.reshape(bags, t_len, -1) @ w[..., None, :, :]  # (..., bags, T, n)
    return per_bag.reshape(*w.shape[:-2], x.shape[0], w.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (m, k) @ (k, n)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expected rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")

    def vjp(g):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return _from_op("matmul", a.data @ b.data, (a, b), vjp)


_ACTIVATIONS = (None, "relu", "sigmoid")


def mlp(
    x: Tensor,
    weights: Sequence[Tensor],
    biases: Sequence[Tensor],
    act: str | None = None,
    bags: int = 1,
    masks: Sequence[Tensor] | None = None,
) -> Tensor:
    """A stack of dense layers as one op, recorded as "linear": each layer
    is ``x @ w + b``, with ReLU after every layer but the last and ``act``
    ("relu", "sigmoid" or None) after the last. x is (..., k) and the output
    (..., n) for the last layer's n. The rows are x's entries along every
    axis but the last, in order; they hold ``bags`` equal bags, which only
    ``_product`` reads. Given ``masks``, constants one per hidden layer of
    that layer's output shape (..., width), each hidden layer's output is
    multiplied by its mask before the next layer reads it: inverted dropout.

    Each layer adds its bias into the product in place and checks the
    pre-activation there, once: a check after the activation would miss a
    -inf that ReLU turns into 0, and no activation makes a finite value
    non-finite. A mask's product is not checked on its own: the next layer's
    pre-activation reaches every entry of it. The values and gradients are
    those of one one-layer `mlp` per layer and a same-shape `mul` per mask
    run as single ops, bit for bit (``unfused_mlp`` in
    ``tests/helpers.py``). The vjp forms every weight's and bias's gradient
    and skips x's product when x needs no gradient, as for the scorer's
    first layer, which reads the constant feature batch; the hidden layers'
    gradients are not checked on their own, since each reaches its layer's
    weight gradient. Without gradients no layer's output is kept past the
    next layer.
    """
    if not weights or len(weights) != len(biases):
        raise ShapeError(f"linear: expected as many biases as weights, at least one; got {len(weights)}, {len(biases)}")
    lead, k = x.shape[:-1], x.shape[-1]
    for w, b in zip(weights, biases):
        if x.ndim < 2 or w.ndim != 2 or b.ndim != 1 or k != w.shape[0] or w.shape[1] != b.shape[0]:
            raise ShapeError(f"linear: expected (rows, k), (k, n) and (n,), got {(*lead, k)}, {w.shape}, {b.shape}")
        k = w.shape[1]
    if act not in _ACTIVATIONS:
        raise ValueError(f"linear: activation must be one of {_ACTIVATIONS}, got {act!r}")
    if masks is not None:
        widths = [(*lead, w.shape[1]) for w in weights[:-1]]
        if [m.shape for m in masks] != widths:
            raise ShapeError(f"linear: masks must be {widths}")
        if any(m.requires_grad for m in masks):
            raise ValueError("linear: masks must be constants")
    parents = (x, *weights, *biases)
    keep = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    acts = ["relu"] * (len(weights) - 1) + [act]
    # per layer, for backward: its input rows, and its ReLU output or its
    # float64 sigmoid
    kept: list[tuple[np.ndarray, np.ndarray | None]] = []
    h = x.data.reshape(-1, weights[0].shape[0])
    for layer, (w, b, a) in enumerate(zip(weights, biases, acts)):
        out = np.asarray(_product(h, w.data, bags), dtype=_DTYPE)
        out += b.data
        _ensure_finite("linear", out)
        s = None
        if a == "relu":
            np.maximum(out, 0, out=out)
            s = out
        elif a == "sigmoid":
            s = _sigmoid64(out)
            out = s.astype(_DTYPE)
        if keep:
            kept.append((h, s))
        h = out
        if masks is not None and layer < len(masks):
            h = np.asarray(h * masks[layer].data.reshape(h.shape), dtype=_DTYPE)

    def vjp(g):
        g = g.reshape(h.shape)
        grads_w, grads_b = [], []
        for layer in reversed(range(len(weights))):
            inp, s = kept[layer]
            w = weights[layer].data
            if layer < len(weights) - 1:
                g *= s > 0  # g is this vjp's own; s > 0 where the pre-activation is
            elif acts[layer] == "relu":
                g = g * (s > 0)
            elif acts[layer] == "sigmoid":
                g = g * (s * (1.0 - s)).astype(g.dtype)
            if layer == 0 and not x.requires_grad:
                gx = None
            elif w.shape[1] == 1:
                # a one-column layer's K=1 GEMM is an outer product; the broadcast
                # is 4-5x faster, and adding 0.0 turns its -0.0 into the GEMM's +0.0
                gx = g * w.T
                gx += 0.0
            else:
                gx = g @ w.T
            grads_w.append(inp.T @ g)
            grads_b.append(_bias_grad(g))
            if layer > 0:
                # the hidden output's gradient, cast as backward casts it
                g = gx.astype(inp.dtype, copy=False)
                if masks is not None:
                    g *= masks[layer - 1].data.reshape(g.shape)
        gx = None if gx is None else gx.reshape(x.shape)
        return gx, *reversed(grads_w), *reversed(grads_b)

    return _from_op("linear", h.reshape(*lead, weights[-1].shape[1]), parents, vjp)


def _relu(a: Tensor) -> Tensor:
    # np.maximum(-0.0, 0) is +0.0, as np.where(a > 0, a, 0) gives; the mask is only built for backward
    return _from_op("relu", np.maximum(a.data, 0), (a,), lambda g: (g * (a.data > 0),))


def _sigmoid64(a: np.ndarray) -> np.ndarray:
    """Sigmoid in float64, stable: exp(-|x|) never overflows."""
    z = np.exp(-np.abs(a.astype(np.float64)))
    return np.where(a >= 0, 1.0, z) / (1.0 + z)


def _sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid64(a.data)
    vjp = lambda g: (g * (out * (1.0 - out)).astype(g.dtype),)
    return _from_op("sigmoid", out.astype(_DTYPE), (a,), vjp)


def _log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericsError("log: non-positive input")
    return _from_op("log", np.log(a.data), (a,), lambda g: (g / a.data,))


def _clip(a: Tensor, lo: float, hi: float) -> Tensor:
    if math.isnan(lo) or math.isnan(hi):
        raise NumericsError(f"clip: NaN bound in [{lo}, {hi}]")
    mask = (a.data >= lo) & (a.data <= hi)
    return _from_op("clip", np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def _softmax_into(out: np.ndarray, a: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of ``a`` written into ``out``, which may be ``a`` itself."""
    with np.errstate(over="ignore"):
        np.subtract(a, np.max(a, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True, dtype=np.float64).astype(out.dtype)
    return out


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    s = out.astype(g.dtype, copy=False)
    return s * (g - np.sum(g * s, axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax in the input's dtype, computed in one buffer. A shift that
    overflows to -inf exponentiates to exactly 0; the row max gives exp(0) = 1,
    so the float64-accumulated denominator is at least 1 and every value lies
    in [0, 1]."""
    out = _softmax_into(np.empty_like(a.data), a.data, axis)
    return _from_op("softmax", out, (a,), lambda g: (_softmax_grad(out, g, axis),))


def _reduce(a: Tensor, axis: int | None, kind: str) -> Tensor:
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"{kind}: axis {axis} out of range for shape {a.shape}")
    n = a.data.size if axis is None else a.shape[axis]
    if n == 0:
        raise ShapeError(f"{kind}: empty reduction")
    total = np.sum(a.data, axis=axis, dtype=np.float64)
    if kind == "mean":
        total = total / n
    scale = 1.0 / n if kind == "mean" else 1.0

    def vjp(g):
        if axis is None:
            return (np.full(a.shape, g * scale, dtype=a.data.dtype),)
        return (np.broadcast_to(np.expand_dims(g * scale, axis), a.shape).astype(a.data.dtype),)

    return _from_op(kind, total, (a,), vjp)


def l2_norm(a: Tensor, axis: int | None = None) -> Tensor:
    """Euclidean norm of all entries as a scalar tensor, or along ``axis``
    (``axis=-1`` gives one norm per row). A zero norm has zero gradient."""
    norm = np.sqrt(np.sum(np.square(a.data, dtype=np.float64), axis=axis, keepdims=True))

    def vjp(g):
        unit = np.divide(a.data, norm, out=np.zeros(a.shape), where=norm > 0)
        return ((np.reshape(g, norm.shape) * unit).astype(a.data.dtype),)

    out = norm.reshape(()) if axis is None else np.squeeze(norm, axis)
    return _from_op("l2_norm", out, (a,), vjp)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """The rows ``idx`` of a rank-2 tensor, an index array of any shape, as an
    ``idx.shape + (width,)`` tensor; backward scatter-adds into the source.
    Distinct indices, as each bag's top-alpha rows are, scatter by plain
    assignment, plus 0.0 so that a -0.0 entry lands as the +0.0 that adding
    it into zeros gives."""
    if a.ndim != 2:
        raise ShapeError(f"gather_rows: expected rank-2 input, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.data)
        ranked = np.sort(idx, axis=None)
        if (ranked[1:] != ranked[:-1]).all():
            out[idx] = g + 0.0
        else:
            np.add.at(out, idx, g)
        return (out,)

    return _from_op("gather_rows", a.data[idx], (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise ShapeError("concat: no operands")
    bounds = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def vjp(g):
        # each part's gradient is its own copy: a view would keep all of g alive
        return tuple(part.copy() for part in np.split(g, bounds, axis))

    return _from_op("concat", np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp)


def _reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _from_op("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def _tap_rows(t_len: int, shift: int) -> tuple[slice, slice]:
    """The rows t of a bag of T rows whose row t + shift lies in the same
    bag, and those rows t + shift: two slices of one length, both empty when
    the shift leaves the bag. The stop is clamped at the start, since a
    negative stop would wrap round the bag's end."""
    lo = max(0, -shift)
    hi = max(lo, min(t_len, t_len - shift))
    return slice(lo, hi), slice(lo + shift, hi + shift)


def _taps_of_output_grad(g: np.ndarray, bags: int, k: int, dilation: int) -> np.ndarray:
    """The output gradient g (bags * T, c_out) of a dilated conv laid out by
    tap, (k, bags * T, c_out): tap j, row t holds g[t + pad - j * dilation]
    of the same bag (the output row whose tap j reads input row t), zero
    where that row lies outside the bag."""
    rows, c_out = g.shape
    t_len = rows // bags
    pad = (k - 1) // 2 * dilation
    g3 = g.reshape(bags, t_len, c_out)
    gy = np.zeros((k, bags, t_len, c_out), dtype=g.dtype)
    for j in range(k):
        dst, src = _tap_rows(t_len, pad - j * dilation)
        gy[j, :, dst] = g3[:, src]
    return gy.reshape(k, rows, c_out)


def _tap_reach(live: np.ndarray, rows: int, bags: int, k: int, dilation: int) -> np.ndarray:
    """The input rows, sorted, that the live output rows ``live`` of a
    dilated conv over ``rows`` rows reach through its taps: the rows where
    ``_taps_of_output_grad`` is nonzero, found by laying out the live rows'
    mask by tap."""
    mask = np.zeros((rows, 1), dtype=bool)
    mask[live] = True
    return np.flatnonzero(_taps_of_output_grad(mask, bags, k, dilation).any(axis=0))


def _sum_of_taps(p: np.ndarray, bags: int, dilation: int) -> np.ndarray:
    """The dilated conv's output (bags * T, c_out) from its per-tap products
    p (k, bags * T, c_out), the adjoint of ``_taps_of_output_grad``: row t
    sums p[j, t + j * dilation - pad] over the taps j whose source row lies
    in the same bag, the centre tap first."""
    k, rows, c_out = p.shape
    t_len = rows // bags
    pad = (k - 1) // 2 * dilation
    p4 = p.reshape(k, bags, t_len, c_out)
    out = p4[k // 2].copy()  # the centre tap reads its own row
    for j in range(k):
        if j != k // 2:
            dst, src = _tap_rows(t_len, j * dilation - pad)
            out[:, dst] += p4[j, :, src]
    return out.reshape(rows, c_out)


def _row_scale(op: str, x: Tensor, scale: Tensor | None) -> np.ndarray | None:
    """Check that ``x`` is a constant and ``scale`` one entry per row of it;
    returns the scale's (rows, 1) array, or None for no scale."""
    if x.requires_grad:
        raise ValueError(f"{op}: x must be a constant; a gradient flows only into the weights and scale")
    if scale is None:
        return None
    if scale.shape != (x.shape[0], 1):
        raise ShapeError(f"{op}: scale must be ({x.shape[0]}, 1), got {scale.shape}")
    return scale.data


def conv1d_dilated(
    x: Tensor,
    w: Tensor,
    dilation: int = 1,
    bags: int = 1,
    bias: Tensor | None = None,
    scale: Tensor | None = None,
) -> Tensor:
    """Temporal cross-correlation with holes of ``scale * x``, zero-padded to
    preserve length.

    x is (bags * T, c_in): ``bags`` bags of T snippets stacked along the rows,
    each zero-padded on its own so that no tap reaches into a neighbouring
    bag. x is a constant (one that requires grad raises ``ValueError``); a
    ``scale`` (bags * T, 1) scales each of its rows. w is (k, c_in, c_out)
    with k odd; the output is (bags * T, c_out).

    The conv is linear in its input rows, so the scale is applied after the
    projection. The forward is one batched GEMM over the taps, ``P = x @ w``
    (k, bags * T, c_out), so that P[j, t] is input row t through tap j;
    output row t sums scale[t + s_j] * P[j, t + s_j] over the taps j whose
    source row t + s_j (s_j = j * dilation - pad) lies in the bag. The
    backward lays the output gradient out by tap, as ``gy`` (k, bags * T,
    c_out) whose tap j, row t holds the gradient of the output row that
    reads input row t through tap j (zero where that row lies outside the
    bag). w's gradient is then ``x.T @ (scale * gy)``, one batched GEMM in
    w's own layout, and the scale's is ``gy * P`` summed over taps and
    channels, from the P that forward keeps for it; no (rows, c_in) input
    gradient is built. A ``bias`` (c_out,) is added into the output in
    place, before the output's check, with the values and gradients of a
    separate bias add. The vjp returns w's gradient, the bias's when there
    is a bias and the scale's when there is a scale, whether or not each
    requires grad; P is kept only when there is a scale.

    When the output gradient has dead rows (``_live_rows``), as the loss's
    top-alpha rows leave it, gy is nonzero only in the input rows that the
    live output rows reach through the taps, at most k per live row, and w's
    GEMM and the scale's sums run over those rows alone; the scale's
    gradient is +0.0 in the rest. Its per-row sums keep their bits. w's
    gradient drops only zero terms, but OpenBLAS splits a product over
    enough rows into two K-blocks and sums the blocks' partial products,
    while the live rows' product is one block: at 512 rows it moves at about
    1e-7 relative, and at 256 rows it keeps its bits (OpenBLAS 0.3.31's
    Haswell SGEMM, 512 x rows x 128, splits from 443 to 450 rows).
    """
    if x.ndim != 2 or w.ndim != 3:
        raise ShapeError(f"conv1d_dilated: expected (T,c_in) and (k,c_in,c_out), got {x.shape}, {w.shape}")
    k, c_in, c_out = w.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d_dilated: kernel size must be odd, got {k}")
    if dilation < 1:
        raise ValueError(f"conv1d_dilated: dilation must be >= 1, got {dilation}")
    if x.shape[1] != c_in:
        raise ShapeError(f"conv1d_dilated: channel mismatch, x has {x.shape[1]}, w expects {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv1d_dilated: bias must be ({c_out},), got {bias.shape}")
    s = _row_scale("conv1d_dilated", x, scale)
    p = np.asarray(_product(x.data, w.data, bags), dtype=_DTYPE)  # checks that the rows split into bags
    out = _sum_of_taps(p if s is None else p * s, bags, dilation)
    # only the scale's gradient reads P; without a scale the vjp must not hold it
    kept = None if s is None else p
    parents = tuple(t for t in (w, bias, scale) if t is not None)
    if bias is not None:
        out += bias.data

    def vjp(g):
        rows = _live_rows(g)
        if not isinstance(rows, slice):
            rows = _tap_reach(rows, g.shape[0], bags, k, dilation)
        gy = _taps_of_output_grad(g, bags, k, dilation)[:, rows]
        grads = [np.matmul(x.data[rows].T, gy if s is None else gy * s[rows])]
        if bias is not None:
            grads.append(_bias_grad(g))
        if kept is not None:
            grads.append(_scattered(_row_scale_grad(gy, kept[:, rows]), rows, x.shape[0]))
        return grads

    return _from_op("conv1d_dilated", out, parents, vjp)


def nonlocal_attention(
    x: Tensor, w_theta: Tensor, w_phi: Tensor, w_g: Tensor, bags: int = 1, scale: Tensor | None = None
) -> Tensor:
    """Embedded-Gaussian non-local attention of ``scale * x`` as one op,
    (bags * T, d) -> (bags * T, c): per bag, softmax(theta phi^T) g with
    theta = scale * (x w_theta), phi = scale * (x w_phi) and
    g = scale * (x w_g), for the ``bags`` bags of T rows stacked in x. Bags
    do not see each other: the (bags, T, T) products are batched.

    x is a constant (one that requires grad raises ``ValueError``), and the
    ``scale`` (bags * T, 1) is applied after each projection, which the
    projections' linearity allows. Only the unscaled projections x w_p are
    kept, and backward scales them again: the scale's gradient is
    ``rowsum(g_p * x w_p)`` summed over the three projections p, and no
    (rows, d) input gradient is built.

    The softmax is taken in the logits' own buffer. The logits are checked,
    which covers theta and phi (a non-finite entry of either makes its whole
    row or column of logits non-finite), and so is the output, which covers
    g the same way. The output needs its check: its rows are convex
    combinations of g's rows, but the rounded softmax weights can sum to a
    little over 1, enough to overflow a combination of values near the
    float32 maximum. Values and gradients are those of the single-op chain
    ``unfused_nonlocal`` in ``tests/helpers.py`` (three projections, each
    scaled by its own op, a transpose, two batched products and a softmax),
    bit for bit; the scale's gradient adds its g, phi and theta parts in
    that order. The vjp returns the three weights' gradients, and the
    scale's when there is a scale, whether or not each requires grad.

    A zero row of the output gradient gives a zero row of the softmax
    gradient and of theta's gradient, so theta's part works over the live
    rows of the output gradient (``_live_rows``): its weight gradient is
    ``x[live].T @ (scale * g_theta)[live]``, and its part of the scale's
    gradient is +0.0 in the other rows. Phi's and g's gradients are dense in
    every bag that holds a live row. At 512 rows theta's weight gradient
    moves at about 1e-7 relative, for the reason ``conv1d_dilated`` gives.
    """
    if x.ndim != 2 or any(p.ndim != 2 or p.shape[0] != x.shape[1] for p in (w_theta, w_phi, w_g)):
        raise ShapeError(
            f"nonlocal_attention: expected (rows, d) and (d, c) weights, got {x.shape}, "
            f"{w_theta.shape}, {w_phi.shape}, {w_g.shape}"
        )
    if w_theta.shape != w_phi.shape:
        raise ShapeError(f"nonlocal_attention: theta {w_theta.shape} and phi {w_phi.shape} disagree")
    s = _row_scale("nonlocal_attention", x, scale)
    rows = x.shape[0]
    t_len = bag_length(rows, bags)

    def project(w: Tensor) -> np.ndarray:
        return np.asarray(_product(x.data, w.data, bags), dtype=_DTYPE)

    def scaled(u: np.ndarray) -> np.ndarray:
        """A projection scaled and split into bags."""
        return (u if s is None else u * s).reshape(bags, t_len, -1)

    def transposed(u: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.swapaxes(scaled(u), -1, -2))

    # only the unscaled projections are kept; backward scales them again
    u_theta, u_phi = project(w_theta), project(w_phi)
    attn = np.asarray(scaled(u_theta) @ transposed(u_phi), dtype=_DTYPE)
    _ensure_finite("nonlocal_attention", attn)
    _softmax_into(attn, attn, -1)
    u_g = project(w_g)
    out = (attn @ scaled(u_g)).reshape(rows, -1)
    parents = (w_theta, w_phi, w_g) if scale is None else (w_theta, w_phi, w_g, scale)

    def vjp(g):
        g3 = g.reshape(bags, t_len, -1)

        def weight_grad(gp: np.ndarray, at: np.ndarray | slice = slice(None)) -> np.ndarray:
            return x.data[at].T @ (gp if s is None else gp * s[at])

        gg = (np.swapaxes(attn, -1, -2) @ g3).reshape(rows, -1)
        g_logits = _softmax_grad(attn, g3 @ np.swapaxes(scaled(u_g), -1, -2), -1)
        gphi = np.swapaxes(np.swapaxes(scaled(u_theta), -1, -2) @ g_logits, -1, -2).reshape(rows, -1)
        # a zero row of g gives a zero row of g_logits, and so of theta's gradient
        at = _live_rows(g)
        gtheta = (g_logits @ np.swapaxes(transposed(u_phi), -1, -2)).reshape(rows, -1)[at]
        grads = (weight_grad(gtheta, at), weight_grad(gphi), weight_grad(gg))
        if scale is None:
            return grads
        gs = _row_scale_grad(gg, u_g) + _row_scale_grad(gphi, u_phi)
        return grads + (gs + _scattered(_row_scale_grad(gtheta, u_theta[at]), at, rows),)

    return _from_op("nonlocal_attention", out, parents, vjp)


def custom_op(op: str, data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Wire an externally computed forward value into the graph.

    vjp receives the output gradient and must return one gradient (or None)
    per parent. No gradient is written into once set, by the engine or by a
    vjp: the engine hands gradients on without copying, so the array a vjp
    receives may also be another tensor's gradient, and the array it returns
    may become a parent's gradient as it is. ``backward`` drops the gradient
    of a parent that needs none (``requires_grad`` false), so returning None
    for it only saves work.
    The output and every gradient are checked for NaN and Inf, so ``op`` may
    not reuse the name of a built-in op that skips a check.
    """
    if op in _SKIPS:
        raise ValueError(f"custom_op: '{op}' is the name of a built-in op")
    return _from_op(op, data, parents, vjp)


# -- backward ------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Gradients accumulate additively across fan-out and across calls (reset
    `.grad` to None). The traversed records are consumed. A tensor's first
    gradient is the vjp's output as returned (cast if needed), which may be
    a view of another tensor's gradient; every later contribution is summed
    out of place. No gradient is written into once set, by the engine or by
    a vjp, so an array read from ``.grad`` keeps its value.

    Each node is let go as soon as its vjp has run, latest first: a tensor
    the caller holds keeps its ``.grad``, and a node it does not hold is
    freed then, value, gradient and vjp closure, before the next vjp
    allocates. A caller that wants the step's peak memory low holds no
    intermediate output across the call.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss does not require grad")

    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._consumed:
            raise GraphConsumedError(
                "backward: graph already consumed; run a new forward pass first"
            )
        nodes.append(node)
        if node._rec is not None:
            stack.extend(node._rec.parents)

    # popped latest first, so the list lets go of each node as it is reached
    nodes.sort(key=lambda t: t._id)
    loss.grad = np.ones_like(loss.data)
    while nodes:
        node = nodes.pop()
        rec = node._rec
        if rec is None:
            continue
        passes_on = _SKIPS.get(rec.op, _CHECK_ALL)[1]
        grads = rec.vjp(node.grad)
        for parent, g in zip(rec.parents, grads):
            if g is None or not parent.requires_grad:
                continue
            g = np.asarray(g)
            dtype = parent.data.dtype
            # node.grad was checked, and handing it on uncast keeps it finite
            finite = passes_on and parent.grad is None and g.dtype == dtype
            # g may be held elsewhere, so it is taken as it is and never added into
            if parent.grad is None:
                parent.grad = g.astype(dtype, copy=False)
            else:
                parent.grad = (parent.grad + g).astype(dtype, copy=False)
            if not finite:
                _ensure_finite(f"grad[{rec.op}]", parent.grad)
        node._consumed = True
        node._rec = None
        # unless the caller holds the node, this frees its value, gradient and
        # vjp closure before the next vjp allocates
        node = rec = grads = parent = g = None
