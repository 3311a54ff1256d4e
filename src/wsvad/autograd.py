"""Minimal reverse-mode autodiff over numpy arrays.

Values are stored in float32 by default (switchable via `using_dtype`, mainly
so gradient checks can run the whole graph in float64); reductions always
accumulate in float64. Softmax computes in the storage dtype, in one buffer,
and only its denominator accumulates in float64. Every op validates shapes up
front.

A layer of the detector is one op: `linear` is a dense layer with its bias and
activation, `conv1d_dilated` takes its branch's bias, and `nonlocal_attention`
is the embedded-Gaussian attention branch. Each computes in place what it can
and gives the same values and float32 gradients, bit for bit, as the chain of
single ops it replaces.

No NaN or Inf gets past the engine; the first value to go non-finite raises
`NumericsError` naming the op that produced it. `Tensor` construction and
every op output are checked, except where `_SKIPS` says the value is finite
by construction: an op in it that receives checked inputs and needs no cast
to the storage dtype (structural moves, relu, clip, and sigmoid and softmax,
whose values lie in [0, 1]) cannot make a non-finite value. `linear` is in it
because it checks its pre-activation itself, and no activation makes a finite
value non-finite. A fused op checks one value where its chain checked several,
a value that any earlier non-finite one reaches: the conv output after the
bias, and the attention logits, which cover theta and phi. Every gradient is
checked once it is final in its tensor's dtype, after the cast and after
accumulation, except a single uncast contribution from a vjp that only moves
or masks its own, already checked, incoming gradient.

The graph is the linked structure of op records hanging off each output
tensor; creation order is a topological order, and `backward` walks the
reachable records exactly once in reverse creation order. A graph is consumed
by `backward`; reusing it raises `GraphConsumedError`.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GraphConsumedError",
    "NumericsError",
    "ShapeError",
    "backward",
    "bag_length",
    "concat",
    "conv1d_dilated",
    "default_dtype",
    "dropout",
    "gather_rows",
    "l2_norm",
    "linear",
    "matmul",
    "no_grad",
    "nonlocal_attention",
    "softmax",
    "tensor",
    "using_dtype",
    "zero_grad",
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


def default_dtype() -> np.dtype:
    return np.dtype(_DTYPE)


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


def _ensure_finite(name: str, arr: np.ndarray) -> np.ndarray:
    # fast path: a finite sum of squares in the array's own dtype certifies
    # every entry; a non-finite one may be accumulator overflow, so only then
    # pay for the exact scan. np.vdot (BLAS) emits no overflow RuntimeWarning.
    total = np.vdot(arr, arr)
    if not math.isfinite(total) and not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by '{name}' (shape {arr.shape})")
    return arr


# Checks an op skips because, given checked inputs, the value is finite by
# construction: (its forward output, the gradients its vjp hands on). Every op
# not listed, and every custom op, is checked both ways.
_SKIPS: dict[str, tuple[bool, bool]] = {
    "linear": (True, False),  # checks its pre-activation, before the activation
    "reshape": (True, True),
    "transpose": (True, True),
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
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._rec: _Record | None = None
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

    @property
    def T(self) -> "Tensor":
        """Matrix transpose; on a batch of matrices it swaps the last two axes."""
        return _transpose(self)

    def backward(self) -> None:
        backward(self)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _from_op(op: str, data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    arr = np.asarray(data, dtype=_DTYPE)
    # a cast to the storage dtype can overflow whatever the op computed
    if arr is not data or not _SKIPS.get(op, _CHECK_ALL)[0]:
        _ensure_finite(op, arr)
    out.data = arr
    out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.grad = None
    out._rec = _Record(op, parents, vjp) if out.requires_grad else None
    out._consumed = False
    out._id = next(_ids)
    return out


# -- elementwise and structural ops -------------------------------------------


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """Gradient of a bias broadcast over the rows: the rows' float64 sum."""
    return np.sum(g, axis=0, dtype=np.float64).astype(g.dtype)


def _add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        return _from_op("add", a.data + b.data, (a, b), lambda g: (g, g))
    # row-broadcast bias: (T, d) + (d,)
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return _from_op("add_bias", a.data + b.data, (a, b), lambda g: (g, _bias_grad(g)))
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def _add_scalar(a: Tensor, c: float) -> Tensor:
    return _from_op("add_scalar", a.data + np.asarray(c, dtype=_DTYPE), (a,), lambda g: (g,))


def _mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    vjp = lambda g: (g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None)
    return _from_op("mul", a.data * b.data, (a, b), vjp)


def _mul_scalar(a: Tensor, c: float) -> Tensor:
    c = np.asarray(c, dtype=_DTYPE)
    return _from_op("mul_scalar", a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (m, k) @ (k, n), or over a leading batch axis,
    (B, m, k) @ (B, k, n) and (B, m, k) @ (k, n) (b shared by every batch)."""
    if (a.ndim, b.ndim) not in ((2, 2), (3, 3), (3, 2)):
        raise ShapeError(f"matmul: expected rank-2 or batched rank-3 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or (b.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    if a.ndim == 3 and b.ndim == 2:
        # one GEMM over the stacked rows; b's gradient sums over the batch
        flat = a.data.reshape(-1, a.shape[-1])

        def vjp(g):
            g2 = g.reshape(flat.shape[0], -1)
            return (
                (g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None,
                flat.T @ g2 if b.requires_grad else None,
            )

        return _from_op("matmul", (flat @ b.data).reshape(*a.shape[:-1], b.shape[1]), (a, b), vjp)

    def vjp(g):
        return (
            g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
            np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None,
        )

    return _from_op("matmul", a.data @ b.data, (a, b), vjp)


_ACTIVATIONS = (None, "relu", "sigmoid")


def linear(x: Tensor, w: Tensor, b: Tensor, act: str | None = None) -> Tensor:
    """A dense layer as one op: ``act(x @ w + b)`` for x (rows, k), w (k, n)
    and b (n,), where ``act`` is "relu", "sigmoid" or None.

    The bias is added into the product in place and the pre-activation is
    checked there, once: a check after the activation would miss a -inf that
    ReLU turns into 0, and no activation makes a finite value non-finite.
    The values and gradients are those of matmul, bias add and activation
    run as three ops, bit for bit.
    """
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1 or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"linear: expected (rows, k), (k, n) and (n,), got {x.shape}, {w.shape}, {b.shape}")
    if act not in _ACTIVATIONS:
        raise ValueError(f"linear: activation must be one of {_ACTIVATIONS}, got {act!r}")
    out = np.asarray(x.data @ w.data, dtype=_DTYPE)
    out += b.data
    _ensure_finite("linear", out)
    if act == "relu":
        np.maximum(out, 0, out=out)
    elif act == "sigmoid":
        s = _sigmoid64(out)
        out = s.astype(_DTYPE)

    def vjp(g):
        if act == "relu":
            g = g * (out > 0)  # out > 0 exactly where the pre-activation is
        elif act == "sigmoid":
            g = g * (s * (1.0 - s)).astype(g.dtype)
        return (
            g @ w.data.T if x.requires_grad else None,
            x.data.T @ g if w.requires_grad else None,
            _bias_grad(g) if b.requires_grad else None,
        )

    return _from_op("linear", out, (x, w, b), vjp)


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


def dropout(a: Tensor, p: float, train: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training. The mask is saved for backward."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return a
    scale = (rng.random(a.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    return _from_op("dropout", a.data * scale, (a,), lambda g: (g * scale,))


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
    """Select rows of a rank-2 tensor; backward scatter-adds into the source."""
    if a.ndim != 2:
        raise ShapeError(f"gather_rows: expected rank-2 input, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return _from_op("gather_rows", a.data[idx], (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise ShapeError("concat: no operands")
    sizes = [p.shape[axis] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(bounds[i], bounds[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return _from_op("concat", np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp)


def _reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _from_op("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def _transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a matrix or a batch of matrices."""
    if a.ndim not in (2, 3):
        raise ShapeError(f"transpose: expected rank-2 or rank-3 input, got {a.shape}")
    out = np.ascontiguousarray(np.swapaxes(a.data, -1, -2))
    return _from_op("transpose", out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def conv1d_dilated(
    x: Tensor, w: Tensor, dilation: int = 1, bags: int = 1, bias: Tensor | None = None
) -> Tensor:
    """Temporal cross-correlation with holes, zero-padded to preserve length.

    x is (bags * T, c_in): ``bags`` bags of T snippets stacked along the rows,
    each zero-padded on its own so that no tap reaches into a neighbouring
    bag. w is (k, c_in, c_out) with k odd; the output is (bags * T, c_out).
    The forward and both vector-Jacobian products are one GEMM each over the
    im2col matrix, whose row for snippet t holds the k taps' input rows. A
    ``bias`` (c_out,) is added into the output in place, before the output's
    check, with the values and gradients of a separate bias add.
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
    rows = x.shape[0]
    t_len = bag_length(rows, bags)
    pad = (k - 1) // 2 * dilation
    xpad = np.zeros((bags, t_len + 2 * pad, c_in), dtype=x.data.dtype)
    xpad[:, pad : pad + t_len] = x.data.reshape(bags, t_len, c_in)
    # cols[b, t, j] is xpad[b, t + j * dilation], the row that tap j reads (a
    # strided view made by the ndarray constructor, a third of as_strided's cost)
    sb, st, sc = xpad.strides
    cols = np.ndarray((bags, t_len, k, c_in), xpad.dtype, xpad, 0, (sb, st, dilation * st, sc))
    cols = cols.reshape(rows, k * c_in)
    w2 = w.data.reshape(k * c_in, c_out)

    out = np.asarray(cols @ w2, dtype=_DTYPE)
    parents = (x, w)
    if bias is not None:
        out += bias.data
        parents = (x, w, bias)

    def vjp(g):
        gx = None
        if x.requires_grad:
            gcols = (g @ w2.T).reshape(bags, t_len, k, c_in)
            gpad = np.zeros_like(xpad)
            for j in range(k):
                gpad[:, j * dilation : j * dilation + t_len] += gcols[:, :, j]
            gx = gpad[:, pad : pad + t_len].reshape(rows, c_in)
        gw = (cols.T @ g).reshape(k, c_in, c_out) if w.requires_grad else None
        gb = _bias_grad(g) if bias is not None and bias.requires_grad else None
        return (gx, gw, gb)[: len(parents)]

    return _from_op("conv1d_dilated", out, parents, vjp)


def nonlocal_attention(x: Tensor, w_theta: Tensor, w_phi: Tensor, w_g: Tensor, bags: int = 1) -> Tensor:
    """Embedded-Gaussian non-local attention as one op, (bags * T, d) ->
    (bags * T, c): per bag, softmax(theta phi^T) g with theta = x w_theta,
    phi = x w_phi and g = x w_g, for the ``bags`` bags of T rows stacked in
    x. Bags do not see each other: the (bags, T, T) products are batched.

    The softmax is taken in the logits' own buffer. The logits are checked,
    which covers theta and phi (a non-finite entry of either makes its whole
    row or column of logits non-finite), and so is the output, which covers
    g the same way. The output needs its check: its rows are convex
    combinations of g's rows, but the rounded softmax weights can sum to a
    little over 1, enough to overflow a combination of values near the
    float32 maximum. Values and gradients are those of the five matmuls,
    transpose and softmax run as single ops, bit for bit; x's gradient adds
    its g, phi and theta parts in that order.
    """
    if x.ndim != 2 or any(p.ndim != 2 or p.shape[0] != x.shape[1] for p in (w_theta, w_phi, w_g)):
        raise ShapeError(
            f"nonlocal_attention: expected (rows, d) and (d, c) weights, got {x.shape}, "
            f"{w_theta.shape}, {w_phi.shape}, {w_g.shape}"
        )
    if w_theta.shape != w_phi.shape:
        raise ShapeError(f"nonlocal_attention: theta {w_theta.shape} and phi {w_phi.shape} disagree")
    rows = x.shape[0]
    t_len = bag_length(rows, bags)

    def project(w: Tensor) -> np.ndarray:
        return np.asarray(x.data @ w.data, dtype=_DTYPE).reshape(bags, t_len, -1)

    theta = project(w_theta)
    phi_t = np.ascontiguousarray(np.swapaxes(project(w_phi), -1, -2))
    attn = np.asarray(theta @ phi_t, dtype=_DTYPE)
    _ensure_finite("nonlocal_attention", attn)
    _softmax_into(attn, attn, -1)
    g_proj = project(w_g)
    out = (attn @ g_proj).reshape(rows, -1)

    def vjp(g):
        g3 = g.reshape(bags, t_len, -1)
        gx = g_theta_w = g_phi_w = g_g_w = None
        if x.requires_grad or w_g.requires_grad:
            gg = (np.swapaxes(attn, -1, -2) @ g3).reshape(rows, -1)
            gx = gg @ w_g.data.T if x.requires_grad else None
            g_g_w = x.data.T @ gg if w_g.requires_grad else None
        if x.requires_grad or w_theta.requires_grad or w_phi.requires_grad:
            g_logits = _softmax_grad(attn, g3 @ np.swapaxes(g_proj, -1, -2), -1)
            if x.requires_grad or w_phi.requires_grad:
                gphi = np.swapaxes(np.swapaxes(theta, -1, -2) @ g_logits, -1, -2).reshape(rows, -1)
                if x.requires_grad:
                    gx += gphi @ w_phi.data.T
                g_phi_w = x.data.T @ gphi if w_phi.requires_grad else None
            if x.requires_grad or w_theta.requires_grad:
                gtheta = (g_logits @ np.swapaxes(phi_t, -1, -2)).reshape(rows, -1)
                if x.requires_grad:
                    gx += gtheta @ w_theta.data.T
                g_theta_w = x.data.T @ gtheta if w_theta.requires_grad else None
        return (gx, g_theta_w, g_phi_w, g_g_w)

    return _from_op("nonlocal_attention", out, (x, w_theta, w_phi, w_g), vjp)


def custom_op(op: str, data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Wire an externally computed forward value into the graph.

    vjp receives the output gradient and must return one gradient (or None)
    per parent. It must not write into the gradient it receives: the engine
    hands interior gradients on without copying, so that array may also be
    another tensor's gradient. Return None for a parent that needs no
    gradient (``requires_grad`` false) rather than computing one nobody reads.
    The output and every gradient are checked for NaN and Inf, so ``op`` may
    not reuse the name of a built-in op that skips a check.
    """
    if op in _SKIPS:
        raise ValueError(f"custom_op: '{op}' is the name of a built-in op")
    return _from_op(op, data, parents, vjp)


# -- backward ------------------------------------------------------------------


def _own_copy(g: np.ndarray, dtype) -> np.ndarray:
    """A leaf's private gradient buffer, which later contributions (and later
    backward calls) add into in place."""
    return np.array(g, dtype=dtype, copy=True)


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Gradients accumulate additively across fan-out and across calls (clear
    with `zero_grad`). The traversed records are consumed. A leaf's gradient
    is its own array; an interior tensor's gradient may be a vjp's output or
    a view of another tensor's gradient, and is not to be written into.
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

    nodes.sort(key=lambda t: t._id, reverse=True)
    loss.grad = np.ones_like(loss.data)
    for node in nodes:
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
            # a leaf owns its gradient and adds into it in place; an interior
            # tensor takes g as it is, so no vjp may write into its gradient
            if parent.grad is None:
                parent.grad = _own_copy(g, dtype) if parent._rec is None else g.astype(dtype, copy=False)
            elif parent._rec is None:
                np.add(parent.grad, g, out=parent.grad, casting="same_kind")
            else:
                parent.grad = (parent.grad + g).astype(dtype, copy=False)
            if not finite:
                _ensure_finite(f"grad[{rec.op}]", parent.grad)
        node._consumed = True
        node._rec = None


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
