"""Shared oracles and gradient-check utilities.

The finite-difference oracle always evaluates in float64: either a pure
numpy reference function, or the engine itself run under a float64 context.
"""

from __future__ import annotations

import contextlib

import numpy as np

from wsvad import autograd as ag
from wsvad.attention import tsa_forward
from wsvad.autograd import softmax
from wsvad.nn import conv_module_forward
from wsvad.optim import BETA1, BETA2, EPS
from wsvad.trainer import BCE_EPS

FD_H = 1e-4


def fd_grads(f, arrays: list[np.ndarray], h: float = FD_H) -> list[np.ndarray]:
    """Central finite differences of a scalar-valued f over every entry."""
    out = []
    for x in arrays:
        g = np.zeros_like(x, dtype=np.float64)
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(*arrays))
            flat[i] = orig - h
            fm = float(f(*arrays))
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def max_rel_err(approx: np.ndarray, exact: np.ndarray, abs_floor: float = 1e-5) -> float:
    """Relative error with an absolute floor near zero."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(abs_floor, np.maximum(np.abs(approx), np.abs(exact)))
    return float(np.max(np.abs(approx - exact) / denom))


def engine_grads(build, arrays: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Run `build` (arrays -> scalar Tensor) in float64 mode, backprop, and
    return the loss value and the leaf gradients."""
    with ag.using_dtype(np.float64):
        leaves = [ag.Tensor(a, requires_grad=True) for a in arrays]
        loss = build(*leaves)
        ag.backward(loss)
    return float(loss.data), [leaf.grad.copy() for leaf in leaves]


def check_grads(build, reference, arrays, h: float = FD_H, tol: float = 1e-3) -> float:
    """Compare engine gradients (float64 mode) against finite differences of
    an independent float64 reference; returns the worst relative error."""
    _, grads = engine_grads(build, [a.copy() for a in arrays])
    fd = fd_grads(reference, [a.astype(np.float64) for a in arrays], h=h)
    worst = max(max_rel_err(g, f) for g, f in zip(grads, fd))
    assert worst < tol, f"gradient mismatch: max rel err {worst}"
    return worst


@contextlib.contextmanager
def read_only_gradients():
    """Hand every vjp recorded inside the block a read-only view of its
    incoming gradient, so that a vjp writing into that array raises
    ``ValueError`` when ``backward`` runs it."""
    inner = ag._from_op

    def from_op(op, data, parents, vjp):
        def guarded(g):
            view = np.asarray(g).view()
            view.flags.writeable = False
            return vjp(view)

        return inner(op, data, parents, guarded)

    ag._from_op = from_op
    try:
        yield
    finally:
        ag._from_op = inner


# -- independent numpy references for the engine ops ---------------------------


def attention_always_on(model, features, bags=1, *, tsa_rng=None):
    """``model.context_features`` without its ratio-1.0 skip: the scorer and
    the selection run at every ratio, and the context module reads the
    features scaled by their inclusion, which is exactly 1 at ratio 1.0."""
    incl, selection, _ = tsa_forward(features, model.scorer, model.tsa, tsa_rng, bags=bags)
    return conv_module_forward(model.conv, features, bags, scale=incl), selection


def graph_nodes(loss: ag.Tensor) -> int:
    """The op records reachable from ``loss``: the nodes its backward visits."""
    seen, pending = set(), [loss]
    while pending:
        t = pending.pop()
        if id(t) not in seen and t._rec is not None:
            seen.add(id(t))
            pending.extend(t._rec.parents)
    return len(seen)


def stack(bags: list) -> ag.Tensor:
    """Stack per-bag tensors along the rows, the layout ``dmt_loss`` takes."""
    return ag.concat(bags, axis=0)


def unfused_mlp(x, weights, biases, act, bags=1, masks=None) -> ag.Tensor:
    """An MLP as one op per layer: a one-layer `mlp` for each layer, ReLU
    on the hidden ones and ``act`` on the last, and a same-shape `mul` by each
    hidden layer's mask. ``autograd.mlp`` runs it as one op with these bits."""
    h = x
    for layer, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        h = ag.mlp(h, [w], [b], "relu", bags)
        if masks is not None:
            h = h * masks[layer]
    return ag.mlp(h, weights[-1:], biases[-1:], act, bags)


def unfused_dmt_terms(top: ag.Tensor, scores: ag.Tensor, margin: float) -> tuple[ag.Tensor, ag.Tensor]:
    """The loss's two terms as single ops, from the (2B, alpha, d) top-alpha
    rows and their (2B, alpha, 1) scores: the mean margin hinge and the BCE,
    whose sum is the loss. ``trainer.dmt_loss`` runs them as one op with
    these bits."""
    bags = top.shape[0]
    b = bags // 2
    magnitudes = ag.l2_norm(top.mean(axis=1), axis=-1)
    # per pair: margin minus separability (abnormal minus normal magnitude)
    shortfall = ag.matmul(ag.Tensor([[1.0, -1.0]]), magnitudes.reshape(2, b)) + margin
    margin_term = shortfall.relu().mean()
    video = scores.mean(axis=1).clip(BCE_EPS, 1.0 - BCE_EPS)
    # likelihood of each bag's label: s for abnormal, 1 - s for normal
    y = np.repeat([0.0, 1.0], b)[:, None]
    likelihood = video * ag.Tensor(2.0 * y - 1.0) + ag.Tensor(1.0 - y)
    return margin_term, -likelihood.log().mean()


def ref_dmt_loss(ctx_feats: list, scores: list, labels: np.ndarray, cfg) -> ag.Tensor:
    """The loss written bag by bag: a Python loop over the pairs for the
    margin hinge and over the bags for the BCE, each bag's top-alpha rows
    gathered on their own. Takes per-bag (T, d) and (T, 1) tensors."""
    b = len(ctx_feats) // 2

    def top_rows(ctx):
        mags = np.linalg.norm(ctx.data.astype(np.float64), axis=1)
        return np.argsort(-mags, kind="stable")[: cfg.alpha]

    def magnitude(ctx):
        return ag.l2_norm(ag.gather_rows(ctx, top_rows(ctx)).mean(axis=0))

    hinge_sum = None
    for i in range(b):
        hinge = (cfg.margin - (magnitude(ctx_feats[b + i]) - magnitude(ctx_feats[i]))).relu()
        hinge_sum = hinge if hinge_sum is None else hinge_sum + hinge
    bce_sum = None
    for j, u in enumerate(scores):
        s = ag.gather_rows(u, top_rows(ctx_feats[j])).mean().clip(BCE_EPS, 1.0 - BCE_EPS)
        nll = -(s.log()) if labels[j] == 1 else -((1.0 - s).log())
        bce_sum = nll if bce_sum is None else bce_sum + nll
    margin_term = hinge_sum * (1.0 / b)
    bce_term = bce_sum * (1.0 / (2 * b))
    return margin_term + bce_term


class PerParameterAdam:
    """Adam stepped one parameter at a time, each through its own two-slot
    scratch array: the ufunc sequence ``optim.Adam`` runs over its packed
    blocks, kept as the reference its bits are checked against."""

    def __init__(self, params: dict, lr: float, weight_decay: float):
        self.params, self.lr, self.weight_decay, self.step_count = dict(params), lr, weight_decay, 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m, v = self.m[name], self.v[name]
            if not p.data.flags.writeable:
                p.data = p.data.copy()
            s, t = np.empty((2, *m.shape), dtype=m.dtype)
            g = p.grad
            if self.weight_decay:
                g = np.add(g, np.multiply(p.data, self.weight_decay, out=t), out=t)
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            v += np.multiply(np.square(g, out=s), 1.0 - BETA2, out=s)
            np.multiply(m, self.lr / bc1, out=s)
            np.sqrt(np.divide(v, bc2, out=t), out=t)
            t += EPS
            p.data -= np.divide(s, t, out=s)


# -- batched matrix ops for the unfused chains ----------------------------------
#
# The engine's matmul is rank-2 only. These test-only ops carry the batched
# forms the single-op non-local chain needs, so that the fused op is still
# checked against a graph that ``backward`` walks.


def shared_matmul(a: ag.Tensor, w: ag.Tensor) -> ag.Tensor:
    """(B, m, k) @ (k, n), w shared by every batch: one GEMM over the stacked
    rows, so w's gradient sums over the batch."""
    flat = a.data.reshape(-1, a.shape[-1])

    def vjp(g):
        g2 = g.reshape(flat.shape[0], -1)
        return (
            (g2 @ w.data.T).reshape(a.shape) if a.requires_grad else None,
            flat.T @ g2 if w.requires_grad else None,
        )

    return ag.custom_op("shared_matmul", (flat @ w.data).reshape(*a.shape[:-1], w.shape[1]), (a, w), vjp)


def batched_matmul(a: ag.Tensor, b: ag.Tensor) -> ag.Tensor:
    """(B, m, k) @ (B, k, n), one product per batch."""

    def vjp(g):
        return (
            g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
            np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None,
        )

    return ag.custom_op("batched_matmul", a.data @ b.data, (a, b), vjp)


def swap_last_axes(a: ag.Tensor) -> ag.Tensor:
    """Each matrix of a batch transposed."""
    out = np.ascontiguousarray(np.swapaxes(a.data, -1, -2))
    return ag.custom_op("swap_last_axes", out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def unfused_nonlocal(x, w_theta, w_phi, w_g, bags, scale=None):
    """The context module's attention branch as single ops: each projection
    one shared-weight product, scaled by its own row-scale ``mul`` when a
    ``scale`` is given, then a transpose, two batched products and a softmax.
    x may require grad here."""
    rows, width = x.shape
    x3 = x.reshape(bags, rows // bags, width)

    def project(w):
        h = shared_matmul(x3, w)
        if scale is None:
            return h
        return (h.reshape(rows, w.shape[1]) * scale).reshape(bags, rows // bags, w.shape[1])

    attn = softmax(batched_matmul(project(w_theta), swap_last_axes(project(w_phi))), axis=-1)
    context = batched_matmul(attn, project(w_g))
    return context.reshape(rows, context.shape[2])


# -- the context branches on the scaled input -----------------------------------
#
# The branches run on the scaled features ``scale * x`` and differentiate them
# through a (rows, d) input gradient, with an im2col conv: a reference for the
# engine's ops, which scale their projections instead.


def im2col_conv1d(x: ag.Tensor, w: ag.Tensor, dilation: int, bags: int) -> ag.Tensor:
    """The dilated conv over stacked bags as one GEMM over the im2col matrix
    of x, with ``ref_conv1d_dilated_vjp`` as its vjp. x may require grad."""
    k, c_in, c_out = w.shape
    rows = x.shape[0]
    t_len = rows // bags
    pad = (k - 1) // 2 * dilation
    xpad = np.zeros((bags, t_len + 2 * pad, c_in), dtype=x.data.dtype)
    xpad[:, pad : pad + t_len] = x.data.reshape(bags, t_len, c_in)
    cols = np.stack([xpad[:, j * dilation : j * dilation + t_len] for j in range(k)], axis=2).reshape(rows, k * c_in)

    def vjp(g):
        gx, gw, _ = ref_conv1d_dilated_vjp(x.data, w.data, g, dilation, bags)
        return (gx if x.requires_grad else None, gw if w.requires_grad else None)

    return ag.custom_op("im2col_conv1d", cols @ w.data.reshape(k * c_in, c_out), (x, w), vjp)


def input_scaled_conv(x: np.ndarray, w, dilation: int, bags: int, bias, scale):
    """A conv branch on the scaled input: the im2col conv of ``scale * x``
    plus the bias."""
    return im2col_conv1d(ag.Tensor(x) * scale, w, dilation, bags) + bias


def input_scaled_nonlocal(x: np.ndarray, w_theta, w_phi, w_g, bags: int, scale):
    """The attention branch on the scaled input: the single-op chain on
    ``scale * x``."""
    return unfused_nonlocal(ag.Tensor(x) * scale, w_theta, w_phi, w_g, bags)


def ref_conv1d_dilated(x: np.ndarray, w: np.ndarray, dilation: int) -> np.ndarray:
    """Loop-based dilated cross-correlation with symmetric zero padding."""
    k, c_in, c_out = w.shape
    t_len = x.shape[0]
    pad = (k - 1) // 2 * dilation
    out = np.zeros((t_len, c_out))
    for t in range(t_len):
        for j in range(k):
            src = t - pad + j * dilation
            if 0 <= src < t_len:
                for ci in range(c_in):
                    out[t] += x[src, ci] * w[j, ci]
    return out


def ref_conv1d_dilated_vjp(x: np.ndarray, w: np.ndarray, g: np.ndarray, dilation: int, bags: int):
    """The im2col-and-scatter vjp of a dilated conv over stacked bags:
    (gx, gw, gb) for x (bags * T, c_in), w (k, c_in, c_out) and the output
    gradient g (bags * T, c_out), in g's dtype. gx scatters the column
    gradient ``g @ w.T`` tap by tap into a zeroed padded buffer, and gw is
    ``cols.T @ g`` over the im2col matrix."""
    k, c_in, c_out = w.shape
    rows = x.shape[0]
    t_len = rows // bags
    pad = (k - 1) // 2 * dilation
    xpad = np.zeros((bags, t_len + 2 * pad, c_in), dtype=x.dtype)
    xpad[:, pad : pad + t_len] = x.reshape(bags, t_len, c_in)
    cols = np.stack([xpad[:, j * dilation : j * dilation + t_len] for j in range(k)], axis=2).reshape(rows, k * c_in)
    w2 = w.reshape(k * c_in, c_out)
    gcols = (g @ w2.T).reshape(bags, t_len, k, c_in)
    gpad = np.zeros_like(xpad)
    for j in range(k):
        gpad[:, j * dilation : j * dilation + t_len] += gcols[:, :, j]
    gx = gpad[:, pad : pad + t_len].reshape(rows, c_in)
    gw = (cols.T @ g).reshape(k, c_in, c_out)
    gb = np.sum(g, axis=0, dtype=np.float64).astype(g.dtype)
    return gx, gw, gb


def ref_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def ref_temporal_normalize(features: np.ndarray, t_out: int) -> np.ndarray:
    """Brute-force chunk average: output row i' (1-based) averages input rows
    with 1-based indices in (floor(g*(i'-1)), floor(g*i')], repeating the
    nearest lower row when the chunk is empty."""
    t_in = features.shape[0]
    wide = features.astype(np.float64)
    rows = []
    for i1 in range(1, t_out + 1):
        lo = (t_in * (i1 - 1)) // t_out  # floor(g*(i'-1))
        hi = (t_in * i1) // t_out  # floor(g*i')
        members = [j1 for j1 in range(1, t_in + 1) if lo < j1 <= hi]
        if not members:
            members = [lo + 1]
        acc = np.zeros(features.shape[1], dtype=np.float64)
        for j1 in members:
            acc += wide[j1 - 1]
        rows.append(acc / len(members))
    return np.array(rows, dtype=np.float64).astype(np.float32)


def ref_auc_roc_pairwise(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney statistic: fraction of (pos, neg) pairs ranked correctly,
    ties counting one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ref_auc_pr_enumeration(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision by explicit threshold enumeration over distinct
    scores in descending order."""
    total_pos = float(np.sum(labels == 1))
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        mask = scores >= t
        tp = float(np.sum(labels[mask] == 1))
        precision = tp / float(np.sum(mask))
        recall = tp / total_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def ref_unfold(values: np.ndarray, snippet_len: int, frame_count: int) -> np.ndarray:
    """Frame-by-frame expansion: frame f takes snippet f // snippet_len,
    clamped to the last snippet."""
    out = np.empty(frame_count, dtype=np.float64)
    for f in range(frame_count):
        idx = min(f // snippet_len, len(values) - 1)
        out[f] = values[idx]
    return out


def ref_topk(scores: np.ndarray, kappa: int, noise: np.ndarray, sigma: float):
    """Perturbed top-k by a stable descending argsort, one sample at a time.

    ``noise`` is (..., M, T) and ``scores`` holds the matching (..., T) bags.
    Returns (indices (..., M, kappa) in rank order, inclusion (..., T),
    per-sample 0/1 inclusion (..., M, T), vhat (..., kappa, T))."""
    m, t_len = noise.shape[-2:]
    lead = noise.shape[:-2]
    w = np.asarray(scores, dtype=np.float64).reshape(*lead, t_len)
    indices = np.empty((*lead, m, kappa), dtype=np.intp)
    v = np.zeros(noise.shape)
    counts = np.zeros((*lead, kappa, t_len))
    for pos in np.ndindex(*lead, m):
        bag = pos[:-1]
        order = np.argsort(-(w[bag] + sigma * noise[pos]), kind="stable")[:kappa]
        indices[pos] = order
        v[pos][order] = 1.0
        for rank, t in enumerate(order):
            counts[(*bag, rank, t)] += 1.0
    return indices, v.sum(axis=-2) / m, v, counts / m
