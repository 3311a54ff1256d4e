"""Engine ops: frozen hand values, gradient soundness, graph discipline."""

import itertools
import re
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

from wsvad import autograd as ag
from wsvad.autograd import (
    GraphConsumedError,
    NumericsError,
    ShapeError,
    Tensor,
    backward,
    concat,
    conv1d_dilated,
    gather_rows,
    l2_norm,
    matmul,
    mlp,
    nonlocal_attention,
    softmax,
)
from wsvad.model import CLASSIFIER_HIDDEN, SCORER_HIDDEN
from wsvad.nn import MLP, mlp_forward
from wsvad.trainer import CLASSIFIER_DROPOUT

from helpers import (
    batched_matmul,
    check_grads,
    engine_grads,
    fd_grads,
    input_scaled_conv,
    input_scaled_nonlocal,
    max_rel_err,
    read_only_gradients,
    ref_conv1d_dilated,
    ref_sigmoid,
    ref_softmax,
    shared_matmul,
    swap_last_axes,
    unfused_mlp,
    unfused_nonlocal,
)


def test_every_exported_name_is_defined():
    """A name left in ``__all__`` after its function is gone fails here, not
    only at ``from wsvad.autograd import *``."""
    assert [name for name in ag.__all__ if not hasattr(ag, name)] == []


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            check_grads(
                lambda ta, tb: matmul(ta, tb).sum(),
                lambda xa, xb: float((xa @ xb).sum()),
                [a, b],
            )


# (dilation, kernel size): the padding is (k - 1) / 2 dilations, so k 5 has
# taps that shift by twice the dilation and k 1 has only the centre tap; a
# k 3 case keeps the bare dilation as its test id
DILATION_KERNELS = [pytest.param(d, k, id=str(d) if k == 3 else f"{d}-k{k}") for k in (1, 3, 5) for d in (1, 2, 4)]


class TestConv1dDilated:
    def test_identity_kernel(self):
        x = Tensor(np.arange(6, dtype=float).reshape(6, 1))
        w = Tensor(np.array([1.0]).reshape(1, 1, 1))
        out = conv1d_dilated(x, w, dilation=1)
        assert np.array_equal(out.data, x.data)

    def test_hand_convolution(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        w = Tensor(np.ones((3, 1, 1)))
        assert conv1d_dilated(x, w, 1).data.ravel().tolist() == [3.0, 6.0, 9.0, 7.0]

    def test_hand_convolution_with_holes(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        w = Tensor(np.ones((3, 1, 1)))
        assert conv1d_dilated(x, w, 2).data.ravel().tolist() == [4.0, 6.0, 4.0, 6.0]

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv1d_dilated(Tensor(np.ones((4, 1))), Tensor(np.ones((2, 1, 1))), 1)

    def test_input_shape_rejected(self):
        w = Tensor(np.ones((3, 2, 5)))
        message = re.escape("conv1d_dilated: expected (T,c_in) and (k,c_in,c_out), got (1, 4, 2), (3, 2, 5)")
        with pytest.raises(ShapeError, match=message):
            conv1d_dilated(Tensor(np.ones((1, 4, 2))), w)
        with pytest.raises(ShapeError, match="conv1d_dilated: channel mismatch, x has 3, w expects 2"):
            conv1d_dilated(Tensor(np.ones((4, 3))), w)

    def test_bad_dilation_rejected(self):
        with pytest.raises(ValueError):
            conv1d_dilated(Tensor(np.ones((4, 1))), Tensor(np.ones((3, 1, 1))), 0)

    def test_forward_matches_reference(self):
        rng = np.random.default_rng(1)
        for dilation in (1, 2, 3):
            x = rng.normal(size=(7, 3))
            w = rng.normal(size=(3, 3, 2))
            with ag.using_dtype(np.float64):
                got = conv1d_dilated(Tensor(x), Tensor(w), dilation).data
            np.testing.assert_allclose(got, ref_conv1d_dilated(x, w, dilation), atol=1e-12)

    def test_grad_matches_finite_differences(self):
        # x is a constant; the weights and the row scale get gradients
        rng = np.random.default_rng(2)
        for dilation in (1, 2, 4):
            x = rng.normal(size=(5, 2))
            w = rng.normal(size=(3, 2, 2))
            s = rng.uniform(0.2, 1.5, size=(5, 1))
            check_grads(
                lambda tw, ts, d=dilation: conv1d_dilated(Tensor(x), tw, d, scale=ts).sum(),
                lambda xw, xs, d=dilation: float(ref_conv1d_dilated(xs * x, xw, d).sum()),
                [w, s],
            )

    @pytest.mark.parametrize("dilation,k", DILATION_KERNELS)
    @pytest.mark.parametrize("bags", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 2, 5])
    def test_stacked_bags_match_reference_per_bag(self, dilation, k, bags, t_len):
        # a bag of 1 or 2 snippets is shorter than the padding at dilation 4
        # (k 3) or 2 (k 5), so any tap that crossed a bag boundary would pick
        # up a neighbour
        rng = np.random.default_rng(dilation * 100 + bags * 10 + t_len)
        x = rng.normal(size=(bags * t_len, 3))
        w = rng.normal(size=(k, 3, 2))
        with ag.using_dtype(np.float64):
            got = conv1d_dilated(Tensor(x), Tensor(w), dilation, bags).data
        want = np.concatenate(
            [ref_conv1d_dilated(x[b * t_len : (b + 1) * t_len], w, dilation) for b in range(bags)]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("dilation,t_len", [(1, 3), (2, 3), (4, 2), (4, 1)])
    def test_stacked_grad_matches_finite_differences(self, dilation, t_len):
        rng = np.random.default_rng(40 + dilation + t_len)
        bags = 3
        x = rng.normal(size=(bags * t_len, 2))
        w = rng.normal(size=(3, 2, 3))
        s = rng.uniform(0.2, 1.5, size=(bags * t_len, 1))
        check_grads(
            lambda tw, ts: l2_norm(conv1d_dilated(Tensor(x), tw, dilation, bags, scale=ts)),
            lambda xw, xs: float(np.linalg.norm(np.concatenate(
                [ref_conv1d_dilated((xs * x)[b * t_len : (b + 1) * t_len], xw, dilation) for b in range(bags)]
            ))),
            [w, s],
        )

    def test_rows_must_split_into_bags(self):
        with pytest.raises(ShapeError, match="bags"):
            conv1d_dilated(Tensor(np.ones((5, 1))), Tensor(np.ones((3, 1, 1))), 1, 2)

    def test_scale_shape_checked(self):
        with pytest.raises(ShapeError, match=re.escape("scale must be (4, 1), got (4,)")):
            conv1d_dilated(Tensor(np.ones((4, 1))), Tensor(np.ones((3, 1, 1))), scale=Tensor(np.ones(4)))


class TestConvBackward:
    """The conv of ``scale * x``, scaled after its GEMM, gives the values and
    float32 gradients of the route that scaled the input first (an im2col
    conv with the im2col-and-scatter vjp, kept in ``tests/helpers.py``) up
    to rounding, and its forward keeps only the tap products P."""

    @pytest.mark.parametrize("dilation,k", DILATION_KERNELS)
    @pytest.mark.parametrize("bags", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 2, 5, 16])
    @pytest.mark.parametrize("mask", [(True,) * 3, (False, True, True), (True, False, True), (True, True, False)])
    def test_matches_the_im2col_vjp(self, dilation, k, bags, t_len, mask):
        # the padding is the dilation at k = 3 and twice it at k = 5, so T 1
        # (every dilation) and T 2 (dilations 2 and 4 at k 3, every one at
        # k 5) put whole taps outside the bag; mask says which of w, b and
        # the scale require grad
        rng = np.random.default_rng(1000 * dilation + 100 * bags + t_len)
        x = rng.normal(size=(bags * t_len, 6)).astype(np.float32)
        w = rng.normal(size=(k, 6, 4)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        s = rng.uniform(0.0, 1.0, size=(bags * t_len, 1)).astype(np.float32)
        s[0] = 0.0  # a row the selection dropped
        g = rng.normal(size=(bags * t_len, 4)).astype(np.float32)
        got = [Tensor(a, requires_grad=r) for a, r in zip((w, b, s), mask)]
        y = conv1d_dilated(Tensor(x), got[0], dilation, bags, bias=got[1], scale=got[2])
        backward(inject(y, g))
        want = [Tensor(a, requires_grad=r) for a, r in zip((w, b, s), mask)]
        y_ref = input_scaled_conv(x, want[0], dilation, bags, want[1], want[2])
        backward(inject(y_ref, g))
        np.testing.assert_allclose(y.data, y_ref.data, rtol=1e-5, atol=1e-5)
        for leaf, ref, needed in zip(got, want, mask):
            if not needed:
                assert leaf.grad is None
                continue
            assert leaf.grad.dtype == np.float32 and leaf.grad.shape == ref.grad.shape
            assert leaf.grad.flags.c_contiguous
            np.testing.assert_allclose(leaf.grad, ref.grad, rtol=1e-5, atol=1e-5)

    def test_forward_keeps_no_im2col_matrix(self):
        """A grad-enabled forward leaves only its output, the tap products P
        (rows * k * c_out) and the graph behind: no im2col matrix
        (rows * k * c_in) and no padded input (about rows * c_in), each far
        larger than P at c_out = 2."""
        rng = np.random.default_rng(6)
        rows, k, c_in = 64, 3, 256
        x = Tensor(rng.normal(size=(rows, c_in)))
        w = Tensor(rng.normal(size=(k, c_in, 2)), requires_grad=True)
        s = Tensor(rng.uniform(size=(rows, 1)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = conv1d_dilated(x, w, 2, 2, scale=s)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y._rec is not None
        assert kept < rows * c_in * x.data.itemsize // 2 < rows * k * c_in * x.data.itemsize

    @pytest.mark.parametrize("op", ["conv", "nonlocal"])
    @pytest.mark.parametrize("d", [32, 512])
    def test_context_branches_match_the_input_scaled_route(self, op, d):
        """At the detector's widths (d -> d/4, 16 bags of 32 snippets, each
        scale an inclusion in [0, 1] with hard zeros and ones), the values,
        the weight gradients and the scale gradient stay within float32
        rounding of scaling the input first."""
        rng = np.random.default_rng(d + (op == "nonlocal"))
        bags, t_len, c = 16, 32, d // 4
        rows = bags * t_len
        x = rng.normal(size=(rows, d)).astype(np.float32)
        s = rng.integers(0, 101, size=(rows, 1)).astype(np.float32) / 100  # M = 100 samples
        s[:4] = [[0.0], [1.0], [0.0], [1.0]]
        g = rng.normal(size=(rows, c)).astype(np.float32)
        if op == "conv":
            bound = np.sqrt(6.0 / (3 * d + 3 * c))
            arrays = [rng.uniform(-bound, bound, size=(3, d, c)), np.zeros(c)]
            fused = lambda w, b, sc: conv1d_dilated(Tensor(x), w, 2, bags, bias=b, scale=sc)
            reference = lambda w, b, sc: input_scaled_conv(x, w, 2, bags, b, sc)
        else:
            bound = np.sqrt(6.0 / (d + c))
            arrays = [rng.uniform(-bound, bound, size=(d, c)) for _ in range(3)]
            fused = lambda wt, wp, wg, sc: nonlocal_attention(Tensor(x), wt, wp, wg, bags, scale=sc)
            reference = lambda wt, wp, wg, sc: input_scaled_nonlocal(x, wt, wp, wg, bags, sc)
        runs = []
        for build in (fused, reference):
            leaves = [Tensor(a.astype(np.float32), requires_grad=True) for a in arrays + [s]]
            y = build(*leaves)
            backward(inject(y, g))
            runs.append([y.data] + [leaf.grad for leaf in leaves])
        for got, want in zip(*runs):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())

    @pytest.mark.parametrize("op", ["conv", "nonlocal"])
    def test_input_that_requires_grad_rejected(self, op):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with pytest.raises(ValueError, match="x must be a constant"):
            if op == "conv":
                conv1d_dilated(x, Tensor(np.ones((3, 4, 1))))
            else:
                nonlocal_attention(x, *(Tensor(np.ones((4, 1))) for _ in range(3)))


class TestBatchedMatrixOps:
    """The test-only batched products the unfused chains run on, and the
    engine's matmul, which takes none."""

    def test_batched_matmul_matches_per_matrix_products(self):
        rng = np.random.default_rng(11)
        a, b, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2)), rng.normal(size=(5, 2))
        with ag.using_dtype(np.float64):
            batched, shared = batched_matmul(Tensor(a), Tensor(b)), shared_matmul(Tensor(a), Tensor(w))
        np.testing.assert_allclose(batched.data, [a[i] @ b[i] for i in range(3)], atol=1e-12)
        np.testing.assert_allclose(shared.data, [a[i] @ w for i in range(3)], atol=1e-12)

    def test_batched_matmul_grads(self):
        rng = np.random.default_rng(12)
        a, b, w = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3)), rng.normal(size=(4, 2))
        check_grads(
            lambda ta, tb: l2_norm(batched_matmul(ta, tb)),
            lambda xa, xb: float(np.linalg.norm(xa @ xb)),
            [a, b],
        )
        check_grads(
            lambda ta, tw: l2_norm(shared_matmul(ta, tw)),
            lambda xa, xw: float(np.linalg.norm(xa @ xw)),
            [a, w],
        )

    def test_batched_transpose_grad(self):
        rng = np.random.default_rng(13)
        a, c = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))
        check_grads(
            lambda ta, tc: l2_norm(swap_last_axes(ta) * tc),
            lambda xa, xc: float(np.linalg.norm(np.swapaxes(xa, 1, 2) * xc)),
            [a, c],
        )

    def test_batch_mismatch_rejected(self):
        # only (m, k) @ (k, n): a rank-3 operand is rejected, even where a
        # batched product would be defined
        pairs = [((2, 3, 4), (3, 4, 1)), ((3, 4), (2, 4, 1)), ((2, 3, 4), (2, 4, 1)), ((2, 3, 4), (4, 1))]
        for a_shape, b_shape in pairs:
            with pytest.raises(ShapeError, match=re.escape(f"rank-2 operands, got {a_shape} @ {b_shape}")):
                matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


class TestBagLocalProducts:
    """Without gradients, an op over stacked bags gives every bag the bits it
    gets alone, at shapes where BLAS picks its kernel by the row count: one
    row (matrix-vector), one column (tail rows), and m * n * k up to 1e6 at
    k = 512 (OpenBLAS's small-matrix SGEMM). With gradients the product is
    one GEMM over all rows."""

    BAGS = 6

    def stack(self, seed, t_len, k):
        return np.random.default_rng(seed).normal(size=(self.BAGS * t_len, k)).astype(np.float32)

    @pytest.mark.parametrize("t_len, k, n", [(1, 32, 8), (1, 128, 32), (7, 256, 1), (3, 512, 512), (5, 512, 128)])
    def test_linear(self, t_len, k, n):
        x = self.stack(t_len + k + n, t_len, k)
        w, b = Tensor(np.random.default_rng(k).normal(size=(k, n))), Tensor(np.linspace(-1, 1, n))
        with ag.no_grad():
            stacked = mlp(Tensor(x), [w], [b], "relu", self.BAGS).data
            alone = [mlp(Tensor(bag), [w], [b], "relu").data for bag in x.reshape(self.BAGS, t_len, k)]
        assert stacked.tobytes() == np.concatenate(alone).tobytes()
        assert np.array_equal(mlp(Tensor(x), [w], [b], "relu", self.BAGS).data, mlp(Tensor(x), [w], [b], "relu").data)

    @pytest.mark.parametrize("t_len", [1, 5])
    def test_context_ops(self, t_len):
        x = self.stack(t_len, t_len, 512)
        rng = np.random.default_rng(1)
        w_conv = Tensor(rng.normal(size=(3, 512, 128)) / 20)
        w_attn = [Tensor(rng.normal(size=(512, 128)) / 20) for _ in range(3)]
        scale = rng.uniform(size=(self.BAGS * t_len, 1))
        ops = [
            lambda xs, s, bags: conv1d_dilated(xs, w_conv, 2, bags, scale=s),
            lambda xs, s, bags: nonlocal_attention(xs, *w_attn, bags, scale=s),
        ]
        with ag.no_grad():
            for op in ops:
                stacked = op(Tensor(x), Tensor(scale), self.BAGS).data
                alone = [
                    op(Tensor(x[i * t_len : (i + 1) * t_len]), Tensor(scale[i * t_len : (i + 1) * t_len]), 1).data
                    for i in range(self.BAGS)
                ]
                assert stacked.tobytes() == np.concatenate(alone).tobytes()

    def test_linear_rows_must_split_into_bags(self):
        with pytest.raises(ShapeError, match="equal bags"):
            mlp(Tensor(np.ones((5, 2))), [Tensor(np.ones((2, 3)))], [Tensor(np.ones(3))], bags=2)


# -- fused ops against the single-op chains they replace ------------------------


def unfused_linear(x, w, b, act):
    h = matmul(x, w) + b
    return h if act is None else getattr(h, act)()


def unfused_conv(x, w, dilation, bags, bias, scale):
    return conv1d_dilated(x, w, dilation, bags, scale=scale) + bias


def ref_linear(x, w, b, act):
    h = x @ w + b
    return {None: h, "relu": np.maximum(h, 0.0), "sigmoid": ref_sigmoid(h)}[act]


def ref_nonlocal(x, w_theta, w_phi, w_g, bags):
    x3 = x.reshape(bags, -1, x.shape[1])
    theta, phi, g = x3 @ w_theta, x3 @ w_phi, x3 @ w_g
    return (ref_softmax(theta @ np.swapaxes(phi, 1, 2)) @ g).reshape(x.shape[0], -1)


def run_float32(build, arrays, upstream, grad_mask):
    """Forward ``build`` on float32 leaves (``grad_mask`` says which require
    grad), backprop ``upstream`` into its output, and return the output, the
    op record's name and the leaves' gradients (None where not required)."""
    leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, grad_mask)]
    out = build(*leaves)
    op = out._rec.op
    backward(inject(out, upstream))
    return out.data, op, [leaf.grad for leaf in leaves]


def assert_same_bits(fused, unfused, arrays, grad_mask, op):
    rng = np.random.default_rng(99)
    with ag.no_grad():
        shape = fused(*[Tensor(a) for a in arrays]).shape
    upstream = rng.normal(size=shape).astype(np.float32)
    out, fused_op, grads = run_float32(fused, arrays, upstream, grad_mask)
    want, _, want_grads = run_float32(unfused, arrays, upstream, grad_mask)
    assert fused_op == op
    assert out.tobytes() == want.tobytes()
    for i, (g, w) in enumerate(zip(grads, want_grads)):
        assert (g is None) == (w is None), i
        if g is not None:
            assert g.dtype == np.float32 and g.tobytes() == w.tobytes(), i


def grad_masks(n):
    """Every operand requiring grad, then each operand off in turn."""
    return [(True,) * n] + [tuple(j != i for j in range(n)) for i in range(n)]


def linear_inputs(seed, rows=7, k=5, n=4):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(rows, k)).astype(np.float32), rng.normal(size=(k, n)).astype(np.float32),
            rng.normal(size=n).astype(np.float32)]


def nonlocal_inputs(seed, bags, t_len=5, d=6, c=3):
    """x, then w_theta, w_phi, w_g and a row scale with a hard 0 and 1."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 1.0, size=(bags * t_len, 1)).astype(np.float32)
    s[:2] = [[0.0], [1.0]]
    return [rng.normal(size=(bags * t_len, d)).astype(np.float32)] + [
        (rng.normal(size=(d, c)) * 0.7).astype(np.float32) for _ in range(3)
    ] + [s]


class TestFusedOps:
    """`linear`, conv with bias and `nonlocal_attention` give the values and
    float32 gradients of the single-op chains they replace, bit for bit, and
    pass the float64 gradient check. The conv and the attention take a
    constant x, so their gradients are the weights' and the row scale's."""

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    @pytest.mark.parametrize("mask", grad_masks(3))
    def test_linear_same_bits_as_the_chain(self, act, mask):
        arrays = linear_inputs(1)
        arrays[0][0, :] = 0.0  # a row with pre-activation exactly the bias
        assert_same_bits(
            lambda x, w, b: mlp(x, [w], [b], act), lambda x, w, b: unfused_linear(x, w, b, act), arrays, mask, "linear"
        )

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    def test_one_column_linear_same_bits_as_the_chain(self, act):
        arrays = linear_inputs(12, rows=9, k=6, n=1)
        arrays[0][0, :] = 0.0
        assert_same_bits(
            lambda x, w, b: mlp(x, [w], [b], act), lambda x, w, b: unfused_linear(x, w, b, act), arrays, (True,) * 3,
            "linear",
        )

    def test_one_column_input_gradient_keeps_the_gemm_signed_zeros(self):
        """A zero output gradient times a negative weight is -0.0 in a bare
        broadcast but +0.0 out of the K=1 GEMM; x's gradient has the GEMM's
        bits."""
        w = np.array([[-1.5], [0.0], [-0.0], [2.0], [3e-30]], np.float32)
        g = np.array([[0.0], [-0.0], [1.0], [-2.5], [1e-20], [0.0]], np.float32)
        x = Tensor(np.ones((6, 5)), requires_grad=True)
        backward(inject(mlp(x, [Tensor(w)], [Tensor(np.zeros(1))]), g))
        assert x.grad.tobytes() == (g @ w.T).tobytes()
        assert not np.signbit(x.grad[0]).any() and not np.signbit(x.grad[1]).any()

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    def test_linear_gradcheck(self, act):
        check_grads(
            lambda x, w, b: l2_norm(mlp(x, [w], [b], act)),
            lambda x, w, b: float(np.linalg.norm(ref_linear(x, w, b, act))),
            [a.astype(np.float64) for a in linear_inputs(2)],
        )

    @pytest.mark.parametrize("bags", [1, 3])
    @pytest.mark.parametrize("mask", grad_masks(3))
    def test_conv_with_bias_same_bits_as_the_chain(self, bags, mask):
        # mask says which of w, b and the scale require grad
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(bags * 4, 3)).astype(np.float32))
        arrays = [rng.normal(size=(3, 3, 2)).astype(np.float32), rng.normal(size=2).astype(np.float32),
                  rng.uniform(size=(bags * 4, 1)).astype(np.float32)]
        assert_same_bits(
            lambda w, b, s: conv1d_dilated(x, w, 2, bags, bias=b, scale=s),
            lambda w, b, s: unfused_conv(x, w, 2, bags, b, s),
            arrays, mask, "conv1d_dilated",
        )

    def test_conv_with_bias_gradcheck(self):
        rng = np.random.default_rng(4)
        for bags in (1, 2):
            for dilation in (1, 2, 4):
                x = rng.normal(size=(bags * 3, 2))
                w, b, s = rng.normal(size=(3, 2, 3)), rng.normal(size=3), rng.uniform(0.2, 1.5, size=(bags * 3, 1))
                check_grads(
                    lambda tw, tb, ts: l2_norm(conv1d_dilated(Tensor(x), tw, dilation, bags, bias=tb, scale=ts)),
                    lambda xw, xb, xs: float(np.linalg.norm(np.concatenate(
                        [ref_conv1d_dilated((xs * x)[i * 3 : (i + 1) * 3], xw, dilation) for i in range(bags)]) + xb)),
                    [w, b, s],
                )

    def test_conv_bias_shape_checked(self):
        with pytest.raises(ShapeError, match="bias"):
            conv1d_dilated(Tensor(np.ones((4, 1))), Tensor(np.ones((3, 1, 2))), 1, bias=Tensor(np.ones(3)))

    @pytest.mark.parametrize("bags", [1, 3])
    @pytest.mark.parametrize("mask", grad_masks(4))
    def test_nonlocal_same_bits_as_the_chain(self, bags, mask):
        # mask says which of w_theta, w_phi, w_g and the scale require grad
        x, *arrays = nonlocal_inputs(5, bags)
        assert_same_bits(
            lambda *t: nonlocal_attention(Tensor(x), *t[:3], bags, scale=t[3]),
            lambda *t: unfused_nonlocal(Tensor(x), *t[:3], bags, scale=t[3]),
            arrays, mask, "nonlocal_attention",
        )

    @pytest.mark.parametrize("bags", [1, 2])
    def test_nonlocal_gradcheck(self, bags):
        x, *arrays = (a.astype(np.float64) for a in nonlocal_inputs(6, bags, t_len=3, d=4, c=2))
        check_grads(
            lambda wt, wp, wg, s: l2_norm(nonlocal_attention(Tensor(x), wt, wp, wg, bags, scale=s)),
            lambda wt, wp, wg, s: float(np.linalg.norm(ref_nonlocal(s * x, wt, wp, wg, bags))),
            arrays,
        )

    def test_nonlocal_keeps_bags_apart(self):
        x, wt, wp, wg, s = nonlocal_inputs(7, 3)
        with ag.using_dtype(np.float64):
            got = nonlocal_attention(Tensor(x), Tensor(wt), Tensor(wp), Tensor(wg), 3, scale=Tensor(s)).data
        sx = s.astype(np.float64) * x
        want = np.concatenate([ref_nonlocal(sx[i * 5 : (i + 1) * 5], wt, wp, wg, 1) for i in range(3)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_unneeded_products_skipped(self):
        """`linear` skips x's product when x is a constant, as the scorer's
        first layer reads the feature batch; the weight and bias gradients
        are always formed."""
        x, w, b = linear_inputs(9)
        y = mlp(Tensor(x), [Tensor(w, requires_grad=True)], [Tensor(b, requires_grad=True)], "relu")
        grads = y._rec.vjp(np.ones(y.shape, np.float32))
        assert grads[0] is None
        assert [g.shape for g in grads[1:]] == [w.shape, b.shape]

    def test_conv_without_scale_keeps_no_tap_products(self):
        """Only the scale's gradient reads the per-tap products P (k, rows,
        c_out), so a conv with no scale, as under --no-tsa, lets them go."""
        x = Tensor(np.ones((8, 3)))
        w = Tensor(np.ones((3, 3, 2)), requires_grad=True)

        def held_tap_products(y):
            cells = [c.cell_contents for c in y._rec.vjp.__closure__]
            return [v for v in cells if isinstance(v, np.ndarray) and v.shape == (3, 8, 2)]

        assert held_tap_products(conv1d_dilated(x, w, 2, 2)) == []
        scale = Tensor(np.ones((8, 1)), requires_grad=True)
        assert len(held_tap_products(conv1d_dilated(x, w, 2, 2, scale=scale))) == 1

    def test_shapes_and_activation_checked(self):
        x, w, b = (Tensor(a) for a in linear_inputs(10))
        with pytest.raises(ShapeError):
            mlp(x, [w], [Tensor(np.ones(3))])
        with pytest.raises(ShapeError):
            mlp(x, [Tensor(w.data.T)], [b])
        with pytest.raises(ValueError, match="tanh"):
            mlp(x, [w], [b], "tanh")
        with pytest.raises(ShapeError, match="bags"):
            nonlocal_attention(*(Tensor(a) for a in nonlocal_inputs(11, 1)[:4]), 2)
        with pytest.raises(ShapeError, match="scale must be"):
            nonlocal_attention(*(Tensor(a) for a in nonlocal_inputs(11, 1)[:4]), scale=Tensor(np.ones((4, 1))))
        with pytest.raises(ShapeError, match="disagree"):
            nonlocal_attention(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
        w = Tensor(np.ones((4, 2)))
        message = re.escape("nonlocal_attention: expected (rows, d) and (d, c) weights, got (5, 4), (4, 2), (4,), (4, 2)")
        with pytest.raises(ShapeError, match=message):
            nonlocal_attention(Tensor(np.ones((5, 4))), w, Tensor(np.ones(4)), w)


MLP_HIDDEN = {"scorer": SCORER_HIDDEN, "classifier": CLASSIFIER_HIDDEN}


def mlp_case(seed, d, hidden, lead, masked):
    """float32 arrays for an MLP of dims (d, *hidden, 1), drawn at about the
    init's scale: x of shape ``lead + (d,)``, the weights, the biases, and,
    when ``masked``, the dropout masks ``trainer.forward_loss`` draws at
    those rows (else None)."""
    rng = np.random.default_rng(seed)
    dims = (d, *hidden, 1)
    weights = [(rng.normal(size=io) / np.sqrt(io[0])).astype(np.float32) for io in zip(dims[:-1], dims[1:])]
    biases = [(rng.normal(size=n) * 0.1).astype(np.float32) for n in dims[1:]]
    x = rng.normal(size=(*lead, d)).astype(np.float32)
    p = CLASSIFIER_DROPOUT
    masks = [(rng.random((*lead, n)) >= p).astype(np.float32) / (1.0 - p) for n in hidden] if masked else None
    return x, weights, biases, masks


def mlp_run(build, case, x_grad, upstream, bags):
    """``build`` (x, weights, biases, act, bags, masks) over fresh leaves of
    ``case``, with ``upstream`` backpropagated into its output: the output,
    and the gradients of x (None when constant), every weight and every bias."""
    x, weights, biases, masks = case
    leaves = [Tensor(x, requires_grad=x_grad)] + [Tensor(a, requires_grad=True) for a in (*weights, *biases)]
    n = len(weights)
    ms = None if masks is None else [Tensor(m) for m in masks]
    out = build(leaves[0], leaves[1 : 1 + n], leaves[1 + n :], "sigmoid", bags, ms)
    backward(inject(out, upstream))
    return out, [t.grad for t in leaves]


class TestMlpOp:
    """`mlp` runs a whole MLP as one op with the values and gradients of its
    single-op chain (``unfused_mlp``: a one-layer `linear` per layer and a
    `mul` per mask), bit for bit. The shapes are a training step's: 16 bags
    at the acceptance width (d=32, T=16: 256 rows) and at the paper's
    (d=512, T=32: 512 rows), every row as the scorer reads them or the
    loss's (2B, alpha, d) gather as the classifier does."""

    @pytest.mark.parametrize("x_grad", [False, True], ids=["x-constant", "x-grad"])
    @pytest.mark.parametrize("gathered", [False, True], ids=["rows", "gather"])
    @pytest.mark.parametrize("masked", [False, True], ids=["no-masks", "masks"])
    @pytest.mark.parametrize("layout", ["scorer", "classifier"])
    @pytest.mark.parametrize("d, t_len", [(32, 16), (512, 32)])
    def test_same_bits_as_the_chain(self, d, t_len, layout, masked, gathered, x_grad):
        bags = 16
        lead = (bags, 3) if gathered else (bags * t_len,)
        case = mlp_case(d + t_len, d, MLP_HIDDEN[layout], lead, masked)
        upstream = np.random.default_rng(d).normal(size=(*lead, 1)).astype(np.float32)
        out, grads = mlp_run(mlp, case, x_grad, upstream, bags)
        want, want_grads = mlp_run(unfused_mlp, case, x_grad, upstream, bags)
        assert out.data.tobytes() == want.data.tobytes()
        assert (grads[0] is None) == (not x_grad)
        for i, (g, w) in enumerate(zip(grads, want_grads)):
            assert (g is None) == (w is None), i
            if g is not None:
                assert g.dtype == np.float32 and g.tobytes() == w.tobytes(), i

    def test_one_node_over_the_leaves(self):
        """The op records one node whose parents are x, the weights and the
        biases: neither a mask nor a hidden layer is a node."""
        x, weights, biases, masks = mlp_case(1, 8, CLASSIFIER_HIDDEN, (6,), True)
        leaves = [Tensor(a, requires_grad=True) for a in (x, *weights, *biases)]
        out = mlp(leaves[0], leaves[1:4], leaves[4:], "sigmoid", masks=[Tensor(m) for m in masks])
        assert out._rec.op == "linear" and out._rec.parents == tuple(leaves)

    def test_same_bits_as_the_chain_in_float64(self):
        case = mlp_case(3, 32, CLASSIFIER_HIDDEN, (16, 3), True)
        upstream = np.random.default_rng(4).normal(size=(16, 3, 1))
        with ag.using_dtype(np.float64):
            out, grads = mlp_run(mlp, case, True, upstream, 16)
            want, want_grads = mlp_run(unfused_mlp, case, True, upstream, 16)
        assert out.data.dtype == np.float64 and out.data.tobytes() == want.data.tobytes()
        for g, w in zip(grads, want_grads):
            assert g.dtype == np.float64 and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("layout", ["scorer", "classifier"])
    @pytest.mark.parametrize("d, t_len", [(32, 16), (512, 32)])
    def test_stacked_bags_under_no_grad_match_each_bag_alone(self, d, t_len, layout):
        bags = 16
        x, weights, biases, _ = mlp_case(d * t_len, d, MLP_HIDDEN[layout], (bags * t_len,), False)
        ws, bs = [Tensor(w, requires_grad=True) for w in weights], [Tensor(b, requires_grad=True) for b in biases]
        with ag.no_grad():
            stacked = mlp(Tensor(x), ws, bs, "sigmoid", bags)
            alone = [mlp(Tensor(bag), ws, bs, "sigmoid").data for bag in x.reshape(bags, t_len, d)]
            chain = unfused_mlp(Tensor(x), ws, bs, "sigmoid", bags).data
        assert not stacked.requires_grad
        assert stacked.data.tobytes() == np.concatenate(alone).tobytes() == chain.tobytes()

    def test_no_grad_keeps_no_layer_past_the_next(self):
        """Without gradients the op holds one layer's input and output at a
        time, as the chain does: its peak memory is no higher."""
        x, weights, biases, _ = mlp_case(5, 32, SCORER_HIDDEN, (2048,), False)
        ws, bs = [Tensor(w, requires_grad=True) for w in weights], [Tensor(b, requires_grad=True) for b in biases]

        def peak(build):
            tracemalloc.start()
            try:
                with ag.no_grad():
                    build(Tensor(x), ws, bs, "sigmoid")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first_layer = 2048 * SCORER_HIDDEN[0] * 4
        assert peak(mlp) <= peak(unfused_mlp) < 3 * first_layer

    def test_layers_and_masks_checked(self):
        x, weights, biases, masks = mlp_case(2, 4, (5, 3), (6,), True)
        ws, bs = [Tensor(w) for w in weights], [Tensor(b) for b in biases]
        with pytest.raises(ShapeError, match="as many biases"):
            mlp(Tensor(x), ws, bs[:-1])
        with pytest.raises(ShapeError, match="as many biases"):
            mlp(Tensor(x), [], [])
        with pytest.raises(ShapeError, match=re.escape("got (6, 5), (3, 1), (3,)")):
            mlp(Tensor(x), [ws[0], ws[2], ws[1]], bs)
        with pytest.raises(ShapeError, match=re.escape("masks must be [(6, 5), (6, 3)]")):
            mlp(Tensor(x), ws, bs, masks=[Tensor(masks[0])])
        with pytest.raises(ShapeError, match="masks must be"):
            mlp(Tensor(x), ws, bs, masks=[Tensor(masks[1]), Tensor(masks[0])])
        with pytest.raises(ValueError, match="masks must be constants"):
            mlp(Tensor(x), ws, bs, masks=[Tensor(masks[0], requires_grad=True), Tensor(masks[1])])


MIN_LIVE_SIZE = ag._LIVE_ROWS_MIN_SIZE


def live_row_gradient(rng, rows, n, live, neg_zero):
    """An output gradient that is zero outside the rows ``live``, whose row
    ``neg_zero`` holds only -0.0."""
    g = np.zeros((rows, n), np.float32)
    g[live] = rng.normal(size=(len(live), n))
    g[neg_zero] = -0.0
    return g


def assert_plus_zero(a):
    """Every entry of ``a`` is +0.0, sign bit clear."""
    assert a.tobytes() == np.zeros_like(a).tobytes()


class TestLiveRowVjps:
    """Given an output gradient that is zero outside a few rows, as the loss
    leaves the context module's, the conv, `mul`'s row scale and the
    attention's theta work over those rows alone: the rows they skip get
    exactly +0.0 (a row of -0.0 counts as dead), the weight, bias and scale
    gradients are numpy's products over the live rows bit for bit, and they
    stay within float32 rounding of the dense chains."""

    @pytest.fixture(autouse=True)
    def every_size_restricts(self, monkeypatch):
        # these gradients are far smaller than the size from which the
        # engine restricts them; the next test holds that size
        monkeypatch.setattr(ag, "_LIVE_ROWS_MIN_SIZE", 0)
        self.found = []
        find = ag._live_rows
        monkeypatch.setattr(ag, "_live_rows", lambda g: self.found.append(find(g)) or self.found[-1])

    def assert_restricted_to(self, live):
        """The vjp found the rows ``live``, and so took the live-row path."""
        assert [f if isinstance(f, slice) else f.tolist() for f in self.found] == [live]

    def test_live_rows_are_the_rows_with_a_nonzero(self, monkeypatch):
        g = np.zeros((6, 3), np.float32)
        g[1, 2], g[3], g[4] = 1e-30, -0.0, [-2.0, 0.0, 2.0]  # row 4 sums to zero
        assert ag._live_rows(g).tolist() == [1, 4]
        every = slice(None)
        assert ag._live_rows(np.ones((6, 3), np.float32)) == every
        assert ag._live_rows(np.full((6, 3), -0.0, np.float32)) == every  # no live row: dense
        g = np.ones((6, 3), np.float32)
        g[:, 0] = 0.0  # a zero first column, but every row is live
        assert ag._live_rows(g) == every
        monkeypatch.setattr(ag, "_LIVE_ROWS_MIN_SIZE", MIN_LIVE_SIZE)
        g = np.zeros((MIN_LIVE_SIZE // 8, 8), np.float32)
        g[3] = 1.0
        assert ag._live_rows(g).tolist() == [3]
        assert ag._live_rows(g[1:]) == every  # fewer entries: taken as dense

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    def test_linear(self, act):
        """`linear` takes every row: training runs the classifier on the
        loss's rows alone, so its output gradient has no dead row to skip.
        Given one with dead rows, it looks for none and keeps the chain's
        bits, +0.0 in the dead rows of x's gradient included."""
        rng = np.random.default_rng(41)
        rows, live = 12, [0, 5, 6, 11]
        x, w, b = linear_inputs(41, rows=rows, k=5, n=4)
        g = live_row_gradient(rng, rows, 4, live, neg_zero=8)
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        backward(inject(mlp(leaves[0], [leaves[1]], [leaves[2]], act), g))
        assert self.found == []
        chain = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        backward(inject(unfused_linear(*chain, act), g))
        for got, want in zip(leaves, chain):
            assert got.grad.tobytes() == want.grad.tobytes()
        assert_plus_zero(np.delete(leaves[0].grad, live, axis=0))

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("bags", [1, 3])
    def test_conv(self, dilation, bags):
        rng = np.random.default_rng(50 + 10 * dilation + bags)
        t_len, k, c_in, c_out = 9, 3, 5, 3
        rows = bags * t_len
        x = rng.normal(size=(rows, c_in)).astype(np.float32)
        w = rng.normal(size=(k, c_in, c_out)).astype(np.float32)
        b = rng.normal(size=c_out).astype(np.float32)
        s = rng.uniform(size=(rows, 1)).astype(np.float32)
        s[1] = 0.0  # a row the selection dropped
        # each bag's first and last rows, and one inside; a -0.0 row in bag 0
        live = sorted(t + i * t_len for i in range(bags) for t in (0, 4, t_len - 1))
        g = live_row_gradient(rng, rows, c_out, live, neg_zero=2)
        leaves = [Tensor(a, requires_grad=True) for a in (w, b, s)]
        backward(inject(conv1d_dilated(Tensor(x), leaves[0], dilation, bags, bias=leaves[1], scale=leaves[2]), g))
        self.assert_restricted_to(live)
        gw, gb, gs = (leaf.grad for leaf in leaves)

        # tap j of output row o reads input row o + shift, in o's bag alone
        shifts = [j * dilation - (k - 1) // 2 * dilation for j in range(k)]
        same_bag = lambda r, o: 0 <= r < rows and r // t_len == o // t_len
        reached = sorted({o + sh for o in live for sh in shifts if same_bag(o + sh, o)})
        assert len(reached) < rows or dilation == 1 and bags == 1
        gy = np.zeros((k, len(reached), c_out), np.float32)
        for i, r in enumerate(reached):
            for j, sh in enumerate(shifts):
                if same_bag(r - sh, r):
                    gy[j, i] = g[r - sh]
        p = x @ w  # the tap products forward keeps
        assert gw.tobytes() == np.matmul(x[reached].T, gy * s[reached]).tobytes()
        assert gb.tobytes() == np.sum(g[live], axis=0, dtype=np.float64).astype(np.float32).tobytes()
        want_s = np.einsum("kij,kij->i", gy, p[:, reached], dtype=np.float64).astype(np.float32)
        assert gs[reached, 0].tobytes() == want_s.tobytes()
        assert_plus_zero(np.delete(gs, reached, axis=0))

        chain = [Tensor(a, requires_grad=True) for a in (w, b, s)]
        backward(inject(input_scaled_conv(x, chain[0], dilation, bags, chain[1], chain[2]), g))
        for got, want in zip((gw, gb, gs), chain):
            np.testing.assert_allclose(got, want.grad, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("bags", [1, 3])
    def test_nonlocal_theta(self, bags, monkeypatch):
        """Theta's part of the attention's backward is zero outside the live
        rows and works over them alone; every gradient keeps the bits of the
        dense path (the same op with every gradient taken as dense) and stays
        within float32 rounding of the single-op chain."""
        t_len = 6
        rows = bags * t_len
        x, *arrays = nonlocal_inputs(70 + bags, bags, t_len=t_len)
        live = [0, 3, 5] if bags == 1 else [0, t_len, 2 * t_len - 1, rows - 1]
        g = live_row_gradient(np.random.default_rng(70), rows, 3, live, neg_zero=1)

        def grads():
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            backward(inject(nonlocal_attention(Tensor(x), *leaves[:3], bags, scale=leaves[3]), g))
            return [leaf.grad for leaf in leaves]

        restricted = grads()
        self.assert_restricted_to(live)
        monkeypatch.setattr(ag, "_LIVE_ROWS_MIN_SIZE", np.inf)
        for got, want in zip(restricted, grads()):
            assert got.tobytes() == want.tobytes()
        chain = [Tensor(a, requires_grad=True) for a in arrays]
        backward(inject(unfused_nonlocal(Tensor(x), *chain[:3], bags, scale=chain[3]), g))
        for got, want in zip(restricted, chain):
            np.testing.assert_allclose(got, want.grad, rtol=1e-5, atol=1e-6)

    def test_row_scale(self):
        rng = np.random.default_rng(60)
        rows, live = 12, [0, 3, 4, 11]
        a = rng.normal(size=(rows, 5)).astype(np.float32)
        s = Tensor(rng.normal(size=(rows, 1)), requires_grad=True)
        g = live_row_gradient(rng, rows, 5, live, neg_zero=7)
        backward(inject(Tensor(a) * s, g))
        self.assert_restricted_to(live)
        want = np.einsum("ij,ij->i", g[live], a[live], dtype=np.float64).astype(np.float32)
        assert s.grad[live, 0].tobytes() == want.tobytes()
        assert_plus_zero(np.delete(s.grad, live, axis=0))
        dense = np.sum(g.astype(np.float64) * a, axis=1, keepdims=True)
        np.testing.assert_allclose(s.grad, dense, rtol=1e-6, atol=1e-7)

    def test_all_zero_gradient_takes_the_dense_path(self):
        """A step whose hinge and BCE both pass exactly 0 leaves no live row:
        the row scale, the conv and the attention then take the dense path,
        and their weight and scale gradients are +0.0."""
        rng = np.random.default_rng(80)
        rows, d = 12, 5
        g = np.zeros((rows, d), np.float32)
        g[3] = -0.0
        s = Tensor(rng.uniform(size=(rows, 1)), requires_grad=True)
        backward(inject(Tensor(rng.normal(size=(rows, d))) * s, g))
        assert_plus_zero(s.grad)

        x = Tensor(rng.normal(size=(rows, 4)))
        w = rng.normal(size=(3, 4, d))
        leaves = [Tensor(a, requires_grad=True) for a in (w, rng.uniform(size=(rows, 1)))]
        backward(inject(conv1d_dilated(x, leaves[0], 2, bags=2, scale=leaves[1]), g))
        for leaf in leaves:
            assert_plus_zero(leaf.grad)

        x, *arrays = nonlocal_inputs(81, 2, t_len=rows // 2)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = nonlocal_attention(Tensor(x), *leaves[:3], 2, scale=leaves[3])
        backward(inject(out, np.zeros(out.shape, np.float32)))
        for leaf in leaves:
            assert_plus_zero(leaf.grad)
        assert all(f == slice(None) for f in self.found) and len(self.found) == 3


class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        assert Tensor([0.0]).sigmoid().data[0] == 0.5

    def test_relu_definition(self):
        assert Tensor([-3.0]).relu().data[0] == 0.0
        assert Tensor([3.0]).relu().data[0] == 3.0

    def test_relu_signed_zeros_and_gradient_at_zero(self):
        # odd lengths and offsets reach both the vector loop and its scalar tail
        base = np.array([-0.0, 0.0, -2.5, 1.25, -0.0, 3.0, 0.0, -1e-30, 7.0], dtype=np.float32)
        x = np.tile(base, 37)[3:]
        t = Tensor(x, requires_grad=True)
        out = t.relu()
        backward(out.sum())
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == np.where(x > 0, x, 0).astype(np.float32).tobytes()
        assert not np.signbit(out.data).any()
        assert np.array_equal(t.grad, (x > 0).astype(np.float32))
        assert np.all(t.grad[x == 0] == 0.0)

    def test_scalar_subtraction_on_either_side(self):
        """`t - c` adds -c to t and `c - t` adds c to -t, each an `add_scalar`."""
        x = np.array([[1.5, -2.0], [0.25, 3.0]], np.float32)
        left, right = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        below, above = left - 0.75, 0.75 - right
        assert below.data.tobytes() == (x - np.float32(0.75)).tobytes()
        assert above.data.tobytes() == (np.float32(0.75) - x).tobytes()
        assert below._rec.op == above._rec.op == "add_scalar"
        backward(below.sum())
        backward(above.sum())
        assert np.array_equal(left.grad, np.ones_like(x)) and np.array_equal(right.grad, -np.ones_like(x))

    def test_l2_norm_hand_value(self):
        assert l2_norm(Tensor([3.0, 4.0])).item() == 5.0

    def test_add_bias_broadcast(self):
        out = Tensor(np.zeros((2, 3))) + Tensor([1.0, 2.0, 3.0])
        assert out.data.tolist() == [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((3, 2)))

    def test_mul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)) * Tensor(np.ones(4))
        # a row scale is (rows, 1) on the right only
        for a, b in (((2, 3), (3, 1)), ((2, 1), (2, 3)), ((2, 3), (2,))):
            with pytest.raises(ShapeError):
                Tensor(np.ones(a)) * Tensor(np.ones(b))

    def test_row_scale_values_and_grads(self):
        rng = np.random.default_rng(17)
        a, s = rng.normal(size=(4, 3)), rng.normal(size=(4, 1))
        assert np.array_equal((Tensor(a) * Tensor(s)).data, a.astype(np.float32) * s.astype(np.float32))
        check_grads(lambda ta, ts: l2_norm(ta * ts), lambda xa, xs: float(np.linalg.norm(xa * xs)), [a, s])

    def test_dropout_eval_is_identity(self):
        """Without masks, `mlp_forward` records one `linear` node over x,
        the weights and the biases, with the values of its layers' one-layer
        `linear` ops."""
        rng = np.random.default_rng(3)
        weights = [Tensor(rng.normal(size=s), requires_grad=True) for s in ((4, 5), (5, 3), (3, 1))]
        biases = [Tensor(np.zeros(w.shape[1]), requires_grad=True) for w in weights]
        x = Tensor(rng.normal(size=(6, 4)))
        node = mlp_forward(MLP(weights, biases), x)
        assert node._rec.op == "linear" and node._rec.parents == (x, *weights, *biases)
        h = x
        for w, b, act in zip(weights, biases, ("relu", "relu", "sigmoid")):
            h = mlp(h, [w], [b], act)
        assert node.data.tobytes() == h.data.tobytes()

    def test_dropout_train_masks_and_rescales(self):
        """A mask scaled as `forward_loss` scales it zeroes the dropped
        units and rescales the kept ones by 1 / (1 - p); `mlp_forward`
        multiplies its hidden layer's output by it inside its one node, and
        the mask is no parent of that node."""
        rng = np.random.default_rng(0)
        weights = [Tensor(rng.normal(size=s), requires_grad=True) for s in ((4, 10), (10, 1))]
        biases = [Tensor(np.zeros(w.shape[1]), requires_grad=True) for w in weights]
        x = Tensor(rng.normal(size=(100, 4)))
        mask = Tensor((np.random.default_rng(0).random((100, 10)) >= 0.7).astype(np.float32) / (1.0 - 0.7))
        assert set(np.unique(mask.data).tolist()) <= {0.0, np.float32(1.0 / 0.3)}
        assert 0.2 < np.mean(mask.data == 0.0) < 0.95
        out = mlp_forward(MLP(weights, biases), x, masks=[mask])
        assert out._rec.op == "linear" and out._rec.parents == (x, *weights, *biases)
        hidden = mlp(x, weights[:1], biases[:1], "relu")
        dropped = Tensor(hidden.data * mask.data)
        assert out.data.tobytes() == mlp(dropped, weights[1:], biases[1:], "sigmoid").data.tobytes()
        assert out.data.tobytes() != mlp_forward(MLP(weights, biases), x).data.tobytes()

    def test_dropout_at_rows_takes_the_whole_batch_masks(self):
        """A whole batch's scaled mask taken at some of its rows gives each
        of those rows the values and gradient that the mask over the whole
        batch gives it; a mask of any other shape than the input's is a
        `ShapeError`. (`forward_loss` draws its masks at the gathered rows
        alone; the trainer tests check that draw and the stream's end state.)"""
        x = np.random.default_rng(2).normal(size=(12, 6)).astype(np.float32)
        rows = np.array([[3, 0], [7, 11]])
        scale = (np.random.default_rng(5).random((12, 6)) >= 0.7).astype(np.float32) / (1.0 - 0.7)
        whole, part = Tensor(x, requires_grad=True), Tensor(x[rows], requires_grad=True)
        out_whole = whole * Tensor(scale)
        out_part = part * Tensor(scale[rows])
        assert out_part.data.tobytes() == out_whole.data[rows].tobytes()
        backward(out_whole.sum())
        backward(out_part.sum())
        assert part.grad.tobytes() == whole.grad[rows].tobytes()
        for wrong in (scale[rows[0]], scale, scale[rows][..., :-1]):
            with pytest.raises(ShapeError, match="mul"):
                part * Tensor(wrong)

    def test_dropout_bad_p(self):
        """A mask scaled at rate 1 divides by zero; the engine refuses its
        Inf and NaN as a tensor, so no such mask reaches a layer."""
        keep = np.array([True, False])
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = keep.astype(np.float32) / (1.0 - 1.0)
        with pytest.raises(NumericsError, match="tensor"):
            Tensor(scaled)


class TestBackward:
    def test_scalar_leaf(self):
        x = Tensor(2.0, requires_grad=True)
        backward(x)
        assert x.grad == 1.0

    def test_constant_loss_rejected(self):
        with pytest.raises(ValueError, match="backward: loss does not require grad"):
            backward(Tensor(1.0))

    def test_analytic_square_sum(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward((x * x).sum())
        assert x.grad.tolist() == [2.0, 4.0, 6.0]

    def test_fanout_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x + x
        backward(y.sum())
        assert x.grad.tolist() == [2.0, 2.0]

    def test_shared_vjp_output_is_not_aliased(self):
        """add's vjp hands the same array to both parents; accumulating into
        one parent's gradient afterwards must not change the other's."""
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        z = a * 3.0
        y = a + b  # created after z, so its vjp runs first
        backward((z + y).sum())
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.tolist() == [4.0, 4.0]
        assert b.grad.tolist() == [1.0, 1.0]

    def test_second_backward_leaves_held_gradient_unchanged(self):
        """No gradient is written into once set: a second backward into the
        same leaves sums out of place, so the array read after the first call
        keeps its value while the gradient doubles."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, -1.0], requires_grad=True)
        backward((x * w).sum())
        held_x, held_w = x.grad, w.grad
        backward((x * w).sum())
        assert held_x.tolist() == [3.0, -1.0] and held_w.tolist() == [1.0, 2.0]
        assert x.grad.tolist() == [6.0, -2.0] and w.grad.tolist() == [2.0, 4.0]

    def test_accumulation_keeps_dtype_and_casts_down(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ag.custom_op("f64", x.data, (x, x), lambda g: (g.astype(np.float64), g.astype(np.float64) * 2.0))
        backward(y.sum())
        assert x.grad.dtype == np.float32
        assert x.grad.tolist() == [3.0, 3.0]

    def test_accumulated_gradient_is_still_checked(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ag.custom_op("bad", x.data, (x, x), lambda g: (g, np.full_like(g, np.inf)))
        with pytest.raises(NumericsError, match=r"grad\[bad\]"):
            backward(y.sum())

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x * 2.0)

    def test_second_backward_errors(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        with pytest.raises(GraphConsumedError):
            backward(loss)

    def test_backward_on_consumed_subgraph_errors(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = x * x
        backward(mid.sum())
        with pytest.raises(GraphConsumedError):
            backward((mid * 2.0).sum())

    def test_each_node_visited_once_in_reverse_order(self):
        calls = []

        def probe(t, tag):
            def vjp(g):
                calls.append(tag)
                return (g,)

            return ag.custom_op(f"probe_{tag}", t.data, (t,), vjp)

        x = Tensor([1.0], requires_grad=True)
        a = probe(x, "a")
        b = probe(a, "b")
        c = probe(b, "c")
        backward(c.sum())
        assert calls == ["c", "b", "a"]

    @pytest.mark.parametrize("hold_b", [False, True])
    def test_nodes_are_freed_once_consumed_unless_held(self, hold_b):
        """In x -> a -> b -> loss, b's value and gradient are gone by the time
        a's vjp runs, unless the caller holds b: then b keeps its gradient,
        and its consumed graph cannot be run backward again."""
        refs, alive = [], []

        def vjp_a(g):
            alive.extend(ref() is not None for ref in refs)
            return (g * 2.0,)

        def vjp_b(g):
            refs.append(weakref.ref(g))
            return (g * 3.0,)

        x = Tensor([1.0, 2.0], requires_grad=True)
        a = ag.custom_op("double", x.data * 2.0, (x,), vjp_a)
        b = ag.custom_op("triple", a.data * 3.0, (a,), vjp_b)
        refs.append(weakref.ref(b.data))
        loss = b.sum()
        held = b if hold_b else None
        del a, b
        backward(loss)
        assert alive == [hold_b, hold_b]
        assert x.grad.tolist() == [6.0, 6.0] and loss.grad == 1.0
        if hold_b:
            assert held.grad.tolist() == [1.0, 1.0]
            with pytest.raises(GraphConsumedError):
                backward((held * 2.0).sum())

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))

        def build(tx, tw):
            return l2_norm(matmul(tx, tw).sigmoid().relu())

        def reference(xx, xw):
            h = ref_sigmoid(xx @ xw)
            return float(np.sqrt(np.sum(np.maximum(h, 0.0) ** 2)))

        check_grads(build, reference, [x, w])


class TestStructuralOps:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(4).normal(size=(5, 7)))
        np.testing.assert_allclose(softmax(x).data.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_grad(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4,))
        check_grads(
            lambda tx, tw: (softmax(tx) * (Tensor(np.ones((3, 1))) @ tw.reshape(1, 4))).sum(),
            lambda xx, xw: float((ref_softmax(xx) * xw).sum()),
            [x, w],
        )

    def test_softmax_at_eval_length_matches_float64_reference(self):
        """Computed in float32 with a float64 denominator, a T=512 attention
        softmax over logits up to +-30 stays within 1e-6 of the float64 value."""
        x = np.random.default_rng(6).uniform(-30.0, 30.0, (2, 512, 512)).astype(np.float32)
        out = softmax(Tensor(x)).data
        assert out.dtype == np.float32
        assert max_rel_err(out, ref_softmax(x.astype(np.float64))) <= 1e-6

    def test_softmax_in_float64_mode_is_the_reference(self):
        x = np.random.default_rng(7).normal(scale=10.0, size=(3, 64, 64))
        with ag.using_dtype(np.float64):
            out = softmax(Tensor(x)).data
        assert out.dtype == np.float64
        assert np.array_equal(out, ref_softmax(x))

    def test_softmax_allocates_only_its_output(self):
        """No float64 or per-step temporaries: the peak is one output buffer
        plus row-sized scratch."""
        x = Tensor(np.random.default_rng(8).normal(size=(1, 512, 512)))
        with ag.no_grad():
            tracemalloc.start()
            try:
                out = softmax(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 1.25 * out.data.nbytes

    def test_gather_rows_grad_scatter_adds(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = gather_rows(x, np.array([0, 0, 2]))
        backward(out.sum())
        assert x.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
        # a (bags, alpha) index gives (bags, alpha, width), as the loss gathers
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = gather_rows(x, np.array([[0, 2], [0, 0]]))
        assert out.data.tolist() == [[[0.0, 1.0], [4.0, 5.0]], [[0.0, 1.0], [0.0, 1.0]]]
        backward((out * Tensor(np.arange(1.0, 9.0).reshape(2, 2, 2))).sum())
        assert x.grad.tolist() == [[13.0, 16.0], [0.0, 0.0], [3.0, 4.0]]

    @pytest.mark.parametrize("idx", [[[4, 0, 2], [1, 5, 3]], [[4, 0, 4], [1, 1, 3]]], ids=["distinct", "repeated"])
    def test_gather_rows_grad_has_the_scatter_add_bits(self, idx):
        """Distinct indices, as each bag's top-alpha rows are, scatter by
        assignment and repeated ones by np.add.at; both give np.add.at's
        bits, with a -0.0 entry landing as +0.0."""
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        g = rng.normal(size=(2, 3, 4)).astype(np.float32)
        g[0, 1], g[1, 2, 0] = -0.0, -0.0
        backward(inject(gather_rows(x, np.array(idx)), g))
        want = np.zeros((7, 4), np.float32)
        np.add.at(want, np.array(idx), g)
        assert x.grad.tobytes() == want.tobytes()
        assert not np.signbit(x.grad[x.grad == 0]).any()

    def test_concat_grad_slices(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        backward((out * 2.0).sum())
        assert np.all(a.grad == 2.0) and np.all(b.grad == 2.0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat_grads_are_owned_copies_of_the_slices(self, axis):
        """Each part gets its slice of the gradient as a contiguous array of
        its own: a view would keep the whole gradient alive."""
        rng = np.random.default_rng(axis)
        widths = [3, 1, 4]
        parts = [Tensor(rng.normal(size=(5, w) if axis else (w, 5)), requires_grad=True) for w in widths]
        g = rng.normal(size=(5, 8) if axis else (8, 5)).astype(np.float32)
        backward(inject(concat(parts, axis=axis), g))
        for part, want in zip(parts, np.split(g, np.cumsum(widths)[:-1], axis)):
            assert part.grad.tobytes() == np.ascontiguousarray(want).tobytes()
            assert part.grad.flags.owndata and part.grad.flags.c_contiguous

    def test_transpose_and_reshape_grads(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4))
        check_grads(
            lambda tx: l2_norm(swap_last_axes(tx).reshape(12)),
            lambda xx: float(np.linalg.norm(xx.T.reshape(12))),
            [x],
        )

    def test_reductions_grads(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        check_grads(
            lambda tx: tx.mean(axis=0).sum() + tx.sum() * 0.5,
            lambda xx: float(xx.mean(axis=0).sum() + xx.sum() * 0.5),
            [x],
        )

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_axis_reduction_grads(self, axis):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=np.delete(np.array(x.shape), axis % 3))
        check_grads(
            lambda tx: l2_norm(tx.mean(axis=axis) * Tensor(w)) + l2_norm(tx.sum(axis=axis)),
            lambda xx: float(np.linalg.norm(xx.mean(axis=axis) * w) + np.linalg.norm(xx.sum(axis=axis))),
            [x],
        )

    def test_axis_reduction_out_of_range(self):
        with pytest.raises(ShapeError, match="axis 2"):
            Tensor(np.ones((2, 3))).sum(axis=2)

    @pytest.mark.parametrize("kind", ["sum", "mean"])
    def test_reduction_over_empty_axis(self, kind):
        with pytest.raises(ShapeError, match=f"{kind}: empty reduction"):
            getattr(Tensor(np.ones((0, 3))), kind)(axis=0)

    def test_item_on_non_scalar(self):
        with pytest.raises(ShapeError, match=re.escape("item() on non-scalar tensor of shape (2,)")):
            Tensor(np.ones(2)).item()

    def test_gather_rows_on_rank_one(self):
        with pytest.raises(ShapeError, match=re.escape("gather_rows: expected rank-2 input, got (3,)")):
            gather_rows(Tensor(np.ones(3)), np.array([0]))

    def test_concat_of_nothing(self):
        with pytest.raises(ShapeError, match="concat: no operands"):
            concat([])

    def test_row_norm_values_and_grads(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5, 4))
        np.testing.assert_allclose(l2_norm(Tensor(x), axis=-1).data, np.linalg.norm(x, axis=-1), rtol=1e-6)
        w = rng.normal(size=(3, 5))
        check_grads(
            lambda tx: (l2_norm(tx, axis=-1) * Tensor(w)).sum(),
            lambda xx: float((np.linalg.norm(xx, axis=-1) * w).sum()),
            [x],
        )

    def test_row_norm_matches_full_norm_per_row(self):
        x = np.random.default_rng(10).normal(size=(4, 6)).astype(np.float32)
        rows = l2_norm(Tensor(x), axis=-1).data
        assert rows.tolist() == [l2_norm(Tensor(r)).item() for r in x]

    def test_zero_row_has_zero_gradient(self):
        x = Tensor([[0.0, 0.0], [3.0, 4.0]], requires_grad=True)
        backward(l2_norm(x, axis=-1).sum())
        np.testing.assert_array_equal(x.grad, np.float32([[0.0, 0.0], [0.6, 0.8]]))


class TestNumericsContract:
    def test_nan_input_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([np.nan])

    def test_inf_input_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([np.inf, 1.0])

    def test_log_of_nonpositive_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([0.0]).log()

    def test_error_names_the_op(self):
        bad = ag.custom_op  # NaN injected through a custom op forward
        with pytest.raises(NumericsError, match="exploding_op"):
            bad("exploding_op", np.array([np.nan]), (Tensor([1.0], requires_grad=True),), lambda g: (g,))

    def test_nan_grad_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        out = ag.custom_op("bad_grad", x.data, (x,), lambda g: (g * np.nan,))
        with pytest.raises(NumericsError, match="bad_grad"):
            backward(out.sum())

    def test_finite_input_whose_sum_overflows_accepted(self):
        # the float32 sum of these finite entries is inf, so only the exact
        # fallback scan can tell them from a non-finite input; the check
        # itself emits no overflow warning, which the suite turns into an error
        big = np.full(4, 3e38, np.float32)
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.sum())
        assert np.array_equal(Tensor(big).data, big)


BIG = np.float32(3.4e38)  # near the float32 maximum, 3.4028e38
EXTREME = np.array([[BIG, -BIG, BIG], [-BIG, BIG, -BIG]], np.float32)


def inject(t, grad):
    """A scalar loss whose gradient with respect to t is ``grad``."""
    return ag.custom_op("inject", np.zeros(()), (t,), lambda g: (grad,))


# every op whose forward value the engine does not check, on extreme input
FINITE_OUTPUT = {
    # the pre-activation, checked inside the op, is +-BIG here
    "linear": lambda t: mlp(t, [Tensor(np.eye(3))], [Tensor(np.zeros(3))], "relu"),
    "reshape": lambda t: t.reshape(3, 2),
    "gather_rows": lambda t: gather_rows(t, np.array([1, 0, 1, 1])),
    "concat": lambda t: concat([t, t], axis=0),
    "relu": lambda t: t.relu(),
    "clip": lambda t: t.clip(-np.inf, np.inf),
    "sigmoid": lambda t: t.sigmoid(),
    "softmax": lambda t: softmax(t),
}

# every op whose vjp output the engine does not check, on extreme gradients
PASSED_ON_GRAD = {
    "reshape": lambda t: t.reshape(3, 2),
    "concat": lambda t: concat([Tensor(np.zeros((2, 1))), t], axis=1),
    "relu": lambda t: t.relu(),
    "clip": lambda t: t.clip(-1.0, np.inf),
    "add": lambda t: t + Tensor(np.ones((2, 3))),
    "add_scalar": lambda t: t + 1.0,
}


class TestFiniteByConstruction:
    """The checks `_SKIPS` lets an op skip cannot let a NaN or Inf through:
    extreme finite inputs and gradients still give finite values."""

    def test_every_skipped_check_has_a_case(self):
        assert set(FINITE_OUTPUT) == {op for op, (out, _) in ag._SKIPS.items() if out}
        assert set(PASSED_ON_GRAD) == {op for op, (_, grad) in ag._SKIPS.items() if grad}

    @pytest.mark.parametrize("op", sorted(FINITE_OUTPUT))
    def test_output_of_extreme_input_is_finite(self, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow on the way is a RuntimeWarning
            out = FINITE_OUTPUT[op](Tensor(EXTREME, requires_grad=True))
        assert out._rec.op == op
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("op", sorted(PASSED_ON_GRAD))
    def test_extreme_gradient_passed_on_is_finite(self, op):
        x = Tensor(EXTREME, requires_grad=True)
        mid = x * 1.0  # an interior tensor: its gradient is passed on uncopied
        y = PASSED_ON_GRAD[op](mid)
        assert y._rec.op == op
        grad = np.where(np.arange(y.data.size) % 2, -BIG, BIG).reshape(y.shape)
        with np.errstate(over="ignore"):  # the checks' float32 sums overflow before the exact scan
            backward(inject(y, grad))
        assert np.isfinite(mid.grad).all() and np.abs(mid.grad).max() == BIG
        assert np.isfinite(x.grad).all()

    def test_output_cast_to_a_narrower_dtype_is_checked(self):
        with ag.using_dtype(np.float64):
            wide = Tensor([1e39])
        with pytest.raises(NumericsError, match="'reshape'"), np.errstate(over="ignore"):
            wide.reshape(1, 1)

    def test_gradient_cast_to_a_narrower_dtype_is_checked(self):
        x = Tensor([1.0], requires_grad=True)
        with ag.using_dtype(np.float64):
            y = x.reshape(1, 1)
        with pytest.raises(NumericsError, match=r"grad\[reshape\]"), np.errstate(over="ignore"):
            backward(inject(y, np.full((1, 1), 1e39)))

    def test_clip_with_nan_bound_rejected(self):
        with pytest.raises(NumericsError, match="clip"):
            Tensor([1.0]).clip(np.nan, 1.0)

    def test_custom_op_may_not_borrow_a_skipping_name(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="relu"):
            ag.custom_op("relu", x.data, (x,), lambda g: (g,))


class TestChecksThatStay:
    """Ops outside `_SKIPS` can turn finite values non-finite, so their
    outputs and gradients are checked."""

    def test_matmul_overflow_rejected(self):
        with pytest.raises(NumericsError, match="'matmul'"), np.errstate(over="ignore"):
            matmul(Tensor([[BIG, BIG]]), Tensor([[2.0], [2.0]]))

    def test_matmul_gradient_overflow_rejected(self):
        x = Tensor([[1.0, 1.0]], requires_grad=True)
        y = matmul(x, Tensor([[4.0], [4.0]]))
        with pytest.raises(NumericsError, match=r"grad\[matmul\]"), np.errstate(over="ignore"):
            backward(inject(y, np.full((1, 1), BIG, np.float32)))

    def test_bias_add_overflow_rejected(self):
        with pytest.raises(NumericsError, match="'add_bias'"), np.errstate(over="ignore"):
            Tensor([[BIG]]) + Tensor([BIG])

    def test_bias_gradient_overflow_rejected(self):
        """The bias gradient sums the rows' gradients, which can overflow."""
        bias = Tensor([0.0], requires_grad=True)
        y = Tensor(np.zeros((2, 1))) + bias
        with pytest.raises(NumericsError, match=r"grad\[add_bias\]"), np.errstate(over="ignore"):
            backward(inject(y, np.full((2, 1), BIG, np.float32)))

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_linear_pre_activation_overflow_rejected(self, act, sign):
        """Checked before the activation: ReLU would turn -inf into 0 and
        sigmoid would turn +-inf into 1 or 0."""
        w = Tensor([[2.0 * sign], [2.0 * sign]])
        with pytest.raises(NumericsError, match="'linear'"), np.errstate(over="ignore"):
            mlp(Tensor([[BIG, BIG]]), [w], [Tensor([0.0])], act)

    def test_linear_bias_overflow_rejected(self):
        with pytest.raises(NumericsError, match="'linear'"), np.errstate(over="ignore"):
            mlp(Tensor([[BIG]]), [Tensor([[1.0]])], [Tensor([BIG])], "relu")

    @pytest.mark.parametrize("operand", [0, 1, 2])
    def test_linear_gradient_overflow_rejected(self, operand):
        """x's and w's gradients are products and b's sums the rows; each
        overflows on its own here."""
        arrays = [np.full((2, 2), 4.0, np.float32), np.full((2, 1), 4.0, np.float32), np.zeros(1, np.float32)]
        leaves = [Tensor(a, requires_grad=i == operand) for i, a in enumerate(arrays)]
        y = mlp(leaves[0], [leaves[1]], [leaves[2]])
        with pytest.raises(NumericsError, match=r"grad\[linear\]"), np.errstate(over="ignore"):
            backward(inject(y, np.full((2, 1), BIG, np.float32)))

    def test_conv_bias_overflow_rejected(self):
        with pytest.raises(NumericsError, match="'conv1d_dilated'"), np.errstate(over="ignore"):
            conv1d_dilated(Tensor([[BIG]]), Tensor([[[1.0]]]), bias=Tensor([BIG]))

    def test_conv_bias_gradient_overflow_rejected(self):
        bias = Tensor([0.0], requires_grad=True)
        y = conv1d_dilated(Tensor(np.zeros((2, 1))), Tensor([[[1.0]]]), bias=bias)
        with pytest.raises(NumericsError, match=r"grad\[conv1d_dilated\]"), np.errstate(over="ignore"):
            backward(inject(y, np.full((2, 1), BIG, np.float32)))

    @pytest.mark.parametrize("op", ["conv", "nonlocal"])
    def test_scale_gradient_overflow_rejected(self, op):
        """The scale's gradient sums a row of products, which can overflow."""
        s = Tensor(np.ones((2, 1)), requires_grad=True)
        x = Tensor(np.full((2, 2), 4.0))
        if op == "conv":
            y = conv1d_dilated(x, Tensor(np.ones((1, 2, 2))), scale=s)
            name = "conv1d_dilated"
        else:
            y = nonlocal_attention(x, Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 1))), Tensor(np.ones((2, 2))), scale=s)
            name = "nonlocal_attention"
        with pytest.raises(NumericsError, match=rf"grad\[{name}\]"), np.errstate(over="ignore", invalid="ignore"):
            backward(inject(y, np.full((2, 2), BIG, np.float32)))

    def test_row_scale_gradient_overflow_rejected(self):
        s = Tensor(np.ones((2, 1)), requires_grad=True)
        y = Tensor(np.full((2, 2), 4.0)) * s
        with pytest.raises(NumericsError, match=r"grad\[mul\]"), np.errstate(over="ignore"):
            backward(inject(y, np.full((2, 2), BIG, np.float32)))

    def test_nonlocal_logit_overflow_rejected(self):
        """theta and phi are finite (1e20); their product is not."""
        one = Tensor([[1.0]])
        with pytest.raises(NumericsError, match="'nonlocal_attention'"), np.errstate(over="ignore"):
            nonlocal_attention(Tensor([[1e20], [1.0]]), one, one, one)

    def test_nonlocal_output_overflow_rejected(self):
        """Uniform weights over 23 rows of g at the float32 maximum: each
        output row is a convex combination of finite values, yet the rounded
        weights and the float32 sums overflow it, so the output is checked."""
        top = np.finfo(np.float32).max
        zero = Tensor([[0.0]])
        with pytest.raises(NumericsError, match="'nonlocal_attention'"), np.errstate(over="ignore"):
            nonlocal_attention(Tensor(np.ones((23, 1))), zero, zero, Tensor([[top]]))

    def test_nonlocal_gradient_overflow_rejected(self):
        """Only g's weight gradient overflows: with g this small the softmax
        gradient, and so theta's and phi's, stay finite."""
        x = Tensor([[1.0], [2.0]])
        w_g = Tensor([[1e-30]], requires_grad=True)
        y = nonlocal_attention(x, Tensor([[1.0]]), Tensor([[1.0]]), w_g)
        with pytest.raises(NumericsError, match=r"grad\[nonlocal_attention\]"), np.errstate(over="ignore"):
            backward(inject(y, np.full((2, 1), BIG, np.float32)))

    def test_scatter_add_overflow_rejected(self):
        x = Tensor(np.zeros((2, 1)), requires_grad=True)
        y = gather_rows(x, np.array([0, 0]))
        with pytest.raises(NumericsError, match=r"grad\[gather_rows\]"), np.errstate(over="ignore"):
            backward(inject(y, np.full((2, 1), BIG, np.float32)))

    def test_softmax_gradient_overflow_rejected(self):
        x = Tensor([[np.log(3.0), 0.0]], requires_grad=True)  # softmax [0.75, 0.25]
        y = softmax(x)
        with pytest.raises(NumericsError, match=r"grad\[softmax\]"), np.errstate(over="ignore"):
            backward(inject(y, np.array([[BIG, -BIG]], np.float32)))


class TestFinalGradientChecks:
    """A gradient is checked as stored, in its tensor's dtype and after
    accumulation, so overflow in the cast or the sum is caught too."""

    def test_gradient_that_overflows_in_the_cast_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ag.custom_op("wide", x.data, (x,), lambda g: (np.full(g.shape, 1e39),))
        with pytest.raises(NumericsError, match=r"grad\[wide\]"), np.errstate(over="ignore"):
            backward(y.sum())

    @pytest.mark.parametrize("interior", [False, True])
    def test_accumulation_that_overflows_rejected(self, interior):
        x = Tensor([1.0, 2.0], requires_grad=True)
        target = x * 1.0 if interior else x
        big = lambda g: np.full_like(g, 3e38)
        y = ag.custom_op("twice", target.data, (target, target), lambda g: (big(g), big(g)))
        with pytest.raises(NumericsError, match=r"grad\[twice\]"), np.errstate(over="ignore"):
            backward(y.sum())

    def test_interior_gradient_is_passed_on_and_leaf_gradient_owned(self):
        """Gradients are handed on uncopied; the leaf's is the scalar mul's
        own product, so it holds no view of the injected array."""
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        mid = x * 1.0
        flat = mid.reshape(2)
        g = np.array([3.0, 4.0], np.float32)
        backward(inject(flat, g))
        assert flat.grad is g
        assert np.shares_memory(mid.grad, g)
        assert not np.shares_memory(x.grad, g)
        assert x.grad.tolist() == [[3.0, 4.0]]


class TestUnneededProducts:
    """`matmul` and `mul` return None for an operand that needs no gradient:
    the program hands them constants, such as the residual's input, the
    dropout masks and the loss's labels."""

    @pytest.mark.parametrize("const", [0, 1])
    @pytest.mark.parametrize(
        "op, a_shape, b_shape",
        [
            pytest.param(matmul, (2, 3), (3, 4), id="matmul"),
            pytest.param(batched_matmul, (2, 2, 3), (2, 3, 4), id="batched_matmul"),
            pytest.param(shared_matmul, (2, 2, 3), (3, 4), id="shared_matmul"),
            pytest.param(lambda a, b: a * b, (2, 3), (2, 3), id="mul"),
            pytest.param(lambda a, b: a * b, (2, 3), (2, 1), id="mul_rows"),
        ],
    )
    def test_product_skipped(self, op, a_shape, b_shape, const):
        a = Tensor(np.ones(a_shape), requires_grad=const != 0)
        b = Tensor(np.ones(b_shape), requires_grad=const != 1)
        y = op(a, b)
        grads = y._rec.vjp(np.ones(y.shape, np.float32))
        assert grads[const] is None
        assert grads[1 - const].shape == (b_shape, a_shape)[const]


def frozen_case(op):
    """A layer op over its operands, and float32 arrays for them: linear's
    x, w and b; the conv's w, bias and scale; the attention's w_theta,
    w_phi, w_g and scale."""
    if op == "linear":
        return lambda x, w, b: mlp(x, [w], [b], "relu"), linear_inputs(17)
    if op == "conv1d_dilated":
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(8, 3)).astype(np.float32))
        arrays = [rng.normal(size=(3, 3, 2)), rng.normal(size=2), rng.uniform(size=(8, 1))]
        return lambda w, b, s: conv1d_dilated(x, w, 2, 2, bias=b, scale=s), [a.astype(np.float32) for a in arrays]
    x, *arrays = nonlocal_inputs(18, 2)
    return lambda *t: nonlocal_attention(Tensor(x), *t[:3], 2, scale=t[3]), arrays


class TestFrozenOperands:
    """The layer ops' vjps return every weight's gradient, and `backward`
    drops those of the operands that need none: whatever subset is frozen,
    exactly the frozen tensors end with ``.grad`` None, and every other
    gradient has the bytes it gets when nothing is frozen."""

    @pytest.mark.parametrize("dead_rows", [False, True])
    @pytest.mark.parametrize("op", ["linear", "conv1d_dilated", "nonlocal_attention"])
    def test_frozen_operands_get_no_gradient(self, op, dead_rows, monkeypatch):
        if dead_rows:
            # every size takes the live-row path
            monkeypatch.setattr(ag, "_LIVE_ROWS_MIN_SIZE", 0)
        build, arrays = frozen_case(op)
        with ag.no_grad():
            shape = build(*[Tensor(a) for a in arrays]).shape
        upstream = np.random.default_rng(19).normal(size=shape).astype(np.float32)
        if dead_rows:
            upstream[1::2] = 0.0

        def grads(frozen):
            leaves = [Tensor(a, requires_grad=not f) for a, f in zip(arrays, frozen)]
            backward(inject(build(*leaves), upstream))
            return [t.grad for t in leaves]

        want = grads((False,) * len(arrays))
        for frozen in itertools.product((False, True), repeat=len(arrays)):
            if all(frozen):
                continue  # nothing to differentiate: the output is a constant
            for i, (g, w) in enumerate(zip(grads(frozen), want)):
                if frozen[i]:
                    assert g is None, (frozen, i)
                else:
                    assert g.tobytes() == w.tobytes(), (frozen, i)


class TestVjpsLeaveTheirGradientAlone:
    """No vjp writes into the gradient it receives: `backward` hands an
    interior tensor's gradient on without copying it."""

    def test_read_only_wrapper_catches_a_write(self):
        def doubling(g):
            g *= 2.0
            return (g,)

        with read_only_gradients():
            x = Tensor([1.0], requires_grad=True)
            y = ag.custom_op("doubling", (x * 1.0).data, (x,), doubling)
        with pytest.raises(ValueError, match="read-only"):
            backward(y.sum())

    def test_gradient_sweep_with_read_only_gradients(self):
        with read_only_gradients():
            assert run_gradient_sweep(instances=4) < 1e-3


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            mask = (np.random.default_rng(5).random((6, 2)) >= 0.5).astype(np.float32) / (1.0 - 0.5)
            h = matmul(x, w).relu() * Tensor(mask)
            loss = l2_norm(h)
            backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestPinMallocThresholds:
    """The helper runs against stand-ins for ``ctypes.CDLL(None)``."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Opens the stand-in queued next; returns (queue, names opened)."""
        queue, names = [], []
        monkeypatch.setattr(ag, "_MALLOC_PINNED", False)
        monkeypatch.setattr(ag.ctypes, "CDLL", lambda name: names.append(name) or queue.pop(0))
        return queue, names

    @staticmethod
    def libc(calls: list, glibc: bool = True) -> types.SimpleNamespace:
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        lib = types.SimpleNamespace(mallopt=mallopt)
        if glibc:
            lib.gnu_get_libc_version = lambda: b"2.36"
        return lib

    def test_sets_both_thresholds_once_per_process(self, opened):
        queue, names = opened
        calls = []
        queue.append(self.libc(calls))
        ag.pin_malloc_thresholds()
        ag.pin_malloc_thresholds()
        assert names == [None]
        # M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at 64 MiB
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_without_mallopt_does_nothing(self, opened):
        queue, names = opened
        queue.append(types.SimpleNamespace())
        ag.pin_malloc_thresholds()
        ag.pin_malloc_thresholds()
        assert names == [None]

    def test_leaves_another_libcs_mallopt_alone(self, opened):
        # its parameter numbers need not be glibc's
        queue, _ = opened
        calls = []
        queue.append(self.libc(calls, glibc=False))
        ag.pin_malloc_thresholds()
        assert calls == []


class TestGradientSoundnessSweep:
    """Per-op analytic-vs-numeric agreement over many random instances."""

    def test_sweep(self):
        worst = run_gradient_sweep(instances=40)
        assert worst < 1e-3


def run_gradient_sweep(instances: int, seed: int = 1234) -> float:
    """Shared with the acceptance suite: random small instances per op."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        worst = max(worst, check_grads(
            lambda ta, tb: matmul(ta, tb).sum(),
            lambda xa, xb: float((xa @ xb).sum()), [a, b]))

        x = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2, 2))
        sc = rng.uniform(0.2, 1.5, size=(4, 1))
        worst = max(worst, check_grads(
            lambda tw, ts: l2_norm(conv1d_dilated(Tensor(x), tw, 2, scale=ts)),
            lambda xw, xs: float(np.linalg.norm(ref_conv1d_dilated(xs * x, xw, 2))), [w, sc]))

        u = rng.normal(size=(5,))
        v = rng.normal(size=(5,))
        worst = max(worst, check_grads(
            lambda tu, tv: (tu * tv + tu * 0.5).sigmoid().sum(),
            lambda xu, xv: float(ref_sigmoid(xu * xv + xu * 0.5).sum()), [u, v]))

        # keep relu inputs away from the kink
        r = rng.normal(size=(6,))
        r = np.where(np.abs(r) < 0.05, 0.5, r)
        worst = max(worst, check_grads(
            lambda tr: (tr.relu() * tr.relu()).mean(),
            lambda xr: float(np.mean(np.maximum(xr, 0.0) ** 2)), [r]))

        p = rng.uniform(0.1, 0.9, size=(4,))
        worst = max(worst, check_grads(
            lambda tp: -(tp.clip(1e-6, 1 - 1e-6).log()).sum(),
            lambda xp: float(-np.log(xp).sum()), [p]))

        s = rng.normal(size=(3, 5))
        c = rng.normal(size=(5,))
        worst = max(worst, check_grads(
            lambda ts, tc: (softmax(ts) * (Tensor(np.ones((3, 1))) @ tc.reshape(1, 5))).sum(),
            lambda xs, xc: float((ref_softmax(xs) * xc).sum()), [s, c]))

        g = rng.normal(size=(5, 3))
        worst = max(worst, check_grads(
            lambda tg: l2_norm(gather_rows(tg, np.array([1, 1, 4])).mean(axis=0)),
            lambda xg: float(np.linalg.norm(xg[[1, 1, 4]].mean(axis=0))), [g]))
    return worst
