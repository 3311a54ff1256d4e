"""Engine ops: frozen hand values, gradient soundness, graph discipline."""

import tracemalloc
import warnings

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
    dropout,
    gather_rows,
    l2_norm,
    linear,
    matmul,
    nonlocal_attention,
    softmax,
)

from helpers import (
    check_grads,
    engine_grads,
    fd_grads,
    max_rel_err,
    read_only_gradients,
    ref_conv1d_dilated,
    ref_sigmoid,
    ref_softmax,
)


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
        rng = np.random.default_rng(2)
        for dilation in (1, 2):
            x = rng.normal(size=(5, 2))
            w = rng.normal(size=(3, 2, 2))
            check_grads(
                lambda tx, tw, d=dilation: conv1d_dilated(tx, tw, d).sum(),
                lambda xx, xw, d=dilation: float(ref_conv1d_dilated(xx, xw, d).sum()),
                [x, w],
            )

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("bags", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 2, 5])
    def test_stacked_bags_match_reference_per_bag(self, dilation, bags, t_len):
        # at dilation 4 a bag of 1 or 2 snippets is shorter than the padding,
        # so any tap that crossed a bag boundary would pick up a neighbour
        rng = np.random.default_rng(dilation * 100 + bags * 10 + t_len)
        x = rng.normal(size=(bags * t_len, 3))
        w = rng.normal(size=(3, 3, 2))
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
        check_grads(
            lambda tx, tw: l2_norm(conv1d_dilated(tx, tw, dilation, bags)),
            lambda xx, xw: float(np.linalg.norm(np.concatenate(
                [ref_conv1d_dilated(xx[b * t_len : (b + 1) * t_len], xw, dilation) for b in range(bags)]
            ))),
            [x, w],
        )

    def test_rows_must_split_into_bags(self):
        with pytest.raises(ShapeError, match="bags"):
            conv1d_dilated(Tensor(np.ones((5, 1))), Tensor(np.ones((3, 1, 1))), 1, 2)


class TestBatchedMatrixOps:
    def test_batched_matmul_matches_per_matrix_products(self):
        rng = np.random.default_rng(11)
        a, b, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2)), rng.normal(size=(5, 2))
        with ag.using_dtype(np.float64):
            np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, [a[i] @ b[i] for i in range(3)], atol=1e-12)
            np.testing.assert_allclose(matmul(Tensor(a), Tensor(w)).data, [a[i] @ w for i in range(3)], atol=1e-12)

    def test_batched_matmul_grads(self):
        rng = np.random.default_rng(12)
        a, b, w = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3)), rng.normal(size=(4, 2))
        check_grads(
            lambda ta, tb: l2_norm(matmul(ta, tb)),
            lambda xa, xb: float(np.linalg.norm(xa @ xb)),
            [a, b],
        )
        check_grads(
            lambda ta, tw: l2_norm(matmul(ta, tw)),
            lambda xa, xw: float(np.linalg.norm(xa @ xw)),
            [a, w],
        )

    def test_batched_transpose_grad(self):
        rng = np.random.default_rng(13)
        a, c = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))
        check_grads(
            lambda ta, tc: l2_norm(ta.T * tc),
            lambda xa, xc: float(np.linalg.norm(np.swapaxes(xa, 1, 2) * xc)),
            [a, c],
        )

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 1))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4, 1))))


# -- fused ops against the single-op chains they replace ------------------------


def unfused_linear(x, w, b, act):
    h = matmul(x, w) + b
    return h if act is None else getattr(h, act)()


def unfused_conv(x, w, dilation, bags, bias):
    return conv1d_dilated(x, w, dilation, bags) + bias


def unfused_nonlocal(x, w_theta, w_phi, w_g, bags):
    """The context module's attention branch as single ops."""
    rows = x.shape[0]
    x3 = x.reshape(bags, rows // bags, x.shape[1])
    attn = softmax(matmul(matmul(x3, w_theta), matmul(x3, w_phi).T), axis=-1)
    context = matmul(attn, matmul(x3, w_g))
    return context.reshape(rows, context.shape[2])


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
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(bags * t_len, d)).astype(np.float32)] + [
        (rng.normal(size=(d, c)) * 0.7).astype(np.float32) for _ in range(3)
    ]


class TestFusedOps:
    """`linear`, conv with bias and `nonlocal_attention` give the values and
    float32 gradients of the single-op chains they replace, bit for bit, and
    pass the float64 gradient check."""

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    @pytest.mark.parametrize("mask", grad_masks(3))
    def test_linear_same_bits_as_the_chain(self, act, mask):
        arrays = linear_inputs(1)
        arrays[0][0, :] = 0.0  # a row with pre-activation exactly the bias
        assert_same_bits(
            lambda x, w, b: linear(x, w, b, act), lambda x, w, b: unfused_linear(x, w, b, act), arrays, mask, "linear"
        )

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    def test_linear_gradcheck(self, act):
        check_grads(
            lambda x, w, b: l2_norm(linear(x, w, b, act)),
            lambda x, w, b: float(np.linalg.norm(ref_linear(x, w, b, act))),
            [a.astype(np.float64) for a in linear_inputs(2)],
        )

    @pytest.mark.parametrize("bags", [1, 3])
    @pytest.mark.parametrize("mask", grad_masks(3))
    def test_conv_with_bias_same_bits_as_the_chain(self, bags, mask):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=(bags * 4, 3)).astype(np.float32), rng.normal(size=(3, 3, 2)).astype(np.float32),
                  rng.normal(size=2).astype(np.float32)]
        assert_same_bits(
            lambda x, w, b: conv1d_dilated(x, w, 2, bags, bias=b),
            lambda x, w, b: unfused_conv(x, w, 2, bags, b),
            arrays, mask, "conv1d_dilated",
        )

    def test_conv_with_bias_gradcheck(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(6, 2)), rng.normal(size=(3, 2, 3)), rng.normal(size=3)
        check_grads(
            lambda tx, tw, tb: l2_norm(conv1d_dilated(tx, tw, 2, 2, bias=tb)),
            lambda xx, xw, xb: float(np.linalg.norm(np.concatenate(
                [ref_conv1d_dilated(xx[i * 3 : (i + 1) * 3], xw, 2) for i in range(2)]) + xb)),
            [x, w, b],
        )

    def test_conv_bias_shape_checked(self):
        with pytest.raises(ShapeError, match="bias"):
            conv1d_dilated(Tensor(np.ones((4, 1))), Tensor(np.ones((3, 1, 2))), 1, bias=Tensor(np.ones(3)))

    @pytest.mark.parametrize("bags", [1, 3])
    @pytest.mark.parametrize("mask", grad_masks(4))
    def test_nonlocal_same_bits_as_the_chain(self, bags, mask):
        arrays = nonlocal_inputs(5, bags)
        assert_same_bits(
            lambda *t: nonlocal_attention(*t, bags), lambda *t: unfused_nonlocal(*t, bags), arrays, mask,
            "nonlocal_attention",
        )

    @pytest.mark.parametrize("bags", [1, 2])
    def test_nonlocal_gradcheck(self, bags):
        check_grads(
            lambda *t: l2_norm(nonlocal_attention(*t, bags)),
            lambda *a: float(np.linalg.norm(ref_nonlocal(*a, bags))),
            [a.astype(np.float64) for a in nonlocal_inputs(6, bags, t_len=3, d=4, c=2)],
        )

    def test_nonlocal_keeps_bags_apart(self):
        x, wt, wp, wg = nonlocal_inputs(7, 3)
        with ag.using_dtype(np.float64):
            got = nonlocal_attention(Tensor(x), Tensor(wt), Tensor(wp), Tensor(wg), 3).data
        want = np.concatenate([ref_nonlocal(x[i * 5 : (i + 1) * 5].astype(np.float64), wt, wp, wg, 1) for i in range(3)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_unneeded_products_skipped(self):
        arrays = nonlocal_inputs(8, 2)
        for mask in grad_masks(4)[1:]:
            y = nonlocal_attention(*[Tensor(a, requires_grad=r) for a, r in zip(arrays, mask)], 2)
            grads = y._rec.vjp(np.ones(y.shape, np.float32))
            assert [g is None for g in grads] == [not r for r in mask]
        for mask in grad_masks(3)[1:]:
            y = linear(*[Tensor(a, requires_grad=r) for a, r in zip(linear_inputs(9), mask)], "relu")
            grads = y._rec.vjp(np.ones(y.shape, np.float32))
            assert [g is None for g in grads] == [not r for r in mask]

    def test_shapes_and_activation_checked(self):
        x, w, b = (Tensor(a) for a in linear_inputs(10))
        with pytest.raises(ShapeError):
            linear(x, w, Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            linear(x, w.T, b)
        with pytest.raises(ValueError, match="tanh"):
            linear(x, w, b, "tanh")
        with pytest.raises(ShapeError, match="bags"):
            nonlocal_attention(*(Tensor(a) for a in nonlocal_inputs(11, 1)), 2)
        with pytest.raises(ShapeError, match="disagree"):
            nonlocal_attention(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))


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

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.arange(8.0))
        assert dropout(x, 0.5, train=False, rng=None) is x

    def test_dropout_train_masks_and_rescales(self):
        x = Tensor(np.ones((100, 10)))
        out = dropout(x, 0.7, train=True, rng=np.random.default_rng(0))
        values = set(np.unique(out.data).tolist())
        assert values <= {0.0, np.float32(1.0 / 0.3)}
        assert 0.2 < np.mean(out.data == 0.0) < 0.95

    def test_dropout_bad_p(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, train=True, rng=np.random.default_rng(0))


class TestBackward:
    def test_scalar_leaf(self):
        x = Tensor(2.0, requires_grad=True)
        backward(x)
        assert x.grad == 1.0

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

    def test_concat_grad_slices(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        backward((out * 2.0).sum())
        assert np.all(a.grad == 2.0) and np.all(b.grad == 2.0)

    def test_transpose_and_reshape_grads(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4))
        check_grads(
            lambda tx: l2_norm(tx.T.reshape(12)),
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
    "linear": lambda t: linear(t, Tensor(np.eye(3)), Tensor(np.zeros(3)), "relu"),
    "reshape": lambda t: t.reshape(3, 2),
    "transpose": lambda t: t.T,
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
    "transpose": lambda t: t.T,
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
            linear(Tensor([[BIG, BIG]]), w, Tensor([0.0]), act)

    def test_linear_bias_overflow_rejected(self):
        with pytest.raises(NumericsError, match="'linear'"), np.errstate(over="ignore"):
            linear(Tensor([[BIG]]), Tensor([[1.0]]), Tensor([BIG]), "relu")

    @pytest.mark.parametrize("operand", [0, 1, 2])
    def test_linear_gradient_overflow_rejected(self, operand):
        """x's and w's gradients are products and b's sums the rows; each
        overflows on its own here."""
        arrays = [np.full((2, 2), 4.0, np.float32), np.full((2, 1), 4.0, np.float32), np.zeros(1, np.float32)]
        leaves = [Tensor(a, requires_grad=i == operand) for i, a in enumerate(arrays)]
        y = linear(*leaves)
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
        x = Tensor([[1.0], [2.0]])
        w_g = Tensor([[1.0]], requires_grad=True)
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
    """A vjp returns None for an operand that needs no gradient."""

    @pytest.mark.parametrize("const", [0, 1])
    @pytest.mark.parametrize(
        "op, a_shape, b_shape",
        [
            pytest.param(matmul, (2, 3), (3, 4), id="matmul"),
            pytest.param(matmul, (2, 2, 3), (2, 3, 4), id="batched_matmul"),
            pytest.param(matmul, (2, 2, 3), (3, 4), id="shared_matmul"),
            pytest.param(lambda x, w: conv1d_dilated(x, w, 2), (4, 2), (3, 2, 2), id="conv1d_dilated"),
            pytest.param(lambda a, b: a * b, (2, 3), (2, 3), id="mul"),
        ],
    )
    def test_product_skipped(self, op, a_shape, b_shape, const):
        a = Tensor(np.ones(a_shape), requires_grad=const != 0)
        b = Tensor(np.ones(b_shape), requires_grad=const != 1)
        y = op(a, b)
        grads = y._rec.vjp(np.ones(y.shape, np.float32))
        assert grads[const] is None
        assert grads[1 - const].shape == (b_shape, a_shape)[const]


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
            h = dropout(matmul(x, w).relu(), 0.5, train=True, rng=np.random.default_rng(5))
            loss = l2_norm(h)
            backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


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
        worst = max(worst, check_grads(
            lambda tx, tw: l2_norm(conv1d_dilated(tx, tw, 2)),
            lambda xx, xw: float(np.linalg.norm(ref_conv1d_dilated(xx, xw, 2))), [x, w]))

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
