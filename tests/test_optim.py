"""Optimizer behavior against hand-rolled references."""

import numpy as np
import pytest

from wsvad.autograd import ShapeError, Tensor
from wsvad.optim import ADAM_BLOCK, Adam

from helpers import PerParameterAdam


def hand_adam_step(p, g, lr, b1, b2, eps, wd, m, v, t):
    """Independent single-step reference, float64 throughout."""
    g = g + wd * p
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    return p - lr * mhat / (np.sqrt(vhat) + eps), m, v


def test_zero_grad_zero_decay_is_fixed_point():
    p = Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(2, dtype=np.float32)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_single_step_matches_hand_reference():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.001)
    p.grad = np.array([1.0], dtype=np.float32)
    opt.step()
    expected, _, _ = hand_adam_step(
        np.array([1.0]), np.array([1.0]), 0.001, 0.9, 0.999, 1e-8, 0.0,
        np.zeros(1), np.zeros(1), 1,
    )
    # first step moves by ~lr/(1+eps); storage is float32
    assert abs(float(p.data[0]) - float(expected[0])) < 5e-7
    assert abs(float(expected[0]) - (1.0 - 0.001)) < 1e-8


def test_two_steps_match_hand_reference_with_decay():
    rng = np.random.default_rng(0)
    init = rng.normal(size=5).astype(np.float32)
    p = Tensor(init, requires_grad=True)
    opt = Adam({"p": p}, lr=0.01, weight_decay=0.005)
    ref_p = init.astype(np.float64)
    m = np.zeros(5)
    v = np.zeros(5)
    for t in (1, 2):
        g = rng.normal(size=5).astype(np.float32)
        p.grad = g
        opt.step()
        ref_p, m, v = hand_adam_step(ref_p, g.astype(np.float64), 0.01, 0.9, 0.999, 1e-8, 0.005, m, v, t)
    np.testing.assert_allclose(p.data, ref_p, rtol=1e-5, atol=1e-7)


def test_constant_positive_gradient_decreases_monotonically():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.001)
    values = [float(p.data[0])]
    for _ in range(2):
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        values.append(float(p.data[0]))
    assert values[0] > values[1] > values[2]


def test_step_counter_increments():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"p": p})
    for expected in (1, 2, 3):
        p.grad = np.array([0.5], dtype=np.float32)
        opt.step()
        assert opt.step_count == expected


def test_shape_drift_rejected():
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = Adam({"p": p})
    p.grad = np.zeros(3, dtype=np.float32)
    with pytest.raises(ShapeError):
        opt.step()


def test_params_without_grad_are_skipped():
    p = Tensor([1.0], requires_grad=True)
    q = Tensor([2.0], requires_grad=True)
    opt = Adam({"p": p, "q": q}, lr=0.1, weight_decay=0.01)
    p.grad = np.array([1.0], dtype=np.float32)
    opt.step()
    assert float(q.data[0]) == 2.0


def textbook_adam(params, grads, moments, t, lr, b1, b2, eps, wd):
    """One Adam step as plain array expressions in the storage dtype, each
    making a fresh array; the in-place optimizer must match it bit for bit."""
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g is None:
            out[name] = p
            continue
        if wd:
            g = g + wd * p
        m, v = moments[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * np.square(g)
        moments[name] = (m, v)
        update = (lr / (1.0 - b1**t)) * m / (np.sqrt(v / (1.0 - b2**t)) + eps)
        out[name] = p - update.astype(p.dtype)
    return out


@pytest.mark.parametrize("wd", [0.0, 0.005])
def test_in_place_steps_match_the_textbook_bits(wd):
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 3), "b": (3,), "k": (3, 4, 2), "idle": (5,)}
    params = {k: Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for k, s in shapes.items()}
    opt = Adam(params, lr=0.01, weight_decay=wd)
    ref = {k: p.data.copy() for k, p in params.items()}
    moments = {k: (np.zeros_like(a), np.zeros_like(a)) for k, a in ref.items()}
    for t in range(1, 6):
        grads = {k: None if k == "idle" else rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        for k, p in params.items():
            p.grad = None if grads[k] is None else grads[k].copy()
        opt.step()
        ref = textbook_adam(ref, grads, moments, t, 0.01, 0.9, 0.999, 1e-8, wd)
        for k, p in params.items():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == ref[k].tobytes(), (k, t)
            if grads[k] is not None:
                # the gradient is read, never written
                assert p.grad.tobytes() == grads[k].tobytes()


def test_read_only_parameter_gets_a_private_copy():
    frozen = np.array([1.0, -2.0], dtype=np.float32)
    frozen.flags.writeable = False
    p = Tensor(frozen, requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([1.0, 1.0], dtype=np.float32)
    opt.step()
    assert frozen.tolist() == [1.0, -2.0]
    assert p.data is not frozen and p.data.flags.writeable
    assert np.all(p.data < frozen)


@pytest.mark.parametrize("wd", [0.0, 0.005])
def test_packed_blocks_match_the_per_parameter_steps(wd):
    """Parameters packed into blocks and a large one stepped in chunks get
    the bits of Adam stepped parameter by parameter. The table holds a
    parameter of more than two blocks, small ones packed together, one that
    would straddle a block boundary if packed where the last one ends, one
    that has no gradient for the first steps (its moments stay untouched
    until it has one), a read-only one and a strided view."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(9, 2 * 5000)).astype(np.float32)
    shapes = {
        "big": (2 * ADAM_BLOCK + 77,),
        "w": (40, 30),
        "b": (30,),
        "straddle": (ADAM_BLOCK - 1000,),
        "late": (3, 5),
        "frozen": (7,),
        "tail": (1,),
    }

    def fresh():
        arrays = {k: rng_arrays[k].copy() for k in shapes}
        arrays["frozen"].flags.writeable = False
        params = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        params["strided"] = Tensor(base.copy()[:, :5000], requires_grad=True)
        return params

    rng_arrays = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
    params, ref_params = fresh(), fresh()
    assert not params["strided"].data.flags.c_contiguous
    strided_base, frozen = params["strided"].data.base, params["frozen"].data
    opt = Adam(params, lr=0.01, weight_decay=wd)
    ref = PerParameterAdam(ref_params, lr=0.01, weight_decay=wd)
    for step in range(1, 5):
        for name, p in params.items():
            g = None if name == "late" and step < 3 else rng.normal(size=p.shape).astype(np.float32)
            p.grad, ref_params[name].grad = g, g
        opt.step()
        ref.step()
        for name, p in params.items():
            assert p.data.tobytes() == ref_params[name].data.tobytes(), (name, step)
    # the strided view was written through, and the read-only array was not
    assert strided_base[:, :5000].tobytes() == ref_params["strided"].data.tobytes()
    assert frozen.tobytes() == rng_arrays["frozen"].tobytes() and params["frozen"].data is not frozen


def test_a_parameter_without_a_gradient_keeps_its_moments():
    p, q, r = (Tensor(np.ones(n, np.float32), requires_grad=True) for n in (3, 4, 5))
    opt = Adam({"p": p, "q": q, "r": r}, lr=0.1)
    for t in (p, r):
        t.grad = np.ones(t.shape, np.float32)
    opt.step()
    assert q.data.tolist() == [1.0] * 4
    assert not opt._m[3:7].any() and not opt._v[3:7].any()
    assert opt._m[:3].all() and opt._m[7:].all()


def test_a_zero_size_parameter_first_in_the_table_is_skipped():
    """A zero-size parameter takes no block, even first in the table, where
    there is no block yet to pack it into; the rest step as they do alone."""
    rng = np.random.default_rng(12)
    arrays = {"empty": np.zeros((0, 4), np.float32), "w": rng.normal(size=(3, 4)).astype(np.float32)}
    params, ref_params = ({k: Tensor(a.copy(), requires_grad=True) for k, a in arrays.items()} for _ in range(2))
    opt = Adam(params, lr=0.01, weight_decay=0.005)
    ref = PerParameterAdam(ref_params, lr=0.01, weight_decay=0.005)
    for _ in range(3):
        for name, p in params.items():
            p.grad = ref_params[name].grad = rng.normal(size=p.shape).astype(np.float32)
        opt.step()
        ref.step()
        assert params["w"].data.tobytes() == ref_params["w"].data.tobytes()
    assert params["empty"].shape == (0, 4) and opt.step_count == 3


def test_an_empty_table_steps_nothing():
    opt = Adam({}, lr=0.01)
    opt.step()
    opt.zero_grad()
    assert opt.step_count == 1 and opt._m.size == 0 and opt._v.size == 0
