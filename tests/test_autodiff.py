"""Reverse-mode autodiff against finite differences and hand arithmetic."""

import numpy as np
import pytest

from munmt import tensor as T
from munmt.errors import NumericError

from fdutil import REL_TOL, check_grads

RNG = np.random.default_rng(20260819)


def randu(*shape):
    return RNG.uniform(-2.0, 2.0, size=shape)


def test_square_gradient_hand_value():
    # d(x*x)/dx at 3 is exactly 6
    x = T.parameter(np.asarray(3.0), "x")
    loss = T.mul(x, x)
    g = T.backward(loss, {"x": x})
    assert g["x"] == pytest.approx(6.0, abs=0.0)


def test_softmax_sum_gradient_is_zero():
    # sum(softmax(x)) == 1 for all x, so the gradient vanishes identically
    x = T.parameter(randu(7), "x")
    loss = T.sum_all(T.softmax(x))
    g = T.backward(loss, {"x": x})
    assert np.max(np.abs(g["x"])) < 1e-12


def test_unreachable_param_gets_zeros():
    x = T.parameter(randu(3), "x")
    y = T.parameter(randu(4, 2), "y")
    loss = T.sum_all(T.mul(x, x))
    g = T.backward(loss, {"x": x, "y": y})
    assert g["y"].shape == (4, 2)
    assert np.all(g["y"] == 0.0)


def test_second_backward_replaces_the_first():
    # x*y reaches both leaves, x*x only x: the second call must leave y at
    # zero and x at exactly 2x, with nothing of the first call added on
    x = T.parameter(randu(3), "x")
    y = T.parameter(randu(3), "y")
    T.backward(T.sum_all(T.mul(x, y)), {"x": x, "y": y})
    assert np.all(y.grad != 0.0)
    g = T.backward(T.sum_all(T.mul(x, x)), {"x": x, "y": y})
    np.testing.assert_array_equal(g["x"], 2.0 * x.data)
    assert np.all(g["y"] == 0.0)


def test_loss_that_is_a_leaf_gets_gradient_one():
    x = T.parameter(np.asarray(2.5), "x")
    g = T.backward(x, {"x": x})
    assert g["x"] == 1.0 and g["x"] is x.grad


def test_negative_zero_gradient_keeps_its_sign():
    # the total is copied into the buffer, not added onto zeros: 0.0 + -0.0 is 0.0
    x = T.parameter(np.asarray(2.5), "x")
    g = T.backward(T.mul(x, T.constant(-0.0)), {"x": x})
    assert g["x"] == 0.0 and np.signbit(g["x"])


def test_non_scalar_loss_rejected():
    x = T.parameter(randu(3), "x")
    with pytest.raises(NumericError):
        T.backward(T.mul(x, x), {"x": x})


def test_cycle_guard():
    x = T.parameter(np.asarray(1.0), "x")
    y = T.mul(x, x)
    y.parents = (y, x)  # deliberately corrupt the graph
    with pytest.raises(NumericError):
        T.backward(y, {"x": x})


def test_no_grad_blocks_recording():
    x = T.parameter(randu(3), "x")
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert y.parents == ()


def test_float32_dtype_preserved():
    a = T.parameter(randu(3, 4).astype(np.float32), "a")
    b = T.parameter(randu(4, 2).astype(np.float32), "b")
    out = T.relu(T.matmul(a, b))
    assert out.dtype == np.float32


def _fd_case(name, build, leaves):
    worst = check_grads(build, leaves, RNG)
    assert worst <= REL_TOL, f"{name}: rel err {worst:.3g}"


@pytest.mark.parametrize("trial", range(10))
def test_add_sub_mul_broadcast_fd(trial):
    leaves = {"a": randu(3, 4), "b": randu(4), "c": randu(3, 1)}
    _fd_case(
        "addsubmul",
        lambda t: T.sum_all(T.mul(T.sub(T.add(t["a"], t["b"]), t["c"]), t["a"])),
        leaves,
    )


@pytest.mark.parametrize("trial", range(10))
def test_matmul_fd(trial):
    leaves = {"a": randu(2, 3, 4), "b": randu(4, 5)}
    _fd_case("matmul_batched", lambda t: T.sum_all(T.matmul(t["a"], t["b"])), leaves)
    leaves2 = {"a": randu(2, 3, 4), "b": randu(2, 4, 2)}
    w = T.constant(randu(2, 3, 2))
    _fd_case(
        "matmul_full",
        lambda t: T.sum_all(T.mul(T.matmul(t["a"], t["b"]), w)),
        leaves2,
    )


@pytest.mark.parametrize("trial", range(10))
def test_relu_fd(trial):
    x = randu(4, 5)
    x[np.abs(x) < 0.05] = 0.1  # keep away from the kink
    _fd_case("relu", lambda t: T.sum_all(T.mul(T.relu(t["x"]), t["x"])), {"x": x})


@pytest.mark.parametrize("trial", range(10))
def test_softmax_logsoftmax_fd(trial):
    w = T.constant(randu(3, 6))
    _fd_case("softmax", lambda t: T.sum_all(T.mul(T.softmax(t["x"]), w)), {"x": randu(3, 6)})
    _fd_case(
        "log_softmax",
        lambda t: T.sum_all(T.mul(T.log_softmax(t["x"]), w)),
        {"x": randu(3, 6)},
    )


@pytest.mark.parametrize("trial", range(10))
def test_layernorm_fd(trial):
    leaves = {"x": randu(2, 3, 8), "g": randu(8), "b": randu(8)}
    w = T.constant(randu(2, 3, 8))
    _fd_case(
        "layernorm",
        lambda t: T.sum_all(T.mul(T.layernorm(t["x"], t["g"], t["b"]), w)),
        leaves,
    )


@pytest.mark.parametrize("trial", range(10))
def test_embedding_fd_with_repeats(trial):
    ids = RNG.integers(0, 5, size=(3, 4))
    ids[0, 0] = ids[0, 1]  # force accumulation on a repeated row
    w = T.constant(randu(3, 4, 6))
    _fd_case(
        "embedding",
        lambda t: T.sum_all(T.mul(T.embedding(t["tab"], ids), w)),
        {"tab": randu(5, 6)},
    )


@pytest.mark.parametrize("trial", range(10))
def test_take_along_last_fd(trial):
    idx = RNG.integers(0, 6, size=(4, 3))
    idx[0, 0] = idx[0, 1]  # repeated gather within a row accumulates
    w = T.constant(randu(4, 3))
    _fd_case(
        "take_along_last",
        lambda t: T.sum_all(T.mul(T.take_along_last(t["x"], idx), w)),
        {"x": randu(4, 6)},
    )


@pytest.mark.parametrize("trial", range(10))
def test_reshape_transpose_scale_fd(trial):
    w = T.constant(randu(4, 2, 3))
    _fd_case(
        "reshape_transpose",
        lambda t: T.sum_all(
            T.mul(T.transpose(T.reshape(t["x"], (2, 3, 4)), (2, 0, 1)), w)
        ),
        {"x": randu(6, 4)},
    )
    _fd_case("scale", lambda t: T.scale(T.sum_all(t["x"]), -0.37), {"x": randu(5)})


@pytest.mark.parametrize("trial", range(5))
def test_small_network_composition_fd(trial):
    # two matmul+relu blocks with a layernorm, the shapes a real model uses
    leaves = {
        "w1": randu(6, 8) * 0.5,
        "b1": randu(8) * 0.1,
        "w2": randu(8, 4) * 0.5,
        "g": 1.0 + randu(8) * 0.1,
        "beta": randu(8) * 0.1,
    }
    x = T.constant(randu(3, 6))

    def build(t):
        h = T.relu(T.add(T.matmul(x, t["w1"]), t["b1"]))
        h = T.layernorm(h, t["g"], t["beta"])
        out = T.matmul(h, t["w2"])
        return T.sum_all(T.mul(out, out))

    _fd_case("network", build, leaves)


def test_gradient_accumulation_on_shared_input():
    # y = x*x + 3x uses x twice; grad = 2x + 3
    x = T.parameter(np.asarray(2.5), "x")
    loss = T.add(T.mul(x, x), T.scale(x, 3.0))
    g = T.backward(loss, {"x": x})
    assert g["x"] == pytest.approx(8.0, abs=1e-12)
