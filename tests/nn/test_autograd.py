"""Gradient checks for the autograd engine against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad

RNG = np.random.default_rng(7)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_grad(build, shape, atol=1e-6, rtol=1e-4):
    """Compare autograd gradient of ``build(Tensor)`` with finite differences."""
    x = RNG.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    expected = numeric_grad(lambda arr: build(Tensor(arr)).item(), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=rtol)


class TestElementwiseOps:
    def test_add(self):
        check_grad(lambda t: (t + 3.0).sum(), (4, 3))

    def test_add_broadcast(self):
        b = Tensor(RNG.standard_normal(3))
        check_grad(lambda t: (t + b).sum(), (4, 3))

    def test_broadcast_grad_flows_to_small_operand(self):
        big = Tensor(RNG.standard_normal((5, 3)))
        small = Tensor(RNG.standard_normal(3), requires_grad=True)
        ((big * small).sum()).backward()
        np.testing.assert_allclose(small.grad, big.numpy().sum(axis=0))

    def test_sub(self):
        check_grad(lambda t: (t - 2.0 * t).sum(), (5,))

    def test_rsub(self):
        check_grad(lambda t: (1.0 - t).sum(), (5,))

    def test_mul(self):
        other = Tensor(RNG.standard_normal((4, 3)))
        check_grad(lambda t: (t * other).sum(), (4, 3))

    def test_mul_self(self):
        check_grad(lambda t: (t * t).sum(), (3, 2))

    def test_div(self):
        other = Tensor(RNG.standard_normal((4,)) + 3.0)
        check_grad(lambda t: (t / other).sum(), (4,))

    def test_div_denominator(self):
        numer = Tensor(RNG.standard_normal(4))
        check_grad(lambda t: (numer / (t + 5.0)).sum(), (4,))

    def test_pow(self):
        check_grad(lambda t: (t**3).sum(), (4,))

    def test_neg(self):
        check_grad(lambda t: (-t).sum(), (3, 3))


class TestMatmul:
    def test_matmul_2d(self):
        other = Tensor(RNG.standard_normal((3, 5)))
        check_grad(lambda t: (t @ other).sum(), (4, 3))

    def test_matmul_right_operand(self):
        left = RNG.standard_normal((4, 3))
        x = RNG.standard_normal((3, 5))
        t = Tensor(x.copy(), requires_grad=True)
        (Tensor(left) @ t).sum().backward()
        expected = numeric_grad(lambda arr: (Tensor(left) @ Tensor(arr)).sum().item(), x.copy())
        np.testing.assert_allclose(t.grad, expected, atol=1e-6, rtol=1e-4)

    def test_matvec(self):
        vec = Tensor(RNG.standard_normal(3))
        check_grad(lambda t: (t @ vec).sum(), (4, 3))

    def test_vecmat(self):
        mat = Tensor(RNG.standard_normal((3, 4)))
        check_grad(lambda t: (t @ mat).sum(), (3,))


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["sigmoid", "tanh", "relu", "exp"])
    def test_unary(self, op):
        check_grad(lambda t: getattr(t, op)().sum(), (4, 3))

    def test_log(self):
        x = RNG.random((4, 3)) + 0.5
        t = Tensor(x.copy(), requires_grad=True)
        t.log().sum().backward()
        np.testing.assert_allclose(t.grad, 1.0 / x, rtol=1e-6)


class TestReductions:
    def test_sum_all(self):
        check_grad(lambda t: t.sum(), (4, 3))

    def test_sum_axis(self):
        check_grad(lambda t: (t.sum(axis=1) ** 2).sum(), (4, 3))

    def test_sum_keepdims(self):
        check_grad(lambda t: (t.sum(axis=0, keepdims=True) ** 2).sum(), (4, 3))

    def test_mean(self):
        check_grad(lambda t: (t.mean(axis=1) ** 2).sum(), (4, 3))

    def test_mean_all(self):
        check_grad(lambda t: t.mean() * 10.0, (5, 2))


class TestStructural:
    def test_concat(self):
        other = Tensor(RNG.standard_normal((4, 2)))
        check_grad(lambda t: ((Tensor.concat([t, other], axis=1)) ** 2).sum(), (4, 3))

    def test_concat_grad_to_both(self):
        a = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
        b = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        Tensor.concat([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_stack(self):
        a = Tensor(RNG.standard_normal(3), requires_grad=True)
        b = Tensor(RNG.standard_normal(3), requires_grad=True)
        (Tensor.stack([a, b], axis=0) ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.numpy())
        np.testing.assert_allclose(b.grad, 2 * b.numpy())

    def test_getitem_slice(self):
        check_grad(lambda t: (t[:, 1:] ** 2).sum(), (4, 3))

    def test_getitem_duplicate_indices_accumulate(self):
        t = Tensor(RNG.standard_normal(4), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_reshape(self):
        check_grad(lambda t: (t.reshape(6) ** 2).sum(), (2, 3))

    def test_transpose(self):
        other = Tensor(RNG.standard_normal((4, 3)))
        check_grad(lambda t: (t.T * other).sum(), (3, 4))


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x shares x along two paths
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        a = x * x
        b = x * 3.0
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.numpy() + 3.0)

    def test_reused_intermediate(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        h = x * 2.0
        y = h * h + h
        y.sum().backward()
        # dy/dx = (2h + 1) * 2 = (2*3+1)*2 = 14
        np.testing.assert_allclose(x.grad, [14.0])

    def test_backward_twice_accumulates(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        y = x * 2.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores(self):
        with no_grad():
            pass
        x = Tensor(np.array([1.0]), requires_grad=True)
        assert (x * 2.0).requires_grad

    def test_backward_requires_grad(self):
        x = Tensor(np.array([1.0]))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()
        y.backward(np.ones(3))
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])

    def test_backward_grad_shape_mismatch(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 1.0).backward(np.ones(4))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_chain_gradcheck(rows, cols, seed):
    """Random (shape, seed) combos: composite expression matches numeric grad."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    w = rng.standard_normal((cols, 3))

    def build(t):
        return ((t @ Tensor(w)).tanh() * 2.0 + 1.0).sigmoid().sum()

    t = Tensor(x.copy(), requires_grad=True)
    build(t).backward()
    expected = numeric_grad(lambda arr: build(Tensor(arr)).item(), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=1e-5, rtol=1e-3)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_linearity_of_grad(seed):
    """grad of (a*f + b*g) equals a*grad(f) + b*grad(g)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(6)

    def grad_of(fn):
        t = Tensor(x.copy(), requires_grad=True)
        fn(t).backward()
        return t.grad

    g1 = grad_of(lambda t: (t**2).sum())
    g2 = grad_of(lambda t: t.tanh().sum())
    combined = grad_of(lambda t: (t**2).sum() * 2.0 + t.tanh().sum() * 3.0)
    np.testing.assert_allclose(combined, 2.0 * g1 + 3.0 * g2, atol=1e-10)
