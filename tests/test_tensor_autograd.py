"""Autograd engine tests: every op's gradient against finite differences,
plus structural behaviours (broadcasting, tape, no_grad)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, no_grad, is_grad_enabled


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued ``fn`` w.r.t. ``x``."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(op, x: np.ndarray, atol: float = 1e-6) -> None:
    """Compare autograd gradient of ``sum(op(x))`` to finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()
    num = numeric_grad(lambda a: float(op(Tensor(a)).sum().data), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(42)


class TestElementwiseGradients:
    def test_add(self):
        check_grad(lambda t: t + 3.0, RNG.normal(size=(3, 4)))

    def test_sub(self):
        check_grad(lambda t: 5.0 - t, RNG.normal(size=(3, 4)))

    def test_mul(self):
        check_grad(lambda t: t * t, RNG.normal(size=(3, 4)))

    def test_div(self):
        check_grad(lambda t: 1.0 / (t * t + 2.0), RNG.normal(size=(3, 4)))

    def test_neg(self):
        check_grad(lambda t: -t, RNG.normal(size=(2, 5)))

    def test_pow(self):
        check_grad(lambda t: t ** 3, RNG.normal(size=(3, 3)))

    def test_exp(self):
        check_grad(lambda t: t.exp(), RNG.normal(size=(3, 4)))

    def test_log(self):
        check_grad(lambda t: t.log(), RNG.uniform(0.5, 2.0, size=(3, 4)))

    def test_tanh(self):
        check_grad(lambda t: t.tanh(), RNG.normal(size=(3, 4)))

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid(), RNG.normal(size=(3, 4)))

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-800.0, 800.0]), requires_grad=True)
        out = t.sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_relu(self):
        x = RNG.normal(size=(3, 4))
        x[np.abs(x) < 0.1] += 0.5  # avoid the kink
        check_grad(lambda t: t.relu(), x)

    def test_leaky_relu(self):
        x = RNG.normal(size=(3, 4))
        x[np.abs(x) < 0.1] += 0.5
        check_grad(lambda t: t.leaky_relu(0.2), x)

    def test_sqrt(self):
        check_grad(lambda t: t.sqrt(), RNG.uniform(0.5, 2.0, size=(4,)))

    def test_abs(self):
        x = RNG.normal(size=(3, 4))
        x[np.abs(x) < 0.1] += 0.5
        check_grad(lambda t: t.abs(), x)

    def test_clip(self):
        x = RNG.normal(size=(4, 4)) * 2
        x[np.abs(np.abs(x) - 1.0) < 0.1] *= 1.5  # away from clip edges
        check_grad(lambda t: t.clip(-1.0, 1.0), x)


class TestMatmulGradients:
    def test_matmul_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 5)) @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 5)))

    def test_matmul_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        g = np.ones((2, 3, 5))
        np.testing.assert_allclose(ta.grad, g @ np.swapaxes(b, -1, -2))
        np.testing.assert_allclose(tb.grad, np.swapaxes(a, -1, -2) @ g)

    def test_matmul_broadcast_batch(self):
        # (2, 3, 4) @ (4, 5): the rhs broadcasts over the batch dim.
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        assert ta.grad.shape == a.shape
        assert tb.grad.shape == b.shape
        g = np.ones((2, 3, 5))
        np.testing.assert_allclose(tb.grad,
                                   np.einsum("bij,bik->jk", a, g))

    def test_matmul_vector(self):
        a = RNG.normal(size=(3, 4))
        v = RNG.normal(size=(4,))
        ta = Tensor(a, requires_grad=True)
        tv = Tensor(v, requires_grad=True)
        (ta @ tv).sum().backward()
        np.testing.assert_allclose(ta.grad, np.outer(np.ones(3), v))
        np.testing.assert_allclose(tv.grad, a.T @ np.ones(3))


class TestReductionGradients:
    def test_sum_all(self):
        check_grad(lambda t: t.sum(), RNG.normal(size=(3, 4)))

    def test_sum_axis(self):
        check_grad(lambda t: t.sum(axis=0), RNG.normal(size=(3, 4)))
        check_grad(lambda t: t.sum(axis=1, keepdims=True),
                   RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_grad(lambda t: t.mean(), RNG.normal(size=(3, 4)))
        check_grad(lambda t: t.mean(axis=-1), RNG.normal(size=(2, 3, 4)))

    def test_max(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: t.max(), x)
        check_grad(lambda t: t.max(axis=1), x)

    def test_max_ties_split_gradient(self):
        t = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])

    def test_var(self):
        check_grad(lambda t: t.var(axis=-1), RNG.normal(size=(3, 5)))


class TestShapeGradients:
    def test_reshape(self):
        check_grad(lambda t: (t.reshape(6, 2) ** 2), RNG.normal(size=(3, 4)))

    def test_transpose(self):
        check_grad(lambda t: t.transpose(1, 0) * 2.0, RNG.normal(size=(3, 4)))
        check_grad(lambda t: t.transpose(2, 0, 1).exp(),
                   RNG.normal(size=(2, 3, 4)))

    def test_swapaxes(self):
        check_grad(lambda t: t.swapaxes(0, 2).tanh(),
                   RNG.normal(size=(2, 3, 4)))

    def test_getitem_rows(self):
        x = RNG.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 4])
        t = Tensor(x, requires_grad=True)
        t[idx].sum().backward()
        expected = np.zeros((5, 3))
        np.add.at(expected, idx, 1.0)
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_slice(self):
        check_grad(lambda t: t[1:3] * 3.0, RNG.normal(size=(5, 3)))

    def test_concat(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(4, 3))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        Tensor.concat([ta, tb], axis=0).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((2, 3)))
        np.testing.assert_allclose(tb.grad, np.ones((4, 3)))

    def test_stack(self):
        a = RNG.normal(size=(3,))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(a * 2, requires_grad=True)
        out = Tensor.stack([ta, tb], axis=0)
        assert out.shape == (2, 3)
        (out * 2).sum().backward()
        np.testing.assert_allclose(ta.grad, 2 * np.ones(3))

    def test_scatter_add_forward(self):
        vals = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = Tensor.scatter_add(vals, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[2.0, 4.0], [4.0, 5.0]])

    def test_scatter_add_backward(self):
        vals = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        idx = np.array([1, 0, 1])
        out = Tensor.scatter_add(vals, idx, 2)
        (out * Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))).sum().backward()
        np.testing.assert_allclose(
            vals.grad, np.array([[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]))


class TestSoftmaxGradients:
    def test_softmax_rows_sum_to_one(self):
        t = Tensor(RNG.normal(size=(4, 6)))
        np.testing.assert_allclose(t.softmax(-1).data.sum(axis=-1),
                                   np.ones(4))

    def test_softmax_grad(self):
        x = RNG.normal(size=(3, 5))
        check_grad(lambda t: (t.softmax(-1) ** 2), x)

    def test_log_softmax_grad(self):
        check_grad(lambda t: t.log_softmax(-1) * 0.5,
                   RNG.normal(size=(3, 5)))

    def test_softmax_shift_invariance(self):
        x = RNG.normal(size=(2, 4))
        a = Tensor(x).softmax(-1).data
        b = Tensor(x + 100.0).softmax(-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def _two_temp_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """The softmax formula with separate shift, exp and divide temporaries."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _two_temp_log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse


def _padded_scores() -> np.ndarray:
    """(B, heads, n, n) scores with -1e30 on padded key columns; the last
    member keeps one valid key, so its rows mask every key but one."""
    from repro.perf.batching import NEG_INF
    x = RNG.normal(size=(3, 4, 9, 9)) * 4.0
    for b, valid in enumerate((9, 5, 1)):
        x[b, :, :, valid:] += NEG_INF
    return x


SOFTMAX_INPUTS = {
    "n1": lambda: RNG.normal(size=(1,)),
    "heads_n1": lambda: RNG.normal(size=(4, 1, 1)),
    "heads_n_n": lambda: RNG.normal(size=(4, 37, 37)) * 3.0,
    "batched_padded": _padded_scores,
    "anee_gate": lambda: RNG.normal(size=(50, 32)),
}


class TestSoftmaxInPlace:
    """The softmax family computes in one private buffer: its outputs are
    bit-identical to the separate-temporary formulas and never write to
    the input."""

    @pytest.mark.parametrize("case", sorted(SOFTMAX_INPUTS))
    @pytest.mark.parametrize("op", ("softmax", "log_softmax"))
    def test_input_data_unchanged(self, case, op):
        x = SOFTMAX_INPUTS[case]()
        t = Tensor(x)
        before = t.data.copy()
        out = getattr(t, op)(-1)
        np.testing.assert_array_equal(t.data, before)
        assert not np.shares_memory(out.data, t.data)

    @pytest.mark.parametrize("case", sorted(SOFTMAX_INPUTS))
    def test_softmax_bit_identical_to_two_temporaries(self, case):
        x = SOFTMAX_INPUTS[case]()
        np.testing.assert_array_equal(Tensor(x).softmax(-1).data,
                                      _two_temp_softmax(x, -1))

    @pytest.mark.parametrize("case", sorted(SOFTMAX_INPUTS))
    def test_log_softmax_bit_identical_to_two_temporaries(self, case):
        x = SOFTMAX_INPUTS[case]()
        np.testing.assert_array_equal(Tensor(x).log_softmax(-1).data,
                                      _two_temp_log_softmax(x, -1))

    def test_masked_row_puts_all_mass_on_the_one_valid_key(self):
        p = Tensor(_padded_scores()).softmax(-1).data
        np.testing.assert_array_equal(p[2, :, :, 0], 1.0)
        np.testing.assert_array_equal(p[2, :, :, 1:], 0.0)

    def test_model_predictions_bit_identical_to_two_temporaries(
            self, monkeypatch):
        from repro.core import DNNOccu, DNNOccuConfig
        from repro.features import encode_graph
        from repro.gpu import get_device
        from repro.models import ModelConfig, build_model, list_models

        device = get_device("A100")
        feats = [encode_graph(build_model(n, ModelConfig(batch_size=16)),
                              device) for n in list_models()]
        assert len(feats) == 25
        model = DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=7)

        def run():
            with no_grad():
                single = np.array([model.predict(f) for f in feats])
                return single, model.predict_batch(feats, batch_size=8)

        single, batched = run()
        monkeypatch.setattr(
            Tensor, "softmax",
            lambda self, axis=-1: Tensor(_two_temp_softmax(self.data, axis)))
        ref_single, ref_batched = run()
        np.testing.assert_array_equal(single, ref_single)
        np.testing.assert_array_equal(batched, ref_batched)


class TestBroadcasting:
    def test_add_broadcast_grad_shapes(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_mul_broadcast_column(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (3, 1)
        np.testing.assert_allclose(b.grad[:, 0], a.data.sum(axis=1))

    def test_scalar_broadcast(self):
        a = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (a * s).sum().backward()
        np.testing.assert_allclose(float(s.grad), a.data.sum())


class TestTapeMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (t * 2 + t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0])

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).sum().backward()

    def test_no_grad_blocks_tape(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = (t * 2).sum()
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_detach(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.array(1.0), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out * 1.0001
        out.backward()
        assert t.grad is not None

    def test_diamond_graph_gradient(self):
        t = Tensor(np.array(2.0), requires_grad=True)
        a = t * 3
        b = t * 4
        (a * b).backward()  # d/dt (12 t^2) = 24 t = 48
        np.testing.assert_allclose(float(t.grad), 48.0)

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None


class TestHypothesisProperties:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sum_linearity(self, values):
        x = np.array(values)
        a = Tensor(x, requires_grad=True)
        (a * 2.0 + a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 5.0 * np.ones_like(x))

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_matmul_shape(self, m, n):
        a = Tensor(np.ones((m, 3)))
        b = Tensor(np.ones((3, n)))
        assert (a @ b).shape == (m, n)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_distribution(self, values):
        p = Tensor(np.array(values)).softmax(-1).data
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=10),
           st.lists(st.floats(-5, 5), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_chain_rule_scalar(self, xs, ys):
        # d/dx sum((x*c)^2) = 2*c^2*x for constant c.
        x = np.array(xs)
        c = float(np.sum(ys)) or 1.0
        t = Tensor(x, requires_grad=True)
        ((t * c) ** 2).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * c * c * x, rtol=1e-9,
                                   atol=1e-9)
