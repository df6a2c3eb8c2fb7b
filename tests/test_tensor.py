"""Tensor-core tests: hand-checked values, scalar oracles, and central
finite-difference gradient checks (float64, step 1e-4, rtol 1e-3)."""

import itertools
import math

import numpy as np
import pytest

from minibert import tensor as T
from _oracles import (
    assert_grads_close,
    numeric_gradient,
    out_of_place_backward,
    reference_gelu,
    reference_gelu_grad,
    reference_layer_norm,
    reference_softmax,
    reference_softmax_grad,
    scalar_gelu,
    scalar_layer_norm,
    scalar_softmax,
)


def leaf(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal((a @ b).data, b.data)

    def test_hand_computed(self):
        a = T.Tensor(np.array([[1.0, 2.0]]))
        b = T.Tensor(np.array([[3.0], [4.0]]))
        assert (a @ b).data.tolist() == [[11.0]]

    def test_shape_error_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            a @ b

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        weights = rng.standard_normal((3, 2))
        ((a @ b) * T.Tensor(weights)).sum().backward()

        def loss():
            return float(((a.data @ b.data) * weights).sum())

        assert_grads_close(a.grad, numeric_gradient(loss, a.data))
        assert_grads_close(b.grad, numeric_gradient(loss, b.data))

    def test_batched_gradients(self):
        rng = np.random.default_rng(1)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5)
        weights = rng.standard_normal((2, 3, 5))
        ((a @ b) * T.Tensor(weights)).sum().backward()

        def loss():
            return float(((a.data @ b.data) * weights).sum())

        assert_grads_close(a.grad, numeric_gradient(loss, a.data))
        assert_grads_close(b.grad, numeric_gradient(loss, b.data))

    def test_two_leading_axes_gradients(self):
        rng = np.random.default_rng(2)
        a, b = leaf(rng, 2, 2, 3, 4), leaf(rng, 4, 5)
        weights = rng.standard_normal((2, 2, 3, 5))
        ((a @ b) * T.Tensor(weights)).sum().backward()

        def loss():
            return float(((a.data @ b.data) * weights).sum())

        assert_grads_close(a.grad, numeric_gradient(loss, a.data))
        assert_grads_close(b.grad, numeric_gradient(loss, b.data))

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    @pytest.mark.parametrize("needs_grad", [(True, True), (True, False), (False, True)])
    def test_stack_times_weight_matches_the_batched_product(self, lead, needs_grad):
        rng = np.random.default_rng(21)
        a = rng.uniform(-1.0, 1.0, (*lead, 4, 5)).astype(np.float32)
        b = rng.uniform(-1.0, 1.0, (5, 6)).astype(np.float32)
        upstream = rng.uniform(-1.0, 1.0, (*lead, 4, 6)).astype(np.float32)
        ta = T.Tensor(a, requires_grad=needs_grad[0])
        tb = T.Tensor(b, requires_grad=needs_grad[1])
        ((ta @ tb) * T.Tensor(upstream)).sum().backward()
        # one GEMM per leading index, then a sum over the leading axes
        batched_ga = upstream @ b.T
        batched_gb = (a.swapaxes(-1, -2) @ upstream).reshape(-1, 5, 6).sum(axis=0)
        for tensor, expected in ((ta, batched_ga), (tb, batched_gb)):
            if not tensor.requires_grad:
                assert tensor.grad is None
                continue
            assert tensor.grad.dtype == np.float32 and tensor.grad.shape == tensor.shape
            np.testing.assert_allclose(tensor.grad, expected, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_stack_of_single_rows_runs_as_one_gemm(self, dtype, with_bias):
        """(B, 1, K) @ (K, N), as inference's [CLS] rows: the forward is the
        2-D GEMM of the (B, K) rows bit for bit and numpy's batched product
        within 1e-6, and the gradients are the batched product's."""
        rng = np.random.default_rng(22)
        # a strided view, as the [CLS] rows are of the (B, S, K) activations;
        # at K = 64 OpenBLAS's batched product differs from the GEMM in the
        # last bits, so the bitwise check below tells the two paths apart
        a = rng.uniform(-0.5, 0.5, (7, 3, 64)).astype(dtype)[:, :1, :]
        w = rng.uniform(-0.5, 0.5, (64, 32)).astype(dtype)
        bias = rng.uniform(-0.5, 0.5, 32).astype(dtype) if with_bias else np.zeros(32, dtype)
        upstream = rng.uniform(-0.5, 0.5, (7, 1, 32)).astype(dtype)
        ta, tw = T.Tensor(a, requires_grad=True), T.Tensor(w, requires_grad=True)
        tbias = T.Tensor(bias, requires_grad=True) if with_bias else None
        out = T.matmul(ta, tw, tbias)
        assert out.shape == (7, 1, 32) and out.dtype == dtype
        assert np.array_equal(out.data, (a.reshape(7, 64) @ w + bias)[:, None, :])
        np.testing.assert_allclose(out.data, np.matmul(a, w) + bias, rtol=0, atol=1e-6)

        (out * T.Tensor(upstream)).sum().backward()
        # one GEMM per leading index, then a sum over the leading axis
        np.testing.assert_allclose(ta.grad, upstream @ w.T, rtol=0, atol=1e-6)
        np.testing.assert_allclose(
            tw.grad, (a.swapaxes(-1, -2) @ upstream).sum(axis=0), rtol=0, atol=1e-6
        )
        if with_bias:
            np.testing.assert_allclose(tbias.grad, upstream.sum(axis=(0, 1)), rtol=0, atol=1e-6)


class TestSoftmax:
    def test_symmetric(self):
        out = T.softmax(T.Tensor(np.array([0.0, 0.0])), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_no_overflow_on_large_inputs(self):
        out = T.softmax(T.Tensor(np.array([1000.0, 1000.0])), axis=-1)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_matches_scalar_oracle(self):
        out = T.softmax(T.Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float64)), axis=-1)
        np.testing.assert_allclose(out.data, scalar_softmax([1.0, 2.0, 3.0]), atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.standard_normal((5, 7)) * 10)
        out = T.softmax(x, axis=-1)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_invalid_axis(self):
        with pytest.raises(T.ShapeError):
            T.softmax(T.Tensor(np.zeros((2, 2))), axis=5)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = leaf(rng, 4, 5)
        weights = rng.standard_normal((4, 5))
        (T.softmax(x, axis=-1) * T.Tensor(weights)).sum().backward()

        def loss():
            e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * weights).sum())

        assert_grads_close(x.grad, numeric_gradient(loss, x.data))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_plain_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(21)
        x = (5.0 * rng.standard_normal((3, 2, 7, 7))).astype(dtype)
        upstream = rng.standard_normal(x.shape).astype(dtype)
        leaf_x = T.Tensor(x, requires_grad=True)
        out = T.softmax(leaf_x, axis=-1)
        (out * T.Tensor(upstream)).sum().backward()
        expected = reference_softmax(x)
        for got, want in ((out.data, expected), (leaf_x.grad, reference_softmax_grad(expected, upstream))):
            assert got.dtype == dtype
            assert np.array_equal(got, want)


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        out = T.layer_norm(
            T.Tensor(np.array([[5.0, 5.0, 5.0]])),
            T.Tensor(np.ones(3)),
            T.Tensor(np.zeros(3)),
        )
        np.testing.assert_allclose(out.data, [[0.0, 0.0, 0.0]])

    def test_two_point_standardization(self):
        out = T.layer_norm(
            T.Tensor(np.array([[1.0, 3.0]])),
            T.Tensor(np.ones(2)),
            T.Tensor(np.zeros(2)),
        )
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_normalized_moments(self):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.standard_normal((6, 32)) * 3 + 1)
        out = T.layer_norm(x, T.Tensor(np.ones(32)), T.Tensor(np.zeros(32)))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-5
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-4

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        row = rng.standard_normal(6)
        gain = rng.standard_normal(6)
        bias = rng.standard_normal(6)
        out = T.layer_norm(T.Tensor(row[None, :]), T.Tensor(gain), T.Tensor(bias))
        expected = scalar_layer_norm(list(row), list(gain), list(bias))
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-6)

    def test_shape_error(self):
        with pytest.raises(T.ShapeError):
            T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(3)), T.Tensor(np.zeros(4)))

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x, gain, bias = leaf(rng, 3, 8), leaf(rng, 8), leaf(rng, 8)
        weights = rng.standard_normal((3, 8))
        (T.layer_norm(x, gain, bias) * T.Tensor(weights)).sum().backward()

        def loss():
            mean = x.data.mean(axis=-1, keepdims=True)
            var = x.data.var(axis=-1, keepdims=True)
            normed = (x.data - mean) / np.sqrt(var + 1e-5)
            return float(((normed * gain.data + bias.data) * weights).sum())

        assert_grads_close(x.grad, numeric_gradient(loss, x.data))
        assert_grads_close(gain.grad, numeric_gradient(loss, gain.data))
        assert_grads_close(bias.grad, numeric_gradient(loss, bias.data))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_plain_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(22)
        x = (3.0 * rng.standard_normal((4, 5, 16)) + 1.0).astype(dtype)
        gain, bias = (rng.standard_normal((2, 16)) + 1.0).astype(dtype)
        upstream = rng.standard_normal(x.shape).astype(dtype)
        leaves = [T.Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        out = T.layer_norm(*leaves)
        (out * T.Tensor(upstream)).sum().backward()
        value, gx, g_gain, g_bias = reference_layer_norm(x, gain, bias, upstream)
        for got, want in zip([out.data] + [t.grad for t in leaves], (value, gx, g_gain, g_bias)):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(TypeError, match="one dtype"):
            T.layer_norm(
                T.Tensor(np.zeros((2, 4), dtype=np.float32)),
                T.Tensor(np.ones(4)),
                T.Tensor(np.zeros(4)),
            )

    def test_residual_shape_error(self):
        with pytest.raises(T.ShapeError, match="residual"):
            T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(4)),
                         T.Tensor(np.zeros(4)), residual=T.Tensor(np.zeros((1, 4))))


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor(np.array(0.0))).data == 0.0

    def test_asymptote(self):
        assert abs(T.gelu(T.Tensor(np.array(10.0, dtype=np.float64))).item() - 10.0) < 1e-3

    def test_matches_documented_formula(self):
        out = T.gelu(T.Tensor(np.array(1.0, dtype=np.float64))).item()
        assert abs(out - scalar_gelu(1.0)) < 1e-6

    def test_gradients(self):
        rng = np.random.default_rng(7)
        x = leaf(rng, 10)
        weights = rng.standard_normal(10)
        (T.gelu(x) * T.Tensor(weights)).sum().backward()

        def loss():
            return float(sum(scalar_gelu(v) * w for v, w in zip(x.data, weights)))

        assert_grads_close(x.grad, numeric_gradient(loss, x.data))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the special values
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("values", ["scalar", "normal", "special"])
    def test_equals_the_plain_formula_bit_for_bit(self, dtype, values):
        rng = np.random.default_rng(3)
        x = {
            "scalar": np.array(-0.7),
            "normal": 3.0 * rng.standard_normal((16, 64)),
            "special": np.array([0.0, -0.0, 1e-40, -1e-300, 12.0, -12.0, np.inf, -np.inf, np.nan]),
        }[values].astype(dtype)
        upstream = rng.standard_normal(x.shape).astype(dtype)
        leaf_x = T.Tensor(x, requires_grad=True)
        out = T.gelu(leaf_x)
        (out * T.Tensor(upstream)).sum().backward()
        expected_value, _ = reference_gelu(x)
        expected_grad = reference_gelu_grad(x, upstream)
        for got, expected in ((out.data, expected_value), (leaf_x.grad, expected_grad)):
            got, expected = np.asarray(got), np.asarray(expected)
            assert got.dtype == dtype and got.shape == x.shape
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        loss = T.cross_entropy(T.Tensor(np.array([[0.0, 0.0]])), np.array([1]))
        assert abs(loss.item() - math.log(2.0)) < 1e-6

    def test_confident_correct_is_near_zero(self):
        loss = T.cross_entropy(T.Tensor(np.array([[20.0, -20.0]])), np.array([0]))
        assert loss.item() < 1e-6

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            T.cross_entropy(T.Tensor(np.zeros((1, 2))), np.array([2]))

    def test_gradients(self):
        rng = np.random.default_rng(8)
        logits = leaf(rng, 4, 3)
        labels = np.array([0, 2, 1, 2])
        T.cross_entropy(logits, labels).backward()

        def loss():
            z = logits.data
            shifted = z - z.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return float(-log_probs[np.arange(4), labels].mean())

        assert_grads_close(logits.grad, numeric_gradient(loss, logits.data))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = T.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        p.sum().backward()
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_elementwise_square_gradient(self):
        p = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (p * p).sum().backward()
        np.testing.assert_allclose(p.grad, 2.0 * p.data)

    def test_non_scalar_loss_rejected(self):
        p = T.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (p * p).backward()

    def test_repeated_backward_accumulates(self):
        p = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = p.sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])

    def test_leaves_fed_one_upstream_array_accumulate_apart(self):
        # ``add`` hands one gradient array to both parents, so a leaf that
        # kept that array instead of a copy would share it with the other
        a = T.Tensor(np.zeros(2), requires_grad=True)
        b = T.Tensor(np.zeros(2), requires_grad=True)
        loss = (a + b).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_backward_adds_into_an_existing_grad_in_place(self):
        buffer = np.zeros(4)
        p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = buffer[1:3]
        (p * p).sum().backward()
        np.testing.assert_array_equal(buffer, [0.0, 2.0, -4.0, 0.0])
        p.zero_grad()
        assert p.grad.base is buffer
        np.testing.assert_array_equal(buffer, np.zeros(4))

    def test_shared_subexpression_counted_once_per_use(self):
        p = T.Tensor(np.array([3.0]), requires_grad=True)
        q = p * 2.0
        (q + q).sum().backward()
        np.testing.assert_array_equal(p.grad, [4.0])


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_many_consumers_match_out_of_place_accumulation(self, dtype):
        # x has five uses, so its third and later contributions are summed in
        # place.  ``add`` and the residual ``layer_norm`` hand one array to two
        # parents and ``reshape`` passes views on: here z, a * 3 and a share
        # one buffer while z waits to be propagated, so an in-place sum into
        # any buffer the graph walk did not allocate itself changes z's and
        # then x's gradient.
        rng = np.random.default_rng(31)

        def leaf_of(*shape):
            return T.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

        x, w, g, c = leaf_of(3, 4), leaf_of(4, 4), leaf_of(4), leaf_of(4)
        a, z = x * 2.0, x * 5.0
        b = T.layer_norm(a * 3.0, g, c, residual=z)
        y = T.layer_norm(x, g, c, residual=x + x)
        n = (a + b) + y.reshape(12).reshape(3, 4)
        loss = (T.matmul(n, w, c) * T.Tensor(rng.standard_normal((3, 4)).astype(dtype))).sum()
        expected = out_of_place_backward(loss)
        loss.backward()
        for param in (x, w, g, c):
            assert param.grad.dtype == dtype
            assert np.array_equal(param.grad, expected[id(param)])

def builds_graph(t: T.Tensor) -> bool:
    return t.requires_grad or bool(t._parents) or t._vjp is not None


class TestNoGrad:
    def all_ops(self, x, w, g, b):
        h = T.layer_norm(T.gelu(x @ w + b) * 0.5, g, b)
        return [
            x @ w, x + b, x * 2.0, x[0], x.reshape(12), x.transpose(), x.sum(), x.mean(),
            T.tanh(x), T.gelu(x), T.softmax(x), h, T.cross_entropy(h, [0, 1, 2]),
            T.matmul(x, w, b), T.layer_norm(x, g, b, residual=x @ w),
            T.softmax(x, bias=np.array([0.0, -1e9, 0.0, 0.0])),
        ]

    def test_ops_record_nothing_and_compute_the_same_values(self):
        rng = np.random.default_rng(13)
        x, w = leaf(rng, 3, 4), leaf(rng, 4, 4)
        g, b = leaf(rng, 4), leaf(rng, 4)
        with_graph = self.all_ops(x, w, g, b)
        assert all(builds_graph(out) for out in with_graph)
        with T.no_grad():
            without = self.all_ops(x, w, g, b)
        for graphed, plain in zip(with_graph, without):
            assert not builds_graph(plain), plain
            np.testing.assert_array_equal(plain.data, graphed.data)

    def test_nested_block_restores_the_outer_state(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not builds_graph(p * 2.0)
            assert not builds_graph(p * 2.0)
        assert builds_graph(p * 2.0)

    def test_grad_mode_is_back_after_an_exception(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(T.ShapeError):
            with T.no_grad():
                T.Tensor(np.zeros((2, 3))) @ T.Tensor(np.zeros((4, 2)))
        assert builds_graph(p * 2.0)

    def test_backward_after_the_block_gives_correct_gradients(self):
        rng = np.random.default_rng(17)
        p = leaf(rng, 3)
        with T.no_grad():
            constant = T.tanh(p * 3.0)
        # ``constant`` is a plain value: the gradient of sum(p * p * c) is 2 p c
        (p * p * constant).sum().backward()
        np.testing.assert_allclose(p.grad, 2.0 * p.data * np.tanh(3.0 * p.data))
        assert constant.grad is None


class TestMiscOps:
    def test_add_row_bias_gradient(self):
        rng = np.random.default_rng(9)
        x = leaf(rng, 4, 3)
        b = leaf(rng, 3)
        weights = rng.standard_normal((4, 3))
        ((x + b) * T.Tensor(weights)).sum().backward()

        def loss():
            return float(((x.data + b.data) * weights).sum())

        assert_grads_close(x.grad, numeric_gradient(loss, x.data))
        assert_grads_close(b.grad, numeric_gradient(loss, b.data))

    def test_transpose_reshape_roundtrip_gradient(self):
        rng = np.random.default_rng(10)
        x = leaf(rng, 2, 3, 4)
        weights = rng.standard_normal((3, 2, 4))
        (x.transpose(1, 0, 2) * T.Tensor(weights)).sum().backward()

        def loss():
            return float((x.data.transpose(1, 0, 2) * weights).sum())

        assert_grads_close(x.grad, numeric_gradient(loss, x.data))

    @pytest.mark.parametrize("rows", [2, 9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_gather_scatters_like_add_at_bit_for_bit(self, rows, dtype):
        rng = np.random.default_rng(rows)
        table = T.Tensor(rng.standard_normal((rows, 5)).astype(dtype), requires_grad=True)
        ids = rng.integers(-rows, rows, size=(4, 6))
        ids[0, :4] = [1, 1, -1, rows - 1]  # duplicates, and a negative id for a row also hit directly
        upstream = rng.standard_normal((4, 6, 5)).astype(dtype)
        (table[ids] * T.Tensor(upstream)).sum().backward()
        expected = np.zeros_like(table.data)
        np.add.at(expected, ids, upstream)
        assert table.grad.dtype == dtype
        assert np.array_equal(table.grad, expected)

    @pytest.mark.parametrize(
        "shape, key",
        [
            ((4, 3), slice(1, 3)),
            ((4, 3), 2),
            ((4, 3), [0, 0, -1]),
            ((2, 3, 4), (slice(None), 0, slice(None))),
            ((6,), np.array([0, 5, 5, -1])),
            ((3, 2, 2), np.array([2, 2, 0])),
        ],
    )
    def test_other_keys_scatter_like_add_at(self, shape, key):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.standard_normal(shape), requires_grad=True)
        picked = x[key]
        upstream = rng.standard_normal(picked.shape)
        (picked * T.Tensor(upstream)).sum().backward()
        expected = np.zeros(shape)
        np.add.at(expected, key, upstream)
        assert np.array_equal(x.grad, expected)

    def test_getitem_fancy_index_accumulates_duplicates(self):
        table = T.Tensor(np.arange(8, dtype=np.float64).reshape(4, 2), requires_grad=True)
        ids = np.array([1, 1, 3])
        table[ids].sum().backward()
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_tanh_gradient(self):
        x = T.Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
        T.tanh(x).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, rtol=1e-6)

    def test_mean_gradient(self):
        x = T.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        first = (T.Tensor(a) @ T.Tensor(b)).data
        second = (T.Tensor(a) @ T.Tensor(b)).data
        assert np.array_equal(first, second)

    def test_finite_outputs_through_mask_bias(self):
        # a fully masked row still softmaxes to finite values
        scores = T.Tensor(np.full((1, 4), -1e9, dtype=np.float32))
        out = T.softmax(scores, axis=-1)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-6)


def all_flag_combinations(count):
    return list(itertools.product([False, True], repeat=count))


class TestFusedOps:
    """Each fused op against its unfused composition: the forward and every
    input gradient bit for bit, whichever inputs require a gradient."""

    @staticmethod
    def run(build, arrays, flags, upstream):
        leaves = [T.Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags)]
        out = build(*leaves)
        if out.requires_grad:
            (out * T.Tensor(upstream)).sum().backward()
        return out.data, [t.grad for t in leaves]

    def assert_same(self, fused, unfused, arrays, flags):
        rng = np.random.default_rng(41)
        dtype = arrays[0].dtype
        shape = unfused(*[T.Tensor(a) for a in arrays]).shape
        upstream = rng.standard_normal(shape).astype(dtype)
        got_out, got_grads = self.run(fused, arrays, flags, upstream)
        want_out, want_grads = self.run(unfused, arrays, flags, upstream)
        assert got_out.dtype == want_out.dtype == dtype
        assert np.array_equal(got_out, want_out)
        for flag, got, want in zip(flags, got_grads, want_grads):
            if not flag:
                assert got is None and want is None
                continue
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("flags", all_flag_combinations(3))
    @pytest.mark.parametrize("rows", [(3, 4), (2, 3, 4)])
    def test_matmul_bias(self, dtype, flags, rows):
        rng = np.random.default_rng(42)
        arrays = [rng.standard_normal(s).astype(dtype) for s in (rows, (4, 5), (5,))]
        self.assert_same(
            lambda a, w, bias: T.matmul(a, w, bias),
            lambda a, w, bias: a @ w + bias,
            arrays, flags,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("flags", all_flag_combinations(4))
    def test_layer_norm_residual(self, dtype, flags):
        rng = np.random.default_rng(43)
        shapes = ((2, 3, 8), (2, 3, 8), (8,), (8,))
        arrays = [(2.0 * rng.standard_normal(s) + 0.5).astype(dtype) for s in shapes]
        self.assert_same(
            lambda x, r, g, b: T.layer_norm(x, g, b, residual=r),
            lambda x, r, g, b: T.layer_norm(x + r, g, b),
            arrays, flags,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("flags", all_flag_combinations(1))
    @pytest.mark.parametrize("bias_kind", ["pad-mask", "dense"])
    def test_softmax_bias(self, dtype, flags, bias_kind):
        rng = np.random.default_rng(44)
        scores = (3.0 * rng.standard_normal((2, 2, 5, 5))).astype(dtype)
        if bias_kind == "pad-mask":
            mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=dtype)
            bias = ((1.0 - mask) * -1e9).reshape(2, 1, 1, 5)
        else:
            bias = rng.standard_normal((5, 5)).astype(dtype)
        self.assert_same(
            lambda x: T.softmax(x, axis=-1, bias=bias),
            lambda x: T.softmax(x + T.Tensor(bias), axis=-1),
            [scores], flags,
        )

    def test_bias_shape_errors(self):
        x = T.Tensor(np.zeros((2, 3)))
        with pytest.raises(T.ShapeError, match="bias"):
            T.matmul(x, T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros(3)))
        with pytest.raises(T.ShapeError, match="bias"):
            T.softmax(x, bias=np.zeros((4, 2, 3)))
