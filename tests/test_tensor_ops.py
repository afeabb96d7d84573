"""Forward-pass contracts of the tensor ops, checked against naive oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from videograph import tensor as tz
from videograph.tensor import BatchNormState, ShapeError, Tensor


def naive_matmul(a, b):
    m, k = a.shape
    k2, p = b.shape
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def naive_conv1d_same(x, kernel):
    """Zero-padded same convolution of a 1-D signal with one kernel."""
    k = len(kernel)
    pad = k // 2
    padded = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    return np.array([sum(padded[i + j] * kernel[j] for j in range(k)) for i in range(len(x))])


def tap_loop_conv(x, axis, kernels, g):
    """Depthwise same convolution as a loop over the k taps, with its backward.

    Returns (out, gx, gk) where gx and gk are the gradients of sum(out * g).
    """
    k = kernels.shape[1]
    pad = k // 2
    moved = np.moveaxis(x, axis, -2)  # (..., L, C)
    length = moved.shape[-2]
    pad_spec = [(0, 0)] * moved.ndim
    pad_spec[-2] = (pad, pad)
    padded = np.pad(moved, pad_spec)
    out_m = np.zeros_like(moved)
    g_m = np.moveaxis(g, axis, -2)
    gx_pad = np.zeros_like(padded)
    gk = np.zeros_like(kernels)
    reduce_axes = tuple(range(g_m.ndim - 1))
    for j in range(k):
        out_m += padded[..., j:j + length, :] * kernels[:, j]
        gx_pad[..., j:j + length, :] += g_m * kernels[:, j]
        gk[:, j] = (padded[..., j:j + length, :] * g_m).sum(axis=reduce_axes)
    gx = np.moveaxis(gx_pad[..., pad:pad + length, :], -2, axis)
    return np.moveaxis(out_m, -2, axis), gx, gk


def flat_window_max(x, axes, kernel=3):
    """Non-overlapping max pool as a copy: window axes moved last, flattened, maxed."""
    trim = tuple(slice(0, (n // kernel) * kernel) if i in axes else slice(None)
                 for i, n in enumerate(x.shape))
    windowed_shape = []
    for i, n in enumerate(x.shape):
        windowed_shape += [n // kernel, kernel] if i in axes else [n]
    windowed = x[trim].reshape(windowed_shape)
    win_pos = [ax + 1 + rank for rank, ax in enumerate(axes)]
    m = len(axes)
    moved = np.moveaxis(windowed, win_pos, range(windowed.ndim - m, windowed.ndim))
    return moved.reshape(moved.shape[:-m] + (kernel ** m,)).max(axis=-1)


def loop_max_pool_grad(x, axes, g, kernel=3):
    """Gradient of sum(max_pool(x) * g): each window's g to its first maximum in row-major order."""
    gx = np.zeros_like(x)
    for out_idx in np.ndindex(g.shape):
        window = tuple(slice(kernel * j, kernel * j + kernel) if i in axes else slice(j, j + 1)
                       for i, j in enumerate(out_idx))
        first = np.unravel_index(np.argmax(x[window]), x[window].shape)
        gx[window][first] += g[out_idx]
    return gx


def multi_axis_batch_norm(x, gamma, beta, mu, var, eps, mode, g):
    """Batch norm over every axis but the last, in its multi-axis form, with its backward.

    Returns (out, gx, g_gamma, g_beta) for upstream gradient g. In eval mode
    mu and var are the running statistics.
    """
    reduce_axes = tuple(range(x.ndim - 1))
    if mode == "train":
        mu = x.mean(axis=reduce_axes, keepdims=True)
        var = x.var(axis=reduce_axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    g_gamma = (g * xhat).sum(axis=reduce_axes)
    g_beta = g.sum(axis=reduce_axes)
    if mode == "train":
        n = x.size // x.shape[-1]
        g = g - g_beta / n - xhat * (g_gamma / n)
    return gamma * xhat + beta, g * (gamma * inv), g_gamma, g_beta


def misaligned_copy(a, offset):
    """Copy of a in a buffer that starts `offset` bytes past an allocation."""
    buf = np.empty(a.nbytes + offset, dtype=np.uint8)
    view = buf[offset:offset + a.nbytes].view(a.dtype).reshape(a.shape)
    view[...] = a
    return view


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = tz.matmul(Tensor(a), Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a)

    def test_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        out = tz.matmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])
        np.testing.assert_allclose(out.data, naive_matmul(a, b), rtol=0, atol=0)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_against_oracle(self, m, k, p, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, p))
        out = tz.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, naive_matmul(a, b), atol=1e-12)

    def test_similarity_shape_at_full_scale(self):
        # flattened 7x7 grid of 1024-channel features against 128 latent nodes
        a = Tensor(np.zeros((49, 1024)))
        b = Tensor(np.zeros((1024, 128)))
        assert tz.matmul(a, b).shape == (49, 128)

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            tz.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    # narrow outputs where a plain GEMM rounds rows differently at m <= 3 than at m >= 4
    @pytest.mark.parametrize("k, p", [(16, 2), (64, 3), (144, 1)])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 12, 33])
    def test_independent_rows_equal_single_row_products(self, m, k, p):
        rng = np.random.default_rng(m * 1000 + k + p)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, p))
        out = tz.matmul(Tensor(a), Tensor(b), independent_rows=True).data
        for i in range(m):
            single = tz.matmul(Tensor(a[i:i + 1]), Tensor(b)).data[0]
            assert out[i].tobytes() == single.tobytes()
        np.testing.assert_allclose(out, naive_matmul(a, b), rtol=0, atol=1e-12)

    def test_independent_rows_gradients(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(5, 3)))

        def f():
            out = tz.mul(tz.matmul(a, b, independent_rows=True), weights)
            return tz.mean(tz.reshape(out, (out.size,)), axes=0)

        assert tz.grad_check(f, [a, b]) <= 1e-9  # linear in each input


class TestDepthwiseConv:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4, 3))
        kernels = np.tile([0.0, 1.0, 0.0], (3, 1))
        out = tz.depthwise_conv1d(Tensor(x), 0, Tensor(kernels))
        np.testing.assert_array_equal(out.data, x)

    def test_box_kernel_matches_naive(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(3, 1)
        out = tz.depthwise_conv1d(Tensor(x), 0, Tensor(np.array([[1.0, 1.0, 1.0]])))
        np.testing.assert_array_equal(out.data.ravel(), [3.0, 6.0, 5.0])

    @given(st.integers(1, 9), st.integers(1, 3), st.sampled_from([3, 5, 7]), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_against_naive_per_channel(self, length, channels, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(length, channels))
        kernels = rng.normal(size=(channels, k))
        out = tz.depthwise_conv1d(Tensor(x), 0, Tensor(kernels))
        for c in range(channels):
            np.testing.assert_allclose(out.data[:, c], naive_conv1d_same(x[:, c], kernels[c]),
                                       atol=1e-12)

    @given(st.sampled_from([1, 2]), st.integers(1, 20), st.sampled_from([3, 5, 7]),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_six_d_forward_and_gradients_match_tap_loop(self, axis, length, k, seed):
        rng = np.random.default_rng(seed)
        shape = [int(v) for v in rng.integers(1, [4, 5, 5, 3, 3, 4])]
        shape[axis] = length
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        kernels = Tensor(rng.normal(size=(shape[-1], k)), requires_grad=True)
        g = rng.normal(size=shape)
        with tz.Tape() as tape:
            out = tz.depthwise_conv1d(x, axis, kernels)
            # sum(out * g) through a ones matmul, so the upstream gradient is g exactly
            total = tz.matmul(tz.reshape(tz.mul(out, Tensor(g)), (1, out.size)),
                              Tensor(np.ones((out.size, 1))))
            grads = tape.backward(total)
        ref_out, ref_gx, ref_gk = tap_loop_conv(x.data, axis, kernels.data, g)
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[x], ref_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[kernels], ref_gk, rtol=0, atol=1e-12)

    def test_time_kernel_preserves_length(self):
        x = Tensor(np.zeros((64, 4, 8)))
        out = tz.depthwise_conv1d(x, 0, Tensor(np.zeros((8, 7))))
        assert out.shape == (64, 4, 8)

    def test_band_taps_cached_and_read_only(self):
        taps = tz._band_taps(6, 3, np.dtype(np.float64))
        assert tz._band_taps(6, 3, np.dtype(np.float64)) is taps
        assert not taps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            taps[0, 0] = 2.0
        for j in range(3):
            np.testing.assert_array_equal(taps[j].reshape(6, 6), np.eye(6, k=1 - j))

    @pytest.mark.parametrize("ndim", range(2, 8))
    def test_permutations_are_the_moveaxis_calls(self, ndim):
        rng = np.random.default_rng(ndim)
        x = rng.normal(size=tuple(int(v) for v in rng.integers(2, 4, size=ndim)))
        for axis in range(ndim - 1):
            to_rows, from_rows = tz._conv_permutations(ndim, axis)
            moved = x.transpose(to_rows)
            ref = np.moveaxis(x, (-1, axis), (0, -1))
            assert (moved.shape, moved.strides) == (ref.shape, ref.strides)
            np.testing.assert_array_equal(moved, ref)
            back = moved.transpose(from_rows)
            ref_back = np.moveaxis(ref, (0, -1), (-1, axis))
            assert (back.shape, back.strides) == (ref_back.shape, ref_back.strides)
            assert (back.shape, back.strides) == (x.shape, x.strides)
            np.testing.assert_array_equal(back, x)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            tz.depthwise_conv1d(Tensor(np.zeros((4, 2))), 0, Tensor(np.zeros((2, 4))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channel"):
            tz.depthwise_conv1d(Tensor(np.zeros((4, 2))), 0, Tensor(np.zeros((3, 3))))

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, 6, 3))
        kernels = Tensor(rng.normal(size=(3, 5)))
        a, b = rng.normal(size=2)
        lhs = tz.depthwise_conv1d(Tensor(a * x + b * y), 0, kernels).data
        rhs = (a * tz.depthwise_conv1d(Tensor(x), 0, kernels).data
               + b * tz.depthwise_conv1d(Tensor(y), 0, kernels).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@st.composite
def mean_cases(draw):
    """A shape, a tuple of (possibly negative) axes, and a seed."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    ndim = len(shape)
    axes = draw(st.one_of(st.just(tuple(range(ndim))),
                          st.lists(st.integers(0, ndim - 1), unique=True, min_size=1).map(tuple)))
    axes = tuple(ax - ndim if draw(st.booleans()) else ax for ax in axes)
    return shape, axes, draw(st.integers(0, 10**6))


class TestMean:
    @given(mean_cases())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_np_mean(self, case):
        shape, axes, seed = case
        x = np.random.default_rng(seed).normal(size=shape)
        got = tz.mean(Tensor(x), axes=axes).data
        ref = np.asarray(np.mean(x, axis=axes))
        assert type(got) is np.ndarray
        assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
        assert got.tobytes() == ref.tobytes()

    def test_all_axes_scalar_is_a_0d_array(self):
        out = tz.mean(Tensor(np.arange(6.0).reshape(2, 3)), axes=(0, 1))
        assert type(out.data) is np.ndarray and out.shape == ()
        assert out.item() == 2.5


class TestMeanExact:
    @given(st.sampled_from([1, 3, 8]), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pooled_axes_permutation_bitwise_invariant(self, batch, seed):
        rng = np.random.default_rng(seed)
        t_len, h, w, c = (int(v) for v in rng.integers(1, [17, 4, 4, 17]))
        x = rng.normal(size=(batch, t_len, h, w, c))
        ref = tz.mean_exact(Tensor(x), axes=(1, 2, 3)).data
        perm = x[:, rng.permutation(t_len)][:, :, rng.permutation(h)][:, :, :, rng.permutation(w)]
        moved = misaligned_copy(perm, 8 * int(rng.integers(0, 8)))
        got = tz.mean_exact(Tensor(moved), axes=(1, 2, 3)).data
        assert got.tobytes() == ref.tobytes()
        count = t_len * h * w
        oracle = np.array([[math.fsum(x[b, ..., ch].ravel()) / count for ch in range(c)]
                           for b in range(batch)])
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-14)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert tz.activation(Tensor(np.zeros(1)), "sigmoid").data[0] == 0.5

    def test_relu_negative(self):
        assert tz.activation(Tensor(np.array([-1.0])), "relu").data[0] == 0.0

    def test_sigmoid_direct_evaluation(self):
        out = tz.activation(Tensor(np.array([10.0])), "sigmoid").data[0]
        np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-10.0)), atol=1e-15)
        np.testing.assert_allclose(out, 0.9999546, atol=1e-7)

    def test_sigmoid_bitwise_equal_three_exp_form(self):
        x = np.random.default_rng(0).normal(scale=20.0, size=(50, 7))
        ref = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert tz.sigmoid(Tensor(x)).data.tobytes() == ref.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            tz.activation(Tensor(np.zeros(1)), "gelu")


class TestSoftmax:
    def test_constant_vector_uniform(self):
        out = tz.softmax(Tensor(np.full((1, 5), 3.7)), axis=1)
        np.testing.assert_allclose(out.data, 0.2, atol=1e-15)

    def test_closed_form(self):
        out = tz.softmax(Tensor(np.array([[0.0, np.log(2.0)]])), axis=1)
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-15)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_bitwise_equal_out_of_place_form(self, axis):
        x = np.random.default_rng(axis).normal(scale=5.0, size=(6, 9))
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        ref = e / e.sum(axis=axis, keepdims=True)
        assert tz.softmax(Tensor(x), axis=axis).data.tobytes() == ref.tobytes()

    @given(st.integers(1, 6), st.integers(0, 10**6),
           st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, k, seed, shift):
        x = np.random.default_rng(seed).normal(size=(3, k))
        out = tz.softmax(Tensor(x), axis=1).data
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        shifted = tz.softmax(Tensor(x + shift), axis=1).data
        np.testing.assert_allclose(shifted, out, atol=1e-9)


def batch_norm_reference(x2, state, mode, g2):
    """The out-of-place np.mean formulation of batch_norm: output, stats and gradients."""
    gamma, beta, m = state.gamma.data, state.beta.data, tz.BN_MOMENTUM
    running_mean, running_var = state.running_mean, state.running_var
    if mode == "train":
        mu = x2.mean(axis=0)
        centered = x2 - mu
        var = (centered * centered).mean(axis=0)
        inv = 1.0 / np.sqrt(var + tz.BN_EPS)
        xhat = centered * inv
        running_mean = m * running_mean + (1.0 - m) * mu
        running_var = m * running_var + (1.0 - m) * var
    else:
        inv = 1.0 / np.sqrt(running_var + tz.BN_EPS)
        xhat = (x2 - running_mean) * inv
    g_gamma, g_beta = (g2 * xhat).sum(axis=0), g2.sum(axis=0)
    if mode == "train":
        n = g2.shape[0]
        g2 = g2 - g_beta / n - xhat * (g_gamma / n)
    return (gamma * xhat + beta, running_mean, running_var, g2 * (gamma * inv), g_gamma, g_beta)


class TestBatchNorm:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_out_of_place_form(self, mode, seed):
        rng = np.random.default_rng(seed)
        rows, c = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        x = Tensor(rng.normal(loc=3.0, size=(rows, c)), requires_grad=True)
        state = BatchNormState(c)
        state.gamma = Tensor(rng.normal(size=c), requires_grad=True)
        state.beta = Tensor(rng.normal(size=c), requires_grad=True)
        state.running_mean, state.running_var = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        state.initialized = True
        g = rng.normal(size=(rows, c))
        ref = batch_norm_reference(x.data, state, mode, g)
        with tz.Tape() as tape:
            out = tz.batch_norm(x, state, mode=mode)
        got = (out.data, state.running_mean, state.running_var, *tape.ops[-1].backward_fn(g))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]

    def test_constant_input_maps_to_zero(self):
        state = BatchNormState(3)
        x = Tensor(np.full((8, 3), 2.5))
        out = tz.batch_norm(x, state, mode="train")
        assert np.abs(out.data).max() <= 1e-2

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 2))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        state = BatchNormState(2)
        out = tz.batch_norm(Tensor(x), state, mode="train")
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + tz.BN_EPS), rtol=1e-6)

    def test_affine_only(self):
        state = BatchNormState(2)
        state.gamma = Tensor(np.zeros(2), requires_grad=True)
        state.beta = Tensor(np.full(2, 5.0), requires_grad=True)
        out = tz.batch_norm(Tensor(np.random.default_rng(1).normal(size=(6, 2))), state, mode="train")
        np.testing.assert_array_equal(out.data, np.full((6, 2), 5.0))

    def test_eval_before_train_rejected(self):
        state = BatchNormState(2)
        with pytest.raises(RuntimeError, match="uninitialized"):
            tz.batch_norm(Tensor(np.zeros((4, 2))), state, mode="eval")

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_train_mode_standardizes(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(loc=rng.normal(), scale=1 + rng.uniform(), size=(50, 4, 3))
        state = BatchNormState(3)
        out = tz.batch_norm(Tensor(x), state, mode="train").data
        assert np.abs(out.mean(axis=(0, 1))).max() <= 1e-6
        np.testing.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=1e-3)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @given(st.sampled_from([2, 6]), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_matches_multi_axis_formula(self, mode, ndim, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 9))
        shape = (int(rng.integers(2, 6)),) + tuple(int(v) for v in rng.integers(1, 5, size=ndim - 2)) + (c,)
        x = Tensor(rng.normal(loc=rng.normal(), scale=1 + rng.uniform(), size=shape), requires_grad=True)
        state = BatchNormState(c)
        state.gamma = Tensor(rng.normal(size=c) + 1.5, requires_grad=True)
        state.beta = Tensor(rng.normal(size=c), requires_grad=True)
        state.running_mean, state.running_var = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        state.initialized = True
        ref_inputs = (x.data, state.gamma.data, state.beta.data, state.running_mean, state.running_var)
        g = rng.normal(size=shape)
        with tz.Tape() as tape:
            out = tz.batch_norm(x, state, mode=mode)
        got = (out.data,) + tape.ops[-1].backward_fn(g)
        ref = multi_axis_batch_norm(*ref_inputs, tz.BN_EPS, mode, g)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestMaxPool:
    def test_constant_tensor(self):
        out = tz.max_pool(Tensor(np.full((9, 6), 4.0)), (0, 1))
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out.data, np.full((3, 2), 4.0))

    def test_one_to_nine(self):
        out = tz.max_pool(Tensor(np.arange(1.0, 10.0)), (0,))
        np.testing.assert_array_equal(out.data, [3.0, 6.0, 9.0])

    def test_floor_division_lengths(self):
        out = tz.max_pool(Tensor(np.zeros((64, 128, 2))), (0, 1))
        assert out.shape == (21, 42, 2)

    def test_short_axis_rejected(self):
        with pytest.raises(ShapeError, match="length 2"):
            tz.max_pool(Tensor(np.zeros((2, 9))), (0, 1))

    @given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_outputs_are_window_elements(self, t_len, n_len, seed):
        x = np.random.default_rng(seed).normal(size=(t_len, n_len))
        out = tz.max_pool(Tensor(x), (0, 1)).data
        assert out.max() <= x.max()
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                window = x[3 * i:3 * i + 3, 3 * j:3 * j + 3]
                assert out[i, j] == window.max()

    @given(st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_six_d_matches_flat_window_max(self, num_axes, seed):
        # (B, T, N, H, W, C); pooled lengths 3-8, so most leave a ragged tail
        rng = np.random.default_rng(seed)
        axes = tuple(sorted(rng.choice(6, size=num_axes, replace=False)))
        shape = [int(rng.integers(3, 9)) if i in axes else int(rng.integers(1, 4)) for i in range(6)]
        x = rng.normal(size=shape)
        out = tz.max_pool(Tensor(x), axes).data
        assert out.tobytes() == flat_window_max(x, axes).tobytes()

    @given(st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_six_d_ties_route_to_lowest_index(self, num_axes, seed):
        rng = np.random.default_rng(seed)
        axes = tuple(sorted(rng.choice(6, size=num_axes, replace=False)))
        shape = [int(rng.integers(3, 8)) if i in axes else int(rng.integers(1, 3)) for i in range(6)]
        x = Tensor(rng.integers(0, 3, size=shape).astype(np.float64), requires_grad=True)
        with tz.Tape() as tape:
            out = tz.max_pool(x, axes)
        g = rng.normal(size=out.shape)
        (gx,) = tape.ops[-1].backward_fn(g)
        np.testing.assert_array_equal(gx, loop_max_pool_grad(x.data, axes, g))


class TestLoss:
    def test_perfect_prediction(self):
        pred = np.array([[1.0, 0.0, 0.0]])
        out = tz.loss(Tensor(pred), [0], "single")
        assert out.item() <= 1e-6

    def test_uniform_prediction_is_log_k(self):
        k = 7
        pred = np.full((4, k), 1.0 / k)
        out = tz.loss(Tensor(pred), [0, 1, 2, 3], "single")
        np.testing.assert_allclose(out.item(), np.log(k), atol=1e-12)

    def test_bce_at_half_is_log_two(self):
        pred = np.full((3, 5), 0.5)
        targets = np.random.default_rng(0).integers(0, 2, size=(3, 5))
        out = tz.loss(Tensor(pred), targets, "multi")
        np.testing.assert_allclose(out.item(), np.log(2.0), atol=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            tz.loss(Tensor(np.full((1, 3), 1 / 3)), [3], "single")

    @pytest.mark.parametrize("batch", [3, 5, 6, 7, 11])
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_clip_and_mean_form(self, batch, seed):
        """Value and gradient equal the np.clip / np.mean formulation, clamp active or not."""
        rng = np.random.default_rng(seed)
        k = 4
        lo, hi = tz.PROB_CLAMP, 1.0 - tz.PROB_CLAMP
        edges = np.array([0.0, 1e-12, lo, np.nextafter(lo, 1.0), 0.5, np.nextafter(hi, 0.0), hi,
                          1.0 - 1e-12, 1.0])
        pred = np.where(rng.random((batch, k)) < 0.5, rng.choice(edges, (batch, k)),
                        rng.random((batch, k)))
        labels = rng.integers(0, k, size=batch)
        multi = rng.integers(0, 2, size=(batch, k)).astype(np.float64)
        p_single = np.clip(pred[np.arange(batch), labels], lo, hi)
        p_multi = np.clip(pred, lo, hi)
        cases = [("single", labels, -np.log(p_single).mean()),
                 ("multi", multi,
                  -(multi * np.log(p_multi) + (1.0 - multi) * np.log1p(-p_multi)).mean())]
        for mode, targets, ref_value in cases:
            x = Tensor(pred, requires_grad=True)
            with tz.Tape() as tape:
                out = tz.loss(x, targets, mode)
                grads = tape.backward(out)
            assert out.item().hex() == float(ref_value).hex(), mode
            active = (pred > lo) & (pred < hi)
            if mode == "single":
                ref_grad = np.zeros_like(pred)
                ref_grad[np.arange(batch), labels] = np.where(
                    active[np.arange(batch), labels], -1.0 / (batch * p_single), 0.0)
            else:
                ref_grad = np.where(active, (p_multi - multi) / (p_multi * (1.0 - p_multi))
                                    / (batch * k), 0.0)
            assert grads[x].tobytes() == ref_grad.tobytes(), mode


class TestTensorInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Tensor(np.array([1.0, np.nan]))

    @given(st.sampled_from([np.float32, np.int64, np.int32]), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_inputs_widen_to_float64_exactly(self, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=1e3, size=(3, 4, 5)).astype(dtype)
        data = Tensor(x).data
        assert data.dtype == np.float64
        assert data.tobytes() == x.astype(np.float64).tobytes()

    def test_op_outputs_skip_the_scan_that_public_tensors_run(self):
        for bad in (np.array([np.nan]), np.array([np.inf]), [1.0, -np.inf]):
            with pytest.raises(ValueError, match="non-finite"):
                Tensor(bad)
        with np.errstate(over="ignore"):
            out = tz.mul(Tensor(np.array([1e300])), Tensor(np.array([1e300])))
        assert np.isinf(out.data).all() and type(out.data) is np.ndarray
        scalar = tz.add(Tensor(1.0), Tensor(2.0))
        assert type(scalar.data) is np.ndarray and scalar.shape == () and scalar.item() == 3.0

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with tz.Tape() as tape:
            y = tz.mul(x, x)
            with pytest.raises(ShapeError, match="scalar"):
                tape.backward(y)

    def test_backward_rejects_a_gradient_of_the_wrong_shape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with tz.Tape() as tape:
            out = tz.mean(x, axes=0)
            tape.ops[-1].backward_fn = lambda g: (np.ones(2),)
            with pytest.raises(ShapeError, match=r"gradient shape \(2,\)"):
                tape.backward(out)

    def test_tensors_keep_no_gradient_state(self):
        assert Tensor.__slots__ == ("data", "requires_grad")
