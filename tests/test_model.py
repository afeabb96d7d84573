"""Node attention, graph embedding, shape inference, and model contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from videograph import tensor as tz
from videograph.model import (GraphEmbeddingParams, MeanPoolBaseline, NodeAttentionParams,
                              VideoGraphConfig, VideoGraphModel,
                              graph_embedding_forward, init_latent_nodes, node_attention_forward,
                              full_scale_config, shape_inference, transformed_nodes)
from videograph.tensor import ShapeError, Tensor


def make_attention_params(channels, sigma_kind="sigmoid", seed=0, identity=False):
    params = NodeAttentionParams(channels, sigma_kind, np.random.default_rng(seed))
    if identity:
        params.weight = Tensor(np.eye(channels), requires_grad=True)
        params.bias = Tensor(np.zeros((1, channels)), requires_grad=True)
    return params


class TestNodeAttention:
    def test_full_scale_shape(self):
        x = Tensor(np.zeros((1, 1, 7, 7, 1024)))
        nodes = Tensor(np.zeros((128, 1024)))
        out = node_attention_forward(x, nodes, make_attention_params(1024))
        assert out.shape == (1, 1, 128, 7, 7, 1024)

    def test_zero_input_gives_half_attention(self):
        rng = np.random.default_rng(1)
        nodes = Tensor(rng.normal(size=(5, 3)))
        params = make_attention_params(3, seed=2)
        out = node_attention_forward(Tensor(np.zeros((2, 4, 2, 2, 3))), nodes, params)
        y_hat = transformed_nodes(nodes, params).data
        expected = 0.5 * np.broadcast_to(y_hat[:, None, None, :], (2, 4, 5, 2, 2, 3))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_single_node_self_similarity(self):
        # w=I, b=0, one node equal to the input with squared norm 3
        y = np.array([[1.0, 1.0, 1.0]])
        params = make_attention_params(3, identity=True)
        out = node_attention_forward(Tensor(y.reshape(1, 1, 1, 1, 3)), Tensor(y), params)
        sig3 = 1.0 / (1.0 + np.exp(-3.0))
        np.testing.assert_allclose(out.data, (sig3 * y).reshape(1, 1, 1, 1, 1, 3), atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            node_attention_forward(Tensor(np.zeros((1, 1, 2, 2, 3))), Tensor(np.zeros((4, 5))),
                                   make_attention_params(5))

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_node_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 2, 3, 4)))
        nodes = rng.normal(size=(6, 4))
        params = make_attention_params(4, seed=seed)
        perm = rng.permutation(6)
        out = node_attention_forward(x, Tensor(nodes), params).data
        out_perm = node_attention_forward(x, Tensor(nodes[perm]), params).data
        np.testing.assert_array_equal(out_perm, out[:, :, perm])

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_attention_ranges(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 2, 2, 4)))
        nodes = Tensor(rng.normal(size=(5, 4)))
        sig = node_attention_forward(x, nodes, make_attention_params(4, "sigmoid", seed))
        y_hat = transformed_nodes(nodes, make_attention_params(4, "sigmoid", seed)).data
        alpha = sig.data[..., 0] / np.where(y_hat[:, None, None, 0] != 0,
                                            y_hat[:, None, None, 0], 1.0)
        assert np.all((alpha > 0) & (alpha < 1))

        params = make_attention_params(4, "softmax_over_nodes", seed)
        out = node_attention_forward(x, nodes, params).data
        y_hat = transformed_nodes(nodes, params).data
        # recover alpha by dividing out the node features, then sum over nodes
        ratio = out / y_hat[:, None, None, :]
        np.testing.assert_allclose(ratio.sum(axis=2), 1.0, atol=1e-9)


class TestGraphEmbedding:
    def test_compositional_oracle_with_identity_configuration(self):
        """Delta kernels + identity mix + absorbing BN reduce to pool(relu(z))."""
        rng = np.random.default_rng(0)
        c = 4
        z = rng.normal(size=(2, 6, 5, 2, 2, c))
        params = GraphEmbeddingParams(c, 3, 3, rng)
        params.time_kernels = Tensor(np.tile([0.0, 1.0, 0.0], (c, 1)), requires_grad=True)
        params.node_kernels = Tensor(np.tile([0.0, 1.0, 0.0], (c, 1)), requires_grad=True)
        params.channel_mixer = Tensor(np.eye(c), requires_grad=True)
        # eval-mode identity: mean 0, var 1, gamma absorbing the epsilon
        params.bn.running_mean = np.zeros(c)
        params.bn.running_var = np.ones(c)
        params.bn.gamma = Tensor(np.full(c, np.sqrt(1.0 + tz.BN_EPS)), requires_grad=True)
        params.bn.initialized = True

        out = graph_embedding_forward(Tensor(z), params, mode="eval")
        expected = tz.max_pool(tz.relu(Tensor(z)), (1, 2)).data
        # gamma * inv_std is 1 only up to one rounding of sqrt(1 + eps)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_constant_positive_input(self):
        # delta time/node kernels: zero padding would otherwise break
        # constancy at the borders before it reaches the normalization
        c = 3
        rng = np.random.default_rng(1)
        z = np.full((1, 3, 3, 1, 1, c), 2.0)
        params = GraphEmbeddingParams(c, 3, 3, rng)
        params.time_kernels = Tensor(np.tile([0.0, 1.0, 0.0], (c, 1)), requires_grad=True)
        params.node_kernels = Tensor(np.tile([0.0, 1.0, 0.0], (c, 1)), requires_grad=True)
        params.bn.beta = Tensor(rng.normal(size=c), requires_grad=True)
        out = graph_embedding_forward(Tensor(z), params, mode="train")
        assert out.shape == (1, 1, 1, 1, 1, c)
        # constant input has zero batch variance: BN maps it to beta, then relu
        expected = np.maximum(params.bn.beta.data, 0.0)
        np.testing.assert_allclose(out.data.reshape(c), expected.reshape(c), atol=1e-2)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("case", ["normal", "integer_ties", "all_negative_windows"])
    def test_pool_before_relu_bitwise_equals_relu_then_pool(self, mode, case):
        """Output and every input and parameter gradient match relu-then-pool bit for bit."""

        def relu_then_pool(h, params, mode):
            c = h.shape[-1]
            h = tz.depthwise_conv1d(h, 1, params.time_kernels)
            h = tz.depthwise_conv1d(h, 2, params.node_kernels)
            flat = tz.matmul(tz.reshape(h, (-1, c)), params.channel_mixer)
            h = tz.batch_norm(tz.reshape(flat, h.shape), params.bn, mode=mode)
            return tz.max_pool(tz.relu(h), (1, 2))

        c, shape = 3, (2, 7, 6, 1, 2, 3)
        for seed in range(10):
            runs = []
            for layer in (relu_then_pool, graph_embedding_forward):
                rng = np.random.default_rng(seed)
                params = GraphEmbeddingParams(c, 3, 3, rng)
                if case == "integer_ties":
                    x = rng.integers(-2, 3, size=shape).astype(np.float64)
                    for p in (params.time_kernels, params.node_kernels, params.channel_mixer):
                        p.data[:] = rng.integers(-1, 2, size=p.shape)
                else:
                    x = rng.normal(size=shape)
                shift = -100.0 if case == "all_negative_windows" else 0.0
                params.bn.beta.data[:] = rng.normal(size=c) + shift
                params.bn.running_mean = rng.normal(size=c)
                params.bn.running_var = rng.uniform(0.5, 2.0, size=c)
                params.bn.initialized = True
                x = Tensor(x, requires_grad=True)
                tensors = [x, *params.named_parameters("layer").values()]
                with tz.Tape() as tape:
                    out = layer(x, params, mode)
                    w = Tensor(rng.normal(size=out.shape))
                    grads = tape.backward(tz.mean(tz.reshape(tz.mul(out, w), (out.size,)), axes=0))
                if case == "all_negative_windows":
                    assert not out.data.any()
                runs.append([out.data.tobytes()] + [grads[t].tobytes() for t in tensors])
            assert runs[0] == runs[1], seed

    def test_full_scale_shape_reduction(self):
        stages = dict(shape_inference(full_scale_config()))
        assert stages["graph_embedding_1"] == (21, 42, 7, 7, 1024)
        assert stages["graph_embedding_2"] == (7, 14, 7, 7, 1024)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_channel_locality_before_mixing(self, seed):
        """Perturbing one input channel changes only that channel of the
        depthwise convolution outputs."""
        rng = np.random.default_rng(seed)
        c = 4
        x = rng.normal(size=(5, 4, c))
        kernels = Tensor(rng.normal(size=(c, 3)))
        target = int(rng.integers(c))
        perturbed = x.copy()
        perturbed[..., target] += rng.normal(size=x.shape[:-1])
        base = tz.depthwise_conv1d(tz.depthwise_conv1d(Tensor(x), 0, kernels), 1, kernels).data
        other = tz.depthwise_conv1d(tz.depthwise_conv1d(Tensor(perturbed), 0, kernels), 1, kernels).data
        mask = np.arange(c) != target
        np.testing.assert_array_equal(base[..., mask], other[..., mask])
        assert np.any(base[..., target] != other[..., target])


class TestShapeInference:
    def test_full_scale_stage_list(self):
        stages = shape_inference(full_scale_config(num_classes=12))
        assert stages == [
            ("input", (64, 7, 7, 1024)),
            ("node_attention", (64, 7, 7, 128)),
            ("video_tensor", (64, 128, 7, 7, 1024)),
            ("graph_embedding_1", (21, 42, 7, 7, 1024)),
            ("graph_embedding_2", (7, 14, 7, 7, 1024)),
            ("classifier_input", 100352),
            ("scores", 12),
        ]

    def test_nine_pools_to_one(self):
        cfg = VideoGraphConfig(T=9, N=9, H=1, W=1, C=4, num_classes=2, t=3, n=3,
                               num_embedding_layers=2, classifier_hidden=8)
        stages = dict(shape_inference(cfg))
        assert stages["graph_embedding_2"][:2] == (1, 1)

    def test_axis_below_kernel_rejected(self):
        cfg = VideoGraphConfig(T=8, N=9, H=1, W=1, C=4, num_classes=2, t=3, n=3,
                               num_embedding_layers=2, classifier_hidden=8)
        with pytest.raises(ShapeError, match="layer 2.*time axis length 2"):
            shape_inference(cfg)

    def test_forward_matches_inference_stage_by_stage(self):
        cfg = VideoGraphConfig()
        model = VideoGraphModel(cfg)
        stages = dict(shape_inference(cfg))
        x = Tensor(np.random.default_rng(0).normal(size=(1,) + stages["input"]))
        embedded = model.embed(node_attention_forward(x, model.nodes, model.attention), "train")
        assert embedded.shape[1:] == stages["graph_embedding_1"]
        scores = model.forward_batch(x, mode="train")
        assert model.classifier_input_dim == stages["classifier_input"]
        assert scores.shape == (1, stages["scores"])


class TestInitStrategies:
    def test_random_is_reproducible_and_bounded(self):
        a = init_latent_nodes("random", 16, 32, seed=9)
        b = init_latent_nodes("random", 16, 32, seed=9)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a).max() < 10.0 / np.sqrt(32)

    def test_sobol_one_dimensional_values(self):
        # C=1 is below the 2-node floor for the model but the mapping itself
        # is specified: points 0.5, 0.75, 0.25 map affinely to 0, 0.5, -0.5
        out = init_latent_nodes("sobol", 3, 1, seed=0)
        np.testing.assert_array_equal(out.ravel(), [0.0, 0.5, -0.5])

    def test_sobol_reproducible(self):
        a = init_latent_nodes("sobol", 8, 16, seed=0)
        b = init_latent_nodes("sobol", 8, 16, seed=123)  # seed is irrelevant for sobol
        np.testing.assert_array_equal(a, b)
        assert np.all((a >= -1.0) & (a < 1.0))

    def test_kmeans_on_two_blobs(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(0, 1e-7, size=(40, 4)) + 5.0
        blob_b = rng.normal(0, 1e-7, size=(40, 4)) - 5.0
        sample = np.concatenate([blob_a, blob_b])
        out = init_latent_nodes("kmeans", 2, 4, seed=1, feature_sample=sample)
        means = sorted(out[:, 0])
        np.testing.assert_allclose(means, [-5.0, 5.0], atol=1e-6)

    def test_kmeans_requires_sample(self):
        with pytest.raises(ValueError, match="feature_sample"):
            init_latent_nodes("kmeans", 4, 8, seed=0)

    def test_kmeans_requires_enough_vectors(self):
        with pytest.raises(ValueError, match="at least 4"):
            init_latent_nodes("kmeans", 4, 2, seed=0, feature_sample=np.zeros((3, 2)))


class TestModelDeterminism:
    def test_eval_forward_bitwise_deterministic(self):
        cfg = VideoGraphConfig(seed=4)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 16, 1, 1, 16)))
        batch = Tensor(rng.normal(size=(4, 16, 1, 1, 16)))

        def fresh_scores():
            model = VideoGraphModel(VideoGraphConfig(seed=4))
            model.forward_batch(batch, mode="train")
            with tz.stop_recording():
                return model.forward_batch(x, mode="eval").data

        a, b = fresh_scores(), fresh_scores()
        np.testing.assert_array_equal(a, b)

    @given(st.sampled_from([VideoGraphModel, MeanPoolBaseline]), st.sampled_from([2, 3]),
           st.sampled_from([3, 5, 9, 11]), st.sampled_from([3, 5, 7]), st.sampled_from([1, 3]),
           st.sampled_from([1, 3]), st.integers(1, 9), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_eval_rows_independent_of_batch_composition(self, model_cls, num_classes, t_len,
                                                        n_len, h, w, videos, seed):
        cfg = VideoGraphConfig(T=t_len, N=n_len, H=h, W=w, C=5, num_classes=num_classes,
                               num_embedding_layers=1, classifier_hidden=16, seed=seed)
        model = model_cls(cfg)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(videos, t_len, h, w, 5))
        model.forward_batch(Tensor(rng.normal(size=x.shape)), mode="train")  # BN statistics

        def scores(batch):
            with tz.stop_recording():
                return model.forward_batch(Tensor(batch), mode="eval").data

        single = np.concatenate([scores(x[i:i + 1]) for i in range(videos)])
        cuts = np.sort(rng.choice(np.arange(1, videos), size=rng.integers(0, videos), replace=False))
        chunked = np.concatenate([scores(part) for part in np.split(x, cuts)])
        perm = rng.permutation(videos)
        permuted = np.empty_like(single)
        permuted[perm] = scores(x[perm])
        for batched in (scores(x), chunked, permuted):
            assert batched.tobytes() == single.tobytes()

    def test_desk_forward_is_finite(self):
        model = VideoGraphModel(VideoGraphConfig(num_classes=4))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 16, 1, 1, 16)))
        scores = model.forward_batch(x, mode="train")
        assert scores.shape == (2, 4)
        assert np.all(np.isfinite(scores.data))
        np.testing.assert_allclose(scores.data.sum(axis=1), 1.0, atol=1e-6)

    def test_single_video_forward(self):
        model = VideoGraphModel(VideoGraphConfig(num_classes=4))
        segments = Tensor(np.random.default_rng(2).normal(size=(1, 16, 1, 1, 16)))
        scores = model.forward_batch(segments, mode="train")
        assert scores.shape == (1, 4)
        assert np.all(np.isfinite(scores.data))


class TestModelSplit:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("config", [
        VideoGraphConfig(num_classes=4, seed=7),
        VideoGraphConfig(T=9, N=9, H=2, W=1, C=3, num_classes=3, t=3, n=3,
                         num_embedding_layers=2, classifier_hidden=5, seed=7)],
        ids=["desk", "two_layers"])
    def test_forward_batch_is_attention_embed_classify(self, config, mode):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, config.T, config.H, config.W, config.C)))
        warm = Tensor(rng.normal(size=x.shape))
        runs = []
        for composed in (False, True):
            model = VideoGraphModel(config)
            model.forward_batch(warm, mode="train")                 # BN statistics
            capture: list = []
            if composed:
                h = node_attention_forward(x, model.nodes, model.attention)
                scores = model.classify(model.embed(h, mode, capture), mode, capture)
            else:
                scores = model.forward_batch(x, mode=mode, capture=capture)
            stats = {name: (bn.running_mean.tobytes(), bn.running_var.tobytes())
                     for name, bn in model.bn_states().items()}
            runs.append((scores.data.tobytes(), [(h.shape, h.data.tobytes()) for h in capture],
                         stats))
        (scores, capture, stats), (scores_c, capture_c, stats_c) = runs
        # one batch-norm output per embedding layer, then the classifier's
        assert [len(shape) for shape, _ in capture] == [6] * config.num_embedding_layers + [2]
        assert scores_c == scores
        assert capture_c == capture
        assert stats_c == stats
