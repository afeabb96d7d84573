"""The video-graph network and its orderless mean-pool counterpart.

A video is T segment features of shape (H, W, C). A node attention block
scores every spatial position against N learned latent nodes and re-expresses
each segment in node space; stacked over time this gives the 5-D video tensor
with axis order [timesteps, nodes, height, width, channels]. Graph embedding
layers then run a per-channel convolution along time, another along the node
axis, a 1x1 channel-mixing convolution, batch norm, relu, and a 3x3
non-overlapping max pool over the time and node axes. A two-layer classifier
head maps the spatially averaged, flattened result to class scores. Neither
the channel mixer nor the head's first layer has a bias: batch norm follows
each directly and would cancel it.

Every block is batch-first: the model's one forward path takes a batch of
videos (B, T, H, W, C), and a single video is a batch of one.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import tensor as tz
from .kmeans import kmeans
from .sobol import SobolSequence
from .tensor import POOL_KERNEL, BatchNormState, ShapeError, Tensor

# Feature values per eval-mode forward call when scoring many videos: 32 desk
# videos (16 x 16 values each), or 3 at H = W = 3. Sized by values, not
# videos, so that peak memory stays flat across grid sizes.
EVAL_VALUES_PER_CALL = 8192

SIGMA_KINDS = ("sigmoid", "softmax_over_nodes", "tanh")
INIT_STRATEGIES = ("random", "sobol", "kmeans")
LABEL_MODES = ("single", "multi")


def check_types(config) -> None:
    """Raise ValueError naming the first field of a config dataclass whose value
    is not of its annotated type. A bool is not an int; an int is a float.
    """
    for name, want in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        allowed = (int, float) if want is float else want
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"config key {name!r} must be "
                             f"{getattr(want, '__name__', want)}; got {value!r}")


@dataclass
class VideoGraphConfig:
    """Model dimensions and wiring; the defaults are the desk preset.

    The desk preset trains in seconds on a laptop core. N=8 only survives
    one round of /3 pooling, so it uses a single graph embedding layer.
    """

    T: int = 16
    N: int = 8
    H: int = 1
    W: int = 1
    C: int = 16
    num_classes: int = 4
    t: int = 7
    n: int = 7
    num_embedding_layers: int = 1
    classifier_hidden: int = 64
    label_mode: str = "single"
    sigma_kind: str = "sigmoid"
    init_strategy: str = "random"
    seed: int = 0

    def validate(self) -> None:
        check_types(self)
        for name in ("T", "N", "H", "W", "C", "num_classes", "classifier_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be positive")
        if self.t % 2 == 0 or self.n % 2 == 0:
            raise ValueError(f"kernel sizes must be odd; got t={self.t}, n={self.n}")
        if self.num_embedding_layers < 1:
            raise ValueError("need at least one graph embedding layer")
        if self.label_mode not in LABEL_MODES:
            raise ValueError(f"label_mode must be one of {LABEL_MODES}")
        if self.sigma_kind not in SIGMA_KINDS:
            raise ValueError(f"sigma_kind must be one of {SIGMA_KINDS}")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ValueError(f"init_strategy must be one of {INIT_STRATEGIES}")

    def to_dict(self) -> dict:
        return asdict(self)


MODEL_FIELDS = tuple(f.name for f in fields(VideoGraphConfig))


def eval_chunks(features) -> list[slice]:
    """Slices of a list of same-shaped videos, one eval-mode forward call each.

    A call holds EVAL_VALUES_PER_CALL feature values, and at least one video.
    """
    step = max(1, EVAL_VALUES_PER_CALL // features[0].size) if len(features) else 1
    return [slice(start, start + step) for start in range(0, len(features), step)]


def full_scale_config(num_classes: int = 12) -> VideoGraphConfig:
    """Full-scale configuration (for shape inference; do not allocate)."""
    return VideoGraphConfig(T=64, N=128, H=7, W=7, C=1024, num_classes=num_classes,
                            num_embedding_layers=2, classifier_hidden=512)


# ---------------------------------------------------------------------------
# Shape inference


def shape_inference(config: VideoGraphConfig) -> list[tuple[str, object]]:
    """Symbolic per-stage shapes for a config, without allocating anything.

    Raises ShapeError where the real forward would: a pooled axis shorter
    than the pooling kernel, or any axis reaching zero.
    """
    config.validate()
    stages: list[tuple[str, object]] = [
        ("input", (config.T, config.H, config.W, config.C)),
        ("node_attention", (config.T, config.H, config.W, config.N)),
        ("video_tensor", (config.T, config.N, config.H, config.W, config.C)),
    ]
    t_len, n_len = config.T, config.N
    for layer in range(1, config.num_embedding_layers + 1):
        if t_len < POOL_KERNEL:
            raise ShapeError(f"graph embedding layer {layer}: time axis length {t_len} "
                             f"is below the pooling kernel {POOL_KERNEL}")
        if n_len < POOL_KERNEL:
            raise ShapeError(f"graph embedding layer {layer}: node axis length {n_len} "
                             f"is below the pooling kernel {POOL_KERNEL}")
        t_len //= POOL_KERNEL
        n_len //= POOL_KERNEL
        stages.append((f"graph_embedding_{layer}", (t_len, n_len, config.H, config.W, config.C)))
    stages.append(("classifier_input", t_len * n_len * config.C))
    stages.append(("scores", config.num_classes))
    return stages


# ---------------------------------------------------------------------------
# Initialization


def fan_in_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def init_latent_nodes(strategy: str, n_nodes: int, channels: int, seed: int,
                      feature_sample: np.ndarray | None = None) -> np.ndarray:
    """Initial latent node matrix (n_nodes, channels) for a given strategy.

    random: i.i.d. normal with std 1/sqrt(channels).
    sobol: first n_nodes points of a channels-dimensional Sobol sequence,
        mapped affinely from [0,1) to [-1,1).
    kmeans: centroids of the supplied feature sample (one row per vector).
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if strategy == "random":
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, 1.0 / np.sqrt(channels), size=(n_nodes, channels))
    if strategy == "sobol":
        return SobolSequence(channels).take(n_nodes) * 2.0 - 1.0
    if strategy == "kmeans":
        if feature_sample is None:
            raise ValueError("kmeans initialization requires a feature_sample")
        sample = np.asarray(feature_sample, dtype=np.float64)
        if sample.ndim != 2 or sample.shape[1] != channels:
            raise ValueError(f"feature_sample must be (M, {channels}); got {sample.shape}")
        if sample.shape[0] < n_nodes:
            raise ValueError(f"feature_sample has {sample.shape[0]} vectors, "
                             f"need at least {n_nodes}")
        return kmeans(sample, n_nodes, seed=seed)
    raise ValueError(f"unknown init strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Parameter groups


ATTENTION_ANCHOR_SCALE = 3.0


class NodeAttentionParams:
    """Affine node transform (weight, bias) plus the similarity nonlinearity.

    The bias starts as a shared anchor (a constant vector dominating the
    transformed rows), so all nodes begin nearly aligned and are pulled apart
    by training as they specialize.
    """

    def __init__(self, channels: int, sigma_kind: str, rng: np.random.Generator):
        self.weight = Tensor(fan_in_uniform(rng, (channels, channels), channels), requires_grad=True)
        self.bias = Tensor(np.full((1, channels), ATTENTION_ANCHOR_SCALE / np.sqrt(channels)),
                           requires_grad=True)
        self.sigma_kind = sigma_kind


class GraphEmbeddingParams:
    """Kernel banks for one graph embedding layer.

    The channel mixer carries no bias: batch norm directly after it would
    cancel any per-channel shift anyway.
    """

    def __init__(self, channels: int, t: int, n: int, rng: np.random.Generator):
        self.time_kernels = Tensor(fan_in_uniform(rng, (channels, t), t), requires_grad=True)
        self.node_kernels = Tensor(fan_in_uniform(rng, (channels, n), n), requires_grad=True)
        self.channel_mixer = Tensor(fan_in_uniform(rng, (channels, channels), channels), requires_grad=True)
        self.bn = BatchNormState(channels)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.time_kernels": self.time_kernels,
            f"{prefix}.node_kernels": self.node_kernels,
            f"{prefix}.channel_mixer": self.channel_mixer,
            f"{prefix}.bn.gamma": self.bn.gamma,
            f"{prefix}.bn.beta": self.bn.beta,
        }


class ClassifierHead:
    """Two fully connected layers with batch norm and relu in between.

    The first layer carries no bias: batch norm directly after it would
    cancel any per-feature shift anyway. Its products are the only ones in
    the model whose row count is the number of videos, so both take each
    video's row on its own: eval-mode scores do not depend on the batch.
    """

    def __init__(self, input_dim: int, hidden: int, num_classes: int, rng: np.random.Generator):
        self.fc1_weight = Tensor(fan_in_uniform(rng, (input_dim, hidden), input_dim), requires_grad=True)
        self.bn = BatchNormState(hidden)
        self.fc2_weight = Tensor(fan_in_uniform(rng, (hidden, num_classes), hidden), requires_grad=True)
        self.fc2_bias = Tensor(np.zeros((1, num_classes)), requires_grad=True)

    def forward(self, x: Tensor, mode: str, label_mode: str, capture: list | None = None) -> Tensor:
        h = tz.matmul(x, self.fc1_weight, independent_rows=True)
        h = tz.batch_norm(h, self.bn, mode=mode)
        if capture is not None:
            capture.append(h)
        h = tz.relu(h)
        logits = tz.add(tz.matmul(h, self.fc2_weight, independent_rows=True), self.fc2_bias)
        if label_mode == "single":
            return tz.softmax(logits, axis=1)
        return tz.sigmoid(logits)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.fc1.weight": self.fc1_weight,
            f"{prefix}.bn.gamma": self.bn.gamma,
            f"{prefix}.bn.beta": self.bn.beta,
            f"{prefix}.fc2.weight": self.fc2_weight,
            f"{prefix}.fc2.bias": self.fc2_bias,
        }


# ---------------------------------------------------------------------------
# Functional blocks


def transformed_nodes(nodes: Tensor, params: NodeAttentionParams) -> Tensor:
    """Row-wise affine transform of the latent node matrix."""
    return tz.add(tz.matmul(nodes, tz.transpose(params.weight, (1, 0))), params.bias)


def _apply_sigma(similarities: Tensor, sigma_kind: str, node_axis: int) -> Tensor:
    if sigma_kind == "softmax_over_nodes":
        return tz.softmax(similarities, axis=node_axis)
    return tz.activation(similarities, sigma_kind)


def node_attention_forward(x: Tensor, nodes: Tensor, params: NodeAttentionParams) -> Tensor:
    """Attend every segment of a batch of videos (B, T, H, W, C) to every node.

    Returns the video tensors (B, T, N, H, W, C) where slice [:, :, j] is the
    transformed node j weighted by its similarity to each spatial position.
    """
    x = tz.as_tensor(x)
    if x.ndim != 5:
        raise ShapeError(f"batch must be (B, T, H, W, C); got {x.shape}")
    b, t, h, w, c = x.shape
    if nodes.shape[1] != c:
        raise ShapeError(f"channel mismatch: feature has {c} channels, nodes have {nodes.shape[1]}")
    n = nodes.shape[0]
    y_hat = transformed_nodes(nodes, params)
    flat = tz.reshape(x, (b * t * h * w, c))
    sims = tz.matmul(flat, tz.transpose(y_hat, (1, 0)))          # (B*T*H*W, N)
    alpha = _apply_sigma(sims, params.sigma_kind, node_axis=1)
    alpha = tz.reshape(alpha, (b, t, h, w, n))
    alpha = tz.transpose(alpha, (0, 1, 4, 2, 3))                 # (B, T, N, H, W)
    return tz.mul(tz.reshape(alpha, (b, t, n, h, w, 1)), tz.reshape(y_hat, (1, 1, n, 1, 1, c)))


def graph_embedding_forward(h: Tensor, params: GraphEmbeddingParams, mode: str,
                            capture: list | None = None) -> Tensor:
    """One graph embedding layer over video tensors (B, T, N, H, W, C).

    Conv along time, conv along nodes, channel mix, BN, relu, 3x3 pool.
    The pool runs before the relu: relu is monotone, so relu(max) is the
    max of the relu'd window, and both orders route a window's gradient to
    its first maximum when that is positive and pass zero otherwise. The
    relu then touches at most a ninth of the values. A `capture` list
    receives the batch-norm output.
    """
    h = tz.as_tensor(h)
    if h.ndim != 6:
        raise ShapeError(f"video tensors must be (B, T, N, H, W, C); got {h.shape}")
    channels = h.shape[-1]
    h = tz.depthwise_conv1d(h, 1, params.time_kernels)
    h = tz.depthwise_conv1d(h, 2, params.node_kernels)
    flat = tz.matmul(tz.reshape(h, (-1, channels)), params.channel_mixer)
    h = tz.reshape(flat, h.shape)
    h = tz.batch_norm(h, params.bn, mode=mode)
    if capture is not None:
        capture.append(h)
    return tz.relu(tz.max_pool(h, (1, 2)))


# ---------------------------------------------------------------------------
# Models


class VideoGraphModel:
    def __init__(self, config: VideoGraphConfig, feature_sample: np.ndarray | None = None):
        stages = shape_inference(config)   # validates the config first
        self.config = config
        self.classifier_input_dim = next(v for k, v in stages if k == "classifier_input")

        rng = np.random.default_rng(config.seed)
        self.nodes = Tensor(
            init_latent_nodes(config.init_strategy, config.N, config.C, config.seed,
                              feature_sample=feature_sample),
            requires_grad=True)
        self.attention = NodeAttentionParams(config.C, config.sigma_kind, rng)
        self.embeddings = [GraphEmbeddingParams(config.C, config.t, config.n, rng)
                           for _ in range(config.num_embedding_layers)]
        self.classifier = ClassifierHead(self.classifier_input_dim, config.classifier_hidden,
                                         config.num_classes, rng)

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        params = {"nodes": self.nodes,
                  "attention.weight": self.attention.weight,
                  "attention.bias": self.attention.bias}
        for i, emb in enumerate(self.embeddings):
            params.update(emb.named_parameters(f"embed{i}"))
        params.update(self.classifier.named_parameters("classifier"))
        return params

    def bn_states(self) -> dict[str, BatchNormState]:
        states = {f"embed{i}.bn": emb.bn for i, emb in enumerate(self.embeddings)}
        states["classifier.bn"] = self.classifier.bn
        return states

    def transformed_nodes_array(self) -> np.ndarray:
        with tz.stop_recording():
            return transformed_nodes(self.nodes, self.attention).data

    # -- forward passes -------------------------------------------------------

    def forward_batch(self, x: Tensor, mode: str = "train", capture: list | None = None) -> Tensor:
        """Scores for a batch of videos (B, T, H, W, C) -> (B, num_classes); a
        `capture` list receives each batch-norm output in forward order."""
        x = tz.as_tensor(x)
        cfg = self.config
        if x.ndim != 5 or x.shape[1:] != (cfg.T, cfg.H, cfg.W, cfg.C):
            raise ShapeError(f"expected batch shaped (B, {cfg.T}, {cfg.H}, {cfg.W}, {cfg.C}); "
                             f"got {x.shape}")
        # no local name for the video tensor: embed holds the only reference
        # and drops it after the first layer, as a single loop over h would
        h = self.embed(node_attention_forward(x, self.nodes, self.attention), mode, capture)
        return self.classify(h, mode, capture)

    def embed(self, h: Tensor, mode: str, capture: list | None = None) -> Tensor:
        """Graph embedding layers: video tensors (B, T, N, H, W, C) -> (B, T', N', H, W, C)."""
        for emb in self.embeddings:
            h = graph_embedding_forward(h, emb, mode, capture=capture)
        return h

    def classify(self, h: Tensor, mode: str, capture: list | None = None) -> Tensor:
        """Classifier head over embedded video tensors -> scores (B, num_classes)."""
        return self.classifier.forward(self.classifier_input(h), mode, self.config.label_mode,
                                       capture=capture)

    def classifier_input(self, h: Tensor) -> Tensor:
        """Spatial mean and flatten: embedded video tensors -> (B, classifier_input_dim)."""
        pooled = tz.mean(h, axes=(3, 4))                           # (B, T', N', C)
        return tz.reshape(pooled, (h.shape[0], self.classifier_input_dim))


class MeanPoolBaseline:
    """Orderless control model: average features over time and space, classify.

    The average sorts the pooled values before summing them (`mean_exact`),
    so any permutation of the time axis produces bit-identical scores.
    """

    def __init__(self, config: VideoGraphConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.classifier = ClassifierHead(config.C, config.classifier_hidden,
                                         config.num_classes, rng)

    def named_parameters(self) -> dict[str, Tensor]:
        return self.classifier.named_parameters("classifier")

    def bn_states(self) -> dict[str, BatchNormState]:
        return {"classifier.bn": self.classifier.bn}

    def forward_batch(self, x: Tensor, mode: str = "train", capture: list | None = None) -> Tensor:
        x = tz.as_tensor(x)
        if x.ndim != 5:
            raise ShapeError(f"expected batch shaped (B, T, H, W, C); got {x.shape}")
        pooled = tz.mean_exact(x, axes=(1, 2, 3))                  # (B, C)
        return self.classifier.forward(pooled, mode, self.config.label_mode)


MODEL_TYPES = {"videograph": VideoGraphModel, "mean_pool": MeanPoolBaseline}


def model_type_name(model) -> str:
    for name, cls in MODEL_TYPES.items():
        if isinstance(model, cls):
            return name
    raise TypeError(f"unknown model type {type(model)!r}")
