"""Gradient verification suite: finite differences vs the tape, op by op.

Each check draws fresh random shapes/values per seed, builds a scalar
function of one or more input tensors, and reports the worst relative error
from grad_check. Central differences are only meaningful at points of
differentiability, so draws are rejected when any relu input sits within a
margin of zero or any pooling window has a near-tied maximum.

The full-model checks finite-difference every parameter in one `grad_check`
call (about 7200 tape-less forwards at desk dims), each parameter against
the loss of its forward stage. `stage_losses` pairs each stage's parameters
with an eval-mode loss that starts at that stage: the attention parameters
with the whole forward, the embedding parameters with the embedding layers
and the head over the attention output, and the classifier parameters with
the head alone over the classifier input. Those two inputs are computed
once per check, so a perturbed head weight reruns only the head.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import tensor as tz
from .model import (GraphEmbeddingParams, NodeAttentionParams, VideoGraphConfig,
                    VideoGraphModel, graph_embedding_forward, node_attention_forward)
from .tensor import BatchNormState, Tensor, grad_check

GRAD_CHECK_THRESHOLD = 1e-4
# a kink only corrupts central differences when a pre-relu value or a
# pooling-window gap crosses zero within +-tz.FD_STEP (1e-5); sensitivities
# are O(1), so 1e-4 clears that crossing band with an order of magnitude to spare
RELU_MARGIN = 1e-4
POOL_GAP_MARGIN = 1e-4
# FD noise on the loss is a few ulps (~1e-11 after dividing by 2 * tz.FD_STEP);
# a true gradient below this floor cannot be certified at GRAD_CHECK_THRESHOLD, so
# draws containing such components are rejected up front. Components whose
# gradient is exactly zero are fine: the loss is bitwise independent of
# them, so central differences return exactly zero too.
LIVE_GRADIENT_FLOOR = 5e-7
MAX_DRAW_ATTEMPTS = 50


@dataclass
class GradCheckResult:
    name: str
    max_error: float

    @property
    def passed(self) -> bool:
        return self.max_error <= GRAD_CHECK_THRESHOLD


def _away_from_zero(arr: np.ndarray, margin: float = 0.1) -> np.ndarray:
    return arr + margin * np.sign(arr) + (arr == 0) * margin


def _distinct_values(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Values with pairwise gaps well above the FD step, for max pooling."""
    size = int(np.prod(shape))
    base = rng.permutation(size) * 0.1
    return (base + rng.uniform(-0.01, 0.01, size)).reshape(shape)


def _min_pool_gap(arr: np.ndarray, axes: tuple) -> float:
    """Smallest (max - runner-up) over the `max_pool` windows whose max is positive.

    The relu after the pool blocks gradient flow through the other windows.
    """
    rows = tz.pool_windows(arr, axes).flat()
    top2 = np.sort(rows.reshape(-1, rows.shape[-1]), axis=1)[:, -2:]
    gaps = top2[:, 1] - top2[:, 0]
    live = top2[:, 1] > 0
    return float(gaps[live].min()) if live.any() else np.inf


def _margins_ok(bn_outputs: list[Tensor]) -> bool:
    """Whether every batch-norm output (a relu input) clears RELU_MARGIN, and
    every live pool window of the 6-D graph-embedding ones POOL_GAP_MARGIN."""
    for h in bn_outputs:
        if np.abs(h.data).min() < RELU_MARGIN:
            return False
        if h.ndim == 6 and _min_pool_gap(h.data, (1, 2)) < POOL_GAP_MARGIN:
            return False
    return True


def _sum_all(x: Tensor) -> Tensor:
    return tz.mean(tz.reshape(x, (x.size,)), axes=0)


def check_matmul(rng):
    m, k, p = rng.integers(1, 5, size=3)
    a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
    b = Tensor(rng.normal(size=(k, p)), requires_grad=True)
    return grad_check(lambda: _sum_all(tz.matmul(a, b)), [a, b])


def check_add_mul(rng):
    a = Tensor(rng.normal(size=(3, 1, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    return grad_check(lambda: _sum_all(tz.mul(tz.add(a, b), b)), [a, b])


def check_reshape_transpose_mean(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

    def f():
        h = tz.transpose(tz.reshape(x, (4, 3, 2)), (2, 0, 1))
        return tz.mean(tz.mean(h, axes=(1, 2)), axes=0)

    return grad_check(f, [x])


def check_mean_exact(rng):
    x = Tensor(rng.normal(size=(2, 3, 2, 2, 4)), requires_grad=True)
    return grad_check(lambda: _sum_all(tz.mean_exact(x, axes=(1, 2, 3))), [x])


def check_relu(rng):
    x = Tensor(_away_from_zero(rng.normal(size=(3, 4))), requires_grad=True)
    return grad_check(lambda: _sum_all(tz.relu(x)), [x])


def check_sigmoid(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    return grad_check(lambda: _sum_all(tz.mul(tz.sigmoid(x), x)), [x])


def check_tanh(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    return grad_check(lambda: _sum_all(tz.mul(tz.tanh(x), x)), [x])


def check_softmax(rng):
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))
    return grad_check(lambda: _sum_all(tz.mul(tz.softmax(x, axis=1), w)), [x])


def check_depthwise_conv(rng):
    t_len, channels, k = int(rng.integers(4, 9)), int(rng.integers(2, 5)), int(rng.choice([3, 5, 7]))
    x = Tensor(rng.normal(size=(t_len, 3, channels)), requires_grad=True)
    kern = Tensor(rng.normal(size=(channels, k)), requires_grad=True)
    axis = int(rng.integers(0, 2))
    w = Tensor(rng.normal(size=(t_len, 3, channels)))
    return grad_check(lambda: _sum_all(tz.mul(tz.depthwise_conv1d(x, axis, kern), w)),
                      [x, kern])


def check_max_pool(rng):
    x = Tensor(_distinct_values(rng, (7, 8, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 2)))
    return grad_check(lambda: _sum_all(tz.mul(tz.max_pool(x, (0, 1)), w)), [x])


def check_batch_norm_train(rng):
    channels = 3
    x = Tensor(rng.normal(size=(4, 2, channels)), requires_grad=True)
    state = BatchNormState(channels)
    state.gamma = Tensor(rng.normal(size=channels) + 1.5, requires_grad=True)
    state.beta = Tensor(rng.normal(size=channels), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2, channels)))
    return grad_check(lambda: _sum_all(tz.mul(tz.batch_norm(x, state, mode="train"), w)),
                      [x, state.gamma, state.beta])


def check_batch_norm_eval(rng):
    channels = 3
    x = Tensor(rng.normal(size=(4, channels)), requires_grad=True)
    state = BatchNormState(channels)
    state.running_mean = rng.normal(size=channels)
    state.running_var = rng.uniform(0.5, 2.0, size=channels)
    state.initialized = True
    return grad_check(lambda: _sum_all(tz.batch_norm(x, state, mode="eval")),
                      [x, state.gamma, state.beta])


def check_loss_single(rng):
    batch, k = 4, 5
    logits = Tensor(rng.normal(size=(batch, k)), requires_grad=True)
    targets = rng.integers(0, k, size=batch)
    return grad_check(lambda: tz.loss(tz.softmax(logits, axis=1), targets, "single"),
                      [logits])


def check_loss_multi(rng):
    batch, k = 3, 4
    logits = Tensor(rng.normal(size=(batch, k)), requires_grad=True)
    targets = rng.integers(0, 2, size=(batch, k))
    return grad_check(lambda: tz.loss(tz.sigmoid(logits), targets, "multi"),
                      [logits])


def check_node_attention(rng):
    h, w, c = 2, 2, 4
    n = 3
    x = Tensor(rng.normal(size=(1, 1, h, w, c)), requires_grad=True)
    nodes = Tensor(rng.normal(size=(n, c)), requires_grad=True)
    params = NodeAttentionParams(c, "sigmoid", rng)
    weight = Tensor(rng.normal(size=(1, 1, n, h, w, c)))
    return grad_check(
        lambda: _sum_all(tz.mul(node_attention_forward(x, nodes, params), weight)),
        [x, nodes, params.weight, params.bias])


def _smallest_live_gradient(f, tensors) -> float:
    """Smallest nonzero |analytic gradient| component across tensors."""
    smallest = np.inf
    for grad in tz.tape_gradients(f, tensors):
        live = np.abs(grad[grad != 0.0])
        if live.size:
            smallest = min(smallest, float(live.min()))
    return smallest


def check_graph_embedding(rng):
    for _ in range(MAX_DRAW_ATTEMPTS):
        draw = np.random.default_rng(rng.integers(1 << 62))
        t_len, n_len, c = 4, 3, 3
        x = Tensor(draw.normal(size=(1, t_len, n_len, 1, 1, c)), requires_grad=True)
        params = GraphEmbeddingParams(c, 3, 3, draw)
        w = Tensor(draw.normal(size=(1, t_len // 3, n_len // 3, 1, 1, c)))
        tensors = [x, params.time_kernels, params.node_kernels, params.channel_mixer,
                   params.bn.gamma, params.bn.beta]

        def f(capture=None):
            out = graph_embedding_forward(x, params, "train", capture=capture)
            return _sum_all(tz.mul(out, w))

        capture: list = []
        with tz.stop_recording():
            f(capture)
        if not _margins_ok(capture):
            continue
        return grad_check(f, tensors)
    raise RuntimeError("no well-conditioned draw for graph embedding check")


def stage_losses(model: VideoGraphModel, x: Tensor,
                 targets: np.ndarray) -> list[tuple[list[Tensor], Callable[[], Tensor]]]:
    """(parameter group, eval-mode loss) for the attention, embedding and classifier stages.

    The embedding loss starts from the attention output and the classifier
    loss from the classifier input, both computed here once. The groups
    partition `model.named_parameters()` in order, and each loss is bitwise
    the full eval-mode loss while only its own group changes: eval mode
    reads the batch-norm running statistics but never writes them.
    """
    with tz.stop_recording():
        video = node_attention_forward(x, model.nodes, model.attention)
        head_input = model.classifier_input(model.embed(video, "eval"))

    def group(*prefixes: str) -> list[Tensor]:
        return [p for name, p in model.named_parameters().items() if name.startswith(prefixes)]

    def loss(scores: Tensor) -> Tensor:
        return tz.loss(scores, targets, model.config.label_mode)

    return [
        (group("nodes", "attention."), lambda: loss(model.forward_batch(x, mode="eval"))),
        (group("embed"), lambda: loss(model.classify(model.embed(video, "eval"), "eval"))),
        (group("classifier."),
         lambda: loss(model.classifier.forward(head_input, "eval", model.config.label_mode))),
    ]


def _model_loss_check(config: VideoGraphConfig, rng, batch: int) -> float:
    """Full forward+loss gradients over every parameter, eval mode.

    One train pass populates the batch-norm running statistics; the check
    then finite-differences the frozen network in one `grad_check` call over
    every parameter, each parameter against the loss of its `stage_losses`
    pair. A perturbed head weight reruns only the head, a perturbed
    embedding weight the embedding layers and the head, and only attention
    parameters rerun the whole forward. Each stage's tape gradients come
    from the same backward ops on the same values as the full forward's, so
    the errors are bitwise those of checking every parameter against the
    full forward.

    Train mode is deliberately not finite-differenced end to end: train-mode
    batch norm constrains its input gradients to sum to zero over the batch,
    which can push individual true gradients below the FD noise floor. Those
    train-mode gradients are covered by the per-op and per-block checks.
    """
    for _ in range(MAX_DRAW_ATTEMPTS):
        draw = np.random.default_rng(rng.integers(1 << 62))
        model = VideoGraphModel(replace(config, seed=int(draw.integers(1 << 31))))
        x = Tensor(draw.normal(size=(batch, config.T, config.H, config.W, config.C)))
        targets = draw.integers(0, config.num_classes, size=batch)
        params = model.named_parameters()

        def f(mode="eval", capture=None):
            scores = model.forward_batch(x, mode=mode, capture=capture)
            return tz.loss(scores, targets, model.config.label_mode)

        eval_capture: list = []
        with tz.stop_recording():
            f(mode="train")            # populates BN running stats
            f(capture=eval_capture)
        if not _margins_ok(eval_capture):
            continue
        if _smallest_live_gradient(f, list(params.values())) < LIVE_GRADIENT_FLOOR:
            continue

        stages = stage_losses(model, x, targets)
        return grad_check([loss for group, loss in stages for _ in group],
                          [t for group, _ in stages for t in group])
    raise RuntimeError("no well-conditioned draw for the full-model check")


MICRO_MODEL_CONFIG = VideoGraphConfig(T=6, N=4, H=1, W=1, C=5, num_classes=3, t=3, n=3,
                                      num_embedding_layers=1, classifier_hidden=6)
DESK_MODEL_CONFIG = VideoGraphConfig(classifier_hidden=16)


# batch of 2: classifier batch norm over a single sample has zero variance,
# which parks every hidden unit exactly on the relu kink
def check_full_model_micro(rng):
    return _model_loss_check(MICRO_MODEL_CONFIG, rng, batch=2)


def check_full_model_desk(rng):
    return _model_loss_check(DESK_MODEL_CONFIG, rng, batch=2)


OP_CHECKS = [
    ("matmul", check_matmul),
    ("add_mul_broadcast", check_add_mul),
    ("reshape_transpose_mean", check_reshape_transpose_mean),
    ("mean_exact", check_mean_exact),
    ("relu", check_relu),
    ("sigmoid", check_sigmoid),
    ("tanh", check_tanh),
    ("softmax", check_softmax),
    ("depthwise_conv1d", check_depthwise_conv),
    ("max_pool", check_max_pool),
    ("batch_norm_train", check_batch_norm_train),
    ("batch_norm_eval", check_batch_norm_eval),
    ("loss_single_label_ce", check_loss_single),
    ("loss_multi_label_bce", check_loss_multi),
    ("node_attention_block", check_node_attention),
    ("graph_embedding_layer", check_graph_embedding),
    ("full_model_micro", check_full_model_micro),
]

MODEL_CHECKS = [("full_model_desk", check_full_model_desk)]


def run_gradient_suite(seed: int = 0, num_seeds: int = 10,
                       include_desk_model: bool = True) -> list[GradCheckResult]:
    """Run every check over num_seeds random draws; the desk-dims full-model
    check runs once (it finite-differences every parameter of the model)."""
    results = []
    for check_id, (name, fn) in enumerate(OP_CHECKS):
        worst = 0.0
        for s in range(num_seeds):
            rng = np.random.default_rng((seed, s, check_id))
            worst = max(worst, fn(rng))
        results.append(GradCheckResult(name, worst))
    if include_desk_model:
        for check_id, (name, fn) in enumerate(MODEL_CHECKS, start=len(OP_CHECKS)):
            rng = np.random.default_rng((seed, 0, check_id))
            results.append(GradCheckResult(name, fn(rng)))
    return results
