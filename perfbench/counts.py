"""Computed operation counts: forward FLOPs and bytes per stage and per kernel.

Nothing here runs the model. Stage shapes come from
`videograph.model.shape_inference`, so the full-scale configuration (whose
float64 video tensor alone is about 3.3 GB) is counted without allocating it.
Every number is labelled "computed": it is arithmetic on shapes, not a
measurement.

Conventions, all forward pass, float64 (8 bytes per value):
  * a multiply-add counts as 2 FLOPs;
  * depthwise_conv1d: 2 * k per output value (k taps);
  * matmul (m, k) x (k, p): 2 * m * k * p;
  * batch_norm: 8 per value in train mode (mean, variance, normalise,
    affine), 4 in eval mode (normalise, affine);
  * max_pool: one comparison per value inside a full window;
  * bytes: the stage's output tensor.
"""

from __future__ import annotations

import math

KERNELS = ("depthwise_conv1d", "matmul", "batch_norm", "max_pool")
BYTES_PER_VALUE = 8
BN_FLOPS_PER_VALUE = {"train": 8, "eval": 4}


def conv_flops(size: int, k: int) -> int:
    return 2 * k * size


def matmul_flops(m: int, k: int, p: int) -> int:
    return 2 * m * k * p


def batch_norm_flops(size: int, mode: str) -> int:
    return BN_FLOPS_PER_VALUE[mode] * size


def max_pool_flops(out_size: int, window: int) -> int:
    return out_size * window


def stage_counts(config, bn_mode: str = "train") -> list[dict]:
    """Per-stage forward FLOPs (split by kernel) and output bytes for one video."""
    from videograph.model import POOL_KERNEL, shape_inference

    shapes = dict(shape_inference(config))
    T, N, H, W, C = config.T, config.N, config.H, config.W, config.C
    positions = T * H * W
    stages = []

    def add(name, shape, values, **kernel_flops):
        flops = {k: int(kernel_flops.get(k, 0)) for k in KERNELS}
        flops["other"] = int(kernel_flops.get("other", 0))
        stages.append({"stage": name, "shape": list(shape) if isinstance(shape, tuple) else shape,
                       "flops": flops, "bytes": int(values) * BYTES_PER_VALUE})

    add("input", shapes["input"], positions * C)
    # transformed nodes (N, C) x (C, C) plus bias, then similarities and sigma
    add("node_attention", shapes["node_attention"], positions * N,
        matmul=matmul_flops(N, C, C) + matmul_flops(positions, C, N),
        other=N * C + positions * N)
    video = T * N * H * W * C
    add("video_tensor", shapes["video_tensor"], video, other=video)
    t_len, n_len = T, N
    for layer in range(1, config.num_embedding_layers + 1):
        size = t_len * n_len * H * W * C
        t_out, n_out = t_len // POOL_KERNEL, n_len // POOL_KERNEL
        out = t_out * n_out * H * W * C
        add(f"graph_embedding_{layer}", shapes[f"graph_embedding_{layer}"], out,
            depthwise_conv1d=conv_flops(size, config.t) + conv_flops(size, config.n),
            matmul=matmul_flops(size // C, C, C),
            batch_norm=batch_norm_flops(size, bn_mode),
            max_pool=max_pool_flops(out, POOL_KERNEL ** 2),
            other=2 * size)                      # channel bias, relu
        t_len, n_len = t_out, n_out
    dim = shapes["classifier_input"]
    add("classifier_input", dim, dim, other=t_len * n_len * H * W * C)   # spatial mean
    hidden, k = config.classifier_hidden, config.num_classes
    add("scores", shapes["scores"], k,
        matmul=matmul_flops(1, dim, hidden) + matmul_flops(1, hidden, k),
        batch_norm=batch_norm_flops(hidden, bn_mode),
        other=hidden + 4 * k)                    # relu, bias, softmax
    return stages


def kernel_shares(stages: list[dict]) -> dict[str, float]:
    """Share of all forward FLOPs that each kernel (and "other") accounts for."""
    totals = {}
    for stage in stages:
        for name, flops in stage["flops"].items():
            totals[name] = totals.get(name, 0) + flops
    grand = sum(totals.values())
    return {name: value / grand for name, value in totals.items()}


def report(configs: dict) -> dict:
    """Computed counts for each named config: stages, totals and kernel shares."""
    out = {"label": "computed from shape_inference (forward pass, float64), not measured"}
    for name, config in configs.items():
        stages = stage_counts(config)
        out[name] = {
            "stages": stages,
            "total_mflop": sum(sum(s["flops"].values()) for s in stages) / 1e6,
            "peak_stage_mb": max(s["bytes"] for s in stages) / 1e6,
            "kernel_share": kernel_shares(stages),
        }
    return out


def kernel_call_flops(kernel: str, args: tuple, kwargs: dict, out_shape: tuple) -> int:
    """Forward FLOPs of one traced kernel call, from its argument shapes."""
    size_out = math.prod(out_shape)
    if kernel == "depthwise_conv1d":
        kernels = args[2] if len(args) > 2 else kwargs["kernels"]
        return conv_flops(size_out, kernels.shape[1])
    if kernel == "matmul":
        a, b = args[0], args[1]
        return matmul_flops(a.shape[0], a.shape[1], b.shape[1])
    if kernel == "batch_norm":
        mode = args[3] if len(args) > 3 else kwargs["mode"]
        return batch_norm_flops(size_out, mode)
    if kernel == "max_pool":
        axes = args[1] if len(args) > 1 else kwargs["axes"]
        kernel_len = args[2] if len(args) > 2 else kwargs.get("kernel", 3)
        m = len(axes) if isinstance(axes, (tuple, list)) else 1
        return max_pool_flops(size_out, kernel_len ** m)
    raise KeyError(kernel)
