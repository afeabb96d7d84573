"""Graph-inspired temporal model for long-range activity recognition.

The package bundles a minimal reverse-mode autodiff core, the node-attention
and graph-embedding model, a synthetic structured-activity generator, a
training/evaluation harness, and graph-extraction analyses, all runnable at
desk scale.

The model blocks ``node_attention_forward`` and ``graph_embedding_forward``
take a leading batch axis; a single video is a batch of one.
"""

from .tensor import Tensor, Tape, ShapeError, grad_check
from .model import (VideoGraphConfig, VideoGraphModel, MeanPoolBaseline,
                    full_scale_config, shape_inference, init_latent_nodes,
                    node_attention_forward, graph_embedding_forward)
from .training import RunConfig, MetricLog, train, evaluate
from .metrics import mean_average_precision, accuracy

__all__ = [
    "Tensor", "Tape", "ShapeError", "grad_check",
    "VideoGraphConfig", "VideoGraphModel", "MeanPoolBaseline",
    "full_scale_config", "shape_inference", "init_latent_nodes",
    "node_attention_forward", "graph_embedding_forward",
    "RunConfig", "MetricLog", "train", "evaluate",
    "mean_average_precision", "accuracy",
]
