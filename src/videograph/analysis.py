"""Post-hoc analyses over trained models and their activations.

Covers: mean pairwise distance of the (normalized) transformed latent nodes,
extraction of a per-class activity graph from embedding-layer activations,
a force-directed 2-D layout for plotting, confusion matrices, and DOT/JSON
graph export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tz
from .model import VideoGraphModel, eval_chunks, model_type_name, node_attention_forward
from .tensor import Tensor

NODE_SIZE_RANGE = (0.2, 2.0)


def track_node_distances(transformed_nodes: np.ndarray) -> float:
    """Mean Euclidean distance over all unordered pairs of L2-normalized rows.

    Zero rows are left as zero vectors rather than normalized.
    """
    y = np.asarray(transformed_nodes, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] < 2:
        raise ValueError(f"need a (N>=2, C) matrix; got shape {y.shape}")
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    unit = np.divide(y, norms, out=np.zeros_like(y), where=norms > 0)
    diff = unit[:, None, :] - unit[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    n = y.shape[0]
    iu = np.triu_indices(n, k=1)
    return float(dist[iu].mean())


# ---------------------------------------------------------------------------
# Activity graph extraction


@dataclass
class ActivationStack:
    """Post-relu activations of the final graph embedding layer.

    Axis order follows the model: (videos, timesteps, nodes, channels); the
    spatial grid is averaged away before stacking.
    """
    activations: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.activations, dtype=np.float64)
        if arr.ndim != 4:
            raise ValueError(f"activation stack must be (M, T', N', C); got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("activation stack is empty")
        if arr.min() < 0:
            raise ValueError("activations must be non-negative (post-relu)")
        self.activations = arr


@dataclass
class ExtractedGraph:
    node_importance: np.ndarray       # (N',) non-negative
    edge_weights: np.ndarray          # (N', N') symmetric, zero diagonal
    class_id: int
    positions: np.ndarray | None = None


def extract_activity_graph(stack: ActivationStack, class_id: int = 0) -> ExtractedGraph:
    """Reduce a class's activation stack to node importances and edges.

    Average over videos, then over time; a node's importance is its summed
    channel activation and edges are pairwise Euclidean distances between
    node profiles.
    """
    class_mean = stack.activations.mean(axis=0)      # (T', N', C)
    node_profiles = class_mean.mean(axis=0)          # (N', C)
    importance = node_profiles.sum(axis=1)           # (N',)
    diff = node_profiles[:, None, :] - node_profiles[None, :, :]
    edges = np.sqrt((diff ** 2).sum(axis=2))
    return ExtractedGraph(node_importance=importance, edge_weights=edges, class_id=class_id)


def collect_activation_stacks(model, dataset) -> dict[int, ActivationStack]:
    """Per-class activation stacks from eval-mode forwards (single-label only).

    The final embedding layer's output is averaged over the spatial grid, so
    each video contributes a (T', N', C) slice to its class's stack. The
    dataset must pass `Dataset.check` against `model.config`, and videos run
    in the chunks `evaluate` uses, through attention and the embedding layers.
    """
    if not isinstance(model, VideoGraphModel):
        raise ValueError(f"activity graphs need a videograph model; got {model_type_name(model)}")
    if dataset.label_mode != "single":
        raise ValueError("activity graphs are extracted per class; needs a single-label dataset")
    dataset.check(model.config, "extract-graph")
    per_class: dict[int, list[np.ndarray]] = {}
    with tz.stop_recording():
        for chunk in eval_chunks(dataset.features):
            video = node_attention_forward(Tensor(np.stack(dataset.features[chunk])),
                                           model.nodes, model.attention)
            # emb: (T', N', H, W, C) per video
            for emb, label in zip(model.embed(video, "eval").data, dataset.labels[chunk]):
                per_class.setdefault(int(label), []).append(emb.mean(axis=(2, 3)))
    return {cid: ActivationStack(np.stack(slices)) for cid, slices in sorted(per_class.items())}


# ---------------------------------------------------------------------------
# Force-directed layout


def force_layout(graph: ExtractedGraph, iterations: int = 500, seed: int = 0) -> np.ndarray:
    """Fruchterman-Reingold layout with edge-weight-scaled attraction.

    Ideal length k = sqrt(area / N') with unit area; the temperature cools
    linearly to zero. Deterministic given the seed.

    Each step computes every pair's force at once. Node i's displacement sums
    its pairs' terms in partner order, with the pair (i, j) weighted by
    edge_weights[min(i, j), max(i, j)].
    """
    n = graph.node_importance.shape[0]
    if n == 1:
        return np.zeros((1, 2))
    upper = np.triu(np.asarray(graph.edge_weights, dtype=np.float64), 1)
    weights = upper + upper.T
    pos = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 2))
    k = np.sqrt(1.0 / n)
    t0 = 0.1
    for step in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]                     # (n, n, 2)
        dist = np.maximum(np.sqrt((delta ** 2).sum(axis=2)), 1e-9)   # (n, n)
        unit = delta / dist[..., None]
        force = (k * k / dist) - weights * (dist * dist / k)
        np.fill_diagonal(force, 0.0)
        disp = (unit * force[..., None]).sum(axis=1)
        temp = t0 * (1.0 - step / iterations)
        lengths = np.maximum(np.sqrt((disp ** 2).sum(axis=1, keepdims=True)), 1e-9)
        pos = pos + disp / lengths * np.minimum(lengths, temp)
    if not np.all(np.isfinite(pos)):
        raise FloatingPointError("layout diverged to non-finite positions")
    return pos


# ---------------------------------------------------------------------------
# Confusion matrix


def confusion_matrix(predictions, labels, num_classes: int) -> np.ndarray:
    """Counts indexed [true label, predicted label]."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    for name, arr in (("prediction", predictions), ("label", labels)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} out of range [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (labels, predictions), 1)
    return counts


def write_confusion_csv(counts: np.ndarray, path) -> None:
    lines = [",".join(["true\\pred"] + [str(j) for j in range(counts.shape[1])])]
    for i, row in enumerate(counts):
        lines.append(",".join([str(i)] + [str(int(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Graph export


def _scaled_sizes(importance: np.ndarray) -> np.ndarray:
    lo, hi = NODE_SIZE_RANGE
    vmin, vmax = importance.min(), importance.max()
    if vmax == vmin:
        return np.full_like(importance, (lo + hi) / 2.0)
    return lo + (importance - vmin) / (vmax - vmin) * (hi - lo)


def graph_to_dot(graph: ExtractedGraph) -> str:
    sizes = _scaled_sizes(graph.node_importance)
    lines = [f"graph activity_{graph.class_id} {{", "  node [shape=circle, fixedsize=true];"]
    for i, (imp, size) in enumerate(zip(graph.node_importance, sizes)):
        attrs = [f"width={float(size)!r}", f"importance={float(imp)!r}"]
        if graph.positions is not None:
            attrs.append(f'pos="{float(graph.positions[i][0])!r},{float(graph.positions[i][1])!r}"')
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    n = graph.node_importance.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"  n{i} -- n{j} [distance={float(graph.edge_weights[i, j])!r}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(graph: ExtractedGraph, fmt: str, path) -> None:
    path = Path(path)
    if fmt == "dot":
        path.write_text(graph_to_dot(graph))
    elif fmt == "json":
        doc = {
            "class_id": graph.class_id,
            "node_importance": graph.node_importance.tolist(),
            "edge_weights": graph.edge_weights.tolist(),
            "positions": graph.positions.tolist() if graph.positions is not None else None,
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        raise ValueError(f"unknown export format {fmt!r} (expected 'dot' or 'json')")
