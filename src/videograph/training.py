"""Training loop, evaluation, and metric logging.

Training is plain shuffled mini-batch SGD at a constant learning rate. An
epoch trains every video once, in batches of `batch_size` where the last
batch also takes the remainder, so train-mode batch norm never normalises a
small leftover batch. Every epoch appends one metric row; the per-epoch
shuffle stream is derived from (seed, epoch) so a run resumed from a
checkpoint replays the exact batches the uninterrupted run would have seen.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as tz
from .analysis import track_node_distances
from .checkpoint import save_checkpoint
from .datasets import Dataset
from .metrics import accuracy, mean_average_precision
from .model import (MODEL_FIELDS, MeanPoolBaseline, VideoGraphConfig, VideoGraphModel, check_types,
                    eval_chunks)
from .optim import SgdMomentum
from .synthetic import perturbation_indices
from .tensor import Tape, Tensor

METRIC_HEADER = ("epoch", "train_loss", "train_acc", "val_metric", "mean_node_distance")
# model fields that only shape initialisation, so a resumed run may change them
INIT_ONLY_FIELDS = ("seed", "init_strategy")
# run config keys a resumed optimizer must already hold
OPTIMIZER_FIELDS = ("learning_rate", "momentum", "weight_decay")


@dataclass
class RunConfig(VideoGraphConfig):
    """A model config plus the optimisation settings of one run."""

    # optimization
    epochs: int = 200
    batch_size: int = 8
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-5

    def model_config(self) -> VideoGraphConfig:
        return VideoGraphConfig(**{name: getattr(self, name) for name in MODEL_FIELDS})

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown run config keys: {sorted(unknown)}")
        config = cls(**data)
        check_types(config)
        return config


@dataclass
class MetricLog:
    rows: list[dict] = field(default_factory=list)

    def append(self, epoch: int, train_loss: float, train_acc: float,
               val_metric: float, mean_node_distance: float) -> None:
        if self.rows and epoch <= self.rows[-1]["epoch"]:
            raise ValueError(f"epoch {epoch} does not increase past {self.rows[-1]['epoch']}")
        self.rows.append({"epoch": int(epoch), "train_loss": float(train_loss),
                          "train_acc": float(train_acc), "val_metric": float(val_metric),
                          "mean_node_distance": float(mean_node_distance)})

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(METRIC_HEADER)
        for row in self.rows:
            writer.writerow([row[k] if k == "epoch" else repr(row[k]) for k in METRIC_HEADER])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv())


@dataclass
class EvalResult:
    metric_name: str                  # "accuracy" | "mAP"
    metric: float
    scores: np.ndarray                # (V, K)
    predictions: np.ndarray           # (V,) argmax, single-label only
    labels: np.ndarray


def _batch_metrics(model, dataset: Dataset, idx: np.ndarray, mode: str) -> tuple[Tensor, np.ndarray]:
    """Forward one batch; returns (loss tensor, raw scores)."""
    feats = np.stack([dataset.features[i] for i in idx])
    scores = model.forward_batch(Tensor(feats), mode=mode)
    return tz.loss(scores, dataset.labels[idx], dataset.label_mode), scores.data


def _score_metric(label_mode: str, scores: np.ndarray, labels: np.ndarray) -> tuple[str, float]:
    """(name, value) of the run metric: argmax accuracy for single-label, mAP for multi."""
    if label_mode == "single":
        return "accuracy", accuracy(scores.argmax(axis=1), labels)
    return "mAP", mean_average_precision(scores, labels)


def _node_distance(model) -> float:
    if isinstance(model, VideoGraphModel):
        return track_node_distances(model.transformed_nodes_array())
    return 0.0


def _epoch_pass(model, dataset: Dataset, batch_size: int, order: np.ndarray,
                optimizer: SgdMomentum | None, epoch: int) -> tuple[float, float]:
    """One pass over the dataset; trains when an optimizer is given.

    Batches take `batch_size` videos in `order`, and the last full batch
    also takes the remainder (100 videos at 8 give 11 batches of 8 and one
    of 12), so train-mode batch norm never sees fewer than `batch_size`
    videos unless the whole dataset is smaller. Returns (mean loss,
    accuracy-or-mAP over the pass, computed from train-mode outputs).
    """
    losses, all_scores = [], []
    num_batches = max(1, len(order) // batch_size)
    for batch in range(num_batches):
        last = batch == num_batches - 1
        idx = order[batch * batch_size:None if last else (batch + 1) * batch_size]
        with Tape() as tape:
            batch_loss, scores = _batch_metrics(model, dataset, idx, mode="train")
            value = batch_loss.item()
            if not np.isfinite(value):
                raise FloatingPointError(f"non-finite loss at epoch {epoch}, batch {batch}")
            if optimizer is not None:
                optimizer.step(tape.backward(batch_loss))
        losses.append(value)
        all_scores.append(scores)

    _, metric = _score_metric(dataset.label_mode, np.concatenate(all_scores), dataset.labels[order])
    return float(np.mean(losses)), metric


def evaluate(model, dataset: Dataset, perturbation: str = "natural", seed: int = 0) -> EvalResult:
    """Eval-mode metrics with the sample time axes permuted as requested.

    The dataset must pass `Dataset.check` against `model.config`. Under
    "random", video i's time axis is permuted with a seed drawn from
    (seed, i); "reversed" draws no seed, and "natural" stacks the stored
    features as they are, with no index copy. The videos are scored in
    chunks of `eval_chunks`, one eval-mode forward call each. A video's
    scores do not depend on its chunk: eval mode has no cross-video
    statistics, and the classifier head computes each video's row on its
    own, so the scores are bitwise those of a batch of one.
    """
    dataset.check(model.config, "eval")

    def perturbed(i: int) -> np.ndarray:
        feats = dataset.features[i]
        if perturbation == "natural":
            return feats
        state = (np.random.SeedSequence((seed, i)).generate_state(1)[0]
                 if perturbation == "random" else 0)
        return feats[perturbation_indices(feats.shape[0], perturbation, seed=int(state))]

    parts = []
    with tz.stop_recording():
        for chunk in eval_chunks(dataset.features):
            batch = np.stack([perturbed(i) for i in range(len(dataset))[chunk]])
            parts.append(model.forward_batch(Tensor(batch), mode="eval").data)
    scores = np.concatenate(parts)
    name, metric = _score_metric(dataset.label_mode, scores, dataset.labels)
    return EvalResult(name, metric, scores, scores.argmax(axis=1), dataset.labels)


def build_model(config: RunConfig, train_dataset: Dataset, baseline: bool = False):
    if baseline:
        return MeanPoolBaseline(config.model_config())
    feature_sample = None
    if config.init_strategy == "kmeans":
        cells = [f.reshape(-1, config.C) for f in train_dataset.features]
        feature_sample = np.concatenate(cells)
    return VideoGraphModel(config.model_config(), feature_sample=feature_sample)


def train(config: RunConfig, train_dataset: Dataset, val_dataset: Dataset, out_dir=None,
          model=None, optimizer: SgdMomentum | None = None, start_epoch: int = 0,
          baseline: bool = False):
    """Train a model; returns (model, MetricLog).

    Every metric row scores the model on val_dataset, which is required (one
    dataset may serve as both train and val). When out_dir is given, writes
    a final checkpoint and metrics.csv there.
    Passing model/optimizer/start_epoch resumes a checkpointed run; epoch
    numbering and shuffling then continue the original stream. The model's
    config must match the run config in every model field but the
    initialisation-only ones (INIT_ONLY_FIELDS), and the optimizer's settings
    must match it in OPTIMIZER_FIELDS.
    """
    check_types(config)
    if config.epochs < 1 or config.batch_size < 1:
        raise ValueError(f"epochs and batch_size must be positive; got "
                         f"{config.epochs}, {config.batch_size}")
    if start_epoch < 0:
        raise ValueError(f"start_epoch must be non-negative; got {start_epoch}")
    if start_epoch >= config.epochs:
        raise ValueError(f"nothing to train: resumed at epoch {start_epoch} with "
                         f"config.epochs={config.epochs}")
    resumed = []
    if model is not None:
        resumed += [("model config", model.config, name) for name in MODEL_FIELDS
                    if name not in INIT_ONLY_FIELDS]
    if optimizer is not None:
        resumed += [("optimizer", optimizer, name) for name in OPTIMIZER_FIELDS]
    for owner, source, name in resumed:
        have, want = getattr(source, name), getattr(config, name)
        if have != want:
            raise ValueError(f"{owner} key {name!r} is {have!r} but the run config has {want!r}")
    for split, dataset in (("train", train_dataset), ("val", val_dataset)):
        dataset.check(config, split)

    if model is None:
        model = build_model(config, train_dataset, baseline=baseline)
    if optimizer is None:
        optimizer = SgdMomentum(model.named_parameters(), learning_rate=config.learning_rate,
                                momentum=config.momentum, weight_decay=config.weight_decay)

    def val_metric() -> float:
        return evaluate(model, val_dataset, perturbation="natural", seed=config.seed).metric

    log = MetricLog()
    if start_epoch == 0:
        # epoch 0: metrics of the untrained model (train-mode pass, no updates)
        order = np.arange(len(train_dataset))
        loss0, acc0 = _epoch_pass(model, train_dataset, config.batch_size, order,
                                  optimizer=None, epoch=0)
        log.append(0, loss0, acc0, val_metric(), _node_distance(model))

    for epoch in range(start_epoch + 1, config.epochs + 1):
        order = np.random.default_rng((config.seed, epoch)).permutation(len(train_dataset))
        loss, acc = _epoch_pass(model, train_dataset, config.batch_size, order,
                                optimizer=optimizer, epoch=epoch)
        log.append(epoch, loss, acc, val_metric(), _node_distance(model))

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, optimizer, config.epochs, out_dir / "checkpoint",
                        config_snapshot=config.to_dict())
        log.write_csv(out_dir / "metrics.csv")
    return model, log
