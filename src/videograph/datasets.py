"""Datasets in memory and on disk as VGFT manifests.

A manifest is a JSON-lines file, one record per video:
    {"feature_path": "features/train_v0000.vgft", "label": 2}
or, for multi-label tasks:
    {"feature_path": "...", "labels": [0, 3, 5]}
Feature paths are resolved relative to the manifest's directory; features are
stored as VGFT files. `write_manifest` and `load_manifest` are exact inverses
for float32 features, which is what generation and VGFT reads both give.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FeatureFileError, read_feature_file, write_feature_file
from .model import VideoGraphConfig


@dataclass
class Dataset:
    """Videos' features and labels.

    Features are float32, whether generated by `synthetic.generate_samples`
    or read from VGFT files, so a dataset equals its written-and-loaded copy.
    Batches widen them to float64 exactly where they become a `Tensor`.
    """

    features: list[np.ndarray]        # each (T, H, W, C)
    labels: np.ndarray                # (V,) ints, or (V, K) binary for multi
    label_mode: str                   # "single" | "multi"

    def __len__(self) -> int:
        return len(self.features)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(features=[self.features[i] for i in indices],
                       labels=self.labels[indices], label_mode=self.label_mode)

    def check(self, config: VideoGraphConfig, split: str) -> None:
        """Reject what a model of `config` cannot score: no videos, another
        label_mode, labels outside its num_classes outputs, or a video not
        shaped (T, H, W, C). Cheap enough for every `evaluate`."""
        if len(self) == 0:
            raise ValueError(f"{split} dataset is empty")
        if self.label_mode != config.label_mode:
            raise ValueError(f"{split} dataset is {self.label_mode}-label but config key "
                             f"'label_mode' is {config.label_mode!r}")
        num_classes = config.num_classes
        if self.label_mode == "multi":
            if self.labels.shape[1:] != (num_classes,):
                raise ValueError(f"{split} dataset has multi-label rows of shape "
                                 f"{self.labels.shape[1:]} but num_classes is {num_classes}")
        else:
            bad = self.labels[(self.labels < 0) | (self.labels >= num_classes)]
            if bad.size:
                raise ValueError(f"{split} dataset label {bad[0]} is outside [0, {num_classes}) "
                                 f"for num_classes {num_classes}")
        keys = ("T", "H", "W", "C")
        expected = tuple(getattr(config, key) for key in keys)
        for i, features in enumerate(self.features):
            if features.shape == expected:
                continue
            where = f"{split} dataset video {i} has shape {features.shape}"
            if features.ndim != len(keys):
                raise ValueError(f"{where}, not (T, H, W, C) = {expected}")
            axis = next(a for a in range(len(keys)) if features.shape[a] != expected[a])
            raise ValueError(f"{where}: its {keys[axis]} is {features.shape[axis]} but config key "
                             f"{keys[axis]!r} is {expected[axis]}")


def write_manifest(dataset: Dataset, out_dir, name: str) -> Path:
    """Write VGFT feature files plus a JSON-lines manifest; returns its path."""
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / f"{name}.jsonl"
    lines = []
    for i, (features, label) in enumerate(zip(dataset.features, dataset.labels)):
        rel = f"features/{name}_v{i:04d}.vgft"
        write_feature_file(out_dir / rel, features)
        if dataset.label_mode == "single":
            record = {"feature_path": rel, "label": int(label)}
        else:
            record = {"feature_path": rel, "labels": np.flatnonzero(label).tolist()}
        lines.append(json.dumps(record, sort_keys=True))
    manifest_path.write_text("\n".join(lines) + "\n")
    return manifest_path


def _record_labels(record, where: str) -> tuple[str, list[int]]:
    """A manifest record's label mode and label list; ValueError at `where` if malformed."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: record must be a JSON object, not a {type(record).__name__}")
    if not isinstance(record.get("feature_path"), str):
        raise ValueError(f"{where}: record needs a string 'feature_path'")
    if "label" in record:
        mode, key, labels, kind = "single", "label", [record["label"]], "an integer"
    elif "labels" in record:
        mode, key, labels, kind = "multi", "labels", record["labels"], "a list of integers"
    else:
        raise ValueError(f"{where}: record has neither 'label' nor 'labels'")
    if not isinstance(labels, list) or not all(type(v) is int for v in labels):  # excludes bool
        raise ValueError(f"{where}: {key!r} must be {kind}; got {record[key]!r}")
    return mode, labels


def load_manifest(manifest_path, num_label_classes: int) -> Dataset:
    """Read a manifest whose labels must all lie in [0, num_label_classes)."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    features, label_rows = [], []
    label_mode = None
    for line_no, line in enumerate(manifest_path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{manifest_path}:{line_no}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: not a JSON record: {exc}") from None
        mode, labels = _record_labels(record, where)
        if label_mode is None:
            label_mode = mode
        elif label_mode != mode:
            raise ValueError(f"{where}: mixed single/multi label records")
        bad = [v for v in labels if not 0 <= v < num_label_classes]
        if bad:
            raise ValueError(f"{where}: label {bad[0]} is outside [0, {num_label_classes})")
        feature_path = base / record["feature_path"]
        try:
            features.append(read_feature_file(feature_path))
        except (FeatureFileError, OSError) as exc:
            raise ValueError(f"{where}: feature file {feature_path}: {exc}") from None
        label_rows.append(labels)
    if not features:
        raise ValueError(f"{manifest_path}: empty manifest")

    if label_mode == "single":
        labels = np.array([row[0] for row in label_rows], dtype=np.int64)
    else:
        labels = np.zeros((len(label_rows), num_label_classes), dtype=np.int64)
        for i, row in enumerate(label_rows):
            labels[i, row] = 1
    return Dataset(features=features, labels=labels, label_mode=label_mode)
