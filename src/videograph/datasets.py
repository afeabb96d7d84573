"""Dataset manifests and in-memory datasets.

A manifest is a JSON-lines file, one record per video:
    {"feature_path": "features/c0_v000.vgft", "label": 2}
or, for multi-label tasks:
    {"feature_path": "...", "labels": [0, 3, 5]}
Feature paths are resolved relative to the manifest's directory; features are
stored as VGFT files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import read_feature_file, write_feature_file
from .synthetic import GeneratedDataset, multi_label_vector

# share of a dataset `Dataset.split` holds out for validation
VAL_FRACTION = 0.2


@dataclass
class Dataset:
    """Videos' features and labels.

    Features keep the precision they were made or stored in: float32 when
    read from VGFT files. Batches widen them to float64 exactly where they
    become a `Tensor`.
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

    def split(self, seed: int) -> tuple["Dataset", "Dataset"]:
        """Deterministic train/val split by seeded shuffle, VAL_FRACTION held out."""
        order = np.random.default_rng(seed).permutation(len(self))
        n_val = max(1, int(round(VAL_FRACTION * len(self))))
        return self.subset(order[n_val:]), self.subset(order[:n_val])


def dataset_from_generated(gen: GeneratedDataset) -> Dataset:
    feats = [s.features for s in gen.samples]
    if gen.config.label_mode == "single":
        labels = np.array([s.label for s in gen.samples], dtype=np.int64)
    else:
        labels = np.stack([multi_label_vector(s, gen.config.num_actions) for s in gen.samples])
    return Dataset(features=feats, labels=labels, label_mode=gen.config.label_mode)


def write_manifest(gen: GeneratedDataset, out_dir, name: str) -> Path:
    """Write VGFT feature files plus a JSON-lines manifest; returns its path."""
    out_dir = Path(out_dir)
    feature_dir = out_dir / "features"
    feature_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / f"{name}.jsonl"
    lines = []
    for i, sample in enumerate(gen.samples):
        rel = f"features/{name}_c{sample.label}_v{i:04d}.vgft"
        write_feature_file(out_dir / rel, sample.features)
        if gen.config.label_mode == "single":
            record = {"feature_path": rel, "label": int(sample.label)}
        else:
            vec = multi_label_vector(sample, gen.config.num_actions)
            record = {"feature_path": rel, "labels": [int(v) for v in np.flatnonzero(vec)]}
        lines.append(json.dumps(record, sort_keys=True))
    manifest_path.write_text("\n".join(lines) + "\n")
    return manifest_path


def load_manifest(manifest_path, num_label_classes: int) -> Dataset:
    """Read a manifest whose labels must all lie in [0, num_label_classes)."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    features, label_rows = [], []
    label_mode = None
    for line_no, line in enumerate(manifest_path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        if "label" in record:
            mode, labels = "single", [int(record["label"])]
        elif "labels" in record:
            mode, labels = "multi", [int(v) for v in record["labels"]]
        else:
            raise ValueError(f"{manifest_path}:{line_no}: record has neither 'label' nor 'labels'")
        if label_mode is None:
            label_mode = mode
        elif label_mode != mode:
            raise ValueError(f"{manifest_path}:{line_no}: mixed single/multi label records")
        bad = [v for v in labels if not 0 <= v < num_label_classes]
        if bad:
            raise ValueError(f"{manifest_path}:{line_no}: label {bad[0]} is outside "
                             f"[0, {num_label_classes})")
        features.append(read_feature_file(base / record["feature_path"]))
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
