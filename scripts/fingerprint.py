#!/usr/bin/env python3
"""Bitwise fingerprint of training, evaluation and the gradient suite.

For one seed it prints:

  * a SHA-256 of the features, labels and label mode of the desk and grid
    datasets the lines below use, as read back through `write_manifest`
    and `load_manifest`;
  * the SHA-256 of the desk `train()` loss trajectory (epochs 0-3 on the
    `train_desk` benchmark data; the benchmark reports the same value as
    `loss_trajectory_sha256`);
  * a SHA-256 of the `evaluate()` scores of the graph model and of the
    mean-pool baseline under each perturbation, on the `eval_grid` benchmark
    set-up (12 epochs on one grid cell, a checkpoint round-trip, 400 videos
    at H = W = 3);
  * the `float.hex` of every check's max error in `run_gradient_suite(seed)`;
  * the `repr` of `shape_inference(full_scale_config())`;
  * a SHA-256 of the manifests and payloads of the two checkpoints the eval
    set-up saves (graph model, then baseline).

Two checkouts that print the same lines compute the same bits on these
paths. Run it on both sides of a change that must not move any result and
diff the output:

    PYTHONPATH=src python3 scripts/fingerprint.py --seed 3
"""

import argparse
import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

from videograph import checkpoint, datasets, gradsuite, model, synthetic, training
from videograph.optim import SgdMomentum

TRAJECTORY_EPOCHS = 3
EVAL_SETUP_EPOCHS = 12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_data(seed: int, H: int, W: int, train_per_class: int, val_per_class: int, out_dir: Path):
    """Generate, write the VGFT manifests and read them back, as `gen-data` and `train` do."""
    cfg = synthetic.DatasetConfig(num_classes=4, num_actions=4, regime="marginal_confound",
                                  T=16, H=H, W=W, C=16, train_videos_per_class=train_per_class,
                                  val_videos_per_class=val_per_class, seed=seed)
    for salt, (name, per_class) in enumerate((("train", train_per_class), ("val", val_per_class))):
        datasets.write_manifest(synthetic.generate_samples(cfg, per_class, salt=salt), out_dir, name)
    return tuple(datasets.load_manifest(out_dir / f"{name}.jsonl", num_label_classes=4)
                 for name in ("train", "val"))


def data_fingerprint(loaded) -> str:
    digest = hashlib.sha256()
    for dataset in loaded:
        digest.update(dataset.label_mode.encode())
        digest.update(dataset.labels.tobytes())
        for features in dataset.features:
            digest.update(features.tobytes())
    return digest.hexdigest()


def train_fingerprint(seed: int, train_ds, val_ds) -> str:
    _, log = training.train(training.RunConfig(seed=seed, epochs=TRAJECTORY_EPOCHS), train_ds, val_ds)
    return sha256(json.dumps([repr(r["train_loss"]) for r in log.rows]).encode())


def one_cell(dataset: datasets.Dataset) -> datasets.Dataset:
    return datasets.Dataset([f[:, :1, :1] for f in dataset.features], dataset.labels,
                            dataset.label_mode)


def eval_fingerprints(seed: int, train_ds, val_ds, work: Path) -> tuple[dict[str, str], str]:
    """Eval score hashes per model and perturbation, and the checkpoints' hash."""
    config = training.RunConfig(H=3, W=3, seed=seed, epochs=EVAL_SETUP_EPOCHS)
    cell_config = replace(config, H=1, W=1)
    cell_train = one_cell(train_ds)
    cell_monitor = one_cell(val_ds.subset(range(0, len(val_ds), 20)))
    hashes, saved = {}, b""
    for kind in ("graph", "baseline"):
        fitted = training.build_model(cell_config, cell_train, baseline=kind == "baseline")
        optimizer = SgdMomentum(fitted.named_parameters(), learning_rate=cell_config.learning_rate,
                                momentum=cell_config.momentum, weight_decay=cell_config.weight_decay)
        training.train(cell_config, cell_train, cell_monitor, model=fitted, optimizer=optimizer)
        path = checkpoint.save_checkpoint(fitted, optimizer, cell_config.epochs, work / kind,
                                          config_snapshot=config.to_dict())
        for name in (checkpoint.MANIFEST_NAME, checkpoint.WEIGHTS_NAME):
            saved += (path / name).read_bytes()
        loaded = checkpoint.load_checkpoint(path).model
        for mode in synthetic.PERTURBATION_MODES:
            scores = training.evaluate(loaded, val_ds, perturbation=mode, seed=seed).scores
            hashes[f"{kind}/{mode}"] = sha256(scores.tobytes())
    return hashes, sha256(saved)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        desk = load_data(args.seed, 1, 1, 25, 25, work / "desk")
        grid = load_data(args.seed, 3, 3, 25, 100, work / "grid")
        print(f"data_sha256 {data_fingerprint(desk + grid)}")
        print(f"train loss_trajectory_sha256 {train_fingerprint(args.seed, *desk)}")
        eval_hashes, checkpoint_hash = eval_fingerprints(args.seed, *grid, work)
        for name, digest in eval_hashes.items():
            print(f"eval {name} {digest}")
        print(f"checkpoint_sha256 {checkpoint_hash}")
    for result in gradsuite.run_gradient_suite(seed=args.seed):
        print(f"gradsuite {result.name} {result.max_error.hex()}")
    print(f"full_scale_shapes {model.shape_inference(model.full_scale_config())!r}")


if __name__ == "__main__":
    main()
