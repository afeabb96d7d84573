#!/usr/bin/env python3
"""Bitwise fingerprint of training, evaluation and the gradient suite.

For one seed it runs the set-up of the `train_desk` and `eval_grid`
benchmark workloads (`perfbench/workloads.py`) and prints SHA-256s of:
the datasets they built, as read back through `load_manifest`; the desk
`train()` loss trajectory over epochs 0-3 (the benchmark reports the same
value as `loss_trajectory_sha256`); the `evaluate()` scores of the
`eval_grid` graph model and mean-pool baseline under each perturbation;
the two checkpoints that set-up saves; and the graph model's per-class
activation stacks (`collect_activation_stacks`, which `extract-graph`
reads) on the `eval_grid` val set. Then it prints the `float.hex`
of every check's max error in `run_gradient_suite(seed)` and the `repr`
of `shape_inference(full_scale_config())`.

Two checkouts that print the same lines compute the same bits on these
paths. Diff the output across a change that must not move any result:

    PYTHONPATH=src python3 scripts/fingerprint.py --seed 3
"""

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import PERTURBATIONS, TRAJECTORY_EPOCHS, EvalGrid, TrainDesk  # noqa: E402

from videograph import analysis, checkpoint, datasets, gradsuite, model, training  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def data_fingerprint(loaded) -> str:
    digest = hashlib.sha256()
    for dataset in loaded:
        digest.update(dataset.label_mode.encode())
        digest.update(dataset.labels.tobytes())
        for features in dataset.features:
            digest.update(features.tobytes())
    return digest.hexdigest()


def train_fingerprint(desk: TrainDesk) -> str:
    _, log = training.train(replace(desk.config, epochs=TRAJECTORY_EPOCHS),
                            desk.train_ds, desk.val_ds)
    return sha256(json.dumps([repr(r["train_loss"]) for r in log.rows]).encode())


def eval_lines(grid: EvalGrid):
    """Eval score hashes per model and perturbation, then the checkpoints' hash."""
    saved = b""
    for kind in ("graph", "baseline"):
        saved += b"".join((grid.workdir / kind / name).read_bytes()
                          for name in (checkpoint.MANIFEST_NAME, checkpoint.WEIGHTS_NAME))
        for mode in PERTURBATIONS:
            scores = training.evaluate(grid.models[kind], grid.val_ds, perturbation=mode,
                                       seed=grid.seed).scores
            yield f"eval {kind}/{mode} {sha256(scores.tobytes())}"
    yield f"checkpoint_sha256 {sha256(saved)}"


def extract_graph_fingerprint(grid: EvalGrid) -> str:
    digest = hashlib.sha256()
    for class_id, stack in analysis.collect_activation_stacks(grid.models["graph"],
                                                              grid.val_ds).items():
        digest.update(str(class_id).encode())
        digest.update(stack.activations.tobytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        desk, grid = TrainDesk(args.seed, work / "desk"), EvalGrid(args.seed, work / "grid")
        desk.setup()
        grid.setup()
        grid_train = datasets.load_manifest(grid.workdir / "data" / "train.jsonl",
                                            num_label_classes=grid.config.num_classes)
        loaded = (desk.train_ds, desk.val_ds, grid_train, grid.val_ds)
        print(f"data_sha256 {data_fingerprint(loaded)}")
        print(f"train loss_trajectory_sha256 {train_fingerprint(desk)}")
        print("\n".join(eval_lines(grid)))
        print(f"extract_graph_sha256 {extract_graph_fingerprint(grid)}")
    for result in gradsuite.run_gradient_suite(seed=args.seed):
        print(f"gradsuite {result.name} {result.max_error.hex()}")
    print(f"full_scale_shapes {model.shape_inference(model.full_scale_config())!r}")


if __name__ == "__main__":
    main()
