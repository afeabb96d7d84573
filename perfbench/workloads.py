"""The three benchmark workloads: set-up, one timed operation, and checks.

Every workload is a closed loop: the next operation starts when the previous
one has finished. Inputs come only from the workload seed. Calls into the
program go through module attributes (`training.train`, `datasets.load_manifest`,
...) so that the tracer, when installed, sees them.

  train_desk  one operation = one training epoch (train pass plus the
              validation `evaluate` that `train()` runs), driven one epoch per
              `train()` call through its resume arguments;
  eval_grid   one operation = one `evaluate()` pass over 400 videos, cycling
              over {graph model, mean-pool baseline} x {natural, reversed,
              random};
  gradcheck   one operation = one `run_gradient_suite(seed)` call; each of its
              18 checks counts as one attempted check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from videograph import checkpoint, datasets, gradsuite, synthetic, training
from videograph import tensor as tz
from videograph.optim import SgdMomentum

EVAL_SCORE_TOLERANCE = 1e-9
# chance is 0.25 and the orderless baseline stays near it; from epoch 40 on,
# seeds 0-8 sit at 0.6-0.9 with single-epoch dips to 0.39, so the floor is
# applied to the median of the last FINAL_EPOCHS validation accuracies
TRAIN_VAL_ACC_FLOOR = 0.4
TRAIN_MIN_EPOCHS = 40
FINAL_EPOCHS = 5
TRAJECTORY_EPOCHS = 3             # epochs replayed as one train() call for the resume check
EVAL_SETUP_EPOCHS = 12
PERTURBATIONS = synthetic.PERTURBATION_MODES


@dataclass
class OpOutcome:
    """What one timed operation did: items processed and checks it failed."""
    items: int
    attempted: int = 1
    failed: int = 0
    primary: bool = True              # counts towards op_ms percentiles
    messages: list = field(default_factory=list)


def dataset_config(seed: int, H: int, W: int, train_per_class: int,
                   val_per_class: int) -> synthetic.DatasetConfig:
    """Marginal-confound activities: K=4 classes over 4 unit-actions, T=16, C=16."""
    return synthetic.DatasetConfig(num_classes=4, num_actions=4, regime="marginal_confound",
                                   T=16, H=H, W=W, C=16, train_videos_per_class=train_per_class,
                                   val_videos_per_class=val_per_class, seed=seed)


def gen_data(cfg: synthetic.DatasetConfig, out_dir: Path):
    """The `videograph gen-data` path, then the manifests read back as `train` does."""
    train_set = synthetic.generate_samples(cfg, cfg.train_videos_per_class, salt=0)
    val_set = synthetic.generate_samples(cfg, cfg.val_videos_per_class, salt=1)
    out_dir.mkdir(parents=True, exist_ok=True)
    datasets.write_manifest(train_set, out_dir, "train")
    datasets.write_manifest(val_set, out_dir, "val")
    return (datasets.load_manifest(out_dir / "train.jsonl", num_label_classes=cfg.num_classes),
            datasets.load_manifest(out_dir / "val.jsonl", num_label_classes=cfg.num_classes))


def _scores_problems(scores: np.ndarray, reference: np.ndarray, exact: bool) -> list[str]:
    problems = []
    if not np.all(np.isfinite(scores)):
        problems.append("non-finite scores")
    elif np.abs(scores.sum(axis=1) - 1.0).max() > EVAL_SCORE_TOLERANCE:
        problems.append("score rows do not sum to 1")
    if exact:
        if scores.tobytes() != reference.tobytes():
            problems.append("scores are not bitwise equal to the natural-order reference")
    elif scores.shape != reference.shape or np.abs(scores - reference).max() > EVAL_SCORE_TOLERANCE:
        problems.append(f"scores differ from the per-video reference by more than "
                        f"{EVAL_SCORE_TOLERANCE:g}")
    return problems


def _one_cell(dataset: datasets.Dataset) -> datasets.Dataset:
    """The top-left grid cell of every video: (T, H, W, C) -> (T, 1, 1, C)."""
    return datasets.Dataset([f[:, :1, :1] for f in dataset.features], dataset.labels,
                            dataset.label_mode)


def _optimizer(fitted, config: training.RunConfig) -> SgdMomentum:
    """The optimizer `train()` would build, kept so it can be checkpointed."""
    return SgdMomentum(fitted.named_parameters(), learning_rate=config.learning_rate,
                       momentum=config.momentum, weight_decay=config.weight_decay)


class TrainDesk:
    name = "train_desk"
    why = ("shape of the acceptance separation fixture (73% of tier-1): conv fwd/bwd, batch_norm, "
           "tape backward, optimizer, per-epoch eval; op = epoch; tail moved to per-layer")
    unit = "epoch"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = training.RunConfig(seed=seed, epochs=1)   # desk RunConfig

    def setup(self) -> None:
        self.train_ds, self.val_ds = gen_data(
            dataset_config(self.seed, H=1, W=1, train_per_class=25, val_per_class=25),
            self.workdir / "data")

    def warm_up(self) -> None:
        """Epochs 0 and 1 in one resumable call; later epochs run one per call."""
        self.model = training.build_model(self.config, self.train_ds)
        self.optimizer = _optimizer(self.model, self.config)
        _, log = training.train(self.config, self.train_ds, self.val_ds, model=self.model,
                                optimizer=self.optimizer, start_epoch=0)
        self.rows = list(log.rows)

    def run_op(self, index: int) -> OpOutcome:
        epoch = len(self.rows)
        _, log = training.train(replace(self.config, epochs=epoch), self.train_ds, self.val_ds,
                                model=self.model, optimizer=self.optimizer,
                                start_epoch=epoch - 1)
        self.rows.extend(log.rows)
        row = log.rows[-1]
        ok = np.isfinite(row["train_loss"]) and np.isfinite(row["val_metric"])
        return OpOutcome(items=len(self.train_ds), failed=0 if ok else 1,
                         messages=[] if ok else [f"non-finite metrics at epoch {epoch}"])

    def min_ops(self) -> int:
        return TRAIN_MIN_EPOCHS

    def final_checks(self) -> tuple[dict, dict]:
        """Resume contract and accuracy floor, outside the timed region."""
        _, ref = training.train(replace(self.config, epochs=TRAJECTORY_EPOCHS),
                                self.train_ds, self.val_ds)
        replayed = [repr(r["train_loss"]) for r in self.rows[:TRAJECTORY_EPOCHS + 1]]
        reference = [repr(r["train_loss"]) for r in ref.rows]
        final_acc = float(np.median([r["val_metric"] for r in self.rows[-FINAL_EPOCHS:]]))
        checks = {
            "resume_trajectory_bitwise": replayed == reference,
            "losses_finite": all(np.isfinite(r["train_loss"]) for r in self.rows),
            f"final_val_acc_at_least_{TRAIN_VAL_ACC_FLOOR}": final_acc >= TRAIN_VAL_ACC_FLOOR,
        }
        info = {
            "final_val_acc": final_acc,
            "epochs_trained": self.rows[-1]["epoch"],
            "loss_trajectory_sha256": hashlib.sha256(json.dumps(reference).encode()).hexdigest(),
        }
        return checks, info


class EvalGrid:
    name = "eval_grid"
    why = ("forward-only evaluate, 400 videos at H=W=3 (~60 MB as one batch, far above L2), "
           "natural/reversed/random, graph model and mean-pool baseline; tail moved to per-layer")
    unit = "graph-model evaluate pass"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = training.RunConfig(H=3, W=3, seed=seed, epochs=EVAL_SETUP_EPOCHS)
        self.grid = [(kind, mode) for kind in ("graph", "baseline") for mode in PERTURBATIONS]

    def setup(self) -> None:
        """Data, a few training epochs per model, then the `report` checkpoint path.

        Parameters do not depend on H and W, and the generator tiles each
        segment's feature over the grid, so both models train on one grid cell
        (the same training up to rounding, for a ninth of the work) and are
        checkpointed with the H=W=3 evaluation config.
        """
        train_ds, self.val_ds = gen_data(
            dataset_config(self.seed, H=3, W=3, train_per_class=25, val_per_class=100),
            self.workdir / "data")
        cell_train = _one_cell(train_ds)
        cell_monitor = _one_cell(self.val_ds.subset(range(0, len(self.val_ds), 20)))
        cell_config = replace(self.config, H=1, W=1)
        self.models = {}
        for kind in ("graph", "baseline"):
            fitted = training.build_model(cell_config, cell_train, baseline=kind == "baseline")
            optimizer = _optimizer(fitted, cell_config)
            training.train(cell_config, cell_train, cell_monitor, model=fitted, optimizer=optimizer)
            path = checkpoint.save_checkpoint(fitted, optimizer, cell_config.epochs,
                                              self.workdir / kind,
                                              config_snapshot=self.config.to_dict())
            self.models[kind] = checkpoint.load_checkpoint(path).model

    def warm_up(self) -> None:
        """Per-video reference scores through forward_batch, outside the timed region."""
        self.reference = {}
        for mode in PERTURBATIONS:
            self.reference[("graph", mode)] = self._reference_scores(self.models["graph"], mode)
        self.reference[("baseline", "natural")] = self._reference_scores(
            self.models["baseline"], "natural")
        self.accuracy = {}

    def _reference_scores(self, model, mode: str) -> np.ndarray:
        rows = []
        with tz.stop_recording():
            for i, feats in enumerate(self.val_ds.features):
                # the per-video permutation seed that evaluate() derives
                perm_seed = int(np.random.SeedSequence((self.seed, i)).generate_state(1)[0])
                idx = synthetic.perturbation_indices(feats.shape[0], mode, seed=perm_seed)
                x = tz.Tensor(feats[idx][None])
                rows.append(model.forward_batch(x, mode="eval").data[0])
        return np.stack(rows)

    def run_op(self, index: int) -> OpOutcome:
        kind, mode = self.grid[index % len(self.grid)]
        result = training.evaluate(self.models[kind], self.val_ds, perturbation=mode,
                                   seed=self.seed)
        if kind == "graph":
            problems = _scores_problems(result.scores, self.reference[(kind, mode)], exact=False)
        else:
            problems = _scores_problems(result.scores, self.reference[(kind, "natural")],
                                        exact=True)
        self.accuracy[(kind, mode)] = result.metric
        return OpOutcome(items=len(self.val_ds), failed=1 if problems else 0,
                         primary=kind == "graph",
                         messages=[f"{kind}/{mode}: {p}" for p in problems])

    def min_ops(self) -> int:
        return len(self.grid)

    def final_checks(self) -> tuple[dict, dict]:
        """Run-level checks (name -> passed) and informational values."""
        natural = self.accuracy[("graph", "natural")]
        random_order = self.accuracy[("graph", "random")]
        checks = {"graph_natural_acc_above_random": natural > random_order}
        info = {f"{kind}_acc": {mode: self.accuracy[(kind, mode)] for mode in PERTURBATIONS}
                for kind in ("graph", "baseline")}
        return checks, info


class GradCheck:
    name = "gradcheck"
    why = ("run_gradient_suite: 18 checks, ~23k tiny tape-less forwards where per-call overhead "
           "dominates; backs criterion 1's 120 s bound; op = suite; tail moved to per-layer")
    unit = "gradient suite"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        """One draw of every op check: imports, BLAS and allocator warm-up."""
        results = gradsuite.run_gradient_suite(seed=self.seed, num_seeds=1,
                                               include_desk_model=False)
        failed = [r.name for r in results if not r.passed]
        if failed:
            raise RuntimeError(f"gradient checks failed during set-up: {failed}")

    def warm_up(self) -> None:
        pass

    def run_op(self, index: int) -> OpOutcome:
        results = gradsuite.run_gradient_suite(seed=self.seed)
        failed = [r for r in results if not r.passed]
        return OpOutcome(items=len(results), attempted=len(results), failed=len(failed),
                         messages=[f"{r.name}: {r.max_error:.3e}" for r in failed])

    def min_ops(self) -> int:
        return 1

    def final_checks(self) -> tuple[dict, dict]:
        return {}, {}


WORKLOADS = {cls.name: cls for cls in (TrainDesk, EvalGrid, GradCheck)}
