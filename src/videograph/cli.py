"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, shapes, extract-graph, report.
Each takes only the flags it reads, listed in COMMANDS; any other flag, or a
missing required one, is a usage error. Flag precedence is flags > config
file > built-in defaults. Exit codes: 0 success, 1 validation failure, 2
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (collect_activation_stacks, confusion_matrix, extract_activity_graph,
                       export_graph, force_layout, write_confusion_csv)
from .checkpoint import load_checkpoint
from .datasets import load_manifest, write_manifest
from .gradsuite import GRAD_CHECK_THRESHOLD, run_gradient_suite
from .model import shape_inference
from .synthetic import DatasetConfig, PERTURBATION_MODES, generate_samples
from .training import RunConfig, evaluate, train

USAGE_ERROR, VALIDATION_ERROR = 2, 1

FLAGS = {
    "--config": dict(help="JSON config file"),
    "--data": dict(help="dataset directory (train.jsonl/val.jsonl) or manifest file"),
    "--checkpoint": dict(help="checkpoint directory"),
    "--out": dict(help="output directory"),
    "--seed": dict(type=int, default=0, help="random seed (default 0)"),
    "--perturb": dict(choices=PERTURBATION_MODES, default="natural",
                      help="temporal order perturbation for evaluation"),
}


def _load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        config = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {p} must hold a JSON object: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config file {p} must hold a JSON object, not a {type(config).__name__}")
    return config


def _resolve_manifest(data_arg: str, split: str = "val") -> Path:
    p = Path(data_arg)
    if p.is_dir():
        candidate = p / f"{split}.jsonl"
        if not candidate.exists():
            raise FileNotFoundError(f"no {split}.jsonl in {p}")
        return candidate
    if not p.exists():
        raise FileNotFoundError(f"dataset path not found: {p}")
    return p


def _load_eval_inputs(args):
    loaded = load_checkpoint(args.checkpoint)
    k = loaded.model.config.num_classes
    dataset = load_manifest(_resolve_manifest(args.data), num_label_classes=k)
    return loaded, dataset


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    cfg = DatasetConfig(**_load_json(args.config)) if args.config else DatasetConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    train_set = generate_samples(cfg, cfg.train_videos_per_class, salt=0)
    val_set = generate_samples(cfg, cfg.val_videos_per_class, salt=1)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(train_set, out, "train")
    write_manifest(val_set, out, "val")
    (out / "dataset.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(train_set)} train / {len(val_set)} val videos to {out}")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out)
    config = RunConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        config.seed = args.seed
    train_path, val_path = (_resolve_manifest(args.data, split) for split in ("train", "val"))
    train_ds = load_manifest(train_path, num_label_classes=config.num_classes)
    # a manifest file named by --data serves as both splits: read it once
    val_ds = (train_ds if val_path == train_path
              else load_manifest(val_path, num_label_classes=config.num_classes))

    model = optimizer = None
    start_epoch = 0
    if args.checkpoint:
        loaded = load_checkpoint(args.checkpoint)
        model, optimizer, start_epoch = loaded.model, loaded.optimizer, loaded.epoch
        print(f"resuming from {args.checkpoint} at epoch {start_epoch}")
    _, log = train(config, train_ds, val_ds, out_dir=out, model=model,
                   optimizer=optimizer, start_epoch=start_epoch)
    last = log.rows[-1]
    print(f"finished epoch {last['epoch']}: train_loss={last['train_loss']:.4f} "
          f"train_acc={last['train_acc']:.3f} val_metric={last['val_metric']:.3f}")
    print(f"checkpoint and metrics.csv written to {out}")
    return 0


def cmd_eval(args) -> int:
    loaded, dataset = _load_eval_inputs(args)
    if args.out and dataset.label_mode != "single":
        raise ValueError(f"--out writes a confusion matrix, which needs single-label data; "
                         f"the dataset is {dataset.label_mode}-label")
    result = evaluate(loaded.model, dataset, perturbation=args.perturb, seed=args.seed)
    print(f"{result.metric_name} ({args.perturb} order): {result.metric:.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        counts = confusion_matrix(result.predictions, result.labels,
                                  loaded.model.config.num_classes)
        write_confusion_csv(counts, out / f"confusion_{args.perturb}.csv")
        print(f"confusion matrix written to {out / f'confusion_{args.perturb}.csv'}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradient_suite(seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:28s} max_rel_err={r.max_error:.3e}")
    failures = [r for r in results if not r.passed]
    if failures:
        worst = max(failures, key=lambda r: r.max_error)
        print(f"gradient check failed: worst op {worst.name} at {worst.max_error:.3e} "
              f"(threshold {GRAD_CHECK_THRESHOLD:.0e})", file=sys.stderr)
        return VALIDATION_ERROR
    return 0


def cmd_shapes(args) -> int:
    config = RunConfig.from_dict(_load_json(args.config)).model_config()
    for name, shape in shape_inference(config):
        print(f"{name:20s} {shape}")
    return 0


def cmd_extract_graph(args) -> int:
    loaded, dataset = _load_eval_inputs(args)
    out = Path(args.out)
    stacks = collect_activation_stacks(loaded.model, dataset)
    out.mkdir(parents=True, exist_ok=True)
    for class_id, stack in stacks.items():
        graph = extract_activity_graph(stack, class_id=class_id)
        graph.positions = force_layout(graph, seed=args.seed)
        export_graph(graph, "dot", out / f"class_{class_id}.dot")
        export_graph(graph, "json", out / f"class_{class_id}.json")
    print(f"wrote {len(stacks)} class graphs to {out}")
    return 0


def cmd_report(args) -> int:
    loaded, dataset = _load_eval_inputs(args)
    rows = []
    natural = None
    for mode in PERTURBATION_MODES:
        result = evaluate(loaded.model, dataset, perturbation=mode, seed=args.seed)
        if mode == "natural":
            natural = result.metric
        drop = 0.0 if natural in (None, 0.0) else (natural - result.metric) / natural * 100.0
        rows.append({"perturbation": mode, "metric": result.metric, "drop_pct": drop})
    header = f"{'perturbation':14s} {'metric':>8s} {'drop%':>8s}"
    print(header)
    for row in rows:
        print(f"{row['perturbation']:14s} {row['metric']:8.4f} {row['drop_pct']:8.2f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        lines = ["perturbation,metric,drop_pct"]
        lines += [f"{r['perturbation']},{r['metric']!r},{r['drop_pct']!r}" for r in rows]
        (out / "report.csv").write_text("\n".join(lines) + "\n")
        print(f"report written to {out}")
    return 0


# Each subcommand's handler, help and the flags it reads; * marks a required flag.
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a synthetic activity dataset (manifests + VGFT files)",
                 "--config --out* --seed"),
    "train": (cmd_train, "train a model and write checkpoint + metrics.csv",
              "--config* --data* --checkpoint --out* --seed"),
    "eval": (cmd_eval, "evaluate a checkpoint, optionally with a temporal perturbation",
             "--checkpoint* --data* --out --seed --perturb"),
    "gradcheck": (cmd_gradcheck, "run the finite-difference gradient suites", "--seed"),
    "shapes": (cmd_shapes, "print per-stage shape inference for a config", "--config*"),
    "extract-graph": (cmd_extract_graph, "export per-class activity graphs (DOT + JSON)",
                      "--checkpoint* --data* --out* --seed"),
    "report": (cmd_report, "aggregate natural/reversed/random evaluation into a drop table",
               "--checkpoint* --data* --out --seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="videograph",
                                     description="long-range activity recognition at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, flags) in COMMANDS.items():
        sub_parser = sub.add_parser(command, help=help_text)
        sub_parser.set_defaults(handler=handler)
        for flag in flags.split():
            name = flag.rstrip("*")
            options = dict(FLAGS[name], required=flag != name)
            if name == "--seed" and "--config" in flags:
                options.update(default=None, help="overrides the config file's seed")
            sub_parser.add_argument(name, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, TypeError, FloatingPointError, RuntimeError, FileNotFoundError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
