#!/usr/bin/env python3
"""Training-stability panel: long desk runs over many seeds, one line per seed.

Each seed runs the set-up of the `train_desk` benchmark workload
(`perfbench/workloads.py`: K=4 marginal-confound activities, 100 train and
100 val videos) and trains its desk run config for --epochs epochs. Val
accuracy is read as a 5-epoch running median, and per seed the panel prints:

  * best: the highest median;
  * final: the median of the last 5 epochs;
  * dip: the first epoch whose median is below 0.4 after the best so far
    has reached 0.7 ("-" if none);
  * low: the number of epochs after epoch 40 whose median is below 0.4.

It writes nothing outside a temporary directory. About 35 s per seed at
700 epochs on one core, so it is run by hand, not by the test suite:

    PYTHONPATH=src python3 scripts/stability.py --seeds 0-19 --epochs 700
"""

import argparse
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import TrainDesk  # noqa: E402

from videograph import training  # noqa: E402

WINDOW = 5
DIP_BELOW = 0.4
DIP_AFTER_BEST = 0.7
SETTLE_EPOCHS = 40


def parse_seeds(text: str) -> list[int]:
    """'0-3,7' -> [0, 1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def running_medians(values: list[float]) -> np.ndarray:
    """Median of each epoch's value and the WINDOW - 1 before it, from the first full window."""
    windows = np.lib.stride_tricks.sliding_window_view(np.asarray(values), WINDOW)
    return np.median(windows, axis=1)


def panel_row(val_acc: list[float]) -> dict:
    medians = running_medians(val_acc)
    epochs = np.arange(WINDOW - 1, len(val_acc))          # epoch of each window's last value
    best_so_far = np.maximum.accumulate(medians)
    dips = epochs[(medians < DIP_BELOW) & (best_so_far >= DIP_AFTER_BEST)]
    return {"best": float(medians.max()), "final": float(medians[-1]),
            "dip": int(dips[0]) if dips.size else None,
            "low": int(np.sum((medians < DIP_BELOW) & (epochs > SETTLE_EPOCHS)))}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-19"))
    parser.add_argument("--epochs", type=int, default=700)
    args = parser.parse_args()
    if args.epochs < WINDOW:
        parser.error(f"--epochs must be at least {WINDOW}")

    print(f"{'seed':>6} {'best':>6} {'final':>6} {'dip':>5} {'low':>5}", flush=True)
    rows = []
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            desk = TrainDesk(seed, Path(tmp))
            desk.setup()
        _, log = training.train(replace(desk.config, epochs=args.epochs), desk.train_ds,
                                desk.val_ds)
        row = panel_row(log.column("val_metric"))
        rows.append(row)
        dip = "-" if row["dip"] is None else row["dip"]
        print(f"{seed:>6} {row['best']:>6.3f} {row['final']:>6.3f} {dip:>5} {row['low']:>5}",
              flush=True)
    dipped = sum(row["dip"] is not None for row in rows)
    low_final = sum(row["final"] < DIP_BELOW for row in rows)
    print(f"dips {dipped}/{len(rows)}, final below {DIP_BELOW}: {low_final}/{len(rows)}")


if __name__ == "__main__":
    main()
