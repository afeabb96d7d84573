"""The hand-run scripts: the stability panel's parsing and rows, and the fingerprint."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import fingerprint  # noqa: E402
import stability  # noqa: E402


def test_parse_seeds_expands_ranges():
    assert stability.parse_seeds("0-3,7") == [0, 1, 2, 3, 7]


@pytest.mark.parametrize("val_acc, row", [
    # settles at 0.9, then collapses to 0.3: the median drops below 0.4 at epoch 47
    ([0.2] * 5 + [0.9] * 40 + [0.3] * 10, {"best": 0.9, "final": 0.3, "dip": 47, "low": 8}),
    # starts below 0.4 but recovers before epoch 40 and never falls back
    ([0.2] * 10 + [0.8] * 50, {"best": 0.8, "final": 0.8, "dip": None, "low": 0}),
    # never reaches 0.7, so falling below 0.4 after epoch 40 is low but no dip
    ([0.5] * 30 + [0.3] * 20, {"best": 0.5, "final": 0.3, "dip": None, "low": 9})],
    ids=["dip", "no-dip", "low-without-dip"])
def test_panel_row(val_acc, row):
    assert stability.panel_row(val_acc) == row


def test_fingerprint_trajectory_is_the_benchmark_trajectory(tmp_path):
    desk = fingerprint.TrainDesk(seed=3, workdir=tmp_path)
    desk.setup()
    printed = fingerprint.train_fingerprint(desk)
    desk.warm_up()
    desk.run_op(0)
    desk.run_op(1)
    checks, info = desk.final_checks()
    assert checks["resume_trajectory_bitwise"]
    assert info["loss_trajectory_sha256"] == printed
