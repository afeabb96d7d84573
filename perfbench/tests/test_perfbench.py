"""Tests of the benchmark itself: transparent tracing, deterministic inputs, spec.

Run from the repository root: `PYTHONPATH=src python -m pytest perfbench/tests -q`.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
from layers import OP_SPAN, layer_metrics, per_layer_names  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import EvalGrid, TrainDesk, dataset_config, gen_data  # noqa: E402

from videograph import (checkpoint, datasets, gradsuite, model, optim, synthetic,  # noqa: E402
                        tensor, training)

PATCHED_NAMESPACES = [tensor, training, datasets, synthetic, checkpoint, gradsuite,
                      tensor.Tape, model.VideoGraphModel, model.MeanPoolBaseline,
                      optim.SgdMomentum]


def _snapshot():
    spaces = [dict(vars(ns)) for ns in PATCHED_NAMESPACES]
    lists = [dict(tensor._ACTIVATIONS), list(gradsuite.OP_CHECKS), list(gradsuite.MODEL_CHECKS)]
    return spaces, lists


def _assert_restored(before):
    spaces, lists = before
    for ns, saved in zip(PATCHED_NAMESPACES, spaces):
        current = vars(ns)
        assert set(current) == set(saved), ns
        assert all(current[k] is saved[k] for k in saved), ns
    assert all(tensor._ACTIVATIONS[k] is v for k, v in lists[0].items())
    for now, saved in ((gradsuite.OP_CHECKS, lists[1]), (gradsuite.MODEL_CHECKS, lists[2])):
        assert all(a[1] is b[1] for a, b in zip(now, saved))


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    cfg = dataset_config(3, H=3, W=3, train_per_class=3, val_per_class=2)
    return gen_data(cfg, tmp_path_factory.mktemp("data"))


def _train_and_eval(train_ds, val_ds, baseline=False):
    config = training.RunConfig(H=3, W=3, epochs=2, batch_size=4, seed=3)
    fitted, log = training.train(config, train_ds, val_ds, baseline=baseline)
    scores = {mode: training.evaluate(fitted, val_ds, mode, seed=3).scores
              for mode in synthetic.PERTURBATION_MODES}
    return log.rows, scores


@pytest.mark.parametrize("baseline", [False, True])
def test_tracing_is_transparent(tiny_data, baseline):
    train_ds, val_ds = tiny_data
    plain_rows, plain_scores = _train_and_eval(train_ds, val_ds, baseline)
    before = _snapshot()
    with Tracer() as tracer:
        traced_rows, traced_scores = _train_and_eval(train_ds, val_ds, baseline)
    _assert_restored(before)

    assert [repr(r) for r in traced_rows] == [repr(r) for r in plain_rows]
    for mode, scores in plain_scores.items():
        assert traced_scores[mode].tobytes() == scores.tobytes()
    names = {s[0] for s in tracer.spans}
    assert {"tensor.matmul.fwd", "tensor.matmul.bwd", "tensor.tape.backward", "optim.step",
            "training.evaluate", "model.forward_batch.eval"} <= names
    assert ("tensor.depthwise_conv1d.bwd" in names) != baseline
    assert all(s[2] is not None and s[2] >= s[1] for s in tracer.spans)


def test_tracer_restores_after_error():
    before = _snapshot()
    with pytest.raises(tensor.ShapeError):
        with Tracer() as tracer:
            tensor.matmul(tensor.Tensor(np.ones((2, 3))), tensor.Tensor(np.ones((2, 3))))
    _assert_restored(before)
    assert tracer.spans[-1][0] == "tensor.matmul.fwd" and tracer.spans[-1][5] == "raised"


def test_traced_gradient_suite_matches_plain():
    plain = gradsuite.run_gradient_suite(seed=4, num_seeds=1, include_desk_model=False)
    with Tracer() as tracer:
        traced = gradsuite.run_gradient_suite(seed=4, num_seeds=1, include_desk_model=False)
    assert [(r.name, r.max_error) for r in traced] == [(r.name, r.max_error) for r in plain]
    checks = [s for s in tracer.spans if s[0] == "gradsuite.grad_check"]
    assert len(checks) == len(gradsuite.OP_CHECKS)
    assert all(s[5] >= 3 for s in checks)          # 2 * sum(sizes) + 1


def test_layer_metrics_report_every_per_layer_name(tiny_data):
    train_ds, val_ds = tiny_data
    with Tracer() as tracer:
        tracer.op = "op0"
        span = tracer.open(OP_SPAN)
        _train_and_eval(train_ds, val_ds)
        tracer.close(span)
    metrics = layer_metrics(tracer.spans, "train_desk")
    added_by_run = {"op_ms.tail", "op_ms.tail_pct", "op_ms.tail_n", "trace.overhead_pct"}
    assert set(metrics) | added_by_run == {n for n, _, _ in per_layer_names()}
    assert metrics["tensor.depthwise_conv1d.calls"] > 0
    assert 0 < metrics["tensor.coverage_pct"] <= 100


def test_workload_inputs_are_deterministic_per_seed(tmp_path):
    def inputs(seed, name):
        cfg = dataset_config(seed, H=1, W=1, train_per_class=2, val_per_class=2)
        train_ds, val_ds = gen_data(cfg, tmp_path / name)
        return [f.tobytes() for f in train_ds.features + val_ds.features], \
            list(train_ds.labels) + list(val_ds.labels)

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a")[0] != inputs(6, "c")[0]
    assert TrainDesk(5, tmp_path).config == TrainDesk(5, tmp_path).config
    assert EvalGrid(5, tmp_path).config == EvalGrid(5, tmp_path).config


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "unchanged"
    faster = compare.verdict(parent, [p * 0.7 for p in parent], "lower", 0.1)
    assert faster["verdict"] == "better" and faster["bound_ok"]
    slower = compare.verdict(parent, [p * 1.3 for p in parent], "lower", 0.1)
    assert slower["verdict"] == "worse" and not slower["bound_ok"]


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in committed[key]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in committed["end_to_end"])} in committed["end_to_end"]
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gradcheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
