"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
all). The two training-based fixtures are shared: the overfit runs back both
the overfit criterion and the node-distance-growth criterion, and the
temporal-separation runs back both the separation and order-drop criteria.
"""

import time

import numpy as np
import pytest

from videograph.analysis import ActivationStack, extract_activity_graph
from videograph.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from videograph.features import FeatureFileError, read_feature_file, write_feature_file
from videograph.gradsuite import run_gradient_suite
from videograph.metrics import mean_average_precision
from videograph.model import full_scale_config, shape_inference
from videograph.sobol import SobolSequence
from videograph.synthetic import DatasetConfig, generate_samples
from videograph.training import RunConfig, evaluate, train

SEEDS = (0, 1, 2)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def overfit_runs():
    """2 classes x 16 videos at desk dims, 200 epochs, three seeds."""
    runs = []
    t0 = time.time()
    for seed in SEEDS:
        dcfg = DatasetConfig(num_classes=2, num_actions=8, regime="marginal_confound",
                             T=16, H=1, W=1, C=16, train_videos_per_class=16, seed=seed)
        ds = generate_samples(dcfg, 16, salt=0)
        rcfg = RunConfig(num_classes=2, epochs=200, seed=seed)
        model, log = train(rcfg, ds, val_dataset=ds.subset(range(4)))
        runs.append(log)
    return runs, time.time() - t0


@pytest.fixture(scope="module")
def separation_runs():
    """Marginal-confound K=4, 100 train / 100 val, model and baseline."""
    runs = []
    t0 = time.time()
    for seed in SEEDS:
        dcfg = DatasetConfig(num_classes=4, num_actions=4, regime="marginal_confound",
                             T=16, H=1, W=1, C=16, seed=seed)
        train_ds = generate_samples(dcfg, 25, salt=0)
        val_ds = generate_samples(dcfg, 25, salt=1)
        rcfg = RunConfig(num_classes=4, epochs=200, seed=seed)
        model, _ = train(rcfg, train_ds, val_dataset=val_ds)
        baseline, _ = train(rcfg, train_ds, val_dataset=val_ds, baseline=True)
        runs.append({
            "model_natural": evaluate(model, val_ds, "natural", seed=seed),
            "model_random": evaluate(model, val_ds, "random", seed=seed),
            "baseline_natural": evaluate(baseline, val_ds, "natural", seed=seed),
            "baseline_random": evaluate(baseline, val_ds, "random", seed=seed),
        })
    return runs, time.time() - t0


def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = run_gradient_suite(seed=0, num_seeds=10)
    elapsed = time.time() - t0
    worst = max(results, key=lambda r: r.max_error)
    ok = all(r.passed for r in results) and elapsed < 120.0
    report(1, ok, f"{len(results)} checks, worst {worst.name} at {worst.max_error:.2e} "
                  f"(threshold 1e-4), {elapsed:.0f}s")


def test_criterion_2_shape_contract():
    stages = dict(shape_inference(full_scale_config(num_classes=12)))
    expected = {
        "video_tensor": (64, 128, 7, 7, 1024),
        "graph_embedding_1": (21, 42, 7, 7, 1024),
        "graph_embedding_2": (7, 14, 7, 7, 1024),
    }
    ok = all(stages[k] == v for k, v in expected.items())
    report(2, ok, f"full-scale stages {[stages[k] for k in expected]}")


def test_criterion_3_overfit(overfit_runs):
    runs, elapsed = overfit_runs
    best = [max(log.column("train_acc")) for log in runs]
    hits = sum(acc >= 0.95 for acc in best)
    ok = hits >= 2 and elapsed < 300.0
    report(3, ok, f"train accuracy {[f'{a:.2f}' for a in best]}, "
                  f"{hits}/3 seeds >= 0.95, {elapsed:.0f}s")


def test_criterion_4_temporal_structure_separation(separation_runs):
    runs, elapsed = separation_runs
    model_acc = [r["model_natural"].metric for r in runs]
    base_acc = [r["baseline_natural"].metric for r in runs]
    hits = sum(m >= 0.55 and b <= 0.35 for m, b in zip(model_acc, base_acc))
    ok = hits >= 2 and elapsed < 900.0
    report(4, ok, f"model val {[f'{a:.2f}' for a in model_acc]} vs "
                  f"baseline {[f'{a:.2f}' for a in base_acc]}, {hits}/3 seeds, {elapsed:.0f}s")


def test_criterion_5_order_perturbation_drop(separation_runs):
    runs, _ = separation_runs
    drops = [r["model_natural"].metric - r["model_random"].metric for r in runs]
    bitwise = [r["baseline_natural"].scores.tobytes() == r["baseline_random"].scores.tobytes()
               for r in runs]
    hits = sum(d >= 0.15 and inv for d, inv in zip(drops, bitwise))
    ok = hits >= 2
    report(5, ok, f"model drops {[f'{100*d:.0f}pp' for d in drops]}, "
                  f"baseline bitwise-invariant {bitwise}, {hits}/3 seeds")


def test_criterion_6_node_distance_growth(overfit_runs):
    runs, _ = overfit_runs
    growth = []
    for log in runs:
        dists = log.column("mean_node_distance")
        quarter = len(dists) // 4
        growth.append((dists[quarter] - dists[0]) / dists[0])
    hits = sum(g >= 0.05 for g in growth)
    ok = hits >= 2
    report(6, ok, f"distance growth at 25% of training "
                  f"{[f'{100*g:+.0f}%' for g in growth]}, {hits}/3 seeds")


def test_criterion_7_map_oracle_equivalence():
    from oracles import brute_force_map

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        v, k = int(rng.integers(1, 21)), int(rng.integers(1, 6))
        scores = np.round(rng.uniform(size=(v, k)), 2)
        labels = rng.integers(0, 2, size=(v, k))
        if labels.sum() == 0:
            labels[rng.integers(v), rng.integers(k)] = 1
        worst = max(worst, abs(mean_average_precision(scores, labels)
                               - brute_force_map(scores, labels)))
    report(7, worst <= 1e-9, f"100 random instances, worst |diff| {worst:.2e}")


def test_criterion_8_persistence(tmp_path):
    dcfg = DatasetConfig(num_classes=2, seed=5)
    ds = generate_samples(dcfg, 6, salt=0)

    # resumed training matches the uninterrupted run's next-epoch loss
    full_cfg = RunConfig(num_classes=2, epochs=3, seed=5)
    _, full_log = train(full_cfg, ds, val_dataset=ds)
    short_cfg = RunConfig(num_classes=2, epochs=2, seed=5)
    train(short_cfg, ds, val_dataset=ds, out_dir=tmp_path / "short")

    # checkpoint round-trip is bitwise on parameters and velocities
    # (save before resuming: training mutates the loaded state in place)
    loaded = load_checkpoint(tmp_path / "short" / "checkpoint")
    save_checkpoint(loaded.model, loaded.optimizer, loaded.epoch, tmp_path / "second",
                    config_snapshot=loaded.config)
    ckpt_bitwise = ((tmp_path / "short" / "checkpoint" / "weights.bin").read_bytes()
                    == (tmp_path / "second" / "weights.bin").read_bytes())

    _, resumed_log = train(full_cfg, ds, val_dataset=ds, model=loaded.model,
                           optimizer=loaded.optimizer, start_epoch=loaded.epoch)
    loss_gap = abs(full_log.column("train_loss")[-1] - resumed_log.column("train_loss")[-1])

    # VGFT round-trip bitwise; single-byte corruption caught by the crc
    arr = np.random.default_rng(1).normal(size=(3, 1, 1, 4))
    write_feature_file(tmp_path / "f.vgft", arr)
    round_tripped = read_feature_file(tmp_path / "f.vgft")
    vgft_bitwise = np.array_equal(round_tripped.astype(np.float32),
                                  arr.astype(np.float32))
    blob = bytearray((tmp_path / "f.vgft").read_bytes())
    blob[30] ^= 0x04
    (tmp_path / "f.vgft").write_bytes(bytes(blob))
    try:
        read_feature_file(tmp_path / "f.vgft")
        corruption_detected = False
    except FeatureFileError:
        corruption_detected = True

    blob2 = bytearray((tmp_path / "second" / "weights.bin").read_bytes())
    blob2[7] ^= 0x10
    (tmp_path / "second" / "weights.bin").write_bytes(bytes(blob2))
    try:
        load_checkpoint(tmp_path / "second")
        ckpt_corruption_detected = False
    except CheckpointError:
        ckpt_corruption_detected = True

    ok = (loss_gap <= 1e-6 and ckpt_bitwise and vgft_bitwise
          and corruption_detected and ckpt_corruption_detected)
    report(8, ok, f"resume loss gap {loss_gap:.2e}, checkpoint bitwise {ckpt_bitwise}, "
                  f"vgft bitwise {vgft_bitwise}, corruption detected "
                  f"{corruption_detected and ckpt_corruption_detected}")


def test_criterion_9_sobol_reference():
    seq = SobolSequence(1)
    first8 = [float(seq.next_point()[0]) for _ in range(8)]
    expected = [0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125, 0.1875]
    pts = SobolSequence(13).take(500)
    in_range = bool(np.all((pts >= 0.0) & (pts < 1.0)))
    ok = first8 == expected and in_range
    report(9, ok, f"first 8 one-dimensional points {first8}, range check {in_range}")


def test_criterion_10_extraction_oracle():
    rng = np.random.default_rng(17)
    stack = np.abs(rng.normal(size=(2, 2, 3, 2)))   # (M, T', N', C)
    graph = extract_activity_graph(ActivationStack(stack))

    profiles = stack.mean(axis=0).mean(axis=0)
    importance = profiles.sum(axis=1)
    edges = np.array([[np.linalg.norm(profiles[i] - profiles[j]) for j in range(3)]
                      for i in range(3)])
    close = (np.abs(graph.node_importance - importance).max() <= 1e-12
             and np.abs(graph.edge_weights - edges).max() <= 1e-12)

    perm = np.array([2, 0, 1])
    permuted = extract_activity_graph(ActivationStack(stack[:, :, perm, :]))
    equivariant = (np.array_equal(permuted.node_importance, graph.node_importance[perm])
                   and np.array_equal(permuted.edge_weights,
                                      graph.edge_weights[np.ix_(perm, perm)]))
    report(10, close and equivariant,
           f"oracle match <= 1e-12: {close}, exact permutation equivariance: {equivariant}")
