"""Metrics, evaluation, checkpoints, and the training loop."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from videograph import checkpoint
from videograph import tensor as tz
from videograph import training
from videograph.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from videograph.cli import main
from videograph.datasets import Dataset, load_manifest, write_manifest
from videograph.metrics import mean_average_precision
from videograph.model import MODEL_FIELDS, VideoGraphConfig, VideoGraphModel, eval_chunks
from videograph.optim import SgdMomentum
from videograph.synthetic import DatasetConfig, generate_samples
from videograph.tensor import Tensor
from videograph.training import MetricLog, RunConfig, build_model, evaluate, train


from oracles import brute_force_map


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.8], [0.7, 0.9], [0.1, 0.2]])
        labels = np.array([[1, 0], [1, 1], [0, 0]])
        assert mean_average_precision(scores, labels) == 1.0

    def test_single_positive_ranked_second(self):
        scores = np.array([[0.9], [0.5]])
        labels = np.array([[0], [1]])
        assert mean_average_precision(scores, labels) == 0.5

    def test_zero_positive_classes_excluded(self):
        scores = np.array([[0.9, 0.1], [0.5, 0.8]])
        labels = np.array([[1, 0], [0, 0]])
        assert mean_average_precision(scores, labels) == 1.0

    def test_all_classes_empty_rejected(self):
        with pytest.raises(ValueError, match="no class"):
            mean_average_precision(np.ones((2, 2)), np.zeros((2, 2)))

    def test_ties_break_by_ascending_index(self):
        scores = np.array([[0.5], [0.5]])
        labels = np.array([[0], [1]])
        # the tied negative at index 0 ranks first, so AP = 1/2
        assert mean_average_precision(scores, labels) == 0.5

    @given(st.integers(1, 20), st.integers(1, 5), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_random_instances_match_brute_force(self, v, k, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(size=(v, k)), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=(v, k))
        if labels.sum() == 0:
            labels[rng.integers(v), rng.integers(k)] = 1
        got = mean_average_precision(scores, labels)
        expected = brute_force_map(scores, labels)
        assert abs(got - expected) <= 1e-9


def tiny_dataset(num_classes=2, per_class=6, seed=0, **kwargs):
    cfg = DatasetConfig(num_classes=num_classes, seed=seed, **kwargs)
    return generate_samples(cfg, per_class, salt=0), cfg


def eval_one(model, features):
    """Eval-mode scores for one video, run as a batch of one."""
    with tz.stop_recording():
        return model.forward_batch(Tensor(features[None]), mode="eval").data[0]


class _OracleStub:
    """Predicts the true label with certainty; time order is irrelevant."""

    def __init__(self, dataset, num_classes):
        # keyed on the float64 bytes that forward_batch receives
        self.sorted_lookup = {np.sort(feat.astype(np.float64), axis=0).tobytes(): label
                              for feat, label in zip(dataset.features, dataset.labels)}
        self.num_classes = num_classes
        self.config = VideoGraphConfig(num_classes=num_classes,
                                       **dict(zip("THWC", dataset.features[0].shape)))

    def forward_batch(self, x, mode="train"):
        scores = np.zeros((x.shape[0], self.num_classes))
        for row, features in zip(scores, x.data):
            row[self.sorted_lookup[np.sort(features, axis=0).tobytes()]] = 1.0
        return Tensor(scores)


class _RandomStub:
    def __init__(self, num_classes, seed=0):
        self.num_classes = num_classes
        self.config = VideoGraphConfig(num_classes=num_classes)
        self.rng = np.random.default_rng(seed)

    def forward_batch(self, x, mode="train"):
        return Tensor(self.rng.uniform(size=(x.shape[0], self.num_classes)))


class TestEvaluate:
    def test_oracle_stub_scores_one(self):
        ds, _ = tiny_dataset()
        result = evaluate(_OracleStub(ds, 2), ds, perturbation="random", seed=1)
        assert result.metric == 1.0

    def test_uniform_random_predictor_near_chance(self):
        cfg = DatasetConfig(num_classes=4, seed=0)
        ds = generate_samples(cfg, 100, salt=0)  # 400 samples
        result = evaluate(_RandomStub(4, seed=3), ds, perturbation="natural")
        assert abs(result.metric - 0.25) <= 0.05

    def test_natural_equals_untouched(self):
        ds, _ = tiny_dataset(per_class=5, seed=2, H=3, W=3)
        # several eval chunks, the last one a single video
        assert [len(ds.features[chunk]) for chunk in eval_chunks(ds.features)] == [3, 3, 3, 1]
        trained = [train(RunConfig(num_classes=2, H=3, W=3, epochs=2, seed=2), ds, val_dataset=ds,
                         baseline=baseline)[0] for baseline in (False, True)]
        for model in [_OracleStub(ds, 2)] + trained:
            scores_direct = np.stack([eval_one(model, f) for f in ds.features])
            result = evaluate(model, ds, perturbation="natural", seed=9)
            assert result.scores.tobytes() == scores_direct.tobytes()

    def test_label_mode_mismatch_rejected(self):
        ds, _ = tiny_dataset()
        stub = _RandomStub(4)
        stub.config = replace(stub.config, label_mode="multi")
        with pytest.raises(ValueError, match="eval dataset is single-label but config key "
                                             "'label_mode' is 'multi'"):
            evaluate(stub, ds)

    def test_video_shape_checked_against_the_model(self):
        ds, _ = tiny_dataset()
        model, _ = train(RunConfig(num_classes=2, epochs=1, seed=0), ds, ds, baseline=True)
        short, _ = tiny_dataset(T=12)
        with pytest.raises(ValueError, match=r"eval dataset video 0 has shape \(12, 1, 1, 16\): "
                                             r"its T is 12 but config key 'T' is 16"):
            evaluate(model, short)

    def test_empty_dataset_rejected(self):
        empty = Dataset(features=[], labels=np.zeros(0, dtype=np.int64), label_mode="single")
        with pytest.raises(ValueError, match="eval dataset is empty"):
            evaluate(_RandomStub(2), empty)

    def test_label_outside_num_classes_rejected(self):
        ds, _ = tiny_dataset()
        shifted = Dataset(ds.features, ds.labels + 5, ds.label_mode)
        with pytest.raises(ValueError, match=re.escape("eval dataset label 5 is outside [0, 2) "
                                                       "for num_classes 2")):
            evaluate(_RandomStub(2), shifted)

    @pytest.mark.parametrize("mode, draws", [("natural", 0), ("reversed", 0), ("random", 12)])
    def test_only_random_order_derives_seeds(self, monkeypatch, mode, draws):
        ds, _ = tiny_dataset()
        derived = []
        seed_sequence = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence",
                            lambda *args: derived.append(args) or seed_sequence(*args))
        evaluate(_RandomStub(2), ds, perturbation=mode, seed=4)
        assert len(derived) == draws


class TestMeanPoolBaseline:
    def _trained_baseline(self, seed=0):
        ds, _ = tiny_dataset(seed=seed)
        cfg = RunConfig(num_classes=2, epochs=3, seed=seed)
        model, _ = train(cfg, ds, val_dataset=ds, baseline=True)
        return model, ds

    def test_any_time_permutation_bitwise_identical(self):
        model, ds = self._trained_baseline()
        feats = ds.features[0]
        base = eval_one(model, feats)
        rng = np.random.default_rng(5)
        for _ in range(5):
            perm = rng.permutation(feats.shape[0])
            np.testing.assert_array_equal(eval_one(model, feats[perm]), base)

    def test_constant_segments_equal_single_segment(self):
        model, ds = self._trained_baseline(seed=1)
        one = np.random.default_rng(3).normal(size=(1, 1, 1, 16))
        tiled = np.broadcast_to(one, (16, 1, 1, 16)).copy()
        np.testing.assert_allclose(eval_one(model, tiled),
                                   eval_one(model, np.repeat(one, 16, axis=0)), atol=0)

    def test_evaluate_drop_is_exactly_zero(self):
        model, ds = self._trained_baseline(seed=2)
        nat = evaluate(model, ds, "natural", seed=0)
        rnd = evaluate(model, ds, "random", seed=0)
        assert nat.scores.tobytes() == rnd.scores.tobytes()


class TestCheckpoint:
    def _trained(self, tmp_path, epochs=2, seed=0):
        ds, _ = tiny_dataset(seed=seed)
        cfg = RunConfig(num_classes=2, epochs=epochs, seed=seed)
        model, log = train(cfg, ds, val_dataset=ds, out_dir=tmp_path / "run")
        return model, log, cfg, ds

    def test_round_trip_bitwise_and_byte_stable(self, tmp_path):
        model, _, cfg, ds = self._trained(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint"
        loaded = load_checkpoint(ckpt)
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, loaded.model.named_parameters()[name].data)
        save_checkpoint(loaded.model, loaded.optimizer, loaded.epoch, tmp_path / "second",
                        config_snapshot=loaded.config)
        assert (ckpt / "weights.bin").read_bytes() == (tmp_path / "second" / "weights.bin").read_bytes()
        assert (ckpt / "manifest.json").read_text() == (tmp_path / "second" / "manifest.json").read_text()

    def test_config_snapshot_preserved_exactly(self, tmp_path):
        _, _, cfg, _ = self._trained(tmp_path)
        loaded = load_checkpoint(tmp_path / "run" / "checkpoint")
        assert loaded.config == cfg.to_dict()

    def test_single_byte_corruption_detected(self, tmp_path):
        self._trained(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint"
        blob = bytearray((ckpt / "weights.bin").read_bytes())
        blob[len(blob) // 2] ^= 0x01
        (ckpt / "weights.bin").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="crc"):
            load_checkpoint(ckpt)

    @staticmethod
    def _resealed(ckpt, edit):
        """Apply `edit` to the manifest and seal it with the payload again."""
        manifest = json.loads((ckpt / "manifest.json").read_text())
        edit(manifest)
        payload = (ckpt / "weights.bin").read_bytes()[:-4]
        checkpoint._write_sealed(ckpt, manifest, payload)
        return manifest

    def test_swapped_record_names_detected(self, tmp_path):
        self._trained(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint"
        manifest = json.loads((ckpt / "manifest.json").read_text())
        names = [rec["name"] for rec in manifest["buffers"]]
        i, j = names.index("embed0.bn.running_mean"), names.index("embed0.bn.running_var")
        buffers = manifest["buffers"]
        buffers[i]["name"], buffers[j]["name"] = buffers[j]["name"], buffers[i]["name"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        with pytest.raises(CheckpointError, match="crc"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("size", [0, 3])
    def test_weights_shorter_than_seal_rejected(self, tmp_path, size):
        self._trained(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint"
        (ckpt / "weights.bin").write_bytes(b"\x00" * size)
        with pytest.raises(CheckpointError, match=f"{size} bytes is too short"):
            load_checkpoint(ckpt)

    def test_shape_mismatch_names_parameter(self, tmp_path):
        self._trained(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint"
        manifest = self._resealed(ckpt, lambda m: m["params"][0].update(shape=[1, 1]))
        name = manifest["params"][0]["name"]
        with pytest.raises(CheckpointError, match=name.replace(".", "\\.")):
            load_checkpoint(ckpt)

    @staticmethod
    def _rewrite_records(ckpt, edit):
        """Replace every record by the (record, bytes) pairs `edit(group, record, bytes)`
        returns for it, then re-seal."""
        manifest = json.loads((ckpt / "manifest.json").read_text())
        payload = (ckpt / "weights.bin").read_bytes()
        chunks, cursor = [], 0
        for group in ("params", "velocities", "buffers"):
            kept = []
            for rec in manifest[group]:
                blob = payload[cursor:cursor + 8 * int(np.prod(rec["shape"]))]
                cursor += len(blob)
                for new_rec, new_blob in edit(group, rec, blob):
                    kept.append(new_rec)
                    chunks.append(new_blob)
            manifest[group] = kept
        checkpoint._write_sealed(ckpt, manifest, b"".join(chunks))

    @classmethod
    def _rewrite_record(cls, ckpt, group, name, shape):
        """Cut one record to its first values of `shape` (None drops it), then re-seal."""

        def edit(g, rec, blob):
            if (g, rec["name"]) != (group, name):
                return [(rec, blob)]
            if shape is None:
                return []
            return [({**rec, "shape": list(shape)}, blob[:8 * int(np.prod(shape))])]

        cls._rewrite_records(ckpt, edit)

    @pytest.mark.parametrize("group, name, shape", [
        ("params", "classifier.fc2.bias", None),
        ("velocities", "classifier.fc2.bias", None),
        ("velocities", "classifier.fc2.bias", (1,)),
        ("buffers", "embed0.bn.running_mean", None),
        ("buffers", "classifier.bn.running_var", (1,)),
    ])
    def test_every_record_group_checked(self, tmp_path, group, name, shape):
        self._trained(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint"
        self._rewrite_record(ckpt, group, name, shape)
        with pytest.raises(CheckpointError, match=rf"^{group}\b.*{re.escape(name)}"):
            load_checkpoint(ckpt)

    def test_channel_bias_record_of_older_checkpoints_refused(self, tmp_path, capsys):
        """Checkpoints from before the embedding layer lost its channel bias carry a
        parameter and a velocity record for it; loading names the record."""
        _, _, _, ds = self._trained(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint"

        def add_channel_bias(group, rec, blob):
            pairs = [(rec, blob)]
            if group != "buffers" and rec["name"] == "embed0.channel_mixer":
                channels = rec["shape"][1]
                pairs.append(({"name": "embed0.channel_bias", "shape": [1, channels]},
                              bytes(8 * channels)))
            return pairs

        self._rewrite_records(ckpt, add_channel_bias)
        message = "params record 'embed0.channel_bias' does not exist in the model"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(ckpt)
        manifest = write_manifest(ds, tmp_path / "data", "val")
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(manifest)]) == 1
        assert message in capsys.readouterr().err

    @staticmethod
    def _saved_with_snapshot(path, edit):
        """An untrained desk checkpoint whose config snapshot `edit` has modified."""
        snapshot = RunConfig().to_dict()
        edit(snapshot)
        model = VideoGraphModel(VideoGraphConfig())
        optimizer = SgdMomentum(model.named_parameters(), learning_rate=0.1, momentum=0.9,
                                weight_decay=1e-5)
        return save_checkpoint(model, optimizer, 0, path, config_snapshot=snapshot)

    @pytest.mark.parametrize("key", MODEL_FIELDS)
    def test_missing_model_key_named(self, tmp_path, key):
        ckpt = self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: snap.pop(key))
        with pytest.raises(CheckpointError, match=re.escape(repr([key]))):
            load_checkpoint(ckpt)

    def test_missing_optimizer_settings_named(self, tmp_path):
        ckpt = self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: None)
        self._resealed(ckpt, lambda m: m.pop("optimizer"))
        with pytest.raises(CheckpointError,
                           match=re.escape("['learning_rate', 'momentum', 'weight_decay']")):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit, message", [
        (lambda opt: opt.pop("momentum"), "'optimizer' lacks ['momentum'] and has unknown []"),
        (lambda opt: opt.update(nesterov=True), "'optimizer' lacks [] and has unknown ['nesterov']"),
        (lambda opt: opt.update(learning_rate="0.1"),
         "optimizer setting 'learning_rate' must be a number in [0, inf); got '0.1'"),
        (lambda opt: opt.update(learning_rate=float("nan")),
         "optimizer setting 'learning_rate' must be a number in [0, inf); got nan")],
        ids=["missing-key", "extra-key", "string", "nan"])
    def test_optimizer_record_checked(self, tmp_path, edit, message):
        ckpt = self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: None)
        self._resealed(ckpt, lambda m: edit(m["optimizer"]))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(ckpt)

    def test_optimizer_record_must_be_an_object(self, tmp_path):
        ckpt = self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: None)
        self._resealed(ckpt, lambda m: m.update(optimizer=[0.1, 0.9, 1e-5]))
        with pytest.raises(CheckpointError, match=re.escape("manifest key 'optimizer' must be a "
                                                            "JSON object; got [0.1, 0.9, 1e-05]")):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("value", ["no", 1, None], ids=["string", "int", "missing"])
    def test_bn_initialized_must_be_a_bool(self, tmp_path, value):
        ckpt = self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: None)
        manifest = self._resealed(ckpt, lambda m: m.update(bn_initialized=value) if value is not None
                                  else m.pop("bn_initialized"))
        assert manifest.get("bn_initialized") == value
        with pytest.raises(CheckpointError, match=re.escape("manifest key 'bn_initialized' must be "
                                                            f"true or false; got {value!r}")):
            load_checkpoint(ckpt)

    def test_bn_initialized_read_as_stored(self, tmp_path):
        untrained = load_checkpoint(self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: None))
        assert not any(bn.initialized for bn in untrained.model.bn_states().values())
        self._trained(tmp_path)
        trained = load_checkpoint(tmp_path / "run" / "checkpoint")
        assert all(bn.initialized for bn in trained.model.bn_states().values())

    @pytest.mark.parametrize("text, message", [
        ("{bad", "is not JSON"), ("[1, 2]", "must hold a JSON object, not a list")],
        ids=["not-json", "not-object"])
    def test_manifest_not_a_json_object_names_path(self, tmp_path, text, message):
        ckpt = self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: None)
        (ckpt / "manifest.json").write_text(text)
        with pytest.raises(CheckpointError, match=re.escape(f"{ckpt / 'manifest.json'} {message}")):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("model_type"), "lacks key(s) ['model_type']"),
        (lambda m: m.pop("epoch"), "lacks key(s) ['epoch']"),
        (lambda m: m.update(epoch=-1), "'epoch' must be a non-negative integer; got -1"),
        (lambda m: m.update(epoch=1.5), "'epoch' must be a non-negative integer; got 1.5"),
        (lambda m: m.update(epoch=True), "'epoch' must be a non-negative integer; got True")],
        ids=["no-model-type", "no-epoch", "negative-epoch", "float-epoch", "bool-epoch"])
    def test_model_type_and_epoch_checked(self, tmp_path, edit, message):
        ckpt = self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: None)
        self._resealed(ckpt, edit)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(ckpt)

    def test_model_key_of_wrong_type_named(self, tmp_path):
        ckpt = self._saved_with_snapshot(tmp_path / "ckpt", lambda snap: snap.update(N=8.0))
        with pytest.raises(ValueError, match="config key 'N' must be int; got 8.0"):
            load_checkpoint(ckpt)

    def test_resume_matches_uninterrupted_loss(self, tmp_path):
        ds, _ = tiny_dataset(seed=4)
        full_cfg = RunConfig(num_classes=2, epochs=3, seed=4)
        full_model = build_model(full_cfg, ds)
        full_opt = SgdMomentum(full_model.named_parameters(), learning_rate=full_cfg.learning_rate,
                               momentum=full_cfg.momentum, weight_decay=full_cfg.weight_decay)
        _, full_log = train(full_cfg, ds, val_dataset=ds, model=full_model, optimizer=full_opt)

        short_cfg = RunConfig(num_classes=2, epochs=2, seed=4)
        _, short_log = train(short_cfg, ds, val_dataset=ds, out_dir=tmp_path / "short")
        loaded = load_checkpoint(tmp_path / "short" / "checkpoint")
        _, resumed_log = train(full_cfg, ds, val_dataset=ds, model=loaded.model,
                               optimizer=loaded.optimizer, start_epoch=loaded.epoch)
        assert resumed_log.column("epoch") == [3]
        # repr round-trips a float exactly, so equal reprs are equal bits
        assert repr(short_log.rows + resumed_log.rows) == repr(full_log.rows)
        for name, p in full_model.named_parameters().items():
            assert p.data.tobytes() == loaded.model.named_parameters()[name].data.tobytes()
            assert full_opt.velocity[name].tobytes() == loaded.optimizer.velocity[name].tobytes()
        for name, bn in full_model.bn_states().items():
            resumed = loaded.model.bn_states()[name]
            assert bn.running_mean.tobytes() == resumed.running_mean.tobytes()
            assert bn.running_var.tobytes() == resumed.running_var.tobytes()


class TestTrainingLoop:
    def test_determinism_identical_logs(self):
        ds, _ = tiny_dataset(seed=6)
        cfg = RunConfig(num_classes=2, epochs=3, seed=6)
        _, log_a = train(cfg, ds, val_dataset=ds)
        _, log_b = train(cfg, ds, val_dataset=ds)
        assert log_a.to_csv() == log_b.to_csv()

    def test_determinism_identical_output_files(self, tmp_path):
        ds, _ = tiny_dataset(seed=6)
        cfg = RunConfig(num_classes=2, epochs=3, seed=6)
        train(cfg, ds, val_dataset=ds, out_dir=tmp_path / "a")
        train(cfg, ds, val_dataset=ds, out_dir=tmp_path / "b")
        for rel in ("metrics.csv", "checkpoint/weights.bin", "checkpoint/manifest.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_epoch_zero_loss_near_chance(self):
        # fan-in-uniform output weights put some seeds slightly outside the
        # +-0.5 window; the property is statistical, so the seed is pinned
        ds, _ = tiny_dataset(num_classes=4, per_class=4, seed=3)
        cfg = RunConfig(num_classes=4, epochs=1, seed=3)
        _, log = train(cfg, ds, val_dataset=ds)
        assert abs(log.column("train_loss")[0] - np.log(4)) <= 0.5

    def test_zero_lr_leaves_parameters_bitwise(self):
        ds, _ = tiny_dataset(seed=8)
        cfg = RunConfig(num_classes=2, epochs=1, learning_rate=0.0, seed=8)
        model = build_model(cfg, ds)
        before = {n: p.data.tobytes() for n, p in model.named_parameters().items()}
        train(cfg, ds, val_dataset=ds, model=model)
        after = {n: p.data.tobytes() for n, p in model.named_parameters().items()}
        assert before == after

    def test_resume_rejects_model_of_another_config(self, tmp_path):
        ds, _ = tiny_dataset(seed=8)
        cfg = RunConfig(num_classes=2, epochs=1, seed=8)
        model = build_model(replace(cfg, t=5), ds)
        before = {n: p.data.tobytes() for n, p in model.named_parameters().items()}
        with pytest.raises(ValueError, match="'t' is 5 but the run config has 7"):
            train(cfg, ds, val_dataset=ds, out_dir=tmp_path / "run", model=model)
        assert not (tmp_path / "run").exists()
        assert before == {n: p.data.tobytes() for n, p in model.named_parameters().items()}

    def test_negative_start_epoch_rejected(self, monkeypatch):
        built = []
        monkeypatch.setattr(training, "build_model", lambda *args, **kwargs: built.append(args))
        ds, _ = tiny_dataset(seed=8)
        with pytest.raises(ValueError, match="start_epoch must be non-negative; got -1"):
            train(RunConfig(num_classes=2, epochs=1, seed=8), ds, ds, start_epoch=-1)
        assert built == []

    def test_resume_accepts_another_seed(self):
        ds, _ = tiny_dataset(seed=8)
        cfg = RunConfig(num_classes=2, epochs=1, seed=8)
        _, log = train(cfg, ds, val_dataset=ds, model=build_model(replace(cfg, seed=9), ds))
        assert log.column("epoch") == [0, 1]

    @pytest.mark.parametrize("videos, sizes", [(100, [8] * 11 + [12]), (5, [5])])
    def test_remainder_folds_into_the_last_batch(self, monkeypatch, videos, sizes):
        """Each train-mode pass, the untrained epoch 0 included, sees every video
        once and no batch below batch_size unless the dataset is smaller."""
        rng = np.random.default_rng(0)
        ds = Dataset([rng.normal(size=(16, 1, 1, 16)) for _ in range(videos)],
                     rng.integers(0, 2, size=videos), "single")
        index = {f.tobytes(): i for i, f in enumerate(ds.features)}
        batches = []
        forward = VideoGraphModel.forward_batch

        def spy(model, x, mode="train", capture=None):
            if mode == "train":
                batches.append([index[video.tobytes()] for video in x.data])
            return forward(model, x, mode, capture)

        monkeypatch.setattr(VideoGraphModel, "forward_batch", spy)
        train(RunConfig(num_classes=2, epochs=2, batch_size=8), ds, ds)
        passes = [batches[i:i + len(sizes)] for i in range(0, len(batches), len(sizes))]
        assert len(passes) == 3
        for batches_of_pass in passes:
            assert [len(b) for b in batches_of_pass] == sizes
            assert sorted(i for b in batches_of_pass for i in b) == list(range(videos))

    def test_empty_dataset_rejected(self):
        empty = Dataset(features=[], labels=np.zeros(0, dtype=np.int64), label_mode="single")
        with pytest.raises(ValueError, match="empty"):
            train(RunConfig(), empty, tiny_dataset()[0])

    @pytest.mark.parametrize("which, labels, config_mode, message", [
        ("train", [0, 1, 2, 1], "single",
         "train dataset label 2 is outside [0, 2) for num_classes 2"),
        ("train", [0, -1, 1, 5], "single",
         "train dataset label -1 is outside [0, 2) for num_classes 2"),
        ("val", [0, 1, 1, 3], "single", "val dataset label 3 is outside [0, 2) for num_classes 2"),
        ("val", np.eye(4, 3, dtype=np.int64), "multi",
         "val dataset has multi-label rows of shape (3,) but num_classes is 2"),
        ("train", np.eye(4, 1, dtype=np.int64), "multi",
         "train dataset has multi-label rows of shape (1,) but num_classes is 2"),
        ("val", np.eye(4, 2, dtype=np.int64), "single",
         "val dataset is multi-label but config key 'label_mode' is 'single'")],
        ids=["train-above", "train-negative", "val-above", "val-multi-width", "train-multi-width",
             "val-other-mode"])
    def test_labels_checked_before_a_model_is_built(self, monkeypatch, which, labels, config_mode,
                                                    message):
        built = []
        monkeypatch.setattr(training, "build_model", lambda *args, **kwargs: built.append(args))
        ds, _ = tiny_dataset(num_classes=2, per_class=2)
        labels = np.asarray(labels)
        good = Dataset(ds.features,
                       np.eye(4, 2, dtype=np.int64) if config_mode == "multi" else ds.labels,
                       config_mode)
        bad = Dataset(ds.features, labels, "multi" if labels.ndim == 2 else "single")
        config = RunConfig(num_classes=2, epochs=1, label_mode=config_mode)
        with pytest.raises(ValueError, match=re.escape(message)):
            train(config, *((bad, good) if which == "train" else (good, bad)))
        assert built == []

    @pytest.mark.parametrize("config, val_data, baseline, message", [
        (dict(T=17), {}, False,
         "train dataset video 0 has shape (16, 1, 1, 16): its T is 16 but config key 'T' is 17"),
        (dict(C=8, init_strategy="kmeans"), {}, False,
         "train dataset video 0 has shape (16, 1, 1, 16): its C is 16 but config key 'C' is 8"),
        ({}, dict(T=12), True,
         "val dataset video 0 has shape (12, 1, 1, 16): its T is 12 but config key 'T' is 16")],
        ids=["T", "C-kmeans", "baseline-val-T"])
    def test_video_shapes_checked_before_a_model_is_built(self, monkeypatch, config, val_data,
                                                          baseline, message):
        built = []
        monkeypatch.setattr(training, "build_model", lambda *args, **kwargs: built.append(args))
        train_ds, _ = tiny_dataset(num_classes=2, per_class=2)
        val_ds, _ = tiny_dataset(num_classes=2, per_class=2, **val_data)
        with pytest.raises(ValueError, match=re.escape(message)):
            train(RunConfig(num_classes=2, epochs=1, **config), train_ds, val_ds,
                  baseline=baseline)
        assert built == []

    def test_metric_log_strictly_increasing(self):
        log = MetricLog()
        log.append(0, 1.0, 0.5, 0.5, 0.1)
        with pytest.raises(ValueError, match="increase"):
            log.append(0, 1.0, 0.5, 0.5, 0.1)

    def test_csv_header(self):
        log = MetricLog()
        log.append(0, 1.0, 0.5, 0.25, 0.75)
        assert log.to_csv().splitlines()[0] == "epoch,train_loss,train_acc,val_metric,mean_node_distance"

    def test_multi_label_training_runs(self):
        cfg_data = DatasetConfig(num_classes=2, label_mode="multi", seed=9)
        ds = generate_samples(cfg_data, 6, salt=0)
        cfg = RunConfig(num_classes=cfg_data.num_actions, label_mode="multi",
                        epochs=2, seed=9)
        model, log = train(cfg, ds, val_dataset=ds)
        result = evaluate(model, ds)
        assert result.metric_name == "mAP"
        assert 0.0 <= result.metric <= 1.0


class TestSgdMomentum:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.5, "0.1",
                                       True])
    @pytest.mark.parametrize("name", ["learning_rate", "momentum", "weight_decay"])
    def test_setting_out_of_range_named(self, name, value):
        settings = {"learning_rate": 0.1, "momentum": 0.9, "weight_decay": 1e-5, name: value}
        with pytest.raises(ValueError, match=re.escape(f"optimizer setting {name!r} must be a "
                                                       f"number in [0, ")):
            SgdMomentum({}, **settings)

    def test_momentum_below_one(self):
        with pytest.raises(ValueError, match=re.escape("'momentum' must be a number in [0, 1.0); "
                                                       "got 1.0")):
            SgdMomentum({}, learning_rate=0.1, momentum=1.0, weight_decay=0.0)
        assert SgdMomentum({}, learning_rate=0, momentum=0.0, weight_decay=0).momentum == 0.0


class TestManifests:
    @pytest.mark.parametrize("label_mode", ["single", "multi"])
    def test_round_trip_through_files(self, tmp_path, label_mode):
        cfg = DatasetConfig(num_classes=2, label_mode=label_mode, seed=2)
        ds = generate_samples(cfg, 3, salt=0)
        k = cfg.num_classes if label_mode == "single" else cfg.num_actions
        loaded = load_manifest(write_manifest(ds, tmp_path, "val"), num_label_classes=k)
        assert loaded.label_mode == ds.label_mode
        assert loaded.labels.dtype == ds.labels.dtype
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert len(loaded) == len(ds)
        for a, b in zip(loaded.features, ds.features):
            assert a.tobytes() == b.astype(np.float32).tobytes()

    @pytest.mark.parametrize("label_mode", ["single", "multi"])
    def test_generated_dataset_round_trips_bitwise(self, tmp_path, label_mode):
        cfg = DatasetConfig(num_classes=2, H=2, W=3, label_mode=label_mode, seed=4)
        ds = generate_samples(cfg, 3, salt=0)
        k = cfg.num_classes if label_mode == "single" else cfg.num_actions
        loaded = load_manifest(write_manifest(ds, tmp_path, "train"), num_label_classes=k)
        for a, b in zip(loaded.features, ds.features, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("baseline", [False, True])
    def test_train_in_memory_equals_train_on_loaded_copy(self, tmp_path, baseline):
        cfg = DatasetConfig(num_classes=2, seed=6)
        generated = [generate_samples(cfg, 4, salt=salt) for salt in (0, 1)]
        loaded = [load_manifest(write_manifest(ds, tmp_path, name), num_label_classes=2)
                  for ds, name in zip(generated, ("train", "val"))]
        config = RunConfig(num_classes=2, epochs=3, batch_size=4, seed=6)
        rows = [train(config, *pair, baseline=baseline)[1].to_csv()
                for pair in (generated, loaded)]
        assert rows[0] == rows[1]

    def test_features_stay_float32(self, tmp_path):
        ds = generate_samples(DatasetConfig(num_classes=2, seed=1), 2, salt=0)
        loaded = load_manifest(write_manifest(ds, tmp_path, "train"), num_label_classes=2)
        assert [f.dtype for f in loaded.features] == [np.dtype(np.float32)] * 4

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_manifest(path, num_label_classes=2)

    @pytest.mark.parametrize("record, bad", [
        ({"label": 2}, 2), ({"label": -1}, -1), ({"labels": [0, 2]}, 2), ({"labels": [-1]}, -1)])
    def test_label_outside_class_count_names_line(self, tmp_path, record, bad):
        ds = generate_samples(DatasetConfig(num_classes=2, seed=1), 1, salt=0)
        first = write_manifest(ds, tmp_path, "train").read_text().splitlines()[0]
        feature = {"feature_path": json.loads(first)["feature_path"]}
        valid = {"label": 0} if "label" in record else {"labels": [1]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**feature, **valid}) + "\n"
                        + json.dumps({**feature, **record}) + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl:2: label {bad} is outside \[0, 2\)"):
            load_manifest(path, num_label_classes=2)

    @pytest.mark.parametrize("line, message", [
        ('{"feature_path": "v.vgft", "label": 0', "not a JSON record"),
        ('[1, 2]', "record must be a JSON object, not a list"),
        ('{"label": 0}', "record needs a string 'feature_path'"),
        ('{"feature_path": 3, "label": 0}', "record needs a string 'feature_path'"),
        ('{"feature_path": "v.vgft", "label": 1.7}', "'label' must be an integer; got 1.7"),
        ('{"feature_path": "v.vgft", "label": true}', "'label' must be an integer; got True"),
        ('{"feature_path": "v.vgft", "label": "x"}', "'label' must be an integer; got 'x'"),
        ('{"feature_path": "v.vgft", "labels": 3}', "'labels' must be a list of integers; got 3"),
        ('{"feature_path": "v.vgft", "labels": [0, 1.0]}',
         "'labels' must be a list of integers; got [0, 1.0]"),
    ], ids=["not-json", "not-object", "no-path", "path-not-str", "float-label", "bool-label",
            "str-label", "labels-not-list", "float-in-labels"])
    def test_malformed_record_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            load_manifest(path, num_label_classes=2)


class TestLoadedFeaturesWidenExactly:
    """Loaded float32 features give the bits of the same features widened to float64 up front."""

    CONFIG = RunConfig(num_classes=2, H=2, W=2, epochs=2, seed=5)

    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("data")
        ds = generate_samples(DatasetConfig(num_classes=2, H=2, W=2, seed=5), 4, salt=0)
        write_manifest(ds, out, "train")
        loaded = load_manifest(out / "train.jsonl", num_label_classes=2)
        widened = Dataset([f.astype(np.float64) for f in loaded.features], loaded.labels,
                          loaded.label_mode)
        return loaded, widened

    @pytest.mark.parametrize("baseline", [False, True])
    def test_train_rows_and_eval_scores_bitwise(self, datasets, baseline):
        loaded, widened = datasets
        model, log = train(self.CONFIG, loaded, val_dataset=loaded, baseline=baseline)
        assert log.to_csv() == train(self.CONFIG, widened, val_dataset=widened,
                                     baseline=baseline)[1].to_csv()
        for mode in ("natural", "reversed", "random"):
            scores = [evaluate(model, ds, perturbation=mode, seed=5).scores for ds in datasets]
            assert scores[0].tobytes() == scores[1].tobytes(), mode

    def test_kmeans_nodes_bitwise(self, datasets):
        config = replace(self.CONFIG, init_strategy="kmeans")
        nodes = [build_model(config, ds).named_parameters()["nodes"].data for ds in datasets]
        assert nodes[0].tobytes() == nodes[1].tobytes()


# eval scores of a desk model on 100 videos at H = W = 3, the `eval_grid`
# benchmark's shape, followed by the process's OS thread count; one
# train-mode forward (no update) sets the batch-norm running statistics
EVAL_SLICE = """
from pathlib import Path
import numpy as np
from videograph import synthetic, tensor, training
data = synthetic.DatasetConfig(num_classes=4, num_actions=4, regime="marginal_confound", T=16,
                               H=3, W=3, C=16, seed=0)
ds = synthetic.generate_samples(data, 25, salt=1)
model = training.build_model(training.RunConfig(H=3, W=3, seed=0), ds)
with tensor.stop_recording():
    model.forward_batch(tensor.Tensor(np.stack(ds.features[::4])), mode="train")
for mode in synthetic.PERTURBATION_MODES:
    print(training.evaluate(model, ds, perturbation=mode, seed=0).scores.tobytes().hex())
print(Path("/proc/self/status").read_text().split("Threads:")[1].split()[0])
"""


class TestThreadCount:
    def test_eval_scores_independent_of_blas_threads(self):
        src = str(Path(training.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", EVAL_SLICE], env=env, capture_output=True,
                                 text=True, timeout=120, check=True)
            *scores, os_threads = run.stdout.split()
            assert int(os_threads) == int(threads)
            outputs.append(scores)
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]


class TestRunConfig:
    def test_model_config_carries_every_model_field(self):
        values = {"T": 12, "N": 9, "H": 2, "W": 3, "C": 5, "num_classes": 3, "t": 5, "n": 3,
                  "num_embedding_layers": 2, "classifier_hidden": 7, "label_mode": "multi",
                  "sigma_kind": "tanh", "init_strategy": "sobol", "seed": 11}
        assert set(values) == {f.name for f in fields(VideoGraphConfig)}
        defaults = RunConfig()
        assert all(getattr(defaults, name) != value for name, value in values.items())
        assert RunConfig(**values).model_config() == VideoGraphConfig(**values)

    def test_defaults_declared_once(self):
        assert RunConfig().model_config() == VideoGraphConfig()
        assert not set(RunConfig.__dict__["__annotations__"]) & set(MODEL_FIELDS)

    @pytest.mark.parametrize("key, value, want", [
        ("N", 8.5, "int"), ("T", "16", "int"), ("batch_size", 2.5, "int"),
        ("num_classes", True, "int"), ("learning_rate", "0.1", "float"),
        ("sigma_kind", 1, "str")])
    def test_wrong_type_names_key(self, key, value, want):
        with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be {want}; "
                                                       f"got {value!r}")):
            RunConfig.from_dict({key: value})

    def test_int_is_a_float(self):
        cfg = RunConfig.from_dict({"learning_rate": 1, "weight_decay": 0})
        assert (cfg.learning_rate, cfg.weight_decay) == (1, 0)

    @pytest.mark.parametrize("key, value", [("batch_size", 2.5), ("epochs", 1.5)])
    def test_train_checks_types_before_building_a_model(self, monkeypatch, key, value):
        built = []
        monkeypatch.setattr(training, "build_model", lambda *args, **kwargs: built.append(args))
        ds, _ = tiny_dataset(num_classes=4, per_class=2)
        with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be int; "
                                                       f"got {value!r}")):
            train(replace(RunConfig(epochs=1), **{key: value}), ds, ds)
        assert built == []
