"""Command-line interface: subcommands, exit codes, idempotent outputs."""

import json
import shutil

import pytest

from videograph import checkpoint, datasets
from videograph.cli import main
from videograph.datasets import load_manifest
from videograph.model import MODEL_FIELDS
from videograph.training import RunConfig, train


# The flags each subcommand reads, as the README's CLI table lists them;
# * marks a required flag.
SURFACE = {
    "gen-data": "--config --out* --seed",
    "train": "--config* --data* --checkpoint --out* --seed",
    "eval": "--checkpoint* --data* --out --seed --perturb",
    "gradcheck": "--seed",
    "shapes": "--config*",
    "extract-graph": "--checkpoint* --data* --out* --seed",
    "report": "--checkpoint* --data* --out --seed",
}
ALL_FLAGS = ("--config", "--data", "--checkpoint", "--out", "--seed", "--perturb")


def flag_argv(*flags):
    """Each flag with a value it accepts."""
    values = {"--seed": "1", "--perturb": "random"}
    return [arg for flag in flags for arg in (flag, values.get(flag, "x"))]


def required_flags(command):
    return [flag.rstrip("*") for flag in SURFACE[command].split() if flag.endswith("*")]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def swap_mean_and_var(manifest_text):
    """The names of the first embedding layer's two batch-norm buffer records, swapped."""
    mean, var = '"embed0.bn.running_mean"', '"embed0.bn.running_var"'
    assert mean in manifest_text and var in manifest_text
    return manifest_text.replace(mean, "@").replace(var, mean).replace("@", var)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset plus a short trained run, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_cfg = root / "data.json"
    data_cfg.write_text(json.dumps({
        "num_classes": 2, "num_actions": 4, "regime": "distinct_actions",
        "T": 16, "H": 1, "W": 1, "C": 16,
        "train_videos_per_class": 6, "val_videos_per_class": 4, "seed": 1,
    }))
    run_cfg = root / "run.json"
    run_cfg.write_text(json.dumps({
        "T": 16, "N": 8, "H": 1, "W": 1, "C": 16, "num_classes": 2,
        "num_embedding_layers": 1, "classifier_hidden": 32,
        "epochs": 8, "batch_size": 4, "seed": 1,
    }))
    assert main(["gen-data", "--config", str(data_cfg), "--out", str(root / "data")]) == 0
    assert main(["train", "--config", str(run_cfg), "--data", str(root / "data"),
                 "--out", str(root / "run")]) == 0
    return root


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_names_flag(self, capsys):
        for command in SURFACE:
            for flag in required_flags(command):
                others = [f for f in required_flags(command) if f != flag]
                with pytest.raises(SystemExit) as exc:
                    main([command, *flag_argv(*others)])
                assert exc.value.code == 2
                assert f"arguments are required: {flag}" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        # argparse reports a missing required flag first, so each argv has them all
        for command, reads in SURFACE.items():
            for flag in ("--frobnicate", *ALL_FLAGS):
                if flag in reads.replace("*", "").split():
                    continue
                with pytest.raises(SystemExit) as exc:
                    main([command, *flag_argv(*required_flags(command), flag)])
                assert exc.value.code == 2
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_bad_perturb_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", "x", "--data", "y", "--perturb", "sideways"])
        assert exc.value.code == 2


class TestValidationErrors:
    def test_missing_config_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "shapes", "--config", "/nonexistent/cfg.json")
        assert code == 1
        assert "not found" in err

    def test_invalid_shape_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"T": 8, "N": 9, "num_embedding_layers": 2,
                                   "num_classes": 2, "C": 4, "H": 1, "W": 1}))
        code, _, err = run_cli(capsys, "shapes", "--config", str(cfg))
        assert code == 1
        assert "pooling kernel" in err

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        # a key removed from RunConfig is as unknown as a misspelt one
        for key, value in (("TT", 8), ("eval_perturbation", "natural"),
                           ("train_manifest", "train.jsonl"), ("val_manifest", None)):
            cfg.write_text(json.dumps({key: value}))
            code, _, err = run_cli(capsys, "shapes", "--config", str(cfg))
            assert code == 1
            assert "unknown RunConfig keys" in err
            assert repr(key) in err

    @pytest.mark.parametrize("text", ["[1, 2]", "{bad"])
    @pytest.mark.parametrize("command", ["shapes", "train", "gen-data"])
    def test_config_that_is_not_an_object_exits_one(self, capsys, tmp_path, command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        other_flags = {"shapes": (), "gen-data": ("--out", str(tmp_path / "out")),
                       "train": ("--data", str(tmp_path), "--out", str(tmp_path / "out"))}
        code, _, err = run_cli(capsys, command, "--config", str(cfg), *other_flags[command])
        assert code == 1
        assert str(cfg) in err and "must hold a JSON object" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, key", [
        ("shapes", {"N": 8.5}, "N"), ("shapes", {"T": "16"}, "T"),
        ("train", {"batch_size": 2.5}, "batch_size")])
    def test_wrong_config_type_exits_one(self, capsys, tmp_path, command, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        data_flags = (("--data", str(tmp_path), "--out", str(tmp_path / "out"))
                      if command == "train" else ())
        code, _, err = run_cli(capsys, command, "--config", str(cfg), *data_flags)
        assert code == 1
        assert f"config key {key!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, key", [
        ("train", {"t": -1}, "t"), ("train", {"seed": -1}, "seed"),
        ("train", {"learning_rate": float("nan")}, "learning_rate"),
        ("gen-data", {"noise_sigma": float("nan")}, "noise_sigma")])
    def test_out_of_range_config_exits_one_before_writing(self, workspace, capsys, tmp_path,
                                                          command, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"num_classes": 2, "epochs": 1, **config}
                                  if command == "train" else config))
        data_flags = ("--data", str(workspace / "data")) if command == "train" else ()
        code, _, err = run_cli(capsys, command, "--config", str(cfg), *data_flags,
                               "--out", str(tmp_path / "out"))
        assert code == 1
        assert f"config key {key!r}" in err
        assert not (tmp_path / "out").exists()


class TestShapes:
    def test_full_scale_stage_listing(self, capsys, tmp_path):
        cfg = tmp_path / "full.json"
        cfg.write_text(json.dumps({"T": 64, "N": 128, "H": 7, "W": 7, "C": 1024,
                                   "num_classes": 12, "num_embedding_layers": 2,
                                   "classifier_hidden": 512}))
        code, out, _ = run_cli(capsys, "shapes", "--config", str(cfg))
        assert code == 0
        assert "(64, 128, 7, 7, 1024)" in out
        assert "(21, 42, 7, 7, 1024)" in out
        assert "(7, 14, 7, 7, 1024)" in out
        assert "100352" in out


class TestGenData:
    def test_idempotent_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "d.json"
        cfg.write_text(json.dumps({"num_classes": 2, "train_videos_per_class": 3,
                                   "val_videos_per_class": 2, "seed": 7}))
        code, _, _ = run_cli(capsys, "gen-data", "--config", str(cfg), "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run_cli(capsys, "gen-data", "--config", str(cfg), "--out", str(tmp_path / "b"))
        assert code == 0
        for rel in ["train.jsonl", "val.jsonl", "dataset.json"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        feats_a = sorted((tmp_path / "a" / "features").iterdir())
        feats_b = sorted((tmp_path / "b" / "features").iterdir())
        assert [f.name for f in feats_a] == [f.name for f in feats_b]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(feats_a, feats_b))

    @pytest.mark.parametrize("config, key", [
        ({"label_mode": "bogus"}, "label_mode"), ({"T": 0}, "T"),
        ({"train_videos_per_class": 0}, "train_videos_per_class"), ({"T": "16"}, "T")])
    def test_invalid_config_exits_one_before_writing(self, capsys, tmp_path, config, key):
        cfg = tmp_path / "d.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "gen-data", "--config", str(cfg), "--out", str(tmp_path / "a"))
        assert code == 1
        assert f"config key {key!r}" in err
        assert not (tmp_path / "a").exists()

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "d.json"
        cfg.write_text(json.dumps({"num_classes": 2, "train_videos_per_class": 2,
                                   "val_videos_per_class": 1, "seed": 7}))
        run_cli(capsys, "gen-data", "--config", str(cfg), "--out", str(tmp_path / "a"))
        run_cli(capsys, "gen-data", "--config", str(cfg), "--seed", "8", "--out", str(tmp_path / "c"))
        assert (tmp_path / "a" / "train.jsonl").exists()
        first_a = sorted((tmp_path / "a" / "features").iterdir())[0]
        first_c = sorted((tmp_path / "c" / "features").iterdir())[0]
        assert first_a.read_bytes() != first_c.read_bytes()


class TestTrainEvalReport:
    def test_train_outputs_exist(self, workspace):
        assert (workspace / "run" / "metrics.csv").exists()
        assert (workspace / "run" / "checkpoint" / "manifest.json").exists()
        assert (workspace / "run" / "checkpoint" / "weights.bin").exists()
        header = (workspace / "run" / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,train_acc,val_metric,mean_node_distance"

    def test_eval_prints_metric_and_writes_confusion(self, workspace, capsys):
        code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(workspace / "run" / "checkpoint"),
                               "--data", str(workspace / "data"), "--perturb", "natural",
                               "--out", str(workspace / "eval_out"))
        assert code == 0
        assert "accuracy (natural order):" in out
        conf = (workspace / "eval_out" / "confusion_natural.csv").read_text().splitlines()
        assert len(conf) == 3  # header + 2 classes

    def test_eval_deterministic(self, workspace, capsys):
        args = ("eval", "--checkpoint", str(workspace / "run" / "checkpoint"),
                "--data", str(workspace / "data"), "--perturb", "random", "--seed", "5")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_report_writes_drop_table(self, workspace, capsys):
        code, out, _ = run_cli(capsys, "report", "--checkpoint", str(workspace / "run" / "checkpoint"),
                               "--data", str(workspace / "data"), "--out", str(workspace / "report"))
        assert code == 0
        assert "natural" in out and "reversed" in out and "random" in out
        rows = json.loads((workspace / "report" / "report.json").read_text())
        assert [r["perturbation"] for r in rows] == ["natural", "reversed", "random"]
        assert rows[0]["drop_pct"] == 0.0
        csv_text = (workspace / "report" / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "perturbation,metric,drop_pct"

    def test_resume_from_checkpoint(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "resume.json"
        cfg.write_text(json.dumps({
            "T": 16, "N": 8, "H": 1, "W": 1, "C": 16, "num_classes": 2,
            "num_embedding_layers": 1, "classifier_hidden": 32,
            "epochs": 10, "batch_size": 4, "seed": 1,
        }))
        code, out, _ = run_cli(capsys, "train", "--config", str(cfg),
                               "--data", str(workspace / "data"),
                               "--checkpoint", str(workspace / "run" / "checkpoint"),
                               "--out", str(tmp_path / "resumed"))
        assert code == 0
        assert "resuming" in out
        assert "finished epoch 10" in out

    def test_resume_with_mismatched_model_exits_one(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "resume.json"
        cfg.write_text(json.dumps({
            "T": 16, "N": 8, "H": 1, "W": 1, "C": 16, "num_classes": 2, "t": 5,
            "num_embedding_layers": 1, "classifier_hidden": 32,
            "epochs": 10, "batch_size": 4, "seed": 1,
        }))
        code, _, err = run_cli(capsys, "train", "--config", str(cfg),
                               "--data", str(workspace / "data"),
                               "--checkpoint", str(workspace / "run" / "checkpoint"),
                               "--out", str(tmp_path / "resumed"))
        assert code == 1
        assert "'t'" in err
        assert not (tmp_path / "resumed").exists()

    def test_resume_with_changed_optimizer_settings_exits_one(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "resume.json"
        cfg.write_text(json.dumps({
            "T": 16, "N": 8, "H": 1, "W": 1, "C": 16, "num_classes": 2,
            "num_embedding_layers": 1, "classifier_hidden": 32,
            "epochs": 10, "batch_size": 4, "seed": 1, "learning_rate": 5.0, "momentum": 0.0,
        }))
        code, _, err = run_cli(capsys, "train", "--config", str(cfg),
                               "--data", str(workspace / "data"),
                               "--checkpoint", str(workspace / "run" / "checkpoint"),
                               "--out", str(tmp_path / "resumed"))
        assert code == 1
        assert "optimizer key 'learning_rate' is 0.1 but the run config has 5.0" in err
        assert not (tmp_path / "resumed").exists()

    def test_extract_graph_outputs(self, workspace, capsys):
        code, out, _ = run_cli(capsys, "extract-graph",
                               "--checkpoint", str(workspace / "run" / "checkpoint"),
                               "--data", str(workspace / "data"),
                               "--out", str(workspace / "graphs"), "--seed", "3")
        assert code == 0
        for cid in (0, 1):
            dot = (workspace / "graphs" / f"class_{cid}.dot").read_text()
            doc = json.loads((workspace / "graphs" / f"class_{cid}.json").read_text())
            assert dot.startswith(f"graph activity_{cid}")
            assert len(doc["node_importance"]) == 2  # N' = 2 at desk dims
            assert doc["positions"] is not None

    def test_extract_graph_idempotent(self, workspace, capsys):
        args = ("extract-graph", "--checkpoint", str(workspace / "run" / "checkpoint"),
                "--data", str(workspace / "data"), "--seed", "3")
        run_cli(capsys, *args, "--out", str(workspace / "graphs_a"))
        run_cli(capsys, *args, "--out", str(workspace / "graphs_b"))
        for name in ("class_0.dot", "class_0.json", "class_1.dot", "class_1.json"):
            assert (workspace / "graphs_a" / name).read_bytes() == \
                   (workspace / "graphs_b" / name).read_bytes()

    def test_extract_graph_on_baseline_exits_one(self, workspace, capsys, tmp_path):
        ds = load_manifest(workspace / "data" / "train.jsonl", num_label_classes=2)
        train(RunConfig(num_classes=2, epochs=1, seed=1), ds, ds, out_dir=tmp_path / "base",
              baseline=True)
        code, _, err = run_cli(capsys, "extract-graph",
                               "--checkpoint", str(tmp_path / "base" / "checkpoint"),
                               "--data", str(workspace / "data"), "--out", str(tmp_path / "graphs"))
        assert code == 1
        assert "mean_pool" in err
        assert not (tmp_path / "graphs").exists()

    @pytest.mark.parametrize("key", MODEL_FIELDS)
    def test_eval_without_model_key_exits_one(self, workspace, capsys, tmp_path, key):
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(workspace / "run" / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["config"][key]
        checkpoint._write_sealed(ckpt, manifest, (ckpt / "weights.bin").read_bytes()[:-4])
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                               "--data", str(workspace / "data"))
        assert code == 1
        assert repr([key]) in err

    @pytest.mark.parametrize("edit, message", [
        (swap_mean_and_var, "crc mismatch"),
        (lambda text: text.replace('"format_version": 2', '"format_version": 1'),
         "version 1 cannot be read; this build reads version 2"),
        (lambda text: "{bad", "manifest.json is not JSON"),
        (lambda text: "[1, 2]", "manifest.json must hold a JSON object, not a list")])
    def test_eval_of_edited_manifest_exits_one(self, workspace, capsys, tmp_path, edit, message):
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(workspace / "run" / "checkpoint", ckpt)
        (ckpt / "manifest.json").write_text(edit((ckpt / "manifest.json").read_text()))
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                               "--data", str(workspace / "data"))
        assert code == 1
        assert message in err

    def test_train_with_labels_beyond_num_classes_exits_one(self, capsys, tmp_path):
        data_cfg = tmp_path / "data.json"
        data_cfg.write_text(json.dumps({"num_classes": 4, "train_videos_per_class": 1,
                                        "val_videos_per_class": 1, "seed": 1}))
        assert main(["gen-data", "--config", str(data_cfg), "--out", str(tmp_path / "data")]) == 0
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({"num_classes": 2, "epochs": 1}))
        code, _, err = run_cli(capsys, "train", "--config", str(run_cfg),
                               "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run"))
        assert code == 1
        assert "train.jsonl:3: label 2 is outside [0, 2)" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("make, message", [
        (lambda path: path.write_text("hello" * 20), "bad magic b'hell' at offset 0"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: None, "No such file or directory")],
        ids=["not-vgft", "directory", "missing"])
    def test_train_on_bad_feature_file_names_manifest_line_and_path(self, capsys, tmp_path,
                                                                   make, message):
        feature = tmp_path / "v.vgft"
        make(feature)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"feature_path": "v.vgft", "label": 0}) + "\n")
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({"num_classes": 2, "epochs": 1}))
        code, _, err = run_cli(capsys, "train", "--config", str(run_cfg), "--data", str(manifest),
                               "--out", str(tmp_path / "run"))
        assert code == 1
        assert f"{manifest}:1: feature file {feature}: " in err
        assert message in err

    def test_train_on_one_manifest_file_reads_each_video_once(self, capsys, tmp_path, monkeypatch):
        data_cfg = tmp_path / "data.json"
        data_cfg.write_text(json.dumps({"num_classes": 2, "T": 16, "H": 1, "W": 1, "C": 16,
                                        "train_videos_per_class": 4, "val_videos_per_class": 1,
                                        "seed": 1}))
        assert main(["gen-data", "--config", str(data_cfg), "--out", str(tmp_path / "data")]) == 0
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({"T": 16, "N": 8, "H": 1, "W": 1, "C": 16,
                                       "num_classes": 2, "num_embedding_layers": 1,
                                       "classifier_hidden": 8, "epochs": 1, "batch_size": 4}))
        reads = []
        original = datasets.read_feature_file
        monkeypatch.setattr(datasets, "read_feature_file",
                            lambda path: reads.append(path) or original(path))
        code, _, _ = run_cli(capsys, "train", "--config", str(run_cfg),
                             "--data", str(tmp_path / "data" / "train.jsonl"),
                             "--out", str(tmp_path / "run"))
        assert code == 0
        assert len(reads) == 8 and len(set(reads)) == 8

    def test_eval_confusion_sized_by_model_classes(self, workspace, capsys, tmp_path):
        # a 4-class model on the 2-class set: labels are 0-1, predictions 0-3
        ds = load_manifest(workspace / "data" / "train.jsonl", num_label_classes=4)
        train(RunConfig(num_classes=4, epochs=1, seed=1), ds, ds, out_dir=tmp_path / "four")
        code, _, _ = run_cli(capsys, "eval", "--checkpoint", str(tmp_path / "four" / "checkpoint"),
                             "--data", str(workspace / "data"), "--out", str(tmp_path / "eval"))
        assert code == 0
        conf = (tmp_path / "eval" / "confusion_natural.csv").read_text().splitlines()
        assert len(conf) == 5  # header + 4 classes

    @staticmethod
    def _short_videos(tmp_path):
        """A generated dataset of T=12 videos, against the workspace model's T=16."""
        data_cfg = tmp_path / "data.json"
        data_cfg.write_text(json.dumps({"num_classes": 2, "T": 12, "train_videos_per_class": 2,
                                        "val_videos_per_class": 2, "seed": 1}))
        assert main(["gen-data", "--config", str(data_cfg), "--out", str(tmp_path / "data")]) == 0
        return tmp_path / "data"

    def test_eval_of_videos_of_another_length_exits_one_naming_the_key(self, workspace, capsys,
                                                                       tmp_path):
        code, _, err = run_cli(capsys, "eval", "--checkpoint",
                               str(workspace / "run" / "checkpoint"),
                               "--data", str(self._short_videos(tmp_path)))
        assert code == 1
        assert "eval dataset video 0 has shape (12, 1, 1, 16): its T is 12 but config key 'T' is 16" \
            in err

    def test_extract_graph_of_videos_of_another_length_exits_one_naming_the_key(
            self, workspace, capsys, tmp_path):
        code, _, err = run_cli(capsys, "extract-graph", "--checkpoint",
                               str(workspace / "run" / "checkpoint"),
                               "--data", str(self._short_videos(tmp_path)),
                               "--out", str(tmp_path / "graphs"))
        assert code == 1
        assert ("extract-graph dataset video 0 has shape (12, 1, 1, 16): its T is 12 but config "
                "key 'T' is 16") in err
        assert not (tmp_path / "graphs").exists()

    def test_eval_out_on_multi_label_exits_one_before_scoring(self, capsys, tmp_path, monkeypatch):
        data_cfg = tmp_path / "data.json"
        data_cfg.write_text(json.dumps({"num_classes": 2, "label_mode": "multi",
                                        "train_videos_per_class": 2, "val_videos_per_class": 2,
                                        "seed": 1}))
        assert main(["gen-data", "--config", str(data_cfg), "--out", str(tmp_path / "data")]) == 0
        ds = load_manifest(tmp_path / "data" / "train.jsonl", num_label_classes=4)
        train(RunConfig(num_classes=4, label_mode="multi", epochs=1, seed=1), ds, ds,
              out_dir=tmp_path / "run")
        from videograph import cli
        scored = []
        monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: scored.append(args))
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                               "--data", str(tmp_path / "data"), "--out", str(tmp_path / "eval"))
        assert code == 1
        assert "--out" in err and "single-label" in err
        assert scored == []
        assert not (tmp_path / "eval").exists()

    def test_bad_checkpoint_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(tmp_path / "nope"),
                               "--data", str(tmp_path))
        assert code == 1


class TestGradcheckCommand:
    def test_passing_build_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "7")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_failure_exits_one_naming_worst_op(self, capsys, monkeypatch):
        from videograph import cli
        from videograph.gradsuite import GradCheckResult

        def broken_suite(seed=0):
            return [GradCheckResult("matmul", 1e-9),
                    GradCheckResult("depthwise_conv1d", 0.5)]

        monkeypatch.setattr(cli, "run_gradient_suite", broken_suite)
        code, _, err = run_cli(capsys, "gradcheck")
        assert code == 1
        assert "depthwise_conv1d" in err

