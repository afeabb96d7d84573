"""Node-distance tracking, graph extraction, layout, confusion, export."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from videograph.analysis import (ActivationStack, ExtractedGraph, collect_activation_stacks,
                                 confusion_matrix, extract_activity_graph, export_graph,
                                 force_layout, graph_to_dot, track_node_distances,
                                 write_confusion_csv)
from videograph.datasets import Dataset
from videograph.model import VideoGraphConfig, VideoGraphModel
from videograph.synthetic import DatasetConfig, generate_samples

from oracles import loop_force_layout


class TestNodeDistances:
    def test_identical_rows_give_zero(self):
        y = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert track_node_distances(y) == 0.0

    def test_orthonormal_rows_give_sqrt_two(self):
        assert abs(track_node_distances(np.eye(6)) - np.sqrt(2.0)) <= 1e-12

    def test_hand_matrix_matches_pair_enumeration(self):
        y = np.array([[3.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        unit = y / np.linalg.norm(y, axis=1, keepdims=True)
        expected = np.mean([np.linalg.norm(unit[i] - unit[j])
                            for i in range(3) for j in range(i + 1, 3)])
        assert abs(track_node_distances(y) - expected) <= 1e-12

    @given(st.floats(1e-6, 1e6), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale, seed):
        y = np.random.default_rng(seed).normal(size=(5, 4))
        assert abs(track_node_distances(y) - track_node_distances(scale * y)) <= 1e-12

    def test_zero_rows_left_as_zero(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        # zero row stays at the origin: distance to a unit vector is 1
        assert track_node_distances(y) == 1.0

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="N>=2"):
            track_node_distances(np.ones((1, 4)))


class TestExtraction:
    def test_constant_activations(self):
        v = 0.7
        stack = ActivationStack(np.full((3, 2, 4, 5), v))
        graph = extract_activity_graph(stack)
        np.testing.assert_allclose(graph.node_importance, 5 * v, atol=1e-12)
        np.testing.assert_array_equal(graph.edge_weights, np.zeros((4, 4)))

    def test_hand_sized_stack_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(0)
        stack_arr = np.abs(rng.normal(size=(2, 2, 3, 2)))  # (M, T', N', C)
        graph = extract_activity_graph(ActivationStack(stack_arr))

        video_mean = (stack_arr[0] + stack_arr[1]) / 2.0        # (T', N', C)
        node_profiles = (video_mean[0] + video_mean[1]) / 2.0   # (N', C)
        importance = node_profiles.sum(axis=1)
        edges = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                edges[i, j] = np.sqrt(((node_profiles[i] - node_profiles[j]) ** 2).sum())

        np.testing.assert_allclose(graph.node_importance, importance, atol=1e-12)
        np.testing.assert_allclose(graph.edge_weights, edges, atol=1e-12)
        assert np.array_equal(graph.edge_weights, graph.edge_weights.T)
        assert np.all(np.diag(graph.edge_weights) == 0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_node_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        stack_arr = np.abs(rng.normal(size=(2, 3, 4, 2)))
        perm = rng.permutation(4)
        base = extract_activity_graph(ActivationStack(stack_arr))
        permuted = extract_activity_graph(ActivationStack(stack_arr[:, :, perm, :]))
        np.testing.assert_array_equal(permuted.node_importance, base.node_importance[perm])
        np.testing.assert_array_equal(permuted.edge_weights, base.edge_weights[np.ix_(perm, perm)])

    def test_negative_activations_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ActivationStack(np.full((1, 2, 2, 2), -1.0))

    def test_collect_stacks_from_model(self):
        from videograph import tensor as tz
        from videograph.model import VideoGraphConfig, VideoGraphModel, node_attention_forward
        from videograph.synthetic import DatasetConfig, generate_samples
        from videograph.tensor import Tensor

        ds = generate_samples(DatasetConfig(num_classes=2, seed=0), 3, salt=0)
        model = VideoGraphModel(VideoGraphConfig(num_classes=2))
        model.forward_batch(Tensor(np.stack(ds.features[:2])), mode="train")
        stacks = collect_activation_stacks(model, ds)
        assert sorted(stacks) == [0, 1]
        assert stacks[0].activations.shape == (3, 5, 2, 16)
        # bitwise each video's embedding alone, although the videos run as one batch
        for label in (0, 1):
            per_video = []
            for feats in np.asarray(ds.features)[ds.labels == label]:
                with tz.stop_recording():
                    video = node_attention_forward(Tensor(feats[None]), model.nodes,
                                                   model.attention)
                    embedded = model.embed(video, "eval")
                per_video.append(embedded.data[0].mean(axis=(2, 3)))
            assert stacks[label].activations.tobytes() == np.stack(per_video).tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda ds: generate_samples(DatasetConfig(num_classes=2, T=12, seed=0), 1, salt=0),
         "extract-graph dataset video 0 has shape (12, 1, 1, 16): its T is 12 but config key "
         "'T' is 16"),
        (lambda ds: ds.subset(np.arange(0)), "extract-graph dataset is empty"),
        (lambda ds: Dataset(ds.features, ds.labels + 5, "single"),
         "extract-graph dataset label 5 is outside [0, 2) for num_classes 2")],
        ids=["T", "empty", "labels"])
    def test_dataset_checked_against_the_model(self, edit, message):
        ds = generate_samples(DatasetConfig(num_classes=2, seed=0), 1, salt=0)
        # refused before any forward: this model's batch norm never saw a train batch
        with pytest.raises(ValueError, match=re.escape(message)):
            collect_activation_stacks(VideoGraphModel(VideoGraphConfig(num_classes=2)), edit(ds))

    def test_baseline_rejected_by_type_before_any_forward(self):
        from videograph.model import MeanPoolBaseline, VideoGraphConfig
        from videograph.synthetic import DatasetConfig, generate_samples

        ds = generate_samples(DatasetConfig(num_classes=2, seed=0), 1, salt=0)
        # an eval forward would raise RuntimeError: its batch norm never saw a train batch
        with pytest.raises(ValueError, match="mean_pool"):
            collect_activation_stacks(MeanPoolBaseline(VideoGraphConfig(num_classes=2)), ds)


class TestForceLayout:
    def _two_node_graph(self):
        return ExtractedGraph(node_importance=np.array([1.0, 2.0]),
                              edge_weights=np.array([[0.0, 1.5], [1.5, 0.0]]),
                              class_id=0)

    def test_single_node_at_origin(self):
        graph = ExtractedGraph(node_importance=np.array([3.0]),
                               edge_weights=np.zeros((1, 1)), class_id=0)
        np.testing.assert_array_equal(force_layout(graph), np.zeros((1, 2)))

    def test_two_nodes_symmetric_about_centroid(self):
        pos = force_layout(self._two_node_graph(), iterations=200, seed=1)
        rng = np.random.default_rng(1)
        init = rng.uniform(-0.5, 0.5, size=(2, 2))
        centroid_init = init.mean(axis=0)
        np.testing.assert_allclose(pos.mean(axis=0), centroid_init, atol=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 8, 14])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_pair_loop(self, n, seed):
        rng = np.random.default_rng((n, seed))
        # asymmetric on purpose: each pair reads the weight above the diagonal
        graph = ExtractedGraph(node_importance=rng.uniform(size=n),
                               edge_weights=rng.uniform(0.0, 3.0, size=(n, n)), class_id=0)
        pos = force_layout(graph, iterations=100, seed=seed)
        assert pos.tobytes() == loop_force_layout(graph.edge_weights, 100, seed).tobytes()

    def test_same_seed_bitwise_identical(self):
        a = force_layout(self._two_node_graph(), seed=7)
        b = force_layout(self._two_node_graph(), seed=7)
        assert a.tobytes() == b.tobytes()

    @given(st.integers(2, 6), st.integers(0, 10**5))
    @settings(max_examples=10, deadline=None)
    def test_outputs_finite(self, n, seed):
        rng = np.random.default_rng(seed)
        profiles = rng.uniform(size=(n, 3))
        edges = np.sqrt(((profiles[:, None] - profiles[None, :]) ** 2).sum(axis=2))
        graph = ExtractedGraph(node_importance=rng.uniform(size=n) + 0.1,
                               edge_weights=edges, class_id=1)
        pos = force_layout(graph, iterations=100, seed=seed)
        assert pos.shape == (n, 2)
        assert np.all(np.isfinite(pos))


class TestConfusionMatrix:
    def test_perfect_predictor_diagonal(self):
        labels = np.array([0, 1, 2, 1, 0])
        counts = confusion_matrix(labels, labels, 3)
        np.testing.assert_array_equal(counts, np.diag([2, 2, 1]))

    def test_rows_sum_to_class_support(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=50)
        preds = rng.integers(0, 4, size=50)
        counts = confusion_matrix(preds, labels, 4)
        np.testing.assert_array_equal(counts.sum(axis=1), np.bincount(labels, minlength=4))

    def test_five_sample_hand_tally(self):
        labels = [0, 0, 1, 1, 1]
        preds = [0, 1, 1, 0, 1]
        counts = confusion_matrix(preds, labels, 2)
        np.testing.assert_array_equal(counts, [[1, 1], [1, 2]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion_matrix([0, 2], [0, 1], 2)

    def test_csv_export(self, tmp_path):
        counts = confusion_matrix([0, 1], [0, 1], 2)
        write_confusion_csv(counts, tmp_path / "conf.csv")
        lines = (tmp_path / "conf.csv").read_text().splitlines()
        assert lines[1] == "0,1,0"
        assert lines[2] == "1,0,1"


EXPECTED_DOT = """graph activity_7 {
  node [shape=circle, fixedsize=true];
  n0 [width=0.2, importance=1.0];
  n1 [width=2.0, importance=3.0];
  n2 [width=1.1, importance=2.0];
  n0 -- n1 [distance=1.5];
  n0 -- n2 [distance=0.5];
  n1 -- n2 [distance=2.5];
}
"""


def hand_graph():
    return ExtractedGraph(node_importance=np.array([1.0, 3.0, 2.0]),
                          edge_weights=np.array([[0.0, 1.5, 0.5],
                                                 [1.5, 0.0, 2.5],
                                                 [0.5, 2.5, 0.0]]),
                          class_id=7)


class TestExport:
    def test_json_round_trip(self, tmp_path):
        graph = hand_graph()
        graph.positions = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]])
        export_graph(graph, "json", tmp_path / "g.json")
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc.keys() == {"class_id", "node_importance", "edge_weights", "positions"}
        assert doc["class_id"] == 7
        assert doc["node_importance"] == graph.node_importance.tolist()
        assert doc["edge_weights"] == graph.edge_weights.tolist()
        assert doc["positions"] == graph.positions.tolist()

    def test_dot_matches_frozen_fixture(self):
        assert graph_to_dot(hand_graph()) == EXPECTED_DOT

    def test_dot_parses_with_matching_counts(self, tmp_path):
        import re
        graph = hand_graph()
        export_graph(graph, "dot", tmp_path / "g.dot")
        text = (tmp_path / "g.dot").read_text()
        assert text.startswith("graph ") and text.rstrip().endswith("}")
        node_lines = [l for l in text.splitlines() if re.match(r"\s*n\d+ \[", l)]
        edge_lines = [l for l in text.splitlines() if "--" in l]
        assert len(node_lines) == 3
        assert len(edge_lines) == 3

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export_graph(hand_graph(), "graphml", tmp_path / "g.x")
