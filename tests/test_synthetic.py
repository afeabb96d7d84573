"""Synthetic activity generator: class structure, sampling, perturbation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from videograph.synthetic import (PERTURBATION_MODES, ActivityClass, DatasetConfig,
                                  class_vocabulary, generate_samples, make_class_set,
                                  make_vocabulary, multi_label_vector, perturbation_indices,
                                  sample_video, sample_walk)

from oracles import choice_walk


def empirical_histogram(cls, steps, seed=0):
    walk = sample_walk(cls, steps, np.random.default_rng(seed))
    return np.bincount(walk, minlength=cls.transition.shape[0]) / steps


class TestClassSets:
    @pytest.mark.parametrize("num_classes,num_actions", [(2, 4), (4, 4), (4, 8)])
    def test_marginal_confound_matrices_doubly_stochastic(self, num_classes, num_actions):
        classes = make_class_set(num_classes, num_actions, "marginal_confound", seed=0)
        assert len(classes) == num_classes
        for cls in classes:
            np.testing.assert_allclose(cls.transition.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(cls.transition.sum(axis=0), 1.0, atol=1e-9)
            assert cls.transition.min() >= 0

    def test_classes_pairwise_distinct(self):
        classes = make_class_set(4, 4, "marginal_confound", seed=1)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(classes[i].transition - classes[j].transition) >= 0.1

    def test_pure_cycle_stationary_distribution_uniform(self):
        # a pure cycle with uniform mixing: long-run visit frequencies uniform
        classes = make_class_set(2, 4, "marginal_confound", seed=3)
        hist = empirical_histogram(classes[0], 10_000, seed=5)
        np.testing.assert_allclose(hist, 0.25, atol=0.02)

    def test_histograms_identical_across_classes_chi2(self):
        """Chi-squared at alpha=0.01 fails to reject uniformity for every class."""
        chi2 = pytest.importorskip("scipy.stats").chi2
        steps = 10_000
        classes = make_class_set(4, 4, "marginal_confound", seed=7)
        threshold = chi2.ppf(0.99, df=3)
        for cls in classes:
            observed = empirical_histogram(cls, steps, seed=11) * steps
            expected = steps / 4.0
            statistic = ((observed - expected) ** 2 / expected).sum()
            assert statistic < threshold, f"class {cls.class_id}: chi2={statistic:.1f}"

    def test_distinct_actions_vocabularies_disjoint(self):
        classes = make_class_set(2, 4, "distinct_actions", seed=0)
        vocab_a = set(class_vocabulary(classes[0]).tolist())
        vocab_b = set(class_vocabulary(classes[1]).tolist())
        assert vocab_a and vocab_b
        assert vocab_a.isdisjoint(vocab_b)

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError, match="cannot build"):
            make_class_set(7, 3, "marginal_confound", seed=0)  # (3-1)! = 2 < 7
        with pytest.raises(ValueError, match="disjoint"):
            make_class_set(5, 4, "distinct_actions", seed=0)

    def test_bad_regime(self):
        with pytest.raises(ValueError, match="regime"):
            make_class_set(2, 4, "shuffled", seed=0)


class TestVocabulary:
    def test_prototypes_orthonormal(self):
        vocab = make_vocabulary(4, 16, seed=0)
        gram = vocab.prototypes @ vocab.prototypes.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_separability_margin(self):
        vocab = make_vocabulary(6, 8, seed=1, noise_sigma=0.3)
        for i in range(6):
            for j in range(i + 1, 6):
                dist = np.linalg.norm(vocab.prototypes[i] - vocab.prototypes[j])
                assert dist > 4 * vocab.noise_sigma

    def test_too_many_actions_rejected(self):
        with pytest.raises(ValueError, match="num_actions <= channels"):
            make_vocabulary(10, 4, seed=0)

    def test_noise_exceeding_margin_rejected(self):
        with pytest.raises(ValueError, match="4 \\* noise_sigma"):
            make_vocabulary(4, 16, seed=0, noise_sigma=0.5)


class TestSampling:
    def test_absorbing_chain_repeats_one_action(self):
        u = 4
        cls = ActivityClass(class_id=0, transition=np.eye(u), initial=np.full(u, 0.25))
        vocab = make_vocabulary(u, 8, seed=0)
        sample = sample_video(cls, vocab, T=12, H=1, W=1, seed=3)
        assert len(set(sample.actions.tolist())) == 1

    def test_zero_noise_gives_exact_prototypes(self):
        cls = make_class_set(2, 4, "marginal_confound", seed=0)[0]
        vocab = make_vocabulary(4, 8, seed=0, noise_sigma=0.0)
        sample = sample_video(cls, vocab, T=10, H=2, W=2, seed=1)
        assert sample.features.dtype == np.float32
        for t, action in enumerate(sample.actions):
            for h in range(2):
                for w in range(2):
                    np.testing.assert_array_equal(sample.features[t, h, w],
                                                  vocab.prototypes[action].astype(np.float32))

    @pytest.mark.parametrize("kind", ["marginal_confound", "distinct_actions", "dirichlet"])
    def test_walk_bitwise_equals_per_step_choice(self, kind):
        for seed in range(20):
            if kind == "dirichlet":  # uneven rows, so every CDF step differs
                rows = np.random.default_rng(seed).dirichlet(np.ones(5), size=6)
                classes = [ActivityClass(class_id=0, transition=rows[1:], initial=rows[0])]
            else:
                classes = make_class_set(3, 6, kind, seed=seed)
            for length in (1, 2, 3, 16, 17, 63, 64):
                cls = classes[length % len(classes)]
                ours, ref = (np.random.default_rng((seed, length)) for _ in range(2))
                walk = sample_walk(cls, length, ours)
                assert walk.dtype == np.int64
                assert walk.tobytes() == choice_walk(cls, length, ref).tobytes(), (seed, length)
                assert ours.normal() == ref.normal(), (seed, length)

    @pytest.mark.parametrize("initial, transition, row", [
        ([0.5, 0.5], [[1.0, 0.0], [1.5, -0.5]], "transition row 1"),
        ([0.5, 0.5], [[0.6, 0.6], [0.0, 1.0]], "transition row 0"),
        ([0.5, 0.5], [[np.nan, 1.0], [0.0, 1.0]], "transition row 0"),
        ([0.2, 0.5], [[1.0, 0.0], [0.0, 1.0]], "initial row"),
    ], ids=["negative", "not-normalised", "nan", "initial"])
    def test_bad_probability_row_names_class_and_row(self, initial, transition, row):
        cls = ActivityClass(class_id=3, transition=np.array(transition), initial=np.array(initial))
        with pytest.raises(ValueError, match=f"class 3: {row} "):
            sample_walk(cls, 4, np.random.default_rng(0))

    def test_bigram_frequencies_match_transition_matrix(self):
        cls = make_class_set(2, 4, "marginal_confound", seed=2)[1]
        walk = sample_walk(cls, 10_000, np.random.default_rng(0))
        counts = np.zeros((4, 4))
        np.add.at(counts, (walk[:-1], walk[1:]), 1)
        empirical = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(empirical, cls.transition, atol=0.03)

    def test_feature_shape_and_tiling(self):
        cls = make_class_set(2, 4, "marginal_confound", seed=0)[0]
        vocab = make_vocabulary(4, 8, seed=0)
        sample = sample_video(cls, vocab, T=6, H=3, W=2, seed=9)
        assert sample.features.shape == (6, 3, 2, 8)
        # noise drawn once per step, tiled over the grid
        np.testing.assert_array_equal(sample.features[:, 0, 0], sample.features[:, 2, 1])

    def test_generation_deterministic(self):
        cfg = DatasetConfig(seed=5)
        a = generate_samples(cfg, 3, salt=0)
        b = generate_samples(cfg, 3, salt=0)
        for fa, fb in zip(a.features, b.features):
            assert fa.tobytes() == fb.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_multi_label_vector(self):
        cls = make_class_set(2, 4, "marginal_confound", seed=0)[0]
        vocab = make_vocabulary(4, 8, seed=0)
        sample = sample_video(cls, vocab, T=50, H=1, W=1, seed=2)
        vec = multi_label_vector(sample, 4)
        assert set(np.flatnonzero(vec)) == set(np.unique(sample.actions))


class TestPerturbation:
    def test_reversed_twice_is_identity_bitwise(self):
        once = perturbation_indices(10, "reversed")
        np.testing.assert_array_equal(once[perturbation_indices(10, "reversed")], np.arange(10))

    def test_natural_is_identity(self):
        np.testing.assert_array_equal(perturbation_indices(10, "natural"), np.arange(10))

    @given(st.sampled_from(PERTURBATION_MODES), st.integers(1, 40), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_multiset_of_segments_invariant(self, mode, length, seed):
        idx = perturbation_indices(length, mode, seed=seed)
        assert sorted(idx.tolist()) == list(range(length))

    def test_random_reproducible(self):
        idx_a = perturbation_indices(12, "random", seed=42)
        idx_b = perturbation_indices(12, "random", seed=42)
        np.testing.assert_array_equal(idx_a, idx_b)
        assert sorted(idx_a.tolist()) == list(range(12))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            perturbation_indices(5, "shuffle")


class TestDatasetAdapters:
    def test_single_label_dataset(self):
        ds = generate_samples(DatasetConfig(num_classes=2, seed=0), 4, salt=0)
        assert len(ds) == 8
        assert ds.labels.shape == (8,)

    def test_multi_label_dataset(self):
        cfg = DatasetConfig(num_classes=2, label_mode="multi", seed=0)
        ds = generate_samples(cfg, 4, salt=0)
        assert ds.labels.shape == (8, cfg.num_actions)
        assert set(np.unique(ds.labels)) <= {0, 1}
