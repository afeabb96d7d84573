"""Synthetic long-range activities built from latent unit-action graphs.

Each activity class is a first-order Markov chain over a shared vocabulary of
unit-actions. A video is a length-T walk through the chain; every step emits
the prototype vector of its unit-action plus Gaussian noise, tiled over the
spatial grid. The marginal_confound regime makes every class doubly
stochastic (identical uniform long-run unit-action frequencies) so classes
differ only in their transition structure; distinct_actions gives each class
a disjoint slice of the vocabulary instead.

`generate_samples` returns a `datasets.Dataset` of float32 features, rounded
as VGFT files store them: class ids as labels, or for label_mode "multi" the
indicator of the unit-actions each walk visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .datasets import Dataset
from .model import LABEL_MODES, check_types

DEFAULT_NOISE_SIGMA = 0.3
CYCLE_MIX = 0.25           # weight of the uniform part blended into each cycle
MIN_CLASS_DISTANCE = 0.1   # Frobenius separation required between classes

REGIMES = ("marginal_confound", "distinct_actions")
PERTURBATION_MODES = ("natural", "reversed", "random")


@dataclass
class UnitActionVocabulary:
    prototypes: np.ndarray          # (U, C), pairwise distinct rows
    noise_sigma: float

    @property
    def channels(self) -> int:
        return self.prototypes.shape[1]


def make_vocabulary(num_actions: int, channels: int, seed: int,
                    noise_sigma: float = DEFAULT_NOISE_SIGMA) -> UnitActionVocabulary:
    """Orthonormal prototype vectors; requires num_actions <= channels.

    Orthonormality gives pairwise distance sqrt(2), which clears the
    4 * noise_sigma separability requirement for noise_sigma < 0.35.
    """
    if num_actions > channels:
        raise ValueError(f"orthonormal prototypes need num_actions <= channels; "
                         f"got {num_actions} > {channels}")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    rng = np.random.default_rng(seed)
    gauss = rng.normal(size=(channels, channels))
    q, _ = np.linalg.qr(gauss)
    prototypes = q[:num_actions].copy()
    min_dist = math.sqrt(2.0)
    if min_dist <= 4.0 * noise_sigma:
        raise ValueError(f"prototype separation {min_dist:.3f} does not exceed "
                         f"4 * noise_sigma = {4 * noise_sigma:.3f}")
    return UnitActionVocabulary(prototypes=prototypes, noise_sigma=noise_sigma)


@dataclass
class ActivityClass:
    class_id: int
    transition: np.ndarray          # (U, U) row-stochastic
    initial: np.ndarray             # (U,) distribution


@dataclass
class VideoSample:
    features: np.ndarray            # (T, H, W, C) float32
    label: int
    actions: np.ndarray             # ground-truth unit-action walk, diagnostics only


def _random_cycle(num_actions: int, rng: np.random.Generator) -> tuple:
    order = rng.permutation(num_actions)
    succ = np.empty(num_actions, dtype=np.int64)
    for i in range(num_actions):
        succ[order[i]] = order[(i + 1) % num_actions]
    return tuple(succ)


def make_class_set(num_classes: int, num_actions: int, regime: str, seed: int) -> list[ActivityClass]:
    """Build num_classes activity classes over a vocabulary of num_actions."""
    if num_classes < 2 or num_actions < 2:
        raise ValueError("need num_classes >= 2 and num_actions >= 2")
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    rng = np.random.default_rng(seed)

    if regime == "marginal_confound":
        if num_classes > math.factorial(num_actions - 1):
            raise ValueError(f"cannot build {num_classes} distinct cycle structures "
                             f"over {num_actions} unit-actions")
        cycles: list[tuple] = []
        attempts = 0
        while len(cycles) < num_classes:
            attempts += 1
            if attempts > 1000 * num_classes:
                raise RuntimeError("failed to sample distinct cycle structures")
            cand = _random_cycle(num_actions, rng)
            if cand not in cycles:
                cycles.append(cand)
        classes = []
        uniform = np.full((num_actions, num_actions), CYCLE_MIX / num_actions)
        for cid, succ in enumerate(cycles):
            perm = np.zeros((num_actions, num_actions))
            perm[np.arange(num_actions), list(succ)] = 1.0
            transition = (1.0 - CYCLE_MIX) * perm + uniform
            classes.append(ActivityClass(class_id=cid, transition=transition,
                                         initial=np.full(num_actions, 1.0 / num_actions)))
        for i in range(num_classes):
            for j in range(i + 1, num_classes):
                dist = np.linalg.norm(classes[i].transition - classes[j].transition)
                if dist < MIN_CLASS_DISTANCE:
                    raise RuntimeError(f"classes {i} and {j} too close: {dist:.4f}")
        return classes

    # distinct_actions: each class walks a cycle over its own slice of the vocabulary
    if num_classes > num_actions:
        raise ValueError(f"cannot split {num_actions} unit-actions into "
                         f"{num_classes} disjoint vocabularies")
    shuffled = rng.permutation(num_actions)
    subsets = np.array_split(shuffled, num_classes)
    classes = []
    for cid, subset in enumerate(subsets):
        subset = np.sort(subset)
        transition = np.zeros((num_actions, num_actions))
        k = len(subset)
        ring = rng.permutation(k)
        for i in range(k):
            src = subset[ring[i]]
            dst = subset[ring[(i + 1) % k]]
            transition[src, dst] = 1.0 - CYCLE_MIX
            transition[src, subset] += CYCLE_MIX / k
        # states outside the subset funnel uniformly into it (never visited
        # from the in-subset initial distribution, but rows stay stochastic)
        outside = np.setdiff1d(np.arange(num_actions), subset)
        transition[np.ix_(outside, subset)] = 1.0 / k
        initial = np.zeros(num_actions)
        initial[subset] = 1.0 / k
        classes.append(ActivityClass(class_id=cid, transition=transition, initial=initial))
    return classes


def class_vocabulary(cls: ActivityClass) -> np.ndarray:
    """Unit-actions reachable from the class's initial distribution."""
    reachable = cls.initial > 0
    for _ in range(cls.transition.shape[0]):
        expanded = reachable | ((cls.initial + reachable @ cls.transition) > 0)
        if np.array_equal(expanded, reachable):
            break
        reachable = expanded
    return np.flatnonzero(reachable)


def sample_walk(cls: ActivityClass, length: int, rng: np.random.Generator) -> np.ndarray:
    """A walk bitwise equal to one `rng.choice(num_actions, p=row)` per state.

    It draws the same `length + 1` uniforms in one call (the last picks a
    state the walk does not keep) and maps each through its row's CDF as
    `choice` does, so later draws from `rng` match too. Each row is checked
    once, as `choice` checks it: no NaN, none negative, sum within sqrt(eps) of 1.
    """
    rows = np.vstack([cls.initial, cls.transition], dtype=np.float64)
    atol = np.sqrt(np.finfo(np.float64).eps)
    bad = (rows < 0).any(axis=1) | ~(np.abs(rows.sum(axis=1) - 1.0) <= atol)  # NaN sums fail
    if bad.any():
        row = int(np.argmax(bad))
        name = "initial row" if row == 0 else f"transition row {row - 1}"
        raise ValueError(f"class {cls.class_id}: {name} {rows[row]} is not a probability "
                         f"distribution (a NaN, a negative, or a sum off 1 by over {atol:.1e})")
    cdf = rows.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    uniforms = rng.random(length + 1)
    walk = np.empty(length, dtype=np.int64)
    state = cdf[0].searchsorted(uniforms[0], side="right")
    for i in range(length):
        walk[i] = state
        state = cdf[1 + state].searchsorted(uniforms[i + 1], side="right")
    return walk


def sample_video(cls: ActivityClass, vocab: UnitActionVocabulary,
                 T: int, H: int, W: int, seed: int) -> VideoSample:
    """One video: a length-T walk emitting noisy prototypes tiled over (H, W)."""
    rng = np.random.default_rng(seed)
    walk = sample_walk(cls, T, rng)
    noise = rng.normal(0.0, vocab.noise_sigma, size=(T, vocab.channels)) if vocab.noise_sigma > 0 \
        else np.zeros((T, vocab.channels))
    per_step = (vocab.prototypes[walk] + noise).astype(np.float32)   # (T, C), as VGFT stores it
    features = np.broadcast_to(per_step[:, None, None, :], (T, H, W, vocab.channels)).copy()
    return VideoSample(features=features, label=cls.class_id, actions=walk)


# ---------------------------------------------------------------------------
# Temporal order perturbation


def perturbation_indices(length: int, mode: str, seed: int = 0) -> np.ndarray:
    """Time-axis order of one video under `mode`; `training.evaluate` applies it."""
    if mode == "natural":
        return np.arange(length)
    if mode == "reversed":
        return np.arange(length)[::-1]
    if mode == "random":
        return np.random.default_rng(seed).permutation(length)
    raise ValueError(f"perturbation mode must be one of {PERTURBATION_MODES}")


# ---------------------------------------------------------------------------
# Dataset generation


@dataclass
class DatasetConfig:
    num_classes: int = 4
    num_actions: int = 4
    regime: str = "marginal_confound"
    T: int = 16
    H: int = 1
    W: int = 1
    C: int = 16
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    train_videos_per_class: int = 25
    val_videos_per_class: int = 25
    label_mode: str = "single"
    seed: int = 0

    def validate(self) -> None:
        """Raise ValueError naming the first key that cannot generate a dataset."""
        check_types(self)
        for name in ("num_classes", "num_actions", "T", "H", "W", "C",
                     "train_videos_per_class", "val_videos_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"config key {name!r} must be positive; got {getattr(self, name)}")
        if self.label_mode not in LABEL_MODES:
            raise ValueError(f"config key 'label_mode' must be one of {LABEL_MODES}; "
                             f"got {self.label_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def generate_samples(config: DatasetConfig, videos_per_class: int, salt: int) -> Dataset:
    """videos_per_class videos of each class, class by class; `salt` keeps
    the train and val sets of one config apart."""
    config.validate()
    vocab = make_vocabulary(config.num_actions, config.C, seed=config.seed,
                            noise_sigma=config.noise_sigma)
    classes = make_class_set(config.num_classes, config.num_actions, config.regime,
                             seed=config.seed)
    samples = []
    for cls in classes:
        for i in range(videos_per_class):
            sample_seed = np.random.SeedSequence((config.seed, salt, cls.class_id, i))
            rng_seed = int(sample_seed.generate_state(1)[0])
            samples.append(sample_video(cls, vocab, config.T, config.H, config.W, rng_seed))
    if config.label_mode == "single":
        labels = np.array([s.label for s in samples], dtype=np.int64)
    else:
        labels = np.stack([multi_label_vector(s, config.num_actions) for s in samples])
    return Dataset(features=[s.features for s in samples], labels=labels,
                   label_mode=config.label_mode)


def multi_label_vector(sample: VideoSample, num_actions: int) -> np.ndarray:
    """Binary indicator over unit-actions present in the walk."""
    vec = np.zeros(num_actions, dtype=np.int64)
    vec[np.unique(sample.actions)] = 1
    return vec
