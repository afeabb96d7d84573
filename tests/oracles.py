"""Shared brute-force oracles used by both unit and acceptance tests."""

import numpy as np


def brute_force_average_precision(scores, positives):
    """Walk the ranked list by definition: precision at each positive times
    the recall increment. Ties resolved by ascending sample index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    num_pos = sum(positives)
    ap, hits = 0.0, 0
    for rank, idx in enumerate(order, start=1):
        if positives[idx]:
            hits += 1
            precision = hits / rank
            ap += precision * (1.0 / num_pos)
    return ap


def brute_force_map(scores, labels):
    aps = []
    for k in range(scores.shape[1]):
        if labels[:, k].sum() > 0:
            aps.append(brute_force_average_precision(scores[:, k].tolist(),
                                                     labels[:, k].tolist()))
    return sum(aps) / len(aps)


def loop_force_layout(edge_weights, iterations, seed):
    """Fruchterman-Reingold by a double loop over node pairs (i < j), reading
    edge_weights[i, j]; the reference for `analysis.force_layout`."""
    weights = np.asarray(edge_weights, dtype=np.float64)
    n = weights.shape[0]
    pos = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 2))
    k = np.sqrt(1.0 / n)
    t0 = 0.1
    for step in range(iterations):
        disp = np.zeros_like(pos)
        for i in range(n):
            for j in range(i + 1, n):
                delta = pos[i] - pos[j]
                dist = max(np.sqrt((delta ** 2).sum()), 1e-9)
                unit = delta / dist
                force = (k * k / dist) - weights[i, j] * (dist * dist / k)
                disp[i] += unit * force
                disp[j] -= unit * force
        temp = t0 * (1.0 - step / iterations)
        lengths = np.maximum(np.sqrt((disp ** 2).sum(axis=1, keepdims=True)), 1e-9)
        pos = pos + disp / lengths * np.minimum(lengths, temp)
    return pos


def choice_walk(cls, length, rng):
    """A walk by one `rng.choice` per state: the initial draw, then one per
    step; the reference for `synthetic.sample_walk`."""
    num_actions = cls.transition.shape[0]
    walk = np.empty(length, dtype=np.int64)
    state = rng.choice(num_actions, p=cls.initial)
    for i in range(length):
        walk[i] = state
        state = rng.choice(num_actions, p=cls.transition[state])
    return walk


def loop_min_pool_gap(arr, axes, kernel=3):
    """(max - runner-up) of each window in turn, over the windows whose max is positive."""
    counts = tuple(n // kernel if i in axes else n for i, n in enumerate(arr.shape))
    smallest = np.inf
    for idx in np.ndindex(counts):
        window = arr[tuple(slice(kernel * j, kernel * j + kernel) if i in axes else slice(j, j + 1)
                           for i, j in enumerate(idx))]
        top = np.sort(window.reshape(-1))
        if top[-1] > 0:
            smallest = min(smallest, top[-1] - top[-2])
    return smallest


def relu_copy_margins_ok(bn_outputs, relu_margin, gap_margin):
    """The gradient suite's draw-rejection rule on relu'd copies: every batch-norm
    output (a relu input) is at least `relu_margin` from zero, and every 6-D
    graph-embedding one, relu'd, has a pool gap of at least `gap_margin` over
    axes (1, 2) in the windows whose maximum is positive; the reference for
    `gradsuite._margins_ok`."""
    for h in bn_outputs:
        if np.abs(h).min() < relu_margin:
            return False
    relu_copies = [np.maximum(h, 0.0) for h in bn_outputs if h.ndim == 6]
    return all(loop_min_pool_gap(h, (1, 2)) >= gap_margin for h in relu_copies)
