"""Reverse-mode gradients: closed-form cases plus finite-difference suites."""

import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from videograph import gradsuite
from videograph import tensor as tz
from videograph.gradsuite import (DESK_MODEL_CONFIG, MICRO_MODEL_CONFIG, OP_CHECKS,
                                  run_gradient_suite, stage_losses)
from videograph.model import VideoGraphConfig, VideoGraphModel
from videograph.optim import SgdMomentum
from videograph.tensor import ShapeError, Tape, Tensor, grad_check

from oracles import loop_min_pool_gap, relu_copy_margins_ok


class TestClosedFormGradients:
    def test_sigmoid_derivative_at_zero(self):
        x = Tensor(np.zeros((1, 1)), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tz.mean(tz.sigmoid(x), axes=(0, 1)))
        np.testing.assert_allclose(grads[x], 0.25, atol=1e-15)

    def test_matmul_grad_with_ones_upstream(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape() as tape:
            c = tz.matmul(a, b)
            total = tz.mean(tz.reshape(c, (c.size,)), axes=0)
            grads = tape.backward(total)
        # mean upstream of 1/size each: scale the all-ones identity by it
        ones = np.ones((3, 2)) / c.size
        np.testing.assert_allclose(grads[a], ones @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(grads[b], a.data.T @ ones, atol=1e-12)
        err = grad_check(lambda: tz.mean(tz.reshape(tz.matmul(a, b), (6,)), axes=0), [a, b])
        assert err <= 1e-9  # linear function: finite differences are exact

    def test_max_pool_routes_to_argmax(self):
        x = Tensor(np.array([1.0, 5.0, 2.0, 9.0, 0.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            pooled = tz.max_pool(x, (0,))
            grads = tape.backward(tz.mean(pooled, axes=0))
        np.testing.assert_array_equal(grads[x], [0.0, 0.5, 0.0, 0.5, 0.0, 0.0])

    def test_max_pool_ties_route_to_lowest_index(self):
        x = Tensor(np.array([7.0, 7.0, 7.0]), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tz.mean(tz.max_pool(x, (0,)), axes=0))
        np.testing.assert_array_equal(grads[x], [1.0, 0.0, 0.0])

    def test_relu_gradient_at_zero_is_zero(self):
        x = Tensor(np.array([0.0, -1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tz.mean(tz.relu(x), axes=0))
        np.testing.assert_array_equal(grads[x], [0.0, 0.0, 1.0 / 3.0])


class KeepIntermediatesTape(Tape):
    """Oracle: the reverse pass that returns every tensor's gradient, op outputs too."""

    def backward(self, loss):
        grads = {loss: np.ones_like(loss.data)}
        for op in reversed(self.ops):
            g_out = grads.get(op.output)
            if g_out is None:
                continue
            for inp, g_in in zip(op.inputs, op.backward_fn(g_out)):
                if g_in is not None:
                    grads[inp] = grads[inp] + g_in if inp in grads else g_in
        return grads


class TestLeafOnlyGradients:
    def test_op_outputs_keep_no_grad(self):
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            total = tz.mean(tz.relu(tz.mul(x, x)), axes=0)
            grads = tape.backward(total)
        assert len(tape.ops) == 3
        assert all(op.output not in grads for op in tape.ops)
        np.testing.assert_allclose(grads[x], 2.0 * x.data / 3.0, atol=1e-15)

    def test_fan_out_intermediate_sums_into_leaf(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            y = tz.mul(x, Tensor(np.full(2, 3.0)))
            z = tz.add(tz.mul(y, y), y)          # y feeds two ops
            grads = tape.backward(tz.mean(z, axes=0))
        assert y not in grads
        # d/dx mean(9x^2 + 3x) = (18x + 3) / 2
        np.testing.assert_array_equal(grads[x], (18.0 * x.data + 3.0) / 2.0)

    def test_leaf_loss_gets_ones(self):
        loss = Tensor(np.array(2.5), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[loss], np.ones(()))

    def test_backward_returns_exactly_the_requires_grad_leaves(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        w = Tensor(np.array([0.5, 3.0]), requires_grad=True)
        const = Tensor(np.array([4.0, 5.0]))
        unreached = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            tz.mul(unreached, w)
            total = tz.mean(tz.add(tz.mul(x, w), const), axes=0)
            grads = tape.backward(total)
        assert grads.keys() == {x, w}
        np.testing.assert_array_equal(grads[x], w.data / 2.0)
        np.testing.assert_array_equal(grads[w], x.data / 2.0)

    def test_desk_step_grads_bitwise_equal_keeping_intermediates(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 16, 1, 1, 16))
        targets = np.array([1, 3])
        runs = []
        for tape_cls in (Tape, KeepIntermediatesTape):
            model = VideoGraphModel(VideoGraphConfig(num_classes=4, seed=5))
            with tape_cls() as tape:
                loss = tz.loss(model.forward_batch(Tensor(x), mode="train"), targets, "single")
                runs.append((model.named_parameters(), tape.backward(loss), tape.ops))
        (params, leaf, ops), (kept_params, kept, kept_ops) = runs
        assert not any(op.output in leaf for op in ops)
        assert all(op.output in kept for op in kept_ops)
        assert leaf.keys() == set(params.values())
        for name, p in params.items():
            assert leaf[p].tobytes() == kept[kept_params[name]].tobytes(), name


class TestGradientSuite:
    """Every differentiable op at >= 10 random shapes/seeds, threshold 1e-4."""

    @pytest.mark.parametrize("name,fn", OP_CHECKS, ids=[n for n, _ in OP_CHECKS])
    def test_op_ten_seeds(self, name, fn):
        worst = 0.0
        for s in range(10):
            rng = np.random.default_rng((1234, s, zlib.crc32(name.encode())))
            worst = max(worst, fn(rng))
        assert worst <= 1e-4, f"{name}: max relative error {worst:.3e}"

    def test_suite_runner_passes(self):
        results = run_gradient_suite(seed=5, num_seeds=2, include_desk_model=False)
        assert all(r.passed for r in results)


class TestTapeGradients:
    def test_unreached_tensor_gets_zeros_and_grads_are_cleared(self):
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        unused = Tensor(np.ones((2, 2)), requires_grad=True)

        def f():
            return tz.mean(tz.mul(a, a), axes=0)

        grads = tz.tape_gradients(f, [a, unused])
        np.testing.assert_allclose(grads[0], 2.0 * a.data / 3.0, rtol=1e-15)
        np.testing.assert_array_equal(grads[1], np.zeros((2, 2)))
        # nothing carries over: a second call returns the same gradients, not their sum
        again = tz.tape_gradients(f, [a, unused])
        assert [g.tobytes() for g in again] == [g.tobytes() for g in grads]

    def test_non_scalar_function_rejected_and_grads_cleared(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            tz.tape_gradients(lambda: tz.mul(a, a), [a])
        # the rejected call leaves nothing behind for the next one
        grads = tz.tape_gradients(lambda: tz.mean(tz.mul(a, a), axes=0), [a])
        np.testing.assert_array_equal(grads[0], 2.0 * a.data / 3.0)


class TestMinPoolGap:
    @given(st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_window_loop(self, num_axes, seed):
        # pooled lengths 3-8, so most leave a ragged tail; relu zeros empty some windows
        rng = np.random.default_rng(seed)
        ndim = int(rng.integers(max(num_axes, 2), 5))
        axes = tuple(int(a) for a in sorted(rng.choice(ndim, size=num_axes, replace=False)))
        shape = [int(rng.integers(3, 9)) if i in axes else int(rng.integers(1, 4)) for i in range(ndim)]
        arr = np.maximum(rng.normal(size=shape), 0.0)
        assert gradsuite._min_pool_gap(arr, axes) == loop_min_pool_gap(arr, axes)

    def test_no_positive_window_gives_inf(self):
        arr = -np.abs(np.random.default_rng(0).normal(size=(7, 5, 2)))
        arr[0, 0, 0] = 0.0
        assert gradsuite._min_pool_gap(arr, (0, 1)) == np.inf
        assert loop_min_pool_gap(arr, (0, 1)) == np.inf


def _seeded_variants(arrays, rng):
    """`arrays` as drawn, then copies with one value near zero, a near-tied
    pool window, and a window whose only positive value is small."""
    yield arrays
    for offset in (5e-5, 2e-4):
        near_zero = [a.copy() for a in arrays]
        target = near_zero[rng.integers(len(arrays))]
        target.flat[rng.integers(target.size)] = offset * rng.choice([-1.0, 1.0])
        yield near_zero
        for build in ("tie", "lone_positive"):
            edited = [a.copy() for a in arrays]
            h = edited[0]                                   # the first embedding layer's
            b, y, w, c = (int(rng.integers(n)) for n in (h.shape[0], h.shape[3], h.shape[4],
                                                          h.shape[5]))
            window = h[b, :3, :3, y, w, c]                  # a view: edits reach h
            if build == "tie":
                window.flat[0] = np.abs(window).max() + 0.5
                window.flat[1] = window.flat[0] - offset
            else:
                window[...] = -np.abs(window) - 1e-3
                window.flat[0] = offset
            yield edited


class TestMarginRule:
    @pytest.mark.parametrize("check, calls", [
        (gradsuite.check_graph_embedding, 4), (gradsuite.check_full_model_micro, 4),
        (gradsuite.check_full_model_desk, 1)], ids=["graph_embedding", "micro", "desk"])
    def test_same_decision_as_relu_copy_rule(self, monkeypatch, check, calls):
        """Every draw a check makes, and seeded edits of it: `_margins_ok` on the
        raw batch-norm outputs decides as the rule on their relu'd copies did.
        The spy rejects each draw, so a check draws MAX_DRAW_ATTEMPTS times."""
        margins_ok, rng = gradsuite._margins_ok, np.random.default_rng(0)
        decisions = []

        def spy(bn_outputs):
            for arrays in _seeded_variants([h.data for h in bn_outputs], rng):
                ours = margins_ok([Tensor(a) for a in arrays])
                reference = relu_copy_margins_ok(arrays, gradsuite.RELU_MARGIN,
                                                 gradsuite.POOL_GAP_MARGIN)
                decisions.append((ours, reference))
            return False

        monkeypatch.setattr(gradsuite, "_margins_ok", spy)
        for seed in range(calls):
            with pytest.raises(RuntimeError, match="no well-conditioned draw"):
                check(np.random.default_rng(seed))
        assert len(decisions) == calls * gradsuite.MAX_DRAW_ATTEMPTS * 7
        assert all(ours == reference for ours, reference in decisions)
        accepted = sum(ours for ours, _ in decisions)
        assert 0 < accepted < len(decisions)


class TestGradCheckRestore:
    def test_every_component_restored_bitwise(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(4, 3)).T, requires_grad=True)
        # 1e12 + 1e-5 rounds back to 1e12; -0.0 differs from 0.0 only in its bits
        b = Tensor(np.array([1e12, -0.0, 0.3]), requires_grad=True)
        assert not a.data.flags["C_CONTIGUOUS"]
        assert b.data[0] + 1e-5 == b.data[0]
        before = [a.data.tobytes(), b.data.tobytes()]

        def f():
            return tz.add(tz.mean(tz.reshape(tz.mul(a, a), (12,)), axes=0),
                          tz.mean(tz.mul(b, b), axes=0))

        grad_check(f, [a, b])
        assert [a.data.tobytes(), b.data.tobytes()] == before


class TestGradCheckPerTensorFunctions:
    def test_each_tensor_checked_against_its_own_function(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        calls = []

        def square(t, key):
            def f():
                calls.append(key)
                return tz.mean(tz.reshape(tz.mul(t, t), (t.size,)), axes=0)
            return f

        fa, fb = square(a, "a"), square(b, "b")
        # one taped call per distinct function, then two calls per component
        assert grad_check([fa, fb], [a, b]) <= 1e-8
        assert (calls.count("a"), calls.count("b")) == (1 + 2 * a.size, 1 + 2 * b.size)
        calls.clear()
        assert grad_check([fa, fa], [a, b]) <= 1e-8   # fa does not read b: zero both ways
        assert calls == ["a"] * (1 + 2 * (a.size + b.size))


def _drawn_eval_model(config, seed, batch=2):
    """A model whose batch-norm running statistics were set by one train pass."""
    rng = np.random.default_rng(seed)
    model = VideoGraphModel(replace(config, seed=seed))
    x = Tensor(rng.normal(size=(batch, config.T, config.H, config.W, config.C)))
    targets = rng.integers(0, config.num_classes, size=batch)
    with tz.stop_recording():
        model.forward_batch(x, mode="train")
    return model, x, targets


def _full_eval_loss(model, x, targets):
    return lambda: tz.loss(model.forward_batch(x, mode="eval"), targets, "single")


MODEL_CONFIGS = pytest.mark.parametrize("config", [MICRO_MODEL_CONFIG, DESK_MODEL_CONFIG],
                                        ids=["micro", "desk"])
STAGES = ("attention", "embedding", "classifier")
# the model methods each stage's loss runs: a loss restarts at its own stage
STAGE_CALLS = (["forward_batch", "embed", "classifier_input"], ["embed", "classifier_input"], [])


def _record_calls(obj, method_names, calls):
    """Shadow each obj.<name> with a wrapper that appends the name to calls."""
    for name in method_names:
        def recorded(*args, _method=getattr(obj, name), _name=name, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)
        setattr(obj, name, recorded)


def _stage_params(model):
    """The attention, embedding and classifier parameters, read off the model's parts."""
    return [[model.nodes, model.attention.weight, model.attention.bias],
            [p for i, emb in enumerate(model.embeddings)
             for p in emb.named_parameters(f"embed{i}").values()],
            list(model.classifier.named_parameters("classifier").values())]


class TestStagedEvalLoss:
    """The staged eval-mode losses of `stage_losses`, one per forward stage."""

    @MODEL_CONFIGS
    def test_value_bitwise_equal_full_forward_after_perturbing_each_tensor(self, config):
        model, x, targets = _drawn_eval_model(config, 3)
        full = _full_eval_loss(model, x, targets)
        base = full().data.tobytes()
        rng = np.random.default_rng(4)
        stages = stage_losses(model, x, targets)
        calls = []
        _record_calls(model, STAGE_CALLS[0], calls)
        for stage, expected_calls, (group, loss) in zip(STAGES, STAGE_CALLS, stages):
            calls.clear()
            assert loss().data.tobytes() == base, stage
            assert calls == expected_calls, stage
            for p in group:
                flat = p.data.reshape(-1)
                i = int(rng.integers(flat.size))
                orig = flat[i]
                for step in (1e-5, -1e-5):
                    flat[i] = orig + step
                    assert loss().data.tobytes() == full().data.tobytes(), stage
                flat[i] = orig
            assert loss().data.tobytes() == base, stage

    @MODEL_CONFIGS
    def test_tape_grads_bitwise_equal_full_forward(self, config):
        model, x, targets = _drawn_eval_model(config, 5)
        params = list(model.named_parameters().values())
        full = tz.tape_gradients(_full_eval_loss(model, x, targets), params)
        staged = [g for group, loss in stage_losses(model, x, targets)
                  for g in tz.tape_gradients(loss, group)]
        assert [g.tobytes() for g in staged] == [g.tobytes() for g in full]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grad_check_bitwise_equal_full_forward(self, seed):
        model, x, targets = _drawn_eval_model(MICRO_MODEL_CONFIG, seed)
        params = list(model.named_parameters().values())
        full = grad_check(_full_eval_loss(model, x, targets), params)
        stages = stage_losses(model, x, targets)
        staged = grad_check([loss for group, loss in stages for _ in group], params)
        assert staged.hex() == full.hex()

    @pytest.mark.parametrize("layers", [1, 2])
    def test_stage_groups_and_head_partition_parameters(self, layers):
        config = VideoGraphConfig(T=9, N=9, H=1, W=1, C=3, num_classes=2, t=3, n=3,
                                  num_embedding_layers=layers, classifier_hidden=4)
        model, x, targets = _drawn_eval_model(config, 0)
        groups = [group for group, _ in stage_losses(model, x, targets)]
        ids = [[id(p) for p in group] for group in groups]
        assert ids == [[id(p) for p in group] for group in _stage_params(model)]
        assert sum(ids, []) == [id(p) for p in model.named_parameters().values()]

    @pytest.mark.parametrize("check", [gradsuite.check_full_model_micro,
                                       gradsuite.check_full_model_desk])
    def test_model_check_makes_one_grad_check_over_every_parameter(self, monkeypatch, check):
        models, calls = [], []

        class RecordedModel(VideoGraphModel):
            def __init__(self, config):
                super().__init__(config)
                models.append(self)

        def recording_grad_check(f, tensors):
            calls.append((list(f), list(tensors)))
            return 0.0

        monkeypatch.setattr(gradsuite, "VideoGraphModel", RecordedModel)
        monkeypatch.setattr(gradsuite, "grad_check", recording_grad_check)
        check(np.random.default_rng(0))
        assert len(calls) == 1
        (losses, tensors), = calls
        params = models[-1].named_parameters()
        assert [id(t) for t in tensors] == [id(p) for p in params.values()]
        # one loss per stage, shared by the stage's parameters
        loss_of = dict(zip(map(id, tensors), losses))
        per_stage = [{id(loss_of[id(p)]) for p in group}
                     for group in _stage_params(models[-1])]
        assert [len(ids) for ids in per_stage] == [1] * len(STAGES)
        assert len(set.union(*per_stage)) == len(STAGES)


class TestSgd:
    def test_plain_step(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        grad = np.array([0.5, -0.5])
        opt = SgdMomentum({"p": p}, learning_rate=0.1, momentum=0.0, weight_decay=0.0)
        opt.step({p: grad})
        np.testing.assert_allclose(p.data, [0.95, 2.05])
        np.testing.assert_array_equal(grad, [0.5, -0.5])   # the step only reads it

    def test_momentum_two_steps(self):
        # constant gradient 1: drops of lr*1 then lr*1.9
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SgdMomentum({"p": p}, learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        opt.step({p: np.array([1.0])})
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-15)
        opt.step({p: np.array([1.0])})
        np.testing.assert_allclose(p.data, [-0.29], atol=1e-15)

    def test_weight_decay_enters_velocity(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = SgdMomentum({"p": p}, learning_rate=0.1, momentum=0.0, weight_decay=0.01)
        opt.step({p: np.array([0.0])})
        np.testing.assert_allclose(p.data, [10.0 - 0.1 * 0.1])

    def test_zero_lr_leaves_parameters_bitwise(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=17), requires_grad=True)
        before = p.data.tobytes()
        grad = rng.normal(size=17)
        opt = SgdMomentum({"p": p}, learning_rate=0.0, momentum=0.9, weight_decay=1e-5)
        opt.step({p: grad})
        assert p.data.tobytes() == before

    def test_default_hyperparameters(self):
        from videograph.training import RunConfig
        cfg = RunConfig()
        assert (cfg.learning_rate, cfg.momentum, cfg.weight_decay) == (0.1, 0.9, 1e-5)

    def test_in_place_step_bitwise_equal_out_of_place_expression(self):
        rng = np.random.default_rng(11)
        params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=4), requires_grad=True)}
        lr, momentum, decay = 0.1, 0.9, 1e-5
        opt = SgdMomentum(params, learning_rate=lr, momentum=momentum, weight_decay=decay)
        ref_data = {n: p.data.copy() for n, p in params.items()}
        ref_velocity = {n: np.zeros_like(p.data) for n, p in params.items()}
        for _ in range(50):
            grads = {}
            for n, p in params.items():
                g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 2)
                grads[p] = g.copy()
                ref_velocity[n] = momentum * ref_velocity[n] + (g + decay * ref_data[n])
                ref_data[n] = ref_data[n] - lr * ref_velocity[n]
            opt.step(grads)
            for n, p in params.items():
                assert p.data.tobytes() == ref_data[n].tobytes()
                assert opt.velocity[n].tobytes() == ref_velocity[n].tobytes()

    def test_missing_grad_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        opt = SgdMomentum({"p": p, "q": q}, learning_rate=0.1, momentum=0.9, weight_decay=1e-5)
        with pytest.raises(RuntimeError, match="'q'.*no gradient"):
            opt.step({p: np.ones(2)})
        # nothing moves when any parameter lacks a gradient
        np.testing.assert_array_equal(p.data, np.zeros(2))
