"""Outside-in tracer: spans around calls into videograph's public functions.

The program is not edited. `Tracer.install()` replaces each traced function
at the place its callers look it up, and `restore()` puts every original
back:

  * tensor ops: the `videograph.tensor` module attributes (`tz.matmul`, ...),
    which the model and the gradient suite call through `tz.`, plus the
    entries of `tensor._ACTIVATIONS`, through which `tz.activation` reaches
    relu, sigmoid and tanh;
  * the backward of each tensor op: when an op's forward appends a `_TapeOp`
    to the active tape, its `backward_fn` is wrapped so that the reverse pass
    records a span for it;
  * class methods that every caller resolves through the class:
    `Tape.backward`, `forward_batch` of both models, `SgdMomentum.step`;
  * module-level bindings made by `from ... import`: `training.evaluate`,
    `training.track_node_distances`, `training.accuracy`,
    `training.mean_average_precision`, `datasets.write_feature_file`,
    `datasets.read_feature_file` and `gradsuite.grad_check`;
  * functions the benchmark itself calls through their module:
    `synthetic.generate_samples`, `datasets.write_manifest`,
    `datasets.load_manifest`, `checkpoint.save_checkpoint`,
    `checkpoint.load_checkpoint`;
  * the entries of `gradsuite.OP_CHECKS` and `gradsuite.MODEL_CHECKS`, which
    `run_gradient_suite` iterates.

A span is (name, start, end, parent, op, extra): perf_counter seconds, the
index of the enclosing span on the same thread (-1 for none), the id of the
benchmark operation it belongs to, and a per-name payload (bytes, FLOPs,
batch size, ...). Spans stay in memory until `write()`.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter

from counts import KERNELS, kernel_call_flops

# tensor module attribute -> op category in the per-layer table
TENSOR_OPS = {
    "depthwise_conv1d": "depthwise_conv1d",
    "batch_norm": "batch_norm",
    "max_pool": "max_pool",
    "matmul": "matmul",
    "mean_exact": "mean_exact",
    "softmax": "softmax",
    "relu": "activation",
    "sigmoid": "activation",
    "tanh": "activation",
    "loss": "loss",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "reshape": "structural",
    "transpose": "structural",
    "mean": "structural",
}
OP_CATEGORIES = tuple(dict.fromkeys(TENSOR_OPS.values()))


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    """Records spans while installed; restores every original on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- span recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span; returns its index for `close`."""
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.op, None])
        stack.append(index)
        return index

    def close(self, index: int, extra=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = extra
        self._stack().pop()

    def traced(self, name: str, fn, extra_of=None):
        """Wrap fn in a span; extra_of(args, kwargs, result) gives the payload."""
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index, "raised")
                raise
            tracer.close(index, extra_of(args, kwargs, result) if extra_of else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- tensor ops -----------------------------------------------------------

    def _traced_op(self, category: str, fn, active_tape):
        tracer = self
        fwd_name, bwd_name = f"tensor.{category}.fwd", f"tensor.{category}.bwd"
        is_kernel = category in KERNELS

        def timed_backward(backward_fn):
            def backward(g):
                index = tracer.open(bwd_name)
                try:
                    return backward_fn(g)
                finally:
                    tracer.close(index)
            return backward

        def wrapper(*args, **kwargs):
            tape = active_tape()
            recorded = len(tape.ops) if tape is not None else 0
            index = tracer.open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index, "raised")
                raise
            flops = kernel_call_flops(category, args, kwargs, out.shape) if is_kernel else 0
            tracer.close(index, (out.data.nbytes, flops))
            if tape is not None and len(tape.ops) > recorded and tape.ops[-1].output is out:
                op = tape.ops[-1]
                op.backward_fn = timed_backward(op.backward_fn)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ----------------------------------------------------

    def _patch(self, owner, key, replacement, item: bool = False) -> None:
        original = owner[key] if item else getattr(owner, key)
        self._patches.append((owner, key, original, item))
        if item:
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)

    def install(self) -> "Tracer":
        from videograph import (checkpoint, datasets, gradsuite, model, optim, synthetic,
                                tensor, training)

        if self._patches:
            raise RuntimeError("tracer is already installed")
        for attr, category in TENSOR_OPS.items():
            self._patch(tensor, attr, self._traced_op(category, getattr(tensor, attr),
                                                      tensor.active_tape))
        for kind, fn in list(tensor._ACTIVATIONS.items()):
            self._patch(tensor._ACTIVATIONS, kind,
                        self._traced_op("activation", fn, tensor.active_tape), item=True)

        self._patch(tensor.Tape, "backward",
                    self.traced("tensor.tape.backward", tensor.Tape.backward,
                                lambda a, k, r: len(a[0].ops)))
        for cls in (model.VideoGraphModel, model.MeanPoolBaseline):
            self._patch(cls, "forward_batch", self._traced_forward_batch(cls.forward_batch))
        self._patch(optim.SgdMomentum, "step",
                    self.traced("optim.step", optim.SgdMomentum.step))

        self._patch(training, "evaluate", self.traced(
            "training.evaluate", training.evaluate,
            lambda a, k, r: isinstance(a[0], model.MeanPoolBaseline)))
        self._patch(training, "track_node_distances",
                    self.traced("analysis.track_node_distances", training.track_node_distances))
        for attr in ("accuracy", "mean_average_precision"):
            self._patch(training, attr, self.traced("metrics", getattr(training, attr)))

        self._patch(synthetic, "generate_samples",
                    self.traced("synthetic.generate_samples", synthetic.generate_samples))
        self._patch(datasets, "write_manifest",
                    self.traced("datasets.write_manifest", datasets.write_manifest))
        self._patch(datasets, "load_manifest",
                    self.traced("datasets.load_manifest", datasets.load_manifest))
        self._patch(datasets, "write_feature_file", self.traced(
            "features.write", datasets.write_feature_file,
            lambda a, k, r: Path(a[0]).stat().st_size))
        self._patch(datasets, "read_feature_file", self.traced(
            "features.read", datasets.read_feature_file,
            lambda a, k, r: Path(a[0]).stat().st_size))
        self._patch(checkpoint, "save_checkpoint", self.traced(
            "checkpoint.save", checkpoint.save_checkpoint,
            lambda a, k, r: _tree_bytes(r)))
        self._patch(checkpoint, "load_checkpoint", self.traced(
            "checkpoint.load", checkpoint.load_checkpoint,
            lambda a, k, r: _tree_bytes(a[0])))

        self._patch(gradsuite, "grad_check", self.traced(
            "gradsuite.grad_check", gradsuite.grad_check,
            lambda a, k, r: 2 * sum(t.size for t in a[1]) + 1))
        for checks, span in ((gradsuite.OP_CHECKS, "gradsuite.op_check"),
                             (gradsuite.MODEL_CHECKS, "gradsuite.model_check")):
            for i, (name, fn) in enumerate(list(checks)):
                self._patch(checks, i, (name, self.traced(span, fn)), item=True)
        return self

    def _traced_forward_batch(self, fn):
        tracer = self

        def forward_batch(model_self, x, mode="train", capture=None):
            index = tracer.open(f"model.forward_batch.{mode}")
            try:
                out = fn(model_self, x, mode=mode, capture=capture)
            except BaseException:
                tracer.close(index, "raised")
                raise
            tracer.close(index, out.shape[0])
            return out

        forward_batch.__wrapped__ = fn
        return forward_batch

    def restore(self) -> None:
        while self._patches:
            owner, key, original, item = self._patches.pop()
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.restore()
        return False

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, extra."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
