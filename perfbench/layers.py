"""Per-layer metrics from the tracer's spans.

Normalisation: every `calls`, `*_ms`, `mflop` and `out_mb` value is per
operation of the workload (an epoch, an evaluate pass, a gradient suite),
averaged over the traced operations, except:
  * `training.evaluate.ms` / `.baseline_ms`: mean per graph-model / baseline
    evaluate call;
  * set-up metrics (`synthetic.*`, `datasets.*`, `features.*`,
    `checkpoint.*`): totals of one traced set-up;
  * `model.forward_batch.videos_per_call`, `tensor.tape.ops_per_step`: means
    per call.
"""

from __future__ import annotations

from collections import defaultdict

from counts import KERNELS
from tracer import OP_CATEGORIES

OP_SPAN = "bench.op"
MS, MB = 1e3, 1e-6


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = [("op_ms.tail", "ms", "lower"), ("op_ms.tail_pct", "%", "higher"),
             ("op_ms.tail_n", "count", "higher")]
    for cat in OP_CATEGORIES:
        names += [(f"tensor.{cat}.calls", "count", "lower"), (f"tensor.{cat}.fwd_ms", "ms", "lower"),
                  (f"tensor.{cat}.bwd_ms", "ms", "lower")]
    for kernel in KERNELS:
        names += [(f"tensor.{kernel}.mflop", "MFLOP", "lower"),
                  (f"tensor.{kernel}.out_mb", "MB", "lower")]
    names += [
        ("tensor.tape.backward_ms", "ms", "lower"), ("tensor.tape.ops_per_step", "count", "lower"),
        ("tensor.untraced_ms", "ms", "lower"), ("tensor.coverage_pct", "%", "higher"),
        ("model.forward_batch.train_ms", "ms", "lower"), ("model.forward_batch.eval_ms", "ms", "lower"),
        ("model.forward_batch.calls", "count", "lower"),
        ("model.forward_batch.videos_per_call", "count", "higher"),
        ("training.evaluate.calls", "count", "lower"), ("training.evaluate.ms", "ms", "lower"),
        ("training.evaluate.baseline_ms", "ms", "lower"), ("training.epoch_other_ms", "ms", "lower"),
        ("optim.step.calls", "count", "lower"), ("optim.step.ms", "ms", "lower"),
        ("analysis.track_node_distances_ms", "ms", "lower"), ("metrics.ms", "ms", "lower"),
        ("synthetic.generate_samples_ms", "ms", "lower"),
        ("datasets.write_manifest_ms", "ms", "lower"), ("datasets.load_manifest_ms", "ms", "lower"),
        ("features.mb_written", "MB", "lower"), ("features.mb_read", "MB", "lower"),
        ("checkpoint.save_ms", "ms", "lower"), ("checkpoint.load_ms", "ms", "lower"),
        ("checkpoint.mb", "MB", "lower"),
        ("gradsuite.grad_check.calls", "count", "lower"), ("gradsuite.grad_check.ms", "ms", "lower"),
        ("gradsuite.fd_forwards", "count", "lower"), ("gradsuite.op_checks_ms", "ms", "lower"),
        ("gradsuite.model_checks_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return names


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _is_table_row(name: str) -> bool:
    """Spans of the per-op table: tensor ops, the tape walk and the optimizer."""
    return (name.startswith("tensor.") and name.endswith((".fwd", ".bwd"))) or name in (
        "tensor.tape.backward", "optim.step")


def train_step_coverage(spans: list, op_indices: list[int]) -> tuple[float, float]:
    """(untraced ms per epoch, covered %) of the training steps.

    The steps of an epoch run from its first train-mode forward_batch to its
    last optimizer step. Covered time is the union of the per-op table's
    spans inside that window: tensor-op forwards, the tape's reverse pass
    (which contains the ops' backward spans) and optimizer steps. The rest is
    batch assembly and Python between ops.
    """
    untraced, passes, covered_total = [], 0.0, 0.0
    by_op = defaultdict(list)
    for span in spans:
        by_op[span[4]].append(span)
    for op_index in op_indices:
        members = by_op[spans[op_index][4]]
        starts = [s[1] for s in members if s[0] == "model.forward_batch.train"]
        ends = [s[2] for s in members if s[0] == "optim.step"]
        if not starts or not ends:
            continue
        lo, hi = min(starts), max(ends)
        covered = _union_length([(s[1], s[2]) for s in members
                                 if _is_table_row(s[0]) and s[1] >= lo and s[2] <= hi])
        untraced.append((hi - lo - covered) * MS)
        passes += hi - lo
        covered_total += covered
    if not untraced:
        return 0.0, 0.0
    return _mean(untraced), 100.0 * covered_total / passes


def layer_metrics(spans: list, workload: str) -> dict[str, float]:
    """Every per-layer metric (zero where a layer did no work) from traced spans."""
    ops = [i for i, s in enumerate(spans) if s[0] == OP_SPAN]
    op_ids = {spans[i][4] for i in ops}
    n_ops = max(1, len(ops))
    timed = [s for s in spans if s[4] in op_ids]
    setup = [s for s in spans if s[4] == "setup"]

    def dur(s):
        return s[2] - s[1]

    def group(source, name):
        return [s for s in source if s[0] == name]

    def per_op_ms(name):
        return sum(dur(s) for s in group(timed, name)) * MS / n_ops

    def per_op_calls(name):
        return len(group(timed, name)) / n_ops

    m = {}
    for cat in OP_CATEGORIES:
        m[f"tensor.{cat}.calls"] = per_op_calls(f"tensor.{cat}.fwd")
        m[f"tensor.{cat}.fwd_ms"] = per_op_ms(f"tensor.{cat}.fwd")
        m[f"tensor.{cat}.bwd_ms"] = per_op_ms(f"tensor.{cat}.bwd")
    for kernel in KERNELS:
        fwd = group(timed, f"tensor.{kernel}.fwd")
        m[f"tensor.{kernel}.mflop"] = sum(s[5][1] for s in fwd) * MB / n_ops
        m[f"tensor.{kernel}.out_mb"] = sum(s[5][0] for s in fwd) * MB / n_ops

    backward = group(timed, "tensor.tape.backward")
    m["tensor.tape.backward_ms"] = per_op_ms("tensor.tape.backward")
    m["tensor.tape.ops_per_step"] = _mean(s[5] for s in backward)
    m["tensor.untraced_ms"], m["tensor.coverage_pct"] = train_step_coverage(spans, ops)

    forwards = group(timed, "model.forward_batch.train") + group(timed, "model.forward_batch.eval")
    m["model.forward_batch.train_ms"] = per_op_ms("model.forward_batch.train")
    m["model.forward_batch.eval_ms"] = per_op_ms("model.forward_batch.eval")
    m["model.forward_batch.calls"] = len(forwards) / n_ops
    m["model.forward_batch.videos_per_call"] = _mean(s[5] for s in forwards)

    evaluates = group(timed, "training.evaluate")
    m["training.evaluate.calls"] = len(evaluates) / n_ops
    m["training.evaluate.ms"] = _mean(dur(s) * MS for s in evaluates if s[5] is False)
    m["training.evaluate.baseline_ms"] = _mean(dur(s) * MS for s in evaluates if s[5] is True)
    if workload == "train_desk":
        children = defaultdict(float)
        for s in timed:
            if s[3] >= 0 and spans[s[3]][0] == OP_SPAN:
                children[s[3]] += dur(s)
        m["training.epoch_other_ms"] = _mean((dur(spans[i]) - children[i]) * MS for i in ops)
    else:
        m["training.epoch_other_ms"] = 0.0

    m["optim.step.calls"] = per_op_calls("optim.step")
    m["optim.step.ms"] = per_op_ms("optim.step")
    m["analysis.track_node_distances_ms"] = per_op_ms("analysis.track_node_distances")
    m["metrics.ms"] = per_op_ms("metrics")

    def setup_ms(name):
        return sum(dur(s) for s in group(setup, name)) * MS

    def setup_mb(name):
        return sum(s[5] for s in group(setup, name)) * MB

    m["synthetic.generate_samples_ms"] = setup_ms("synthetic.generate_samples")
    m["datasets.write_manifest_ms"] = setup_ms("datasets.write_manifest")
    m["datasets.load_manifest_ms"] = setup_ms("datasets.load_manifest")
    m["features.mb_written"] = setup_mb("features.write")
    m["features.mb_read"] = setup_mb("features.read")
    m["checkpoint.save_ms"] = setup_ms("checkpoint.save")
    m["checkpoint.load_ms"] = setup_ms("checkpoint.load")
    m["checkpoint.mb"] = setup_mb("checkpoint.save")

    m["gradsuite.grad_check.calls"] = per_op_calls("gradsuite.grad_check")
    m["gradsuite.grad_check.ms"] = per_op_ms("gradsuite.grad_check")
    m["gradsuite.fd_forwards"] = sum(s[5] for s in group(timed, "gradsuite.grad_check")) / n_ops
    m["gradsuite.op_checks_ms"] = per_op_ms("gradsuite.op_check")
    m["gradsuite.model_checks_ms"] = per_op_ms("gradsuite.model_check")
    return m
