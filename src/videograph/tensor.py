"""Dense tensors with reverse-mode automatic differentiation.

Implements exactly the operations the video-graph pipeline needs, on top of
numpy arrays. Gradients are recorded on a tape and replayed in reverse
execution order; broadcasting is supported for elementwise ops via gradient
unbroadcasting. Gradients are return values, not tensor state: the reverse
pass returns a dict from each leaf it reaches (a tensor that no recorded op
produced, such as a parameter or an input) to that leaf's gradient. An op
output's gradient is dropped as soon as its op has consumed it.

Conventions fixed here so results are reproducible:
  * relu gradient at 0 is 0;
  * max-pool ties route the gradient to the lowest (row-major) index;
  * probabilities inside losses are clamped to [1e-7, 1 - 1e-7], with zero
    gradient where the clamp is active.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

PROB_CLAMP = 1e-7


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """A dense float64 nd-array, optionally marked as requiring a gradient.

    Every input is stored as float64, the precision all ops compute in.
    Loaded float32 features widen here, and only here; float32 values embed
    exactly in float64, so the widening moves no bit.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor contains non-finite values")
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op_output(arr) -> Tensor:
    """Wrap the float array an op just computed, skipping `Tensor`'s checks.

    Ops on float tensors yield float arrays, and a non-finite value there is
    the op's result, not bad input. Reductions to a single value and ops on
    0-d inputs return numpy scalars, which become 0-d arrays.
    """
    out = Tensor.__new__(Tensor)
    out.data = arr if type(arr) is np.ndarray else np.asarray(arr)
    out.requires_grad = False
    return out


# ---------------------------------------------------------------------------
# Tape


class _TapeOp:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
        self.output = output
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


# innermost last; None while recording is stopped
_TAPE_STACK: list = []


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class stop_recording:
    """Context manager that suspends tape recording until it exits."""

    def __enter__(self):
        _TAPE_STACK.append(None)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False


class Tape:
    """Ordered record of executed differentiable operations.

    The reverse pass walks the record backwards (execution order is a valid
    topological order of the data flow), accumulating gradient contributions
    additively.
    """

    def __init__(self):
        self.ops: list[_TapeOp] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> None:
        # _maybe_record records an op only if an input requires grad, so the
        # flag is what carries a gradient path past the first op
        output.requires_grad = True
        self.ops.append(_TapeOp(output, inputs, backward_fn))

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """The gradient of loss for every requires_grad leaf it reaches, keyed by leaf.

        A leaf is a tensor that no op on this tape produced; op outputs are
        absent, each one's gradient dropped once its op has consumed it. The
        arrays are the ones the backward functions produced, uncopied, and one
        array may serve two leaves, so callers must not write into them.
        """
        if loss.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
        for op in reversed(self.ops):
            g_out = grads.pop(op.output, None)
            if g_out is None:
                continue
            for inp, g_in in zip(op.inputs, op.backward_fn(g_out)):
                if g_in is not None:
                    grads[inp] = grads[inp] + g_in if inp in grads else g_in
        leaves = {}
        for tensor, g in grads.items():
            if tensor.requires_grad:
                g = np.asarray(g)
                if g.shape != tensor.shape:
                    raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {tensor.shape}")
                leaves[tensor] = g
        return leaves


def _maybe_record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape.record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, length in enumerate(shape):
        if length == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _op_output(a.data + b.data)
    return _maybe_record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _op_output(a.data - b.data)
    return _maybe_record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _op_output(a.data * b.data)
    return _maybe_record(
        out, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    out = _op_output(x.data.reshape(shape))
    return _maybe_record(out, (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    out = _op_output(np.transpose(x.data, axes))
    return _maybe_record(out, (x,), lambda g: (np.transpose(g, inverse),))


def mean(x: Tensor, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes) if isinstance(axes, (tuple, list)) else (axes,)
    count = 1
    for ax in axes:
        count *= x.shape[ax]
    # the sum and the division np.mean performs, without its Python wrapper
    out = _op_output(np.add.reduce(x.data, axis=axes) / count)

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axes) / count, x.shape).copy(),)

    return _maybe_record(out, (x,), backward)


def mean_exact(x: Tensor, axes) -> Tensor:
    """Mean over axes, bitwise independent of the order of the pooled values.

    The pooled values are moved to a leading axis and sorted along it, so any
    permutation of them yields the same array; np.add.reduce along that
    leading axis then adds whole rows elementwise, one after another, so the
    summation order of every output is fixed by the sort alone. A sum along
    the contiguous last axis would instead be grouped by numpy's pairwise
    SIMD kernel, whose grouping numpy does not promise to keep fixed across
    buffer alignments. Intended for the orderless pooling baseline.
    """
    x = as_tensor(x)
    axes = tuple(sorted(ax % x.ndim for ax in (axes if isinstance(axes, (tuple, list)) else (axes,))))
    keep = [i for i in range(x.ndim) if i not in axes]
    out_shape = tuple(x.shape[i] for i in keep)
    count = int(np.prod([x.shape[i] for i in axes], dtype=np.int64))
    pooled = np.transpose(x.data, list(axes) + keep).reshape((count,) + out_shape)
    vals = np.add.reduce(np.sort(pooled, axis=0), axis=0) / count
    out = _op_output(vals)

    def backward(g):
        gx = np.broadcast_to(np.expand_dims(g, axes) / count, x.shape)
        return (gx.copy(),)

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Tensor, b: Tensor, independent_rows: bool = False) -> Tensor:
    """(m, k) x (k, p) product.

    With independent_rows, each output row is computed as its own (1, k)
    product, so it is bitwise the same whatever other rows share the call.
    A plain GEMM does not promise that: BLAS picks its kernel by the row
    count, and OpenBLAS rounds narrow outputs differently at m <= 3 than at
    m >= 4. The backward is the plain one.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul requires (m,k) x (k,p); got {a.shape} and {b.shape}")
    product = (a.data[:, None, :] @ b.data)[:, 0, :] if independent_rows else a.data @ b.data
    out = _op_output(product)
    return _maybe_record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


# ---------------------------------------------------------------------------
# Activations


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = _op_output(np.maximum(x.data, 0.0))
    return _maybe_record(out, (x,), lambda g: (g * (x.data > 0),))


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    # stable in both tails: z = exp(-|x|) lies in (0, 1]
    z = np.abs(x.data)
    np.exp(np.negative(z, out=z), out=z)
    d = 1.0 + z
    y = np.where(x.data >= 0, 1.0 / d, z / d)
    out = _op_output(y)
    return _maybe_record(out, (x,), lambda g: (g * y * (1.0 - y),))


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = _op_output(y)
    return _maybe_record(out, (x,), lambda g: (g * (1.0 - y * y),))


_ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "tanh": tanh}


def activation(x: Tensor, kind: str) -> Tensor:
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ValueError(f"unknown activation kind {kind!r}") from None


def softmax(x: Tensor, axis: int) -> Tensor:
    x = as_tensor(x)
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out = _op_output(y)

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return ((g - inner) * y,)

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# Depthwise 1-D convolution (same zero padding, one kernel per channel)


@functools.lru_cache
def _band_taps(length: int, k: int, dtype: np.dtype) -> np.ndarray:
    """(k, L * L) selector: taps[j, s * L + i] = 1 where output i reads input s through tap j.

    Cached and shared between calls, so it is read-only.
    """
    offsets = np.arange(length)[:, None] - np.arange(length)[None, :]
    taps = (offsets == (np.arange(k) - k // 2)[:, None, None]).astype(dtype)
    taps = taps.reshape(k, length * length)
    taps.flags.writeable = False
    return taps


@functools.lru_cache
def _conv_permutations(ndim: int, axis: int) -> tuple[tuple, tuple]:
    """Transpose permutations (C, ..., L) <- x -> back, L being the convolved axis.

    The first is np.moveaxis(x, (-1, axis), (0, -1)); the second inverts it.
    """
    to_rows = (ndim - 1, *(i for i in range(ndim - 1) if i != axis), axis)
    return to_rows, tuple(to_rows.index(i) for i in range(ndim))


def depthwise_conv1d(x: Tensor, axis: int, kernels: Tensor) -> Tensor:
    """Convolve one length-k kernel per channel along a single axis.

    The trailing axis of x is the channel axis; output channel c depends only
    on input channel c. Same zero padding, so the output shape equals the
    input shape.

    Computed as one batched matmul per channel against a dense L x L band
    (Toeplitz) matrix, L being the length of the convolved axis: the zero
    padding lives in the band, and the kernel gradient is the sum of each
    band gradient diagonal. The dense band spends L multiply-adds per output
    value instead of k. At desk shapes (L = 16 along time, 8 along nodes) that
    costs little; at full scale (N = 128 nodes, k = 7) the node-axis conv
    would execute about 18x its useful FLOPs.
    """
    x, kernels = as_tensor(x), as_tensor(kernels)
    if kernels.ndim != 2:
        raise ShapeError(f"kernels must be (channels, k); got {kernels.shape}")
    channels, k = kernels.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel length must be odd, got {k}")
    if x.shape[-1] != channels:
        raise ShapeError(f"channel mismatch: input has {x.shape[-1]} channels, kernels have {channels}")
    axis = axis % x.ndim
    if axis == x.ndim - 1:
        raise ShapeError("cannot convolve along the channel axis")

    to_rows, from_rows = _conv_permutations(x.ndim, axis)
    moved = x.data.transpose(to_rows)                         # (C, ..., L)
    length = moved.shape[-1]
    x3 = moved.reshape(channels, -1, length)                  # (C, M, L)
    taps = _band_taps(length, k, x.data.dtype)
    band = (kernels.data @ taps).reshape(channels, length, length)  # (C, L, L)
    out3 = x3 @ band
    out = _op_output(out3.reshape(moved.shape).transpose(from_rows))

    def backward(g):
        g3 = g.transpose(to_rows).reshape(x3.shape)
        gx3 = g3 @ band.transpose(0, 2, 1)
        gband = x3.transpose(0, 2, 1) @ g3
        gk = gband.reshape(channels, -1) @ taps.T             # sums each diagonal
        return (gx3.reshape(moved.shape).transpose(from_rows), gk)

    return _maybe_record(out, (x, kernels), backward)


# ---------------------------------------------------------------------------
# Max pooling (non-overlapping windows, kernel == stride)


POOL_KERNEL = 3


class PoolWindows(NamedTuple):
    """The layout of an array's non-overlapping pooling windows (see `pool_windows`)."""

    trim: tuple             # drops the tail beyond each pooled axis's last full window
    windowed: np.ndarray    # trimmed view, each pooled axis split into (windows, kernel)
    window_axes: tuple      # positions of the kernel axes in `windowed`

    def flat(self) -> np.ndarray:
        """A copy with each window flattened row-major into the last axis.

        Row-major is what sends an argmax tie to the lowest index.
        """
        m = len(self.window_axes)
        moved = np.moveaxis(self.windowed, self.window_axes, range(-m, 0))
        return moved.reshape(moved.shape[:-m] + (math.prod(moved.shape[-m:]),))

    def unflat(self, rows: np.ndarray) -> np.ndarray:
        """Inverse of `flat`: rows back in the layout of `windowed`."""
        kernel_axes = tuple(self.windowed.shape[a] for a in self.window_axes)
        moved = rows.reshape(rows.shape[:-1] + kernel_axes)
        return np.moveaxis(moved, range(-len(kernel_axes), 0), self.window_axes)


def pool_windows(x: np.ndarray, axes) -> PoolWindows:
    """The POOL_KERNEL-wide windows along each axis in axes that `max_pool` reduces."""
    axes = sorted(ax % x.ndim for ax in (axes if isinstance(axes, (tuple, list)) else (axes,)))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate pooled axes {axes}")
    trim, windowed_shape = [], []
    for i, length in enumerate(x.shape):
        if i not in axes:
            trim.append(slice(None))
            windowed_shape.append(length)
        elif length < POOL_KERNEL:
            raise ShapeError(f"axis {i} has length {length} < pooling kernel {POOL_KERNEL}")
        else:
            trim.append(slice(0, (length // POOL_KERNEL) * POOL_KERNEL))
            windowed_shape.extend([length // POOL_KERNEL, POOL_KERNEL])
    trim = tuple(trim)
    # each window axis sits right after its outer axis
    window_axes = tuple(ax + 1 + rank for rank, ax in enumerate(axes))
    return PoolWindows(trim, x[trim].reshape(windowed_shape), window_axes)


def max_pool(x: Tensor, axes) -> Tensor:
    """Non-overlapping max over POOL_KERNEL-wide windows along each axis in axes.

    Pooled axis lengths become floor(L / POOL_KERNEL); tail elements beyond the
    last full window are dropped. Gradient routes to the window argmax, ties
    broken to the lowest row-major index.
    """
    x = as_tensor(x)
    windows = pool_windows(x.data, axes)
    out = _op_output(windows.windowed.max(axis=windows.window_axes))

    def backward(g):
        rows = windows.flat()
        idx = rows.argmax(axis=-1)
        g_rows = np.zeros_like(rows)
        np.put_along_axis(g_rows, idx[..., None], g[..., None], axis=-1)
        gx = np.zeros_like(x.data)
        trimmed = gx[windows.trim]
        trimmed[...] = windows.unflat(g_rows).reshape(trimmed.shape)
        return (gx,)

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# Batch normalization


BN_EPS = 1e-5
BN_MOMENTUM = 0.9     # weight of the old running statistics in each blend


class BatchNormState:
    """Learnable scale/shift plus float64 running statistics over one channel axis."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.initialized = False

    @property
    def channels(self) -> int:
        return self.gamma.size


def batch_norm(x: Tensor, state: BatchNormState, *, mode: str) -> Tensor:
    """Normalize per channel (the last axis) over all other axes; affine gamma/beta last.

    The op works on the (rows, C) view of x and reduces along its rows.
    Train mode uses batch statistics and blends them into the running stats;
    eval mode uses running stats and errors if none were ever recorded.
    """
    x = as_tensor(x)
    channels = x.shape[-1]
    if channels != state.channels:
        raise ShapeError(f"batch_norm state has {state.channels} channels, input axis has {channels}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batch_norm mode {mode!r}")

    x2 = x.data.reshape(-1, channels)
    rows = x2.shape[0]
    gamma = state.gamma.data
    # the same IEEE operations in the same order as gamma * xhat + beta with
    # xhat = (x2 - mean) * inv, run in place on arrays the op allocated
    if mode == "train":
        mu = np.add.reduce(x2, axis=0) / rows
        xhat = x2 - mu
        var = np.add.reduce(xhat * xhat, axis=0) / rows
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv
        y = gamma * xhat
        m = BN_MOMENTUM
        state.running_mean = m * state.running_mean + (1.0 - m) * mu
        state.running_var = m * state.running_var + (1.0 - m) * var
        state.initialized = True
    else:
        if not state.initialized:
            raise RuntimeError("batch_norm eval mode before any train-mode update: running stats uninitialized")
        running_mean = state.running_mean
        inv = 1.0 / np.sqrt(state.running_var + BN_EPS)
        y = x2 - running_mean
        y *= inv
        y *= gamma
    y += state.beta.data
    out = _op_output(y.reshape(x.shape))

    def backward(g):
        g2 = g.reshape(-1, channels)
        # eval mode keeps no xhat: y holds the output, so recompute it
        xh = xhat if mode == "train" else (x2 - running_mean) * inv
        g_gamma = (g2 * xh).sum(axis=0)
        g_beta = g2.sum(axis=0)
        if mode == "train":
            g2 = g2 - g_beta / rows - xhat * (g_gamma / rows)
        return ((g2 * (gamma * inv)).reshape(x.shape), g_gamma, g_beta)

    return _maybe_record(out, (x, state.gamma, state.beta), backward)


# ---------------------------------------------------------------------------
# Losses


def loss(predictions: Tensor, targets, mode: str) -> Tensor:
    """Classification loss over a batch of probability rows.

    mode is the model's label mode (`model.LABEL_MODES`):
    "single": predictions (B,K) softmax outputs, targets int indices;
    mean over the batch of -log p[target] (cross-entropy).
    "multi": predictions (B,K) sigmoid outputs, targets (B,K) in {0,1};
    mean binary cross-entropy over all labels.
    """
    predictions = as_tensor(predictions)
    if predictions.ndim != 2:
        raise ShapeError(f"predictions must be (batch, classes); got {predictions.shape}")
    batch, num_classes = predictions.shape
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    # np.minimum(np.maximum(...)) is np.clip's arithmetic, without its wrapper

    if mode == "single":
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape != (batch,):
            raise ShapeError(f"targets shape {targets.shape} does not match batch {batch}")
        if targets.min() < 0 or targets.max() >= num_classes:
            raise IndexError(f"target index out of range [0, {num_classes})")
        p_raw = predictions.data[np.arange(batch), targets]
        p = np.minimum(np.maximum(p_raw, lo), hi)
        out = _op_output(-(np.add.reduce(np.log(p)) / batch))

        def backward(g):
            gp = np.zeros_like(predictions.data)
            active = (p_raw > lo) & (p_raw < hi)
            gp[np.arange(batch), targets] = np.where(active, -1.0 / (batch * p), 0.0) * g.reshape(())
            return (gp,)

        return _maybe_record(out, (predictions,), backward)

    if mode == "multi":
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != predictions.shape:
            raise ShapeError(f"targets shape {targets.shape} does not match predictions {predictions.shape}")
        p_raw = predictions.data
        p = np.minimum(np.maximum(p_raw, lo), hi)
        total = batch * num_classes
        bce = targets * np.log(p) + (1.0 - targets) * np.log1p(-p)
        out = _op_output(-(np.add.reduce(bce, axis=None) / total))

        def backward(g):
            active = (p_raw > lo) & (p_raw < hi)
            gp = np.where(active, (p - targets) / (p * (1.0 - p)) / total, 0.0) * g.reshape(())
            return (gp,)

        return _maybe_record(out, (predictions,), backward)

    raise ValueError(f"unknown loss mode {mode!r}")


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


def tape_gradients(f: Callable[[], Tensor], tensors: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of scalar f() with respect to each tensor, from one taped call.

    The gradients are `Tape.backward`'s return value; a tensor no gradient
    reaches gets zeros.
    """
    with Tape() as tape:
        grads = tape.backward(f())
    return [grads[t] if t in grads else np.zeros_like(t.data) for t in tensors]


FD_STEP = 1e-5


def grad_check(f: Callable[[], Tensor] | Sequence[Callable[[], Tensor]],
               tensors: Sequence[Tensor]) -> float:
    """Compare tape gradients of scalar f() against central finite differences.

    Returns the max relative error |a - n| / max(1e-8, |a| + |n|) over every
    component of every tensor in `tensors`, n being the central difference
    with step FD_STEP. Inputs should be 64-bit.

    `f` is one function for every tensor, or a sequence of one function per
    tensor: tensors[i] is then checked against f[i] alone, and the tensors
    that share a function get their tape gradients from one taped call, read
    from the dict `Tape.backward` returns.
    """
    losses = [f] * len(tensors) if callable(f) else list(f)
    analytic = {}
    for loss in dict.fromkeys(losses):
        group = [t for t, t_loss in zip(tensors, losses) if t_loss is loss]
        analytic.update(zip(group, tape_gradients(loss, group)))

    worst = 0.0
    for t, loss in zip(tensors, losses):
        a = analytic[t]
        if not t.data.flags["C_CONTIGUOUS"]:
            t.data = np.ascontiguousarray(t.data)
        flat = t.data.reshape(-1)   # view: in-place writes perturb t.data
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = loss().item()
            flat[i] = orig - FD_STEP
            fm = loss().item()
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ValueError("non-finite value encountered during finite differencing")
            n = (fp - fm) / (2.0 * FD_STEP)
            rel = abs(a_flat[i] - n) / max(1e-8, abs(a_flat[i]) + abs(n))
            worst = max(worst, rel)
    return worst
