"""Dense matrix kernels with a small reverse-mode tape, plus Adam.

Values are numpy arrays of rank 2 (one matrix) or rank 3 (a batch of
equally shaped matrices); nothing more general is supported. Training runs
in float32. The tests verify gradients on the same graph in float64,
where central finite differences are trustworthy.

The kernels are matmul, add, scale, transpose, relu, softmax_rows,
layer_norm_rows, embedding, rearrange, first_row, cross_entropy and
sum_all. rearrange regroups axes (reshape, transpose, reshape), so
attention can move its heads between the batch axis and the row or column
axis while every value stays rank 2 or 3.

Each kernel builds the output tensor together with a vector-Jacobian
closure; backward() walks the tape in reverse topological order. Kernels
skip the tape entirely when no input is being tracked (see no_grad).

Gradient ownership: a vjp returns, per parent, either a fresh array that
it does not keep or a view of its incoming gradient g. backward() adopts
a fresh array (one that owns its data) of the parent's shape and dtype as
the parent's grad, copies a view (g itself included), zero-fills and adds
a contribution of another shape or dtype, and adds every later
contribution in place. Each grad is thus an array no other tensor holds,
and a fresh contribution costs no extra pass over memory.

Adam (OptimizerState, optimizer_step) takes the trainable tensors as a
plain dict from name to Tensor and lays them out in the dict's order, one
after another, in flat buffers: the two moments and one scratch buffer.
A step gathers every gradient into one more flat buffer, runs each of
Adam's ufuncs once over all of them, and then subtracts from each weight
its run of the step: a dozen numpy calls, plus one per parameter. Every
element goes through the same 13 ufuncs in the same order as in an update
of its parameter alone, so the weights are bitwise equal to it.

Grad mode (no_grad) is per thread.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ShapeError, StaleGradientError, ValidationError

_FLOAT_DTYPES = (np.float32, np.float64)


class _GradMode(threading.local):
    """Whether kernels record the tape, per thread: True until a thread
    enters no_grad."""

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager that disables tape recording for cheap inference,
    on the thread that enters it."""

    def __enter__(self):
        self._saved = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._saved
        return False


class Tensor:
    """A matrix (or batch of matrices) participating in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def backward(self) -> None:
        """Populate grads of every tracked tensor this scalar depends on."""
        if self.data.ndim != 0:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if self._vjp is None and not self._parents:
            raise ValidationError("backward called on a value detached from any computation")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, contribution in zip(node._parents, node._vjp(node.grad)):
                if contribution is None:
                    continue
                if parent.grad is not None:
                    parent.grad += contribution
                elif (contribution.shape != parent.data.shape
                      or contribution.dtype != parent.data.dtype):
                    parent.grad = np.zeros_like(parent.data)
                    parent.grad += contribution
                elif contribution.base is None and contribution is not node.grad:
                    parent.grad = contribution
                else:
                    parent.grad = contribution.copy()


def _tracked(*tensors: Tensor) -> bool:
    if not _grad_mode.enabled:
        return False
    return any(t.requires_grad or t._parents or t._vjp is not None for t in tensors)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _tracked(*parents):
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting (residuals, biases, positions)."""
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), vjp)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (attention temperature)."""
    data = a.data * a.data.dtype.type(factor)

    def vjp(g):
        return (g * a.data.dtype.type(factor),)

    return _make(data, (a,), vjp)


def _rows(x: np.ndarray) -> np.ndarray:
    """Fold any batch axis into the rows: (B, T, k) -> (B*T, k)."""
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched when either operand carries a batch axis."""
    if a.data.ndim not in (2, 3) or b.data.ndim not in (2, 3):
        raise ShapeError(f"matmul expects rank 2 or 3, got {a.data.shape} and {b.data.shape}")
    if a.data.ndim == 2 and b.data.ndim == 3:
        raise ShapeError(f"matmul does not broadcast a plain matrix over a batch: "
                         f"{a.data.shape} by {b.data.shape}")
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.data.shape} by {b.data.shape}")
    if a.data.ndim == 3 and b.data.ndim == 3 and a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"batch sizes differ: {a.data.shape} by {b.data.shape}")
    if b.data.ndim == 2:
        # a shared weight: fold any batch axis into the rows, so numpy runs
        # one GEMM instead of one small GEMM per batch item
        data = (_rows(a.data) @ b.data).reshape(*a.data.shape[:-1], b.cols)
    else:
        data = a.data @ b.data

    def vjp(g):
        if b.data.ndim == 2:
            rows = _rows(g)
            # written into an array of a's shape, so backward can adopt it
            grad_a = np.empty(a.data.shape, np.result_type(g.dtype, b.data.dtype))
            np.matmul(rows, b.data.T, out=_rows(grad_a))
            grad_b = _rows(a.data).T @ rows
        else:
            grad_a = g @ b.data.swapaxes(-1, -2)
            grad_b = a.data.swapaxes(-1, -2) @ g
        return grad_a, grad_b

    return _make(data, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the two matrix axes, preserving any batch axis."""
    data = a.data.swapaxes(-1, -2)

    def vjp(g):
        return (g.swapaxes(-1, -2),)

    return _make(data, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    data = np.where(mask, a.data, a.data.dtype.type(0))

    def vjp(g):
        return (g * mask,)

    return _make(data, (a,), vjp)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax along the last axis, computed with max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _make(s, (a,), vjp)


def layer_norm_rows(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize each row to mean 0 / variance 1, then scale and shift.

    eps sits inside the square root, which clamps zero-variance rows to
    zero instead of dividing by zero.
    """
    if gain.cols != a.cols or bias.cols != a.cols:
        raise ShapeError(f"gain/bias width {gain.data.shape}/{bias.data.shape} "
                         f"does not match input width {a.cols}")
    mean = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mean
    var = np.square(centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + a.data.dtype.type(eps))
    xhat = centered * inv_std
    data = xhat * gain.data + bias.data

    def vjp(g):
        grad_gain = _unbroadcast(g * xhat, gain.data.shape)
        grad_bias = _unbroadcast(g, bias.data.shape)
        gx = g * gain.data
        # standard layer-norm backward: remove the mean and the xhat component
        grad_a = inv_std * (gx - gx.mean(axis=-1, keepdims=True)
                            - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return grad_a, grad_gain, grad_bias

    return _make(data, (a, gain, bias), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding table; backward scatter-adds."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.rows):
        raise IndexError(f"id out of range for a table of {table.rows} rows")
    data = table.data[ids]

    def vjp(g):
        grad_table = np.zeros_like(table.data)
        d = table.cols
        # scatter element by element on the flat table: numpy's fast 1-D
        # path, with each element's additions in the same row order
        flat = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        np.add.at(grad_table.reshape(-1), flat, g.reshape(-1))
        return (grad_table,)

    return _make(data, (table,), vjp)


def rearrange(a: Tensor, split: tuple[int, ...], axes: tuple[int, ...],
              shape: tuple[int, ...]) -> Tensor:
    """Regroup the elements of a: reshape to split, transpose by axes, then
    reshape to shape, e.g. (B, T, H*w) -> (H, B*T, w) moves the heads into
    the batch axis. split may have any rank; a and the result are rank 2
    or 3. Backward applies the inverse regrouping to the gradient.
    """
    if a.data.ndim not in (2, 3) or len(shape) not in (2, 3):
        raise ShapeError(f"rearrange maps rank 2 or 3 to rank 2 or 3, "
                         f"got {a.data.shape} to {tuple(shape)}")
    moved = tuple(split[i] for i in axes)
    data = a.data.reshape(split).transpose(axes).reshape(shape)
    inverse = np.argsort(axes)

    def vjp(g):
        return (g.reshape(moved).transpose(inverse).reshape(a.data.shape),)

    return _make(data, (a,), vjp)


def first_row(a: Tensor, keep_rows: bool = False) -> Tensor:
    """Row 0 of each matrix in a batch: (B, T, d) -> (B, d).

    With keep_rows the row axis stays, (B, T, d) -> (B, 1, d), so the CLS
    row can go on through the batched kernels as a one-row matrix.
    """
    if a.data.ndim != 3:
        raise ShapeError(f"first_row expects a rank-3 batch, got {a.data.shape}")
    index = (slice(None), slice(0, 1) if keep_rows else 0, slice(None))
    data = a.data[index]

    def vjp(g):
        grad = np.zeros_like(a.data)
        grad[index] = g
        return (grad,)

    return _make(data, (a,), vjp)


def cross_entropy(logits: Tensor, target_ids) -> Tensor:
    """Mean negative log-likelihood of the targets, computed in log space.

    Takes (N, V) logits and N target ids; the result is a scalar tensor.
    """
    raw = logits.data
    if raw.ndim != 2:
        raise ShapeError(f"cross_entropy expects rank 2 logits, got {raw.shape}")
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.shape != raw.shape[:1]:
        raise ShapeError(f"targets of shape {targets.shape} for {raw.shape[0]} logit rows")
    if targets.size and (targets.min() < 0 or targets.max() >= raw.shape[1]):
        raise IndexError(f"target id out of range for {raw.shape[1]} classes")
    m = raw.max(axis=-1, keepdims=True)
    shifted = raw - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - lse
    n = raw.shape[0]
    data = np.asarray(-log_probs[np.arange(n), targets].mean(), dtype=raw.dtype)

    def vjp(g):
        soft = np.exp(log_probs)
        soft[np.arange(n), targets] -= 1.0
        return (soft * (g / n),)

    return _make(data, (logits,), vjp)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def vjp(g):
        return (np.full_like(a.data, g),)

    return _make(data, (a,), vjp)


class OptimizerState:
    """Adam moment accumulators plus the step counter and hyperparameters.

    m, v, the gathered gradients and one scratch buffer are flat arrays of
    the parameters' one dtype, each parameter's elements in one run, in the
    dict's order.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3):
        dtypes = {t.data.dtype for t in params.values()}
        if len(dtypes) != 1:
            raise ValidationError(f"Adam needs parameters of one dtype, got "
                                  f"{sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        size = sum(t.data.size for t in params.values())
        self.learning_rate = learning_rate
        self.step = 0
        self.m, self.v, self.grads, self.scratch = (np.zeros(size, dtype) for _ in range(4))
        # each parameter's run of the scratch buffer, in its shape: the step
        # the parameter subtracts
        ends = np.cumsum([t.data.size for t in params.values()], dtype=np.int64)
        self.steps = {name: self.scratch[end - t.data.size:end].reshape(t.data.shape)
                      for (name, t), end in zip(params.items(), ends)}


def optimizer_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One Adam update with bias correction; consumes the gradients.

    Gradients are reset to None afterwards, whether the step ran or raised,
    so a second step without an intervening backward() raises
    StaleGradientError instead of silently reapplying old gradients. A
    missing gradient, or one of another shape than its parameter, raises
    before any weight or moment moves.
    """
    try:
        for name, t in params.items():
            if t.grad is None:
                raise StaleGradientError(f"no gradient for {name!r}; run backward() first")
            if t.grad.shape != t.data.shape:
                raise ShapeError(f"gradient of shape {t.grad.shape} for {name!r} "
                                 f"of shape {t.data.shape}")
        g = np.concatenate([t.grad for t in params.values()], axis=None, out=state.grads)
    finally:
        for t in params.values():
            t.grad = None
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    m, v, s = state.m, state.v, state.scratch
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
    np.multiply(g, 1.0 - state.beta1, out=s)
    m *= state.beta1
    m += s
    np.square(g, out=g)
    g *= 1.0 - state.beta2
    v *= state.beta2
    v += g
    # w -= (lr / bc1) m / (sqrt(v / bc2) + eps), g holding the denominator
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    np.multiply(m, state.learning_rate / bc1, out=s)
    s /= g
    for name, t in params.items():
        t.data -= state.steps[name]
