"""Dense 64-bit tensor math with reverse-mode gradients.

Forward ops build an implicit graph of `Tensor` nodes; `backward` walks it
once in reverse topological order. Gradients of a single backward call are
accumulated locally and then added into each `Parameter.grad`, so calling
backward twice on the same graph doubles parameter gradients exactly;
`zero_grads` resets them.

Activations have one layout, the 2-D row batch: an (n, d) tensor holds n
rows, and a single vector is a (1, d) row. `concat` joins row batches side
by side or stacks them, `transpose` turns rows into the columns of a right
operand of `mm`, and `cross_entropy` scores a whole batch of distribution
rows. Losses are 0-d; parameters keep their own shapes, such as the (h,)
biases `add_bias` broadcasts over rows.

Everything computes and accumulates in float64. Set `DEBUG = True` to make
every op assert its output is finite.
"""

from __future__ import annotations

import numpy as np

from .errors import Path2SeqError

DEBUG = False


class ShapeMismatch(Path2SeqError):
    kind = "shape-mismatch"


class EmptySequence(Path2SeqError):
    kind = "empty-sequence"


class InvalidIndex(Path2SeqError):
    kind = "invalid-index"


class NumericDivergence(Path2SeqError):
    kind = "numeric-divergence"


def _check(data: np.ndarray):
    if DEBUG and not np.all(np.isfinite(data)):
        raise NumericDivergence("non-finite value in tensor")


class Tensor:
    """A node in the computation graph. `data` is a row-major float64 array;
    `_bw(g)` yields (parent, gradient contribution) pairs."""

    __slots__ = ("data", "_parents", "_bw")

    def __init__(self, data, parents=(), bw=None):
        # asarray keeps 0-d losses 0-d; ascontiguousarray would promote them
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self._parents = parents
        self._bw = bw
        _check(self.data)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """A learned leaf tensor with persistent gradient and momentum buffers,
    all sharing one shape."""

    __slots__ = ("name", "grad", "momentum")

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)
        self.momentum = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def constant(data) -> Tensor:
    return Tensor(data)


def _need(cond: bool, msg: str):
    if not cond:
        raise ShapeMismatch(msg)


# --- elementwise and linear ops ---

def add(a: Tensor, b: Tensor) -> Tensor:
    _need(a.shape == b.shape, f"add {a.shape} vs {b.shape}")
    return Tensor(a.data + b.data, (a, b), lambda g: ((a, g), (b, g)))


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    # (n, h) + (h,) with the bias gradient summed over rows
    _need(m.data.ndim == 2 and bias.data.ndim == 1 and m.shape[1] == bias.shape[0],
          f"add_bias {m.shape} vs {bias.shape}")
    return Tensor(m.data + bias.data, (m, bias),
                  lambda g: ((m, g), (bias, g.sum(axis=0))))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need(a.shape == b.shape, f"mul {a.shape} vs {b.shape}")
    return Tensor(a.data * b.data, (a, b),
                  lambda g: ((a, g * b.data), (b, g * a.data)))


def mul_const(a: Tensor, factor: np.ndarray | float) -> Tensor:
    factor = np.asarray(factor, dtype=np.float64)
    return Tensor(a.data * factor, (a,), lambda g: ((a, g * factor),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    if DEBUG:
        assert np.all(np.abs(out) <= 1.0)
    return Tensor(out, (a,), lambda g: ((a, g * (1.0 - out * out)),))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(out, (a,), lambda g: ((a, g * out * (1.0 - out)),))


def mm(a: Tensor, b: Tensor) -> Tensor:
    _need(a.data.ndim == 2 and b.data.ndim == 2 and a.shape[1] == b.shape[0],
          f"mm {a.shape} @ {b.shape}")

    def bw(g):
        # with an inner dimension of 1 a gradient is an outer product, which
        # matmul runs in a non-BLAS loop half as fast as broadcasting
        grad_a = g * b.data.T if b.shape[1] == 1 else g @ b.data.T
        grad_b = a.data.T * g if a.shape[0] == 1 else a.data.T @ g
        return ((a, grad_a), (b, grad_b))

    return Tensor(a.data @ b.data, (a, b), bw)


def transpose(x: Tensor) -> Tensor:
    # a view for a (1, d) row or a (d, 1) column; a wider matrix is copied
    _need(x.data.ndim == 2, f"transpose on {x.shape}")
    return Tensor(x.data.T, (x,), lambda g: ((x, g.T),))


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    # axis 1 puts row batches side by side: (n, d1), (n, d2) -> (n, d1 + d2);
    # axis 0 stacks them: (n1, d), (n2, d) -> (n1 + n2, d)
    _need(len(parts) > 0, "concat of nothing")
    bounds = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def bw(g):
        return tuple(zip(parts, np.split(g, bounds, axis=axis)))

    return Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def mean_rows(m: Tensor) -> Tensor:
    _need(m.data.ndim == 2, f"mean_rows on {m.shape}")
    n = m.shape[0]
    return Tensor(m.data.mean(axis=0, keepdims=True), (m,),
                  lambda g: ((m, np.broadcast_to(g / n, m.shape).copy()),))


def lerp_mask(mask: np.ndarray, when_on: Tensor, when_off: Tensor) -> Tensor:
    # out = mask*on + (1-mask)*off with a constant 0/1 mask
    _need(when_on.shape == when_off.shape, f"lerp {when_on.shape} vs {when_off.shape}")
    mask = np.asarray(mask, dtype=np.float64)
    return Tensor(mask * when_on.data + (1.0 - mask) * when_off.data,
                  (when_on, when_off),
                  lambda g: ((when_on, g * mask), (when_off, g * (1.0 - mask))))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.intp)

    def bw(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids, g)
        return ((table, acc),)

    return Tensor(table.data[ids], (table,), bw)


def embedding_bag_sum(table: Tensor, flat_ids: np.ndarray, row_starts: np.ndarray) -> Tensor:
    """Sum of embedding rows per segment: segment r covers
    flat_ids[row_starts[r]:row_starts[r+1]] and every segment is non-empty."""
    flat_ids = np.asarray(flat_ids, dtype=np.intp)
    row_starts = np.asarray(row_starts, dtype=np.intp)
    n_rows = len(row_starts) - 1
    counts = np.diff(row_starts)
    _need(np.all(counts > 0), "empty embedding bag segment")
    rows = table.data[flat_ids]
    out = np.add.reduceat(rows, row_starts[:-1], axis=0)
    scatter = np.repeat(np.arange(n_rows), counts)

    def bw(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, flat_ids, g[scatter])
        return ((table, acc),)

    return Tensor(out, (table,), bw)


# --- probability ops ---

def softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-array softmax with max subtraction; sums to 1 along `axis`."""
    values = np.asarray(values, dtype=np.float64)
    shifted = values - values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_rows(scores: Tensor) -> Tensor:
    """Softmax along each row of an (n, k) tensor."""
    _need(scores.data.ndim == 2, f"softmax_rows on {scores.shape}")
    out = softmax(scores.data)
    if DEBUG:
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)

    def bw(g):
        # per-row <g, out> as one BLAS dot per row; a (g * out).sum rounds
        # differently and would change trained weights in the last bits
        dots = np.matmul(g[:, None, :], out[:, :, None])[:, :, 0]
        return ((scores, out * (g - dots)),)

    return Tensor(out, (scores,), bw)


def cross_entropy(dist: Tensor, true_ids) -> Tensor:
    """Mean over the rows of an (n, V) distribution batch of -ln p[r, true_ids[r]]."""
    true_ids = np.asarray(true_ids, dtype=np.intp)
    _need(dist.data.ndim == 2 and true_ids.shape == (dist.shape[0],),
          f"cross_entropy on {dist.shape} with {true_ids.shape} ids")
    bad = (true_ids < 0) | (true_ids >= dist.shape[1])
    if np.any(bad):
        raise InvalidIndex(f"class index {true_ids[bad][0]} outside [0, {dist.shape[1]})")
    n = len(true_ids)
    rows = np.arange(n)
    p = dist.data[rows, true_ids]

    def bw(g):
        acc = np.zeros_like(dist.data)
        acc[rows, true_ids] = -(g / n) / p
        return ((dist, acc),)

    return Tensor(-np.log(p).mean(), (dist,), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: zero with probability `rate` and scale survivors by
    1/(1-rate) while training; identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return mul_const(x, keep)


# --- backward pass ---

def backward(loss: Tensor, seed: float = 1.0):
    """Accumulate d(loss)/d(parameter) into every reachable Parameter.grad.

    `loss` must be scalar. Per-call gradients are kept in a local table, so
    repeated calls without `zero_grads` add up (two calls double exactly).
    """
    _need(loss.data.ndim == 0 or loss.data.size == 1, "backward needs a scalar loss")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        tensor, expanded = stack.pop()
        if expanded:
            order.append(tensor)
            continue
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        stack.append((tensor, True))
        for parent in tensor._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    local: dict[int, np.ndarray] = {id(loss): np.asarray(seed, dtype=np.float64)}
    for tensor in reversed(order):
        g = local.pop(id(tensor), None)
        if g is None:
            continue
        _check(g)
        if isinstance(tensor, Parameter):
            tensor.grad += g
            continue
        if tensor._bw is None:
            continue
        for parent, contribution in tensor._bw(g):
            slot = local.get(id(parent))
            if slot is None:
                local[id(parent)] = np.array(contribution, dtype=np.float64, copy=True)
            else:
                slot += contribution


def zero_grads(params):
    for p in params:
        p.grad[...] = 0.0


# --- initialization ---

def glorot_uniform_init(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform on [-L, L] with L = sqrt(6 / (fan_in + fan_out)); fans are the
    first and last dims for matrices and both equal the size for vectors."""
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ValueError("need at least one dimension")
    fan_sum = 2 * shape[0] if len(shape) == 1 else shape[0] + shape[-1]
    limit = np.sqrt(6.0 / fan_sum)
    return rng.uniform(-limit, limit, size=shape)


# --- LSTM cells ---

class LstmCellParams:
    """Gate weights over the concatenated [input; hidden] vector: one
    (input+hidden, hidden) matrix and one bias per gate. The forget bias
    starts at 1.0 so early training does not flush the cell state."""

    GATES = ("input", "forget", "output", "candidate")

    def __init__(self, input_size: int, hidden_size: int, name: str,
                 rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.name = name
        self.weights = {}
        self.biases = {}
        for gate in self.GATES:
            w = glorot_uniform_init((input_size + hidden_size, hidden_size), rng)
            self.weights[gate] = Parameter(w, f"{name}/W_{gate}")
            bias = np.ones(hidden_size) if gate == "forget" else np.zeros(hidden_size)
            self.biases[gate] = Parameter(bias, f"{name}/b_{gate}")

    def parameters(self) -> list[Parameter]:
        return [self.weights[g] for g in self.GATES] + [self.biases[g] for g in self.GATES]


def lstm_step(cell: LstmCellParams, x_t: Tensor, h_prev: Tensor, c_prev: Tensor,
              recurrent_mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One step over a row batch: x_t (n, in), h/c (n, hidden).

    `recurrent_mask` is a dropout mask multiplied into h_prev before the
    gates; it must stay fixed across the timesteps of one sequence and is
    all-ones (None) at inference.
    """
    _need(x_t.data.ndim == 2 and x_t.shape[1] == cell.input_size,
          f"lstm x {x_t.shape}, expected (n, {cell.input_size})")
    _need(h_prev.shape == c_prev.shape == (x_t.shape[0], cell.hidden_size),
          f"lstm state {h_prev.shape}, expected ({x_t.shape[0]}, {cell.hidden_size})")
    h_in = h_prev if recurrent_mask is None else mul_const(h_prev, recurrent_mask)
    joint = concat([x_t, h_in])
    gate_i = sigmoid(add_bias(mm(joint, cell.weights["input"]), cell.biases["input"]))
    gate_f = sigmoid(add_bias(mm(joint, cell.weights["forget"]), cell.biases["forget"]))
    gate_o = sigmoid(add_bias(mm(joint, cell.weights["output"]), cell.biases["output"]))
    cand = tanh(add_bias(mm(joint, cell.weights["candidate"]), cell.biases["candidate"]))
    c_t = add(mul(gate_f, c_prev), mul(gate_i, cand))
    h_t = mul(gate_o, tanh(c_t))
    return h_t, c_t


def lstm_final_state(cell: LstmCellParams, inputs: list[Tensor],
                     step_masks: list[np.ndarray] | None = None,
                     recurrent_mask: np.ndarray | None = None) -> Tensor:
    """Run a row batch through the cell and return the last valid hidden
    state per row. `step_masks[t]` is an (n, 1) 0/1 array: rows whose
    sequence already ended carry their previous state forward."""
    if not inputs:
        raise EmptySequence("lstm over an empty sequence")
    n = inputs[0].shape[0]
    h = constant(np.zeros((n, cell.hidden_size)))
    c = constant(np.zeros((n, cell.hidden_size)))
    for t, x_t in enumerate(inputs):
        h_new, c_new = lstm_step(cell, x_t, h, c, recurrent_mask)
        if step_masks is not None:
            h = lerp_mask(step_masks[t], h_new, h)
            c = lerp_mask(step_masks[t], c_new, c)
        else:
            h, c = h_new, c_new
    return h


# --- optimizer ---

def nesterov_update(param: Parameter, lr: float, mu: float = 0.95):
    """Momentum step in the look-ahead form

        buf <- mu * buf - lr * grad
        theta <- theta + mu * buf - lr * grad

    where the second line already uses the updated buffer. mu = 0 reduces to
    plain SGD.
    """
    buf = param.momentum
    buf *= mu
    buf -= lr * param.grad
    param.data += mu * buf - lr * param.grad
    _check(param.data)
