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

An LSTM cell holds one (in+h, 4h) gate matrix and one (4h,) bias, so a
step is one `concat`, `mm` and `add_bias` followed by one fused gate
update whose h_t and c_t nodes have hand-written elementwise gradients.
`lstm_final_state` runs padded sequences to their longest length and
gathers each row's state at its own last step.

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

def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    # (n, h) + (h,) with the bias gradient summed over rows
    _need(m.data.ndim == 2 and bias.data.ndim == 1 and m.shape[1] == bias.shape[0],
          f"add_bias {m.shape} vs {bias.shape}")
    return Tensor(m.data + bias.data, (m, bias),
                  lambda g: ((m, g), (bias, g.sum(axis=0))))


def mul_const(a: Tensor, factor: np.ndarray | float) -> Tensor:
    factor = np.asarray(factor, dtype=np.float64)
    return Tensor(a.data * factor, (a,), lambda g: ((a, g * factor),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    if DEBUG:
        assert np.all(np.abs(out) <= 1.0)
    return Tensor(out, (a,), lambda g: ((a, g * (1.0 - out * out)),))


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
    """One gate matrix W, (input+hidden, 4*hidden), over the concatenated
    [input; hidden] row and one bias b, (4*hidden,). Their column blocks
    are the gates in `GATES` order. W is drawn one Glorot block per gate,
    each with the fans of an (input+hidden, hidden) matrix. The forget
    block of b starts at 1.0 so early training does not flush the cell
    state; the rest of b starts at 0."""

    GATES = ("input", "forget", "output", "candidate")

    def __init__(self, input_size: int, hidden_size: int, name: str,
                 rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.name = name
        blocks = [glorot_uniform_init((input_size + hidden_size, hidden_size), rng)
                  for _ in self.GATES]
        self.W = Parameter(np.concatenate(blocks, axis=1), f"{name}/W")
        bias = np.zeros(len(self.GATES) * hidden_size)
        bias[hidden_size: 2 * hidden_size] = 1.0  # the forget block
        self.b = Parameter(bias, f"{name}/b")

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]


def _lstm_update(gates: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """The elementwise half of a step: from the (n, 4h) gate pre-activations
    and c_prev, c_t = f * c_prev + i * g and h_t = o * tanh(c_t), with i, f, o
    sigmoids and g a tanh of their blocks. Returns the nodes h_t and c_t."""
    hs = c_prev.shape[1]
    z = gates.data
    sig = 1.0 / (1.0 + np.exp(-z[:, : 3 * hs]))
    i, f, o = sig[:, :hs], sig[:, hs: 2 * hs], sig[:, 2 * hs:]
    g = np.tanh(z[:, 3 * hs:])
    c = f * c_prev.data + i * g
    tc = np.tanh(c)

    def c_bw(dc):
        dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev.data * f * (1.0 - f),
                             np.zeros_like(dc), dc * i * (1.0 - g * g)], axis=1)
        return ((gates, dz), (c_prev, dc * f))

    c_t = Tensor(c, (gates, c_prev), c_bw)

    def h_bw(dh):
        dz = np.zeros_like(z)
        dz[:, 2 * hs: 3 * hs] = dh * tc * o * (1.0 - o)
        return ((gates, dz), (c_t, dh * o * (1.0 - tc * tc)))

    return Tensor(o * tc, (gates, c_t), h_bw), c_t


def lstm_step(cell: LstmCellParams, x_t: Tensor, h_prev: Tensor, c_prev: Tensor,
              recurrent_mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One step over a row batch: x_t (n, in), h/c (n, hidden). All four
    gates come from one [x_t; h_prev] W + b product.

    `recurrent_mask` is a dropout mask multiplied into h_prev before the
    gates; it must stay fixed across the timesteps of one sequence and is
    all-ones (None) at inference.
    """
    _need(x_t.data.ndim == 2 and x_t.shape[1] == cell.input_size,
          f"lstm x {x_t.shape}, expected (n, {cell.input_size})")
    _need(h_prev.shape == c_prev.shape == (x_t.shape[0], cell.hidden_size),
          f"lstm state {h_prev.shape}, expected ({x_t.shape[0]}, {cell.hidden_size})")
    h_in = h_prev if recurrent_mask is None else mul_const(h_prev, recurrent_mask)
    gates = add_bias(mm(concat([x_t, h_in]), cell.W), cell.b)
    return _lstm_update(gates, c_prev)


def lstm_final_state(cell: LstmCellParams, inputs: list[Tensor], lengths: list[int],
                     recurrent_mask: np.ndarray | None = None) -> Tensor:
    """Run a row batch of padded sequences through the cell and return each
    row's hidden state after its own last step: row r has lengths[r] valid
    steps, and the padded steps after them are computed but never read."""
    if not inputs:
        raise EmptySequence("lstm over an empty sequence")
    n = inputs[0].shape[0]
    lengths = np.asarray(lengths, dtype=np.intp)
    _need(lengths.shape == (n,) and np.all((lengths >= 1) & (lengths <= len(inputs))),
          f"lstm lengths {lengths} for {n} rows of {len(inputs)} steps")
    h = constant(np.zeros((n, cell.hidden_size)))
    c = constant(np.zeros((n, cell.hidden_size)))
    states = []
    for x_t in inputs:
        h, c = lstm_step(cell, x_t, h, c, recurrent_mask)
        states.append(h)
    # step t of row r is row t * n + r of the stacked states
    return embedding(concat(states, axis=0), (lengths - 1) * n + np.arange(n))


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
