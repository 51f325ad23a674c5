import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import add, gate_block, mul
from path2seq import numerics as nx


def finite_diff(fn, arrays_, eps=1e-5):
    """Central finite differences of a scalar function of numpy arrays."""
    grads = []
    for arr in arrays_:
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = fn()
            arr[idx] = orig - eps
            lo = fn()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestGlorotInit:
    def test_square_limit_is_one(self):
        rng = np.random.default_rng(0)
        w = nx.glorot_uniform_init((3, 3), rng)
        assert np.all(np.abs(w) <= 1.0)

    def test_rect_limit(self):
        rng = np.random.default_rng(0)
        w = nx.glorot_uniform_init((2, 4), rng)  # fan sum 6 -> limit 1
        assert np.all(np.abs(w) <= 1.0)

    def test_empirical_mean_near_zero(self):
        rng = np.random.default_rng(1)
        w = nx.glorot_uniform_init((1000, 1000), rng)  # 1e6 samples, limit ~0.055
        limit = np.sqrt(6 / 2000)
        assert abs(w.mean()) < 0.01 * limit

    def test_vector_fans(self):
        rng = np.random.default_rng(2)
        v = nx.glorot_uniform_init((8,), rng)
        assert np.all(np.abs(v) <= np.sqrt(6 / 16))


class TestElementOps:
    def test_tanh_zero(self):
        out = nx.tanh(nx.constant(np.zeros((3, 2))))
        assert np.all(out.data == 0)

    def test_identity_matmul(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        out = nx.mm(nx.constant(np.eye(3)), nx.constant(x))
        assert np.array_equal(out.data, x)

    def test_matmul_matches_naive_loops(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        naive = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    naive[i, j] += a[i, k] * b[k, j]
        got = nx.mm(nx.constant(a), nx.constant(b)).data
        assert np.max(np.abs(got - naive)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(nx.ShapeMismatch):
            nx.mm(nx.constant(np.ones((2, 3))), nx.constant(np.ones((2, 3))))
        with pytest.raises(nx.ShapeMismatch):
            nx.add_bias(nx.constant(np.ones((1, 2))), nx.constant(np.ones(3)))

    def test_transpose_row_and_column(self):
        rng = np.random.default_rng(6)
        row = nx.constant(rng.standard_normal((1, 4)))
        col = nx.transpose(row)
        assert col.shape == (4, 1) and np.shares_memory(col.data, row.data)
        assert nx.transpose(col).shape == (1, 4)
        m = nx.Parameter(rng.standard_normal((2, 3)), "m")
        mt = nx.transpose(m)
        assert mt.shape == (3, 2) and np.array_equal(mt.data, m.data.T)
        assert mt.data.flags["C_CONTIGUOUS"]
        weights = rng.standard_normal((3, 2))
        loss = nx.Tensor(np.sum(mt.data * weights), (mt,), lambda g: ((mt, g * weights),))
        nx.backward(loss)
        assert np.array_equal(m.grad, weights.T)
        with pytest.raises(nx.ShapeMismatch):
            nx.transpose(nx.constant(np.ones(3)))

    def test_concat_stacks_rows(self):
        rng = np.random.default_rng(8)
        a = nx.Parameter(rng.standard_normal((1, 3)), "a")
        b = nx.Parameter(rng.standard_normal((2, 3)), "b")
        both = nx.concat([a, b], axis=0)
        assert np.array_equal(both.data, np.vstack([a.data, b.data]))
        weights = rng.standard_normal((3, 3))
        loss = nx.Tensor(np.sum(both.data * weights), (both,),
                         lambda g: ((both, g * weights),))
        nx.backward(loss)
        assert np.array_equal(a.grad, weights[:1]) and np.array_equal(b.grad, weights[1:])

    def test_elementwise_grads(self):
        rng = np.random.default_rng(9)
        a = nx.Parameter(rng.standard_normal((4, 3)), "a")
        b = nx.Parameter(rng.standard_normal((4, 3)), "b")
        w = nx.Parameter(rng.standard_normal((3, 2)), "w")
        bias = nx.Parameter(rng.standard_normal(2), "bias")

        def forward():
            h = mul(nx.tanh(a), nx.mul_const(nx.tanh(b), 0.5))
            out = nx.add_bias(nx.mm(h, w), bias)
            return nx.Tensor(np.array((out.data ** 2).sum()))

        def graph():
            h = mul(nx.tanh(a), nx.mul_const(nx.tanh(b), 0.5))
            out = nx.add_bias(nx.mm(h, w), bias)
            sq = mul(out, out)
            return nx.Tensor(sq.data.sum(), (sq,),
                             lambda g: ((sq, np.full(sq.data.shape, g)),))
        loss = graph()
        nx.backward(loss)
        numeric = finite_diff(lambda: float(forward().data),
                              [a.data, b.data, w.data, bias.data])
        assert max_rel_error([a.grad, b.grad, w.grad, bias.grad], numeric) < 1e-6


class TestSoftmax:
    def test_symmetric_pair(self):
        assert np.allclose(nx.softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_closed_form_value(self):
        # e/(e+1) and 1/(e+1) evaluated independently
        got = nx.softmax(np.array([1.0, 0.0]))
        assert abs(got[0] - 0.7311) < 1e-4
        assert abs(got[1] - 0.2689) < 1e-4

    def test_shift_invariance(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(nx.softmax(v), nx.softmax(v + 1000.0))

    def test_axis(self):
        m = np.arange(6, dtype=float).reshape(2, 3)
        out = nx.softmax(m, axis=1)
        assert np.allclose(out.sum(axis=1), 1.0)

    @given(arrays(np.float64, st.integers(1, 8),
                  elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=200)
    def test_sums_to_one(self, v):
        out = nx.softmax(v)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)

    def test_softmax_rows_grad(self):
        rng = np.random.default_rng(3)
        s = nx.Parameter(rng.standard_normal((2, 5)), "s")
        weights = rng.standard_normal((2, 5))

        def value():
            return float(np.sum(nx.softmax(s.data, axis=1) * weights))

        out = nx.softmax_rows(s)
        assert np.allclose(out.data.sum(axis=1), 1.0)
        loss = nx.Tensor(np.sum(out.data * weights), (out,),
                         lambda g: ((out, g * weights),))
        nx.backward(loss)
        numeric = finite_diff(value, [s.data])
        assert max_rel_error([s.grad], numeric) < 1e-6


class TestLstm:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(0)
        cell = nx.LstmCellParams(3, 4, "z", rng)
        cell.W.data[...] = 0.0
        cell.b.data[...] = 0.0
        h, c = nx.lstm_step(cell, nx.constant(np.ones((2, 3))),
                            nx.constant(np.zeros((2, 4))), nx.constant(np.zeros((2, 4))))
        assert np.all(h.data == 0) and np.all(c.data == 0)

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        cell = nx.LstmCellParams(3, 4, "s", rng)
        h, c = nx.lstm_step(cell, nx.constant(rng.standard_normal((5, 3))),
                            nx.constant(np.zeros((5, 4))), nx.constant(np.zeros((5, 4))))
        assert h.data.shape == c.data.shape == (5, 4)

    def test_forget_bias_initialized_to_one(self):
        cell = nx.LstmCellParams(3, 4, "f", np.random.default_rng(2))
        assert np.all(gate_block(cell, "forget", cell.b.data) == 1.0)
        assert np.all(gate_block(cell, "input", cell.b.data) == 0.0)

    def test_two_step_unroll_gradient(self):
        rng = np.random.default_rng(7)
        cell = nx.LstmCellParams(3, 4, "g", rng)
        xs = [rng.standard_normal((1, 3)) for _ in range(2)]
        mix = rng.standard_normal(4)

        def run():
            h = nx.constant(np.zeros((1, 4)))
            c = nx.constant(np.zeros((1, 4)))
            for x in xs:
                h, c = nx.lstm_step(cell, nx.constant(x), h, c)
            return h

        def value():
            return float(run().data[0] @ mix)

        h = run()
        loss = nx.Tensor(h.data[0] @ mix, (h,), lambda g: ((h, (g * mix)[None, :]),))
        nx.backward(loss)
        tensors = [p.data for p in cell.parameters()]
        numeric = finite_diff(value, tensors, eps=1e-5)
        analytic = [p.grad for p in cell.parameters()]
        assert max_rel_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "recurrent_mask"])
    def test_fused_step_matches_per_gate_formula(self, masked):
        """h and c of one fused step equal the textbook per-gate formula
        over the column blocks of W and b to 1e-12, and the gradients of
        both outputs match finite differences."""
        rng = np.random.default_rng(12)
        cell = nx.LstmCellParams(3, 4, "u", rng)
        cell.b.data[...] = rng.standard_normal(16)
        x = nx.Parameter(rng.standard_normal((5, 3)), "x")
        h_prev = nx.Parameter(rng.standard_normal((5, 4)), "h")
        c_prev = nx.Parameter(rng.standard_normal((5, 4)), "c")
        mask = (rng.random((5, 4)) >= 0.5) / 0.5 if masked else None

        def by_gate():
            h_in = h_prev.data if mask is None else h_prev.data * mask
            joint = np.concatenate([x.data, h_in], axis=1)
            pre = {gate: joint @ gate_block(cell, gate, cell.W.data)
                   + gate_block(cell, gate, cell.b.data) for gate in cell.GATES}
            i, f, o = (1 / (1 + np.exp(-pre[g])) for g in ("input", "forget", "output"))
            c = f * c_prev.data + i * np.tanh(pre["candidate"])
            return o * np.tanh(c), c

        h, c = nx.lstm_step(cell, x, h_prev, c_prev, mask)
        want_h, want_c = by_gate()
        assert np.max(np.abs(h.data - want_h)) < 1e-12
        assert np.max(np.abs(c.data - want_c)) < 1e-12

        mix_h, mix_c = rng.standard_normal((2, 5, 4))
        loss = nx.Tensor(np.sum(h.data * mix_h) + np.sum(c.data * mix_c), (h, c),
                         lambda g: ((h, g * mix_h), (c, g * mix_c)))
        nx.backward(loss)

        def value():
            h_val, c_val = by_gate()
            return float(np.sum(h_val * mix_h) + np.sum(c_val * mix_c))

        leaves = [cell.W, cell.b, x, h_prev, c_prev]
        numeric = finite_diff(value, [p.data for p in leaves])
        assert max_rel_error([p.grad for p in leaves], numeric) < 1e-6

    def test_recurrent_mask_applies_to_previous_state(self):
        rng = np.random.default_rng(4)
        cell = nx.LstmCellParams(2, 3, "m", rng)
        h_prev = nx.constant(rng.standard_normal((1, 3)))
        c_prev = nx.constant(rng.standard_normal((1, 3)))
        x = nx.constant(rng.standard_normal((1, 2)))
        zero_mask = np.zeros((1, 3))
        h_masked, _ = nx.lstm_step(cell, x, h_prev, c_prev, zero_mask)
        h_zeroed, _ = nx.lstm_step(cell, x, nx.constant(np.zeros((1, 3))), c_prev)
        assert np.array_equal(h_masked.data, h_zeroed.data)


class TestBilstm:
    """The path encoder's two directions: `lstm_final_state` over a ragged
    row batch with per-row lengths, and over the same rows reversed."""

    def cell_pair(self, seed=0, shared=False):
        rng = np.random.default_rng(seed)
        fwd = nx.LstmCellParams(3, 4, "fwd", rng)
        if shared:
            return fwd, fwd
        return fwd, nx.LstmCellParams(3, 4, "bwd", rng)

    def final_states(self, cell, rows):
        """Last valid state per row, with rows zero-padded to one width."""
        width = max(len(r) for r in rows)
        inputs = [nx.constant(np.stack([r[t] if t < len(r) else np.zeros(3) for r in rows]))
                  for t in range(width)]
        return nx.lstm_final_state(cell, inputs, [len(r) for r in rows]).data

    def bidirectional(self, fwd, bwd, rows):
        return np.concatenate([self.final_states(fwd, rows),
                               self.final_states(bwd, [r[::-1] for r in rows])], axis=1)

    def test_length_one_sequence(self):
        fwd, bwd = self.cell_pair(shared=True)
        out = self.bidirectional(fwd, bwd, [np.random.default_rng(1).standard_normal((1, 3))])
        assert out.shape == (1, 8)
        # both directions see the same single input with the same weights
        assert np.array_equal(out[0, :4], out[0, 4:])

    def test_reversal_swaps_halves(self):
        fwd, bwd = self.cell_pair(shared=True)
        seq = np.random.default_rng(2).standard_normal((5, 3))
        fwd_out = self.bidirectional(fwd, bwd, [seq])[0]
        rev_out = self.bidirectional(fwd, bwd, [seq[::-1]])[0]
        assert np.array_equal(fwd_out[:4], rev_out[4:])
        assert np.array_equal(fwd_out[4:], rev_out[:4])

    def test_output_length(self):
        fwd, bwd = self.cell_pair()
        rows = [np.ones((n, 3)) for n in (3, 1, 2)]
        assert self.bidirectional(fwd, bwd, rows).shape == (3, 8)

    def test_ragged_rows_match_solo_runs(self):
        fwd, bwd = self.cell_pair(seed=3)
        rng = np.random.default_rng(4)
        rows = [rng.standard_normal((n, 3)) for n in (1, 4, 2, 5, 3)]
        batched = self.bidirectional(fwd, bwd, rows)
        for r, row in enumerate(rows):
            solo = self.bidirectional(fwd, bwd, [row])[0]
            assert np.allclose(batched[r], solo, rtol=0, atol=1e-12)

    def test_empty_sequence(self):
        fwd, _ = self.cell_pair()
        with pytest.raises(nx.EmptySequence):
            nx.lstm_final_state(fwd, [], [])

    def test_lengths_must_fit_the_steps(self):
        fwd, _ = self.cell_pair()
        inputs = [nx.constant(np.ones((2, 3)))] * 2
        for lengths in ([0, 1], [1, 3], [1]):
            with pytest.raises(nx.ShapeMismatch):
                nx.lstm_final_state(fwd, inputs, lengths)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = nx.constant(np.ones((4, 4)))
        assert nx.dropout(x, 0.0, np.random.default_rng(0), True) is x

    def test_inference_identity(self):
        x = nx.constant(np.ones((4, 4)))
        assert nx.dropout(x, 0.9, np.random.default_rng(0), False) is x

    def test_survivor_fraction(self):
        x = nx.constant(np.ones(1_000_000))
        out = nx.dropout(x, 0.25, np.random.default_rng(11), True)
        survivors = np.count_nonzero(out.data) / 1e6
        assert abs(survivors - 0.75) < 0.002
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 1 / 0.75)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            nx.dropout(nx.constant(np.ones(3)), 1.0, np.random.default_rng(0), True)


class TestCrossEntropy:
    def test_uniform_is_log_v(self):
        for v in (2, 7, 13):
            dist = nx.constant(np.full((1, v), 1.0 / v))
            assert abs(float(nx.cross_entropy(dist, [0]).data) - np.log(v)) < 1e-12

    def test_perfect_prediction(self):
        dist = nx.constant(np.array([[0.0, 1.0, 0.0]]))
        assert float(nx.cross_entropy(dist, [1]).data) == 0.0

    def test_batch_mean_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        dists = nx.Parameter(nx.softmax(rng.standard_normal((10, 6))), "dists")
        idxs = rng.integers(0, 6, size=10)
        mean = nx.cross_entropy(dists, idxs)
        by_hand = sum(-np.log(dists.data[r, i]) for r, i in enumerate(idxs)) / 10
        assert abs(float(mean.data) - by_hand) < 1e-12
        nx.backward(mean)
        want = np.zeros((10, 6))
        for r, i in enumerate(idxs):
            want[r, i] = -1.0 / (10 * dists.data[r, i])
        assert np.max(np.abs(dists.grad - want)) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(nx.InvalidIndex):
            nx.cross_entropy(nx.constant(np.ones((1, 3)) / 3), [3])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_invalid_index_in_any_row(self, bad):
        dists = nx.constant(np.ones((3, 3)) / 3)
        with pytest.raises(nx.InvalidIndex):
            nx.cross_entropy(dists, [0, 1, bad])
        with pytest.raises(nx.InvalidIndex):
            nx.cross_entropy(dists, [bad, 1, 0])

    def test_needs_one_row(self):
        with pytest.raises(nx.ShapeMismatch):
            nx.cross_entropy(nx.constant(np.ones(3) / 3), [0])
        with pytest.raises(nx.ShapeMismatch):  # one class index per row
            nx.cross_entropy(nx.constant(np.ones((2, 3)) / 3), [0])


class TestBackward:
    def test_linear_case(self):
        # loss = sum(W x) -> dW = outer(1, x)
        rng = np.random.default_rng(1)
        w = nx.Parameter(rng.standard_normal((3, 4)), "w")
        x = nx.constant(rng.standard_normal((4, 1)))
        y = nx.mm(w, x)
        loss = nx.Tensor(y.data.sum(), (y,), lambda g: ((y, np.full((3, 1), g)),))
        nx.backward(loss)
        assert np.allclose(w.grad, np.outer(np.ones(3), x.data[:, 0]))

    def test_double_backward_doubles_exactly(self):
        rng = np.random.default_rng(2)
        w = nx.Parameter(rng.standard_normal((3, 3)), "w")
        x = nx.constant(rng.standard_normal((3, 1)))
        y = nx.tanh(nx.mm(w, x))
        loss = nx.Tensor(y.data.sum(), (y,), lambda g: ((y, np.full((3, 1), g)),))
        nx.backward(loss)
        once = w.grad.copy()
        nx.backward(loss)
        assert np.array_equal(w.grad, 2 * once)

    def test_zero_grads(self):
        w = nx.Parameter(np.ones((2, 2)), "w")
        w.grad += 5
        nx.zero_grads([w])
        assert np.all(w.grad == 0)

    def test_diamond_graph_accumulates(self):
        # y used twice: grads along both routes must add
        w = nx.Parameter(np.array([2.0]), "w")
        y = nx.mul_const(w, 3.0)
        z = add(y, y)
        loss = nx.Tensor(z.data.sum(), (z,), lambda g: ((z, np.full(1, g)),))
        nx.backward(loss)
        assert np.allclose(w.grad, 6.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(nx.ShapeMismatch):
            nx.backward(nx.constant(np.ones(3)))


class TestNesterov:
    def test_mu_zero_is_plain_sgd(self):
        p = nx.Parameter(np.array([1.0, 2.0]), "p")
        p.grad[...] = np.array([0.5, -1.0])
        nx.nesterov_update(p, lr=0.1, mu=0.0)
        assert np.allclose(p.data, [1.0 - 0.05, 2.0 + 0.1])

    def test_zero_gradient_decays_to_fixed_point(self):
        p = nx.Parameter(np.array([0.0]), "p")
        p.grad[...] = 1.0
        nx.nesterov_update(p, lr=0.1, mu=0.9)
        p.grad[...] = 0.0
        previous = np.inf
        for _ in range(200):
            before = p.data.copy()
            nx.nesterov_update(p, lr=0.1, mu=0.9)
            step = abs(float(p.data[0] - before[0]))
            assert step <= previous + 1e-15
            previous = step
        assert step < 1e-9  # geometric decay of the buffer

    def test_beats_plain_sgd_on_quadratic_bowl(self):
        # f(x) = 0.5 x' diag(a) x, ill-conditioned
        a = np.array([1.0, 25.0])

        def run(mu):
            p = nx.Parameter(np.array([5.0, 1.0]), "p")
            for _ in range(50):
                p.grad[...] = a * p.data
                nx.nesterov_update(p, lr=0.01, mu=mu)
            return 0.5 * float(a @ (p.data ** 2))

        assert run(0.95) < run(0.0)


class TestTensorChecks:
    def test_debug_flags_nonfinite(self):
        nx.DEBUG = True
        try:
            with pytest.raises(nx.NumericDivergence):
                nx.constant(np.array([1.0, np.nan]))
        finally:
            nx.DEBUG = False

    def test_scalar_stays_scalar(self):
        assert nx.constant(1.5).data.shape == ()
