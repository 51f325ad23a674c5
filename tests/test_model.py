import numpy as np
import pytest

from helpers import gate_block, reference_step_loss, tiny_setup, toy_examples
from path2seq import numerics as nx
from path2seq.model import (EmptyContexts, ModelConfig, ModelParams,
                            TARGET_EOS_ID, TARGET_SOS_ID, attention_step,
                            choose_context_indices, decode_step, encode_example,
                            ensure_ids, forward_loss, start_decoder_state)
from path2seq.paths import Example, PathContext
from path2seq.vocab import build_vocabularies


def scalar_loss_oracle(example, params, cfg):
    """Step-by-step plain-numpy re-implementation of the teacher-forced
    loss, independent of the graph machinery."""
    vocabs = params.vocabs
    sig = lambda v: 1 / (1 + np.exp(-v))

    def pre(cell, gate, j):
        # the gate's own column block of W and b
        return j @ gate_block(cell, gate, cell.W.data) + gate_block(cell, gate, cell.b.data)

    def lstm_step(cell, x, h, c):
        j = np.concatenate([x, h])
        i = sig(pre(cell, "input", j))
        f = sig(pre(cell, "forget", j))
        o = sig(pre(cell, "output", j))
        g = np.tanh(pre(cell, "candidate", j))
        c = f * c + i * g
        return o * np.tanh(c), c

    def lstm_scan(cell, xs):
        h = np.zeros(cell.hidden_size)
        c = np.zeros(cell.hidden_size)
        for x in xs:
            h, c = lstm_step(cell, x, h, c)
        return h, c

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    contexts = sorted(example.contexts, key=lambda c: c.format())
    zs = []
    for ctx in contexts:
        node_rows = [params.E_nodes.data[vocabs.nodes.id(s)] for s in ctx.path_symbols]
        fwd, _ = lstm_scan(params.path_fwd, node_rows)
        bwd, _ = lstm_scan(params.path_bwd, list(reversed(node_rows)))
        left = sum(params.E_source.data[vocabs.source.id(t)] for t in ctx.left_subtokens)
        right = sum(params.E_source.data[vocabs.source.id(t)] for t in ctx.right_subtokens)
        zs.append(np.tanh(np.concatenate([fwd, bwd, left, right]) @ params.W_in.data))
    Z = np.stack(zs)
    h = np.zeros(cfg.d_decoder)
    h[: cfg.d_hidden] = Z.mean(axis=0)
    c = np.zeros(cfg.d_decoder)
    prev = TARGET_SOS_ID
    losses = []
    for gold in vocabs.target.ids(example.target) + [TARGET_EOS_ID]:
        h, c = lstm_step(params.decoder, params.E_target.data[prev], h, c)
        alpha = softmax(Z @ (h @ params.W_a.data))
        ctx_vec = alpha @ Z
        hidden = np.tanh(np.concatenate([ctx_vec, h]) @ params.W_c.data)
        dist = softmax(hidden @ params.W_s.data)
        losses.append(-np.log(dist[gold]))
        prev = gold
    return float(np.mean(losses))


class TestEncodeToken:
    """A token vector is `embedding_bag_sum` of its subtoken rows."""

    @staticmethod
    def bags(params, *id_lists):
        flat = np.concatenate([np.asarray(ids, dtype=np.intp) for ids in id_lists])
        starts = np.concatenate([[0], np.cumsum([len(ids) for ids in id_lists])])
        return nx.embedding_bag_sum(params.E_source, flat, starts).data

    def test_single_known_subtoken_is_its_row(self):
        examples, vocabs, cfg, params = tiny_setup()
        idx = vocabs.source.id("alpha")
        out = self.bags(params, [idx])
        assert np.array_equal(out[0], params.E_source.data[idx])

    def test_additivity(self):
        examples, vocabs, cfg, params = tiny_setup()
        a, b = vocabs.source.id("alpha"), vocabs.source.id("beta")
        both, only_a, only_b = self.bags(params, [a, b], [a], [b])
        assert np.allclose(both, only_a + only_b)

    def test_all_oov_is_unk_times_count(self):
        examples, vocabs, cfg, params = tiny_setup()
        unk = vocabs.source.unk_id
        ids = vocabs.source.ids(["zzz", "yyy", "xxx"])
        assert all(i == unk for i in ids)
        out = self.bags(params, ids)
        assert np.allclose(out[0], 3 * params.E_source.data[unk])


class TestEncodeExample:
    def test_identical_contexts_mean_is_row(self):
        ctx = PathContext(("alpha",), ("P^", "Q"), ("beta",))
        ex = Example(contexts=[ctx] * 4, target=["alpha"], index=0)
        _, vocabs, cfg, params = tiny_setup([ex])
        enc = encode_example(params, ex, cfg, np.random.default_rng(0), False)
        assert np.allclose(enc.h0.data, enc.Z.data[0], rtol=1e-14, atol=1e-15)

    def test_singleton_mean(self):
        ctx = PathContext(("alpha",), ("P^", "Q"), ("beta",))
        ex = Example(contexts=[ctx], target=["alpha"], index=0)
        _, vocabs, cfg, params = tiny_setup([ex])
        enc = encode_example(params, ex, cfg, np.random.default_rng(0), False)
        assert np.array_equal(enc.h0.data[0], enc.Z.data[0])

    def test_permutation_bitwise_invariant(self):
        examples, vocabs, cfg, params = tiny_setup()
        base = examples[0]
        perm = Example(contexts=[base.contexts[2], base.contexts[0], base.contexts[1]],
                       target=list(base.target), index=base.index)
        enc_a = encode_example(params, base, cfg, np.random.default_rng(0), False)
        enc_b = encode_example(params, perm, cfg, np.random.default_rng(0), False)
        assert np.array_equal(enc_a.h0.data, enc_b.h0.data)
        assert np.array_equal(enc_a.Z.data, enc_b.Z.data)

    def test_rows_in_tanh_range(self):
        examples, vocabs, cfg, params = tiny_setup()
        enc = encode_example(params, examples[0], cfg, np.random.default_rng(0), False)
        assert np.all(np.abs(enc.Z.data) <= 1.0)

    def test_zero_w_in_zero_output(self):
        examples, vocabs, cfg, params = tiny_setup()
        params.W_in.data[...] = 0.0
        enc = encode_example(params, examples[0], cfg, np.random.default_rng(0), False)
        assert np.all(enc.Z.data == 0.0)

    def test_empty_contexts_error(self):
        examples, vocabs, cfg, params = tiny_setup()
        ex = Example(contexts=[], target=["alpha"], index=0)
        with pytest.raises(EmptyContexts):
            encode_example(params, ex, cfg, np.random.default_rng(0), False)

    def test_inference_takes_first_k(self):
        assert choose_context_indices(10, 3, None, training=False) == [0, 1, 2]
        assert choose_context_indices(2, 3, None, training=False) == [0, 1]

    def test_training_sampling_deterministic_by_seed(self):
        a = choose_context_indices(30, 5, np.random.default_rng(4), training=True)
        b = choose_context_indices(30, 5, np.random.default_rng(4), training=True)
        assert a == b and len(a) == 5


class TestAttention:
    def test_identical_rows_uniform(self):
        examples, vocabs, cfg, params = tiny_setup()
        row = np.random.default_rng(3).standard_normal(cfg.d_hidden)
        Z = nx.constant(np.tile(row, (5, 1)))
        h = nx.constant(np.random.default_rng(4).standard_normal((1, cfg.d_decoder)))
        alpha, c_t = attention_step(params, h, Z)
        assert np.array_equal(alpha.data, np.full((1, 5), 0.2))
        assert c_t.shape == (1, cfg.d_hidden)

    def test_context_vector_in_convex_hull(self):
        examples, vocabs, cfg, params = tiny_setup()
        Z = nx.constant(np.random.default_rng(7).standard_normal((6, cfg.d_hidden)))
        h = nx.constant(np.random.default_rng(8).standard_normal((1, cfg.d_decoder)))
        alpha, c_t = attention_step(params, h, Z)
        assert np.all(c_t.data <= Z.data.max(axis=0) + 1e-12)
        assert np.all(c_t.data >= Z.data.min(axis=0) - 1e-12)


class TestDecodeStep:
    def test_distribution_sums_to_one(self):
        examples, vocabs, cfg, params = tiny_setup()
        enc = encode_example(params, examples[0], cfg, np.random.default_rng(0), False)
        h, c = start_decoder_state(params, enc)
        dist, h2, c2, alpha = decode_step(params, np.array([TARGET_SOS_ID]), h, c, enc)
        assert abs(dist.data.sum() - 1.0) < 1e-12
        assert abs(alpha.data.sum() - 1.0) < 1e-12

    def test_zero_output_matrix_uniform(self):
        examples, vocabs, cfg, params = tiny_setup()
        params.W_s.data[...] = 0.0
        v = len(vocabs.target)
        loss = forward_loss(examples[0], params, cfg, np.random.default_rng(0),
                            training=False)
        assert abs(float(loss.data) - np.log(v)) < 1e-12

    def test_teacher_forced_loss_matches_scalar_oracle(self):
        examples, vocabs, cfg, params = tiny_setup()
        for ex in examples[:4]:
            got = float(forward_loss(ex, params, cfg, np.random.default_rng(0),
                                     training=False).data)
            want = scalar_loss_oracle(ex, params, cfg)
            assert abs(got - want) < 1e-10

    def test_wider_decoder_state(self):
        examples, vocabs, cfg, params = tiny_setup(d_decoder=7)
        enc = encode_example(params, examples[0], cfg, np.random.default_rng(0), False)
        h, c = start_decoder_state(params, enc)
        assert h.data.shape == c.data.shape == (1, 7)
        assert np.array_equal(h.data[:, :4], enc.h0.data)
        assert np.all(h.data[:, 4:] == 0.0)


class TestForwardLoss:
    def test_untrained_loss_near_log_vocab(self):
        examples = toy_examples()
        vocabs = build_vocabularies(examples)
        cfg = ModelConfig(d_nodes=4, d_tokens=4, d_hidden=4, d_target=4, d_path=4,
                          d_decoder=4, k=3, input_dropout=0.0, recurrent_dropout=0.0,
                          max_target_len=5)
        v = len(vocabs.target)
        losses = []
        for seed in range(100):
            params = ModelParams(cfg, vocabs, seed=seed)
            losses.append(float(forward_loss(examples[0], params, cfg,
                                             np.random.default_rng(0),
                                             training=False).data))
        mean = float(np.mean(losses))
        assert abs(mean - np.log(v)) < 0.2 * np.log(v)

    def test_no_attention_ignores_row_permutation_exactly(self):
        examples, vocabs, cfg, params = tiny_setup(ablation="no_attention")
        base = examples[0]
        perm = Example(contexts=list(reversed(base.contexts)),
                       target=list(base.target), index=base.index)
        a = float(forward_loss(base, params, cfg, np.random.default_rng(0),
                               training=False).data)
        b = float(forward_loss(perm, params, cfg, np.random.default_rng(0),
                               training=False).data)
        assert a == b

    def test_full_model_permutation_bitwise(self):
        examples, vocabs, cfg, params = tiny_setup()
        base = examples[0]
        perm = Example(contexts=[base.contexts[1], base.contexts[2], base.contexts[0]],
                       target=list(base.target), index=base.index)
        a = float(forward_loss(base, params, cfg, np.random.default_rng(0),
                               training=False).data)
        b = float(forward_loss(perm, params, cfg, np.random.default_rng(0),
                               training=False).data)
        assert a == b

    def test_no_decoder_single_cross_entropy(self):
        examples, vocabs, cfg, params = tiny_setup(ablation="no_decoder")
        ex = examples[0]
        enc = encode_example(params, ex, cfg, np.random.default_rng(0), False)
        dist = nx.softmax(enc.h0.data[0] @ params.W_name.data)
        name_id = vocabs.names.id("|".join(ex.target))
        want = -np.log(dist[name_id])
        got = float(forward_loss(ex, params, cfg, np.random.default_rng(0),
                                 training=False).data)
        assert abs(got - want) < 1e-12

    def test_dropout_changes_training_loss_only(self):
        examples, vocabs, cfg, params = tiny_setup(input_dropout=0.5,
                                                   recurrent_dropout=0.5)
        ex = examples[0]
        a = float(forward_loss(ex, params, cfg, np.random.default_rng(1), True).data)
        b = float(forward_loss(ex, params, cfg, np.random.default_rng(2), True).data)
        assert a != b
        c = float(forward_loss(ex, params, cfg, np.random.default_rng(1), False).data)
        d = float(forward_loss(ex, params, cfg, np.random.default_rng(2), False).data)
        assert c == d


class TestModelParams:
    def test_w_in_shape_full(self):
        _, _, cfg, params = tiny_setup()
        assert params.W_in.data.shape == (2 * cfg.d_path + 2 * cfg.d_tokens, cfg.d_hidden)

    def test_w_in_shape_ablations(self):
        _, _, cfg, p_tokens = tiny_setup(ablation="no_ast_nodes")
        assert p_tokens.W_in.data.shape == (2 * cfg.d_tokens, cfg.d_hidden)
        _, _, _, p_paths = tiny_setup(ablation="no_tokens")
        assert p_paths.W_in.data.shape == (2 * cfg.d_path, cfg.d_hidden)

    def test_attention_shapes(self):
        _, vocabs, cfg, params = tiny_setup(d_decoder=6)
        assert params.W_a.data.shape == (6, cfg.d_hidden)
        assert params.W_c.data.shape == (cfg.d_hidden + 6, 6)
        assert params.W_s.data.shape == (6, len(vocabs.target))

    def test_distinct_target_embedding(self):
        _, _, _, params = tiny_setup()
        assert params.E_target is not params.E_source
        assert not np.array_equal(params.E_target.data[:2], params.E_source.data[:2])

    def test_decoder_narrower_than_hidden_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(d_hidden=8, d_decoder=4)

    def test_parameter_list_is_stable(self):
        _, _, _, params = tiny_setup()
        names = [p.name for p in params.parameters()]
        assert len(names) == len(set(names))
        _, _, _, again = tiny_setup()
        assert names == [p.name for p in again.parameters()]


def _gradcheck(params, examples, cfg, eps=1e-5, stride=5):
    """Per-parameter relative error between analytic gradients and central
    finite differences over a strided sample of entries."""
    ex = examples[0]
    nx.zero_grads(params.parameters())
    loss = forward_loss(ex, params, cfg, np.random.default_rng(0), training=False)
    nx.backward(loss)

    def value():
        return float(forward_loss(ex, params, cfg, np.random.default_rng(0),
                                  training=False).data)

    worst = 0.0
    for p in params.parameters():
        all_idx = list(np.ndindex(p.data.shape))
        sampled = all_idx[:: max(1, len(all_idx) // stride)]
        fd = np.zeros(len(sampled))
        an = np.zeros(len(sampled))
        for slot, idx in enumerate(sampled):
            orig = p.data[idx]
            p.data[idx] = orig + eps
            hi = value()
            p.data[idx] = orig - eps
            lo = value()
            p.data[idx] = orig
            fd[slot] = (hi - lo) / (2 * eps)
            an[slot] = p.grad[idx]
        scale = max(np.linalg.norm(fd), np.linalg.norm(an))
        if scale > 1e-10:
            worst = max(worst, float(np.linalg.norm(fd - an) / scale))
    return worst


@pytest.mark.parametrize("ablation", ["no_ast_nodes", "no_tokens", "no_attention",
                                      "no_decoder"])
def test_ablation_gradients_spot_checked(ablation):
    examples, vocabs, cfg, params = tiny_setup(ablation=ablation)
    assert _gradcheck(params, examples, cfg) < 1e-4


@pytest.mark.parametrize("ablation", ["full", "no_attention", "no_decoder"])
def test_forward_graph_is_all_row_batches(ablation):
    """Every activation of the loss graph is 2-D (parameters keep their own
    shapes and the losses are 0-d): the decoder has no 1-D layout."""
    examples, vocabs, cfg, params = tiny_setup(ablation=ablation, d_decoder=6)
    loss = forward_loss(examples[0], params, cfg, np.random.default_rng(0), training=True)
    seen, todo, shapes = {id(loss)}, [loss], set()
    while todo:
        node = todo.pop()
        if not isinstance(node, nx.Parameter) and node.data.ndim != 0:
            shapes.add(node.shape)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    assert shapes and all(len(shape) == 2 for shape in shapes), sorted(shapes)


@pytest.mark.parametrize("ablation", ["full", "no_attention", "no_token_split"])
def test_forward_loss_matches_per_step_reference(ablation):
    """Scoring the T teacher-forced states as rows of one decoder_head call
    gives the per-step loss and every parameter gradient to 1e-12."""
    toys = toy_examples()
    long_target = Example(contexts=toys[0].contexts, index=99,
                          target=["alpha", "beta", "gamma", "delta"] * 2 + ["end"])
    examples, vocabs, cfg, params = tiny_setup(toys + [long_target], ablation=ablation,
                                               d_decoder=6, input_dropout=0.25,
                                               recurrent_dropout=0.5)
    for ex in examples[:3] + [long_target]:
        nx.zero_grads(params.parameters())
        loss = forward_loss(ex, params, cfg, np.random.default_rng(3), training=True)
        nx.backward(loss)
        grads = [p.grad.copy() for p in params.parameters()]
        nx.zero_grads(params.parameters())
        want = reference_step_loss(ex, params, cfg, np.random.default_rng(3))
        nx.backward(want)
        assert abs(float(loss.data) - float(want.data)) < 1e-12
        for p, grad in zip(params.parameters(), grads):
            assert np.max(np.abs(grad - p.grad)) < 1e-12, p.name
