import numpy as np
import pytest

from helpers import reference_beam, tiny_setup
from path2seq.decoding import (MismatchedExample, beam_decode, explain,
                               greedy_decode)
from path2seq.model import (TARGET_EOS_ID, TARGET_PAD_ID, TARGET_SOS_ID,
                            decode_step, encode_example, start_decoder_state)
from path2seq.paths import Example
from path2seq.training import TrainConfig, train
from path2seq.vocab import PAD, SOS


@pytest.fixture(scope="module")
def trained():
    examples, vocabs, cfg, params = tiny_setup(
        seed=3, d_nodes=16, d_tokens=16, d_hidden=16, d_target=16, d_path=16,
        d_decoder=16, k=5)
    tcfg = TrainConfig(lr0=0.12, batch_size=4, max_epochs=40, seed=7, patience=999)
    train(examples, [], params, cfg, tcfg)
    return examples, vocabs, cfg, params


def exhaustive_best_logprob(example, params, cfg, max_len):
    """Brute-force search over every decodable sequence, scoring exactly the
    probabilities the decoder exposes."""
    enc = encode_example(params, example, cfg, rng=None, training=False)
    h0, c0 = start_decoder_state(params, enc)
    best = [-np.inf]

    def logp(dist):
        out = np.log(np.maximum(dist.data[0], 1e-300))
        out[TARGET_PAD_ID] = -np.inf
        out[TARGET_SOS_ID] = -np.inf
        return out

    def expand(prev, h, c, score, depth):
        dist, h2, c2, _ = decode_step(params, np.array([prev]), h, c, enc)
        lp = logp(dist)
        best[0] = max(best[0], score + lp[TARGET_EOS_ID])
        if depth >= max_len:
            return
        for token in range(len(lp)):
            if token == TARGET_EOS_ID or not np.isfinite(lp[token]):
                continue
            expand(token, h2, c2, score + lp[token], depth + 1)

    expand(TARGET_SOS_ID, h0, c0, 0.0, 0)
    return best[0]


class TestGreedy:
    def test_overfit_model_recovers_gold(self, trained):
        examples, vocabs, cfg, params = trained
        hits = sum(greedy_decode(ex, params, cfg).subtokens == ex.target
                   for ex in examples)
        assert hits >= 0.9 * len(examples)

    def test_length_cap(self, trained):
        examples, vocabs, cfg, params = trained
        capped = type(cfg)(**{**cfg.__dict__, "max_target_len": 1})
        pred = greedy_decode(examples[0], params, capped)
        assert len(pred.subtokens) <= 1

    def test_trace_rows_sum_to_one(self, trained):
        examples, vocabs, cfg, params = trained
        pred = greedy_decode(examples[0], params, cfg)
        assert len(pred.attention_trace) == len(pred.subtokens)
        for row in pred.attention_trace:
            assert abs(sum(w for _, w in row) - 1.0) < 1e-9
            weights = [w for _, w in row]
            assert weights == sorted(weights, reverse=True)

    def test_pure_function(self, trained):
        examples, vocabs, cfg, params = trained
        a = greedy_decode(examples[0], params, cfg)
        b = greedy_decode(examples[0], params, cfg)
        assert a.subtokens == b.subtokens and a.score == b.score
        assert a.attention_trace == b.attention_trace

    def test_emitted_subtokens_in_vocabulary(self, trained):
        examples, vocabs, cfg, params = trained
        for ex in examples:
            pred = greedy_decode(ex, params, cfg)
            for tok in pred.subtokens:
                assert tok in vocabs.target.index
                assert tok not in (PAD, SOS)


class TestBeam:
    def test_beam_one_equals_greedy(self, trained):
        examples, vocabs, cfg, params = trained
        for ex in examples[:6]:
            g = greedy_decode(ex, params, cfg)
            b = beam_decode(ex, params, cfg, beam_width=1)
            assert len(b) == 1
            assert b[0].subtokens == g.subtokens
            assert b[0].score == pytest.approx(g.score, abs=1e-12)

    def test_top_hypothesis_ranks_first(self, trained):
        examples, vocabs, cfg, params = trained
        preds = beam_decode(examples[0], params, cfg, beam_width=4)
        scores = [p.normalized_score for p in preds]
        assert scores == sorted(scores, reverse=True)

    def test_beam_finds_at_least_greedy_raw_score(self, trained):
        examples, vocabs, cfg, params = trained
        small = type(cfg)(**{**cfg.__dict__, "max_target_len": 2})
        for ex in examples[:4]:
            greedy_raw = greedy_decode(ex, params, small).score
            beam = beam_decode(ex, params, small, beam_width=3)
            best_raw = max(p.score for p in beam)
            exhaustive = exhaustive_best_logprob(ex, params, small, max_len=2)
            assert best_raw >= greedy_raw - 1e-12
            assert best_raw <= exhaustive + 1e-9

    def test_all_ties_keep_token_order(self):
        # W_s = 0 makes every step uniform over the 8 target symbols, so all
        # candidates tie and only the (score, hypothesis, token) order picks
        examples, vocabs, cfg, params = tiny_setup()
        params.W_s.data[...] = 0.0
        for ex in examples[:2]:
            preds = beam_decode(ex, params, cfg, beam_width=3)
            assert [(p.subtokens, p.score) for p in preds] == [
                ([], -2.0794415416798357),
                (["<UNK>"], -4.1588830833596715),
                (["<UNK>", "<UNK>"], -6.238324625039507)]
            assert [len(p.attention_trace) for p in preds] == [0, 1, 2]

    @pytest.mark.parametrize("ablation", ["full", "no_attention", "no_token_split"])
    def test_matches_per_hypothesis_reference(self, ablation):
        """Advancing the live hypotheses as rows of one decode_step returns
        the per-hypothesis beam's predictions in the same order."""
        examples, vocabs, cfg, params = tiny_setup(ablation=ablation, seed=4, d_decoder=6)
        for ex in examples[:6]:
            got = beam_decode(ex, params, cfg, beam_width=3)
            want = reference_beam(ex, params, cfg, beam_width=3)
            assert [p.subtokens for p in got] == [p.subtokens for p in want]
            for g, w in zip(got, want):
                assert abs(g.score - w.score) < 1e-12
                assert len(g.attention_trace) == len(w.attention_trace)
                for g_row, w_row in zip(g.attention_trace, w.attention_trace):
                    g_weights, w_weights = dict(g_row), dict(w_row)
                    assert g_weights.keys() == w_weights.keys()
                    assert all(abs(g_weights[i] - w_weights[i]) < 1e-12 for i in g_weights)

    def test_bad_width(self, trained):
        examples, vocabs, cfg, params = trained
        with pytest.raises(ValueError):
            beam_decode(examples[0], params, cfg, beam_width=0)


class TestExplain:
    def test_top_one_context_per_step(self, trained):
        examples, vocabs, cfg, params = trained
        pred = greedy_decode(examples[0], params, cfg)
        rows, rendered = explain(pred, examples[0], top_n=1)
        assert len(rows) == len(pred.subtokens)
        for row in rows:
            assert len(row["attended"]) == 1
        assert rendered.count("step ") == len(pred.subtokens)

    def test_weights_replay_exactly(self, trained):
        examples, vocabs, cfg, params = trained
        ex = examples[0]
        pred = greedy_decode(ex, params, cfg)
        rows, _ = explain(pred, ex, top_n=len(ex.contexts))
        replay = greedy_decode(ex, params, cfg)
        for row, trace_row in zip(rows, replay.attention_trace):
            got = [item["weight"] for item in row["attended"]]
            assert got == [w for _, w in trace_row]

    def test_contexts_render_as_dataset_fields(self, trained):
        examples, vocabs, cfg, params = trained
        ex = examples[0]
        pred = greedy_decode(ex, params, cfg)
        rows, _ = explain(pred, ex, top_n=2)
        rendered = {c.format() for c in ex.contexts}
        for row in rows:
            for item in row["attended"]:
                assert item["context"] in rendered

    def test_mismatched_example(self, trained):
        examples, vocabs, cfg, params = trained
        pred = greedy_decode(examples[0], params, cfg)
        other = Example(contexts=examples[0].contexts[:1], target=["alpha"], index=9)
        with pytest.raises(MismatchedExample):
            explain(pred, other)


class TestNoDecoderVariant:
    def test_single_shot_prediction(self):
        examples, vocabs, cfg, params = tiny_setup(ablation="no_decoder")
        pred = greedy_decode(examples[0], params, cfg)
        assert pred.attention_trace == []
        assert pred.subtokens
        assert pred.score <= 0.0

    def test_beam_reduces_to_single_prediction(self):
        examples, vocabs, cfg, params = tiny_setup(ablation="no_decoder")
        preds = beam_decode(examples[0], params, cfg, beam_width=3)
        assert len(preds) == 1
