import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from path2seq.metrics import (EmptyCandidateSet, bleu_report_lines, corpus_f1,
                              f1_report_lines, format_prediction_line, smoothed_bleu,
                              subtoken_f1)


def reference_bleu(candidates, reference_sets):
    """Textbook corpus BLEU-4 written independently of the shipped
    implementation (different counting structure, no smoothing). Only valid
    on corpora where every n-gram order has a nonzero match count."""
    log_sum = 0.0
    cand_total = 0
    ref_total = 0
    for n in range(1, 5):
        num = 0
        den = 0
        for cand, refs in zip(candidates, reference_sets):
            cand = [w.lower() for w in cand]
            grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
            seen = Counter(grams)
            for gram, count in seen.items():
                best = 0
                for ref in refs:
                    ref = [w.lower() for w in ref]
                    ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
                    best = max(best, ref_grams.count(gram))
                num += min(count, best)
            den += len(grams)
        assert num > 0, "reference_bleu needs nonzero matches at every order"
        log_sum += 0.25 * math.log(num / den)
    for cand, refs in zip(candidates, reference_sets):
        cand_total += len(cand)
        ref_total += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
    bp = 1.0 if cand_total >= ref_total else math.exp(1 - ref_total / cand_total)
    return 100.0 * bp * math.exp(log_sum)


class TestSubtokenF1:
    def test_partial_overlap(self):
        p, r, f1 = subtoken_f1(["set", "max", "connections"],
                               ["set", "max", "connections", "per", "server"])
        assert (p, r) == (1.0, 0.6)
        assert f1 == pytest.approx(0.75, rel=1e-12)

    def test_exact_match(self):
        assert subtoken_f1(["a", "b"], ["a", "b"]) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert subtoken_f1(["a"], ["b"]) == (0.0, 0.0, 0.0)

    def test_case_insensitive(self):
        assert subtoken_f1(["Set", "MAX"], ["set", "max"]) == (1.0, 1.0, 1.0)

    def test_order_ignored(self):
        assert subtoken_f1(["b", "a"], ["a", "b"]) == (1.0, 1.0, 1.0)

    def test_multiset_counting(self):
        p, r, f1 = subtoken_f1(["a", "a"], ["a"])
        assert (p, r) == (0.5, 1.0)

    def test_empty_prediction(self):
        assert subtoken_f1([], ["a"]) == (0.0, 0.0, 0.0)
        assert subtoken_f1([], []) == (1.0, 1.0, 1.0)

    @given(st.lists(st.sampled_from("abcde"), max_size=6),
           st.lists(st.sampled_from("abcde"), max_size=6))
    @settings(max_examples=200)
    def test_swap_symmetry(self, pred, gold):
        p1, r1, f1 = subtoken_f1(pred, gold)
        p2, r2, f2 = subtoken_f1(gold, pred)
        assert (p1, r1) == (r2, p2)
        assert f1 == pytest.approx(f2)

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
           st.lists(st.sampled_from("abcde"), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_harmonic_mean_bound(self, pred, gold):
        p, r, f1 = subtoken_f1(pred, gold)
        if p > 0 and r > 0:
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


class TestCorpusF1:
    def test_single_pair_equals_subtoken_f1(self):
        pair = (["a", "b"], ["a", "c"])
        report = corpus_f1([pair])
        assert (report.precision, report.recall, report.f1) == subtoken_f1(*pair)

    def test_duplication_invariance(self):
        pairs = [(["a", "b"], ["a"]), (["c"], ["c", "d"])]
        once = corpus_f1(pairs)
        twice = corpus_f1(pairs * 2)
        assert once.f1 == pytest.approx(twice.f1)
        assert once.precision == pytest.approx(twice.precision)

    def test_hand_aggregated_three_pairs(self):
        pairs = [
            (["set", "max"], ["set", "max", "size"]),   # m=2, p=2, g=3
            (["get"], ["get"]),                         # m=1, p=1, g=1
            (["add", "item"], ["remove", "item"]),      # m=1, p=2, g=2
        ]
        report = corpus_f1(pairs)
        # micro: m=4, pred=5, gold=6 -> P=0.8, R=2/3, F1=2*0.8*(2/3)/(0.8+2/3)
        assert report.precision == pytest.approx(4 / 5)
        assert report.recall == pytest.approx(4 / 6)
        assert report.f1 == pytest.approx(2 * 0.8 * (4 / 6) / (0.8 + 4 / 6))
        # macro: mean of per-pair scores
        per = [subtoken_f1(p, g) for p, g in pairs]
        assert report.macro_f1 == pytest.approx(sum(x[2] for x in per) / 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_f1([])


class TestSmoothedBleu:
    def test_perfect_match_is_100(self):
        report = smoothed_bleu([["a", "b", "c"]], [[["a", "b", "c"]]])
        assert report.bleu == pytest.approx(100.0)
        assert report.brevity_penalty == 1.0

    def test_short_perfect_match_is_100(self):
        # shorter than 4 tokens: higher orders have zero totals and smooth to 1
        report = smoothed_bleu([["a", "b"]], [[["a", "b"]]])
        assert report.bleu == pytest.approx(100.0)

    def test_zero_overlap_below_one(self):
        report = smoothed_bleu([["x", "y", "z"]], [[["a", "b", "c"]]])
        assert report.bleu < 1.0

    def test_brevity_penalty(self):
        report = smoothed_bleu([["a", "b"]], [[["a", "b", "c", "d"]]])
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 4 / 2))
        assert report.bleu <= 100.0 * report.brevity_penalty

    def test_agrees_with_reference_implementation(self):
        candidates = [
            ["the", "cat", "sat", "on", "the", "mat"],
            ["a", "quick", "brown", "fox", "jumps", "over", "a", "lazy", "dog"],
            ["open", "the", "file", "and", "read", "all", "lines", "now"],
        ]
        references = [
            [["the", "cat", "sat", "on", "the", "mat"]],
            [["the", "quick", "brown", "fox", "jumps", "over", "the", "lazy", "dog"],
             ["a", "quick", "brown", "fox", "jumps", "over", "a", "sleepy", "dog"]],
            [["open", "the", "file", "and", "read", "all", "lines", "today"]],
        ]
        ours = smoothed_bleu(candidates, references).bleu
        ref = reference_bleu(candidates, references)
        assert abs(ours - ref) < 0.1

    def test_candidate_order_invariance(self):
        candidates = [["a", "b"], ["c", "d", "e"]]
        references = [[["a", "b"]], [["c", "d", "x"]]]
        fwd = smoothed_bleu(candidates, references).bleu
        rev = smoothed_bleu(candidates[::-1], references[::-1]).bleu
        assert fwd == pytest.approx(rev)

    def test_multi_reference_clipping_takes_max(self):
        # "a a" clips to 2 thanks to the second reference
        one = smoothed_bleu([["a", "a"]], [[["a", "b"]]]).precisions[0]
        two = smoothed_bleu([["a", "a"]], [[["a", "b"], ["a", "a"]]]).precisions[0]
        assert one == pytest.approx(0.5)
        assert two == pytest.approx(1.0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyCandidateSet):
            smoothed_bleu([], [])

    def test_bounded_by_brevity_penalty(self):
        report = smoothed_bleu([["a", "b", "c"]], [[["a", "b", "c", "d", "e"]]])
        assert report.bleu <= 100.0 * report.brevity_penalty + 1e-9
        assert report.brevity_penalty <= 1.0


class TestDumpFormat:
    def test_round_trip(self):
        line = format_prediction_line(["get", "size"], ["get", "count"], -1.25)
        assert line == "get size | get count | -1.250000"

    def test_empty_prediction_round_trips(self):
        assert format_prediction_line(["a"], [], -3.0) == "a |  | -3.000000"

    def test_report_lines_shape(self):
        report = corpus_f1([(["a"], ["a"])])
        lines = f1_report_lines(report)
        assert lines[0].startswith("metric\t")
        assert len(lines) == 4
        bleu = smoothed_bleu([["a", "b"]], [[["a", "b"]]])
        assert len(bleu_report_lines(bleu)) == 2
