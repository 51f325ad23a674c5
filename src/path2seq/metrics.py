"""Task metrics: case-insensitive subtoken precision/recall/F1 and corpus
BLEU-4 with add-one smoothing.

F1 matches subtokens as multisets (a repeated subtoken must be predicted
the right number of times). The corpus aggregate is micro (counts summed
before the ratio); a macro mean over examples is carried along for
diagnostics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import Path2SeqError


class EmptyCandidateSet(Path2SeqError):
    kind = "empty-candidate-set"


@dataclass
class F1Report:
    precision: float
    recall: float
    f1: float
    macro_precision: float = 0.0
    macro_recall: float = 0.0
    macro_f1: float = 0.0


def _prf(matched: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _fold(tokens) -> list[str]:
    return [t.lower() for t in tokens]


def _match_counts(predicted, gold) -> tuple[int, int, int]:
    """(matched, predicted, gold) subtoken counts of one pair, matching
    multisets case-insensitively."""
    pred_counts = Counter(_fold(predicted))
    gold_counts = Counter(_fold(gold))
    matched = sum(min(count, gold_counts[t]) for t, count in pred_counts.items())
    return matched, sum(pred_counts.values()), sum(gold_counts.values())


def subtoken_f1(predicted, gold) -> tuple[float, float, float]:
    """Precision, recall and F1 of one prediction against its gold
    sequence, order-insensitive."""
    return _prf(*_match_counts(predicted, gold))


def corpus_f1(pairs) -> F1Report:
    """Micro-aggregated F1 over (predicted, gold) pairs, with the macro
    mean of the per-pair `subtoken_f1` reported alongside."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("corpus_f1 needs at least one pair")
    totals = [sum(col) for col in zip(*(_match_counts(p, g) for p, g in pairs))]
    macro = [sum(col) / len(pairs) for col in zip(*(subtoken_f1(p, g) for p, g in pairs))]
    return F1Report(*_prf(*totals), macro_precision=macro[0], macro_recall=macro[1],
                    macro_f1=macro[2])


@dataclass
class BleuReport:
    bleu: float                 # corpus BLEU in [0, 100]
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    candidate_length: int
    reference_length: int


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def smoothed_bleu(candidates, reference_sets, max_order: int = 4) -> BleuReport:
    """Corpus BLEU with multi-reference clipping and add-one smoothing.

    Tokens are case-folded. Modified n-gram precision clips each candidate
    n-gram count by the best reference count. For orders >= 2 a zero match
    count is smoothed to (0+1)/(total+1) so short or disjoint corpora stay
    finite; unigram precision is left alone, so zero unigram overlap still
    scores ~0. The brevity penalty uses the closest reference length per
    candidate (ties to the shorter one).
    """
    candidates = [_fold(c) for c in candidates]
    reference_sets = [[_fold(r) for r in refs] for refs in reference_sets]
    if not candidates:
        raise EmptyCandidateSet("no candidates to score")
    if len(candidates) != len(reference_sets):
        raise ValueError("candidate/reference count mismatch")
    if any(not refs for refs in reference_sets):
        raise ValueError("every candidate needs at least one reference")

    matches = [0] * max_order
    totals = [0] * max_order
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, reference_sets):
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for n in range(1, max_order + 1):
            cand_ngrams = _ngrams(cand, n)
            if not cand_ngrams:
                continue
            best = Counter()
            for ref in refs:
                for gram, count in _ngrams(ref, n).items():
                    if count > best[gram]:
                        best[gram] = count
            matches[n - 1] += sum(min(count, best[gram])
                                  for gram, count in cand_ngrams.items())
            totals[n - 1] += sum(cand_ngrams.values())

    precisions = []
    for n in range(1, max_order + 1):
        m, t = matches[n - 1], totals[n - 1]
        if n >= 2 and m == 0:
            precisions.append((m + 1) / (t + 1))
        else:
            precisions.append(m / t if t else 0.0)

    if precisions[0] == 0.0:
        geo_mean = 0.0
    else:
        geo_mean = math.exp(sum(math.log(p) for p in precisions) / max_order)
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    if cand_len == 0:
        bp = 0.0
    return BleuReport(bleu=100.0 * bp * geo_mean, precisions=tuple(precisions),
                      brevity_penalty=bp, candidate_length=cand_len,
                      reference_length=ref_len)


# --- prediction dumps and reports ---
#
# Dump line: `gold subtokens | predicted subtokens | score`, tokens
# space-separated inside each field.

def format_prediction_line(gold, predicted, score: float) -> str:
    return f"{' '.join(gold)} | {' '.join(predicted)} | {score:.6f}"


def f1_report_lines(report: F1Report) -> list[str]:
    return [
        "metric\tmicro\tmacro",
        f"precision\t{report.precision:.6f}\t{report.macro_precision:.6f}",
        f"recall\t{report.recall:.6f}\t{report.macro_recall:.6f}",
        f"f1\t{report.f1:.6f}\t{report.macro_f1:.6f}",
    ]


def bleu_report_lines(report: BleuReport) -> list[str]:
    precisions = "\t".join(f"{p:.6f}" for p in report.precisions)
    return [
        "bleu\tp1\tp2\tp3\tp4\tbrevity_penalty",
        f"{report.bleu:.4f}\t{precisions}\t{report.brevity_penalty:.6f}",
    ]

