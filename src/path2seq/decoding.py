"""Inference: greedy and beam decoding with per-step attention traces.

Decoding is a pure function of (params, example, config): inference never
samples, so repeated calls return identical predictions. PAD and SOS are
never emitted; EOS ends a sequence and is forced once the length cap is
reached. Variants without per-step attention (no_decoder, no_attention)
return an empty trace.

Beam search advances all live hypotheses of an example as the (n, d) rows
of one `decode_step` per step, and greedy decoding is beam width 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nx
from .errors import Path2SeqError
from .model import (TARGET_EOS_ID, TARGET_PAD_ID, TARGET_SOS_ID, ModelConfig,
                    ModelParams, decode_step, encode_example, name_distribution,
                    start_decoder_state)
from .paths import Example


class MismatchedExample(Path2SeqError):
    kind = "mismatched-example"


@dataclass
class Prediction:
    subtokens: list[str]
    score: float  # sum of chosen log-probabilities, EOS included
    attention_trace: list[list[tuple[int, float]]]  # per step, (context index, weight) desc
    n_contexts: int = 0

    @property
    def normalized_score(self) -> float:
        # EOS counts toward length so the empty prediction stays finite
        return self.score / (len(self.subtokens) + 1)


def _trace_row(alpha: np.ndarray, order: list[int]) -> list[tuple[int, float]]:
    pairs = [(order[i], float(alpha[i])) for i in range(len(order))]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


def greedy_decode(example: Example, params: ModelParams, cfg: ModelConfig) -> Prediction:
    """Argmax decoding from SOS until EOS or the length cap: beam width 1."""
    return beam_decode(example, params, cfg, beam_width=1)[0]


def _decode_whole_name(example: Example, params: ModelParams, enc) -> Prediction:
    probs = name_distribution(params, enc).data[0]
    choice = int(np.argmax(probs))
    name = params.vocabs.names.symbol(choice)
    return Prediction(subtokens=name.split("|"), score=float(np.log(probs[choice])),
                      attention_trace=[], n_contexts=len(example.contexts))


@dataclass
class _Hypothesis:
    tokens: list[int]
    score: float
    row: int  # this hypothesis's row in the decoder state of the step that made it
    trace: list[list[tuple[int, float]]] = field(default_factory=list)


def beam_decode(example: Example, params: ModelParams, cfg: ModelConfig,
                beam_width: int = 3) -> list[Prediction]:
    """Beam search over log-probabilities, ranked by score normalized by
    length (EOS counted). All live hypotheses advance as rows of one
    `decode_step` per step; beam_width 1 is greedy decoding."""
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")
    enc = encode_example(params, example, cfg, rng=None, training=False)
    # nothing is differentiated here: constant copies let the encoder graph go
    enc = replace(enc, Z=nx.constant(enc.Z.data), h0=nx.constant(enc.h0.data))
    if params.ablation == "no_decoder":
        return [_decode_whole_name(example, params, enc)]
    target_vocab = params.vocabs.target
    h, c = start_decoder_state(params, enc)
    live = [_Hypothesis(tokens=[], score=0.0, row=0)]
    finished: list[Prediction] = []

    def finish(hyp: _Hypothesis, eos_logp: float):
        finished.append(Prediction(
            subtokens=[target_vocab.symbol(t) for t in hyp.tokens],
            score=hyp.score + eos_logp,
            attention_trace=list(hyp.trace),
            n_contexts=len(example.contexts),
        ))

    for step in range(cfg.max_target_len + 1):
        if not live:
            break
        rows = [hyp.row for hyp in live]
        prev = np.array([hyp.tokens[-1] if hyp.tokens else TARGET_SOS_ID for hyp in live],
                        dtype=np.intp)
        dist, h, c, alpha = decode_step(params, prev, nx.constant(h.data[rows]),
                                        nx.constant(c.data[rows]), enc)
        logp = np.log(np.maximum(dist.data, 1e-300))
        logp[:, [TARGET_PAD_ID, TARGET_SOS_ID]] = -np.inf  # never candidates
        if step >= cfg.max_target_len:
            for li, hyp in enumerate(live):
                finish(hyp, float(logp[li, TARGET_EOS_ID]))  # forced at the cap
            break
        candidates = []  # (negative total score, live idx, token id)
        for li, hyp in enumerate(live):
            # only a hypothesis's own best beam_width tokens can survive the
            # global cut; ranking them by logp alone makes width 1 the argmax
            neg = -(hyp.score + logp[li])
            for token in np.argsort(-logp[li], kind="stable")[: beam_width]:
                if np.isfinite(neg[token]):
                    candidates.append((neg[token], li, int(token)))
        candidates.sort()
        next_live = []
        for _, li, token in candidates[: beam_width]:
            hyp = live[li]
            if token == TARGET_EOS_ID:
                finish(hyp, float(logp[li, TARGET_EOS_ID]))
                continue
            trace = list(hyp.trace)
            if alpha is not None:
                trace.append(_trace_row(alpha.data[li], enc.order))
            next_live.append(_Hypothesis(tokens=hyp.tokens + [token],
                                         score=hyp.score + float(logp[li, token]),
                                         row=li, trace=trace))
        live = next_live
    finished.sort(key=lambda p: -p.normalized_score)
    return finished[: beam_width]


def explain(prediction: Prediction, example: Example, top_n: int = 3,
            ) -> tuple[list[dict], str]:
    """Decoded subtokens with their top attended contexts.

    Returns a machine-readable list (one dict per step) and a rendered
    text form. The prediction must come from this example.
    """
    if prediction.n_contexts != len(example.contexts):
        raise MismatchedExample(
            f"prediction saw {prediction.n_contexts} contexts, example has "
            f"{len(example.contexts)}")
    if prediction.attention_trace and \
            len(prediction.attention_trace) != len(prediction.subtokens):
        raise MismatchedExample("trace length does not match decoded subtokens")
    rows = []
    lines = []
    for step, subtoken in enumerate(prediction.subtokens):
        attended = []
        if prediction.attention_trace:
            for ctx_index, weight in prediction.attention_trace[step][: top_n]:
                attended.append({"context": example.contexts[ctx_index].format(),
                                 "weight": weight})
        rows.append({"step": step, "subtoken": subtoken, "attended": attended})
        lines.append(f"step {step}: {subtoken}")
        for item in attended:
            lines.append(f"    {item['weight']:.4f}  {item['context']}")
    return rows, "\n".join(lines)
