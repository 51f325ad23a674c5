"""Attention encoder-decoder over sampled path contexts.

Each context is encoded independently: the rendered path symbols run
through a bi-directional LSTM, both endpoint tokens are summed subtoken
embeddings, and the concatenation is projected with W_in through tanh into
a combined vector z, one row of Z (k', d_hidden). The decoder starts from
the mean of all rows (zero-padded into the wider decoder state), attends
over them with a bilinear score h W_a z at every step, and predicts the
next target subtoken from softmax(W_s tanh(W_c [context; state])).

The decoder LSTM reads only the previous subtoken, so attention, W_c, W_s
and the softmax (`decoder_head`) act on independent (n, d) state rows: the
T teacher-forced steps of one example in training, and the live
hypotheses of one step in beam search. Encoder and decoder share the row
ops.

A context set is treated as a set: sampled contexts are put into a
canonical order before encoding, so any permutation of the same contexts
produces bitwise-identical results.

Variant switches (`ablation`): no_ast_nodes drops the path encoder and
keeps endpoint tokens; no_tokens keeps only the path encoder;
no_token_split embeds whole tokens instead of summed subtokens;
no_decoder predicts the whole name with one softmax from the start state;
no_attention decodes from the start state alone. no_random is handled by
the trainer (one fixed sample per example instead of fresh samples each
iteration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .errors import Path2SeqError
from .paths import Example, sample_paths
from .vocab import Vocabularies

ABLATIONS = ("full", "no_ast_nodes", "no_decoder", "no_token_split",
             "no_tokens", "no_attention", "no_random")

TARGET_PAD_ID, TARGET_SOS_ID, TARGET_EOS_ID, TARGET_UNK_ID = 0, 1, 2, 3


class EmptyContexts(Path2SeqError):
    kind = "empty-contexts"


@dataclass
class ModelConfig:
    d_nodes: int = 128
    d_tokens: int = 128
    d_hidden: int = 128
    d_target: int = 128
    d_path: int = 128      # per-direction path encoder width
    d_decoder: int = 320
    k: int = 200           # contexts sampled per example per iteration
    input_dropout: float = 0.25
    recurrent_dropout: float = 0.5
    max_target_len: int = 10

    def __post_init__(self):
        for name in ("d_nodes", "d_tokens", "d_hidden", "d_target", "d_path",
                     "d_decoder", "k", "max_target_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("input_dropout", "recurrent_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        # the start state is zero-padded into the decoder state, so the
        # decoder can be wider than d_hidden but never narrower
        if self.d_decoder < self.d_hidden:
            raise ValueError("d_decoder must be >= d_hidden")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class ModelParams:
    """Every learned tensor of one model variant, Glorot-initialized from a
    seed. Weight matrices use glorot_uniform_init; each LSTM holds one gate
    matrix and one bias, which starts at zero except the forget block's
    1.0."""

    def __init__(self, cfg: ModelConfig, vocabs: Vocabularies, ablation: str = "full",
                 seed: int = 0):
        if ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {ablation!r}, expected one of {ABLATIONS}")
        self.cfg = cfg
        self.vocabs = vocabs
        self.ablation = ablation
        self._ordered: list[nx.Parameter] = []
        rng = np.random.default_rng(seed)

        def param(name, shape):
            p = nx.Parameter(nx.glorot_uniform_init(shape, rng), name)
            self._ordered.append(p)
            return p

        def lstm(name, input_size, hidden_size):
            cell = nx.LstmCellParams(input_size, hidden_size, name, rng)
            self._ordered.extend(cell.parameters())
            return cell

        self.E_nodes = self.path_fwd = self.path_bwd = None
        if self.uses_paths:
            self.E_nodes = param("E_nodes", (len(vocabs.nodes), cfg.d_nodes))
            self.path_fwd = lstm("path_fwd", cfg.d_nodes, cfg.d_path)
            self.path_bwd = lstm("path_bwd", cfg.d_nodes, cfg.d_path)

        self.E_source = None
        if self.uses_tokens:
            table = vocabs.source_full if ablation == "no_token_split" else vocabs.source
            self.E_source = param("E_source", (len(table), cfg.d_tokens))

        self.W_in = param("W_in", (self.combined_input_dim, cfg.d_hidden))

        self.E_target = self.decoder = self.W_a = self.W_c = self.W_s = None
        self.W_name = None
        if ablation == "no_decoder":
            self.W_name = param("W_name", (cfg.d_hidden, len(vocabs.names)))
        else:
            self.E_target = param("E_target", (len(vocabs.target), cfg.d_target))
            self.decoder = lstm("decoder", cfg.d_target, cfg.d_decoder)
            if ablation != "no_attention":
                self.W_a = param("W_a", (cfg.d_decoder, cfg.d_hidden))
                combine_in = cfg.d_hidden + cfg.d_decoder
            else:
                combine_in = cfg.d_decoder
            self.W_c = param("W_c", (combine_in, cfg.d_decoder))
            self.W_s = param("W_s", (cfg.d_decoder, len(vocabs.target)))

    @property
    def uses_paths(self) -> bool:
        return self.ablation != "no_ast_nodes"

    @property
    def uses_tokens(self) -> bool:
        return self.ablation != "no_tokens"

    @property
    def combined_input_dim(self) -> int:
        dim = 0
        if self.uses_paths:
            dim += 2 * self.cfg.d_path
        if self.uses_tokens:
            dim += 2 * self.cfg.d_tokens
        return dim

    def parameters(self) -> list[nx.Parameter]:
        return list(self._ordered)


@dataclass
class ContextIds:
    node_ids: np.ndarray
    left_ids: np.ndarray
    right_ids: np.ndarray
    left_full: int
    right_full: int
    key: str  # canonical ordering key: the rendered context string


@dataclass
class ExampleIds:
    contexts: list[ContextIds]
    target_ids: list[int]
    name_id: int


def ensure_ids(example: Example, vocabs: Vocabularies) -> ExampleIds:
    """Vocabulary-encode an example once and cache the result on it."""
    cached = getattr(example, "_ids", None)
    if cached is not None and getattr(example, "_ids_vocabs", None) is vocabs:
        return cached
    ctxs = []
    for ctx in example.contexts:
        ctxs.append(ContextIds(
            node_ids=np.asarray(vocabs.nodes.ids(ctx.path_symbols), dtype=np.intp),
            left_ids=np.asarray(vocabs.source.ids(ctx.left_subtokens), dtype=np.intp),
            right_ids=np.asarray(vocabs.source.ids(ctx.right_subtokens), dtype=np.intp),
            left_full=vocabs.source_full.id("|".join(ctx.left_subtokens)),
            right_full=vocabs.source_full.id("|".join(ctx.right_subtokens)),
            key=ctx.format(),
        ))
    ids = ExampleIds(
        contexts=ctxs,
        target_ids=vocabs.target.ids(example.target),
        name_id=vocabs.names.id("|".join(example.target)),
    )
    example._ids = ids
    example._ids_vocabs = vocabs
    return ids


@dataclass
class EncodedExample:
    Z: nx.Tensor                 # (k', d_hidden) combined representations
    order: list[int]             # original context index per row of Z
    h0: nx.Tensor                # (1, d_hidden) mean of all rows of Z


def choose_context_indices(n_contexts: int, k: int, rng: np.random.Generator,
                           training: bool) -> list[int]:
    """Indices of the contexts one iteration consumes: a fresh uniform
    sample without replacement while training, the first k (in canonical
    enumeration order) at inference."""
    if n_contexts < 1:
        raise EmptyContexts("example has no path contexts")
    if not training:
        return list(range(min(k, n_contexts)))
    return sample_paths(list(range(n_contexts)), k, rng)


def _padded_ids(id_lists: list[np.ndarray]) -> np.ndarray:
    width = max(len(ids) for ids in id_lists)
    mat = np.zeros((len(id_lists), width), dtype=np.intp)  # pad id 0
    for r, ids in enumerate(id_lists):
        mat[r, : len(ids)] = ids
    return mat


def _recurrent_mask(shape, rate: float, rng: np.random.Generator,
                    training: bool) -> np.ndarray | None:
    if not training or rate == 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _encode_rows(params: ModelParams, chosen: list[ContextIds], cfg: ModelConfig,
                 rng: np.random.Generator, training: bool) -> nx.Tensor:
    """Encode a batch of contexts at once; returns (k', d_hidden)."""
    k = len(chosen)
    parts = []
    if params.uses_paths:
        # one variational dropout mask per direction, fixed across timesteps
        fwd_mask = _recurrent_mask((k, cfg.d_path), cfg.recurrent_dropout, rng, training)
        bwd_mask = _recurrent_mask((k, cfg.d_path), cfg.recurrent_dropout, rng, training)
        lengths = [len(c.node_ids) for c in chosen]
        fwd_ids = _padded_ids([c.node_ids for c in chosen])
        bwd_ids = _padded_ids([c.node_ids[::-1] for c in chosen])
        fwd_in = [nx.embedding(params.E_nodes, fwd_ids[:, t]) for t in range(fwd_ids.shape[1])]
        bwd_in = [nx.embedding(params.E_nodes, bwd_ids[:, t]) for t in range(bwd_ids.shape[1])]
        h_fwd = nx.lstm_final_state(params.path_fwd, fwd_in, lengths, fwd_mask)
        h_bwd = nx.lstm_final_state(params.path_bwd, bwd_in, lengths, bwd_mask)
        parts.extend([h_fwd, h_bwd])
    if params.uses_tokens:
        if params.ablation == "no_token_split":
            left_lists = [np.array([c.left_full], dtype=np.intp) for c in chosen]
            right_lists = [np.array([c.right_full], dtype=np.intp) for c in chosen]
        else:
            left_lists = [c.left_ids for c in chosen]
            right_lists = [c.right_ids for c in chosen]
        for lists in (left_lists, right_lists):
            flat = np.concatenate(lists)
            starts = np.concatenate([[0], np.cumsum([len(x) for x in lists])])
            parts.append(nx.embedding_bag_sum(params.E_source, flat, starts))
    x = parts[0] if len(parts) == 1 else nx.concat(parts)
    x = nx.dropout(x, cfg.input_dropout, rng, training)
    return nx.tanh(nx.mm(x, params.W_in))


def encode_example(params: ModelParams, example: Example, cfg: ModelConfig,
                   rng: np.random.Generator, training: bool,
                   context_indices: list[int] | None = None) -> EncodedExample:
    """Sample (or accept) context indices, encode them in canonical order
    and mean-pool the start state."""
    ids = ensure_ids(example, params.vocabs)
    if not ids.contexts:
        raise EmptyContexts("example has no path contexts")
    if context_indices is None:
        context_indices = choose_context_indices(len(ids.contexts), cfg.k, rng, training)
    # canonical order makes the context set order-free: any permutation of
    # the same contexts builds the identical graph
    order = sorted(context_indices, key=lambda i: ids.contexts[i].key)
    chosen = [ids.contexts[i] for i in order]
    Z = _encode_rows(params, chosen, cfg, rng, training)
    return EncodedExample(Z=Z, order=order, h0=nx.mean_rows(Z))


def attention_step(params: ModelParams, h: nx.Tensor, Z: nx.Tensor,
                   ) -> tuple[nx.Tensor, nx.Tensor]:
    """Bilinear attention of the (n, d_decoder) state rows over the rows of
    Z: scores Z (h W_a)^T, a softmax over them as the (n, k') weights
    alpha, and the weighted averages alpha Z as the (n, d_hidden) context
    vectors."""
    scores = nx.mm(Z, nx.transpose(nx.mm(h, params.W_a)))
    alpha = nx.softmax_rows(nx.transpose(scores))
    return alpha, nx.mm(alpha, Z)


def decoder_head(params: ModelParams, h: nx.Tensor, Z: nx.Tensor,
                 ) -> tuple[nx.Tensor, nx.Tensor | None]:
    """Score (n, d_decoder) decoder states, each row on its own, against
    one example's Z: the (n, V) next-token distributions and the (n, k')
    attention rows (None without attention)."""
    alpha = None
    if params.ablation != "no_attention":
        alpha, ctx_vec = attention_step(params, h, Z)
        combined = nx.concat([ctx_vec, h])
    else:
        combined = h
    hidden = nx.tanh(nx.mm(combined, params.W_c))
    return nx.softmax_rows(nx.mm(hidden, params.W_s)), alpha


def decode_step(params: ModelParams, prev_ids: np.ndarray, h_prev: nx.Tensor,
                c_prev: nx.Tensor, enc: EncodedExample,
                ) -> tuple[nx.Tensor, nx.Tensor, nx.Tensor, nx.Tensor | None]:
    """One decoder step for n rows, such as the live beam hypotheses: embed
    each row's previous target subtoken, advance the LSTM and apply
    `decoder_head`. Returns (distribution, h_t, c_t, alpha)."""
    prev = nx.embedding(params.E_target, prev_ids)
    h_t, c_t = nx.lstm_step(params.decoder, prev, h_prev, c_prev)
    dist, alpha = decoder_head(params, h_t, enc.Z)
    return dist, h_t, c_t, alpha


def start_decoder_state(params: ModelParams, enc: EncodedExample) -> tuple[nx.Tensor, nx.Tensor]:
    """Decoder start: h0 is the pooled encoding zero-padded to the decoder
    width; the cell state starts at zero. Both are (1, d_decoder) rows."""
    width = params.cfg.d_decoder
    h = nx.concat([enc.h0, nx.constant(np.zeros((1, width - enc.h0.shape[1])))])
    return h, nx.constant(np.zeros((1, width)))


def name_distribution(params: ModelParams, enc: EncodedExample) -> nx.Tensor:
    """The no_decoder head: one softmax over whole names from h0, (1, |names|)."""
    return nx.softmax_rows(nx.mm(enc.h0, params.W_name))


def forward_loss(example: Example, params: ModelParams, cfg: ModelConfig,
                 rng: np.random.Generator, training: bool = True,
                 context_indices: list[int] | None = None) -> nx.Tensor:
    """Teacher-forced cross-entropy, averaged over the target subtokens
    plus the closing EOS. The no_decoder variant scores the whole name
    with a single softmax instead."""
    ids = ensure_ids(example, params.vocabs)
    if not example.target:
        raise ValueError("example has an empty target")
    enc = encode_example(params, example, cfg, rng, training, context_indices)
    if params.ablation == "no_decoder":
        return nx.cross_entropy(name_distribution(params, enc), [ids.name_id])
    # teacher forcing: step the decoder LSTM alone, then score all T states
    # as rows of one decoder_head call
    gold = ids.target_ids + [TARGET_EOS_ID]
    h, c = start_decoder_state(params, enc)
    states = []
    for prev in [TARGET_SOS_ID] + gold[:-1]:
        x = nx.embedding(params.E_target, np.array([prev], dtype=np.intp))
        h, c = nx.lstm_step(params.decoder, x, h, c)
        states.append(h)
    dist, _ = decoder_head(params, nx.concat(states, axis=0), enc.Z)
    return nx.cross_entropy(dist, gold)
