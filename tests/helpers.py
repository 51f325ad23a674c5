"""Shared test utilities: synthetic corpus generation, random tree
generation and the independent oracles the unit tests compare against."""

from __future__ import annotations

import numpy as np

from path2seq.ast_core import Ast, AstNode, NodeKind, node, terminal
from path2seq.minij import SourceUnit, extract_target_name, parse_method

VERBS = ("get", "set", "add", "reset", "inc")
NOUNS = ("width", "height", "total", "index", "value", "cache", "buffer",
         "score", "limit", "offset", "weight", "depth", "size", "rank",
         "count", "span", "step", "gain", "mass", "tilt")

# Each verb has a structurally distinct, compact body; the noun variable
# carries the name's noun subtokens. Bodies stay small enough that every
# example has fewer contexts than the usual sampling cap, so training and
# inference consume identical context sets. `needs_param` marks templates
# whose body reads the first parameter.
_BODY_TEMPLATES = {
    "get": ("int {name}({params}) {{ return {var}; }}", False),
    "set": ("void {name}({params}) {{ {var} = {p0}; }}", True),
    "add": ("void {name}({params}) {{ {var} = {var} + {p0}; }}", True),
    "reset": ("void {name}({params}) {{ {var} = {lit}; }}", False),
    "inc": ("void {name}({params}) {{ {var}++; }}", False),
}
_PARAM_POOL = ("a", "b", "n", "v", "m", "q")


def camel(subtokens) -> str:
    head, *rest = subtokens
    return head + "".join(w.capitalize() for w in rest)


def synth_method(verb: str, nouns: tuple[str, ...], rng: np.random.Generator,
                 extra_params: int = 0) -> tuple[str, str]:
    """One MiniJ method whose name is verb + nouns; returns (name, source)."""
    name = camel((verb,) + nouns)
    var = camel(nouns)
    template, needs_param = _BODY_TEMPLATES[verb]
    order = rng.permutation(len(_PARAM_POOL))
    params = [_PARAM_POOL[order[i]] for i in range(int(needs_param) + extra_params)]
    fills = {
        "name": name,
        "var": var,
        "p0": params[0] if params else "",
        "lit": str(rng.integers(0, 100)),
        "params": ", ".join(f"int {p}" for p in params),
    }
    return name, template.format(**fills)


def synth_corpus(n: int, seed: int, n_verbs: int = len(VERBS),
                 n_nouns: int = len(NOUNS)) -> list[tuple[str, str]]:
    """Distinct (name, source) pairs covering verb x noun combinations."""
    rng = np.random.default_rng(seed)
    combos = [(verb, (noun,)) for verb in VERBS[:n_verbs] for noun in NOUNS[:n_nouns]]
    if len(combos) < n:
        raise ValueError(f"only {len(combos)} distinct combos available, wanted {n}")
    picked = rng.permutation(len(combos))[:n]
    return [synth_method(*combos[i], rng) for i in sorted(picked)]


def synth_split(seed: int, n_train: int = 900, n_test: int = 100,
                held_out_combos: int = 10) -> tuple[list, list]:
    """Train/test corpora where every test method name is an unseen
    verb+noun combination of subtokens that each appear in training.

    Surface variety (parameter names, literals, an optional unused extra
    parameter) makes repeated combos distinct methods.
    """
    rng = np.random.default_rng(seed)
    combos = [(verb, (noun,)) for verb in VERBS for noun in NOUNS]
    order = rng.permutation(len(combos))
    held = [combos[i] for i in order[:held_out_combos]]
    seen = [combos[i] for i in order[held_out_combos:]]
    held_verbs = {v for v, _ in held}
    held_nouns = {n[0] for _, n in held}
    assert held_verbs <= {v for v, _ in seen} and \
        held_nouns <= {n[0] for _, n in seen}, "held-out subtokens must be seen"

    def variants(pool, count):
        out = []
        for i in range(count):
            verb, nouns = pool[i % len(pool)]
            out.append(synth_method(verb, nouns, rng, extra_params=int(rng.integers(0, 2))))
        return out

    return variants(seen, n_train), variants(held, n_test)


def corpus_examples(pairs, ecfg):
    """Parse synthetic methods into masked examples."""
    from path2seq.paths import build_example

    out = []
    for i, (name, source) in enumerate(pairs):
        ast = parse_method(SourceUnit(source))
        masked, extracted = extract_target_name(ast)
        assert extracted == name
        ex = build_example(masked, extracted, ecfg)
        ex.index = i
        out.append(ex)
    return out


# --- toy model fixtures ---

def toy_examples(n: int = 12):
    """Tiny hand-shaped examples whose targets appear in their contexts."""
    from path2seq.paths import Example, PathContext

    words = ["alpha", "beta", "gamma", "delta"]
    out = []
    for i in range(n):
        a, b = words[i % 4], words[(i * 3 + 1) % 4]
        ctxs = [
            PathContext((a,), ("P^", "Q", "R_"), (b,)),
            PathContext((b,), ("Q",), (a,)),
            PathContext((a, b), ("P^", "Q"), ("end",)),
        ]
        out.append(Example(contexts=ctxs, target=[a, b], index=i))
    return out


def tiny_setup(examples=None, ablation="full", seed=1, **cfg_kw):
    """(examples, vocabs, cfg, params) with 4-dimensional everything."""
    from path2seq.model import ModelConfig, ModelParams
    from path2seq.vocab import build_vocabularies

    examples = examples if examples is not None else toy_examples()
    vocabs = build_vocabularies(examples)
    defaults = dict(d_nodes=4, d_tokens=4, d_hidden=4, d_target=4, d_path=4,
                    d_decoder=4, k=3, input_dropout=0.0, recurrent_dropout=0.0,
                    max_target_len=5)
    defaults.update(cfg_kw)
    cfg = ModelConfig(**defaults)
    params = ModelParams(cfg, vocabs, ablation=ablation, seed=seed)
    return examples, vocabs, cfg, params


def record_context_samples(monkeypatch) -> list[tuple[str, int, tuple[int, ...]]]:
    """Wrap the trainer's `forward_loss` so every training call logs
    (ablation, example index, context indices) in call order."""
    from path2seq import training

    calls = []
    real = training.forward_loss

    def recording(example, params, *args, **kwargs):
        calls.append((params.ablation, example.index, tuple(kwargs["context_indices"])))
        return real(example, params, *args, **kwargs)

    monkeypatch.setattr(training, "forward_loss", recording)
    return calls


# --- graph ops the tests need and the package does not ---

def add(a, b):
    """Elementwise a + b as a graph node."""
    from path2seq import numerics as nx

    assert a.shape == b.shape, (a.shape, b.shape)
    return nx.Tensor(a.data + b.data, (a, b), lambda g: ((a, g), (b, g)))


def mul(a, b):
    """Elementwise a * b as a graph node."""
    from path2seq import numerics as nx

    assert a.shape == b.shape, (a.shape, b.shape)
    return nx.Tensor(a.data * b.data, (a, b),
                     lambda g: ((a, g * b.data), (b, g * a.data)))


def sigmoid(a):
    from path2seq import numerics as nx

    out = 1.0 / (1.0 + np.exp(-a.data))
    return nx.Tensor(out, (a,), lambda g: ((a, g * out * (1.0 - out)),))


def columns(m, lo: int, hi: int):
    """Columns lo:hi of a matrix (entries of a vector) as a graph node."""
    from path2seq import numerics as nx

    def bw(g):
        acc = np.zeros_like(m.data)
        acc[..., lo:hi] = g
        return ((m, acc),)

    return nx.Tensor(m.data[..., lo:hi], (m,), bw)


def gate_block(cell, gate: str, array):
    """One gate's columns of a fused LSTM gate matrix or bias (or of any
    array laid out like them)."""
    g = cell.GATES.index(gate)
    return array[..., g * cell.hidden_size: (g + 1) * cell.hidden_size]


def reference_lstm_step(cell, x, h, c):
    """One LSTM step built per gate from the blocks of W and b, with one
    matmul, bias and activation node per gate and generic elementwise
    nodes: the graph the fused `lstm_step` replaces."""
    from path2seq import numerics as nx

    joint = nx.concat([x, h])

    def gate(name, activation):
        g, hs = cell.GATES.index(name), cell.hidden_size
        w = columns(cell.W, g * hs, (g + 1) * hs)
        return activation(nx.add_bias(nx.mm(joint, w), columns(cell.b, g * hs, (g + 1) * hs)))

    i, f, o = (gate(name, sigmoid) for name in ("input", "forget", "output"))
    c_t = add(mul(f, c), mul(i, gate("candidate", nx.tanh)))
    return mul(o, nx.tanh(c_t)), c_t


# --- per-step references for the row-batched decoder ---

def reference_step_loss(example, params, cfg, rng, training=True):
    """The teacher-forced loss built one step at a time: one per-gate
    `reference_lstm_step`, one single-row `decoder_head` and one
    `cross_entropy` per target subtoken plus EOS, averaged as a chain of
    adds. `forward_loss` must match it."""
    from path2seq import numerics as nx
    from path2seq.model import (TARGET_EOS_ID, TARGET_SOS_ID, decoder_head,
                                encode_example, ensure_ids, start_decoder_state)

    gold_ids = ensure_ids(example, params.vocabs).target_ids + [TARGET_EOS_ID]
    enc = encode_example(params, example, cfg, rng, training)
    h, c = start_decoder_state(params, enc)
    total, prev = None, TARGET_SOS_ID
    for gold in gold_ids:
        x = nx.embedding(params.E_target, np.array([prev], dtype=np.intp))
        h, c = reference_lstm_step(params.decoder, x, h, c)
        dist, _ = decoder_head(params, h, enc.Z)
        loss = nx.cross_entropy(dist, [gold])
        total = loss if total is None else add(total, loss)
        prev = gold
    return nx.mul_const(total, 1.0 / len(gold_ids))


def decode_step_row(params, prev_id, h, c, enc):
    from path2seq.model import decode_step

    return decode_step(params, np.array([prev_id], dtype=np.intp), h, c, enc)


def reference_beam(example, params, cfg, beam_width):
    """Beam search that advances each live hypothesis with its own
    single-row `decode_step`, ranking each hypothesis's tokens by total
    score. `beam_decode` must return the same predictions."""
    from path2seq.decoding import Prediction, _trace_row
    from path2seq.model import (TARGET_EOS_ID, TARGET_PAD_ID, TARGET_SOS_ID,
                                encode_example, start_decoder_state)

    enc = encode_example(params, example, cfg, rng=None, training=False)
    h0, c0 = start_decoder_state(params, enc)
    live = [([], 0.0, h0, c0, [])]  # (tokens, score, h, c, trace)
    finished = []

    def finish(tokens, score, trace):
        finished.append(Prediction(
            subtokens=[params.vocabs.target.symbol(t) for t in tokens], score=score,
            attention_trace=list(trace), n_contexts=len(example.contexts)))

    for step in range(cfg.max_target_len + 1):
        if not live:
            break
        expansions, candidates = [], []
        for li, (tokens, score, h, c, trace) in enumerate(live):
            dist, h2, c2, alpha = decode_step_row(
                params, tokens[-1] if tokens else TARGET_SOS_ID, h, c, enc)
            logp = np.log(np.maximum(dist.data[0], 1e-300))
            logp[[TARGET_PAD_ID, TARGET_SOS_ID]] = -np.inf
            expansions.append((h2, c2, alpha, logp))
            if step >= cfg.max_target_len:
                finish(tokens, score + float(logp[TARGET_EOS_ID]), trace)
                continue
            neg = -(score + logp)
            for token in np.argsort(neg, kind="stable")[: beam_width]:
                if np.isfinite(neg[token]):
                    candidates.append((neg[token], li, int(token)))
        if step >= cfg.max_target_len:
            break
        candidates.sort()
        next_live = []
        for _, li, token in candidates[: beam_width]:
            tokens, score, _, _, trace = live[li]
            h2, c2, alpha, logp = expansions[li]
            if token == TARGET_EOS_ID:
                finish(tokens, score + float(logp[token]), trace)
                continue
            row = [] if alpha is None else [_trace_row(alpha.data[0], enc.order)]
            next_live.append((tokens + [token], score + float(logp[token]), h2, c2,
                              trace + row))
        live = next_live
    finished.sort(key=lambda p: -p.normalized_score)
    return finished[: beam_width]


# --- random trees and the brute-force path oracle ---

def random_tree(rng: np.random.Generator, max_terminals: int = 12) -> Ast:
    """A random well-formed tree with value-carrying leaves."""
    kinds = [NodeKind(f"K{i}") for i in range(6)]
    values = ["a", "b", "c", "d", "e"]
    budget = rng.integers(2, max_terminals + 1)

    def grow(depth: int, terminals_left: list[int]) -> AstNode:
        if depth > 4 or (terminals_left[0] <= 1 and rng.random() < 0.7):
            if terminals_left[0] > 0:
                terminals_left[0] -= 1
                return terminal(str(rng.choice(values)))
            return terminal(str(rng.choice(values)))
        width = int(rng.integers(1, 4))
        children = []
        for _ in range(width):
            if terminals_left[0] > 0 and rng.random() < 0.55:
                terminals_left[0] -= 1
                children.append(terminal(str(rng.choice(values))))
            else:
                children.append(grow(depth + 1, terminals_left))
        return node(kinds[int(rng.integers(0, len(kinds)))], *children)

    root = grow(0, [int(budget)])
    while root.is_terminal:
        root = node(kinds[0], root, terminal("x"))
    return Ast(root)


def structurally_equal(left: Ast, right: Ast) -> bool:
    """Compare kind names, terminal values and child shapes; ignores ids."""
    stack = [(left.root, right.root)]
    while stack:
        x, y = stack.pop()
        if x.is_terminal != y.is_terminal:
            return False
        if x.is_terminal:
            if x.value != y.value:
                return False
            continue
        if x.kind.name != y.kind.name or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def oracle_ancestor_chain(ast: Ast, node_id: int) -> list[int]:
    chain = [node_id]
    while ast.parents[chain[-1]] != -1:
        chain.append(ast.parents[chain[-1]])
    return chain


def oracle_lca(ast: Ast, a: int, b: int) -> int:
    """LCA by intersecting full ancestor chains."""
    chain_a = oracle_ancestor_chain(ast, a)
    chain_b = set(oracle_ancestor_chain(ast, b))
    for n in chain_a:
        if n in chain_b:
            return n
    raise AssertionError("disconnected tree")


def oracle_paths(ast: Ast, max_interior: int) -> set[tuple]:
    """Brute-force path enumeration: all terminal pairs by DFS, paths built
    by joining full ancestor chains at the LCA. Returns a comparable set of
    (left id, interior (kind, direction) steps, right id)."""
    from path2seq.paths import Direction, path_terminals

    terms = path_terminals(ast)
    found = set()
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            a, b = terms[i].node_id, terms[j].node_id
            lca = oracle_lca(ast, a, b)
            up_ids = []
            x = ast.parents[a]
            while x != lca:
                up_ids.append(x)
                x = ast.parents[x]
            up_ids.append(lca)
            down_ids = []
            y = ast.parents[b]
            while y != lca:
                down_ids.append(y)
                y = ast.parents[y]
            down_ids.reverse()
            if len(up_ids) + len(down_ids) > max_interior:
                continue
            steps = tuple((ast.nodes[n].kind.name, Direction.UP) for n in up_ids) + \
                tuple((ast.nodes[n].kind.name, Direction.DOWN) for n in down_ids)
            found.add((a, steps, b))
    return found


def random_minij_method(rng: np.random.Generator) -> str:
    """A random small MiniJ method built from statement templates."""
    names = ["x", "y", "count", "total", "flag", "item"]
    exprs = [
        lambda: f"{rng.choice(names)}",
        lambda: f"{int(rng.integers(0, 50))}",
        lambda: f"{rng.choice(names)} + {int(rng.integers(1, 9))}",
        lambda: f"{rng.choice(names)}.size()",
        lambda: f"{rng.choice(names)}[{int(rng.integers(0, 5))}]",
    ]
    stmts = [
        lambda: f"int {rng.choice(names)} = {exprs[int(rng.integers(0, len(exprs)))]()};",
        lambda: f"{rng.choice(names)} = {exprs[int(rng.integers(0, len(exprs)))]()};",
        lambda: f"{rng.choice(names)}++;",
        lambda: f"if ({rng.choice(names)} > {int(rng.integers(0, 9))}) {rng.choice(names)}++;",
        lambda: f"while ({rng.choice(names)} < {int(rng.integers(1, 9))}) {rng.choice(names)}++;",
        lambda: f"do {rng.choice(names)}++; while ({rng.choice(names)} != {int(rng.integers(0, 9))});",
    ]
    body = " ".join(stmts[int(rng.integers(0, len(stmts)))]()
                    for _ in range(int(rng.integers(1, 4))))
    ret = f"return {rng.choice(names)};"
    return f"int m(int x) {{ {body} {ret} }}"
