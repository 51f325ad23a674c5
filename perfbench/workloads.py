"""Seeded MiniJ corpus generators, one per benchmark workload.

Each generator returns a list of MiniJ method sources; the same seed
always gives the same list. The program under test only ever sees the
generated text, written to `.mnj` files.

- templated-short: verb+noun getter/setter templates. Few contexts per
  method, a tiny vocabulary and heavy path reuse across a batch, so the
  per-op cost of the autograd graph dominates.
- long-methods: random methods of 6-16 compound statements. Every method
  yields far more contexts than the sampling cap k, so extraction and the
  path encoder dominate.
- wide-vocab: identifiers built from a generated lexicon of thousands of
  words, so embedding tables, the output softmax, the optimizer update and
  the checkpoint are large.
"""

from __future__ import annotations

import numpy as np


def camel(words) -> str:
    head, *rest = words
    return head + "".join(w.capitalize() for w in rest)


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(0, len(items)))]


# --- templated-short ---

VERBS = ("get", "set", "add", "reset", "inc", "dec", "scale", "clear")
NOUNS = ("width", "height", "total", "index", "value", "cache", "buffer",
         "score", "limit", "offset", "weight", "depth", "size", "rank",
         "count", "span", "step", "gain", "mass", "tilt", "speed", "angle",
         "level", "price")
PARAMS = ("a", "b", "n", "v", "m", "q", "t", "k")

# One structurally distinct body per verb; `{var}` carries the name's
# nouns, so the target subtokens also appear among the source tokens.
TEMPLATES = {
    "get": "int {name}({params}) {{ return {var}; }}",
    "set": "void {name}({params}) {{ {var} = {p0}; }}",
    "add": "void {name}({params}) {{ {var} = {var} + {p0}; }}",
    "reset": "void {name}({params}) {{ {var} = {lit}; }}",
    "inc": "void {name}({params}) {{ {var}++; }}",
    "dec": "void {name}({params}) {{ {var}--; }}",
    "scale": "int {name}({params}) {{ return {var} * {p0}; }}",
    "clear": "void {name}({params}) {{ if ({var} > {lit}) {var} = 0; }}",
}
NEEDS_PARAM = frozenset(("set", "add", "scale"))


def templated_short(n: int, seed: int) -> list[str]:
    rng = np.random.default_rng((seed, 1))
    out = []
    for _ in range(n):
        verb = _pick(rng, VERBS)
        nouns = [_pick(rng, NOUNS) for _ in range(int(rng.integers(1, 3)))]
        n_params = int(verb in NEEDS_PARAM) + int(rng.integers(0, 2))
        order = rng.permutation(len(PARAMS))
        params = [PARAMS[order[i]] for i in range(n_params)]
        out.append(TEMPLATES[verb].format(
            name=camel([verb] + nouns), var=camel(nouns),
            p0=params[0] if params else "",
            lit=int(rng.integers(0, 100)),
            params=", ".join(f"int {p}" for p in params)))
    return out


# --- long-methods ---

_LOCALS = ("x", "y", "count", "total", "flag", "item", "sum", "acc", "idx",
           "limit", "buf", "node", "left", "right", "tmp", "result")
_FIELDS = ("size", "length", "head", "next", "value", "parent")
_CALLS = ("compute", "update", "merge", "check", "visit", "emit", "push", "pop")
_NAME_VERBS = ("process", "compute", "update", "merge", "scan", "build",
               "apply", "collect", "reduce", "visit")
_NAME_NOUNS = ("items", "nodes", "buffer", "state", "tree", "matrix",
               "queue", "graph", "table", "range")


class _LongMethod:
    """Random compound statements over a small name pool; the structure,
    not the vocabulary, carries the cost."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def atom(self) -> str:
        r = self.rng.random()
        if r < 0.55:
            return _pick(self.rng, _LOCALS)
        if r < 0.8:
            return str(int(self.rng.integers(0, 64)))
        if r < 0.9:
            return f"{_pick(self.rng, _LOCALS)}.{_pick(self.rng, _FIELDS)}"
        return f"{_pick(self.rng, _LOCALS)}[{_pick(self.rng, _LOCALS)}]"

    def expr(self, depth: int = 0) -> str:
        r = self.rng.random()
        if depth >= 1 or r < 0.4:
            return self.atom()
        if r < 0.75:
            op = _pick(self.rng, ("+", "-", "*", "/", "%"))
            return f"{self.expr(depth + 1)} {op} {self.expr(depth + 1)}"
        args = ", ".join(self.expr(depth + 1) for _ in range(int(self.rng.integers(1, 3))))
        return f"{_pick(self.rng, _CALLS)}({args})"

    def cond(self) -> str:
        op = _pick(self.rng, ("<", ">", "<=", ">=", "==", "!="))
        return f"{self.expr(1)} {op} {self.expr(1)}"

    def simple(self) -> str:
        r = self.rng.random()
        if r < 0.35:
            return f"{_pick(self.rng, _LOCALS)} = {self.expr()};"
        if r < 0.5:
            return f"int {_pick(self.rng, _LOCALS)} = {self.expr()};"
        if r < 0.65:
            return f"{_pick(self.rng, _CALLS)}({self.expr(1)});"
        return f"{_pick(self.rng, _LOCALS)}++;"

    def block(self, depth: int) -> str:
        n = int(self.rng.integers(1, 3))
        return "{ " + " ".join(self.statement(depth + 1) for _ in range(n)) + " }"

    def compound(self, depth: int) -> str:
        r = self.rng.random()
        if r < 0.35:
            tail = f" else {self.block(depth)}" if self.rng.random() < 0.3 else ""
            return f"if ({self.cond()}) {self.block(depth)}{tail}"
        if r < 0.7:
            return f"while ({self.cond()}) {self.block(depth)}"
        if r < 0.85:
            v = _pick(self.rng, _LOCALS)
            return (f"for (int {v} = 0; {v} < {self.expr(1)}; {v}++) "
                    f"{self.block(depth)}")
        return f"do {self.block(depth)} while ({self.cond()});"

    def statement(self, depth: int) -> str:
        if depth < 1 and self.rng.random() < 0.25:
            return self.compound(depth)
        return self.simple()

    def method(self, n_statements: int) -> str:
        name = camel([_pick(self.rng, _NAME_VERBS), _pick(self.rng, _NAME_NOUNS)])
        body = " ".join(self.compound(0) for _ in range(n_statements))
        return f"int {name}(int x, int y) {{ {body} return {_pick(self.rng, _LOCALS)}; }}"


def long_methods(n: int, seed: int) -> list[str]:
    rng = np.random.default_rng((seed, 2))
    gen = _LongMethod(rng)
    # statement counts cycle through 6..16 so every corpus has the same
    # size mix and its mean cost depends little on the seed
    return [gen.method(6 + i % 11) for i in range(n)]


# --- wide-vocab ---

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "cr", "dr", "fl", "gr", "pl", "st",
           "tr", "sh", "ch", "th", "qu")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "n", "r", "s", "t", "l", "x", "m", "nd", "st")
_KEYWORDS = frozenset(("false", "true", "while", "return", "boolean"))
LEXICON_SIZE = 6000


def lexicon(size: int, rng: np.random.Generator) -> list[str]:
    """`size` distinct pronounceable lowercase words of two syllables."""
    words: set[str] = set()
    while len(words) < size:
        word = "".join(_pick(rng, _ONSETS) + _pick(rng, _VOWELS) + _pick(rng, _CODAS)
                       for _ in range(2))
        if word not in _KEYWORDS:
            words.add(word)
    return sorted(words)


def wide_vocab(n: int, seed: int) -> list[str]:
    rng = np.random.default_rng((seed, 3))
    words = lexicon(LEXICON_SIZE, rng)

    def ident(lo: int = 2, hi: int = 5) -> str:
        return camel([_pick(rng, words) for _ in range(int(rng.integers(lo, hi + 1)))])

    out = []
    for _ in range(n):
        params = [ident(1, 2) for _ in range(int(rng.integers(1, 3)))]
        local = ident(1, 2)
        field = ident(1, 2)
        call = f"{local} = {ident()}({local}, {_pick(rng, params)});"
        out.append(f"int {ident()}({', '.join(f'int {p}' for p in params)}) "
                   f"{{ int {local} = {params[0]}.{field}; {call} return {local}; }}")
    return out


GENERATORS = {
    "templated-short": templated_short,
    "long-methods": long_methods,
    "wide-vocab": wide_vocab,
}
