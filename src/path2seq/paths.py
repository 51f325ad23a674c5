"""Terminal-to-terminal tree paths: enumeration, rendering, sampling, and
the token splitting that turns identifiers into lowercase subtokens.

A path runs from one value-carrying leaf up to the lowest common ancestor
and down to another leaf. Interior nodes render as KIND^ on the climb,
bare KIND at the apex and KIND_ on the descent, which keeps the rendered
vocabulary bounded by three symbols per kind regardless of tree arity.

Leaves holding the reserved MASKED_NAME value are the prediction target
slot and never take part in paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ast_core import Ast, AstNode, MASKED_NAME, terminals
from .errors import Path2SeqError


class TooFewTerminals(Path2SeqError):
    kind = "too-few-terminals"


class MalformedDatasetLine(Path2SeqError):
    kind = "malformed-dataset-line"


class Direction(Enum):
    UP = "^"
    DOWN = "_"


@dataclass(frozen=True)
class ExtractionConfig:
    max_path_length: int = 9  # interior (nonterminal) nodes per path
    max_paths_per_example: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        if self.max_paths_per_example < 1:
            raise ValueError("max_paths_per_example must be >= 1")


@dataclass(frozen=True)
class AstPath:
    """Interior steps between two leaves. The steps are a run of UPs ending
    at the apex (the lowest common ancestor) followed by a run of DOWNs;
    the apex is the last UP step."""

    steps: tuple[tuple[str, Direction], ...]  # (kind name, leg direction)
    left: AstNode
    right: AstNode


@dataclass(frozen=True)
class PathContext:
    left_subtokens: tuple[str, ...]
    path_symbols: tuple[str, ...]
    right_subtokens: tuple[str, ...]

    def format(self) -> str:
        return ",".join(("|".join(self.left_subtokens),
                         "|".join(self.path_symbols),
                         "|".join(self.right_subtokens)))


@dataclass
class Example:
    """One sample: every path context of a snippet plus the target subtoken
    sequence. Down-sampling to k contexts happens per training iteration,
    not here."""

    contexts: list[PathContext]
    target: list[str]
    index: int = 0


def path_terminals(ast: Ast) -> list[AstNode]:
    """Leaves eligible as path endpoints: every terminal except the masked
    target slot."""
    return [t for t in terminals(ast) if t.value != MASKED_NAME]


def enumerate_paths(ast: Ast, cfg: ExtractionConfig) -> list[AstPath]:
    """All pairwise paths between eligible leaves, left endpoint first,
    ordered by (left id, right id), keeping paths whose interior node
    count is at most cfg.max_path_length."""
    terms = path_terminals(ast)
    if len(terms) < 2:
        raise TooFewTerminals(f"need at least 2 path terminals, found {len(terms)}")
    parents = ast.parents
    depths = ast.depths()
    kinds = [None if n.is_terminal else n.kind.name for n in ast.nodes]

    out = []
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            a, b = terms[i].node_id, terms[j].node_id
            up = []  # node ids from a's parent to the apex, inclusive
            down = []  # node ids from b's parent up to just below the apex
            x, y = a, b
            while depths[x] > depths[y]:
                x = parents[x]
                up.append(x)
            while depths[y] > depths[x]:
                y = parents[y]
                down.append(y)
            while x != y:
                x = parents[x]
                up.append(x)
                y = parents[y]
                down.append(y)
            if down and down[-1] == x:
                down.pop()
            if len(up) + len(down) > cfg.max_path_length:
                continue
            steps = tuple((kinds[n], Direction.UP) for n in up) + \
                tuple((kinds[n], Direction.DOWN) for n in reversed(down))
            out.append(AstPath(steps=steps, left=terms[i], right=terms[j]))
    return out


def render_path_symbols(path: AstPath) -> list[str]:
    """Interior nodes as vocabulary symbols: KIND^ on the climb, bare KIND
    at the apex, KIND_ on the descent."""
    symbols = []
    apex = max(i for i, (_, d) in enumerate(path.steps) if d is Direction.UP)
    for i, (kind, direction) in enumerate(path.steps):
        if i == apex:
            symbols.append(kind)
        else:
            symbols.append(kind + direction.value)
    return symbols


_BOUNDARY = re.compile(
    r"(?<=[a-z0-9])(?=[A-Z])"        # camelCase
    r"|(?<=[A-Z])(?=[A-Z][a-z])"     # acronym tail: HTTPServer -> HTTP Server
    r"|(?<=[0-9])(?=[A-Za-z])"       # digit -> letter
    r"|(?<=[A-Za-z])(?=[0-9])"       # letter -> digit
)
_SEPARATORS = re.compile(r"[^0-9A-Za-z]+")


def split_subtokens(token: str) -> list[str]:
    """Lowercase subtokens of an identifier or literal.

    Splits at camelCase and letter/digit boundaries and on every
    non-alphanumeric character (underscore, dollar, punctuation), then
    lowercases. A token with no alphanumeric content maps to ["_"] so
    downstream fields are never empty.
    """
    if not token:
        raise ValueError("token must be non-empty")
    pieces = []
    for run in _SEPARATORS.split(token):
        for piece in _BOUNDARY.split(run):
            if piece:
                pieces.append(piece.lower())
    return pieces or ["_"]


def sample_paths(paths: list, k: int, rng: np.random.Generator) -> list:
    """Uniform sample of k items without replacement, keeping the original
    relative order; everything is returned when k covers the list."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(paths) <= k:
        return list(paths)
    idx = rng.choice(len(paths), size=k, replace=False)
    idx.sort()
    return [paths[i] for i in idx]


def path_to_context(path: AstPath) -> PathContext:
    return PathContext(
        left_subtokens=tuple(split_subtokens(path.left.value)),
        path_symbols=tuple(render_path_symbols(path)),
        right_subtokens=tuple(split_subtokens(path.right.value)),
    )


def build_example(ast: Ast, target: str, cfg: ExtractionConfig) -> Example:
    """Path contexts of a (masked) tree plus the split target sequence."""
    paths = enumerate_paths(ast, cfg)
    return Example(contexts=[path_to_context(p) for p in paths],
                   target=split_subtokens(target))


# --- dataset line format ---
#
# One example per line: `target ctx ctx ...` where target is the target
# subtokens joined by `|` and each ctx is `left,path,right` with the three
# fields `|`-joined. Fields are never empty and contain no spaces.

def format_example(example: Example) -> str:
    if not example.target or not example.contexts:
        raise ValueError("example needs a target and at least one context")
    return " ".join(["|".join(example.target)] + [c.format() for c in example.contexts])


def parse_example_line(line: str, index: int = 0) -> Example:
    line = line.rstrip("\n")
    parts = line.split(" ")
    if len(parts) < 2:
        raise MalformedDatasetLine(f"example line needs a target and contexts: {line[:60]!r}")
    target = parts[0].split("|")
    if any(not t for t in target):
        raise MalformedDatasetLine("empty target subtoken")
    contexts = []
    for raw in parts[1:]:
        fields = raw.split(",")
        if len(fields) != 3 or any(not f for f in fields):
            raise MalformedDatasetLine(f"bad context field: {raw[:60]!r}")
        contexts.append(PathContext(
            left_subtokens=tuple(fields[0].split("|")),
            path_symbols=tuple(fields[1].split("|")),
            right_subtokens=tuple(fields[2].split("|")),
        ))
    return Example(contexts=contexts, target=target, index=index)


def write_dataset(path, examples: list[Example]):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(format_example(ex))
            fh.write("\n")


def read_dataset(path) -> list[Example]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if line.strip():
                out.append(parse_example_line(line, index=i))
    return out
