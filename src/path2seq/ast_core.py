"""Tree model for parsed source code.

A tree consists of nonterminal nodes labelled with a `NodeKind` and leaf
terminals that carry a string value (identifiers, literal text, type
names). Trees are built bottom-up from `AstNode`s and then wrapped in an
`Ast`, which assigns pre-order node ids and derives the parent index.
After wrapping, the structure is treated as immutable: everything here
only reads it, and concurrent read-only use is safe.

The text format understood by `serialize_ast` / `parse_ast_text` is a
parenthesized prefix form, one parenthesis group per node:

    (MethodDecl (PrimitiveType (NAME "int")) (NAME "f") (Block))

`NAME` is the reserved tag for terminals; the quoted value supports
`\\"` and `\\\\` escapes. Whitespace between tokens is insignificant.
External parsers can produce this format directly, bypassing the
built-in language frontend.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Path2SeqError

# Tag used for terminals in the text format. Never a nonterminal kind.
TERMINAL_TAG = "NAME"

# Reserved terminal value standing in for a masked prediction target.
MASKED_NAME = "METHOD_NAME"

_FORBIDDEN_IN_KIND = set(" \t\r\n,|")


class MalformedAstText(Path2SeqError):
    """Raised by `parse_ast_text`; `offset` is a byte offset into the input."""

    kind = "malformed-text"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class NodeKind:
    """Symbolic label of a nonterminal, e.g. MethodDecl or BinaryExpr:+.

    `variadic` kinds accept any child count; fixed kinds have a shape
    the producing parser is responsible for.
    """

    name: str
    variadic: bool = True

    def __post_init__(self):
        if not self.name or any(c in _FORBIDDEN_IN_KIND for c in self.name):
            raise ValueError(f"illegal kind name: {self.name!r}")
        if self.name == TERMINAL_TAG:
            raise ValueError(f"{TERMINAL_TAG!r} is reserved for terminals")

    def __str__(self) -> str:
        return self.name


class AstNode:
    """One node: either a nonterminal (kind + children) or a terminal
    (non-empty value, no children). `node_id` is assigned by `Ast`."""

    __slots__ = ("kind", "value", "children", "node_id")

    def __init__(self, kind: NodeKind | None = None, value: str | None = None,
                 children: tuple["AstNode", ...] = ()):
        if value is not None:
            if kind is not None or children:
                raise ValueError("terminal nodes carry only a value")
            if value == "":
                raise ValueError("terminal value must be non-empty")
        elif kind is None:
            raise ValueError("nonterminal nodes need a kind")
        self.kind = kind
        self.value = value
        self.children = tuple(children)
        self.node_id = -1

    @property
    def is_terminal(self) -> bool:
        return self.value is not None

    def __repr__(self) -> str:
        if self.is_terminal:
            return f"AstNode(value={self.value!r})"
        return f"AstNode({self.kind.name}, {len(self.children)} children)"


def terminal(value: str) -> AstNode:
    return AstNode(value=value)


def node(kind: NodeKind, *children: AstNode) -> AstNode:
    return AstNode(kind=kind, children=children)


class Ast:
    """A rooted tree with pre-order node ids in [0, len(nodes)) and a
    parent index (root's parent is -1)."""

    def __init__(self, root: AstNode):
        self.root = root
        self.nodes: list[AstNode] = []
        self.parents: list[int] = []
        stack = [(root, -1)]
        while stack:
            cur, parent_id = stack.pop()
            cur.node_id = len(self.nodes)
            self.nodes.append(cur)
            self.parents.append(parent_id)
            for child in reversed(cur.children):
                stack.append((child, cur.node_id))

    def depths(self) -> list[int]:
        # parents precede children in pre-order, so one forward pass works
        out = [0] * len(self.nodes)
        for i in range(1, len(self.nodes)):
            out[i] = out[self.parents[i]] + 1
        return out


def terminals(ast: Ast) -> list[AstNode]:
    """All value-carrying leaves in left-to-right source order.

    Pre-order visits leaves left to right, so the stored node order is
    already the one we want; the result is stable across calls.
    """
    return [n for n in ast.nodes if n.is_terminal]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def serialize_ast(ast: Ast) -> str:
    parts: list[str] = []
    stack: list[AstNode | None] = [ast.root]
    while stack:
        cur = stack.pop()
        if cur is None:
            parts.append(")")
            continue
        if cur.is_terminal:
            parts.append(f'({TERMINAL_TAG} "{_escape(cur.value)}")')
            continue
        parts.append(f"({cur.kind.name}")
        stack.append(None)
        for child in reversed(cur.children):
            stack.append(child)
    return " ".join(parts).replace("( ", "(").replace(" )", ")")


class _TextCursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def byte_offset(self) -> int:
        return len(self.text[: self.pos].encode("utf-8"))

    def fail(self, message: str):
        raise MalformedAstText(message, self.byte_offset())

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def read_symbol(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in '()"' \
                and not self.text[self.pos].isspace():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a kind name")
        return self.text[start: self.pos]

    def read_quoted(self) -> str:
        self.expect('"')
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated quoted value")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.pos >= len(self.text):
                    self.fail("dangling escape")
                nxt = self.text[self.pos]
                self.pos += 1
                if nxt not in ('"', "\\"):
                    self.fail(f"unknown escape \\{nxt}")
                out.append(nxt)
            else:
                out.append(ch)


def parse_ast_text(text: str) -> Ast:
    """Parse the parenthesized text format back into an `Ast`.

    Round-trips `serialize_ast` exactly (structural equality). Raises
    `MalformedAstText` with a byte offset on any syntax problem.
    """
    cur = _TextCursor(text)
    if cur.peek() is None:
        cur.fail("empty input")
    root = _parse_node(cur)
    if cur.peek() is not None:
        cur.fail("trailing content after tree")
    return Ast(root)


def _parse_node(cur: _TextCursor) -> AstNode:
    cur.expect("(")
    name = cur.read_symbol()
    if name == TERMINAL_TAG:
        value = cur.read_quoted()
        if value == "":
            cur.fail("terminal value must be non-empty")
        cur.expect(")")
        return AstNode(value=value)
    try:
        kind = NodeKind(name)
    except ValueError as exc:
        cur.fail(str(exc))
    children = []
    while True:
        nxt = cur.peek()
        if nxt == ")":
            cur.pos += 1
            return AstNode(kind=kind, children=tuple(children))
        if nxt == "(":
            children.append(_parse_node(cur))
        elif nxt is None:
            cur.fail("unterminated node")
        else:
            cur.fail(f"unexpected character {nxt!r}")
