"""MiniJ: a small Java-like language, just rich enough for method-name
prediction corpora. One method per source unit; the corpus tool splits
multi-method files with `split_methods` before parsing.

Operators fold into node kinds (`BinaryExpr:+`, `UnaryExpr:!`) instead of
becoming terminals, so the token space holds only named things: identifiers,
type names and literal text. The emitted tree is the surface syntax, not a
desugared form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast_core import Ast, AstNode, MASKED_NAME, NodeKind, node, terminal
from .errors import Path2SeqError

KEYWORDS = frozenset(
    "int boolean char String void if else while do for return new true false".split()
)
PRIMITIVE_TYPES = frozenset("int boolean char void".split())

_TWO_CHAR_OPS = ("||", "&&", "==", "!=", "<=", ">=", "++", "--")
_ONE_CHAR_OPS = "<>+-*/%=!"
_PUNCT = "(){}[],;."

BINARY_OPS = ("||", "&&", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%")
UNARY_OPS = ("!", "-", "+", "++", "--")
POSTFIX_OPS = ("++", "--")

# Kind names must avoid the dataset format's reserved characters
# (whitespace, comma, pipe), so operators are folded in by word name.
OP_NAMES = {
    "||": "Or", "&&": "And", "==": "Eq", "!=": "Ne", "<=": "Le", ">=": "Ge",
    "<": "Lt", ">": "Gt", "+": "Add", "-": "Sub", "*": "Mul", "/": "Div",
    "%": "Rem", "!": "Not", "++": "Inc", "--": "Dec",
}
_UNARY_NAMES = {"!": "Not", "-": "Neg", "+": "Pos", "++": "Inc", "--": "Dec"}


def _fixed(name):
    return NodeKind(name, variadic=False)


def _variadic(name):
    return NodeKind(name, variadic=True)


K_METHOD = _variadic("MethodDecl")
K_PARAM = _fixed("Param")
K_PRIMITIVE = _fixed("PrimitiveType")
K_CLASSTYPE = _fixed("ClassType")
K_ARRAYTYPE = _fixed("ArrayType")
K_BLOCK = _variadic("Block")
K_VARDEC = _variadic("VarDec")
K_IF = _variadic("IfStmt")
K_WHILE = _fixed("WhileStmt")
K_DO = _fixed("DoStmt")
K_FOR = _variadic("ForStmt")
K_RETURN = _variadic("ReturnStmt")
K_EXPRSTMT = _fixed("ExprStmt")
K_ASSIGN = _fixed("Assign")
K_CALL = _variadic("Call")
K_FIELD = _fixed("FieldAccess")
K_INDEX = _fixed("Index")
K_NAME = _fixed("Name")
K_INTLIT = _fixed("IntLit")
K_CHARLIT = _fixed("CharLit")
K_STRINGLIT = _fixed("StringLit")
K_BOOLLIT = _fixed("BoolLit")
K_NEW = _variadic("New")
K_NEWARRAY = _fixed("NewArray")

_BINARY_KINDS = {op: _fixed(f"BinaryExpr:{OP_NAMES[op]}") for op in BINARY_OPS}
_UNARY_KINDS = {op: _fixed(f"UnaryExpr:{_UNARY_NAMES[op]}") for op in UNARY_OPS}
_POSTFIX_KINDS = {op: _fixed(f"PostfixExpr:{OP_NAMES[op]}") for op in POSTFIX_OPS}

ALL_KINDS: tuple[NodeKind, ...] = (
    K_METHOD, K_PARAM, K_PRIMITIVE, K_CLASSTYPE, K_ARRAYTYPE, K_BLOCK, K_VARDEC,
    K_IF, K_WHILE, K_DO, K_FOR, K_RETURN, K_EXPRSTMT, K_ASSIGN, K_CALL, K_FIELD,
    K_INDEX, K_NAME, K_INTLIT, K_CHARLIT, K_STRINGLIT, K_BOOLLIT, K_NEW, K_NEWARRAY,
) + tuple(_BINARY_KINDS.values()) + tuple(_UNARY_KINDS.values()) + tuple(_POSTFIX_KINDS.values())

# Rendered path symbols are kind x {bare, up, down}; the dataset format caps
# that vocabulary at 364 entries, so the kind set must stay small.
MAX_SYMBOL_VOCAB = 364
assert 3 * len(ALL_KINDS) <= MAX_SYMBOL_VOCAB, "node kind set grew past the symbol budget"


@dataclass(frozen=True)
class SourceUnit:
    text: str
    origin: str = "<memory>"


class ParseError(Path2SeqError):
    kind = "parse-error"

    def __init__(self, message: str, line: int, column: int, origin: str = "<memory>"):
        super().__init__(f"{origin}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.origin = origin


class NotAMethod(Path2SeqError):
    kind = "not-a-method"


@dataclass(frozen=True)
class Token:
    type: str  # kw, id, int, char, str, bool, op, punc, eof
    text: str
    line: int
    column: int
    pos: int  # character offset into the source text


class _Lexer:
    def __init__(self, src: SourceUnit):
        self.src = src
        self.text = src.text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, line=None, col=None):
        raise ParseError(message, line or self.line, col or self.col, self.src.origin)

    def _advance(self, n: int = 1):
        for _ in range(n):
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def tokens(self) -> list[Token]:
        out = []
        while True:
            tok = self._next()
            out.append(tok)
            if tok.type == "eof":
                return out

    def _next(self) -> Token:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self._advance()
            elif text.startswith("//", self.pos):
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance()
            elif text.startswith("/*", self.pos):
                start_line, start_col = self.line, self.col
                self._advance(2)
                while not text.startswith("*/", self.pos):
                    if self.pos >= len(text):
                        self.error("unterminated block comment", start_line, start_col)
                    self._advance()
                self._advance(2)
            else:
                break
        if self.pos >= len(text):
            return Token("eof", "", self.line, self.col, self.pos)

        line, col, pos = self.line, self.col, self.pos
        ch = text[self.pos]

        if ch.isalpha() or ch in "_$":
            end = self.pos
            while end < len(text) and (text[end].isalnum() or text[end] in "_$"):
                end += 1
            word = text[self.pos: end]
            self._advance(end - self.pos)
            if word in ("true", "false"):
                return Token("bool", word, line, col, pos)
            if word in KEYWORDS:
                return Token("kw", word, line, col, pos)
            return Token("id", word, line, col, pos)

        if ch.isdigit():
            end = self.pos
            while end < len(text) and text[end].isdigit():
                end += 1
            lit = text[self.pos: end]
            self._advance(end - self.pos)
            return Token("int", lit, line, col, pos)

        if ch == '"':
            return Token("str", self._quoted('"', "string literal"), line, col, pos)
        if ch == "'":
            value = self._quoted("'", "char literal")
            if len(value) != 1:
                self.error("char literal must hold exactly one character", line, col)
            return Token("char", value, line, col, pos)

        for op in _TWO_CHAR_OPS:
            if text.startswith(op, self.pos):
                self._advance(2)
                return Token("op", op, line, col, pos)
        if ch in _ONE_CHAR_OPS:
            self._advance()
            return Token("op", ch, line, col, pos)
        if ch in _PUNCT:
            self._advance()
            return Token("punc", ch, line, col, pos)
        self.error(f"illegal character {ch!r}")

    _ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'", '"': '"'}

    def _quoted(self, quote: str, what: str) -> str:
        start_line, start_col = self.line, self.col
        self._advance()  # opening quote
        out = []
        while True:
            if self.pos >= len(self.text) or self.text[self.pos] == "\n":
                self.error(f"unterminated {what}", start_line, start_col)
            ch = self.text[self.pos]
            self._advance()
            if ch == quote:
                return "".join(out)
            if ch == "\\":
                if self.pos >= len(self.text):
                    self.error(f"unterminated {what}", start_line, start_col)
                esc = self.text[self.pos]
                self._advance()
                if esc not in self._ESCAPES:
                    self.error(f"unknown escape \\{esc}", start_line, start_col)
                out.append(self._ESCAPES[esc])
            else:
                out.append(ch)


def tokenize(src: SourceUnit) -> list[Token]:
    """Lex a source unit; the trailing EOF token is dropped."""
    return _Lexer(src).tokens()[:-1]


class _Parser:
    """Recursive descent over the token stream. No symbol resolution and no
    error recovery: the first problem raises ParseError."""

    def __init__(self, src: SourceUnit):
        self.src = src
        self.toks = _Lexer(src).tokens()
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.type != "eof":
            self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column, self.src.origin)

    def expect(self, type_: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.type != type_ or (text is not None and tok.text != text):
            want = text or type_
            got = tok.text or "end of input"
            self.error(f"expected {want!r}, found {got!r}")
        return self.advance()

    def at(self, type_: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.type == type_ and (text is None or tok.text == text)

    def accept(self, type_: str, text: str | None = None) -> bool:
        if self.at(type_, text):
            self.advance()
            return True
        return False

    # --- declarations ---

    def method(self) -> AstNode:
        ret_type = self.type_node()
        name = self.expect("id")
        self.expect("punc", "(")
        params = []
        if not self.at("punc", ")"):
            params.append(self.param())
            while self.accept("punc", ","):
                params.append(self.param())
        self.expect("punc", ")")
        body = self.block()
        return node(K_METHOD, ret_type, terminal(name.text), *params, body)

    def param(self) -> AstNode:
        ptype = self.type_node()
        pname = self.expect("id")
        return node(K_PARAM, ptype, terminal(pname.text))

    def type_node(self, arrays: bool = True) -> AstNode:
        """A primitive or class type, followed by any `[]` pairs unless
        `arrays` is off (after `new`, a `[` opens the size expression)."""
        tok = self.peek()
        if tok.type == "kw" and tok.text in PRIMITIVE_TYPES:
            self.advance()
            base = node(K_PRIMITIVE, terminal(tok.text))
        elif (tok.type == "kw" and tok.text == "String") or tok.type == "id":
            self.advance()
            base = node(K_CLASSTYPE, terminal(tok.text))
        else:
            self.error(f"expected a type, found {tok.text or 'end of input'!r}")
        while arrays and self.at("punc", "[") and self.peek(1).type == "punc" \
                and self.peek(1).text == "]":
            self.advance()
            self.advance()
            base = node(K_ARRAYTYPE, base)
        return base

    # --- statements ---

    def block(self) -> AstNode:
        self.expect("punc", "{")
        stmts = []
        while not self.at("punc", "}"):
            if self.at("eof"):
                self.error("unterminated block")
            stmts.append(self.statement())
        self.advance()
        return node(K_BLOCK, *stmts)

    def statement(self) -> AstNode:
        tok = self.peek()
        if tok.type == "punc" and tok.text == "{":
            return self.block()
        if tok.type == "kw":
            handler = {
                "if": self.if_stmt, "while": self.while_stmt, "do": self.do_stmt,
                "for": self.for_stmt, "return": self.return_stmt,
            }.get(tok.text)
            if handler:
                return handler()
        if self.looks_like_decl():
            decl = self.var_decl()
            self.expect("punc", ";")
            return decl
        expr = self.expression()
        self.expect("punc", ";")
        return node(K_EXPRSTMT, expr)

    def looks_like_decl(self) -> bool:
        tok = self.peek()
        if tok.type == "kw" and (tok.text in PRIMITIVE_TYPES or tok.text == "String"):
            return True
        if tok.type != "id":
            return False
        # IDENT IDENT or IDENT ('[' ']')+ IDENT means a typed declaration
        j = 1
        while self.peek(j).type == "punc" and self.peek(j).text == "[" \
                and self.peek(j + 1).type == "punc" and self.peek(j + 1).text == "]":
            j += 2
        return self.peek(j).type == "id"

    def var_decl(self) -> AstNode:
        vtype = self.type_node()
        vname = self.expect("id")
        children = [vtype, terminal(vname.text)]
        if self.accept("op", "="):
            children.append(self.expression())
        return node(K_VARDEC, *children)

    def if_stmt(self) -> AstNode:
        self.expect("kw", "if")
        self.expect("punc", "(")
        cond = self.expression()
        self.expect("punc", ")")
        then = self.statement()
        if self.accept("kw", "else"):
            return node(K_IF, cond, then, self.statement())
        return node(K_IF, cond, then)

    def while_stmt(self) -> AstNode:
        self.expect("kw", "while")
        self.expect("punc", "(")
        cond = self.expression()
        self.expect("punc", ")")
        return node(K_WHILE, cond, self.statement())

    def do_stmt(self) -> AstNode:
        self.expect("kw", "do")
        body = self.statement()
        self.expect("kw", "while")
        self.expect("punc", "(")
        cond = self.expression()
        self.expect("punc", ")")
        self.expect("punc", ";")
        return node(K_DO, body, cond)

    def for_stmt(self) -> AstNode:
        self.expect("kw", "for")
        self.expect("punc", "(")
        children = []
        if not self.at("punc", ";"):
            children.append(self.var_decl() if self.looks_like_decl() else self.expression())
        self.expect("punc", ";")
        if not self.at("punc", ";"):
            children.append(self.expression())
        self.expect("punc", ";")
        if not self.at("punc", ")"):
            children.append(self.expression())
        self.expect("punc", ")")
        children.append(self.statement())
        return node(K_FOR, *children)

    def return_stmt(self) -> AstNode:
        self.expect("kw", "return")
        if self.accept("punc", ";"):
            return node(K_RETURN)
        expr = self.expression()
        self.expect("punc", ";")
        return node(K_RETURN, expr)

    # --- expressions, lowest precedence first ---

    def expression(self) -> AstNode:
        lhs = self.binary(0)
        if self.accept("op", "="):
            return node(K_ASSIGN, lhs, self.expression())  # right-associative
        return lhs

    _LEVELS = (("||",), ("&&",), ("==", "!="), ("<=", ">=", "<", ">"),
               ("+", "-"), ("*", "/", "%"))

    def binary(self, level: int) -> AstNode:
        if level == len(self._LEVELS):
            return self.unary()
        lhs = self.binary(level + 1)
        while self.peek().type == "op" and self.peek().text in self._LEVELS[level]:
            op = self.advance().text
            rhs = self.binary(level + 1)
            lhs = node(_BINARY_KINDS[op], lhs, rhs)
        return lhs

    def unary(self) -> AstNode:
        tok = self.peek()
        if tok.type == "op" and tok.text in UNARY_OPS:
            self.advance()
            return node(_UNARY_KINDS[tok.text], self.unary())
        return self.postfix()

    def postfix(self) -> AstNode:
        expr = self.primary()
        while True:
            tok = self.peek()
            if tok.type == "punc" and tok.text == "(":
                self.advance()
                args = []
                if not self.at("punc", ")"):
                    args.append(self.expression())
                    while self.accept("punc", ","):
                        args.append(self.expression())
                self.expect("punc", ")")
                expr = node(K_CALL, expr, *args)
            elif tok.type == "punc" and tok.text == ".":
                self.advance()
                member = self.expect("id")
                expr = node(K_FIELD, expr, terminal(member.text))
            elif tok.type == "punc" and tok.text == "[":
                self.advance()
                index = self.expression()
                self.expect("punc", "]")
                expr = node(K_INDEX, expr, index)
            elif tok.type == "op" and tok.text in POSTFIX_OPS:
                self.advance()
                expr = node(_POSTFIX_KINDS[tok.text], expr)
            else:
                return expr

    def primary(self) -> AstNode:
        tok = self.peek()
        if tok.type == "punc" and tok.text == "(":
            self.advance()
            inner = self.expression()
            self.expect("punc", ")")
            return inner
        if tok.type == "int":
            self.advance()
            return node(K_INTLIT, terminal(tok.text))
        if tok.type == "char":
            self.advance()
            return node(K_CHARLIT, terminal(tok.text))
        if tok.type == "str":
            self.advance()
            if tok.text == "":
                return node(K_STRINGLIT, terminal('""'))
            return node(K_STRINGLIT, terminal(tok.text))
        if tok.type == "bool":
            self.advance()
            return node(K_BOOLLIT, terminal(tok.text))
        if tok.type == "kw" and tok.text == "new":
            self.advance()
            ntype = self.type_node(arrays=False)
            if self.accept("punc", "["):
                size = self.expression()
                self.expect("punc", "]")
                return node(K_NEWARRAY, ntype, size)
            self.expect("punc", "(")
            args = []
            if not self.at("punc", ")"):
                args.append(self.expression())
                while self.accept("punc", ","):
                    args.append(self.expression())
            self.expect("punc", ")")
            return node(K_NEW, ntype, *args)
        if tok.type == "id":
            self.advance()
            return node(K_NAME, terminal(tok.text))
        self.error(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse_method(src: SourceUnit) -> Ast:
    """Parse exactly one method declaration into an Ast. Never returns a
    partial tree: any syntax problem raises ParseError."""
    parser = _Parser(src)
    root = parser.method()
    if not parser.at("eof"):
        parser.error("trailing content after method")
    return Ast(root)


def extract_target_name(ast: Ast) -> tuple[Ast, str]:
    """Pull the method name out of a MethodDecl tree.

    Returns the name string and a copy of the tree whose name terminal
    holds the reserved MASKED_NAME value instead, leaving every other
    node (and the tree shape) unchanged. Idempotent on the name slot.
    """
    root = ast.root
    if root.is_terminal or root.kind.name != K_METHOD.name:
        raise NotAMethod(f"root is {root.kind.name if not root.is_terminal else 'a terminal'},"
                         f" expected {K_METHOD.name}")
    if len(root.children) < 2 or not root.children[1].is_terminal:
        raise NotAMethod("method declaration lacks a name terminal")
    name = root.children[1].value
    children = list(root.children)
    children[1] = terminal(MASKED_NAME)
    masked = AstNode(kind=root.kind, children=tuple(children))
    return Ast(masked), name


def split_methods(text: str, origin: str = "<memory>") -> list[SourceUnit]:
    """Split a file holding several methods into one SourceUnit each.

    Scans tokens for a signature followed by a braced body and cuts the
    source at the matching close brace; parsing stays the parser's job.
    """
    toks = tokenize(SourceUnit(text, origin))
    units = []
    i = 0
    while i < len(toks):
        start = i
        while i < len(toks) and not (toks[i].type == "punc" and toks[i].text == "{"):
            i += 1
        if i >= len(toks):
            if any(t.type != "eof" for t in toks[start:]):
                raise ParseError("content without a method body", toks[start].line,
                                 toks[start].column, origin)
            break
        depth = 0
        while i < len(toks):
            if toks[i].type == "punc" and toks[i].text == "{":
                depth += 1
            elif toks[i].type == "punc" and toks[i].text == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            raise ParseError("unbalanced braces", toks[start].line, toks[start].column, origin)
        begin = toks[start].pos
        end = toks[i].pos + 1
        units.append(SourceUnit(text[begin:end], origin))
        i += 1
    return units
