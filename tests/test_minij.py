import numpy as np
import pytest

from helpers import random_minij_method, structurally_equal
from path2seq.ast_core import serialize_ast, terminals
from path2seq.minij import (ALL_KINDS, NotAMethod, ParseError, SourceUnit,
                            extract_target_name, parse_method, split_methods,
                            tokenize)

FIG_DO_WHILE = """
int countOccurrences(String str, char ch) {
   int num = 0;
   int index = -1;
   do {
      index = str.indexOf(ch, index + 1);
      if (index >= 0) {
         num++;
      }
   } while (index >= 0);
   return num;
}
"""

FIG_FOR = """
int countOccurrences(String source, char value) {
   int count = 0;
   for (int i = 0; i < source.length(); i++) {
       if (source.charAt(i) == value) {
           count++;
        }
   }
   return count;
}
"""


def kinds_in(ast):
    return [n.kind.name for n in ast.nodes if not n.is_terminal]


class TestTokenizer:
    def test_five_token_line(self):
        toks = tokenize(SourceUnit("int num = 0;"))
        assert [(t.type, t.text) for t in toks] == [
            ("kw", "int"), ("id", "num"), ("op", "="), ("int", "0"), ("punc", ";")]

    def test_empty_text(self):
        assert tokenize(SourceUnit("")) == []

    def test_unterminated_string(self):
        with pytest.raises(ParseError) as err:
            tokenize(SourceUnit('"unterminated'))
        assert err.value.line == 1

    def test_comments_skipped(self):
        toks = tokenize(SourceUnit("a // line\n /* block\nmore */ b"))
        assert [t.text for t in toks] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(ParseError):
            tokenize(SourceUnit("/* open"))

    def test_two_char_operators_win(self):
        toks = tokenize(SourceUnit("a<=b,c++ &&d"))
        assert [t.text for t in toks] == ["a", "<=", "b", ",", "c", "++", "&&", "d"]

    def test_illegal_character(self):
        with pytest.raises(ParseError):
            tokenize(SourceUnit("a @ b"))

    def test_char_literals(self):
        toks = tokenize(SourceUnit(r"'x' '\n' '\''"))
        assert [t.text for t in toks] == ["x", "\n", "'"]
        with pytest.raises(ParseError):
            tokenize(SourceUnit("'ab'"))

    def test_line_and_column(self):
        toks = tokenize(SourceUnit("a\n  b"))
        assert (toks[1].line, toks[1].column) == (2, 3)


class TestParser:
    def test_do_while_fig_shape(self):
        ast = parse_method(SourceUnit(FIG_DO_WHILE))
        ks = kinds_in(ast)
        assert ast.root.kind.name == "MethodDecl"
        assert ks.count("DoStmt") == 1
        assert ks.count("IfStmt") == 1

    def test_for_fig_shape(self):
        ast = parse_method(SourceUnit(FIG_FOR))
        ks = kinds_in(ast)
        assert ks.count("ForStmt") == 1
        assert ks.count("IfStmt") == 1
        assert "PostfixExpr:Inc" in ks

    def test_minimal_method(self):
        ast = parse_method(SourceUnit("void f(){}"))
        root = ast.root
        assert root.kind.name == "MethodDecl"
        assert root.children[0].kind.name == "PrimitiveType"
        assert root.children[0].children[0].value == "void"
        assert root.children[1].value == "f"
        assert root.children[2].kind.name == "Block"
        assert root.children[2].children == ()

    def test_reference_tree_for_tiny_method(self):
        # hand-drawn: MethodDecl(PrimitiveType(int), f, Param(PrimitiveType(int), x),
        #                        Block(ReturnStmt(Name(x)))) = 12 nodes
        ast = parse_method(SourceUnit("int f(int x){return x;}"))
        assert len(ast.nodes) == 12
        assert kinds_in(ast) == ["MethodDecl", "PrimitiveType", "Param",
                                 "PrimitiveType", "Block", "ReturnStmt", "Name"]
        assert [t.value for t in terminals(ast)] == ["int", "f", "int", "x", "x"]

    def test_every_fig_construct_parses(self):
        for source in (FIG_DO_WHILE, FIG_FOR):
            parse_method(SourceUnit(source))

    def test_precedence(self):
        ast = parse_method(SourceUnit("int f(){return 1 + 2 * 3 == 7 && true;}"))
        ks = kinds_in(ast)
        # && above ==, == above +, + above *
        order = [ks.index(k) for k in ("BinaryExpr:And", "BinaryExpr:Eq",
                                       "BinaryExpr:Add", "BinaryExpr:Mul")]
        assert order == sorted(order)

    def test_assignment_right_associative(self):
        ast = parse_method(SourceUnit("void f(int a, int b){a = b = 1;}"))
        assert kinds_in(ast).count("Assign") == 2

    def test_calls_fields_indexing_new(self):
        source = "int f(int[] xs){ Foo g = new Foo(1); return g.bar(xs[0]).baz; }"
        ks = kinds_in(parse_method(SourceUnit(source)))
        for wanted in ("ArrayType", "New", "Call", "FieldAccess", "Index"):
            assert wanted in ks

    def test_new_array(self):
        ks = kinds_in(parse_method(SourceUnit("void f(){int[] a = new int[3];}")))
        assert "NewArray" in ks

    def test_new_needs_a_type(self):
        with pytest.raises(ParseError) as err:
            parse_method(SourceUnit("void f(){x = new 3;}"))
        assert err.value.message == "expected a type, found '3'"

    def test_deterministic(self):
        a = parse_method(SourceUnit(FIG_DO_WHILE))
        b = parse_method(SourceUnit(FIG_DO_WHILE))
        assert structurally_equal(a, b)
        assert serialize_ast(a) == serialize_ast(b)

    def test_never_partial_on_error(self):
        with pytest.raises(ParseError):
            parse_method(SourceUnit("int f(){ return ; extra"))

    def test_random_methods_parse(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            parse_method(SourceUnit(random_minij_method(rng)))

    def test_unbalanced_delimiters_rejected(self):
        rng = np.random.default_rng(31)
        base = FIG_DO_WHILE.strip()
        delims = "(){}[]"
        safe = [i for i, ch in enumerate(base) if ch not in "'\""]
        for _ in range(60):
            if rng.random() < 0.5:
                spots = [i for i, ch in enumerate(base) if ch in delims]
                i = spots[int(rng.integers(0, len(spots)))]
                mutated = base[:i] + base[i + 1:]
            else:
                i = safe[int(rng.integers(0, len(safe)))]
                mutated = base[:i] + delims[int(rng.integers(0, 6))] + base[i:]
            with pytest.raises(ParseError):
                parse_method(SourceUnit(mutated))


class TestExtractTargetName:
    def test_mask_and_name(self):
        ast = parse_method(SourceUnit("int f(int x){return x;}"))
        masked, name = extract_target_name(ast)
        assert name == "f"
        assert masked.root.children[1].value == "METHOD_NAME"
        # everything else unchanged
        assert structurally_equal(
            masked, parse_method(SourceUnit("int METHOD_NAME(int x){return x;}")))

    def test_long_name_returned_unsplit(self):
        ast = parse_method(SourceUnit("void setMaxConnectionsPerServer(int n){}"))
        _, name = extract_target_name(ast)
        assert name == "setMaxConnectionsPerServer"

    def test_idempotent_on_name_slot(self):
        ast = parse_method(SourceUnit("int f(int x){return x;}"))
        once, _ = extract_target_name(ast)
        twice, second_name = extract_target_name(once)
        assert second_name == "METHOD_NAME"
        assert structurally_equal(once, twice)

    def test_not_a_method(self):
        from path2seq.ast_core import parse_ast_text
        with pytest.raises(NotAMethod):
            extract_target_name(parse_ast_text('(Block (NAME "x"))'))


class TestSplitMethods:
    def test_two_methods(self):
        text = "int a(){return 1;}\nvoid b(int x){x++;}"
        units = split_methods(text)
        assert len(units) == 2
        assert parse_method(units[0]).root.children[1].value == "a"
        assert parse_method(units[1]).root.children[1].value == "b"

    def test_nested_braces(self):
        text = "void a(){ if (true) { x++; } } void b(){}"
        assert len(split_methods(text)) == 2

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            split_methods("void a(){ {")


def test_symbol_budget_holds():
    assert 3 * len(ALL_KINDS) <= 364
