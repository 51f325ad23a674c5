import numpy as np
import pytest

from helpers import random_tree, structurally_equal
from path2seq.ast_core import (Ast, MalformedAstText, NodeKind, node, parse_ast_text,
                               serialize_ast, terminal, terminals)
from path2seq.minij import SourceUnit, extract_target_name, parse_method


def small_tree():
    # K(a, L(b, c), d)
    K, L = NodeKind("K"), NodeKind("L")
    return Ast(node(K, terminal("a"), node(L, terminal("b"), terminal("c")),
                    terminal("d")))


class TestNodeModel:
    def test_preorder_ids_are_contiguous(self):
        ast = small_tree()
        assert [n.node_id for n in ast.nodes] == list(range(len(ast.nodes)))
        assert ast.parents[0] == -1

    def test_parent_index_consistent_with_children(self):
        ast = small_tree()
        for parent in ast.nodes:
            for child in parent.children:
                assert ast.parents[child.node_id] == parent.node_id

    def test_edge_count_is_node_count_minus_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ast = random_tree(rng)
            edges = sum(len(n.children) for n in ast.nodes)
            assert edges == len(ast.nodes) - 1

    def test_terminal_needs_value(self):
        with pytest.raises(ValueError):
            terminal("")

    def test_kind_rejects_reserved_characters(self):
        for bad in ("a b", "a,b", "a|b", ""):
            with pytest.raises(ValueError):
                NodeKind(bad)


class TestTerminals:
    def test_masked_method_terminals_in_order(self):
        ast = parse_method(SourceUnit("int f(int x){return x;}"))
        masked, _ = extract_target_name(ast)
        values = [t.value for t in terminals(masked)]
        # left-to-right leaves; the name slot holds the reserved value
        assert values == ["int", "METHOD_NAME", "int", "x", "x"]

    def test_single_terminal_tree(self):
        ast = parse_ast_text('(NAME "x")')
        assert len(terminals(ast)) == 1

    def test_leaf_count_matches(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            ast = random_tree(rng)
            want = [n for n in ast.nodes if n.value is not None]
            assert terminals(ast) == want

    def test_childless_nonterminal_is_not_a_terminal(self):
        ast = parse_ast_text("(Block)")
        assert terminals(ast) == []

    def test_stable_across_calls(self):
        ast = small_tree()
        assert terminals(ast) == terminals(ast)


class TestTextFormat:
    def test_round_trip_parsed_method(self):
        # do-while flavoured method in the spirit of a counting loop
        source = """
        int countOccurrences(String str, char ch) {
           int num = 0;
           int index = -1;
           do {
              index = str.indexOf(ch, index + 1);
              if (index >= 0) { num++; }
           } while (index >= 0);
           return num;
        }
        """
        ast = parse_method(SourceUnit(source))
        masked, _ = extract_target_name(ast)
        again = parse_ast_text(serialize_ast(masked))
        assert structurally_equal(again, masked)

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            ast = random_tree(rng)
            assert structurally_equal(parse_ast_text(serialize_ast(ast)), ast)

    def test_escapes(self):
        ast = Ast(node(NodeKind("S"), terminal('say "hi" \\ bye')))
        text = serialize_ast(ast)
        assert structurally_equal(parse_ast_text(text), ast)

    def test_empty_input_is_malformed(self):
        with pytest.raises(MalformedAstText):
            parse_ast_text("")
        with pytest.raises(MalformedAstText):
            parse_ast_text("   ")

    def test_single_terminal(self):
        ast = parse_ast_text('(NAME "x")')
        assert len(ast.nodes) == 1
        assert ast.root.value == "x"

    def test_error_carries_byte_offset(self):
        try:
            parse_ast_text('(Block (NAME "x")')
        except MalformedAstText as exc:
            assert exc.offset == len('(Block (NAME "x")')
        else:
            pytest.fail("expected MalformedAstText")

    def test_trailing_content_rejected(self):
        with pytest.raises(MalformedAstText):
            parse_ast_text('(NAME "x") (NAME "y")')

    def test_whitespace_insensitive(self):
        a = parse_ast_text('(K(NAME "x")(NAME "y"))')
        b = parse_ast_text('( K \n (NAME "x")\t(NAME "y") )')
        assert structurally_equal(a, b)
