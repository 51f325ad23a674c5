import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_paths, random_minij_method, random_tree
from path2seq.ast_core import NodeKind, Ast, node, terminal
from path2seq.minij import SourceUnit, extract_target_name, parse_method
from path2seq.paths import (AstPath, Direction, ExtractionConfig,
                            MalformedDatasetLine, TooFewTerminals, build_example,
                            enumerate_paths, format_example, parse_example_line,
                            render_path_symbols, sample_paths, split_subtokens)

CFG = ExtractionConfig()


def masked_tiny_method():
    ast = parse_method(SourceUnit("int f(int x){return x;}"))
    masked, name = extract_target_name(ast)
    return masked, name


class TestEnumeratePaths:
    def test_pair_count_without_filter(self):
        rng = np.random.default_rng(2)
        cfg = ExtractionConfig(max_path_length=10_000)
        for _ in range(30):
            ast = random_tree(rng)
            terms = [n for n in ast.nodes if n.is_terminal]
            if len(terms) < 2:
                continue
            n = len(terms)
            assert len(enumerate_paths(ast, cfg)) == n * (n - 1) // 2

    def test_tiny_method_has_six_paths(self):
        masked, _ = masked_tiny_method()
        paths = enumerate_paths(masked, CFG)
        assert len(paths) == 6
        assert oracle_paths(masked, CFG.max_path_length) == {
            (p.left.node_id, p.steps, p.right.node_id) for p in paths}

    def test_sibling_terminals_path_of_three_nodes(self):
        ast = Ast(node(NodeKind("P"), terminal("a"), terminal("b")))
        paths = enumerate_paths(ast, CFG)
        assert len(paths) == 1
        assert len(paths[0].steps) == 1
        assert paths[0].steps == (("P", Direction.UP),)

    def test_too_few_terminals(self):
        ast = Ast(node(NodeKind("P"), terminal("a")))
        with pytest.raises(TooFewTerminals):
            enumerate_paths(ast, CFG)

    def test_masked_terminal_excluded(self):
        masked, _ = masked_tiny_method()
        for p in enumerate_paths(masked, CFG):
            assert p.left.value != "METHOD_NAME"
            assert p.right.value != "METHOD_NAME"

    def test_matches_oracle_on_random_trees(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            ast = random_tree(rng)
            if len([n for n in ast.nodes if n.is_terminal]) < 2:
                continue
            for limit in (2, 3, 9):
                cfg = ExtractionConfig(max_path_length=limit)
                try:
                    got = {(p.left.node_id, p.steps, p.right.node_id)
                           for p in enumerate_paths(ast, cfg)}
                except TooFewTerminals:
                    continue
                assert got == oracle_paths(ast, limit)

    def test_deterministic_order(self):
        masked, _ = masked_tiny_method()
        pairs = [(p.left.node_id, p.right.node_id) for p in enumerate_paths(masked, CFG)]
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)

    def test_mirrored_pair_renders_as_flipped_reverse(self):
        # walking b->a instead of a->b reverses the symbols and swaps the
        # leg markers while the bare apex stays put
        def mirror(symbols):
            out = []
            for s in reversed(symbols):
                if s.endswith("^"):
                    out.append(s[:-1] + "_")
                elif s.endswith("_"):
                    out.append(s[:-1] + "^")
                else:
                    out.append(s)
            return out

        masked, _ = masked_tiny_method()
        for path in enumerate_paths(masked, CFG):
            symbols = render_path_symbols(path)
            apex = [s for s in symbols if not s.endswith(("^", "_"))]
            assert len(apex) == 1
            mirrored = mirror(symbols)
            assert mirror(mirrored) == symbols
            assert [s.rstrip("^_") for s in mirrored] == \
                [s.rstrip("^_") for s in reversed(symbols)]

    def test_direction_pattern_up_then_down(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            ast = random_tree(rng)
            try:
                paths = enumerate_paths(ast, ExtractionConfig(max_path_length=100))
            except TooFewTerminals:
                continue
            for p in paths:
                dirs = [d for _, d in p.steps]
                assert Direction.UP in dirs
                seen_down = False
                for d in dirs:
                    if d is Direction.DOWN:
                        seen_down = True
                    else:
                        assert not seen_down  # no UP after a DOWN


class TestRenderPathSymbols:
    def test_single_interior_node_is_bare(self):
        path = AstPath(steps=(("Assign", Direction.UP),),
                       left=terminal("x"), right=terminal("y"))
        assert render_path_symbols(path) == ["Assign"]

    def test_loop_node_is_the_only_difference(self):
        # the same accumulator pattern inside do-while vs for differs only
        # at the loop symbol
        do_src = "int f(int n){int s = 0; do { s++; } while (s < n); return s;}"
        for_src = "int f(int n){int s = 0; for (;s < n;) { s++; } return s;}"
        def rendered(src):
            masked, _ = extract_target_name(parse_method(SourceUnit(src)))
            return [tuple(render_path_symbols(p)) for p in enumerate_paths(masked, CFG)]
        do_paths, for_paths = rendered(do_src), rendered(for_src)
        swapped = [tuple(s.replace("ForStmt", "DoStmt") for s in p) for p in for_paths]
        assert set(swapped) & set(do_paths)

    def test_hand_rendered_four_interior_path(self):
        masked, _ = masked_tiny_method()
        by_symbols = [render_path_symbols(p) for p in enumerate_paths(masked, CFG)]
        # return-type int to parameter-type int, hand-walked on the tree
        assert ["PrimitiveType^", "MethodDecl", "Param_", "PrimitiveType_"] in by_symbols


class TestSplitSubtokens:
    def test_camel_case(self):
        assert split_subtokens("ArrayList") == ["array", "list"]

    def test_long_name(self):
        assert split_subtokens("setMaxConnectionsPerServer") == \
            ["set", "max", "connections", "per", "server"]

    def test_no_boundary(self):
        assert split_subtokens("x") == ["x"]

    def test_acronym(self):
        assert split_subtokens("HTTPServer") == ["http", "server"]

    def test_separators(self):
        assert split_subtokens("foo_bar$baz") == ["foo", "bar", "baz"]

    def test_letter_digit_boundary(self):
        assert split_subtokens("base64Value2") == ["base", "64", "value", "2"]

    def test_all_separators_fall_back(self):
        assert split_subtokens("_$_") == ["_"]

    @given(st.text(alphabet=st.characters(codec="ascii"), min_size=1))
    @settings(max_examples=300)
    def test_letters_and_digits_preserved(self, token):
        pieces = split_subtokens(token)
        kept = [c for c in token.lower() if c.isalnum()]
        if kept:
            assert list("".join(pieces)) == kept
        else:
            assert pieces == ["_"]

    @given(st.text(alphabet=st.characters(codec="ascii"), min_size=1))
    @settings(max_examples=200)
    def test_pieces_lowercase_nonempty(self, token):
        for piece in split_subtokens(token):
            assert piece and piece == piece.lower()


class TestSamplePaths:
    def test_underfull_returns_all_in_order(self):
        paths = list(range(5))
        assert sample_paths(paths, 200, np.random.default_rng(0)) == paths

    def test_same_seed_same_sample(self):
        paths = list(range(100))
        a = sample_paths(paths, 10, np.random.default_rng(7))
        b = sample_paths(paths, 10, np.random.default_rng(7))
        assert a == b

    def test_without_replacement(self):
        got = sample_paths(list(range(50)), 20, np.random.default_rng(3))
        assert len(set(got)) == 20

    def test_uniform_inclusion_frequency(self):
        # 10 paths, k=3: each inclusion probability 0.3; 100k draws keeps
        # every count within 3 sigma
        rng = np.random.default_rng(123)
        draws = 100_000
        counts = np.zeros(10)
        for _ in range(draws):
            for chosen in sample_paths(list(range(10)), 3, rng):
                counts[chosen] += 1
        p = 0.3
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)


class TestBuildExample:
    def test_tiny_method(self):
        masked, name = masked_tiny_method()
        ex = build_example(masked, name, CFG)
        assert len(ex.contexts) == 6
        assert ex.target == ["f"]

    def test_target_split(self):
        masked, _ = masked_tiny_method()
        ex = build_example(masked, "countOccurrences", CFG)
        assert ex.target == ["count", "occurrences"]

    def test_single_terminal_error(self):
        ast = Ast(node(NodeKind("M"), terminal("x")))
        with pytest.raises(TooFewTerminals):
            build_example(ast, "f", CFG)


class TestDatasetLineFormat:
    def test_round_trip(self):
        masked, name = masked_tiny_method()
        ex = build_example(masked, name, CFG)
        line = format_example(ex)
        assert "\n" not in line
        back = parse_example_line(line)
        assert back.target == ex.target
        assert back.contexts == ex.contexts

    def test_field_shape(self):
        masked, name = masked_tiny_method()
        line = format_example(build_example(masked, name, CFG))
        target, *ctxs = line.split(" ")
        assert target == "f"
        for ctx in ctxs:
            left, middle, right = ctx.split(",")
            assert left and middle and right

    def test_random_methods_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            ast = parse_method(SourceUnit(random_minij_method(rng)))
            masked, name = extract_target_name(ast)
            ex = build_example(masked, name, CFG)
            back = parse_example_line(format_example(ex))
            assert back.contexts == ex.contexts and back.target == ex.target

    def test_malformed_lines(self):
        for line in ("just_target", "t a,b", "t ,x|y,z", "t x|y,z"):
            with pytest.raises(MalformedDatasetLine):
                parse_example_line(line)
