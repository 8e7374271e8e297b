import random
import sys

import pytest

from gcwidth import (
    BipartiteGraph,
    Graph,
    GraphFormatError,
    parse_graph,
    serialize_graph,
)
from gcwidth.graphs import parse_vertex_token, vertex_token
from gcwidth.families import gen_random_hconvex

from oracles import (
    brute_has_induced_pattern,
    brute_is_chordal_bipartite,
    complete_bipartite,
    cycle_graph,
    has_induced_pattern,
    induced_subgraph,
    is_chordal_bipartite,
    path_graph,
    pattern_k3_k3,
    pattern_k3_s3,
)


def bip_c6():
    # hexagon a0-b0-a1-b1-a2-b2-a0
    return BipartiteGraph(
        3, 3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
    )


class TestParsing:
    def test_two_edges(self):
        g = parse_graph("bipartite 2 1\ne a1 b1\ne a2 b1")
        assert g == BipartiteGraph(2, 1, (frozenset({0, 1}),))

    def test_empty_b_side(self):
        g = parse_graph("bipartite 1 0")
        assert g.a_size == 1 and g.b_size == 0

    def test_non_crossing_edge(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("bipartite 2 1\ne a1 a2")
        assert err.value.kind == "non-crossing"

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("bipartit 2 1")
        assert err.value.kind == "header"

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("bipartite 2 1\ne a3 b1")
        assert err.value.kind == "range"

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("bipartite 2 1\ne a1 b1\ne b1 a1")
        assert err.value.kind == "duplicate"

    def test_general_graph(self):
        g = parse_graph("graph 4\ne 1 2\ne 2 3\n# comment\ne 3 4")
        assert g == path_graph(4)

    def test_general_duplicate(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("graph 3\ne 1 2\ne 2 1")
        assert err.value.kind == "duplicate"

    def test_roundtrip_bipartite(self):
        for seed in range(10):
            g, _ = gen_random_hconvex("path", 6, 5, seed)
            assert parse_graph(serialize_graph(g)) == g
            assert serialize_graph(parse_graph(serialize_graph(g))) == serialize_graph(g)

    def test_roundtrip_general(self):
        g = cycle_graph(6)
        assert parse_graph(serialize_graph(g)) == g


class TestVertexTokens:
    def test_roundtrip_both_kinds(self):
        for g in (bip_c6(), path_graph(4)):
            for v in range(g.n):
                assert parse_vertex_token(g, vertex_token(g, v)) == v

    @pytest.mark.parametrize(
        "tok, kind",
        [("x1", "token"), ("a", "token"), ("b1a", "token"), ("", "token"), (3, "token"),
         ("a\u0663", "token"), ("b\u0661", "token"), ("a+1", "token"), ("a 1", "token"),
         ("a0", "range"), ("b4", "range"), ("a4", "range"),
         ("a01", "token"), ("b001", "token"), ("a00", "token"), ("b02", "token")],
    )
    def test_bipartite_rejects(self, tok, kind):
        with pytest.raises(GraphFormatError) as err:
            parse_vertex_token(bip_c6(), tok)
        assert err.value.kind == kind

    @pytest.mark.parametrize(
        "tok, kind",
        [("a1", "token"), ("-1", "token"), ("+2", "token"), ("1.0", "token"), (2, "token"),
         ("\u0662", "token"), ("\uff12", "token"), ("1_0", "token"), ("\u00b2", "token"),
         ("0", "range"), ("5", "range"), ("01", "token"), ("00", "token"), ("004", "token")],
    )
    def test_general_rejects(self, tok, kind):
        with pytest.raises(GraphFormatError) as err:
            parse_vertex_token(path_graph(4), tok)
        assert err.value.kind == kind

    @pytest.mark.parametrize(
        "text, kind",
        [("graph 3\ne 1 \u0662\n", "token"), ("graph 12\ne 1_0 +2\n", "token"),
         ("graph 3\ne -1 2\n", "token"), ("graph \u0663\ne 1 2\n", "header"),
         ("bipartite 2 1\ne a\u0662 b1\n", "token"), ("bipartite \u0662 1\ne a1 b1\n", "header"),
         ("bipartite 2 1\ne a01 b001\n", "token"), ("bipartite 2 1\ne a1 b01\n", "token"),
         ("graph 3\ne 01 2\n", "token"), ("graph 3\ne 1 02\n", "token")],
    )
    def test_file_tokens_are_ascii_decimals(self, text, kind):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert err.value.kind == kind

    def test_graph_to_graph_is_identity(self):
        g = path_graph(3)
        assert g.to_graph() is g


class TestInducedSubgraph:
    def test_path_pair(self):
        g = path_graph(4)
        sub, mapping = induced_subgraph(g, {0, 1})
        assert sub == Graph.make(2, [(0, 1)])
        assert mapping == {0: 0, 1: 1}

    def test_empty(self):
        sub, _ = induced_subgraph(path_graph(4), set())
        assert sub.n == 0 and not sub.edges

    def test_cycle_arc(self):
        sub, _ = induced_subgraph(cycle_graph(6), {0, 1, 2, 3})
        assert sub == path_graph(4)

    def test_identity(self):
        g = cycle_graph(5)
        sub, mapping = induced_subgraph(g, range(5))
        assert sub == g
        assert mapping == {i: i for i in range(5)}

    def test_bipartite_sides(self):
        g = bip_c6()
        sub, mapping = induced_subgraph(g, {0, 1, 3})  # a1, a2, b1
        assert isinstance(sub, BipartiteGraph)
        assert sub.a_size == 2 and sub.b_size == 1
        assert sub.adj == (frozenset({0, 1}),)
        assert mapping[3] == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), {5})


class TestChordalBipartite:
    def test_c6_false(self):
        assert not is_chordal_bipartite(bip_c6())

    def test_c4_true(self):
        assert is_chordal_bipartite(complete_bipartite(2, 2))

    def test_k33_true(self):
        assert is_chordal_bipartite(complete_bipartite(3, 3))

    def test_triangle_false(self):
        assert not is_chordal_bipartite(cycle_graph(3))

    def test_forest_true(self):
        assert is_chordal_bipartite(path_graph(7))

    def test_longer_than_recursion_limit(self):
        # the induced-path search keeps its own stack, one entry per path vertex
        n = sys.getrecursionlimit() + 50
        assert is_chordal_bipartite(path_graph(n))
        assert not is_chordal_bipartite(cycle_graph(n + n % 2))

    def test_agrees_with_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.35
            ]
            g = Graph.make(n, edges)
            assert is_chordal_bipartite(g) == brute_is_chordal_bipartite(n, edges)


class TestInducedPattern:
    def test_identity(self):
        p = pattern_k3_k3()
        assert has_induced_pattern(p, p)

    def test_bipartite_has_no_triangle_pattern(self):
        g = complete_bipartite(4, 4).to_graph()
        assert not has_induced_pattern(g, pattern_k3_s3())
        assert not has_induced_pattern(g, pattern_k3_k3())

    def test_c4_contains_p3(self):
        assert has_induced_pattern(cycle_graph(4), path_graph(3))

    def test_prism_vs_pendant_triangle(self):
        assert not has_induced_pattern(pattern_k3_k3(), pattern_k3_s3())
        assert not has_induced_pattern(pattern_k3_s3(), pattern_k3_k3())

    def test_agrees_with_brute_force(self):
        rng = random.Random(11)
        pats = [path_graph(3), cycle_graph(4), cycle_graph(3), pattern_k3_s3()]
        for _ in range(40):
            n = rng.randint(3, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph.make(n, edges)
            for p in pats:
                if p.n > n:
                    continue
                expected = brute_has_induced_pattern(n, edges, p.n, p.edges)
                assert has_induced_pattern(g, p) == expected
