import hashlib
import random
import sys

import pytest

from gcwidth import (
    BipartiteGraph,
    BranchDecomposition,
    Graph,
    SizeGuardError,
    SupportWitness,
    ThinRepresentation,
    caterpillar_from_ordering,
    decompose_circular,
    decompose_convex,
    decompose_spider,
    decompose_tdelta,
    decomposition_from_json,
    decomposition_to_json,
    max_induced_matching_cut,
    mimw_oracle,
    representation_to_json,
    simw_oracle,
    spider_bound,
    tdelta_bound,
    thin_from_tree_support,
    validate_decomposition,
    width_of,
)
from gcwidth import decomp
from gcwidth.decomp import construction_bound, interleave, pthin_bound, thin_bound
from gcwidth.graphs import GraphFormatError, preorder
from gcwidth.families import gen_crown, gen_grid, gen_random_hconvex

from oracles import (
    brute_max_independent_set,
    brute_max_induced_matching,
    brute_min_width,
    brute_width,
    complete_bipartite,
    cycle_graph,
    glue_multijoin,
    induced_subgraph,
    interleave_by_insertion,
    max_induced_matching_sim,
    multijoin_bound,
    path_graph,
    restrict_support,
    scanned_cut_edges,
    spider_legs,
    tdelta_split,
    thin_classes_and_postorder,
    walk_path,
)


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.make(n, edges)


class TestCaterpillar:
    def test_length_two_is_single_edge(self):
        d = caterpillar_from_ordering([5, 7])
        assert d.tree.n == 2 and d.tree.edges == frozenset({(0, 1)})
        assert d.leaf_map == {0: 5, 1: 7}
        assert d.linear

    def test_length_four_has_spine(self):
        d = caterpillar_from_ordering([0, 1, 2, 3])
        assert d.tree.n == 8
        assert d.spine == (0, 1, 2, 3)
        deg = list(map(len, d.tree.adjacency()))
        assert sorted(deg) == [1, 1, 1, 1, 2, 2, 3, 3]

    def test_leaf_count_is_length(self):
        for l in (1, 2, 3, 6):
            d = caterpillar_from_ordering(range(l))
            assert len(d.leaf_map) == l

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            caterpillar_from_ordering([0, 0, 1])


class TestCutSolvers:
    def test_p4_single_cross_edge(self):
        g = path_graph(4)
        size, matching = max_induced_matching_cut(g, {0, 1})
        assert size == 1 and matching == ((1, 2),)

    def test_c6_half(self):
        # frozen from the exhaustive oracle: the pair {(2,3),(0,5)} has no
        # connecting edge in C6, so it is induced in G as well
        g = cycle_graph(6)
        size, _ = max_induced_matching_cut(g, {0, 1, 2})
        assert size == 2
        sim_size, _ = max_induced_matching_sim(g, {0, 1, 2})
        assert sim_size == 2

    def test_complete_cut(self):
        g = complete_bipartite(3, 3).to_graph()
        size, _ = max_induced_matching_cut(g, {0, 1, 2})
        assert size == 1

    def test_triangle_sim(self):
        g = cycle_graph(3)
        size, _ = max_induced_matching_sim(g, {0})
        assert size == 1

    def test_bipartite_cut_along_sides_equal(self):
        rng = random.Random(17)
        for _ in range(10):
            g = gen_random_hconvex("path", 5, 5, rng.randint(0, 99))[0].to_graph()
            side = set(range(5))  # the A side: both sides independent
            assert max_induced_matching_cut(g, side)[0] == max_induced_matching_sim(g, side)[0]

    def test_agrees_with_exhaustive(self):
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 9)
            g = random_graph(rng, n)
            side = {v for v in range(n) if rng.random() < 0.5}
            cross = sum(1 for u, v in g.edges if (u in side) != (v in side))
            if cross > 14:
                continue
            checked += 1
            for mode, fn in (
                ("mim", max_induced_matching_cut),
                ("sim", max_induced_matching_sim),
            ):
                got, matching = fn(g, side)
                assert got == brute_max_induced_matching(n, g.edges, side, mode)
                assert len(matching) == got

    def test_witness_is_induced(self):
        g = cycle_graph(8)
        size, matching = max_induced_matching_cut(g, {0, 1, 2, 3})
        eset = set(g.edges)
        for i in range(len(matching)):
            for j in range(i + 1, len(matching)):
                for x in matching[i]:
                    for y in matching[j]:
                        pair = (min(x, y), max(x, y))
                        if (x in {0, 1, 2, 3}) != (y in {0, 1, 2, 3}):
                            assert pair not in eset


def assert_induced_matching(g, side, matching, mode):
    # cross edges on distinct endpoints, no edge between two of them that the mode forbids
    eset, side = set(g.edges), set(side)
    ends = [x for e in matching for x in e]
    assert len(set(ends)) == len(ends)
    assert all(e in eset and (e[0] in side) != (e[1] in side) for e in matching)
    for i, e in enumerate(matching):
        for f in matching[i + 1 :]:
            for x in e:
                for y in f:
                    if (min(x, y), max(x, y)) in eset:
                        assert mode == "mim" and (x in side) == (y in side)


class TestFloorContract:
    # _mim_of_cut is exact when the answer is above floor, (0, ()) otherwise; floor 0 is the exact answer

    def test_max_independent_set(self):
        rng = random.Random(67)
        for _ in range(300):
            # 1-4 connected blocks on shuffled vertex ids: a random spanning tree plus random chords
            blocks = rng.randint(1, 4)
            sizes = [rng.randint(1, 14 // blocks) for _ in range(blocks)]
            ids = list(range(sum(sizes)))
            rng.shuffle(ids)
            conflict = [0] * len(ids)
            p = rng.choice((0.2, 0.5, 0.8))
            start = 0
            for size in sizes:
                block = ids[start : start + size]
                start += size
                for i in range(1, size):
                    v = block[i]
                    for u in {block[rng.randrange(i)]} | {u for u in block[:i] if rng.random() < p}:
                        conflict[u] |= 1 << v
                        conflict[v] |= 1 << u
            universe = (1 << len(ids)) - 1
            want = brute_max_independent_set(conflict, universe)
            exact = decomp._max_independent_set(conflict)
            assert exact.bit_count() == want
            assert exact & ~universe == 0
            assert not any(conflict[v] & exact for v in range(len(ids)) if (exact >> v) & 1)
            assert [decomp._has_independent_set(conflict, k) for k in range(1, 8)] == [k <= want for k in range(1, 8)]

    def test_mim_of_cut(self):
        rng = random.Random(71)
        checked = 0
        while checked < 120:
            n = rng.randint(2, 10)
            g = random_graph(rng, n, rng.choice((0.3, 0.5)))
            side = [v for v in range(n) if rng.random() < 0.5]
            cross = scanned_cut_edges(n, g.edges, side)
            if len(cross) > 14:
                continue
            checked += 1
            xmask = sum(1 << v for v in side)
            # the x end of every cross edge on side, in the scanned order
            oriented = [(u, v) if (xmask >> u) & 1 else (v, u) for u, v in cross]
            adj = g.adjacency()
            for mode in ("mim", "sim"):
                want = brute_max_induced_matching(n, g.edges, side, mode)
                exact = decomp._mim_of_cut(adj, oriented, mode)
                assert exact[0] == want == len(exact[1])
                assert_induced_matching(g, side, exact[1], mode)
                for floor in range(5):
                    got = decomp._mim_of_cut(adj, oriented, mode, floor)
                    assert got == (exact if want > floor else (0, ()))


class TestWidthOf:
    def test_edgeless(self):
        g = Graph(4, frozenset())
        d = caterpillar_from_ordering(range(4))
        assert width_of(g, d)[0] == 0

    def test_complete_bipartite_caterpillar(self):
        g = complete_bipartite(4, 4)
        d = caterpillar_from_ordering(range(8))
        assert width_of(g, d)[0] == 1

    def test_single_leaf(self):
        g = Graph(1, frozenset())
        d = caterpillar_from_ordering([0])
        assert width_of(g, d) == (0, None)

    def test_worst_cut_reported(self):
        g = cycle_graph(6)
        d = caterpillar_from_ordering(range(6))
        value, report = width_of(g, d)
        assert value == report.value
        side = set(report.side)
        got, _ = max_induced_matching_cut(g, side)
        assert got == value

    def test_leafmap_mismatch(self):
        g = path_graph(3)
        d = caterpillar_from_ordering(range(4))
        with pytest.raises(ValueError):
            width_of(g, d)

    def test_matches_brute_force_on_random_subcubic_trees(self):
        rng = random.Random(41)
        cases = [caterpillar_from_ordering([0]), caterpillar_from_ordering([1, 0])]
        cases += [random_subcubic_decomposition(rng, rng.randint(1, 10)) for _ in range(150)]
        for d in cases:
            n = len(d.leaf_map)
            g = random_graph(rng, n, rng.choice((0.2, 0.35)))
            for mode in ("mim", "sim"):
                value, report = width_of(g, d, mode)
                want, want_report = brute_width(n, g.edges, d.tree.edges, d.leaf_map, mode)
                assert value == want
                assert (report and (report.edge, report.side)) == want_report

    def test_charged_cut_lists_equal_smaller_side_scans(self, monkeypatch):
        # every tree edge's cut edges are charged along graph-edge tree paths;
        # each list must be the scanned one, in the same (sorted) order
        seen = []
        mim_of_cut = decomp._mim_of_cut

        def recording(adj, cross, mode, floor=0):
            seen.append(list(cross))
            return mim_of_cut(adj, cross, mode, floor)

        monkeypatch.setattr(decomp, "_mim_of_cut", recording)
        rng = random.Random(59)
        cases = []
        for _ in range(60):
            d = random_subcubic_decomposition(rng, rng.randint(2, 30))
            cases.append((random_graph(rng, len(d.leaf_map), rng.choice((0.15, 0.4))), d))
        root_is_leaf = {0 in d.leaf_map for _, d in cases}
        for seed in range(3):
            for kind, build in (("path", decompose_convex), ("cycle", decompose_circular)):
                g, w = gen_random_hconvex(kind, 40, 50, seed)
                cases.append((g, build(g, w)))
            g, w = gen_random_hconvex("tree", 40, 50, seed, t=2 + seed, delta=4)
            cases.append((g, decompose_tdelta(g, w)))
        for g, d in cases:
            gg = g.to_graph()
            for mode in ("mim", "sim"):
                seen.clear()
                width_of(g, d, mode)
                assert len(seen) == len(d.tree.edges)
                for (u, v), cross in zip(sorted(d.tree.edges), seen):
                    side = leaves_on_side(d, u, v)
                    assert all(x in side for x, _ in cross)
                    assert [(min(e), max(e)) for e in cross] == scanned_cut_edges(gg.n, gg.edges, side)
        assert root_is_leaf == {True, False}

    def test_width_stream_pinned(self):
        # width, worst cut and witness side of the constructions and of
        # random-order caterpillars (widths above 2), both modes, 1,152 calls
        digest = hashlib.sha256()
        for a in range(3, 41):
            for seed in range(4):
                rng = random.Random(repr(("width", a, seed)))
                t, delta = ((0, 3), (1, 3), (2, 4), (4, 4))[(a + seed) % 4]
                if delta + 2 * t - 1 > a:
                    t, delta = 0, 3
                cases = []
                for kind, build in (("path", decompose_convex), ("cycle", decompose_circular), ("tree", decompose_tdelta)):
                    g, w = gen_random_hconvex(kind, a, a + seed, seed, t, delta)
                    cases.append((g, build(g, w)))
                    if a <= 12:
                        order = list(range(g.n))
                        rng.shuffle(order)
                        cases.append((g, caterpillar_from_ordering(order)))
                for g, d in cases:
                    for mode in ("mim", "sim"):
                        digest.update(repr(width_of(g, d, mode)).encode())
        assert digest.hexdigest() == "513a8443151b74bb521372ec7fd389842ce333302da46cee8ce9f26c05c75c4a"

    def test_dense_width_stream_pinned(self):
        # dense cuts, both modes: crowns on their circular decompositions, and
        # convex graphs whose every N(b) is an interval of about |A|/2 on a
        # shuffled path, on the convex construction and (small ones) on a
        # random-order caterpillar
        digest = hashlib.sha256()
        cases = []
        for n in range(2, 15):
            g, w = gen_crown(n)
            cases.append((g, decompose_circular(g, w)))
        for a in range(4, 21):
            for seed in range(3):
                rng = random.Random(repr(("dense", a, seed)))
                order = list(range(a))
                rng.shuffle(order)
                nbrs = []
                for _ in range(a + seed):
                    length = max(1, a // 2 + rng.randint(-1, 1))
                    start = rng.randrange(a - length + 1)
                    nbrs.append(frozenset(order[start : start + length]))
                g = BipartiteGraph(a, len(nbrs), tuple(nbrs))
                cases.append((g, decompose_convex(g, SupportWitness.from_order("path", order))))
                if a <= 9:
                    shuffled = list(range(g.n))
                    rng.shuffle(shuffled)
                    cases.append((g, caterpillar_from_ordering(shuffled)))
        for g, d in cases:
            for mode in ("mim", "sim"):
                digest.update(repr(width_of(g, d, mode)).encode())
        assert digest.hexdigest() == "9458bfb1c10a062d105fad872ff1cf4c4ae34fee6fdf68b8c463078771f1f0ef"

    def test_spine_deeper_than_recursion_limit(self):
        n = 1200
        assert n > sys.getrecursionlimit()
        g = path_graph(n)
        d = caterpillar_from_ordering(range(n))
        validate_decomposition(g, d)
        assert width_of(g, d)[0] == 1

    def test_exact_search_only_on_improving_cuts(self, monkeypatch):
        # every exact search raises the running maximum, so there are at most width of them
        real = decomp._max_independent_set
        calls = []
        monkeypatch.setattr(decomp, "_max_independent_set", lambda *args: calls.append(args) or real(*args))
        crown, cycle = gen_crown(20)
        tree, host = gen_random_hconvex("tree", 67, 67, 1, t=4, delta=4)
        for g, d in ((crown, decompose_circular(crown, cycle)), (tree, decompose_tdelta(tree, host))):
            for mode in ("mim", "sim"):
                calls.clear()
                width, _ = width_of(g, d, mode)
                assert 0 < len(calls) <= width


class TestValidateDecomposition:
    # one fault per input, then inputs with two faults: each message and the
    # order of the checks are pinned
    CASES = [
        ("empty tree", 0, Graph(0, frozenset()), {}, "empty decomposition tree"),
        ("too few edges", 2, Graph.make(4, [(0, 1), (1, 2)]), {0: 0, 2: 1}, "decomposition tree is not a tree"),
        ("too many edges", 3, Graph.make(3, [(0, 1), (1, 2), (0, 2)]), {}, "decomposition tree is not a tree"),
        ("disconnected", 2, Graph.make(4, [(0, 1), (1, 2), (0, 2)]), {3: 0}, "decomposition tree is disconnected"),
        ("degree 4", 4, Graph.make(5, [(0, i) for i in range(1, 5)]), {1: 0, 2: 1, 3: 2, 4: 3},
         "internal node 0 has degree 4 > 3"),
        ("internal key", 3, Graph.make(4, [(0, 1), (1, 2), (1, 3)]), {0: 0, 1: 1, 2: 2},
         "leaf_map keys do not match tree leaves"),
        ("leaf missing", 3, Graph.make(4, [(0, 1), (1, 2), (1, 3)]), {0: 0, 2: 1}, "leaf_map keys do not match tree leaves"),
        ("key out of range", 3, Graph.make(4, [(0, 1), (1, 2), (1, 3)]), {0: 0, 2: 1, 9: 2},
         "leaf_map keys do not match tree leaves"),
        ("one node, wrong key", 1, Graph(1, frozenset()), {1: 0}, "leaf_map keys do not match tree leaves"),
        ("repeated vertex", 3, Graph.make(4, [(0, 1), (1, 2), (1, 3)]), {0: 0, 2: 1, 3: 1},
         "leaf_map is not a bijection onto the vertex set"),
        ("vertex out of range", 3, Graph.make(4, [(0, 1), (1, 2), (1, 3)]), {0: 0, 2: 1, 3: 3},
         "leaf_map is not a bijection onto the vertex set"),
        ("too few vertices", 4, Graph.make(4, [(0, 1), (1, 2), (1, 3)]), {0: 0, 2: 1, 3: 2},
         "leaf_map is not a bijection onto the vertex set"),
        ("too few edges, disconnected", 2, Graph.make(5, [(0, 1), (2, 3)]), {0: 0, 4: 1},
         "decomposition tree is not a tree"),
        ("disconnected, degree 4", 4, Graph.make(8, [(0, i) for i in range(1, 5)] + [(5, 6), (6, 7), (5, 7)]),
         {1: 0, 2: 1, 3: 2, 4: 3}, "decomposition tree is disconnected"),
        ("disconnected, wrong keys", 2, Graph.make(5, [(0, 1), (1, 2), (0, 2), (3, 4)]), {0: 0, 3: 1},
         "decomposition tree is disconnected"),
        ("two nodes of degree 4", 6, Graph.make(10, [(0, 1), (0, 2), (0, 3), (0, 9), (9, 4), (9, 5), (9, 6), (9, 7), (9, 8)]),
         {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}, "internal node 0 has degree 4 > 3"),
        ("degree 4, internal key", 4, Graph.make(5, [(0, i) for i in range(1, 5)]), {0: 0, 1: 1, 2: 2, 3: 3},
         "internal node 0 has degree 4 > 3"),
        ("wrong keys, repeated vertex", 3, Graph.make(4, [(0, 1), (1, 2), (1, 3)]), {0: 0, 1: 0, 2: 2},
         "leaf_map keys do not match tree leaves"),
    ]

    @pytest.mark.parametrize("name, n, tree, leaf_map, message", CASES, ids=[c[0] for c in CASES])
    def test_message(self, name, n, tree, leaf_map, message):
        d = BranchDecomposition(tree, leaf_map)
        with pytest.raises(ValueError) as exc:
            validate_decomposition(Graph(n, frozenset()), d)
        assert str(exc.value) == message

    def test_valid_trees_return_their_walk(self):
        rng = random.Random(29)
        for d in [caterpillar_from_ordering([0]), caterpillar_from_ordering([1, 0])] + [
            random_subcubic_decomposition(rng, n) for n in range(1, 12)
        ]:
            walk = validate_decomposition(Graph(len(d.leaf_map), frozenset()), d)
            assert walk == preorder(d.tree.adjacency(), 0)

    def test_width_of_walks_the_tree_once(self, monkeypatch):
        # one adjacency of the tree, shared by the validation and the measurement
        g, w = gen_random_hconvex("tree", 30, 30, 5, t=3, delta=4)
        d = decompose_tdelta(g, w)
        calls = []

        def counting(name):
            real = getattr(Graph, name)

            def call(self):
                calls.append((name, self is d.tree))
                return real(self)

            monkeypatch.setattr(Graph, name, call)

        counting("adjacency")
        width_of(g, d, "mim")
        assert calls == [("adjacency", True)]
        calls.clear()
        width_of(g, d, "sim")
        assert sorted(calls) == [("adjacency", False), ("adjacency", True)]


def leaves_on_side(d, u, v):
    """The graph vertices on the leaves that u reaches without the tree edge (u, v)."""
    adj = d.tree.adjacency()
    seen, stack = {u, v}, [u]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return {d.leaf_map[x] for x in seen - {v} if x in d.leaf_map}


def random_subcubic_decomposition(rng, n):
    """Branch decomposition of n vertices on a random tree whose internal
    nodes have degree 3 or, after extra subdivisions, 2; node ids and the
    leaf map are shuffled."""
    if n == 1:
        return BranchDecomposition(Graph(1, frozenset()), {0: 0})
    edges, leaves = [(0, 1)], [0, 1]
    size = 2
    while len(leaves) < n:
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, size), (size, v), (size, size + 1)]
        leaves.append(size + 1)
        size += 2
    for _ in range(rng.randrange(3)):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, size), (size, v)]
        size += 1
    ids = list(range(size))
    rng.shuffle(ids)
    vertices = list(range(n))
    rng.shuffle(vertices)
    tree = Graph.make(size, [(ids[u], ids[v]) for u, v in edges])
    return BranchDecomposition(tree, {ids[leaf]: x for leaf, x in zip(leaves, vertices)})


class TestOracles:
    def test_trees_have_mimw_1(self):
        rng = random.Random(31)
        for _ in range(5):
            n = rng.randint(2, 7)
            edges = [(rng.randrange(i), i) for i in range(1, n)]
            g = Graph.make(n, edges)
            assert mimw_oracle(g)[0] == 1

    def test_k33(self):
        assert mimw_oracle(complete_bipartite(3, 3))[0] == 1

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            mimw_oracle(Graph(9, frozenset()))
        assert mimw_oracle(Graph(9, frozenset()), guard=9)[0] == 0

    def test_oracle_witness_achieves_value(self):
        rng = random.Random(37)
        rebuilt = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8), rng.choice((0.3, 0.5, 0.7)))
            for oracle, mode in ((mimw_oracle, "mim"), (simw_oracle, "sim")):
                value, witness = oracle(g)
                validate_decomposition(g, witness)
                assert width_of(g, witness, mode)[0] == value
                rebuilt += witness != caterpillar_from_ordering(range(g.n))
        # some trees come from the subset DP, not the starting caterpillar
        assert rebuilt > 0

    def test_oracles_match_brute_force(self):
        rng = random.Random(47)
        graphs = [random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7))) for _ in range(80)]
        values = set()
        for g in graphs + [cycle_graph(5), cycle_graph(6)]:
            want = (brute_min_width(g.n, g.edges, "mim"), brute_min_width(g.n, g.edges, "sim"))
            assert (mimw_oracle(g)[0], simw_oracle(g)[0]) == want
            values.add(want)
        assert values == {(0, 0), (1, 1), (2, 1)}

    def test_sim_le_mim(self):
        rng = random.Random(41)
        for _ in range(8):
            g = random_graph(rng, rng.randint(2, 6))
            assert simw_oracle(g)[0] <= mimw_oracle(g)[0]

    def test_vertex_addition_monotone(self):
        rng = random.Random(43)
        for _ in range(6):
            n = rng.randint(2, 5)
            g = random_graph(rng, n)
            extra = [(v, n) for v in range(n) if rng.random() < 0.5]
            g2 = Graph.make(n + 1, list(g.edges) + extra)
            assert mimw_oracle(g2)[0] >= mimw_oracle(g)[0]
            assert simw_oracle(g2)[0] >= simw_oracle(g)[0]

    def test_oracle_stream_pinned(self):
        # exact mim- and sim-width of 672 seeded graphs (n = 1..8, densities
        # 0.2..0.7), crowns 2..5 and grids up to 3 x 3
        digest = hashlib.sha256()
        cases = []
        for i in range(672):
            rng = random.Random(repr(("oracle", i)))
            cases.append((random_graph(rng, 1 + i % 8, (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)[i // 8 % 6]), 8))
        cases += [(gen_crown(k)[0], 10) for k in range(2, 6)]
        cases += [(gen_grid(r, c), 10) for r in range(1, 4) for c in range(r, 4)]
        for g, guard in cases:
            digest.update(repr((mimw_oracle(g, guard)[0], simw_oracle(g, guard)[0])).encode())
        assert digest.hexdigest() == "30f676fc44bc01ac661c3b50af3e4dc5fe96a3f1edb35812f4a0538d51a4c72d"


class TestBounds:
    def test_spider_bound_values(self):
        assert spider_bound(3) == 5
        assert spider_bound(4) == 8
        assert spider_bound(5) == 12

    def test_tdelta_bound_values(self):
        assert tdelta_bound(1, 3) == 8
        assert tdelta_bound(2, 3) == 17
        assert tdelta_bound(2, 4) == 24

    def test_multijoin_bound(self):
        assert multijoin_bound(2, 3, [1, 1, 1]) == max(2 * 2, 1 + 2 * 2)

    def test_construction_bound_values(self):
        path = SupportWitness("path", (0, 1, 2), frozenset({(0, 1), (1, 2)}))
        _, spider = spider_instance(4)
        assert construction_bound("convex", path) == 1
        assert construction_bound("circular", path) == 2
        assert construction_bound("spider", path) == 1  # no branching vertex
        assert construction_bound("tdelta", path) == 1
        assert construction_bound("spider", spider) == spider_bound(4)
        assert construction_bound("tdelta", spider) == tdelta_bound(1, 4)

    def test_thinness_class_bounds(self):
        assert [thin_bound(1, 3), thin_bound(2, 3), thin_bound(2, 4)] == [3, 4, 6]
        assert thin_bound(0, 2) == 2
        assert [pthin_bound(q) for q in range(4)] == [1, 4, 12, 32]


class TestInterleave:
    def test_b_after_greatest_neighbour_isolated_last(self):
        # A order a3 a1 a2; b1 ~ {a1, a3}, b2 isolated, b3 ~ {a2}, b4 ~ {a3}
        g = BipartiteGraph(
            3, 4, (frozenset({0, 2}), frozenset(), frozenset({1}), frozenset({2}))
        )
        assert interleave(g, [2, 0, 1]) == [2, 6, 0, 3, 1, 5, 4]

    def test_given_b_vertices_placed_within_a_order(self):
        # the same graph, A order a3 a1 and B vertices b1 b3 b4: b3's only
        # neighbour a2 is not in the order, so b3 goes to the end
        g = BipartiteGraph(
            3, 4, (frozenset({0, 2}), frozenset(), frozenset({1}), frozenset({2}))
        )
        assert interleave(g, [2, 0], [3, 5, 6]) == [2, 6, 0, 3, 5]


class TestDecomposeConvex:
    def test_empty_b(self):
        g = BipartiteGraph(3, 0, ())
        w = SupportWitness("path", (0, 1, 2), frozenset({(0, 1), (1, 2)}))
        d = decompose_convex(g, w)
        assert width_of(g, d)[0] == 0

    def test_insertion_order(self):
        g = BipartiteGraph(3, 2, (frozenset({0, 1}), frozenset({1, 2})))
        w = SupportWitness("path", (0, 1, 2), frozenset({(0, 1), (1, 2)}))
        d = decompose_convex(g, w)
        order = [d.leaf_map[leaf] for leaf in sorted(d.leaf_map)]
        assert order == [0, 1, 3, 2, 4]  # a1 a2 b1 a3 b2
        assert width_of(g, d)[0] == 1

    def test_random_instances_width_le_1(self):
        for seed in range(15):
            g, w = gen_random_hconvex("path", 10, 12, seed)
            d = decompose_convex(g, w)
            assert width_of(g, d)[0] <= 1

    def test_invalid_witness_rejected(self):
        g = BipartiteGraph(3, 1, (frozenset({0, 2}),))
        w = SupportWitness("path", (0, 1, 2), frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError):
            decompose_convex(g, w)

    def test_kind_mismatch_rejected(self):
        g, w = gen_crown(4)  # cycle witness
        with pytest.raises(ValueError):
            decompose_convex(g, w)
        path_w = SupportWitness(
            "path", (0, 1, 2), frozenset({(0, 1), (1, 2)})
        )
        g2 = BipartiteGraph(3, 0, ())
        with pytest.raises(ValueError):
            decompose_circular(g2, path_w)


class TestDecomposeCircular:
    def test_empty_b(self):
        g = BipartiteGraph(4, 0, ())
        w = SupportWitness(
            "cycle", (0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        )
        d = decompose_circular(g, w)
        assert d.linear and width_of(g, d)[0] == 0

    def test_crown6(self):
        g, w = gen_crown(6)
        d = decompose_circular(g, w)
        assert width_of(g, d)[0] <= 2

    def test_random_instances_width_le_2(self):
        for seed in range(15):
            g, w = gen_random_hconvex("cycle", 9, 11, seed)
            d = decompose_circular(g, w)
            assert width_of(g, d)[0] <= 2


class TestGlueMultijoin:
    def test_two_singletons(self):
        g = Graph.make(2, [(0, 1)])
        d0 = caterpillar_from_ordering([0])
        d1 = caterpillar_from_ordering([1])
        d = glue_multijoin(g, [[0], [1]], [d0, d1])
        validate_decomposition(g, d)
        assert width_of(g, d)[0] == 1

    def test_no_cross_edges(self):
        # with no edges between parts, gluing preserves the part widths
        g = Graph.make(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        d0 = caterpillar_from_ordering([0, 1, 2])
        d1 = caterpillar_from_ordering([3, 4, 5])
        d = glue_multijoin(g, [[0, 1, 2], [3, 4, 5]], [d0, d1])
        part_width = width_of(path_graph(3), caterpillar_from_ordering(range(3)))[0]
        assert width_of(g, d)[0] == part_width

    def test_p1_returns_part(self):
        g = path_graph(3)
        d0 = caterpillar_from_ordering([0, 1, 2])
        assert glue_multijoin(g, [[0, 1, 2]], [d0]) is d0

    def test_bad_partition(self):
        g = path_graph(3)
        d0 = caterpillar_from_ordering([0, 1])
        with pytest.raises(ValueError):
            glue_multijoin(g, [[0, 1], [1, 2]], [d0, d0])

    def test_glued_trees_pinned(self):
        # node ids, edges, leaf map and spine of glued trees: the spider and
        # (t, delta) constructions, and multijoins of shuffled part trees with
        # one-node parts among them.  Raw ids are hashed: the JSON form would
        # hide ids renumbered in the same order
        digest = hashlib.sha256()
        decomps = []
        for seed in range(40):
            delta = 3 + seed % 3
            a = delta + 2 + seed % 9
            g, w = gen_random_hconvex("tree", a, a + seed % 4, seed, t=1, delta=delta)
            decomps.append(decompose_spider(g, w))
            t = 2 + seed % 3
            g, w = gen_random_hconvex("tree", t * (delta - 1) + 2 + seed % 7, 12, seed, t=t, delta=delta)
            decomps.append(decompose_tdelta(g, w))
        rng = random.Random(2901)
        for _ in range(60):
            n = rng.randint(2, 16)
            order = list(range(n))
            rng.shuffle(order)
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
            parts = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
            part_decomps = []
            for part in parts:
                d = random_subcubic_decomposition(rng, len(part))
                part_decomps.append(BranchDecomposition(d.tree, {x: part[v] for x, v in d.leaf_map.items()}))
            decomps.append(glue_multijoin(random_graph(rng, n), parts, part_decomps))
        for d in decomps:
            digest.update(repr((d.tree.n, sorted(d.tree.edges), sorted(d.leaf_map.items()), d.spine)).encode())
        assert digest.hexdigest() == "c8b4bcc4244376674abc6fc35a3663febf4e36c1845aebefbd1c16f83d8feab6"


def spider_instance(delta, legs=2):
    # one branching vertex 0 with `delta` legs of `legs` path vertices
    edges = set()
    vid = 1
    leg_ends = []
    for _ in range(delta):
        prev = 0
        for _ in range(legs):
            edges.add((min(prev, vid), max(prev, vid)))
            prev = vid
            vid += 1
        leg_ends.append(prev)
    a = vid
    host = SupportWitness("tree", tuple(range(a)), frozenset(edges))
    rng = random.Random(delta * 100 + legs)
    adj = host.host_adjacency()
    nbrs = []
    for _ in range(2 * a):
        cur = {rng.randrange(a)}
        for _ in range(rng.randint(0, 3)):
            frontier = sorted(set().union(*(adj[v] for v in cur)) - cur)
            if not frontier:
                break
            cur.add(rng.choice(frontier))
        nbrs.append(frozenset(cur))
    g = BipartiteGraph(a, len(nbrs), tuple(nbrs))
    return g, host


class TestDecomposeSpider:
    def test_star_neighbourhoods(self):
        # N(b_i) = {hub, leaf_i} on a 3-leg spider
        g = BipartiteGraph(4, 3, tuple(frozenset({0, i}) for i in range(1, 4)))
        host = SupportWitness(
            "tree", (0, 1, 2, 3), frozenset({(0, 1), (0, 2), (0, 3)})
        )
        d = decompose_spider(g, host)
        assert width_of(g, d)[0] <= spider_bound(3)

    def test_delta4(self):
        g, host = spider_instance(4)
        d = decompose_spider(g, host)
        assert width_of(g, d)[0] <= spider_bound(4)

    def test_path_support_delegates(self):
        g = BipartiteGraph(3, 2, (frozenset({0, 1}), frozenset({1, 2})))
        w = SupportWitness("tree", (0, 1, 2), frozenset({(0, 1), (1, 2)}))
        d = decompose_spider(g, w)
        assert width_of(g, d)[0] <= 1

    def test_two_branchings_rejected(self):
        g, host = gen_random_hconvex("tree", 10, 5, 3, t=2, delta=3)
        if len(host.branching) == 2:
            with pytest.raises(ValueError):
                decompose_spider(g, host)

    def test_support_checked_once(self, monkeypatch):
        g, host = spider_instance(4)
        assert verify_support_calls(monkeypatch, lambda: decompose_spider(g, host)) == 1


class TestDecomposeTdelta:
    def test_t1_delegates_within_bound(self):
        g, host = spider_instance(3)
        d = decompose_tdelta(g, host)
        assert width_of(g, d)[0] <= tdelta_bound(1, 3)

    def test_t2_instances(self):
        for seed in range(6):
            g, w = gen_random_hconvex("tree", 10, 10, seed, t=2, delta=3)
            trace = []
            d = decompose_tdelta(g, w, trace)
            assert width_of(g, d)[0] <= tdelta_bound(2, 3)
            for level in trace:
                assert level["cut"] <= level["bound"]

    def test_split_cut_bound_respected(self):
        g, w = gen_random_hconvex("tree", 12, 12, 7, t=2, delta=4)
        trace = []
        decompose_tdelta(g, w, trace)
        assert trace, "expected at least one split"
        for level in trace:
            assert level["cut"] <= level["delta"] * (level["t"] - 1)

    def test_support_checked_once(self, monkeypatch):
        g, w = gen_random_hconvex("tree", 20, 20, 3, t=3, delta=4)
        assert len(w.branching) == 3
        assert verify_support_calls(monkeypatch, lambda: decompose_tdelta(g, w, [])) == 1

    def test_split_choice_matches_per_edge_search(self):
        split_degrees = set()
        for t in range(2, 6):
            for delta in range(3, 6):
                for seed in range(3):
                    g, w = gen_random_hconvex("tree", 30, 20, seed, t=t, delta=delta)
                    trace, want_trace = [], []
                    got = decompose_tdelta(g, w, trace)
                    want = reference_tdelta(g, w, want_trace, split_degrees)
                    assert decomposition_to_json(got, g) == decomposition_to_json(want, g)
                    assert trace == want_trace
        assert {3, 4} <= split_degrees


def verify_support_calls(monkeypatch, build):
    """The number of decomp.verify_support calls made by build()."""
    calls = []
    real = decomp.verify_support
    monkeypatch.setattr(decomp, "verify_support", lambda g, w: calls.append(w) or real(g, w))
    build()
    return len(calls)


def reference_tdelta(g, w, trace, split_degrees, spider=decompose_spider):
    """decompose_tdelta with every split chosen by oracles.tdelta_split and
    the parts of at most one branching vertex built by `spider`; records the
    host degrees of the split edges' ends in split_degrees."""
    t = len(w.branching)
    if t <= 1:
        return spider(g, w)
    (u, v), a1, a2 = tdelta_split(w.vertices, w.host_edges)
    adj = w.host_adjacency()
    split_degrees.update((len(adj[u]), len(adj[v])))
    b1 = [g.a_size + j for j, nb in enumerate(g.adj) if nb & a1]
    b2 = [g.a_size + j for j, nb in enumerate(g.adj) if not (nb & a1)]
    x1, x2 = sorted(a1) + b1, sorted(a2) + b2
    cut, _ = max_induced_matching_cut(g.to_graph(), x1)
    trace.append({"t": t, "delta": w.max_degree, "cut": cut, "bound": w.max_degree * (t - 1)})
    decomps = []
    for part, a_side in ((x1, a1), (x2, a2)):
        sub, mapping = induced_subgraph(g, part)
        host = restrict_support(w, a_side)
        local_edges = frozenset(
            (min(mapping[p], mapping[q]), max(mapping[p], mapping[q])) for p, q in host.host_edges
        )
        local_w = SupportWitness(host.kind, tuple(sorted(mapping[a] for a in a_side)), local_edges)
        d = reference_tdelta(sub, local_w, trace, split_degrees, spider)
        inverse = {new: old for old, new in mapping.items()}
        leaf_map = {leaf: inverse[x] for leaf, x in d.leaf_map.items()}
        decomps.append(BranchDecomposition(d.tree, leaf_map, d.linear, d.spine))
    return glue_multijoin(g.to_graph(), [x1, x2], decomps)


def reference_convex(g, a_order):
    """decompose_convex on the path host listed by a_order, least end first."""
    a_order = list(a_order)
    if a_order[-1] < a_order[0]:
        a_order.reverse()
    return caterpillar_from_ordering(interleave_by_insertion(a_order, b_neighbourhoods(g)))


def reference_spider(g, w):
    """decompose_spider with the host read by the oracles' path walks."""
    adj = w.host_adjacency()
    if not w.branching:
        start = min(v for v in w.vertices if len(adj[v]) <= 1)
        return reference_convex(g, walk_path(adj, start, len(w.vertices)))
    (u,) = w.branching
    legs = spider_legs(w.vertices, w.host_edges, u)
    b_prime, b_rest, b_of_leg = [], [], [[] for _ in legs]
    for j, nb in enumerate(g.adj):
        b = g.a_size + j
        homes = [i for i, leg in enumerate(legs) if nb <= set(leg) | {u}]
        if nb <= {u}:
            b_prime.append(b)
        elif homes:
            b_of_leg[homes[0]].append(b)
        else:
            b_rest.append(b)
    parts, decomps = [], []
    for i, leg in enumerate(legs):
        host = leg + [u] if i == 0 else leg
        bs = b_of_leg[0] + b_prime + b_rest if i == 0 else b_of_leg[i]
        parts.append(sorted(host) + sorted(bs))
        sub, mapping = induced_subgraph(g, parts[-1])
        d = reference_convex(sub, [mapping[v] for v in host])
        inverse = {new: old for old, new in mapping.items()}
        leaf_map = {leaf: inverse[x] for leaf, x in d.leaf_map.items()}
        decomps.append(BranchDecomposition(d.tree, leaf_map, d.linear, d.spine))
    return glue_multijoin(g.to_graph(), parts, decomps)


def b_neighbourhoods(g):
    return [(g.a_size + j, nb) for j, nb in enumerate(g.adj)]


def reference_thin(g, w):
    """thin_from_tree_support with the host read by the oracles' three loops."""
    cls_of, count, postorder = thin_classes_and_postorder(w.vertices, w.host_edges)
    class_sets = [set(range(g.a_size, g.n))] + [set() for _ in range(1, count)]
    for a, c in cls_of.items():
        class_sets[c].add(a)
    order = interleave_by_insertion(postorder, b_neighbourhoods(g))
    return ThinRepresentation(tuple(order), tuple(frozenset(c) for c in class_sets if c))


class TestRootedWalksMatchReference:
    """The constructions that root the support tree with graphs.preorder give
    the same outputs as the original hand-written walks kept in oracles."""

    @staticmethod
    def instances():
        for t in range(6):
            for seed in range(20):
                delta = 3 + seed % 3
                a = t * (delta - 1) + 2 + seed % 7
                yield gen_random_hconvex("tree", a, a + seed % 5, seed, t=t, delta=delta)
        for kind in ("path", "tree"):
            for b in range(3):
                g = BipartiteGraph(1, b, tuple(frozenset({0} if j else ()) for j in range(b)))
                yield g, SupportWitness(kind, (0,), frozenset())
        # empty neighbourhoods at the front, middle and end of B, at t >= 2
        for t in range(2, 6):
            for seed in range(4):
                delta = 3 + seed % 3
                a = t * (delta - 1) + 2 + seed
                g, w = gen_random_hconvex("tree", a, a, 50 + seed, t=t, delta=delta)
                nbrs = list(g.adj)
                for pos in (0, len(nbrs) // 2, len(nbrs) + 1):
                    nbrs.insert(pos, frozenset())
                yield BipartiteGraph(a, len(nbrs), tuple(nbrs)), w

    def test_thin_from_tree_support(self):
        for g, w in self.instances():
            got = representation_to_json(thin_from_tree_support(g, w), g)
            assert got == representation_to_json(reference_thin(g, w), g)

    def test_spider_parts(self):
        t_seen = set()
        for g, w in self.instances():
            t_seen.add(len(w.branching))
            if len(w.branching) <= 1:
                got, want = decompose_spider(g, w), reference_spider(g, w)
            else:
                got, want = decompose_tdelta(g, w), reference_tdelta(g, w, [], set(), reference_spider)
            assert decomposition_to_json(got, g) == decomposition_to_json(want, g)
        assert t_seen == set(range(6))


class TestConstructionsNeverBeatOracle:
    def test_oracle_lower_bounds_constructions(self):
        for seed in range(6):
            g, w = gen_random_hconvex("path", 4, 4, seed)
            d = decompose_convex(g, w)
            assert width_of(g, d)[0] >= mimw_oracle(g)[0]
            g, w = gen_random_hconvex("cycle", 4, 4, seed)
            d = decompose_circular(g, w)
            assert width_of(g, d)[0] >= mimw_oracle(g)[0]


class TestDecompositionJson:
    def test_roundtrip_caterpillar(self):
        g, w = gen_random_hconvex("path", 5, 4, 0)
        d = decompose_convex(g, w)
        data = decomposition_to_json(d, g)
        back = decomposition_from_json(data, g)
        assert decomposition_to_json(back, g) == data
        assert width_of(g, back)[0] == width_of(g, d)[0]

    def test_foreign_and_out_of_range_tokens_rejected(self):
        g, w = gen_random_hconvex("path", 5, 4, 0)
        data = decomposition_to_json(decompose_convex(g, w), g)
        for bad in ("x1", "b5", "a0", "1"):
            broken = {**data, "leaves": {**data["leaves"], "t1": bad}}
            with pytest.raises(GraphFormatError):
                decomposition_from_json(broken, g)

    def test_roundtrip_glued(self):
        g, host = spider_instance(3)
        d = decompose_spider(g, host)
        data = decomposition_to_json(d, g)
        back = decomposition_from_json(data, g)
        assert width_of(g, back)[0] == width_of(g, d)[0]
        assert data["linear"] is False
