import hashlib
import random
from itertools import combinations

import pytest

from gcwidth import (
    BipartiteGraph,
    SupportWitness,
    recognize_circular,
    recognize_convex,
    recognize_star,
    recognize_tdelta,
    tree_support_degree_bounded,
    verify_support,
    witness_from_json,
    witness_to_json,
)
from gcwidth.families import augment_star, gen_crown, gen_grid, gen_random_hconvex
from gcwidth.supports import KINDS, _SHAPE_TESTS, _support_pairs

from oracles import (
    all_labelled_trees,
    has_circular_order,
    has_path_order,
    has_tree_support,
    restrict_support,
    tree_connects_hyperedges,
    walk_path,
)


def path_witness(*order):
    return SupportWitness.from_order("path", order)


def random_bipartite(rng, a, b):
    adj = tuple(
        frozenset(v for v in range(a) if rng.random() < 0.4) for _ in range(b)
    )
    return BipartiteGraph(a, b, adj)


def _random_host(rng, n):
    """Host edges on 0..n-1: a from_order path or cycle, a random tree, a
    star, a comb, a comb with one tooth moved, a union of cycles or a
    random graph."""
    order = list(range(n))
    rng.shuffle(order)
    shape = rng.choice(("path", "cycle", "tree", "star", "comb", "moved", "cycles", "random"))
    if shape in ("path", "cycle"):
        return SupportWitness.from_order(shape, order).host_edges
    if shape == "tree":
        pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    elif shape == "star":
        pairs = [(order[0], v) for v in order[1:]]
    elif shape in ("comb", "moved"):
        k = n // 2
        pairs = list(zip(order[: k - 1], order[1:k])) + list(zip(order[:k], order[k : 2 * k]))
        if shape == "moved" and k >= 2:
            i = rng.randrange(k)
            pairs[k - 1 + i] = (order[rng.choice([j for j in range(k) if j != i])], order[k + i])
    elif shape == "cycles":
        pairs, start = [], 0
        while n - start >= 3:
            size = rng.randint(3, n - start)
            size = n - start if n - start - size < 3 else size
            ring = order[start : start + size]
            pairs += list(zip(ring, ring[1:] + ring[:1]))
            start += size
    else:
        p = rng.uniform(0.1, 0.6)
        pairs = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    return frozenset((min(u, v), max(u, v)) for u, v in pairs if u != v)


def _shape_corpus(hosts):
    """Seeded (graph, witness) pairs with |A| <= 9, each host tagged with
    every kind.  Each N(b) is a random subset of A (density up to 0.7, so
    N(b) = A turns up on small cycles) or a subset grown along the host."""
    rng = random.Random(19)
    for _ in range(hosts):
        n = rng.randint(1, 9)
        edges = _random_host(rng, n)
        adj = SupportWitness("tree", tuple(range(n)), edges).host_adjacency()
        nbs = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                density = rng.uniform(0, 0.7)
                nbs.append(frozenset(v for v in range(n) if rng.random() < density))
            else:
                grown = {rng.randrange(n)}
                while rng.random() < 0.7 and set().union(*(adj[v] for v in grown)) - grown:
                    grown.add(rng.choice(sorted(set().union(*(adj[v] for v in grown)) - grown)))
                nbs.append(frozenset(grown))
        g = BipartiteGraph(n, len(nbs), tuple(nbs))
        for kind in KINDS:
            yield g, SupportWitness(kind, tuple(range(n)), edges)


def _search_corpus():
    """Seeded tree_support_degree_bounded calls (n, hyperedges, t, delta):
    2,200 hypergraphs with n <= 9, t in 0..3 and delta in 2..5, each
    hyperedge a random subset of the ground set or a subset grown along a
    random tree, then planted path, cycle and (2, 4)-tree instances with
    |A| = 12, each asked for (0, 2), (1, 3) and (2, 4)."""
    rng = random.Random(23)
    for _ in range(2200):
        n = rng.randint(1, 9)
        order = list(range(n))
        rng.shuffle(order)
        adj = {v: set() for v in range(n)}
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            adj[u].add(v)
            adj[v].add(u)
        hyperedges = []
        for _ in range(rng.randint(1, 9)):
            if rng.random() < 0.6:
                hyperedges.append(frozenset(rng.sample(range(n), rng.randint(0, n))))
            else:
                grown = {rng.randrange(n)}
                while rng.random() < 0.7 and set().union(*(adj[v] for v in grown)) - grown:
                    grown.add(rng.choice(sorted(set().union(*(adj[v] for v in grown)) - grown)))
                hyperedges.append(frozenset(grown))
        yield n, hyperedges, rng.randint(0, 3), rng.randint(2, 5)
    for seed in range(20):
        for kind, t, delta in (("path", 0, 2), ("cycle", 0, 2), ("tree", 2, 4)):
            g, _ = gen_random_hconvex(kind, 12, 12, seed, t=t, delta=delta)
            for query in ((0, 2), (1, 3), (2, 4)):
                yield (12, g.adj, *query)


class TestVerifySupport:
    def test_edge_on_path(self):
        g = BipartiteGraph(3, 1, (frozenset({0, 1}),))
        assert verify_support(g, path_witness(0, 1, 2))

    def test_disconnected_on_path(self):
        g = BipartiteGraph(3, 1, (frozenset({0, 2}),))
        assert not verify_support(g, path_witness(0, 1, 2))

    def test_crown4_cycle(self):
        g, w = gen_crown(4)
        assert verify_support(g, w)

    def test_size_mismatch(self):
        g = BipartiteGraph(4, 1, (frozenset({0, 1}),))
        with pytest.raises(ValueError):
            verify_support(g, path_witness(0, 1, 2))

    def test_shape_enforced(self):
        # a star host declared as a path must fail the shape check
        g = BipartiteGraph(4, 0, ())
        star_edges = frozenset({(0, 1), (0, 2), (0, 3)})
        bad = SupportWitness("path", (0, 1, 2, 3), star_edges)
        assert not verify_support(g, bad)
        good = SupportWitness("star", (0, 1, 2, 3), star_edges)
        assert verify_support(g, good)

    def test_comb_shape(self):
        # backbone 0-1-2 with teeth 3,4,5
        g = BipartiteGraph(6, 0, ())
        comb = SupportWitness(
            "comb", tuple(range(6)), frozenset({(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)})
        )
        assert verify_support(g, comb)
        not_comb = SupportWitness(
            "comb", tuple(range(6)), frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)})
        )
        assert not verify_support(g, not_comb)


    def test_verify_stream_pinned(self):
        # one digest over (verify_support, shape test) for every pair of the
        # seeded corpus: the connectivity rule must keep every answer
        digest = hashlib.sha256()
        count = 0
        for g, w in _shape_corpus(1200):
            digest.update(repr((verify_support(g, w), _SHAPE_TESTS[w.kind](w, w.host_adjacency()))).encode())
            count += 1
        assert count >= 5000
        assert digest.hexdigest() == "e6f795ac63ef5a44961561c15f783b9c1c47c9100bda1bbed80677b8a17361b4"

    def test_agrees_with_connectivity_oracle(self):
        shaped = 0
        for g, w in _shape_corpus(1200):
            if _SHAPE_TESTS[w.kind](w, w.host_adjacency()):
                shaped += 1
                assert verify_support(g, w) == tree_connects_hyperedges(g.a_size, w.host_edges, g.adj)
        assert shaped >= 1000


class TestFromOrder:
    def test_host_visits_the_order_in_turn(self):
        rng = random.Random(15)
        for n in range(7):
            for kind in ("path", "cycle"):
                for _ in range(5):
                    order = list(range(n))
                    rng.shuffle(order)
                    w = SupportWitness.from_order(kind, order)
                    assert w.kind == kind and w.vertices == tuple(range(n))
                    if n <= 1:
                        assert w.host_edges == frozenset()
                    elif kind == "cycle" and n == 2:
                        assert w.host_edges == frozenset({(0, 1)})
                    else:
                        assert len(w.host_edges) == (n if kind == "cycle" else n - 1)
                    assert verify_support(BipartiteGraph(n, 0, ()), w)
                    walk = w.cycle_order() if kind == "cycle" else w.path_order()
                    turns = [order[i:] + order[:i] for i in range(n)] if kind == "cycle" else [order]
                    assert list(walk) in turns + [t[::-1] for t in turns] or n == 0

    def test_closed_pair_is_a_support(self):
        g = BipartiteGraph(2, 1, (frozenset({0, 1}),))
        w = SupportWitness.from_order("cycle", (1, 0))
        assert verify_support(g, w) and w.cycle_order() == (0, 1)


class TestTreeSupportDegreeBounded:
    def test_single_pair(self):
        edges = tree_support_degree_bounded(3, (frozenset({0, 1}),), 0, 2)
        assert edges is not None and (0, 1) in edges
        assert len(edges) == 2  # spanning path

    def test_three_pairs_cap2_infeasible(self):
        hyperedges = (frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3}))
        assert has_tree_support(4, hyperedges, 0, 2) is False
        assert tree_support_degree_bounded(4, hyperedges, 0, 2) is None

    def test_three_pairs_cap3_star(self):
        hyperedges = (frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3}))
        assert has_tree_support(4, hyperedges, 1, 3) is True
        edges = tree_support_degree_bounded(4, hyperedges, 1, 3)
        assert edges == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_tiny_ground_sets(self):
        # n = 1 is the one-vertex tree, and for n >= 2 the spanning target is open at the root
        for t, delta in ((0, 2), (1, 3)):
            assert tree_support_degree_bounded(1, (), t, delta) == frozenset()
            assert tree_support_degree_bounded(2, (), t, delta) == {(0, 1)}
            assert tree_support_degree_bounded(2, (frozenset({0, 1}),), t, delta) == {(0, 1)}
            assert tree_support_degree_bounded(3, (frozenset({0}),), t, delta) == {(0, 1), (0, 2)}

    def test_agrees_with_exhaustive(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = rng.randint(0, 4)
            hyperedges = tuple(
                frozenset(rng.sample(range(n), rng.randint(2, n))) for _ in range(m)
            )
            t, delta = rng.randint(0, 2), rng.randint(2, 4)
            got = tree_support_degree_bounded(n, hyperedges, t, delta)
            expected = has_tree_support(n, hyperedges, t, delta)
            assert (got is not None) == expected
            if got is not None:
                w = SupportWitness("tree", tuple(range(n)), got)
                assert len(w.branching) <= t and w.max_degree <= delta
                assert verify_support(BipartiteGraph(n, m, hyperedges), w)

    def test_search_stream_pinned(self):
        # one digest over every answer of the seeded corpus, "no" included:
        # the search must return the same tree, not just some support
        digest = hashlib.sha256()
        count = no = 0
        for n, hyperedges, t, delta in _search_corpus():
            r = tree_support_degree_bounded(n, hyperedges, t, delta)
            digest.update(repr(None if r is None else sorted(r)).encode())
            count += 1
            no += r is None
        assert count >= 2000 and no >= 300
        assert digest.hexdigest() == "b5d0e8af01bac074532f659f721039149703882b8515f5e0ef90d5d6270dd68c"


class TestSupportPairs:
    def test_pairs_are_the_union_of_all_supports(self):
        rng = random.Random(12)
        several = unweighted = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            hyperedges = tuple(
                frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(0, 4))
            )
            supports = [edges for edges in all_labelled_trees(n) if tree_connects_hyperedges(n, edges, hyperedges)]
            support = _support_pairs(n, hyperedges)
            if not supports:
                assert support is None
                continue
            pairs, part = support
            assert all(any({u, v} <= he for he in hyperedges) for u, v in pairs)
            got = pairs | {(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]}
            assert got == set().union(*supports)
            several += len(supports) > 1
            unweighted += len(set(part)) > 1
        # ties inside a weight class and pairs in no hyperedge both occur
        assert several and unweighted

    def test_grids_have_no_tree_support(self):
        for r in (5, 6, 7):
            g = gen_grid(r, r)
            assert _support_pairs(g.a_size, g.adj) is None
            assert recognize_tdelta(g, 2, 4) is None


class TestRecognizeConvex:
    def test_chain_deeper_than_recursion_limit(self):
        n = 1500
        g = BipartiteGraph(n, n - 1, tuple(frozenset({i, i + 1}) for i in range(n - 1)))
        w = recognize_convex(g)
        assert w is not None and verify_support(g, w)

    def test_many_supports_deeper_than_recursion_limit(self):
        # 750 disjoint pairs: many trees are supports, so the search runs one
        # level per tree edge
        n = 1500
        g = BipartiteGraph(n, n // 2, tuple(frozenset({2 * i, 2 * i + 1}) for i in range(n // 2)))
        for w in (recognize_convex(g), recognize_tdelta(g, 1, 3)):
            assert w is not None and verify_support(g, w)

    def test_no_constraints_identity(self):
        g = BipartiteGraph(4, 0, ())
        w = recognize_convex(g)
        assert w.path_order() == (0, 1, 2, 3)

    def test_already_consecutive(self):
        g = BipartiteGraph(3, 2, (frozenset({0, 1}), frozenset({1, 2})))
        w = recognize_convex(g)
        assert w is not None and verify_support(g, w)

    def test_grid_colour_class_matches_brute_force(self):
        from gcwidth.families import gen_grid

        g = gen_grid(3, 3)  # |A| = 5
        w = recognize_convex(g)
        expected = has_path_order(g.a_size, g.adj)
        assert (w is not None) == expected
        if w is not None:
            assert verify_support(g, w)

    def test_star_hypergraph_not_convex(self):
        g = BipartiteGraph(
            5,
            4,
            tuple(frozenset({0, i}) for i in range(1, 5)),
        )
        assert recognize_convex(g) is None
        assert not has_path_order(5, g.adj)


class TestRecognizeCircular:
    def test_convex_closes_to_cycle(self):
        g = BipartiteGraph(3, 2, (frozenset({0, 1}), frozenset({1, 2})))
        w = recognize_circular(g)
        assert w is not None and w.kind == "cycle"
        assert verify_support(g, w)

    def test_crown5(self):
        g, _ = gen_crown(5)
        w = recognize_circular(g)
        assert w is not None and verify_support(g, w)
        assert has_circular_order(5, g.adj)

    def test_chordal_bipartite_negative(self):
        # 4 pairs through one common vertex: a tree (chordal bipartite),
        # but no circular order exists at |A| = 5
        from oracles import is_chordal_bipartite

        g = BipartiteGraph(5, 4, tuple(frozenset({0, i}) for i in range(1, 5)))
        assert is_chordal_bipartite(g)
        assert not has_circular_order(5, g.adj)
        assert recognize_circular(g) is None


class TestRecognizeStar:
    def test_single_hyperedge(self):
        g = BipartiteGraph(3, 1, (frozenset({0, 1, 2}),))
        w = recognize_star(g)
        assert w is not None and verify_support(g, w)

    def test_three_pairwise_intersections(self):
        g = BipartiteGraph(
            3, 3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
        )
        assert recognize_star(g) is None
        # cross-check: no centre works
        for c in range(3):
            assert any(c not in nb for nb in g.adj if len(nb) >= 2)

    def test_star_augmentation_recognized(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_bipartite(rng, rng.randint(1, 5), rng.randint(0, 5))
            aug = augment_star(g)
            w = recognize_star(aug)
            assert w is not None and verify_support(aug, w)


class TestRecognizeTdelta:
    def test_convex_t0(self):
        g = BipartiteGraph(3, 2, (frozenset({0, 1}), frozenset({1, 2})))
        w = recognize_tdelta(g, 0, 2)
        assert w is not None and w.max_degree <= 2

    def test_star_instance(self):
        g = BipartiteGraph(4, 3, tuple(frozenset({0, i}) for i in range(1, 4)))
        w = recognize_tdelta(g, 1, 3)
        assert w is not None and verify_support(g, w)
        assert len(w.branching) <= 1 and w.max_degree <= 3
        assert recognize_tdelta(g, 0, 3) is None

    def test_singleton_neighbourhoods_deeper_than_recursion_limit(self):
        # every tree is a support, so a search would recurse once per tree edge
        n = 1500
        g = BipartiteGraph(n, n, tuple(frozenset({i}) for i in range(n)))
        for t, delta in ((1, 3), (2, 4)):
            w = recognize_tdelta(g, t, delta)
            assert w is not None and verify_support(g, w)
            assert len(w.branching) <= t and w.max_degree <= delta

    def test_fewest_branching_vertices_first(self):
        # the budget steps up from 0, so a tree with more branching vertices
        # than needed is never returned
        rng = random.Random(14)
        fewer = 0
        for _ in range(60):
            a = rng.randint(3, 6)
            g = random_bipartite(rng, a, rng.randint(1, 4))
            t, delta = rng.randint(1, 3), rng.randint(3, 4)
            w = recognize_tdelta(g, t, delta)
            least = next((k for k in range(t + 1) if has_tree_support(a, g.adj, k, delta)), None)
            assert (w is None) == (least is None)
            if w is not None:
                assert verify_support(g, w) and len(w.branching) == least
                fewer += least < t
        assert fewer

    def test_monotone_in_parameters(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_bipartite(rng, rng.randint(2, 5), rng.randint(1, 4))
            hit = recognize_tdelta(g, 1, 3)
            if hit is not None:
                for t, d in ((1, 4), (2, 3), (2, 4)):
                    assert recognize_tdelta(g, t, d) is not None


class TestCorpusAgreement:
    def test_yes_no_matches_exhaustive_search(self):
        rng = random.Random(2024)
        for _ in range(30):
            a = rng.randint(2, 6)
            b = rng.randint(1, 4)
            g = random_bipartite(rng, a, b)
            assert (recognize_convex(g) is not None) == has_path_order(a, g.adj)
            assert (recognize_circular(g) is not None) == has_circular_order(a, g.adj)
            for t, d in ((1, 3), (2, 3)):
                got = recognize_tdelta(g, t, d)
                assert (got is not None) == has_tree_support(a, g.adj, t, d)
                if got is not None:
                    assert verify_support(g, got)

    def test_planted_witnesses_recognized(self):
        for seed in range(8):
            g, w = gen_random_hconvex("path", 7, 6, seed)
            assert verify_support(g, w)
            assert recognize_convex(g) is not None
            g, w = gen_random_hconvex("cycle", 7, 6, seed)
            assert verify_support(g, w)
            assert recognize_circular(g) is not None
        g, w = gen_random_hconvex("tree", 12, 10, 1, t=2, delta=3)
        assert verify_support(g, w)
        assert recognize_tdelta(g, 2, 3) is not None


class TestCycleOrder:
    def test_walk_from_least_vertex_toward_lesser_neighbour(self):
        witnesses = [gen_random_hconvex("cycle", 3 + seed % 15, 3, seed)[1] for seed in range(60)]
        witnesses += [gen_crown(n)[1] for n in range(3, 9)]
        for w in witnesses:
            assert w.cycle_order() == walk_path(w.host_adjacency(), 0, len(w.vertices))
        assert SupportWitness("cycle", (0, 1), frozenset({(0, 1)})).cycle_order() == (0, 1)

    def test_non_cycle_rejected(self):
        path = SupportWitness("cycle", (0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3)}))
        two_triangles = SupportWitness(
            "cycle", tuple(range(6)), frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})
        )
        for w in (path, two_triangles):
            with pytest.raises(ValueError, match="host is not a cycle"):
                w.cycle_order()


class TestRestrictSupport:
    def test_path_prefix(self):
        w = path_witness(0, 1, 2)
        r = restrict_support(w, {0, 1})
        assert r.kind == "path" and r.host_edges == frozenset({(0, 1)})

    def test_star_degree_drop(self):
        star = SupportWitness("star", (0, 1, 2, 3), frozenset({(0, 1), (0, 2), (0, 3)}))
        r = restrict_support(star, {0, 1, 2})
        assert r.kind == "path"
        assert r.host_edges == frozenset({(0, 1), (0, 2)})

    def test_single_vertex(self):
        w = path_witness(0, 1, 2)
        r = restrict_support(w, {1})
        assert r.vertices == (1,) and not r.host_edges

    def test_disconnected_rejected(self):
        w = path_witness(0, 1, 2)
        with pytest.raises(ValueError):
            restrict_support(w, {0, 2})


class TestWitnessJson:
    def test_roundtrip(self):
        g, w = gen_crown(4)
        data = witness_to_json(w)
        assert data["kind"] == "cycle"
        assert data["t"] == 0 and data["delta"] == 2
        back = witness_from_json(data)
        assert back == w

    def test_tree_fields(self):
        g = BipartiteGraph(4, 3, tuple(frozenset({0, i}) for i in range(1, 4)))
        w = recognize_tdelta(g, 1, 3)
        data = witness_to_json(w)
        assert data["t"] == len(w.branching) and data["delta"] == w.max_degree
        assert witness_from_json(data) == w
