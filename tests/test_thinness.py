import hashlib
import random

import pytest

from gcwidth import (
    BipartiteGraph,
    Graph,
    PathDecomposition,
    SizeGuardError,
    SupportWitness,
    ThinRepresentation,
    linear_bd_from_thin,
    parse_pathdecomp,
    pathdecomp_to_pthin,
    pthin_oracle,
    representation_from_json,
    representation_to_json,
    serialize_pathdecomp,
    thin_from_tree_support,
    thin_oracle,
    verify_consistent,
    verify_pathdecomp,
    verify_strongly_consistent,
    width_of,
)
from gcwidth import thinness
from gcwidth.families import gen_crown, gen_gk, gen_grid, gen_random_hconvex

from oracles import (
    brute_thinness,
    consistent_by_triples,
    cycle_graph,
    path_graph,
    strongly_consistent_by_consecutiveness,
    strongly_consistent_by_triples,
)


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.make(n, edges)


def random_representation(rng, n, k):
    order = list(range(n))
    rng.shuffle(order)
    blocks = [set() for _ in range(k)]
    for v in range(n):
        blocks[rng.randrange(k)].add(v)
    classes = tuple(frozenset(b) for b in blocks if b)
    return ThinRepresentation(tuple(order), classes)


def edited(rng, r, steps):
    """r after `steps` random edits, each a swap of two neighbours in the
    order or a vertex moved to a random class."""
    order = list(r.order)
    classes = [set(c) for c in r.classes]
    for _ in range(steps):
        if rng.random() < 0.5:
            i = rng.randrange(len(order) - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        else:
            v = rng.choice(order)
            for c in classes:
                c.discard(v)
            rng.choice(classes).add(v)
    return ThinRepresentation(tuple(order), tuple(frozenset(c) for c in classes if c))


def random_q_path(rng, n, q):
    """Graph plus a valid width-q path decomposition (a partial q-path)."""
    active = list(range(min(q + 1, n)))
    bags = [frozenset(active)]
    nxt = len(active)
    while nxt < n:
        active[rng.randrange(len(active))] = nxt
        bags.append(frozenset(active))
        nxt += 1
    allowed = set()
    for bag in bags:
        bag = sorted(bag)
        for i in range(len(bag)):
            for j in range(i + 1, len(bag)):
                allowed.add((bag[i], bag[j]))
    edges = [e for e in sorted(allowed) if rng.random() < 0.6]
    return Graph.make(n, edges), PathDecomposition(tuple(bags))


class TestVerifiers:
    def test_edgeless_always_consistent(self):
        g = Graph(4, frozenset())
        r = ThinRepresentation((2, 0, 3, 1), (frozenset({0, 1, 2, 3}),))
        assert verify_consistent(g, r)

    def test_singletons_always_consistent(self):
        g = cycle_graph(5)
        r = ThinRepresentation(
            tuple(range(5)), tuple(frozenset({v}) for v in range(5))
        )
        assert verify_consistent(g, r)
        assert verify_strongly_consistent(g, r)

    def test_p3_example(self):
        # order a, c, b with {a, c} co-classed: ab in E needs cb in E, holds
        g = path_graph(3)  # edges 0-1, 1-2
        r = ThinRepresentation((0, 2, 1), (frozenset({0, 2}), frozenset({1})))
        assert verify_consistent(g, r)

    def test_k13_leaves_one_class(self):
        g = Graph.make(4, [(3, 0), (3, 1), (3, 2)])  # centre last
        r = ThinRepresentation((0, 1, 2, 3), (frozenset({0, 1, 2}), frozenset({3})))
        assert verify_strongly_consistent(g, r)

    def test_k13_centre_coclassed_violation(self):
        # centre first and co-classed with a leaf: centre-leaf edges to later
        # vertices violate the first triple condition
        g = Graph.make(4, [(3, 0), (3, 1), (3, 2)])
        r = ThinRepresentation((3, 0, 1, 2), (frozenset({0, 3}), frozenset({1, 2})))
        assert not verify_consistent(g, r)
        assert not verify_strongly_consistent(g, r)
        assert not strongly_consistent_by_consecutiveness(g, r)

    def test_malformed_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            verify_consistent(g, ThinRepresentation((0, 1), (frozenset({0, 1}),)))
        with pytest.raises(ValueError):
            verify_consistent(
                g, ThinRepresentation((0, 1, 2), (frozenset({0, 1}), frozenset({1, 2})))
            )

    def test_characterizations_agree_on_random_pairs(self):
        # the verifiers against the triple and consecutiveness references, on
        # random pairs and on both constructions' outputs with 1-2 edits each
        rng = random.Random(99)
        cases = []
        for _ in range(300):
            n = rng.randint(1, 7)
            g = random_graph(rng, n)
            cases.append((g, random_representation(rng, n, rng.randint(1, max(1, n)))))
        built = []
        for seed in range(30):
            g, p = random_q_path(rng, rng.randint(2, 40), rng.randint(1, 3))
            built.append((g, pathdecomp_to_pthin(g, p)))
            a, b = rng.randint(8, 30), rng.randint(1, 30)
            gb, w = gen_random_hconvex("tree", a, b, seed, t=rng.randint(0, 2), delta=rng.randint(3, 4))
            built.append((gb.to_graph(), thin_from_tree_support(gb, w)))
        cases += built + [(g, edited(rng, r, steps)) for g, r in built for steps in (1, 2, 2)]
        answers = set()
        for g, r in cases:
            consistent, strong = verify_consistent(g, r), verify_strongly_consistent(g, r)
            assert consistent == consistent_by_triples(g, r)
            assert strong == strongly_consistent_by_triples(g, r) == strongly_consistent_by_consecutiveness(g, r)
            answers |= {("consistent", consistent), ("strong", strong)}
        assert len(answers) == 4


class TestThinOracle:
    def test_edgeless(self):
        assert thin_oracle(Graph(3, frozenset())) == 1

    def test_interval_like_is_1(self):
        assert thin_oracle(path_graph(5)) == 1

    def test_c4_is_2(self):
        # frozen from the permutation+colouring oracle
        assert brute_thinness(4, cycle_graph(4).edges) == 2
        assert thin_oracle(cycle_graph(4)) == 2

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            thin_oracle(Graph(14, frozenset()))

    def test_matches_brute_force(self):
        rng = random.Random(123)
        for _ in range(25):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            assert thin_oracle(g) == brute_thinness(n, g.edges)

    def test_pthin_matches_brute_force(self):
        rng = random.Random(321)
        for _ in range(25):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            assert pthin_oracle(g) == brute_thinness(n, g.edges, proper=True)

    @pytest.mark.parametrize("proper", [False, True])
    def test_matches_brute_force_up_to_7(self, proper):
        rng = random.Random(707 + proper)
        for _ in range(20):
            n = rng.randint(3, 7)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            oracle = pthin_oracle if proper else thin_oracle
            assert oracle(g) == brute_thinness(n, g.edges, proper=proper)

    @pytest.mark.parametrize("proper", [False, True])
    def test_placement_is_a_certificate(self, proper):
        rng = random.Random(99 + proper)
        # crown(4) and the 3 x 3 grid reopen classes whose masks went empty
        graphs = [cycle_graph(5), gen_crown(3)[0].to_graph(), gen_crown(4)[0].to_graph(), gen_grid(3, 3).to_graph()]
        graphs.append(gen_gk(2).to_graph())
        graphs += [random_graph(rng, rng.randint(2, 8)) for _ in range(20)]
        verify = verify_strongly_consistent if proper else verify_consistent
        for g in graphs:
            value = (pthin_oracle if proper else thin_oracle)(g)
            adj = g.adjacency_masks()
            r = thinness._placement(g.n, adj, value, proper)
            assert r is not None and r.strong == proper
            assert r.class_count() <= value and verify(g, r)
            if value > 1:
                assert thinness._placement(g.n, adj, value - 1, proper) is None

    def test_rejected_certificate_raises(self, monkeypatch):
        for name, oracle in (("verify_consistent", thin_oracle), ("verify_strongly_consistent", pthin_oracle)):
            with monkeypatch.context() as m:
                m.setattr(thinness, name, lambda g, r: False)
                with pytest.raises(AssertionError, match="fails the verifier"):
                    oracle(cycle_graph(4))

    def test_certificate_over_class_count_raises(self, monkeypatch):
        def singletons(n, adj, k, proper):
            return ThinRepresentation(tuple(range(n)), tuple(frozenset([v]) for v in range(n)), proper)

        monkeypatch.setattr(thinness, "_placement", singletons)
        for oracle in (thin_oracle, pthin_oracle):
            with pytest.raises(AssertionError, match="fails the verifier"):
                oracle(cycle_graph(4))

    def test_thin_le_pthin(self):
        rng = random.Random(55)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 7))
            assert thin_oracle(g) <= pthin_oracle(g)

    def test_gk_family_small(self):
        assert pthin_oracle(gen_gk(1)) == 1
        assert pthin_oracle(gen_gk(2)) == 2  # K_{1,3}

    def test_thinness_stream_pinned(self):
        # thinness and proper thinness of 630 seeded graphs (n = 1..9,
        # densities 0.2..0.8), crowns 2..5, grids up to 3 x 3 and gk(1..2)
        digest = hashlib.sha256()
        cases = []
        for i in range(630):
            rng = random.Random(repr(("thinness", i)))
            cases.append(random_graph(rng, 1 + i % 9, (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)[i // 9 % 7]))
        cases += [gen_crown(k)[0] for k in range(2, 6)]
        cases += [gen_grid(r, c) for r in range(1, 4) for c in range(r, 4)]
        cases += [gen_gk(k) for k in (1, 2)]
        for g in cases:
            digest.update(repr((thin_oracle(g), pthin_oracle(g))).encode())
        assert digest.hexdigest() == "f075f9c8179afe419298c03354c485ffd07bd2f336fb1f05969bed517021dccf"


class TestThinFromTreeSupport:
    def test_path_support_two_classes(self):
        g, w = gen_random_hconvex("path", 8, 8, 0)
        tree_w = SupportWitness("tree", w.vertices, w.host_edges)
        r = thin_from_tree_support(g, tree_w)
        assert r.class_count() <= 2
        assert verify_consistent(g.to_graph(), r)

    def test_13_support_three_classes(self):
        g, w = gen_random_hconvex("tree", 9, 9, 2, t=1, delta=3)
        r = thin_from_tree_support(g, w)
        assert r.class_count() <= 3
        assert verify_consistent(g.to_graph(), r)

    def test_24_support_six_classes(self):
        g, w = gen_random_hconvex("tree", 12, 10, 4, t=2, delta=4)
        r = thin_from_tree_support(g, w)
        assert r.class_count() <= 2 + 2 * (4 - 2)
        assert verify_consistent(g.to_graph(), r)

    def test_sweep_consistency(self):
        for seed in range(10):
            g, w = gen_random_hconvex("tree", 10, 9, seed, t=2, delta=3)
            r = thin_from_tree_support(g, w)
            assert verify_consistent(g.to_graph(), r)
            assert r.class_count() <= 2 + len(w.branching) * (w.max_degree - 2)

    def test_linear_bd_width_le_classes(self):
        for seed in range(8):
            g, w = gen_random_hconvex("tree", 9, 8, seed, t=1, delta=3)
            r = thin_from_tree_support(g, w)
            d = linear_bd_from_thin(g, r)
            assert width_of(g, d, "mim")[0] <= r.class_count()

    def test_inconsistent_rejected(self):
        g = cycle_graph(4)
        r = ThinRepresentation((0, 1, 2, 3), (frozenset({0, 1, 2, 3}),))
        if not verify_consistent(g, r):
            with pytest.raises(ValueError):
                linear_bd_from_thin(g, r)


class TestPathDecomp:
    def test_verify_simple(self):
        g = path_graph(3)
        p = PathDecomposition((frozenset({0, 1}), frozenset({1, 2})))
        assert verify_pathdecomp(g, p) == (True, 1)

    def test_missing_edge(self):
        g = path_graph(3)
        p = PathDecomposition((frozenset({0, 1}), frozenset({2})))
        assert verify_pathdecomp(g, p)[0] is False

    def test_non_consecutive(self):
        g = Graph(3, frozenset())
        p = PathDecomposition((frozenset({0, 1}), frozenset({2}), frozenset({0})))
        assert verify_pathdecomp(g, p)[0] is False

    def test_file_roundtrip(self):
        g = path_graph(4)
        p = PathDecomposition((frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})))
        text = serialize_pathdecomp(p, g)
        assert parse_pathdecomp(text, g) == p


class TestPathdecompToPthin:
    def test_p4_width1(self):
        g = path_graph(4)
        p = PathDecomposition((frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})))
        r = pathdecomp_to_pthin(g, p)
        assert r.class_count() <= 4  # 2^1 * 2
        assert verify_strongly_consistent(g, r)
        assert all(
            not any((u, v) in g.edges for u in c for v in c if u < v) for c in r.classes
        )

    def test_edgeless_single_bag(self):
        g = Graph(3, frozenset())
        p = PathDecomposition((frozenset({0, 1, 2}),))
        r = pathdecomp_to_pthin(g, p)
        assert r.class_count() == 1
        assert verify_strongly_consistent(g, r)

    def test_partial_2_trees(self):
        rng = random.Random(77)
        for _ in range(10):
            g, p = random_q_path(rng, rng.randint(4, 12), 2)
            ok, q = verify_pathdecomp(g, p)
            assert ok and q <= 2
            r = pathdecomp_to_pthin(g, p)
            assert r.class_count() <= (2**q) * (q + 1)
            assert verify_strongly_consistent(g, r)

    def test_upper_bounds_oracle(self):
        rng = random.Random(88)
        for _ in range(5):
            g, p = random_q_path(rng, rng.randint(4, 8), 1)
            r = pathdecomp_to_pthin(g, p)
            assert pthin_oracle(g) <= r.class_count()

    def test_invalid_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            pathdecomp_to_pthin(g, PathDecomposition((frozenset({0}),)))


class TestRepresentationJson:
    def test_roundtrip_bipartite_tokens(self):
        g, w = gen_random_hconvex("tree", 8, 7, 3, t=1, delta=3)
        r = thin_from_tree_support(g, w)
        data = representation_to_json(r, g)
        assert all(tok[0] in "ab" for tok in data["order"])
        back = representation_from_json(data, g)
        assert back.order == r.order
        assert set(back.classes) == set(r.classes)

    def test_roundtrip_general_tokens(self):
        g = path_graph(4)
        p = PathDecomposition((frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})))
        r = pathdecomp_to_pthin(g, p)
        back = representation_from_json(representation_to_json(r, g), g)
        assert back.order == r.order and back.strong


class TestCrownGrowth:
    def test_small_crowns(self):
        g2, _ = gen_crown(2)
        g3, _ = gen_crown(3)
        t2, t3 = thin_oracle(g2), thin_oracle(g3)
        assert t2 == brute_thinness(4, g2.to_graph().edges)
        assert t3 == brute_thinness(6, g3.to_graph().edges)
        assert t2 <= t3
