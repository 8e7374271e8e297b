import hashlib
import random

import pytest

from gcwidth import (
    BipartiteGraph,
    GenSpec,
    SupportWitness,
    augment_comb,
    augment_star,
    comb_witness_for_augmented,
    gen_crown,
    gen_gk,
    gen_grid,
    gen_random_hconvex,
    parse_genspec,
    recognize_star,
    run_genspec,
    serialize_graph,
    star_witness_for_augmented,
    verify_support,
)
from gcwidth.families import _random_degree_constrained_tree


def random_bipartite(rng, a, b):
    adj = tuple(
        frozenset(v for v in range(a) if rng.random() < 0.4) for _ in range(b)
    )
    return BipartiteGraph(a, b, adj)


def _canonical(g, w) -> bytes:
    # sorted, so set iteration order does not enter the digest
    edges = sorted(w.host_edges)
    return repr((g.a_size, g.b_size, [sorted(nb) for nb in g.adj], w.kind, w.vertices, edges)).encode()


class TestGk:
    def test_g1(self):
        g = gen_gk(1)
        assert g.a_size == 1 and g.b_size == 0

    def test_g2_is_k13(self):
        g = gen_gk(2)
        assert g.a_size == 3 and g.b_size == 1
        assert g.adj == (frozenset({0, 1, 2}),)

    def test_g3_size(self):
        g = gen_gk(3)
        assert g.n == 13

    def test_size_recursion(self):
        sizes = [gen_gk(k).n for k in range(1, 5)]
        for prev, cur in zip(sizes, sizes[1:]):
            assert cur == 3 * prev + 1

    def test_unique_max_degree_vertex(self):
        # the last-added apex has degree 3^(k-1), strictly above everything else
        for k in (2, 3, 4):
            g = gen_gk(k)
            gg = g.to_graph()
            deg = list(map(len, gg.adjacency()))
            top = max(deg)
            assert top == 3 ** (k - 1)
            assert deg.count(top) == 1
            assert deg[g.n - 1] == top

    def test_guard(self):
        with pytest.raises(ValueError):
            gen_gk(6)


class TestCrown:
    def test_crown2_is_2k2(self):
        g, w = gen_crown(2)
        assert len(g.to_graph().edges) == 2
        assert verify_support(g, w)
        deg = list(map(len, g.to_graph().adjacency()))
        assert all(d == 1 for d in deg)

    def test_crown3_is_c6(self):
        g, _ = gen_crown(3)
        gg = g.to_graph()
        deg = list(map(len, gg.adjacency()))
        assert gg.n == 6 and all(d == 2 for d in deg)
        seen = {0}
        stack = [0]
        adj = gg.adjacency()
        while stack:
            v = stack.pop()
            for x in adj[v]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        assert len(seen) == 6  # connected 2-regular on 6 vertices: C6

    def test_crown4_witness(self):
        g, w = gen_crown(4)
        assert verify_support(g, w)


class TestGrid:
    def test_1x2(self):
        g = gen_grid(1, 2)
        assert g.n == 2 and len(g.to_graph().edges) == 1

    def test_2x2_is_c4(self):
        g = gen_grid(2, 2)
        assert g.n == 4 and len(g.to_graph().edges) == 4
        assert all(len(nb) == 2 for nb in g.adj)

    def test_3x3_counts(self):
        g = gen_grid(3, 3)
        assert g.n == 9 and len(g.to_graph().edges) == 12
        assert g.a_size == 5 and g.b_size == 4


class TestAugmentations:
    def test_star_recognized(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_bipartite(rng, rng.randint(1, 6), rng.randint(0, 6))
            aug = augment_star(g)
            assert aug.a_size == g.a_size + 1
            assert recognize_star(aug) is not None
            assert verify_support(aug, star_witness_for_augmented(g))

    def test_comb_witness_verifies(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_bipartite(rng, rng.randint(1, 5), rng.randint(0, 6))
            aug = augment_comb(g)
            assert aug.a_size == 2 * g.a_size
            w = comb_witness_for_augmented(g)
            assert w.kind == "comb"
            assert verify_support(aug, w)

    def test_comb_of_grid(self):
        g = gen_grid(2, 2)
        aug = augment_comb(g)
        assert verify_support(aug, comb_witness_for_augmented(g))

    def test_star_of_edgeless(self):
        g = BipartiteGraph(2, 0, ())
        aug = augment_star(g)
        assert aug.a_size == 3 and not any(aug.adj)


class TestRandomHconvex:
    def test_deterministic(self):
        a1 = gen_random_hconvex("path", 6, 5, 42)
        a2 = gen_random_hconvex("path", 6, 5, 42)
        assert a1 == a2
        assert serialize_graph(a1[0]) == serialize_graph(a2[0])

    def test_seed_changes_instance(self):
        g1, _ = gen_random_hconvex("cycle", 8, 8, 1)
        g2, _ = gen_random_hconvex("cycle", 8, 8, 2)
        assert g1 != g2

    def test_planted_witness_valid(self):
        for kind in ("path", "cycle"):
            for seed in range(5):
                g, w = gen_random_hconvex(kind, 7, 6, seed)
                assert verify_support(g, w)

    def test_tree_shape_parameters(self):
        for seed in range(5):
            g, w = gen_random_hconvex("tree", 12, 8, seed, t=2, delta=3)
            assert verify_support(g, w)
            assert len(w.branching) == 2 and w.max_degree == 3

    def test_tree_delta4(self):
        g, w = gen_random_hconvex("tree", 10, 8, 0, t=1, delta=4)
        assert len(w.branching) == 1 and w.max_degree == 4

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            gen_random_hconvex("tree", 3, 2, 0, t=2, delta=5)

    def test_branching_count_checked_before_sampling(self):
        for t in (-1, 10):
            with pytest.raises(ValueError, match="t = "):
                gen_random_hconvex("tree", 9, 5, 0, t=t, delta=3)
        # one vertex has no room for a branching vertex, like two
        for a in (1, 2):
            with pytest.raises(ValueError, match="is feasible"):
                gen_random_hconvex("tree", a, 3, 0, t=1, delta=3)

    def test_infeasible_tree_refused_before_any_draw(self):
        # t branching vertices need delta + 2t - 1 vertices: delta + t - 1 leaves besides themselves
        for t in range(1, 5):
            for delta in range(3, 7):
                for n in range(1, 15):
                    rng = random.Random(n)
                    state = rng.getstate()
                    if delta + 2 * t - 1 > n:
                        with pytest.raises(ValueError, match="is feasible"):
                            _random_degree_constrained_tree(rng, n, t, delta)
                        assert rng.getstate() == state
                        continue
                    edges = _random_degree_constrained_tree(rng, n, t, delta)
                    w = SupportWitness("tree", tuple(range(n)), frozenset(edges))
                    assert len(w.branching) == t and w.max_degree == delta

    def test_generator_stream_pinned(self):
        # perfbench builds its instances with these generators: a change to
        # their random draws or planted edges would change its inputs
        digest = hashlib.sha256()
        for a in range(1, 15):
            for seed in range(4):
                for kind, t, delta in (("path", 1, 3), ("cycle", 1, 3), ("tree", 0, 3), ("tree", 1, 3), ("tree", 2, 4)):
                    if t and delta + 2 * t - 1 > a:
                        continue
                    digest.update(_canonical(*gen_random_hconvex(kind, a, a + 2, seed, t, delta)))
        for n in range(2, 9):
            digest.update(_canonical(*gen_crown(n)))
        assert digest.hexdigest() == "85954e43a15303fccf33760771cf71388ee508e16d6b154818b9dc52a4b130e4"


class TestGenSpec:
    def test_parse(self):
        spec = parse_genspec("random_hconvex:kind=tree,a=12,b=10,t=2,delta=3:seed=7")
        assert spec == GenSpec(
            "random_hconvex", {"kind": "tree", "a": 12, "b": 10, "t": 2, "delta": 3}, 7
        )

    def test_parse_simple(self):
        assert parse_genspec("gk:k=3") == GenSpec("gk", {"k": 3}, 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_genspec("nope:k=3")

    def test_keys_the_family_does_not_read(self):
        with pytest.raises(ValueError, match="crown reads no key 'm'"):
            parse_genspec("crown:n=4,m=9")
        with pytest.raises(ValueError, match="grid reads no key 'kind'"):
            parse_genspec("grid:r=2,c=2,kind=x")
        with pytest.raises(ValueError, match="star_augment reads no key 'k'"):
            GenSpec("star_augment", {"input": "base.graph", "k": 2})
        # a required key left out is named with its family
        with pytest.raises(ValueError, match="crown needs key 'n'"):
            parse_genspec("crown")
        with pytest.raises(ValueError, match="grid needs key 'c'"):
            parse_genspec("grid:r=3")
        with pytest.raises(ValueError, match="comb_augment needs key 'input'"):
            GenSpec("comb_augment", {})
        # the specs perfbench builds stay valid, and random_hconvex has a default for every key
        GenSpec("random_hconvex", {"kind": "tree", "a": 30, "b": 40, "t": 2, "delta": 4}, 1)
        GenSpec("star_augment", {"input": "base.graph"})
        assert run_genspec(GenSpec("random_hconvex", {}))[0] == "hconvex_path_a8_b8_s0"

    def test_bad_fragment(self):
        with pytest.raises(ValueError):
            parse_genspec("gk:k")

    def test_values_are_ascii_integers(self):
        assert parse_genspec("gk:k=-1:seed=-7") == GenSpec("gk", {"k": -1}, -7)
        for spec in ("crown:n=\u0665", "crown:n=+5", "crown:n= 5", "crown:n=5_0", "crown:n=-", "gk:k=3:seed=\u0667"):
            with pytest.raises(ValueError, match="not an ASCII integer"):
                parse_genspec(spec)

    def test_run_gk(self):
        name, g, w = run_genspec(parse_genspec("gk:k=3"))
        assert g.n == 13 and w is None and "gk" in name

    def test_run_crown(self):
        name, g, w = run_genspec(parse_genspec("crown:n=4"))
        assert w is not None and verify_support(g, w)
