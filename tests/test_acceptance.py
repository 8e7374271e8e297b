"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either checked against an explicit bound formula or
frozen from the independent brute-force oracles in oracles.py.
"""

import random
import time

from gcwidth import (
    BipartiteGraph,
    Graph,
    augment_comb,
    augment_star,
    comb_witness_for_augmented,
    decompose_circular,
    decompose_convex,
    decompose_spider,
    decompose_tdelta,
    gen_crown,
    gen_gk,
    gen_grid,
    gen_random_hconvex,
    linear_bd_from_thin,
    max_induced_matching_cut,
    mimw_oracle,
    pathdecomp_to_pthin,
    pthin_oracle,
    recognize_circular,
    recognize_star,
    simw_oracle,
    spider_bound,
    tdelta_bound,
    thin_from_tree_support,
    thin_oracle,
    verify_consistent,
    verify_pathdecomp,
    verify_strongly_consistent,
    verify_support,
    width_of,
)
from gcwidth.thinness import ThinRepresentation

from oracles import (
    brute_max_induced_matching,
    has_induced_pattern,
    is_chordal_bipartite,
    pattern_k3_k3,
    pattern_k3_s3,
    strongly_consistent_by_consecutiveness,
    strongly_consistent_by_triples,
)
from test_thinness import random_q_path


def _sizes(i, lo_a=4, hi_a=30, total=60):
    a = lo_a + (i * 5) % (hi_a - lo_a + 1)
    b = min(total - a, 2 + (i * 7) % 30)
    return a, max(b, 1)


def test_criterion_1_circular_bound():
    start = time.perf_counter()
    worst = 0
    for i in range(100):
        a, b = _sizes(i)
        g, w = gen_random_hconvex("cycle", a, b, seed=i)
        assert g.n <= 60
        d = decompose_circular(g, w)
        width, _ = width_of(g, d, "mim")
        worst = max(worst, width)
        assert width <= 2, f"instance {i}: width {width} > 2"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"PASS criterion 1: 100 circular instances, max width {worst} <= 2 "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_2_convex_bound():
    start = time.perf_counter()
    worst = 0
    for i in range(100):
        a, b = _sizes(i)
        g, w = gen_random_hconvex("path", a, b, seed=i)
        d = decompose_convex(g, w)
        width, _ = width_of(g, d, "mim")
        worst = max(worst, width)
        assert width <= 1, f"instance {i}: width {width} > 1"
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"PASS criterion 2: 100 convex instances, max width {worst} <= 1 "
          f"({elapsed:.1f}s < 30s)")


def test_criterion_3_spider_bound():
    start = time.perf_counter()
    results = {}
    for delta, bound in ((3, 5), (4, 8), (5, 12)):
        assert spider_bound(delta) == bound
        worst = 0
        for i in range(50):
            a = max(delta + 3, 8 + (i * 3) % 9)
            b = min(60 - a, 4 + (i * 5) % 28)
            g, w = gen_random_hconvex("tree", a, b, seed=i, t=1, delta=delta)
            d = decompose_spider(g, w)
            width, _ = width_of(g, d, "mim")
            worst = max(worst, width)
            assert width <= bound, f"delta={delta} instance {i}: {width} > {bound}"
        results[delta] = worst
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"PASS criterion 3: 50 spider instances per delta, "
          f"max widths {results} within bounds {{3: 5, 4: 8, 5: 12}} ({elapsed:.1f}s < 120s)")


def test_criterion_4_recursive_bound():
    start = time.perf_counter()
    results = {}
    for (t, delta), bound in (((1, 3), 8), ((2, 3), 17), ((2, 4), 24)):
        assert tdelta_bound(t, delta) == bound
        worst = 0
        for i in range(50):
            a = max(2 * t + delta + 2, 9 + (i * 3) % 8)
            b = min(60 - a, 4 + (i * 5) % 28)
            g, w = gen_random_hconvex("tree", a, b, seed=i, t=t, delta=delta)
            trace = []
            d = decompose_tdelta(g, w, trace)
            width, _ = width_of(g, d, "mim")
            worst = max(worst, width)
            assert width <= bound, f"(t,delta)=({t},{delta}) instance {i}: {width} > {bound}"
            for level in trace:
                assert level["cut"] <= level["delta"] * (level["t"] - 1), (
                    f"split cut {level['cut']} exceeds {level['delta']}*({level['t']}-1)"
                )
        results[(t, delta)] = worst
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"PASS criterion 4: 50 instances per (t,delta), max widths {results} "
          f"within bounds {{(1,3): 8, (2,3): 17, (2,4): 24}}; split cuts bounded "
          f"({elapsed:.1f}s < 300s)")


def test_criterion_5_thinness_bound():
    start = time.perf_counter()
    results = {}
    for (t, delta), bound in (((1, 3), 3), ((2, 3), 4), ((2, 4), 6)):
        assert 2 + t * (delta - 2) == bound
        worst = 0
        for i in range(50):
            a = max(2 * t + delta + 2, 9 + (i * 3) % 8)
            b = min(60 - a, 4 + (i * 5) % 28)
            g, w = gen_random_hconvex("tree", a, b, seed=i, t=t, delta=delta)
            rep = thin_from_tree_support(g, w)
            k = rep.class_count()
            worst = max(worst, k)
            assert k <= bound, f"(t,delta)=({t},{delta}) instance {i}: {k} classes > {bound}"
            gg = g.to_graph()
            assert verify_consistent(gg, rep)
            d = linear_bd_from_thin(gg, rep)
            width, _ = width_of(gg, d, "mim")
            assert width <= k, f"linear width {width} > class count {k}"
        results[(t, delta)] = worst
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 5: thinness class counts {results} within "
          f"{{(1,3): 3, (2,3): 4, (2,4): 6}}; all consistent; linear width <= classes "
          f"({elapsed:.1f}s)")


def test_criterion_6_pthin_gk():
    start = time.perf_counter()
    for k in (1, 2, 3):
        g = gen_gk(k)
        value = pthin_oracle(g)
        assert value == k, f"pthin(G_{k}) = {value}, expected {k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(f"PASS criterion 6: pthin(G_k) = k for k in 1..3; G_3 (13 vertices) "
          f"finished in {elapsed:.1f}s < 600s")


def test_criterion_7_crown_growth():
    start = time.perf_counter()
    values = []
    for n in range(2, 8):
        g, w = gen_crown(n)
        values.append(thin_oracle(g, guard=14))
        cyc = recognize_circular(g)
        assert cyc is not None and verify_support(g, cyc)
        d = decompose_circular(g, cyc)
        width, _ = width_of(g, d, "mim")
        assert width <= 2
    for prev, cur in zip(values, values[1:]):
        assert cur >= prev, f"thinness decreased: {values}"
    assert any(cur > prev for prev, cur in zip(values, values[1:])), values
    assert values == [1, 2, 3, 4, 5, 6]
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 7: thin(crown(n)) for n=2..7 is {values} "
          f"(non-decreasing, strictly increases); all crowns circular with width <= 2 "
          f"({elapsed:.1f}s)")


def test_criterion_8_augmentation():
    start = time.perf_counter()
    rng = random.Random(2026)
    for i in range(20):
        a = rng.randint(1, 3)
        b = rng.randint(1, 8 - 2 * a)
        adj = tuple(
            frozenset(v for v in range(a) if rng.random() < 0.5) for _ in range(b)
        )
        g = BipartiteGraph(a, b, adj)

        starred = augment_star(g)
        w = recognize_star(starred)
        assert w is not None and verify_support(starred, w)

        combed = augment_comb(g)
        assert verify_support(combed, comb_witness_for_augmented(g))

        base_mim, base_sim = mimw_oracle(g)[0], simw_oracle(g)[0]
        for aug in (starred, combed):
            assert aug.n <= 8
            assert mimw_oracle(aug)[0] >= base_mim
            assert simw_oracle(aug)[0] >= base_sim
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 8: 20 augmentations recognized/verified; mimw and simw "
          f"never decreased ({elapsed:.1f}s)")


def test_criterion_9_pathwidth_converter():
    start = time.perf_counter()
    rng = random.Random(4096)
    count = 0
    for i in range(50):
        q = 1 + i % 3
        n = rng.randint(q + 2, 14)
        g, p = random_q_path(rng, n, q)
        ok, width = verify_pathdecomp(g, p)
        assert ok and width <= q
        rep = pathdecomp_to_pthin(g, p)
        bound = (2**width) * (width + 1)
        assert rep.class_count() <= bound, (
            f"instance {i}: {rep.class_count()} classes > {bound}"
        )
        assert verify_strongly_consistent(g, rep)
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"PASS criterion 9: {count} path decompositions converted, all strongly "
          f"consistent within 2^q(q+1) classes ({elapsed:.1f}s < 60s)")


def _small_corpus():
    """Graphs with <= 8 vertices plus a constructed decomposition each."""
    out = []
    for n in (2, 3, 4):
        g, w = gen_crown(n)
        out.append((g, decompose_circular(g, w)))
    for k in (1, 2):
        g = gen_gk(k)
        host = recognize_circular(g)
        if host is not None:
            out.append((g, decompose_circular(g, host)))
    for seed in range(10):
        a = 2 + seed % 3
        b = min(8 - a, 1 + seed % 4)
        g, w = gen_random_hconvex("path", a, b, seed)
        out.append((g, decompose_convex(g, w)))
        g, w = gen_random_hconvex("cycle", a, b, seed + 100)
        out.append((g, decompose_circular(g, w)))
    g = gen_grid(2, 3)
    host = recognize_circular(g)
    if host is not None:
        out.append((g, decompose_circular(g, host)))
    return out


def test_criterion_10_oracle_cross_validation():
    start = time.perf_counter()
    corpus = _small_corpus()
    assert len(corpus) >= 20
    for g, d in corpus:
        assert g.n <= 8
        mim = mimw_oracle(g)[0]
        sim = simw_oracle(g)[0]
        constructed, _ = width_of(g, d, "mim")
        assert sim <= mim <= constructed, (sim, mim, constructed)

    rng = random.Random(515)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 9)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = Graph.make(n, edges)
        side = {v for v in range(n) if rng.random() < 0.5}
        cross = sum(1 for u, v in g.edges if (u in side) != (v in side))
        if cross > 14:
            continue
        checked += 1
        got, _ = max_induced_matching_cut(g, side)
        assert got == brute_max_induced_matching(n, g.edges, side, "mim")

    pairs = 0
    rng = random.Random(626)
    while pairs < 1000:
        n = rng.randint(1, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = Graph.make(n, edges)
        order = list(range(n))
        rng.shuffle(order)
        blocks = [set() for _ in range(rng.randint(1, n))]
        for v in range(n):
            blocks[rng.randrange(len(blocks))].add(v)
        rep = ThinRepresentation(
            tuple(order), tuple(frozenset(x) for x in blocks if x)
        )
        assert strongly_consistent_by_triples(g, rep) == strongly_consistent_by_consecutiveness(g, rep)
        pairs += 1
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 10: simw <= mimw <= constructed width on {len(corpus)} "
          f"corpus graphs; cut solver matches exhaustive enumeration on {checked} cuts; "
          f"strong-consistency tests agree on {pairs} pairs ({elapsed:.1f}s)")


def test_criterion_11_chordal_bipartite_patterns():
    start = time.perf_counter()
    s3 = pattern_k3_s3()
    k3 = pattern_k3_k3()
    for i in range(200):
        a = 4 + (i * 5) % 7
        b = 3 + (i * 7) % 12
        g, _ = gen_random_hconvex("path", a, b, seed=i)
        gg = g.to_graph()
        assert is_chordal_bipartite(g), f"convex instance {i} not chordal bipartite"
        assert not has_induced_pattern(gg, s3)
        assert not has_induced_pattern(gg, k3)

    for pattern in (s3, k3):
        padded = Graph(pattern.n + 2, pattern.edges)
        for g in (pattern, padded):
            assert has_induced_pattern(g, pattern)
            assert not is_chordal_bipartite(g)
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 11: 200 chordal bipartite instances are pattern-free; "
          f"pattern-containing graphs fail the chordal bipartite test ({elapsed:.1f}s)")
