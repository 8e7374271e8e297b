"""Seeded, deterministic generators for every instance family used as a
witness or building block: the recursive triple-copy family, crowns, grids,
star/comb augmentations, and random host-convex instances with planted
support witnesses.
"""

from __future__ import annotations

import dataclasses
import heapq
import random

from .graphs import BipartiteGraph, ascii_int
from .supports import SupportWitness, verify_support

# each family and the spec keys it reads, with their defaults (None: required)
FAMILIES = {
    "gk": {"k": None},
    "crown": {"n": None},
    "grid": {"r": None, "c": None},
    "star_augment": {"input": None},
    "comb_augment": {"input": None},
    "random_hconvex": {"kind": "path", "a": 8, "b": 8, "t": 1, "delta": 3},
}


@dataclasses.dataclass(frozen=True)
class GenSpec:
    family: str
    params: dict
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        keys = FAMILIES[self.family]
        for key in self.params:
            if key not in keys:
                raise ValueError(f"{self.family} reads no key {key!r} (keys: {', '.join(keys)})")
        for key, default in keys.items():
            if default is None and key not in self.params:
                raise ValueError(f"{self.family} needs key {key!r}")


def gen_gk(k: int) -> BipartiteGraph:
    """Recursive family: G_1 is a single A-vertex; G_k is three disjoint
    copies of G_{k-1} plus one new B-vertex complete to the union of the
    A sides.  Proper thinness of G_k is exactly k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 5:
        raise ValueError("size guard: k <= 5 (the graph triples each level)")
    if k == 1:
        return BipartiteGraph(1, 0, ())
    sub = gen_gk(k - 1)
    a, b = sub.a_size, sub.b_size
    adj = []
    for copy in range(3):
        off = copy * a
        adj.extend(frozenset(x + off for x in nb) for nb in sub.adj)
    adj.append(frozenset(range(3 * a)))
    return BipartiteGraph(3 * a, 3 * b + 1, tuple(adj))


def gen_crown(n: int) -> tuple[BipartiteGraph, SupportWitness]:
    """Complete bipartite K_{n,n} minus a perfect matching, with the cycle
    a_1..a_n as planted support (N(b_i) = A - a_i is an arc)."""
    if n < 2:
        raise ValueError("crown needs n >= 2")
    adj = tuple(frozenset(x for x in range(n) if x != i) for i in range(n))
    g = BipartiteGraph(n, n, adj)
    w = SupportWitness.from_order("cycle", range(n))
    if not verify_support(g, w):
        raise AssertionError("planted witness is invalid")
    return g, w


def gen_grid(rows: int, cols: int) -> BipartiteGraph:
    """Rows x cols grid with its 2-colouring exposed as the (A, B) sides;
    A holds the colour class of the corner (0,0)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    a_cells = [c for c in cells if (c[0] + c[1]) % 2 == 0]
    b_cells = [c for c in cells if (c[0] + c[1]) % 2 == 1]
    a_index = {c: i for i, c in enumerate(a_cells)}
    adj = []
    for (i, j) in b_cells:
        nb = set()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c = (i + di, j + dj)
            if c in a_index:
                nb.add(a_index[c])
        adj.append(frozenset(nb))
    return BipartiteGraph(len(a_cells), len(b_cells), tuple(adj))


def augment_star(g: BipartiteGraph) -> BipartiteGraph:
    """One new A-vertex complete to B; the result is star convex."""
    new = g.a_size
    adj = tuple(frozenset(nb | {new}) for nb in g.adj)
    return BipartiteGraph(g.a_size + 1, g.b_size, adj)


def augment_comb(g: BipartiteGraph) -> BipartiteGraph:
    """|A| new A-vertices complete to B; the result is comb convex."""
    k = g.a_size
    new = frozenset(range(k, 2 * k))
    adj = tuple(frozenset(nb | new) for nb in g.adj)
    return BipartiteGraph(2 * k, g.b_size, adj)


def star_witness_for_augmented(g: BipartiteGraph) -> SupportWitness:
    """Planted star for augment_star(g): centre is the added vertex."""
    a = g.a_size + 1
    centre = g.a_size
    edges = frozenset((min(centre, v), max(centre, v)) for v in range(a) if v != centre)
    return SupportWitness("star", tuple(range(a)), edges)


def comb_witness_for_augmented(g: BipartiteGraph) -> SupportWitness:
    """Planted comb for augment_comb(g): the new vertices form the backbone
    and each original A-vertex is the tooth of its namesake."""
    k = g.a_size
    if k == 0:
        raise ValueError("comb augmentation needs a nonempty A side")
    edges = set()
    for i in range(k - 1):
        edges.add((k + i, k + i + 1))
    for i in range(k):
        edges.add((i, k + i))
    return SupportWitness("comb", tuple(range(2 * k)), frozenset(edges))


# ---------------------------------------------------------------------------
# random host-convex instances


def _prufer_tree(seq: list[int], n: int) -> set[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = set()
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.add((min(u, v), max(u, v)))
    return edges


def _random_degree_constrained_tree(rng, n, t, delta):
    """Random labelled tree with exactly t branching vertices and maximum
    degree exactly delta, via a degree-prescribed random multiset sequence."""
    if t == 0:
        order = list(range(n))
        rng.shuffle(order)
        return SupportWitness.from_order("tree", order).host_edges
    if delta < 3:
        raise ValueError("branching vertices need delta >= 3")
    # t branching vertices of least degrees delta, 3, .., 3 force
    # 2 + (delta - 2) + (t - 1) leaves, so t + delta + t - 1 vertices
    if delta + 2 * t - 1 > n:
        raise ValueError(f"no ({t},{delta})-tree on {n} vertices is feasible")
    for _ in range(10000):
        branch = sorted(rng.sample(range(n), t))
        degs = {}
        degs[branch[0]] = delta
        for v in branch[1:]:
            degs[v] = rng.randint(3, delta)
        total_branch = sum(degs.values())
        m = n - t
        twos = 2 * (n - 1) - total_branch - m
        if not (0 <= twos <= m):
            continue
        others = [v for v in range(n) if v not in degs]
        rng.shuffle(others)
        for i, v in enumerate(others):
            degs[v] = 2 if i < twos else 1
        seq = []
        for v, d in degs.items():
            seq.extend([v] * (d - 1))
        rng.shuffle(seq)
        edges = _prufer_tree(seq, n)
        return edges
    raise ValueError(f"no ({t},{delta})-tree on {n} vertices is feasible")


def _random_connected_subset(rng, adj: dict[int, set[int]], vertices) -> frozenset[int]:
    # grow from a uniform start in the sorted `vertices`; stop with probability 1/2 per step
    current = {rng.choice(vertices)}
    while rng.random() < 0.5:
        frontier = sorted(set().union(*(adj[v] for v in current)) - current)
        if not frontier:
            break
        current.add(rng.choice(frontier))
    return frozenset(current)


def gen_random_hconvex(
    kind: str,
    a_size: int,
    b_size: int,
    seed: int = 0,
    t: int = 1,
    delta: int = 3,
) -> tuple[BipartiteGraph, SupportWitness]:
    """Random instance with a planted support witness of the given kind.

    kind is "path", "cycle" or "tree" (tree takes the t and delta shape
    parameters).  Each neighbourhood is a random connected subgraph of the
    host grown with a geometric stopping rule, so the planted witness is
    valid by construction.  Pure function of (kind, sizes, params, seed).
    """
    if a_size < 1:
        raise ValueError("need at least one A vertex")
    rng = random.Random(repr((seed, kind, a_size, b_size, t, delta)))
    if kind in ("path", "cycle"):
        order = list(range(a_size))
        rng.shuffle(order)
        witness = SupportWitness.from_order(kind, order)
    elif kind == "tree":
        if not 0 <= t <= a_size:
            raise ValueError(f"need 0 <= t <= a = {a_size}, got t = {t}")
        edges = _random_degree_constrained_tree(rng, a_size, t, delta)
        witness = SupportWitness("tree", tuple(range(a_size)), frozenset(edges))
    else:
        raise ValueError(f"unknown host kind {kind!r}")

    adj = witness.host_adjacency()
    nbrs = tuple(
        _random_connected_subset(rng, adj, witness.vertices) for _ in range(b_size)
    )
    g = BipartiteGraph(a_size, b_size, nbrs)
    if not verify_support(g, witness):
        raise AssertionError("planted witness is invalid")
    return g, witness


# ---------------------------------------------------------------------------
# generation specs (CLI surface)


def parse_genspec(text: str) -> GenSpec:
    """Grammar: ``family:key=val,...[:seed=s]``; e.g. ``gk:k=3`` or
    ``random_hconvex:kind=tree,a=12,b=14,t=2,delta=3:seed=7``."""
    parts = text.split(":")
    family = parts[0]
    params: dict = {}
    seed = 0
    for chunk in parts[1:]:
        if not chunk:
            continue
        for kv in chunk.split(","):
            if "=" not in kv:
                raise ValueError(f"bad spec fragment {kv!r}")
            key, val = kv.split("=", 1)
            if key == "seed":
                seed = ascii_int(val)
            elif key in ("kind", "input"):
                params[key] = val
            else:
                params[key] = ascii_int(val)
    return GenSpec(family, params, seed)


def run_genspec(spec: GenSpec, load_graph=None):
    """Produce (name, graph, witness-or-None) for a generation spec.

    Augmentation families need `load_graph`, a callable mapping the
    ``input`` parameter to a BipartiteGraph.
    """
    fam, p = spec.family, {**FAMILIES[spec.family], **spec.params}
    if fam == "gk":
        return f"gk_k{p['k']}", gen_gk(p["k"]), None
    if fam == "crown":
        g, w = gen_crown(p["n"])
        return f"crown_n{p['n']}", g, w
    if fam == "grid":
        return f"grid_{p['r']}x{p['c']}", gen_grid(p["r"], p["c"]), None
    if fam in ("star_augment", "comb_augment"):
        if load_graph is None:
            raise ValueError(f"{fam} needs load_graph to read its input")
        base = load_graph(p["input"])
        if not isinstance(base, BipartiteGraph):
            raise ValueError("augmentation input must be bipartite")
        if fam == "star_augment":
            return "star_augment", augment_star(base), star_witness_for_augmented(base)
        return "comb_augment", augment_comb(base), comb_witness_for_augmented(base)
    # random_hconvex, the one family left (GenSpec admits no other)
    g, w = gen_random_hconvex(p["kind"], p["a"], p["b"], spec.seed, p["t"], p["delta"])
    shape = p["kind"] if p["kind"] != "tree" else f"tree{p['t']}_{p['delta']}"
    return f"hconvex_{shape}_a{p['a']}_b{p['b']}_s{spec.seed}", g, w
