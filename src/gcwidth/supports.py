"""Host-graph supports: witnesses, verification, and recognizers.

A support witness is a graph on the A side of a bipartite graph in which
every neighbourhood N(b) must induce a connected subgraph.  Recognizers
return a witness or None; every returned witness passes verify_support.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

from .graphs import BipartiteGraph, _numbered, _str_list, _str_lists, preorder

KINDS = ("path", "cycle", "tree", "star", "comb")


@dataclasses.dataclass(frozen=True)
class SupportWitness:
    """Host graph on a set of A-vertices, tagged with its shape kind."""

    kind: str
    vertices: tuple[int, ...]
    host_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate witness vertices")
        for u, v in self.host_edges:
            if u >= v or u not in vs or v not in vs:
                raise ValueError(f"host edge ({u},{v}) invalid")

    @classmethod
    def from_order(cls, kind: str, order) -> SupportWitness:
        """The host that visits `order` in turn; a "cycle" also joins the last
        vertex back to the first.  That closing edge is dropped on one vertex
        and is the one edge already there on two: the degenerate closed pair."""
        order = tuple(order)
        ring = order + order[:1] if kind == "cycle" and len(order) > 1 else order
        edges = frozenset((min(u, v), max(u, v)) for u, v in zip(ring, ring[1:]))
        return cls(kind, tuple(sorted(order)), edges)

    def host_adjacency(self) -> dict[int, set[int]]:
        adj = {v: set() for v in self.vertices}
        for u, v in self.host_edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @property
    def branching(self) -> tuple[int, ...]:
        return tuple(sorted(v for v, nbrs in self.host_adjacency().items() if len(nbrs) >= 3))

    @property
    def max_degree(self) -> int:
        return max(map(len, self.host_adjacency().values()), default=0)

    def path_order(self) -> tuple[int, ...]:
        """Vertex sequence of a path-shaped host, least endpoint first."""
        adj = self.host_adjacency()
        if not _is_path(self, adj):
            raise ValueError("host is not a path")
        if not self.vertices:
            return ()
        return tuple(preorder(adj, min(v for v in self.vertices if len(adj[v]) <= 1))[0])

    def cycle_order(self) -> tuple[int, ...]:
        """Circular order of a cycle-shaped host from its least vertex
        toward that vertex's lesser neighbour."""
        adj = self.host_adjacency()
        if not _is_cycle(self, adj):
            raise ValueError("host is not a cycle")
        if not self.vertices:
            return ()
        adj = {v: sorted(nbrs, reverse=True) for v, nbrs in adj.items()}
        return tuple(preorder(adj, min(adj))[0])


def _is_tree(w: SupportWitness, adj) -> bool:
    """n - 1 edges, and one walk reaches every vertex.  Each shape test
    takes adj, the host adjacency of w."""
    n = len(adj)
    return not n or len(w.host_edges) == n - 1 and len(preorder(adj, w.vertices[0])[0]) == n


def _is_path(w: SupportWitness, adj) -> bool:
    return _is_tree(w, adj) and all(len(nbrs) <= 2 for nbrs in adj.values())


def _is_cycle(w: SupportWitness, adj) -> bool:
    # on one or two vertices the closed walk is a path (see from_order)
    n = len(w.vertices)
    if n <= 2:
        return _is_tree(w, adj)
    return all(len(nbrs) == 2 for nbrs in adj.values()) and len(preorder(adj, w.vertices[0])[0]) == n


def _is_star(w: SupportWitness, adj) -> bool:
    # a tree with at most one non-leaf
    return _is_tree(w, adj) and sum(len(nbrs) >= 2 for nbrs in adj.values()) <= 1


def _is_comb(w: SupportWitness, adj) -> bool:
    # backbone = non-leaves, a subtree once n >= 3; it must be a path and
    # every backbone vertex needs exactly one tooth
    n = len(w.vertices)
    if n % 2 != 0 or not _is_tree(w, adj):
        return False
    backbone = {v for v, nbrs in adj.items() if len(nbrs) >= 2}
    return n == 2 or len(backbone) == n // 2 and all(
        len(adj[v] & backbone) <= 2 and len(adj[v] - backbone) == 1 for v in backbone
    )


_SHAPE_TESTS = {
    "path": _is_path,
    "cycle": _is_cycle,
    "tree": _is_tree,
    "star": _is_star,
    "comb": _is_comb,
}


def verify_support(g: BipartiteGraph, w: SupportWitness) -> bool:
    """Check the shape invariant, then that every N(b) induces a connected
    subgraph of the host.

    Once the shape passes, the host is a tree (path, tree, star, comb) or a
    cycle, and connectivity is an edge count: a forest connects a vertex
    set S iff it has |S| - 1 edges inside S, a proper subset of a cycle
    induces a forest, and the whole cycle has |S| edges.  So N(b) is
    accepted iff the host has at least |N(b)| - 1 edges inside it (summed
    below from both ends); empty and singleton neighbourhoods pass.  Raises
    ValueError when the witness does not span exactly the A side of g.
    """
    if tuple(sorted(w.vertices)) != tuple(range(g.a_size)):
        raise ValueError("witness does not span the A side of the graph")
    adj = w.host_adjacency()
    if not _SHAPE_TESTS[w.kind](w, adj):
        return False
    return all(sum(len(adj[v] & nb) for v in nb) >= 2 * len(nb) - 2 for nb in g.adj)


# ---------------------------------------------------------------------------
# degree-bounded tree support (exact search)


def _support_pairs(n: int, hyperedges):
    """The pairs (u, v), u < v, that lie on some tree support of the
    hyperedges over 0..n-1, or None when there is no tree support.

    Weight each pair by the number of hyperedges holding both ends.  Any
    spanning tree T weighs sum_e |E(T[e])| <= sum_e (|e| - 1), with equality
    iff every hyperedge induces a subtree, so the supports are exactly the
    maximum-weight spanning trees when that weight is reached.  Kruskal over
    the weight classes, heaviest first: a pair lies in some maximum-weight
    spanning tree iff no strictly heavier pairs already join its ends.

    Returns (pairs, part): the pairs of positive weight that qualify, and
    each vertex's component under the positive pairs.  A pair of weight 0
    qualifies iff its ends lie in different components; those pairs are not
    listed, as there can be Θ(n²) of them.
    """
    targets = {he for he in hyperedges if len(he) >= 2}
    weight: dict[tuple[int, int], int] = {}
    for he in targets:
        for pair in combinations(sorted(he), 2):
            weight[pair] = weight.get(pair, 0) + 1
    classes: dict[int, list[tuple[int, int]]] = {}
    for pair, c in weight.items():
        classes.setdefault(c, []).append(pair)
    rep = list(range(n))
    allowed = []
    total = 0
    for c in sorted(classes, reverse=True):
        joins = [(u, v) for u, v in classes[c] if _find(rep, u) != _find(rep, v)]
        allowed += joins
        for u, v in joins:
            ru, rv = _find(rep, u), _find(rep, v)
            if ru != rv:
                rep[ru] = rv
                total += c
    if total < sum(len(he) - 1 for he in targets):
        return None
    return frozenset(allowed), [_find(rep, v) for v in range(n)]


def _find(rep, x):
    """Union-find root of x in the parent map rep, halving the path."""
    while rep[x] != x:
        rep[x] = rep[rep[x]]
        x = rep[x]
    return x


def _components(n: int, edges) -> list[int]:
    """Each vertex's component root in the forest `edges` on 0..n-1."""
    rep = list(range(n))
    for u, v in edges:
        rep[_find(rep, u)] = _find(rep, v)
    return [_find(rep, v) for v in range(n)]


def tree_support_degree_bounded(n: int, hyperedges, t: int, delta: int) -> frozenset[tuple[int, int]] | None:
    """Spanning tree on the ground set 0..n-1 with every hyperedge (a set of
    ground vertices) inducing a subtree, maximum degree <= delta and at most
    t branching vertices (degree >= 3), or None when none exists.

    Exact.  _support_pairs decides in polynomial time whether any tree
    support exists and finds the pairs that lie on one.  n - 1 pairs of
    positive weight spanning one component form the only support, so only
    its degrees are checked.  Otherwise a branch and bound over partial
    forests runs on those pairs, with branching budgets 0, 1, ..., t in
    turn, so a tree with the fewest branching vertices is found: an edge
    that takes a vertex to degree 3 spends one unit of the budget.

    At each node the first hyperedge (smallest first, the whole ground set
    last) that the forest leaves disconnected is selected, and the component
    of its least member is joined to the rest of the hyperedge by one new
    edge.  One component map per node decides every hyperedge e: with k
    forest edges inside it, e falls into |e| - k pieces and is open iff
    there are two or more.  The branch dies when e's members lie in fewer
    forest components than pieces, since two pieces are then joined by a
    forest path leaving e and no supertree connects e; otherwise each piece
    is one component cut down to e.  A connected hyperedge stays connected
    deeper in the search, so each node resumes the scan at its parent's
    hyperedge.  The search keeps its nodes on an explicit stack.
    """
    if n == 0:
        raise ValueError("empty ground set")
    support = _support_pairs(n, hyperedges)
    if support is None:
        return None
    pairs, part = support
    if len(pairs) == n - 1 and len(set(part)) == 1:
        w = SupportWitness("tree", tuple(range(n)), pairs)
        return pairs if w.max_degree <= delta and len(w.branching) <= t else None
    targets = sorted(
        {he for he in hyperedges if len(he) >= 2},
        key=lambda s: (len(s), sorted(s)),
    )
    targets.append(frozenset(range(n)))  # spanning connectivity last

    edges: list[tuple[int, int]] = []
    deg = [0] * n
    spent = 0

    def first_open(start):
        # the first hyperedge from targets[start] onwards that the forest
        # leaves disconnected, as (index, forest components), with None for
        # a dead branch; (len(targets), None) when there is none
        comp = _components(n, edges)
        for index in range(start, len(targets)):
            e = targets[index]
            pieces = len(e) - sum(u in e and v in e for u, v in edges)
            if pieces > 1:
                return index, comp if len({comp[v] for v in e}) == pieces else None
        return len(targets), None

    def options(target, comp):
        # the edges joining the least member's component to the rest of target
        c0 = comp[min(target)]
        inside = sorted(v for v in target if comp[v] == c0)
        outside = sorted(v for v in target if comp[v] != c0)
        for u in inside:
            if deg[u] >= delta or deg[u] == 2 and spent == budget:
                continue
            for v in outside:
                if deg[v] >= delta or spent + (deg[u] == 2) + (deg[v] == 2) > budget:
                    continue
                edge = (min(u, v), max(u, v))
                if edge in pairs or part[u] != part[v]:
                    yield edge

    def shift(edge, step):
        nonlocal spent
        for x in edge:
            spent -= deg[x] >= 3
            deg[x] += step
            spent += deg[x] >= 3

    # no vertex branches below degree 3, and at most n vertices branch
    for budget in range(min(t, n if delta >= 3 else 0) + 1):
        # the spanning target is open at the root: n = 1 took the unique-support return
        index, comp = first_open(0)
        stack = [(index, options(targets[index], comp))]
        while stack:
            index, todo = stack[-1]
            edge = next(todo, None)
            if edge is None:
                stack.pop()
                if edges:
                    shift(edges.pop(), -1)
                continue
            edges.append(edge)
            shift(edge, 1)
            index, comp = first_open(index)
            if index == len(targets):
                return frozenset(edges)
            if comp is None:
                shift(edges.pop(), -1)
            else:
                stack.append((index, options(targets[index], comp)))
    return None


# ---------------------------------------------------------------------------
# recognizers


def recognize_convex(g: BipartiteGraph) -> SupportWitness | None:
    """Path support on A making every N(b) an interval, if one exists: a
    (0, 2)-tree support."""
    w = recognize_tdelta(g, 0, 2)
    return None if w is None else SupportWitness("path", w.vertices, w.host_edges)


def recognize_circular(g: BipartiteGraph) -> SupportWitness | None:
    """Cycle support on A making every N(b) a circular arc, if one exists.

    A convex graph, which includes every graph with |A| <= 2, is closed
    into a cycle directly.  Otherwise the cycle is cut at vertex 0: arcs
    avoiding it must become intervals of the path on 1..a-1 (relabelled
    v - 1) and arcs through it are replaced by their complements, which
    reduces recognition to one consecutive-ones instance.  Any single cut
    vertex is complete because a circular order can be rotated.

    The convex pre-try stays: the exact path search is slow on the reduced
    instance more often than on g.  Over 150 planted cycles per size, the
    reduction alone ran past 5 s on 4, 7 and 13 at |A| = 16, 20 and 24;
    with the pre-try first, on 0, 0 and 1.
    """
    a = g.a_size
    w = recognize_convex(g)
    if w is not None:
        return SupportWitness.from_order("cycle", w.path_order())
    rest = frozenset(range(1, a))
    reduced = [frozenset(v - 1 for v in (rest - nb if 0 in nb else nb)) for nb in g.adj]
    edges = tree_support_degree_bounded(a - 1, reduced, 0, 2)
    if edges is None:
        return None
    path = SupportWitness("path", tuple(range(a - 1)), frozenset(edges)).path_order()
    return SupportWitness.from_order("cycle", [0] + [v + 1 for v in path])


def recognize_star(g: BipartiteGraph) -> SupportWitness | None:
    """Star support: a centre lying in every N(b) of size >= 2, if any."""
    a = g.a_size
    if a == 0:
        return SupportWitness("star", (), frozenset())
    candidates = set(range(a))
    for nb in g.adj:
        if len(nb) >= 2:
            candidates &= nb
        if not candidates:
            return None
    centre = min(candidates)
    edges = frozenset((min(centre, v), max(centre, v)) for v in range(a) if v != centre)
    return SupportWitness("star", tuple(range(a)), edges)


def recognize_tdelta(g: BipartiteGraph, t: int, delta: int) -> SupportWitness | None:
    """Tree support with at most t branching vertices and max degree <= delta.

    When every N(b) has at most one vertex, any tree is a support and the
    identity path, a (0, 2)-tree, is returned.  Otherwise this is one call
    of tree_support_degree_bounded, so a support with the fewest branching
    vertices is returned, or None when there is no (t, delta)-tree support.
    """
    if t < 0 or delta < 2:
        raise ValueError("need t >= 0 and delta >= 2")
    a = g.a_size
    if all(len(nb) <= 1 for nb in g.adj):
        return SupportWitness.from_order("tree", range(a))
    edges = tree_support_degree_bounded(a, g.adj, t, delta)
    return None if edges is None else SupportWitness("tree", tuple(range(a)), edges)


# ---------------------------------------------------------------------------
# JSON wire form


def witness_to_json(w: SupportWitness) -> dict:
    return {
        "kind": w.kind,
        "vertices": [f"a{v + 1}" for v in w.vertices],
        "host_edges": sorted([f"a{u + 1}", f"a{v + 1}"] for u, v in w.host_edges),
        "t": len(w.branching),
        "delta": w.max_degree,
    }


def witness_from_json(data: dict) -> SupportWitness:
    kind, vertices, host_edges = data.get("kind"), data.get("vertices"), data.get("host_edges")
    if not (isinstance(kind, str) and _str_list(vertices) and _str_lists(host_edges, 2)):
        raise ValueError("witness needs kind \"name\", vertices [token], host_edges [[token, token]]")
    index = {tok: _numbered(tok, "a") for toks in (*host_edges, vertices) for tok in toks}
    for tok, i in index.items():
        if i is None:
            raise ValueError(f"bad A-vertex token {tok!r}")
    edges = frozenset((min(index[u], index[v]) - 1, max(index[u], index[v]) - 1) for u, v in host_edges)
    return SupportWitness(kind, tuple(sorted(index[tok] - 1 for tok in vertices)), edges)
