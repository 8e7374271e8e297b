"""Branch decompositions, cut functions, width measurement, and the
width-bounded constructions for generalized convex bipartite graphs.

Cut conventions: a decomposition tree is subcubic with a bijection from
graph vertices to its leaves; every tree edge splits the leaves and hence
the vertex set, and the cut value of the split is the size of a maximum
induced matching across it (induced in the cut graph for mim, induced in
the whole graph for sim).
"""

from __future__ import annotations

import dataclasses

from .graphs import BipartiteGraph, Graph, _numbered, _str_list, _str_lists, parse_vertex_token, preorder, vertex_token
from .supports import SupportWitness, verify_support


class SizeGuardError(ValueError):
    """Exact oracle invoked beyond its configured instance-size guard."""


@dataclasses.dataclass
class BranchDecomposition:
    """Subcubic tree plus a bijection leaf node -> graph vertex."""

    tree: Graph
    leaf_map: dict[int, int]
    linear: bool = False
    spine: tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True)
class CutReport:
    edge: tuple[int, int]
    side: tuple[int, ...]
    value: int


def validate_decomposition(g: Graph | BipartiteGraph, d: BranchDecomposition) -> tuple[list[int], dict[int, int]]:
    """Raise ValueError unless d is a valid branch decomposition of g.
    Returns the tree's rooted walk (order, parent) = preorder(adjacency, 0)."""
    t = d.tree
    if t.n == 0:
        raise ValueError("empty decomposition tree")
    if len(t.edges) != t.n - 1:
        raise ValueError("decomposition tree is not a tree")
    adj = t.adjacency()
    # the leaves are the nodes of degree <= 1.  The leaf and bijection tests
    # are decided before the walk, so that their lists are gone while it runs,
    # and raised in their turn below
    leaves_match = d.leaf_map.keys() == {v for v, nbrs in enumerate(adj) if len(nbrs) <= 1}
    bijection = sorted(d.leaf_map.values()) == list(range(g.n))
    order, parent = preorder(adj, 0)
    if len(order) != t.n:
        raise ValueError("decomposition tree is disconnected")
    for v, nbrs in enumerate(adj):
        if len(nbrs) > 3:
            raise ValueError(f"internal node {v} has degree {len(nbrs)} > 3")
    if not leaves_match:
        raise ValueError("leaf_map keys do not match tree leaves")
    if not bijection:
        raise ValueError("leaf_map is not a bijection onto the vertex set")
    return order, parent


def caterpillar_from_ordering(order) -> BranchDecomposition:
    """Linear decomposition whose i-th leaf carries the i-th vertex.

    Degenerate forms: length 1 gives the one-node tree, length 2 a single
    edge with both endpoints leaves; length l >= 3 gives the 2l-vertex
    caterpillar with spine s_1..s_l and leaf t_i attached to s_i.
    """
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("ordering contains duplicates")
    l = len(order)
    if l == 0:
        raise ValueError("empty ordering")
    if l == 1:
        return BranchDecomposition(Graph(1, frozenset()), {0: order[0]}, True, ())
    if l == 2:
        tree = Graph.make(2, [(0, 1)])
        return BranchDecomposition(tree, {0: order[0], 1: order[1]}, True, ())
    edges = [(i, i + 1) for i in range(l - 1)]
    edges += [(i, l + i) for i in range(l)]
    tree = Graph.make(2 * l, edges)
    leaf_map = {l + i: order[i] for i in range(l)}
    return BranchDecomposition(tree, leaf_map, True, tuple(range(l)))


# ---------------------------------------------------------------------------
# exact maximum induced matching across a cut


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _max_independent_set(conflict: list[int]) -> int:
    """Maximum independent set of the conflict graph, as a bitmask.

    Each connected component is solved in turn by include/exclude branching
    on a maximum-conflict pivot with the trivial remaining-count bound,
    which is effective because conflict graphs of small cuts are dense.
    """
    comps = []
    remaining = (1 << len(conflict)) - 1
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= conflict[v] & remaining & ~comp
            comp |= nxt
            frontier = nxt
        remaining &= ~comp
        comps.append(comp)

    chosen = 0
    for comp in comps:
        best_size = 0
        best_mask = 0

        def solve(cand, cur_mask, cur_size):
            nonlocal best_size, best_mask
            while cand:
                if cur_size + cand.bit_count() <= best_size:
                    return
                iso = 0
                pivot = -1
                pivot_deg = -1
                for v in _bits(cand):
                    d = (conflict[v] & cand).bit_count()
                    if d == 0:
                        iso |= 1 << v
                    elif d > pivot_deg:
                        pivot_deg = d
                        pivot = v
                if iso:
                    cur_mask |= iso
                    cur_size += iso.bit_count()
                    cand &= ~iso
                    continue
                bit = 1 << pivot
                solve(cand & ~(conflict[pivot] | bit), cur_mask | bit, cur_size + 1)
                cand &= ~bit
            if cur_size > best_size:
                best_size = cur_size
                best_mask = cur_mask

        solve(comp, 0, 0)
        chosen |= best_mask
    return chosen


def _has_independent_set(conflict: list[int], k: int) -> bool:
    """Has the conflict graph k pairwise non-conflicting vertices?  Sets are
    grown in increasing vertex order on an explicit stack, at most k deep; a
    set whose remaining candidates cannot fill it is dropped."""
    stack = [((1 << len(conflict)) - 1, 0)]
    while stack:
        cand, size = stack.pop()
        while size + cand.bit_count() >= k:
            if size + 1 == k:
                return True
            low = cand & -cand
            cand ^= low
            rest = cand & ~conflict[low.bit_length() - 1]
            if size + 1 + rest.bit_count() >= k:
                stack.append((rest, size + 1))
    return False


def _conflicts(adj, cross, mode: str) -> list[int]:
    """Conflict masks of the cross edges (x, y): bit j of entry i says edges
    i and j cannot both be in the matching, as they share an end or an edge
    joins them; a cross edge in mode "mim", any graph edge in mode "sim".
    Entry i is other[x] | other[y], where other[v] ORs the cross edges at
    v's neighbours, across the cut in mode "mim" (v's own edges are among
    them, as v neighbours their far ends)."""
    inc: dict[int, int] = {}
    for i, (x, y) in enumerate(cross):
        inc[x] = inc.get(x, 0) | (1 << i)
        inc[y] = inc.get(y, 0) | (1 << i)
    other = dict.fromkeys(inc, 0)
    if mode == "mim":
        for x, y in cross:
            other[x] |= inc[y]
            other[y] |= inc[x]
    else:
        for v in other:
            for w in adj[v]:
                other[v] |= inc.get(w, 0)
    return [(other[x] | other[y]) & ~(1 << i) for i, (x, y) in enumerate(cross)]


def _cross(edges, xmask: int, ymask: int) -> list[tuple[int, int]]:
    """The edges between the disjoint vertex sets X and Y, as (x, y) pairs
    in the order of edges."""
    return [(u, v) if (xmask >> u) & 1 else (v, u) for u, v in edges
            if ((xmask >> u) & (ymask >> v) | (ymask >> u) & (xmask >> v)) & 1]


def _mim_pair(g: Graph, xmask: int, ymask: int, mode: str):
    """_mim_of_cut of the disjoint vertex sets X and Y of g, given as bitmasks."""
    return _mim_of_cut(g.adjacency(), _cross(sorted(g.edges), xmask, ymask), mode)


def _mim_of_cut(adj, cross, mode: str, floor: int = 0):
    """Maximum induced matching over the cross edges (x, y) of a cut, x on
    one side, in sorted (min, max) order; adj[v] is read in mode "sim" only.

    mode "mim": the matching must be induced in the cut graph (only cross
    edges forbid pairs); mode "sim": induced in the whole graph.  Returns
    (size, tuple of sorted matching edges) when the size is above floor,
    and (0, ()) otherwise.  A matching uses distinct cross edges and
    distinct ends on each side, so a cut with at most floor of either is
    answered first; only a cut with floor + 1 compatible cross edges gets
    the exact search.
    """
    if len(cross) <= floor or len({x for x, _ in cross}) <= floor or len({y for _, y in cross}) <= floor:
        return 0, ()
    conflict = _conflicts(adj, cross, mode)
    if not _has_independent_set(conflict, floor + 1):
        return 0, ()
    sol = _max_independent_set(conflict)
    witness = tuple(sorted((min(cross[i]), max(cross[i])) for i in _bits(sol)))
    return len(witness), witness


def max_induced_matching_cut(g: Graph, side) -> tuple[int, tuple]:
    """Exact maximum induced matching of the cut graph G[X, V-X]."""
    xmask = 0
    for v in side:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
        xmask |= 1 << v
    return _mim_pair(g, xmask, ((1 << g.n) - 1) & ~xmask, "mim")


# ---------------------------------------------------------------------------
# width of a decomposition


def width_of(g: Graph | BipartiteGraph, d: BranchDecomposition, mode: str = "mim"):
    """Maximum cut value over all tree edges, with the worst cut reported.

    Ties go to the first edge in canonical (sorted) tree-edge order.  All
    edges are included: leaf edges contribute at most 1.
    Returns (width, CutReport or None for edgeless trees).  Cost: one rooted
    pass over the tree, the one validate_decomposition returns; every graph
    edge is charged to the tree edges on the path between its ends' leaves,
    so listing all cut edges costs the total size of the cuts, and a side is
    a preorder interval of leaves, so each list is oriented in its own
    length.  Then _mim_of_cut with floor = the maximum so far decides each
    cut: only a cut with more compatible cross edges than that gets its
    exact value and its side listed.  Memory is linear in the cuts.
    """
    if mode not in ("mim", "sim"):
        raise ValueError(f"unknown mode {mode!r}")
    gg = g.to_graph()
    order, parent = validate_decomposition(gg, d)
    if not d.tree.edges:
        return 0, None
    adj = gg.adjacency() if mode == "sim" else None
    # x's subtree is order[tin[x] : tin[x] + size[x]]
    tin = [0] * d.tree.n
    for i, x in enumerate(order):
        tin[x] = i
    size = [1] * d.tree.n
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    leaf_of = [0] * gg.n
    for node, v in d.leaf_map.items():
        leaf_of[v] = node
    pos = [tin[leaf_of[v]] for v in range(gg.n)]
    # cut[x]: the edges across the tree edge above x, in sorted order; each
    # end's leaf climbs until its subtree holds the other end's leaf
    cut = [[] for _ in range(d.tree.n)]
    for e in sorted(gg.edges):
        for x, p in ((leaf_of[e[0]], pos[e[1]]), (leaf_of[e[1]], pos[e[0]])):
            while not tin[x] <= p < tin[x] + size[x]:
                cut[x].append(e)
                x = parent[x]
    best = -1
    best_report = None
    for (u, v) in sorted(d.tree.edges):
        # the side of u: u's subtree when u is the child, else all but v's
        child = u if parent[u] == v else v
        lo, hi = tin[child], tin[child] + size[child]
        inside = child == u
        cross = [(a, b) if (lo <= pos[a] < hi) == inside else (b, a) for a, b in cut[child]]
        value, _ = _mim_of_cut(adj, cross, mode, max(best, 0))
        if value > best:
            best = value
            side = tuple(x for x in range(gg.n) if (lo <= pos[x] < hi) == inside)
            best_report = CutReport((u, v), side, value)
    return best, best_report


# ---------------------------------------------------------------------------
# exact width oracles (small instances)


def _min_width_over_trees(g: Graph, mode: str, guard: int):
    """Least width over all branch decompositions of g, with a tree that has
    it.  The identity caterpillar sets the bound, and a dynamic program over
    vertex sets (the subset-split recurrence of Oum 2009) looks below it.
    f[s], the least width of a rooted binary tree on the leaves s counting
    the cut (s, V - s) above its root, is max(cut(s), min over s = a + b of
    max(f[a], f[b])).  Every branch decomposition is such a tree on the set
    top = V - {n-1} with the leaf of n-1 hung on its root: the answer is
    f[top].  Cost: 2^(n-1) cuts and at most 3^(n-1) / 2 splits, both
    skipped when the caterpillar meets the trivial bound; memory Theta(2^n).
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    if n > guard:
        raise SizeGuardError(f"{n} vertices exceeds oracle guard {guard}")
    start = caterpillar_from_ordering(range(n))
    bound, _ = width_of(g, start, mode)
    # no tree beats the trivial lower bound: 0 without edges, otherwise 1
    if bound == min(len(g.edges), 1):
        return bound, start
    adj, edges = g.adjacency(), sorted(g.edges)
    full = (1 << n) - 1
    top = full >> 1
    # min(cut value, bound) of every set: raise k while k + 1 compatible cross edges exist
    cut = []
    for s in range(top + 1):
        conflict = _conflicts(adj, _cross(edges, s, full ^ s), mode)
        k = 0
        while k < bound and _has_independent_set(conflict, k + 1):
            k += 1
        cut.append(k)
    # f[s] == bound: no tree on s stays below it; split[s]: the part of the
    # best split of s that holds its least vertex
    f = [bound] * (top + 1)
    split = [0] * (top + 1)
    for s in range(1, top + 1):
        own = cut[s]
        low = s & -s
        rest = sub = s ^ low
        if own >= bound or not rest:
            f[s] = own
            continue
        while sub:
            sub = (sub - 1) & rest
            value = max(f[sub | low], f[rest ^ sub])
            if value < f[s]:
                f[s] = max(value, own)
                split[s] = sub | low
                if value <= own:
                    break
    if f[top] == bound:
        return bound, start
    # leaves 0..n-1 carry vertices 0..n-1, internal nodes follow in stack order
    node = {top: n}
    edges = [(n - 1, n)]
    stack = [top]
    while stack:
        s = stack.pop()
        for part in (split[s], s ^ split[s]):
            if part & (part - 1):
                node[part] = n + len(node)
                stack.append(part)
            edges.append((node[s], node.get(part, part.bit_length() - 1)))
    return f[top], BranchDecomposition(Graph.make(2 * n - 2, edges), {v: v for v in range(n)}, False, ())


def mimw_oracle(g: Graph | BipartiteGraph, guard: int = 8):
    """Exact mim-width over all branch decompositions; (value, witness)."""
    return _min_width_over_trees(g.to_graph(), "mim", guard)


def simw_oracle(g: Graph | BipartiteGraph, guard: int = 8):
    """Exact sim-width over all branch decompositions; (value, witness)."""
    return _min_width_over_trees(g.to_graph(), "sim", guard)


# ---------------------------------------------------------------------------
# bound formulas


def spider_bound(delta: int) -> int:
    """Width guarantee for one branching vertex of degree at most delta."""
    return max(2 * ((delta * delta) // 4), 2 * delta - 1)


def tdelta_bound(t: int, delta: int) -> int:
    """Width guarantee for at most t branching vertices of degree <= delta."""
    if t == 0:
        return 1
    return spider_bound(delta) + t * t * delta


def construction_bound(kind: str, w: SupportWitness) -> int:
    """Width guarantee of decompose_<kind> on the support witness w."""
    if kind == "convex":
        return 1
    if kind == "circular":
        return 2
    t = len(w.branching)
    if t < 1:
        return 1
    delta = max(w.max_degree, 3)
    return spider_bound(delta) if kind == "spider" else tdelta_bound(t, delta)


def thin_bound(t: int, delta: int) -> int:
    """Class bound of thin_from_tree_support: 2 + t(delta-2)."""
    return 2 + t * max(delta - 2, 0)


def pthin_bound(q: int) -> int:
    """Class bound of pathdecomp_to_pthin at path width q: 2^q (q+1)."""
    return (2**q) * (q + 1)


# ---------------------------------------------------------------------------
# constructions


def interleave(g: BipartiteGraph, a_order, bs=None) -> list[int]:
    """Vertex order: A as in a_order, each b of bs (all of B when omitted)
    right after its greatest neighbour within a_order (ties in the order of
    bs), and the b's with no neighbour there at the end in that order."""
    pos = {a: i for i, a in enumerate(a_order)}
    after: list[list[int]] = [[] for _ in pos]
    tail = []
    for b in range(g.a_size, g.n) if bs is None else bs:
        i = max((pos.get(a, -1) for a in g.adj[b - g.a_size]), default=-1)
        (after[i] if i >= 0 else tail).append(b)
    order = []
    for a, placed in zip(a_order, after):
        order.append(a)
        order.extend(placed)
    return order + tail


def decompose_convex(g: BipartiteGraph, w: SupportWitness) -> BranchDecomposition:
    """Linear decomposition of width <= 1 from a path support: the
    interleave of B into A along the path."""
    if w.kind != "path":
        raise ValueError(f"need a path witness, got {w.kind!r}")
    if not verify_support(g, w):
        raise ValueError("invalid path witness")
    return caterpillar_from_ordering(interleave(g, w.path_order()))


def decompose_circular(g: BipartiteGraph, w: SupportWitness) -> BranchDecomposition:
    """Linear decomposition of width <= 2 from a cycle support: the
    interleave of B into A along the linearized circular order."""
    if w.kind != "cycle":
        raise ValueError(f"need a cycle witness, got {w.kind!r}")
    if not verify_support(g, w):
        raise ValueError("invalid cycle witness")
    return caterpillar_from_ordering(interleave(g, w.cycle_order()))


def _glue(part_decomps) -> BranchDecomposition:
    """Join decompositions of the parts of a vertex partition along a new
    spine: spine nodes 0..p-1, then each part tree renumbered in turn, its
    least edge subdivided by a hook on its spine node (a one-node part hangs
    on the spine directly)."""
    p = len(part_decomps)
    if p == 1:
        return part_decomps[0]
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(p - 1)]
    leaf_map: dict[int, int] = {}
    off = p
    for i, d in enumerate(part_decomps):
        # node x of the part becomes off + x; the hook follows the part's nodes
        hook = min(d.tree.edges, default=None)
        edges += [(off + u, off + v) for u, v in d.tree.edges if (u, v) != hook]
        leaf_map.update((off + leaf, vertex) for leaf, vertex in d.leaf_map.items())
        if hook is None:
            edges.append((i, off))
            off += 1
        else:
            h = off + d.tree.n
            edges += [(off + hook[0], h), (off + hook[1], h), (i, h)]
            off = h + 1
    return BranchDecomposition(Graph.make(off, edges), leaf_map, False, ())


def _check_tree_witness(g: BipartiteGraph, w: SupportWitness) -> None:
    if w.kind == "cycle":
        raise ValueError("need an acyclic witness")
    if not verify_support(g, w):
        raise ValueError("invalid tree witness")


def _spider(g: BipartiteGraph, adj: dict[int, set[int]], bs) -> BranchDecomposition:
    """decompose_spider on the part of g with host adj (the support restricted
    to the part's A vertices, at most one of degree >= 3) and B vertices bs,
    ascending.  Every path is read from its least end."""
    branching = [v for v in adj if len(adj[v]) >= 3]
    if not branching:
        ends = [v for v in adj if len(adj[v]) <= 1]
        path = preorder(adj, min(ends))[0] if ends else []
        return caterpillar_from_ordering(interleave(g, path, bs))
    (u,) = branching
    # the components of the host minus u: one preorder block per child c of
    # u.  Each is a path from c away from u (non-branching vertices have host
    # degree <= 2), so the block lists it in order.
    order, parent = preorder(adj, u)
    blocks = []
    for x in order[1:]:
        if parent[x] == u:
            blocks.append([])
        blocks[-1].append(x)
    blocks.sort(key=min)
    leg = {x: i for i, block in enumerate(blocks) for x in block}
    # each b goes to the one leg holding all its neighbours other than u;
    # part 0 also takes u and every other b.  bs is ascending, so each
    # part's list is too.
    part_bs: list[list[int]] = [[] for _ in blocks]
    for b in bs:
        legs = {leg[x] for x in g.adj[b - g.a_size] if x in leg}
        part_bs[legs.pop() if len(legs) == 1 else 0].append(b)

    decomps = []
    for i, block in enumerate(blocks):
        path = [u] + block if i == 0 else block
        if path[-1] < path[0]:
            path = path[::-1]
        decomps.append(caterpillar_from_ordering(interleave(g, path, part_bs[i])))
    return _glue(decomps)


def decompose_spider(g: BipartiteGraph, w: SupportWitness) -> BranchDecomposition:
    """Decomposition of width <= max{2*floor((D/2)^2), 2D-1} from a tree
    support with at most one branching vertex of degree D.

    The A side splits into the components around the branching vertex u;
    every part is convex on a path host, and the parts are glued along a
    spine.  A path-shaped support gives the convex construction.
    """
    _check_tree_witness(g, w)
    if len(w.branching) > 1:
        raise ValueError("witness has more than one branching vertex")
    return _spider(g, w.host_adjacency(), range(g.a_size, g.n))


def decompose_tdelta(
    g: BipartiteGraph, w: SupportWitness, trace: list | None = None
) -> BranchDecomposition:
    """Recursive decomposition for tree supports with t branching vertices.

    Splits the support at an edge balancing the branching vertices between
    the two sides, partitions B by contact with the first side, recurses,
    and glues the two half-decompositions.  Width <= tdelta_bound(t, delta);
    every recursion level records its split cut value against the guarantee
    delta*(t-1) when a trace list is supplied.  The support is checked once;
    each level works on a part of g in g's own labels, and a subtree of the
    support is a support of every N(b) restricted to it.
    """
    _check_tree_witness(g, w)
    gg = g.to_graph() if trace is not None else None

    def split(adj, bs):
        # adj: the support restricted to the part's A vertices; bs: its B vertices, ascending
        t = sum(len(nbrs) >= 3 for nbrs in adj.values())
        if t <= 1:
            return _spider(g, adj, bs)
        order, parent = preorder(adj, min(adj))
        # size and number of host-branching vertices of every subtree
        size = dict.fromkeys(order, 1)
        count = {x: int(len(adj[x]) >= 3) for x in order}
        for x in reversed(order[1:]):
            size[parent[x]] += size[x]
            count[parent[x]] += count[x]
        best = None
        for (u, v) in sorted((x, y) for x in adj for y in adj[x] if x < y):
            # cutting child c from parent p takes one neighbour from each: an
            # end of host degree exactly 3 stops branching on its side
            c, p = (u, v) if parent[u] == v else (v, u)
            t_c = count[c] - (len(adj[c]) == 3)
            t_p = t - count[c] - (len(adj[p]) == 3)
            key = (max(t_c, t_p), (u, v))
            if key[0] < t and (best is None or key < best[0]):
                best = (key, c)
        if best is None:
            raise AssertionError("no splitting edge despite multiple branchings")
        (_, (u, v)), c = best
        i = order.index(c)
        subtree = set(order[i : i + size[c]])
        a1, a2 = (subtree, set(adj) - subtree) if c == u else (set(adj) - subtree, subtree)
        b1 = [b for b in bs if g.adj[b - g.a_size] & a1]
        b2 = [b for b in bs if not (g.adj[b - g.a_size] & a1)]
        if trace is not None:
            # mim conflicts read only X-Y edges: the part's cut is read in g
            delta = max(map(len, adj.values()))
            cut, _ = _mim_pair(gg, sum(1 << x for x in [*a1, *b1]), sum(1 << x for x in [*a2, *b2]), "mim")
            trace.append({"t": t, "delta": delta, "cut": cut, "bound": delta * (t - 1)})
        halves = ((a1, b1), (a2, b2))
        return _glue([split({x: adj[x] & side for x in side}, side_bs) for side, side_bs in halves])

    return split(w.host_adjacency(), range(g.a_size, g.n))


# ---------------------------------------------------------------------------
# JSON wire form


def decomposition_to_json(d: BranchDecomposition, g) -> dict:
    leaves = sorted(d.leaf_map)
    internal = sorted(v for v in range(d.tree.n) if v not in d.leaf_map)
    # nodes in name order, s1 < s2 < ... < t1 < t2 < ..., so ranks sort as names do
    names = [f"s{i + 1}" for i in range(len(internal))] + [f"t{i + 1}" for i in range(len(leaves))]
    rank = {node: r for r, node in enumerate(internal + leaves)}
    pairs = sorted(sorted((rank[u], rank[v])) for u, v in d.tree.edges)
    return {
        "linear": d.linear,
        "spine": [names[rank[s]] for s in d.spine],
        "leaves": {names[rank[leaf]]: vertex_token(g, v) for leaf, v in sorted(d.leaf_map.items())},
        "tree_edges": [[names[x], names[y]] for x, y in pairs],
    }


def decomposition_from_json(data: dict, g) -> BranchDecomposition:
    leaves, tree_edges, spine = data.get("leaves"), data.get("tree_edges"), data.get("spine", [])
    linear = data.get("linear", False)
    if not (isinstance(leaves, dict) and _str_lists(tree_edges, 2) and _str_list(spine) and isinstance(linear, bool)):
        raise ValueError("decomposition needs leaves {name: token}, tree_edges [[name, name]], spine [name], "
                         "linear a boolean")
    internal = {nm for e in tree_edges for nm in e if nm not in leaves}
    # leaves first, each group in the order of its numbers
    key = {nm: (0, _numbered(nm, "t")) for nm in leaves} | {nm: (1, _numbered(nm, "s")) for nm in internal}
    if any(i is None for _, i in key.values()):
        raise ValueError("decomposition needs leaf names t<i> and internal names s<i>, i without leading zeros")
    if not (set(spine) <= internal and len(set(spine)) == len(spine)):
        raise ValueError("decomposition needs a spine of distinct internal nodes")
    pairs = {frozenset(e) for e in tree_edges}
    if not all(frozenset(e) in pairs for e in zip(spine, spine[1:])) or (linear and set(spine) != internal):
        raise ValueError("decomposition needs a spine along tree edges, through every internal node when linear")
    ids = {nm: i for i, nm in enumerate(sorted(key, key=key.get))}
    edges = [(ids[a], ids[b]) for a, b in tree_edges]
    tree = Graph.make(max(len(ids), 1), edges)
    leaf_map = {ids[nm]: parse_vertex_token(g, tok) for nm, tok in leaves.items()}
    spine = tuple(ids[nm] for nm in spine)
    return BranchDecomposition(tree, leaf_map, linear, spine)
