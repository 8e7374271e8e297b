"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately naive (permutation / subset / Prufer
enumeration) and shares no code with the package implementations; only the
sub-instance builders and the small-graph section at the end return the
package's value types.  The chordal-bipartite test and the induced-pattern
search have no caller in the package; they live here beside their
brute-force cross-checks.  The last section holds the small graph builders
and the library forms that only tests call (the sim cut, the checked
multijoin gluing and its bound), over the package's private helpers.
"""

import heapq
from itertools import combinations, permutations, product

from gcwidth import BipartiteGraph, BranchDecomposition, Graph, SupportWitness
from gcwidth.decomp import _glue, _mim_pair


# --- maximum induced matching -----------------------------------------------


def brute_max_induced_matching(n, edges, side, mode):
    """Exhaustive maximum induced matching across (side, rest).

    mode "mim": only cut edges forbid pairs; mode "sim": all edges do.
    Intended for cuts with at most ~14 cross edges.
    """
    side = set(side)
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    cross = [e for e in eset if (e[0] in side) != (e[1] in side)]

    def compatible(e, f):
        if set(e) & set(f):
            return False
        for x in e:
            for y in f:
                pair = (min(x, y), max(x, y))
                if pair in eset:
                    if mode == "sim":
                        return False
                    if (x in side) != (y in side):
                        return False
        return True

    best = 0
    for r in range(len(cross), 0, -1):
        if r <= best:
            break
        for sub in combinations(cross, r):
            ok = all(
                compatible(sub[i], sub[j])
                for i in range(len(sub))
                for j in range(i + 1, len(sub))
            )
            if ok:
                best = r
                break
        if best:
            break
    return best


def brute_max_independent_set(conflict, universe):
    """Size of a maximum independent set of the graph with bitmask
    adjacency conflict on the vertex bitmask universe, by enumerating
    vertex subsets from the largest size down."""
    vertices = [v for v in range(universe.bit_length()) if (universe >> v) & 1]
    for r in range(len(vertices), 0, -1):
        for sub in combinations(vertices, r):
            mask = sum(1 << v for v in sub)
            if not any(conflict[v] & mask for v in sub):
                return r
    return 0


def scanned_cut_edges(n, edges, side):
    """The edges across (side, rest) as sorted (min, max) pairs, listed by
    scanning the neighbours of the smaller side."""
    side = set(side)
    rest = set(range(n)) - side
    small, big = (side, rest) if len(side) <= len(rest) else (rest, side)
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return sorted((min(u, v), max(u, v)) for u in small for v in adj[u] & big)


# --- host orders -------------------------------------------------------------


def has_path_order(n, hyperedges):
    """Does some permutation of 0..n-1 make every hyperedge an interval?"""
    hyperedges = [set(h) for h in hyperedges if len(h) >= 2]
    for perm in permutations(range(n)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(_is_interval({pos[v] for v in h}) for h in hyperedges):
            return True
    return False


def _is_interval(positions):
    return max(positions) - min(positions) + 1 == len(positions)


def has_circular_order(n, hyperedges):
    """Does some circular order make every hyperedge a circular arc?"""
    hyperedges = [set(h) for h in hyperedges if 2 <= len(h) <= n - 1]
    if n <= 3 or not hyperedges:
        return True
    for perm in permutations(range(1, n)):
        order = (0,) + perm
        pos = {v: i for i, v in enumerate(order)}
        if all(_is_arc({pos[v] for v in h}, n) for h in hyperedges):
            return True
    return False


def _is_arc(positions, n):
    gaps = sum(1 for i in positions if (i + 1) % n not in positions)
    return gaps <= 1


def all_labelled_trees(n):
    """Edge sets of every labelled tree on 0..n-1 (via Prufer sequences)."""
    if n == 1:
        yield set()
        return
    if n == 2:
        yield {(0, 1)}
        return
    for seq in product(range(n), repeat=n - 2):
        deg = [1] * n
        for v in seq:
            deg[v] += 1
        edges = set()
        avail = [v for v in range(n) if deg[v] == 1]
        heapq.heapify(avail)
        for v in seq:
            leaf = heapq.heappop(avail)
            edges.add((min(leaf, v), max(leaf, v)))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(avail, v)
        u, w = heapq.heappop(avail), heapq.heappop(avail)
        edges.add((min(u, w), max(u, w)))
        yield edges


def tree_connects_hyperedges(n, edges, hyperedges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for h in hyperedges:
        h = set(h)
        if len(h) <= 1:
            continue
        start = next(iter(h))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in h and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != h:
            return False
    return True


def has_tree_support(n, hyperedges, t, delta):
    """Is there a spanning tree with <= t branchings, max degree <= delta,
    connecting every hyperedge?  Exhaustive over all labelled trees."""
    for edges in all_labelled_trees(n):
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if deg and max(deg) > delta:
            continue
        if sum(1 for d in deg if d >= 3) > t:
            continue
        if tree_connects_hyperedges(n, edges, hyperedges):
            return True
    return False


# --- thinness ----------------------------------------------------------------


def _chromatic(n, conflict_pairs):
    if n == 0:
        return 0
    adj = [set() for _ in range(n)]
    for u, v in conflict_pairs:
        adj[u].add(v)
        adj[v].add(u)

    def colourable(k):
        colours = [-1] * n

        def assign(i, used):
            if i == n:
                return True
            for c in range(min(used + 1, k - 1) + 1):
                if all(colours[j] != c for j in adj[i]):
                    colours[i] = c
                    if assign(i + 1, max(used, c)):
                        return True
                    colours[i] = -1
            return False

        return assign(0, -1)

    for k in range(1, n + 1):
        if colourable(k):
            return k
    return n


def brute_thinness(n, edges, proper=False):
    """Minimum classes over all orders; per order the co-class constraints
    are pairwise, so the optimum for the order is a chromatic number."""
    eset = {(min(u, v), max(u, v)) for u, v in edges}

    def adjacent(u, v):
        return (min(u, v), max(u, v)) in eset

    best = n
    for perm in permutations(range(n)):
        conflicts = []
        for i in range(n):
            for j in range(i + 1, n):
                r, s = perm[i], perm[j]
                bad = any(
                    adjacent(r, perm[k]) and not adjacent(s, perm[k])
                    for k in range(j + 1, n)
                )
                if not bad and proper:
                    bad = any(
                        adjacent(perm[k], s) and not adjacent(perm[k], r)
                        for k in range(i)
                    )
                if bad:
                    conflicts.append((i, j))
        best = min(best, _chromatic(n, conflicts))
        if best == 1:
            break
    return best


def _neighbour_sets(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def consistent_by_triples(g, r):
    """The triple condition on ordered co-class pairs: r < s < t with v_r,
    v_s co-classed and v_r v_t in E forces v_s v_t in E."""
    adj = _neighbour_sets(g)
    pos = {v: i for i, v in enumerate(r.order)}
    for cls in r.classes:
        members = sorted(cls, key=pos.get)
        for i, vr in enumerate(members):
            for vs in members[i + 1 :]:
                if any(pos[vt] > pos[vs] and vt not in adj[vs] for vt in adj[vr]):
                    return False
    return True


def strongly_consistent_by_triples(g, r):
    """Both triple conditions; the mirrored one: r < s < t with v_s, v_t
    co-classed and v_r v_t in E forces v_r v_s in E."""
    if not consistent_by_triples(g, r):
        return False
    adj = _neighbour_sets(g)
    pos = {v: i for i, v in enumerate(r.order)}
    for cls in r.classes:
        members = sorted(cls, key=pos.get)
        for i, vs in enumerate(members):
            for vt in members[i + 1 :]:
                if any(pos[vr] < pos[vs] and vr not in adj[vs] for vr in adj[vt]):
                    return False
    return True


def strongly_consistent_by_consecutiveness(g, r):
    """Bonomo and de Estrada's characterization: for every v and class j, the
    members of N[v] in V^j + v are consecutive in V^j + v."""
    adj = _neighbour_sets(g)
    pos = {v: i for i, v in enumerate(r.order)}
    for v in range(g.n):
        closed = adj[v] | {v}
        for cls in r.classes:
            flags = [x in closed for x in sorted(cls | {v}, key=pos.get)]
            if True in flags:
                first = flags.index(True)
                last = len(flags) - 1 - flags[::-1].index(True)
                if not all(flags[first : last + 1]):
                    return False
    return True


# --- chordal bipartite / patterns ---------------------------------------------


def brute_is_chordal_bipartite(n, edges):
    """All induced cycles have length 4, by checking every vertex subset."""
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    for size in range(3, n + 1):
        if size == 4:
            continue
        for sub in combinations(range(n), size):
            inner = [
                (u, v) for u, v in eset if u in sub and v in sub
            ]
            if len(inner) != size:
                continue
            deg = {v: 0 for v in sub}
            for u, v in inner:
                deg[u] += 1
                deg[v] += 1
            if any(d != 2 for d in deg.values()):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            adj = {v: set() for v in sub}
            for u, v in inner:
                adj[u].add(v)
                adj[v].add(u)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == size:
                return False
    return True


def brute_has_induced_pattern(gn, g_edges, pn, p_edges):
    g_set = {(min(u, v), max(u, v)) for u, v in g_edges}
    p_set = {(min(u, v), max(u, v)) for u, v in p_edges}
    for sub in combinations(range(gn), pn):
        for perm in permutations(sub):
            ok = True
            for i in range(pn):
                for j in range(i + 1, pn):
                    in_p = (min(i, j), max(i, j)) in p_set
                    in_g = (min(perm[i], perm[j]), max(perm[i], perm[j])) in g_set
                    if in_p != in_g:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def is_chordal_bipartite(g) -> bool:
    """True iff every induced cycle of g has exactly four vertices.

    Accepts Graph or BipartiteGraph.  Non-bipartite graphs fail as soon as
    an odd induced cycle is found (triangles included), which makes the test
    usable on the forbidden-pattern graphs as well.
    """
    adj = g.to_graph().adjacency()

    # Grow induced paths s,x1,..,xk with min vertex s depth-first, one
    # neighbour iterator per path vertex after s; the only permitted chord
    # back to s is the one closing the cycle.
    def extend(s, x1):
        path, on_path = [s, x1], {s, x1}
        nexts = [iter(sorted(adj[x1]))]
        while nexts:
            w = next(nexts[-1], None)
            if w is None:
                nexts.pop()
                on_path.remove(path.pop())
                continue
            if w <= s or w in on_path:
                continue
            # w is adjacent to the last vertex; any further path neighbour but s is a chord
            hits = adj[w] & on_path
            if len(hits - {s}) > 1:
                continue
            if s in hits:
                if len(path) + 1 != 4:
                    return False  # induced cycle (triangle or >= 5) found
                continue  # closes a C4; extending past w would add a chord
            path.append(w)
            on_path.add(w)
            nexts.append(iter(sorted(adj[w])))
        return True

    for s in range(g.n):
        for x1 in sorted(adj[s]):
            if x1 > s and not extend(s, x1):
                return False
    return True


def pattern_k3_s3() -> Graph:
    """Triangle 0,1,2 with a pendant vertex attached to each corner."""
    return Graph.make(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def pattern_k3_k3() -> Graph:
    """Two triangles 0,1,2 and 3,4,5 joined by a perfect matching."""
    return Graph.make(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    )


def has_induced_pattern(g: Graph, p: Graph) -> bool:
    """True iff g contains an induced subgraph isomorphic to p.

    Backtracking over injective mappings with degree pruning; intended for
    patterns on at most ~8 vertices.
    """
    if p.n > g.n:
        raise ValueError("pattern larger than host")
    if p.n == 0:
        return True
    g_adj = g.adjacency()
    p_adj = p.adjacency()
    g_deg = [len(s) for s in g_adj]
    p_deg = [len(s) for s in p_adj]

    # map pattern vertices in an order that keeps the partial image connected
    # where possible (first vertex = max degree, then most-anchored next).
    order = [max(range(p.n), key=lambda v: p_deg[v])]
    remaining = set(range(p.n)) - set(order)
    while remaining:
        nxt = max(
            remaining,
            key=lambda v: (sum(1 for u in order if u in p_adj[v]), p_deg[v]),
        )
        order.append(nxt)
        remaining.remove(nxt)

    image = [-1] * p.n
    used = set()

    def place(i):
        if i == len(order):
            return True
        pv = order[i]
        for gv in range(g.n):
            if gv in used or g_deg[gv] < p_deg[pv]:
                continue
            ok = True
            for pu in order[:i]:
                adj_required = pu in p_adj[pv]
                if (image[pu] in g_adj[gv]) != adj_required:
                    ok = False
                    break
            if ok:
                image[pv] = gv
                used.add(gv)
                if place(i + 1):
                    return True
                used.remove(gv)
                image[pv] = -1
        return False

    return place(0)


# --- width of a decomposition and the (t,delta) split ------------------------


def _component_without_edge(adj, start, cut):
    """Nodes reachable from start when the edge `cut` is deleted."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if {x, y} != set(cut) and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def brute_width(n, edges, tree_edges, leaf_map, mode):
    """Width of a branch decomposition by deleting each tree edge in turn.

    Walks the side of the smaller endpoint u of every tree edge (u, v), in
    sorted order, and measures the cut with brute_max_induced_matching; the
    first edge reaching the maximum wins.  Returns (width, (edge, side)), or
    (0, None) for an edgeless tree.
    """
    adj = {}
    for u, v in tree_edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    best, report = 0, None
    for u, v in sorted((min(e), max(e)) for e in tree_edges):
        nodes = _component_without_edge(adj, u, (u, v))
        side = tuple(sorted(leaf_map[x] for x in nodes if x in leaf_map))
        value = brute_max_induced_matching(n, edges, side, mode)
        if report is None or value > best:
            best, report = value, ((u, v), side)
    return best, report


def brute_min_width(n, edges, mode):
    """Least width over all branch decompositions of the graph on 0..n-1,
    by scoring every unrooted binary tree with leaves 0..n-1 with
    brute_width.  The trees are grown by inserting leaf k (on a new internal
    node n + k - 2) into every edge of every tree on leaves 0..k-1; nothing
    is pruned, so n = 7 already means 945 trees."""
    if n == 1:
        return 0
    trees = [[(0, 1)]]
    for k in range(2, n):
        w = n + k - 2
        trees = [[e for e in t if e != (u, v)] + [(u, w), (v, w), (k, w)] for t in trees for u, v in t]
    leaf_map = {v: v for v in range(n)}
    return min(brute_width(n, edges, t, leaf_map, mode)[0] for t in trees)


def tdelta_split(vertices, host_edges):
    """The (t,delta) split edge by the per-edge search of the original
    construction: delete each host edge in sorted order, walk both sides and
    count the vertices of degree >= 3 inside each; the least larger count
    below t wins, ties to the first edge.

    Returns (edge, side of its smaller endpoint, other side), or None when no
    edge lowers the count on both sides.
    """
    adj = {v: set() for v in vertices}
    for u, v in host_edges:
        adj[u].add(v)
        adj[v].add(u)

    def branchings(side):
        return sum(1 for x in side if len(adj[x] & side) >= 3)

    t = branchings(set(vertices))
    best = None
    for u, v in sorted(host_edges):
        side_u = _component_without_edge(adj, u, (u, v))
        side_v = set(vertices) - side_u
        key = (max(branchings(side_u), branchings(side_v)), (u, v))
        if key[0] < t and (best is None or key < best[0]):
            best = (key, side_u, side_v)
    if best is None:
        return None
    return best[0][1], best[1], best[2]


# --- rooted walks of the thinness and spider constructions -------------------


def thin_classes_and_postorder(vertices, host_edges):
    """Class ids and A order of the thinness construction on a host tree, by
    its original three stack loops: root at the least leaf, list every
    node's children in ascending order, hand out class ids in a visit that
    pops the greatest child first (the least child keeps its parent's class,
    every other child gets the next id; the root has class 1), then walk the
    tree in postorder with children ascending.

    Returns ({vertex: class id}, one past the greatest id, postorder).
    """
    adj = {v: set() for v in vertices}
    for u, v in host_edges:
        adj[u].add(v)
        adj[v].add(u)
    root = min(v for v in vertices if len(adj[v]) <= 1)

    children = {}
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        kids = sorted(x for x in adj[v] if x not in seen)
        children[v] = kids
        for x in kids:
            seen.add(x)
            stack.append(x)

    cls_of = {root: 1}
    next_cls = 2
    visit = [root]
    while visit:
        v = visit.pop()
        for i, x in enumerate(children[v]):
            if i == 0:
                cls_of[x] = cls_of[v]
            else:
                cls_of[x] = next_cls
                next_cls += 1
            visit.append(x)

    postorder = []
    stack = [(root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            postorder.append(v)
            continue
        stack.append((v, True))
        for x in reversed(children[v]):
            stack.append((x, False))
    return cls_of, next_cls, postorder


def walk_path(adj, start, n):
    """The first n vertices of the walk from start that never steps straight
    back and takes the least new neighbour: a path host read end to end."""
    order = [start]
    prev = None
    while len(order) < n:
        nexts = sorted(adj[order[-1]] - ({prev} if prev is not None else set()))
        prev = order[-1]
        order.append(nexts[0])
    return tuple(order)


def interleave_by_insertion(a_order, b_nbrs):
    """A vertices in a_order, then each (b, N(b)) of b_nbrs in turn inserted
    after its last A-neighbour in the sequence and the b's already there;
    a b with no neighbour in a_order goes to the end, in turn."""
    order, tail = list(a_order), []
    for b, nb in b_nbrs:
        hits = [i for i, x in enumerate(order) if x in a_order and x in nb]
        if not hits:
            tail.append(b)
            continue
        i = hits[-1] + 1
        while i < len(order) and order[i] not in a_order:
            i += 1
        order.insert(i, b)
    return order + tail


def spider_legs(vertices, host_edges, u):
    """The components of a host tree minus u, least first, each as the path
    from its far end to u's neighbour in it, found by deleting each edge at u
    and walking from the leg's only host leaf."""
    adj = {v: set() for v in vertices}
    for x, y in host_edges:
        adj[x].add(y)
        adj[y].add(x)
    legs = []
    for c in sorted(adj[u]):
        comp = _component_without_edge(adj, c, (u, c))
        (far,) = [v for v in comp if len(adj[v]) == 1]
        legs.append(list(walk_path(adj, far, len(comp))))
    return sorted(legs, key=min)


# --- sub-instances of the reference constructions ---------------------------


def induced_subgraph(g, subset):
    """Induced subgraph on `subset`, relabelled canonically.

    Returns (subgraph of the same kind, mapping old vertex -> new vertex).
    For bipartite inputs the subset may mix A and B vertices; sides are
    relabelled separately, keeping A before B.
    """
    sub = set(subset)
    for v in sub:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    if isinstance(g, BipartiteGraph):
        a_keep = sorted(v for v in sub if v < g.a_size)
        b_keep = sorted(v for v in sub if v >= g.a_size)
        a_map = {old: i for i, old in enumerate(a_keep)}
        nbrs = tuple(
            frozenset(a_map[a] for a in g.adj[old - g.a_size] if a in a_map)
            for old in b_keep
        )
        mapping = dict(a_map)
        for i, old in enumerate(b_keep):
            mapping[old] = len(a_keep) + i
        return BipartiteGraph(len(a_keep), len(b_keep), nbrs), mapping
    keep = sorted(sub)
    mapping = {old: i for i, old in enumerate(keep)}
    edges = frozenset(
        (mapping[u], mapping[v]) for u, v in g.edges if u in sub and v in sub
    )
    return Graph(len(keep), edges), mapping


def restrict_support(w, subset):
    """Witness restricted to `subset`, which must induce a connected subtree.

    Vertex labels are preserved; kind is recomputed (path when the restricted
    host has maximum degree <= 2, tree otherwise).
    """
    if w.kind == "cycle":
        raise ValueError("cannot restrict a cycle witness")
    sub = set(subset)
    if not sub <= set(w.vertices):
        raise ValueError("subset not within witness vertices")
    edges = frozenset(e for e in w.host_edges if e[0] in sub and e[1] in sub)
    if not tree_connects_hyperedges(max(sub, default=-1) + 1, edges, [sub]):
        raise ValueError("subset not connected in host")
    degrees = [sum(v in e for e in edges) for v in sub]
    kind = "path" if max(degrees, default=0) <= 2 else "tree"
    return SupportWitness(kind, tuple(sorted(sub)), edges)


# --- small graphs and test-only library forms ---------------------------------


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    full = frozenset(range(a))
    return BipartiteGraph(a, b, tuple(full for _ in range(b)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return Graph.make(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.make(n, [(i, i + 1) for i in range(n - 1)])


def max_induced_matching_sim(g: Graph, side) -> tuple[int, tuple]:
    """As max_induced_matching_cut but the matching is induced in G itself."""
    xmask = sum(1 << v for v in set(side))
    return _mim_pair(g, xmask, ((1 << g.n) - 1) & ~xmask, "sim")


def multijoin_bound(c: int, p: int, part_widths) -> int:
    """Width guarantee when gluing p parts with pairwise cut values <= c."""
    inner = max(part_widths, default=0)
    return max(c * ((p * p) // 4), inner + c * (p - 1))


def glue_multijoin(g: Graph, parts, part_decomps) -> BranchDecomposition:
    """Join decompositions of a vertex partition along a new spine.

    Each part tree is attached to its own spine vertex (subdividing one
    part-tree edge to create the hook).  Width obeys the multijoin bound
    h = max{c*floor((p/2)^2), max_i width_i + c(p-1)} for c the maximum
    pairwise cut value between parts; callers assert it per instance.
    """
    parts = [sorted(p) for p in parts]
    if not parts:
        raise ValueError("no parts")
    flat = [v for part in parts for v in part]
    if sorted(flat) != list(range(g.n)) or len(flat) != len(set(flat)):
        raise ValueError("parts do not partition the vertex set")
    if len(part_decomps) != len(parts):
        raise ValueError("one decomposition required per part")
    for part, d in zip(parts, part_decomps):
        if sorted(d.leaf_map.values()) != part:
            raise ValueError("part decomposition does not cover its part")
    return _glue(part_decomps)
