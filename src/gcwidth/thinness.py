"""Thinness and proper thinness: verifiers, constructions, exact oracles,
and the bridge from vertex orderings to linear branch decompositions.

A representation is an ordering of V plus a partition into classes.  It is
consistent when for r < s < t with v_r, v_s co-classed, v_r v_t in E forces
v_s v_t in E; strongly consistent adds the mirrored condition on (s, t)
co-classed pairs.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left

from .decomp import BranchDecomposition, SizeGuardError, _bits, _check_tree_witness, caterpillar_from_ordering, interleave
from .graphs import BipartiteGraph, Graph, _lines, _str_list, _str_lists, parse_vertex_token, preorder, vertex_token
from .supports import SupportWitness


@dataclasses.dataclass
class ThinRepresentation:
    order: tuple[int, ...]
    classes: tuple[frozenset[int], ...]
    strong: bool = False

    def class_count(self) -> int:
        return len(self.classes)


@dataclasses.dataclass
class PathDecomposition:
    bags: tuple[frozenset[int], ...]

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


def _check_representation(g: Graph, r: ThinRepresentation) -> None:
    if sorted(r.order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertex set")
    flat = [v for c in r.classes for v in c]
    if sorted(flat) != list(range(g.n)) or len(flat) != len(set(flat)):
        raise ValueError("classes do not partition the vertex set")
    if any(not c for c in r.classes):
        raise ValueError("empty class")


def _suffix_closed(adj: list[set[int]], classes, order) -> bool:
    """The triple condition read along order: for every vertex t and class j,
    the class-j neighbours of t placed before t are exactly the last c class-j
    members before t, where c is their count.  One bisection per (t, j) pair
    with such a neighbour, so O(m log n) in all."""
    pos = {v: i for i, v in enumerate(order)}
    class_of = {v: j for j, cls in enumerate(classes) for v in cls}
    spots = [sorted(pos[v] for v in cls) for cls in classes]
    for t, p in pos.items():
        count: dict[int, int] = {}
        first: dict[int, int] = {}
        for u in adj[t]:
            q = pos[u]
            if q < p:
                j = class_of[u]
                count[j] = count.get(j, 0) + 1
                first[j] = min(first.get(j, q), q)
        for j, c in count.items():
            if spots[j][bisect_left(spots[j], p) - c] != first[j]:
                return False
    return True


def verify_consistent(g: Graph, r: ThinRepresentation) -> bool:
    """Triple condition: r<s<t, v_r,v_s co-classed, v_r v_t in E => v_s v_t in E."""
    _check_representation(g, r)
    return _suffix_closed(g.adjacency(), r.classes, r.order)


def verify_strongly_consistent(g: Graph, r: ThinRepresentation) -> bool:
    """Both triple conditions; the mirrored one (s,t co-classed) is the first
    read from right to left."""
    _check_representation(g, r)
    adj = g.adjacency()
    return _suffix_closed(adj, r.classes, r.order) and _suffix_closed(adj, r.classes, r.order[::-1])


# ---------------------------------------------------------------------------
# construction from a tree support


def thin_from_tree_support(g: BipartiteGraph, w: SupportWitness) -> ThinRepresentation:
    """Consistent representation with at most 2 + t(delta-2) classes.

    Class 1 is all of B.  The support tree is rooted at its least leaf; the
    root opens class 2, the least child of every node inherits its parent's
    class and every further child opens a fresh class.  A is ordered by
    postorder of the rooted tree and each b is inserted right after its
    greatest A-neighbour (isolated b's at the end).
    """
    _check_tree_witness(g, w)
    if g.a_size == 0:
        raise ValueError("need at least one A vertex")
    adj = {v: sorted(nbrs) for v, nbrs in w.host_adjacency().items()}
    root = min(v for v in w.vertices if len(adj[v]) <= 1)
    pre, parent = preorder(adj, root)

    # class ids: 0 = B, 1 = root's class, further classes appended
    cls_of = {root: 1}
    next_cls = 2
    for v in pre:
        for i, x in enumerate(y for y in adj[v] if parent[y] == v):
            if i == 0:
                cls_of[x] = cls_of[v]
            else:
                cls_of[x] = next_cls
                next_cls += 1

    # the reversed preorder is the postorder with children ascending
    order = interleave(g, pre[::-1])

    class_sets: list[set[int]] = [set() for _ in range(next_cls)]
    class_sets[0] = {g.a_size + j for j in range(g.b_size)}
    for a, c in cls_of.items():
        class_sets[c].add(a)
    classes = tuple(frozenset(c) for c in class_sets if c)
    return ThinRepresentation(tuple(order), classes, False)


def linear_bd_from_thin(g: Graph | BipartiteGraph, r: ThinRepresentation) -> BranchDecomposition:
    """Caterpillar over the representation's order; mim width <= class count."""
    if not verify_consistent(g.to_graph(), r):
        raise ValueError("representation is not consistent")
    return caterpillar_from_ordering(r.order)


# ---------------------------------------------------------------------------
# exact oracles


def _placement(n: int, adj: list[int], k: int, proper: bool) -> ThinRepresentation | None:
    """A (strongly) consistent representation with <= k classes, or None.

    Depth-first search over placement states, left to right.  One mask per
    class holds in its low n bits the unplaced neighbours of the placed
    members (consistency forces them onto every later member) and, for proper
    thinness, in its high n bits the placed non-neighbours that any later
    member must avoid (always 0 for thinness).  Classes whose mask is empty
    behave exactly like unopened ones, so a state is the placed set plus the
    sorted nonzero masks, a fresh class may open iff fewer than k masks are
    nonzero, and each state is expanded once.  The path records the index of
    the mask each vertex joined (-1: a fresh class); replaying the first
    complete path labels the classes.
    """
    full = (1 << n) - 1
    # masks v may not join: an unplaced neighbour of a member that v misses,
    # or an avoided vertex adjacent to v
    blocked = [(full & ~adj[v] & ~(1 << v)) | (adj[v] << n) for v in range(n)]
    lives: dict[int, int] = {}

    def step(placed: int, v: int) -> tuple[int, int]:
        """The mask bits still in use once v is placed, and v's own mask."""
        nplaced = placed | (1 << v)
        if proper and nplaced not in lives:
            lives[nplaced] = 0
            for u in _bits(full & ~nplaced):
                lives[nplaced] |= adj[u]
        live = lives.get(nplaced, 0)
        keep = (full & ~nplaced) | (live << n)
        return keep, (adj[v] | ((placed & ~adj[v] & live) << n)) & keep

    seen = {0}  # placed set, then each sorted nonzero mask in 2n more bits
    stack: list[tuple] = [(0, (), None)]  # placed, masks, path
    while stack:
        placed, masks, path = stack.pop()
        if placed == full:
            # replay the path through the same mask step to label the classes;
            # a fresh class takes the label of a class whose mask went empty
            moves, classes, pairs, placed = [], {}, [], 0  # pairs: sorted (nonzero mask, label)
            while path:
                v, i, path = path
                moves.insert(0, (v, i))
            for v, i in moves:
                keep, grown = step(placed, v)
                m, label = pairs[i] if i >= 0 else (0, min(set(range(len(classes) + 1)) - {c for _, c in pairs}))
                classes.setdefault(label, set()).add(v)
                moved = [(t & keep, c) for j, (t, c) in enumerate(pairs) if j != i] + [((m & keep) | grown, label)]
                pairs = sorted(p for p in moved if p[0])
                placed |= 1 << v
            return ThinRepresentation(tuple(v for v, _ in moves), tuple(map(frozenset, classes.values())), proper)
        for v in reversed(list(_bits(full & ~placed))):
            joins = [i for i, m in enumerate(masks) if not m & blocked[v]]
            if len(masks) < k:
                joins.append(-1)
            elif not joins:
                continue
            keep, grown = step(placed, v)
            nplaced = placed | (1 << v)
            trimmed = [m & keep for m in masks]
            for i in reversed(joins):
                m = trimmed[i] | grown if i >= 0 else grown
                kept = sorted([t for j, t in enumerate(trimmed) if t and j != i] + ([m] if m else []))
                key = nplaced
                for t in kept:
                    key = key << 2 * n | t
                if key not in seen:
                    seen.add(key)
                    stack.append((nplaced, tuple(kept), (v, i, path)))
    return None


def thin_oracle(g: Graph | BipartiteGraph, guard: int = 13) -> int:
    """Exact thinness by iterative deepening on the class count."""
    return _thinness_value(g, guard, proper=False)


def pthin_oracle(g: Graph | BipartiteGraph, guard: int = 13) -> int:
    """Exact proper thinness by iterative deepening on the class count."""
    return _thinness_value(g, guard, proper=True)


def _thinness_value(g, guard: int, proper: bool) -> int:
    gg = g.to_graph()
    n = gg.n
    if n == 0:
        raise ValueError("empty graph")
    if n > guard:
        raise SizeGuardError(f"{n} vertices exceeds oracle guard {guard}")
    adj = gg.adjacency_masks()
    verify = verify_strongly_consistent if proper else verify_consistent
    for k in range(1, n + 1):
        r = _placement(n, adj, k, proper)
        if r is not None:
            if r.class_count() > k or not verify(gg, r):
                raise AssertionError(f"placement found with {k} classes fails the verifier")
            return k
    raise AssertionError("singleton classes are always feasible")


# ---------------------------------------------------------------------------
# path decompositions


def verify_pathdecomp(g: Graph, p: PathDecomposition) -> tuple[bool, int]:
    """Check the three axioms; returns (valid, width)."""
    width = p.width()
    covered = set()
    for bag in p.bags:
        for v in bag:
            if not (0 <= v < g.n):
                return False, width
        covered |= set(bag)
    if covered != set(range(g.n)):
        return False, width
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in p.bags):
            return False, width
    for v in range(g.n):
        hits = [i for i, bag in enumerate(p.bags) if v in bag]
        if hits != list(range(hits[0], hits[-1] + 1)):
            return False, width
    return True, width


def pathdecomp_to_pthin(g: Graph, p: PathDecomposition) -> ThinRepresentation:
    """Strongly consistent representation with at most 2^q (q+1) classes from
    a path decomposition of width q.

    Stage 1 orders vertices by first bag (ties by index) and colours them
    greedily so co-coloured vertices never share a bag; bag size bounds the
    colours by q+1, and each vertex then has at most one smaller neighbour
    of each colour.  Stage 2 splits every colour class by the set of other
    colours contributing a smaller neighbour, which makes the refined
    partition strongly consistent.
    """
    ok, q = verify_pathdecomp(g, p)
    if not ok:
        raise ValueError("invalid path decomposition")
    if not g.edges:
        return ThinRepresentation(
            tuple(range(g.n)), (frozenset(range(g.n)),), True
        )
    first = {}
    last = {}
    for i, bag in enumerate(p.bags):
        for v in bag:
            first.setdefault(v, i)
            last[v] = i
    order = sorted(range(g.n), key=lambda v: (first[v], v))
    pos = {v: i for i, v in enumerate(order)}

    colour = {}
    for v in order:
        used = {
            colour[u]
            for u in colour
            if not (last[u] < first[v] or last[v] < first[u])
        }
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    if max(colour.values(), default=0) > q:
        raise AssertionError("stage-1 colouring uses more than q+1 colours")

    adj = g.adjacency()
    smaller_by_colour: dict[int, dict[int, int]] = {}
    for v in range(g.n):
        per = {}
        for u in adj[v]:
            if pos[u] < pos[v]:
                per[colour[u]] = per.get(colour[u], 0) + 1
        if any(cnt > 1 for cnt in per.values()):
            raise AssertionError("stage-1 property violated")
        smaller_by_colour[v] = per

    refined: dict[tuple[int, frozenset[int]], set[int]] = {}
    for v in range(g.n):
        key = (colour[v], frozenset(smaller_by_colour[v]) - {colour[v]})
        refined.setdefault(key, set()).add(v)
    classes = tuple(
        frozenset(refined[key]) for key in sorted(refined, key=lambda kv: (kv[0], sorted(kv[1])))
    )
    return ThinRepresentation(tuple(order), classes, True)


def parse_pathdecomp(text: str, g) -> PathDecomposition:
    """Lines ``bag v1 v2 ...`` in sequence order, vertex tokens as in files."""
    bags = []
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "bag":
            raise ValueError(f"bad path decomposition line {line!r}")
        bags.append(frozenset(parse_vertex_token(g, tok) for tok in parts[1:]))
    return PathDecomposition(tuple(bags))


def serialize_pathdecomp(p: PathDecomposition, g) -> str:
    lines = []
    for bag in p.bags:
        toks = " ".join(vertex_token(g, v) for v in sorted(bag))
        lines.append(f"bag {toks}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON wire form


def representation_to_json(r: ThinRepresentation, g) -> dict:
    return {
        "order": [vertex_token(g, v) for v in r.order],
        "classes": [sorted(vertex_token(g, v) for v in c) for c in r.classes],
        "strong": r.strong,
    }


def representation_from_json(data: dict, g) -> ThinRepresentation:
    order, classes, strong = data.get("order"), data.get("classes"), data.get("strong", False)
    if not (_str_list(order) and _str_lists(classes) and isinstance(strong, bool)):
        raise ValueError("representation needs order [token], classes [[token]], strong a boolean")
    return ThinRepresentation(
        tuple(parse_vertex_token(g, t) for t in order),
        tuple(frozenset(parse_vertex_token(g, t) for t in c) for c in classes),
        strong,
    )
