"""Graph value types, file IO, the tree walk, and small graph builders.

All types are immutable values; every operation here is a pure function.
Vertex conventions: general graphs use indices 0..n-1 (file tokens "1".."n"),
bipartite graphs put the A side first (indices 0..a_size-1, file tokens
"a1".."a|A|") and the B side after it (tokens "b1".."b|B|").
"""

from __future__ import annotations

import dataclasses


class GraphFormatError(ValueError):
    """Malformed graph file; `kind` names the violated rule."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclasses.dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not canonical")

    @staticmethod
    def make(n: int, edges) -> "Graph":
        return Graph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    def to_graph(self) -> "Graph":
        return self

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_masks(self) -> list[int]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


@dataclasses.dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph (A, B, E) stored as the neighbourhood list of B.

    `adj[j]` is N(b_j) as a set of A indices.  In the flattened vertex
    numbering A occupies 0..a_size-1 and b_j is vertex a_size+j.
    """

    a_size: int
    b_size: int
    adj: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.a_size < 0 or self.b_size < 0:
            raise ValueError("negative side size")
        if len(self.adj) != self.b_size:
            raise ValueError("adjacency length does not match b_size")
        for nb in self.adj:
            for a in nb:
                if not (0 <= a < self.a_size):
                    raise ValueError(f"A-neighbour {a} out of range")

    @property
    def n(self) -> int:
        return self.a_size + self.b_size

    def to_graph(self) -> Graph:
        edges = set()
        for j, nb in enumerate(self.adj):
            b = self.a_size + j
            for a in nb:
                edges.add((a, b))
        return Graph(self.n, frozenset(edges))


# ---------------------------------------------------------------------------
# file format


def vertex_token(g, v: int) -> str:
    if isinstance(g, BipartiteGraph):
        if v < g.a_size:
            return f"a{v + 1}"
        return f"b{v - g.a_size + 1}"
    return str(v + 1)


def _ascii_decimal(tok) -> bool:
    """tok is a string of ASCII digits only (int() also takes signs, `_` and other digits)."""
    return isinstance(tok, str) and tok.isascii() and tok.isdecimal()


def ascii_int(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits; ValueError for anything else."""
    if not _ascii_decimal(text.removeprefix("-")):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def _numbered(tok, prefix: str) -> int | None:
    """i when tok is prefix + str(i), the only form the writers print: ASCII
    digits with no leading zero.  None for anything else."""
    if isinstance(tok, str) and tok.startswith(prefix):
        digits = tok[len(prefix):]
        if digits.isascii() and digits.isdecimal() and (digits[0] != "0" or digits == "0"):
            return int(digits)
    return None


def _vertex(tok, sides: dict) -> int:
    """The vertex tok names; sides maps each token prefix ("" for a general
    graph) to the first vertex and the size of its side.  GraphFormatError
    "token" for a token of no side's form, "range" for 0 or past the end."""
    prefix = "" if "" in sides or not isinstance(tok, str) else tok[:1]
    side = sides.get(prefix)
    i = None if side is None else _numbered(tok, prefix)
    if i is None:
        raise GraphFormatError("token", f"bad vertex token {tok!r}")
    first, size = side
    if not 0 < i <= size:
        raise GraphFormatError("range", f"vertex {tok} out of range")
    return first + i - 1


def parse_vertex_token(g, tok) -> int:
    """Inverse of vertex_token.  Raises GraphFormatError for a token of the
    wrong kind (foreign side letter, non-digit, leading zero, non-string) or
    one naming no vertex of g (0 or past the end)."""
    if isinstance(g, BipartiteGraph):
        return _vertex(tok, {"a": (0, g.a_size), "b": (g.a_size, g.b_size)})
    return _vertex(tok, {"": (0, g.n)})


def _lines(text: str) -> list[str]:
    """The stripped lines of text, without blank and ``#`` comment lines."""
    return [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]


def _str_list(x) -> bool:
    """x is a JSON list of strings."""
    return isinstance(x, list) and all(isinstance(t, str) for t in x)


def _str_lists(x, length: int | None = None) -> bool:
    """x is a JSON list of string lists, each of the given length when one is given."""
    return (isinstance(x, list) and all(isinstance(e, list) and length in (None, len(e)) for e in x)
            and _str_list([t for e in x for t in e]))


def parse_graph(text: str | bytes):
    """Parse the graph file format; returns Graph or BipartiteGraph.

    Format: header line ``bipartite <|A|> <|B|>`` or ``graph <n>``, then one
    ``e <u> <v>`` line per edge.  ``#`` starts a comment line.
    """
    lines = _lines(text.decode("utf-8") if isinstance(text, bytes) else text)
    if not lines:
        raise GraphFormatError("header", "empty file")
    head = lines[0].split()
    if head[0] == "bipartite" and len(head) == 3 and _ascii_decimal(head[1]) and _ascii_decimal(head[2]):
        a_size, b_size = int(head[1]), int(head[2])
        sides, nbrs = {"a": (0, a_size), "b": (a_size, b_size)}, [set() for _ in range(b_size)]
    elif head[0] == "graph" and len(head) == 2 and _ascii_decimal(head[1]):
        n = int(head[1])
        sides, nbrs = {"": (0, n)}, None
    else:
        what = "malformed" if head[0] in ("bipartite", "graph") else "unknown"
        raise GraphFormatError("header", f"{what} header {lines[0]!r}")
    edges = set()
    index = {}  # token -> vertex: each token is read once, though a vertex ends several edges
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise GraphFormatError("edge-format", f"bad edge line {line!r}")
        _, x, y = parts
        u = index[x] if x in index else index.setdefault(x, _vertex(x, sides))
        v = index[y] if y in index else index.setdefault(y, _vertex(y, sides))
        if u > v:
            u, v = v, u
        if nbrs is not None:
            if not u < a_size <= v:
                raise GraphFormatError("non-crossing", f"edge {line!r} is not A-B")
            nbrs[v - a_size].add(u)
        elif u == v:
            raise GraphFormatError("edge-format", f"loop in {line!r}")
        e = (u, v)
        if e in edges:
            raise GraphFormatError("duplicate", f"duplicate edge {line!r}")
        edges.add(e)
    if nbrs is None:
        return Graph(n, frozenset(edges))
    return BipartiteGraph(a_size, b_size, tuple(map(frozenset, nbrs)))


def serialize_graph(g) -> str:
    """Canonical text form; parse(serialize(g)) == g and edges sorted."""
    out = []
    if isinstance(g, BipartiteGraph):
        out.append(f"bipartite {g.a_size} {g.b_size}")
        pairs = sorted((a, j) for j, nb in enumerate(g.adj) for a in nb)
        for a, j in pairs:
            out.append(f"e a{a + 1} b{j + 1}")
    else:
        out.append(f"graph {g.n}")
        for u, v in sorted(g.edges):
            out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# tree walk


def preorder(adj, root: int):
    """DFS preorder of the root's tree (component) under adj, and each node's
    parent (root: -1).  Each subtree is a contiguous block; no recursion.
    Neighbours are pushed in adj's iteration order, so children listed in
    ascending order are visited in descending order and the reversed
    preorder is the postorder with children ascending."""
    order = []
    parent = {root: -1}
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    return order, parent

