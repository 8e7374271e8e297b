"""The benchmark's workloads: seeded instances, CLI calls and output checks.

Every instance is generated from the benchmark seed during set-up, through
``gcwidth.families`` where a family exists, and written to a file; the
program only ever sees those files.  The seed changes the random instances,
never the call mix or the size ladder.  Each workload is chosen to load a
different layer of the package; ``WHY`` records which.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Callable

WHY = {
    "certify_large": "few big decompose/thin/width calls: re-measuring the certificate (decomp.width_of) is most of the time",
    "sweep_small": "hundreds of small mixed CLI calls: argparse, parsing, digests, JSON codecs and artifact writes per call",
    "recognize_ladder": "support recognition only: exact tree-support search on planted, grid and star inputs",
    "oracle_exact": "exhaustive mimw/simw/thin/pthin oracles on fixed graphs of 4 to 12 vertices, values frozen",
}

# Workloads run by the report (``run.py --report``) but not by the timed
# benchmark: their calls include ones the exact recognition search fails on
# (time limit, recursion depth), kept apart so the timed workloads have none.
PROBES = {
    "recognize_limits": "planted rungs |A|=30..60 and the |A|=1500 chain: where exact recognition starts to fail",
}


@dataclasses.dataclass
class Call:
    """One CLI invocation and what a correct answer looks like.

    ``check(report, ctx)`` returns None when the output is right, or a
    message saying what is wrong; ``report`` is the parsed JSON run report.
    """

    label: str
    argv: list[str]
    expect_rc: int = 0
    check: Callable | None = None
    limit_s: float | None = None


@dataclasses.dataclass
class Plan:
    calls: list[Call]
    digests: dict[str, str]


class _Files:
    """Writes instance files and records the SHA-256 of each."""

    def __init__(self, root: Path):
        self.root = root
        self.digests: dict[str, str] = {}
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        data = text.encode()
        path = self.root / name
        path.write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()
        return str(path)


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**31)


def _planted(gc, files: _Files, stem: str, kind: str, a: int, b: int, seed: int,
             t: int = 1, delta: int = 3):
    """Random host-convex instance with its planted witness, both written."""
    spec = gc.families.GenSpec(
        "random_hconvex", {"kind": kind, "a": a, "b": b, "t": t, "delta": delta}, seed
    )
    _, g, w = gc.families.run_genspec(spec)
    graph = files.write(f"{stem}.graph", gc.graphs.serialize_graph(g))
    witness = files.write(
        f"{stem}.planted.json", json.dumps(gc.supports.witness_to_json(w), sort_keys=True)
    )
    return g, w, graph, witness


def _fixed(gc, files: _Files, spec_text: str):
    """Named family instance (crown, grid, gk) written under its own name."""
    name, g, _ = gc.families.run_genspec(gc.families.parse_genspec(spec_text))
    return g, files.write(f"{name}.graph", gc.graphs.serialize_graph(g))


# ---------------------------------------------------------------------------
# checks


def check_width(limit: int):
    """Width within the class bound, and at least 1: every instance has an
    edge, and the leaf edge of its endpoint already cuts it."""

    def check(report, ctx):
        value = report["measured"].get("width")
        if not (isinstance(value, int) and 1 <= value <= limit):
            return f"width {value!r} outside [1, {limit}]"
        return None

    return check


def check_recognized(report, ctx):
    return None if report["measured"].get("recognized") is True else "not recognized"


def check_emitted_witness(stem: str, graph: str):
    """The recognizer's witness must pass ``verify --witness`` (exit 0)."""

    def check(report, ctx):
        if check_recognized(report, ctx):
            return "not recognized"
        rc = ctx.cli(["verify", "--witness", str(ctx.out / f"{stem}.witness.json"), graph])
        return None if rc == 0 else f"verify --witness on the emitted witness exited {rc}"

    return check


def check_measured(expected: dict):
    def check(report, ctx):
        got = {k: report["measured"].get(k) for k in expected}
        return None if got == expected else f"measured {got}, expected {expected}"

    return check


# ---------------------------------------------------------------------------
# workloads


def certify_large(gc, seed: int, inputs: Path, out: Path) -> Plan:
    """Certificate construction plus re-measurement, n = 300 to 800.  Most
    calls sit at n = 600 so that the median call is one of several alike."""
    files = _Files(inputs)
    seeds = _seeds("certify_large", seed)
    calls = []
    for kind, a, cls in (("path", 150, "convex"), ("path", 300, "convex"), ("cycle", 300, "circular")):
        stem = f"{kind}_n{2 * a}"
        _, _, graph, witness = _planted(gc, files, stem, kind, a, a, next(seeds))
        calls.append(Call(f"decompose {cls} n={2 * a}",
                          ["decompose", "--class", cls, "--witness", witness, graph],
                          check=check_width(1 if cls == "convex" else 2)))
    # the circular decomposition just written, re-measured in sim mode
    calls.append(Call(f"width sim n={2 * a}",
                      ["width", "--mode", "sim", "--decomposition",
                       str(out / f"{stem}.decomposition.json"), graph],
                      check=check_width(2)))
    for t, delta, a in ((2, 4, 300), (4, 4, 300), (4, 4, 400)):
        stem = f"tree{t}_{delta}_n{2 * a}"
        _, _, graph, witness = _planted(gc, files, stem, "tree", a, a, next(seeds), t, delta)
        calls.append(Call(f"decompose tdelta({t},{delta}) n={2 * a}",
                          ["decompose", "--class", "tdelta", "--witness", witness, graph]))
        if t == 2:
            calls.append(Call(f"thin ({t},{delta}) n={2 * a}",
                              ["thin", "--witness", witness, graph]))
    return Plan(calls, files.digests)


def _sweep_sizes(i: int) -> tuple[int, int]:
    # the acceptance suite's size rule: 4 <= |A| <= 30, n <= 60
    a = 4 + (i * 5) % 27
    b = min(60 - a, 2 + (i * 7) % 30)
    return a, max(b, 1)


def _vertex_separation_bags(g, order_a):
    """Path decomposition from the planted path order: each b follows its
    greatest A-neighbour, and bag i holds vertex i of that layout plus every
    earlier vertex with a neighbour at or after position i."""
    pos_a = {v: i for i, v in enumerate(order_a)}
    after = {v: [] for v in order_a}
    for j, nb in enumerate(g.adj):
        anchor = max(nb, key=pos_a.__getitem__) if nb else order_a[-1]
        after[anchor].append(g.a_size + j)
    layout = [x for v in order_a for x in (v, *after[v])]
    pos = {v: i for i, v in enumerate(layout)}
    gg = g.to_graph()
    last = {v: pos[v] for v in layout}
    for u, v in gg.edges:
        last[u] = max(last[u], pos[v])
        last[v] = max(last[v], pos[u])
    bags = []
    for i, v in enumerate(layout):
        bags.append(frozenset([v] + [u for u in layout[:i] if last[u] >= i]))
    return bags


def sweep_small(gc, seed: int, inputs: Path, out: Path) -> Plan:
    """Acceptance-shaped instances (n <= 60) through every small command.

    Only the two smallest path instances (|A| = 4 and 7) are recognized:
    exact recognition of larger planted instances takes anything from 1 ms
    to over a second, depending on the seed, which would swamp the per-call
    cost this workload is for (recognize_ladder measures recognition)."""
    files = _Files(inputs)
    seeds = _seeds("sweep_small", seed)
    calls = []
    for i in range(4):
        a, b = _sweep_sizes(3 * i)
        stem = f"path{i}"
        g, w, graph, planted = _planted(gc, files, stem, "path", a, b, next(seeds))
        pd = gc.thinness.PathDecomposition(tuple(_vertex_separation_bags(g, w.path_order())))
        bags = files.write(f"{stem}.bags", gc.thinness.serialize_pathdecomp(pd, g))
        if a <= 7:
            cls = "convex" if i == 0 else "circular"
            calls += [
                Call(f"recognize {cls} {stem}", ["recognize", "--class", cls, graph],
                     check=check_recognized),
                Call(f"verify witness {stem}",
                     ["verify", "--witness", str(out / f"{stem}.witness.json"), graph]),
            ]
        calls += [
            Call(f"decompose convex {stem}",
                 ["decompose", "--class", "convex", "--witness", planted, graph],
                 check=check_width(1)),
            Call(f"width {stem}",
                 ["width", "--decomposition", str(out / f"{stem}.decomposition.json"), graph],
                 check=check_width(1)),
            Call(f"verify decomposition {stem}",
                 ["verify", "--decomposition", str(out / f"{stem}.decomposition.json"), graph]),
            Call(f"convert {stem}", ["convert", "--pathdecomp", bags, graph]),
            Call(f"verify representation {stem}",
                 ["verify", "--strong", "--representation", str(out / f"{stem}.pthin.json"), graph]),
        ]
    for i in range(4):
        a, b = _sweep_sizes(3 * i + 1)
        stem = f"cycle{i}"
        _, _, graph, planted = _planted(gc, files, stem, "cycle", a, b, next(seeds))
        calls += [
            Call(f"verify planted witness {stem}", ["verify", "--witness", planted, graph]),
            Call(f"decompose circular {stem}",
                 ["decompose", "--class", "circular", "--witness", planted, graph],
                 check=check_width(2)),
            Call(f"width sim {stem}",
                 ["width", "--mode", "sim", "--decomposition",
                  str(out / f"{stem}.decomposition.json"), graph],
                 check=check_width(2)),
        ]
    for i, (t, delta) in enumerate(((1, 3), (2, 3), (2, 4), (1, 3))):
        a = max(2 * t + delta + 2, 9 + (i * 3) % 8)
        b = min(60 - a, 4 + (i * 5) % 28)
        stem = f"tree{i}"
        _, _, graph, planted = _planted(gc, files, stem, "tree", a, b, next(seeds), t, delta)
        calls += [
            Call(f"decompose tdelta {stem}",
                 ["decompose", "--class", "tdelta", "--witness", planted, graph]),
            Call(f"thin {stem}", ["thin", "--witness", planted, graph]),
            Call(f"verify representation {stem}",
                 ["verify", "--representation", str(out / f"{stem}.thin.json"), graph]),
            Call(f"width {stem}",
                 ["width", "--decomposition", str(out / f"{stem}.decomposition.json"), graph]),
        ]
    return Plan(calls, files.digests)


def _recognize_planted(gc, files, seeds, kind, a, count):
    cls = "convex" if kind == "path" else "circular"
    calls = []
    for i in range(count):
        stem = f"{kind}_a{a}_{i}"
        _, _, graph, _ = _planted(gc, files, stem, kind, a, a, next(seeds))
        calls.append(Call(f"recognize {cls} |A|={a} #{i}", ["recognize", "--class", cls, graph],
                          check=check_emitted_witness(stem, graph)))
    return calls


def _recognize_grid(gc, files, r: int) -> Call:
    _, graph = _fixed(gc, files, f"grid:r={r},c={r}")
    return Call(f"recognize tdelta(2,4) grid {r}x{r}",
                ["recognize", "--class", "tdelta", "--t", "2", "--delta", "4", graph],
                expect_rc=1, check=check_measured({"recognized": False}))


def recognize_ladder(gc, seed: int, inputs: Path, out: Path) -> Plan:
    """Exact recognition: planted path/cycle rungs, (2,4)-trees on the 5x5
    and 6x6 grids (answer no) and a star augmentation.  The grids are most
    of the time and do not depend on the seed, which keeps the planted
    rungs' seed-dependent outliers from dominating a run."""
    files = _Files(inputs)
    seeds = _seeds("recognize_ladder", seed)
    calls = []
    for a in (16, 20, 24):
        for kind in ("path", "cycle"):
            calls += _recognize_planted(gc, files, seeds, kind, a, 2)
    calls += [_recognize_grid(gc, files, r) for r in (5, 6)]
    _, _, base, _ = _planted(gc, files, "star_base", "tree", 30, 40, next(seeds), 2, 4)
    load = lambda path: gc.graphs.parse_graph(Path(path).read_text())
    _, star, _ = gc.families.run_genspec(
        gc.families.GenSpec("star_augment", {"input": base}), load
    )
    graph = files.write("star_augment.graph", gc.graphs.serialize_graph(star))
    calls.append(Call("recognize star", ["recognize", "--class", "star", graph],
                      check=check_emitted_witness("star_augment", graph)))
    return Plan(calls, files.digests)


def recognize_limits(gc, seed: int, inputs: Path, out: Path) -> Plan:
    """Planted rungs |A| = 30 to 60, where the exact search starts to pass
    the time limit on some seeds, and the |A| = 1500 chain
    N(b_i) = {a_i, a_(i+1)}, deeper than the search's recursion can go."""
    files = _Files(inputs)
    seeds = _seeds("recognize_limits", seed)
    calls = []
    for a in (30, 40, 50, 60):
        for kind in ("path", "cycle"):
            calls += _recognize_planted(gc, files, seeds, kind, a, 6)
    n = 1500
    chain = gc.graphs.BipartiteGraph(
        n, n - 1, tuple(frozenset({i, i + 1}) for i in range(n - 1))
    )
    graph = files.write("chain_a1500.graph", gc.graphs.serialize_graph(chain))
    calls.append(Call("recognize convex chain |A|=1500", ["recognize", "--class", "convex", graph],
                      check=check_emitted_witness("chain_a1500", graph), limit_s=60.0))
    return Plan(calls, files.digests)


# Frozen oracle values.  Each was computed by the seed code and cross-checked
# against tests/oracles.py (brute_thinness on gk(2) and the 3x3 grid) and
# against known values: pthin(gk(k)) = k; thin(crown(n)) non-decreasing in n
# (acceptance criterion 7); simw <= mimw <= the width of a constructed
# decomposition (decompose_circular for the crowns, the identity caterpillar
# for the 3x3 grid), which is 2 on all three.
REFERENCES = {
    "grid_3x3": {"mimw": 2, "simw": 2, "pthin": 3},
    "crown_n4": {"mimw": 2, "simw": 2},
    "crown_n5": {"mimw": 2, "simw": 2, "thin": 4, "pthin": 5},
    "crown_n6": {"thin": 5},
    "grid_3x4": {"thin": 2, "pthin": 3},
    "gk_k2": {"thin": 1, "pthin": 2},
}

ORACLE_CALLS = (
    ("grid:r=3,c=3", ("mimw,simw", "pthin")),
    ("crown:n=4", ("mimw,simw",)),
    ("crown:n=5", ("mimw,simw", "thin", "pthin")),
    ("crown:n=6", ("thin",)),
    ("grid:r=3,c=4", ("thin", "pthin")),
    ("gk:k=2", ("thin", "pthin")),
)


def oracle_exact(gc, seed: int, inputs: Path, out: Path) -> Plan:
    """Exact oracles on fixed family members, each value checked against
    its frozen reference.  The seed changes nothing here: on random graphs
    these exhaustive searches cost anything from milliseconds to seconds,
    and a few such calls would decide which call is the median."""
    files = _Files(inputs)
    calls = []
    for spec, params in ORACLE_CALLS:
        _, graph = _fixed(gc, files, spec)
        name = Path(graph).stem
        for param in params:
            expected = {p: REFERENCES[name][p] for p in param.split(",")}
            calls.append(Call(f"oracle {param} {name}",
                              ["--guard", "12", "oracle", "--param", param, graph],
                              check=check_measured(expected)))
    return Plan(calls, files.digests)


WORKLOADS = {
    "certify_large": certify_large,
    "sweep_small": sweep_small,
    "recognize_ladder": recognize_ladder,
    "oracle_exact": oracle_exact,
    "recognize_limits": recognize_limits,
}

# per-call time limit (seconds) unless a call sets its own
LIMITS = {
    "certify_large": 60.0,
    "sweep_small": 10.0,
    "recognize_ladder": 10.0,
    "oracle_exact": 30.0,
    "recognize_limits": 5.0,
}
