"""Spans around the public functions of each gcwidth module, from outside.

The tracer replaces module attributes with timing wrappers: in the module
that defines a function and in every gcwidth module that imported it by
name (``gcwidth.cli.width_of`` as well as ``gcwidth.decomp.width_of``), so
calls made inside the package are seen too.  Spans stay in memory as
``[id, parent, request, name, start, end, error]`` lists and are written
out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

# layer -> public functions wrapped in that layer (dotted names reach into
# classes, e.g. BipartiteGraph.to_graph)
TARGETS = {
    "cli": ("main",),
    "graphs": ("parse_graph", "serialize_graph", "BipartiteGraph.to_graph"),
    "families": ("run_genspec",),
    "supports": (
        "verify_support",
        "recognize_convex",
        "recognize_circular",
        "recognize_star",
        "recognize_tdelta",
        "tree_support_degree_bounded",
        "witness_from_json",
        "witness_to_json",
    ),
    "decomp": (
        "decompose_convex",
        "decompose_circular",
        "decompose_tdelta",
        "width_of",
        "validate_decomposition",
        "decomposition_to_json",
        "decomposition_from_json",
        "mimw_oracle",
        "simw_oracle",
    ),
    "thinness": (
        "thin_from_tree_support",
        "verify_consistent",
        "verify_strongly_consistent",
        "linear_bd_from_thin",
        "thin_oracle",
        "pthin_oracle",
        "parse_pathdecomp",
        "verify_pathdecomp",
        "pathdecomp_to_pthin",
        "representation_to_json",
        "representation_from_json",
    ),
}

DERIVED = (
    ("decomp.width_of.cuts", "count", "lower"),
    ("decomp.width_of.s_per_cut", "s", "lower"),
    ("supports.tree_support_degree_bounded.found_ratio", "ratio", "higher"),
    ("trace_overhead_s", "s", "lower"),
)

# span record fields
ID, PARENT, REQUEST, NAME, START, END, ERROR = range(7)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = []
    for layer, funcs in TARGETS.items():
        for fn in funcs:
            specs.append((f"{layer}.{fn}.calls", "count", "lower"))
            specs.append((f"{layer}.{fn}.self_s", "s", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
        specs.append((f"{layer}.share", "ratio", "lower"))
        specs.append((f"{layer}.errors", "count", "lower"))
    specs.extend(DERIVED)
    return specs


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of that
    interval which its child spans cover (overlapping children count once).
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            lo, hi = max(c[START], s[START]), min(c[END], s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


class Tracer:
    """Installs span-recording wrappers; ``active`` switches recording off
    (for output checks) without uninstalling."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self.request = None
        self.cuts = 0
        self.found = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every TARGETS function in the loaded ``gcwidth`` modules;
        a no-op while installed."""
        if self._patched:
            return
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "gcwidth" or name.startswith("gcwidth.")
        }
        for layer, funcs in TARGETS.items():
            home = modules[f"gcwidth.{layer}"]
            for dotted in funcs:
                owner = home
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(original, f"{layer}.{dotted}")
                self._set(owner, attr, original, wrapper)
                if path:
                    continue  # methods are reached through their class
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not home:
                            self._set(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name):
        tracer = self
        spans, stack, ids = self.spans, self._stack, self._ids
        counts_cuts = name == "decomp.width_of"
        counts_found = name == "supports.tree_support_degree_bounded"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [next(ids), stack[-1] if stack else None, tracer.request, name,
                    time.perf_counter(), None, False]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counts_cuts:
                tracer.cuts += len(args[1].tree.edges)
            if counts_found and result is not None:
                tracer.found += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "request", "name", "start", "end", "error"]
        with path.open("w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
            fh.write("\n")


def layer_metrics(setup_spans, call_spans, passes: float, wall_s: float, cuts: int,
                  found: int, overhead_s: float) -> dict[str, float]:
    """Per-layer figures for one traced unit: one set-up plus one pass.

    Set-up spans count once; call spans, and the ``cuts`` and ``found``
    counters gathered with them, are divided by ``passes``.  ``wall_s`` is
    the wall time of one unit and the denominator of each layer's share.
    """
    calls: dict[str, float] = {}
    fn_self: dict[str, float] = {}
    errors: dict[str, float] = {}
    width_total = 0.0
    tsdb_calls = 0
    for spans, weight in ((setup_spans, 1.0), (call_spans, 1.0 / passes)):
        selfs = self_times(spans)
        for s in spans:
            name = s[NAME]
            calls[name] = calls.get(name, 0.0) + weight
            fn_self[name] = fn_self.get(name, 0.0) + selfs[s[ID]] * weight
            if s[ERROR]:
                layer = name.split(".", 1)[0]
                errors[layer] = errors.get(layer, 0.0) + weight
            if spans is call_spans and name == "decomp.width_of":
                width_total += s[END] - s[START]
            elif spans is call_spans and name == "supports.tree_support_degree_bounded":
                tsdb_calls += 1
    out: dict[str, float] = {}
    for layer, funcs in TARGETS.items():
        layer_self = 0.0
        for fn in funcs:
            key = f"{layer}.{fn}"
            out[f"{key}.calls"] = calls.get(key, 0.0)
            out[f"{key}.self_s"] = fn_self.get(key, 0.0)
            layer_self += fn_self.get(key, 0.0)
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.share"] = layer_self / wall_s
        out[f"{layer}.errors"] = errors.get(layer, 0.0)
    out["decomp.width_of.cuts"] = cuts / passes
    out["decomp.width_of.s_per_cut"] = width_total / cuts if cuts else 0.0
    out["supports.tree_support_degree_bounded.found_ratio"] = (
        found / tsdb_calls if tsdb_calls else 0.0
    )
    out["trace_overhead_s"] = overhead_s
    return out
