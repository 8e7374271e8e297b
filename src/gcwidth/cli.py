"""Batch command-line surface.

Exit codes: 0 = yes / success, 1 = recognized no (no witness, bound failed),
2 = input, format, or guard error.  Every command runs through one skeleton,
``_run``: it reads the input file once, runs the command body, writes each
artifact as ``<input stem><suffix>`` in the output directory and appends a
JSON run report, carrying the input's SHA-256 digest, to ``runs.jsonl``
there.  A run that ends in exit 2, or in exit 1 because no witness exists,
writes no report.  ``decompose`` and ``thin`` recognize the support when no
``--witness`` is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import families, thinness
from .decomp import (
    construction_bound,
    decompose_circular,
    decompose_convex,
    decompose_spider,
    decompose_tdelta,
    decomposition_from_json,
    decomposition_to_json,
    max_induced_matching_cut,
    mimw_oracle,
    pthin_bound,
    simw_oracle,
    thin_bound,
    validate_decomposition,
    width_of,
)
from .graphs import (
    BipartiteGraph,
    ascii_int,
    parse_graph,
    parse_vertex_token,
    serialize_graph,
    vertex_token,
)
from .supports import (
    recognize_circular,
    recognize_convex,
    recognize_star,
    recognize_tdelta,
    verify_support,
    witness_from_json,
    witness_to_json,
)


class _NoWitness(Exception):
    """No support witness was found: exit 1 without a run report."""


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _emit(report: dict, out: Path, fmt: str) -> None:
    with (out / "runs.jsonl").open("a") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        bits = ["[ok]" if report["pass"] else "[FAIL]"]
        bits += [f"{k}={v}" for k, v in report["measured"].items()]
        bits += [f"bound:{k}={v}" for k, v in report["bounds"].items()]
        print(" ".join(bits))


def _cut_json(report, g):
    if report is None:
        return None
    return {
        "edge": list(report.edge),
        "side": [vertex_token(g, v) for v in report.side],
        "value": report.value,
    }


_RECOGNIZERS = {
    "convex": lambda args, g: recognize_convex(g),
    "circular": lambda args, g: recognize_circular(g),
    "star": lambda args, g: recognize_star(g),
    "spider": lambda args, g: recognize_tdelta(g, 1, args.delta),
    "tdelta": lambda args, g: recognize_tdelta(g, args.t, args.delta),
}

_DECOMPOSERS = {
    "convex": decompose_convex,
    "circular": decompose_circular,
    "spider": decompose_spider,
    "tdelta": decompose_tdelta,
}


def _support(args, g, cls: str, missing: str):
    """The support in the --witness file, else the recognized one."""
    if args.witness:
        return witness_from_json(_load_json(args.witness))
    w = _RECOGNIZERS[cls](args, g)
    if w is None:
        raise _NoWitness(missing)
    return w


# Command bodies: each takes the parsed args, the loaded input graph (None
# for gen) and the artifact writer of _run, and returns (outputs, measured,
# bounds, passed).


def cmd_recognize(args, g, write):
    w = _RECOGNIZERS[args.cls](args, g)
    outputs = {}
    if w is not None:
        if not verify_support(g, w):
            raise AssertionError("recognizer emitted an invalid witness")
        outputs["witness"] = write(".witness.json", witness_to_json(w))
    return outputs, {"recognized": w is not None, "class": args.cls}, {}, w is not None


def cmd_decompose(args, g, write):
    w = _support(args, g, args.cls, ("not convex" if args.cls == "convex" else f"not {args.cls} convex") + ": no witness")
    d = _DECOMPOSERS[args.cls](g, w)
    bound = construction_bound(args.cls, w)
    measured, worst = width_of(g, d, "mim")
    outputs = {"decomposition": write(".decomposition.json", decomposition_to_json(d, g))}
    return (
        outputs,
        {"width": measured, "worst_cut": _cut_json(worst, g)},
        {"width": bound},
        measured <= bound,
    )


def cmd_width(args, g, write):
    d = decomposition_from_json(_load_json(args.decomposition), g)
    measured, worst = width_of(g, d, args.mode)
    return {}, {"width": measured, "mode": args.mode, "worst_cut": _cut_json(worst, g)}, {}, True


def cmd_oracle(args, g, write):
    known = ("mimw", "simw", "thin", "pthin", "mim-cut")
    params = list(dict.fromkeys(p.strip() for p in args.param.split(",") if p.strip()))  # each once, in order
    if not params:
        raise ValueError(f"nothing to compute: pass --param {','.join(known)}")
    if bool(args.side) != ("mim-cut" in params):
        raise ValueError(f"--side applies to mim-cut, got --param {args.param}" if args.side else "mim-cut needs --side")
    for param in params:
        if param not in known:
            raise ValueError(f"unknown oracle parameter {param!r}")
    guard = {} if args.guard is None else {"guard": args.guard}
    measured = {}
    outputs = {}
    for param in params:
        if param == "mimw":
            value, witness = mimw_oracle(g, **guard)
            measured["mimw"] = value
            outputs["mimw_decomposition"] = write(".mimw.json", decomposition_to_json(witness, g))
        elif param == "simw":
            value, _ = simw_oracle(g, **guard)
            measured["simw"] = value
        elif param == "thin":
            measured["thin"] = thinness.thin_oracle(g, **guard)
        elif param == "pthin":
            measured["pthin"] = thinness.pthin_oracle(g, **guard)
        else:  # mim-cut
            side = [parse_vertex_token(g, tok.strip()) for tok in args.side.split(",")]
            value, _ = max_induced_matching_cut(g.to_graph(), side)
            measured["mim-cut"] = value
    # simw <= mimw and thin <= pthin wherever both sides were measured
    ordered = (("simw", "mimw"), ("thin", "pthin"))
    return outputs, measured, {}, all(measured[lo] <= measured[hi] for lo, hi in ordered if {lo, hi} <= measured.keys())


def cmd_thin(args, g, write):
    w = _support(args, g, "tdelta", "no tree support within the given (t, delta)")
    rep = thinness.thin_from_tree_support(g, w)
    gg = g.to_graph()
    bound = thin_bound(len(w.branching), w.max_degree)
    d = thinness.linear_bd_from_thin(gg, rep)
    lw, _ = width_of(gg, d, "mim")
    outputs = {"representation": write(".thin.json", thinness.representation_to_json(rep, g))}
    k = rep.class_count()
    return (
        outputs,
        {"classes": k, "linear_mim_width": lw},
        {"classes": bound, "linear_mim_width": k},
        k <= bound and lw <= k,
    )


def cmd_convert(args, g, write):
    gg = g.to_graph()
    pd = thinness.parse_pathdecomp(Path(args.pathdecomp).read_text(), g)
    rep = thinness.pathdecomp_to_pthin(gg, pd)
    if not thinness.verify_strongly_consistent(gg, rep):
        raise AssertionError("conversion emitted a non-strong representation")
    q = pd.width()
    bound = pthin_bound(q)
    outputs = {"representation": write(".pthin.json", thinness.representation_to_json(rep, g))}
    k = rep.class_count()
    return outputs, {"classes": k, "pathwidth": q}, {"classes": bound}, k <= bound


def cmd_gen(args, _, write):
    spec = families.parse_genspec(args.spec)
    if args.seed is not None and spec.seed == 0:
        spec = families.GenSpec(spec.family, spec.params, args.seed)
    name, g, w = families.run_genspec(spec, lambda path: parse_graph(Path(path).read_text()))
    outputs = {"graph": write(".graph", serialize_graph(g), stem=name)}
    if w is not None:
        outputs["witness"] = write(".witness.json", witness_to_json(w), stem=name)
    return outputs, {"vertices": g.n, "family": spec.family}, {}, True


def cmd_verify(args, g, write):
    given = [f"--{name}" for name in ("witness", "decomposition", "representation", "pathdecomp") if getattr(args, name)]
    if not given:
        raise ValueError("nothing to verify: pass --witness/--decomposition/--representation/--pathdecomp")
    if len(given) > 1:
        raise ValueError(f"verify checks one artifact per run, got {' and '.join(given)}")
    if args.strong and not args.representation:
        raise ValueError(f"--strong applies to --representation, got {given[0]}")
    gg = g.to_graph()
    measured = {}
    ok = True
    if args.witness:
        if not isinstance(g, BipartiteGraph):
            raise ValueError("witness verification needs a bipartite input")
        ok = verify_support(g, witness_from_json(_load_json(args.witness)))
        measured["witness_valid"] = ok
    elif args.decomposition:
        d = decomposition_from_json(_load_json(args.decomposition), g)
        try:
            validate_decomposition(gg, d)
            measured["decomposition_valid"] = True
        except ValueError as exc:
            measured["decomposition_valid"] = False
            measured["reason"] = str(exc)
            ok = False
    elif args.representation:
        rep = thinness.representation_from_json(_load_json(args.representation), g)
        strong = args.strong or rep.strong
        ok = (thinness.verify_strongly_consistent if strong else thinness.verify_consistent)(gg, rep)
        measured["consistent"] = ok
        measured["strong"] = strong
    else:
        pd = thinness.parse_pathdecomp(Path(args.pathdecomp).read_text(), g)
        ok, width = thinness.verify_pathdecomp(gg, pd)
        measured["pathdecomp_valid"] = ok
        measured["width"] = width
    return {}, measured, {}, ok


def _run(args, command: list[str]) -> int:
    """The one command skeleton: read the input file once (its SHA-256
    digest and its graph come from the same bytes), create --out, run the
    command body with an artifact writer, and append the run report.
    Exit 0 when the report passes, 1 when it fails or no witness exists."""
    start = time.perf_counter()
    g = digest = stem = None
    if hasattr(args, "file"):
        path = Path(args.file)
        if not path.exists():
            raise FileNotFoundError(f"no such file: {args.file}")
        data = path.read_bytes()
        g = parse_graph(data)
        digest = hashlib.sha256(data).hexdigest()
        stem = path.stem
    needs = getattr(args, "needs_bipartite", None)
    if needs and not isinstance(g, BipartiteGraph):
        raise ValueError(f"{needs} needs a bipartite input")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(suffix: str, payload: str | dict, stem: str | None = stem) -> str:
        # the artifact <stem><suffix> in --out: text as given, a dict as indented JSON
        target = out / f"{stem}{suffix}"
        if not isinstance(payload, str):
            payload = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        target.write_text(payload)
        return str(target)

    try:
        outputs, measured, bounds, passed = args.fn(args, g, write)
    except _NoWitness as exc:
        print(exc, file=sys.stderr)
        return 1
    report = {
        "command": command,
        "input_digest": digest,
        "outputs": outputs,
        "measured": measured,
        "bounds": bounds,
        "pass": passed,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    _emit(report, out, args.format)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gcwidth",
        description="widths of generalized convex bipartite graphs: recognize, decompose, measure, certify",
    )
    ap.add_argument("--seed", type=ascii_int, default=None, help="seed for generation (default 0)")
    ap.add_argument("--guard", type=ascii_int, default=None, help="override oracle size guards")
    ap.add_argument("--out", default=".", help="output directory for artifacts and runs.jsonl")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)
    tdelta = argparse.ArgumentParser(add_help=False)
    tdelta.add_argument("--t", type=ascii_int, default=1)
    tdelta.add_argument("--delta", type=ascii_int, default=3)

    p = sub.add_parser("recognize", parents=[tdelta], help="recognize a support class and emit a witness")
    p.add_argument("--class", dest="cls", required=True, choices=("convex", "circular", "star", "tdelta"))
    p.add_argument("file")
    p.set_defaults(fn=cmd_recognize, needs_bipartite="recognition")

    p = sub.add_parser("decompose", parents=[tdelta], help="build a width-bounded branch decomposition")
    p.add_argument("--class", dest="cls", required=True, choices=("convex", "circular", "spider", "tdelta"))
    p.add_argument("--witness", help="support witness JSON (recognized when omitted)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decompose, needs_bipartite="decomposition")

    p = sub.add_parser("width", help="measure the width of a decomposition")
    p.add_argument("--decomposition", required=True)
    p.add_argument("--mode", choices=("mim", "sim"), default="mim")
    p.add_argument("file")
    p.set_defaults(fn=cmd_width)

    p = sub.add_parser("oracle", help="exact small-instance width/thinness values")
    p.add_argument("--param", required=True, help="comma list of mimw,simw,thin,pthin,mim-cut")
    p.add_argument("--side", help="comma list of vertex tokens for mim-cut")
    p.add_argument("file")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("thin", parents=[tdelta], help="thinness representation from a tree support")
    p.add_argument("--witness")
    p.add_argument("file")
    p.set_defaults(fn=cmd_thin, needs_bipartite="the thinness construction")

    p = sub.add_parser("convert", help="path decomposition to proper-thin representation")
    p.add_argument("--pathdecomp", required=True)
    p.add_argument("file")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("gen", help="generate an instance family")
    p.add_argument("spec", help="family:key=val,...[:seed=s]")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="verify a witness/decomposition/representation")
    p.add_argument("--witness")
    p.add_argument("--decomposition")
    p.add_argument("--representation")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--pathdecomp")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _run(args, sys.argv[1:] if argv is None else list(argv))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
