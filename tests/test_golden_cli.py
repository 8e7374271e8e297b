"""Golden CLI manifest: a fixed script of in-process ``main(argv)`` calls whose
exit codes, stderr/stdout, run reports (timings and argv echo aside) and
artifact digests must match ``golden_cli_manifest.json`` exactly.

Regenerate the manifest only for a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from gcwidth.cli import main

MANIFEST = Path(__file__).with_name("golden_cli_manifest.json")

# hand-written inputs, placed in {in}
INPUTS = {
    "p4.graph": "graph 4\ne 1 2\ne 2 3\ne 3 4\n",
    "p4.bags": "bag 1 2\nbag 2 3\nbag 3 4\n",
    "gk2.bags": "bag a1 b1\nbag a2 b1\nbag a3 b1\n",
    "bad_header.graph": "bipartite 2\ne a1 b1\n",
}

PATH = "{out}/hconvex_path_a8_b9_s1"
CYCLE = "{out}/hconvex_cycle_a8_b10_s3"
TREE1 = "{out}/hconvex_tree1_3_a10_b10_s2"
TREE2 = "{out}/hconvex_tree2_3_a12_b12_s4"
CROWN = "{out}/crown_n5"
GK2 = "{out}/gk_k2.graph"

SCRIPT = [
    # gen
    ["gen", "crown:n=5"],
    ["gen", "grid:r=3,c=3"],
    ["gen", "gk:k=2"],
    ["gen", "star_augment:input={out}/grid_3x3.graph"],
    ["gen", "comb_augment:input={out}/grid_3x3.graph"],
    ["gen", "random_hconvex:kind=path,a=8,b=9:seed=1"],
    ["gen", "random_hconvex:kind=cycle,a=8,b=10:seed=3"],
    ["--seed", "2", "gen", "random_hconvex:kind=tree,a=10,b=10,t=1,delta=3"],
    ["gen", "random_hconvex:kind=tree,a=12,b=12,t=2,delta=3:seed=4"],
    # recognize: every class, yes and no
    ["recognize", "--class", "convex", PATH + ".graph"],
    ["recognize", "--class", "convex", CROWN + ".graph"],
    ["recognize", "--class", "circular", CROWN + ".graph"],
    ["recognize", "--class", "circular", "{out}/grid_3x3.graph"],
    ["recognize", "--class", "star", "{out}/star_augment.graph"],
    ["recognize", "--class", "star", CROWN + ".graph"],
    ["recognize", "--class", "tdelta", "--t", "1", "--delta", "3", TREE1 + ".graph"],
    ["recognize", "--class", "tdelta", "--t", "0", "--delta", "2", CROWN + ".graph"],
    # decompose: every class, with and without --witness
    ["decompose", "--class", "convex", "--witness", PATH + ".witness.json", PATH + ".graph"],
    ["decompose", "--class", "convex", PATH + ".graph"],
    ["decompose", "--class", "convex", CROWN + ".graph"],
    ["decompose", "--class", "circular", "--witness", CYCLE + ".witness.json", CYCLE + ".graph"],
    ["decompose", "--class", "circular", CROWN + ".graph"],
    ["decompose", "--class", "spider", "--witness", TREE1 + ".witness.json", TREE1 + ".graph"],
    ["decompose", "--class", "spider", TREE1 + ".graph"],
    ["decompose", "--class", "tdelta", "--witness", TREE2 + ".witness.json", TREE2 + ".graph"],
    ["decompose", "--class", "tdelta", "--t", "1", "--delta", "3", TREE1 + ".graph"],
    ["decompose", "--class", "spider", "--witness", PATH + ".witness.json", PATH + ".graph"],
    ["decompose", "--class", "tdelta", "--witness", PATH + ".witness.json", PATH + ".graph"],
    # width
    ["width", "--decomposition", CROWN + ".decomposition.json", "--mode", "mim", CROWN + ".graph"],
    ["width", "--decomposition", CROWN + ".decomposition.json", "--mode", "sim", CROWN + ".graph"],
    # oracle
    ["oracle", "--param", "mimw,simw,thin,pthin,mim-cut", "--side", "a1,b1", GK2],
    ["oracle", "--param", "mim-cut", "--side", "1,2", "{in}/p4.graph"],
    ["oracle", "--param", "thin,pthin", "{out}/grid_3x3.graph"],
    # thin and convert
    ["thin", "--witness", TREE1 + ".witness.json", TREE1 + ".graph"],
    ["thin", "--t", "2", "--delta", "3", TREE2 + ".graph"],
    ["convert", "--pathdecomp", "{in}/p4.bags", "{in}/p4.graph"],
    ["convert", "--pathdecomp", "{in}/gk2.bags", GK2],
    # verify: every kind, plus --strong
    ["verify", "--witness", "{out}/comb_augment.witness.json", "{out}/comb_augment.graph"],
    ["verify", "--decomposition", TREE2 + ".decomposition.json", TREE2 + ".graph"],
    ["verify", "--representation", TREE1 + ".thin.json", TREE1 + ".graph"],
    ["verify", "--representation", "{out}/p4.pthin.json", "--strong", "{in}/p4.graph"],
    ["verify", "--representation", TREE1 + ".thin.json", "--strong", TREE1 + ".graph"],
    ["verify", "--pathdecomp", "{in}/p4.bags", "{in}/p4.graph"],
    # output formats
    ["--format", "text", "oracle", "--param", "simw,mimw", GK2],
    ["--format", "json", "recognize", "--class", "star", "{out}/star_augment.graph"],
    # exit 2: missing file, bad header, guard overflow
    ["recognize", "--class", "convex", "{in}/missing.graph"],
    ["recognize", "--class", "convex", "{in}/bad_header.graph"],
    ["oracle", "--param", "mimw", CROWN + ".graph"],
    ["oracle", "--param", "mim-cut", GK2],
    ["oracle", "--param", "treewidth", GK2],
    ["verify", GK2],
]


def _normalize(text: str, root: str) -> str:
    return text.replace(root, "<tmp>")


def _strip_report(report: dict) -> dict:
    report = {k: v for k, v in report.items() if k not in ("wall_time_s", "command")}
    report["outputs"] = {k: Path(v).name for k, v in report["outputs"].items()}
    return report


def run_script(root: Path) -> list[dict]:
    """Run SCRIPT under `root` and return one manifest entry per call."""
    in_dir, out_dir = root / "in", root / "out"
    in_dir.mkdir(parents=True)
    for name, text in INPUTS.items():
        (in_dir / name).write_text(text)
    runs = out_dir / "runs.jsonl"
    entries = []
    for template in SCRIPT:
        argv = [a.format(out=out_dir, **{"in": in_dir}) for a in template]
        before = len(runs.read_text().splitlines()) if runs.exists() else 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--out", str(out_dir), *argv])
        lines = runs.read_text().splitlines() if runs.exists() else []
        report = _strip_report(json.loads(lines[-1])) if len(lines) > before else None
        artifacts = {}
        if report is not None:
            for name in sorted(report["outputs"].values()):
                artifacts[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        stdout = out.getvalue()
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            stdout = _strip_report(json.loads(stdout))
        else:
            stdout = _normalize(stdout, str(root))
        entries.append(
            {
                "argv": template,
                "exit": code,
                "stderr": _normalize(err.getvalue(), str(root)),
                "stdout": stdout,
                "report": report,
                "artifacts": artifacts,
                "runs_lines": len(lines),
            }
        )
    return entries


def test_golden_cli_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    got = run_script(tmp_path)
    assert [e["argv"] for e in got] == [e["argv"] for e in expected]
    for g, e in zip(got, expected):
        assert g == e, f"golden mismatch for {e['argv']}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = run_script(Path(tmp))
    MANIFEST.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)
