import json
import sys
from pathlib import Path

import pytest

from gcwidth.cli import main
from gcwidth.families import gen_crown, gen_random_hconvex
from gcwidth.graphs import serialize_graph


def write_graph(tmp_path, g, name="input.graph"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path / "out"), *argv])


def read_runs(tmp_path):
    log = tmp_path / "out" / "runs.jsonl"
    return [json.loads(line) for line in log.read_text().splitlines()]


class TestRecognize:
    def test_circular_crown_exit0(self, tmp_path):
        g, _ = gen_crown(5)
        f = write_graph(tmp_path, g)
        assert run(tmp_path, "recognize", "--class", "circular", f) == 0
        witness = tmp_path / "out" / "input.witness.json"
        assert witness.exists()
        data = json.loads(witness.read_text())
        assert data["kind"] == "cycle"

    def test_tdelta_negative_exit1(self, tmp_path):
        # pairs through one common vertex: not convex, so tdelta(0,2) says no
        from gcwidth import BipartiteGraph

        g = BipartiteGraph(5, 4, tuple(frozenset({0, i}) for i in range(1, 5)))
        f = write_graph(tmp_path, g)
        code = run(tmp_path, "recognize", "--class", "tdelta", "--t", "0", "--delta", "2", f)
        assert code == 1

    def test_missing_file_exit2(self, tmp_path):
        assert run(tmp_path, "recognize", "--class", "convex", "nope.graph") == 2

    def test_out_is_a_file_exit2(self, tmp_path, capsys):
        g, _ = gen_crown(4)
        f = write_graph(tmp_path, g)
        (tmp_path / "out").write_text("")
        assert run(tmp_path, "recognize", "--class", "circular", f) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_input_is_a_directory_exit2(self, tmp_path, capsys):
        assert run(tmp_path, "recognize", "--class", "convex", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_file_exit2(self, tmp_path):
        f = tmp_path / "bad.graph"
        f.write_text("bipartite 2 1\ne a1 a2\n")
        assert run(tmp_path, "recognize", "--class", "convex", str(f)) == 2


class TestDecompose:
    def test_circular_within_bound(self, tmp_path):
        g, _ = gen_random_hconvex("cycle", 10, 12, 3)
        f = write_graph(tmp_path, g)
        assert run(tmp_path, "decompose", "--class", "circular", f) == 0
        report = read_runs(tmp_path)[-1]
        assert report["pass"] and report["measured"]["width"] <= 2
        assert report["bounds"]["width"] == 2
        assert (tmp_path / "out" / "input.decomposition.json").exists()

    def test_convex_with_witness_file(self, tmp_path):
        g, w = gen_random_hconvex("path", 8, 9, 1)
        f = write_graph(tmp_path, g)
        from gcwidth import witness_to_json

        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(w)))
        assert run(tmp_path, "decompose", "--class", "convex", "--witness", str(wf), f) == 0
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["width"] <= 1

    def test_tdelta_bound_recorded(self, tmp_path):
        g, w = gen_random_hconvex("tree", 10, 10, 2, t=1, delta=3)
        f = write_graph(tmp_path, g)
        from gcwidth import witness_to_json

        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(w)))
        assert run(tmp_path, "decompose", "--class", "tdelta", "--witness", str(wf), f) == 0
        report = read_runs(tmp_path)[-1]
        assert report["bounds"]["width"] == 8  # f(1,3)

    def test_spider_class(self, tmp_path):
        g, w = gen_random_hconvex("tree", 10, 12, 8, t=1, delta=4)
        f = write_graph(tmp_path, g)
        from gcwidth import witness_to_json

        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(w)))
        assert run(tmp_path, "decompose", "--class", "spider", "--witness", str(wf), f) == 0
        report = read_runs(tmp_path)[-1]
        assert report["bounds"]["width"] == 8  # one branching vertex, degree 4
        assert report["measured"]["width"] <= 8

    def test_spider_recognized_without_witness(self, tmp_path, capsys):
        g, _ = gen_random_hconvex("tree", 10, 12, 8, t=1, delta=4)
        f = write_graph(tmp_path, g)
        assert run(tmp_path, "decompose", "--class", "spider", "--delta", "4", f) == 0
        report = read_runs(tmp_path)[-1]
        assert report["pass"] and report["bounds"]["width"] <= 8  # a (1, 4) tree support
        assert (tmp_path / "out" / "input.decomposition.json").exists()
        # a crown has no tree support: exit 1 and no report
        crown = write_graph(tmp_path, gen_crown(5)[0], "crown.graph")
        capsys.readouterr()
        assert run(tmp_path, "decompose", "--class", "spider", crown) == 1
        assert capsys.readouterr().err == "not spider convex: no witness\n"
        assert len(read_runs(tmp_path)) == 1

    def test_wrong_witness_exit2(self, tmp_path, capsys):
        # N(b1) = {a1, a3} is disconnected on the path a1-a2-a3-a4, on the
        # cycle a1-a2-a3-a4-a1 and on the star centred at a2
        from gcwidth import BipartiteGraph, SupportWitness, witness_to_json

        g = BipartiteGraph(4, 1, (frozenset({0, 2}),))
        f = write_graph(tmp_path, g)
        path = SupportWitness("path", (0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3)}))
        cycle = SupportWitness("cycle", (0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        star = SupportWitness("tree", (0, 1, 2, 3), frozenset({(0, 1), (1, 2), (1, 3)}))
        for command, bad in (
            (("decompose", "--class", "convex"), path),
            (("decompose", "--class", "circular"), cycle),
            (("decompose", "--class", "spider"), star),
            (("decompose", "--class", "tdelta"), star),
            (("thin",), star),
        ):
            wf = tmp_path / "w.json"
            wf.write_text(json.dumps(witness_to_json(bad)))
            err = assert_rejected(tmp_path, capsys, *command, "--witness", str(wf), f)
            assert f"invalid {bad.kind} witness" in err


class TestWidthCommand:
    def test_pipeline_gen_decompose_width(self, tmp_path):
        assert run(tmp_path, "gen", "crown:n=5") == 0
        graph_file = tmp_path / "out" / "crown_n5.graph"
        witness_file = tmp_path / "out" / "crown_n5.witness.json"
        assert graph_file.exists() and witness_file.exists()
        assert (
            run(
                tmp_path,
                "decompose",
                "--class",
                "circular",
                "--witness",
                str(witness_file),
                str(graph_file),
            )
            == 0
        )
        dec = tmp_path / "out" / "crown_n5.decomposition.json"
        assert (
            run(tmp_path, "width", "--decomposition", str(dec), "--mode", "mim", str(graph_file))
            == 0
        )
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["width"] <= 2
        assert (
            run(tmp_path, "width", "--decomposition", str(dec), "--mode", "sim", str(graph_file))
            == 0
        )
        sim_report = read_runs(tmp_path)[-1]
        assert sim_report["measured"]["width"] <= report["measured"]["width"]


class TestOracleCommand:
    def test_pthin_gk2(self, tmp_path):
        assert run(tmp_path, "gen", "gk:k=2") == 0
        f = tmp_path / "out" / "gk_k2.graph"
        assert run(tmp_path, "oracle", "--param", "pthin", str(f)) == 0
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["pthin"] == 2

    def test_mimw_of_tree_file(self, tmp_path):
        f = tmp_path / "tree.graph"
        f.write_text("graph 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
        assert run(tmp_path, "oracle", "--param", "mimw", str(f)) == 0
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["mimw"] == 1

    def test_simw_le_mimw_pair(self, tmp_path):
        g, _ = gen_crown(4)
        f = write_graph(tmp_path, g)
        assert run(tmp_path, "oracle", "--param", "simw,mimw", f) == 0
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["simw"] <= report["measured"]["mimw"]

    def test_guard_exit2(self, tmp_path):
        g, _ = gen_random_hconvex("path", 8, 8, 0)
        f = write_graph(tmp_path, g)
        assert run(tmp_path, "oracle", "--param", "mimw", f) == 2
        assert main(["--out", str(tmp_path / "out"), "--guard", "16", "oracle", "--param", "mimw", f]) == 0

    def test_mim_cut(self, tmp_path):
        f = tmp_path / "p4.graph"
        f.write_text("graph 4\ne 1 2\ne 2 3\ne 3 4\n")
        assert run(tmp_path, "oracle", "--param", "mim-cut", "--side", "1,2", str(f)) == 0
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["mim-cut"] == 1

    def test_nothing_to_compute_exit2(self, tmp_path, capsys):
        f = tmp_path / "p4.graph"
        f.write_text("graph 4\ne 1 2\ne 2 3\ne 3 4\n")
        for param in ("", ",", " , "):
            err = assert_rejected(tmp_path, capsys, "oracle", "--param", param, str(f))
            assert "nothing to compute" in err

    def test_side_and_mim_cut_go_together_exit2(self, tmp_path, capsys):
        # checked before any oracle runs, so no artifact is left behind
        f = tmp_path / "p4.graph"
        f.write_text("graph 4\ne 1 2\ne 2 3\ne 3 4\n")
        err = assert_rejected(tmp_path, capsys, "oracle", "--param", "mimw", "--side", "1,2", str(f))
        assert "--side applies to mim-cut" in err
        err = assert_rejected(tmp_path, capsys, "oracle", "--param", "mimw,mim-cut", str(f))
        assert err == "error: mim-cut needs --side\n"
        assert not (tmp_path / "out" / "p4.mimw.json").exists()

    def test_unknown_param_leaves_no_artifact(self, tmp_path, capsys):
        # every name is checked before the first oracle runs
        f = tmp_path / "p4.graph"
        f.write_text("graph 4\ne 1 2\ne 2 3\ne 3 4\n")
        for param in ("mimw,treewidth", "treewidth,mimw"):
            err = assert_rejected(tmp_path, capsys, "oracle", "--param", param, str(f))
            assert err == "error: unknown oracle parameter 'treewidth'\n"
            assert not (tmp_path / "out" / "p4.mimw.json").exists()

    def test_repeated_param_computed_once(self, tmp_path, monkeypatch):
        from gcwidth import thinness

        calls = []

        def counted(name):
            oracle = getattr(thinness, name)
            return lambda g, **kw: calls.append(name) or oracle(g, **kw)

        for name in ("thin_oracle", "pthin_oracle"):
            monkeypatch.setattr(thinness, name, counted(name))
        f = write_graph(tmp_path, gen_crown(3)[0])
        assert run(tmp_path, "oracle", "--param", "pthin,pthin,pthin", f) == 0
        assert calls == ["pthin_oracle"]
        assert run(tmp_path, "oracle", "--param", "pthin, thin,pthin,thin", f) == 0
        assert calls == ["pthin_oracle", "pthin_oracle", "thin_oracle"]
        assert list(read_runs(tmp_path)[-1]["measured"]) == ["pthin", "thin"]

    def test_thin_above_pthin_fails(self, tmp_path, monkeypatch):
        from gcwidth import thinness

        monkeypatch.setattr(thinness, "pthin_oracle", lambda g, **kw: thinness.thin_oracle(g, **kw) - 1)
        f = write_graph(tmp_path, gen_crown(3)[0])
        assert run(tmp_path, "oracle", "--param", "thin,pthin", f) == 1
        report = read_runs(tmp_path)[-1]
        assert report["pass"] is False
        assert report["measured"]["thin"] == report["measured"]["pthin"] + 1


class TestThinAndConvert:
    def test_thin_13(self, tmp_path):
        g, w = gen_random_hconvex("tree", 9, 9, 4, t=1, delta=3)
        f = write_graph(tmp_path, g)
        from gcwidth import witness_to_json

        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(w)))
        assert run(tmp_path, "thin", "--witness", str(wf), f) == 0
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["classes"] <= 3
        assert report["bounds"]["classes"] == 3

    def test_convert_width1(self, tmp_path):
        f = tmp_path / "p4.graph"
        f.write_text("graph 4\ne 1 2\ne 2 3\ne 3 4\n")
        pd = tmp_path / "p4.bags"
        pd.write_text("bag 1 2\nbag 2 3\nbag 3 4\n")
        assert run(tmp_path, "convert", "--pathdecomp", str(pd), str(f)) == 0
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["classes"] <= 4
        rep_file = tmp_path / "out" / "p4.pthin.json"
        assert json.loads(rep_file.read_text())["strong"] is True

    def test_convert_invalid_bags_exit2(self, tmp_path):
        f = tmp_path / "p4.graph"
        f.write_text("graph 4\ne 1 2\ne 2 3\ne 3 4\n")
        pd = tmp_path / "bad.bags"
        pd.write_text("bag 1 2\nbag 3 4\n")
        assert run(tmp_path, "convert", "--pathdecomp", str(pd), str(f)) == 2


class TestGenCommand:
    def test_deterministic_files(self, tmp_path):
        assert run(tmp_path, "gen", "random_hconvex:kind=cycle,a=6,b=6:seed=3") == 0
        name = "hconvex_cycle_a6_b6_s3.graph"
        first = (tmp_path / "out" / name).read_text()
        assert run(tmp_path, "gen", "random_hconvex:kind=cycle,a=6,b=6:seed=3") == 0
        assert (tmp_path / "out" / name).read_text() == first

    def test_global_seed_flag(self, tmp_path):
        assert main(
            ["--out", str(tmp_path / "out"), "--seed", "5", "gen", "random_hconvex:kind=path,a=5,b=5"]
        ) == 0
        assert (tmp_path / "out" / "hconvex_path_a5_b5_s5.graph").exists()

    def test_bad_spec_exit2(self, tmp_path):
        assert run(tmp_path, "gen", "unknown:x=1") == 2

    def test_key_the_family_does_not_read_exit2(self, tmp_path, capsys):
        for spec, family, key in (
            ("crown:n=4,m=9", "crown", "m"),
            ("grid:r=2,c=2,kind=x", "grid", "kind"),
            ("gk:k=2,input=g.graph", "gk", "input"),
            ("random_hconvex:kind=path,a=5,b=5,n=3", "random_hconvex", "n"),
        ):
            err = assert_rejected(tmp_path, capsys, "gen", spec)
            assert err.startswith(f"error: {family} reads no key {key!r}")
        for spec, family, key in (("crown", "crown", "n"), ("grid:r=3", "grid", "c"), ("gk:seed=2", "gk", "k")):
            err = assert_rejected(tmp_path, capsys, "gen", spec)
            assert err == f"error: {family} needs key {key!r}\n"

    def test_grid_comb_pipeline(self, tmp_path):
        assert run(tmp_path, "gen", "grid:r=3,c=3") == 0
        grid_file = tmp_path / "out" / "grid_3x3.graph"
        assert run(tmp_path, "gen", f"comb_augment:input={grid_file}") == 0
        comb_graph = tmp_path / "out" / "comb_augment.graph"
        comb_witness = tmp_path / "out" / "comb_augment.witness.json"
        assert comb_graph.exists() and comb_witness.exists()
        assert (
            run(tmp_path, "verify", "--witness", str(comb_witness), str(comb_graph)) == 0
        )


class TestVerifyCommand:
    def test_witness_ok_and_bad(self, tmp_path):
        g, w = gen_crown(4)
        f = write_graph(tmp_path, g)
        from gcwidth import witness_to_json

        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(w)))
        assert run(tmp_path, "verify", "--witness", str(wf), f) == 0
        bad = witness_to_json(w)
        bad["host_edges"] = bad["host_edges"][:-1] + [["a1", "a3"]]
        wf.write_text(json.dumps(bad))
        assert run(tmp_path, "verify", "--witness", str(wf), f) == 1

    def test_representation(self, tmp_path):
        from gcwidth import representation_to_json, thin_from_tree_support

        g, w = gen_random_hconvex("tree", 8, 8, 6, t=1, delta=3)
        f = write_graph(tmp_path, g)
        rep = thin_from_tree_support(g, w)
        rf = tmp_path / "rep.json"
        rf.write_text(json.dumps(representation_to_json(rep, g)))
        assert run(tmp_path, "verify", "--representation", str(rf), f) == 0

    def test_representation_checked_as_strong_when_the_file_says_so(self, tmp_path):
        from gcwidth import witness_to_json

        g, w = gen_random_hconvex("tree", 8, 8, 3, t=1, delta=3)
        f = write_graph(tmp_path, g)
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(w)))
        assert run(tmp_path, "thin", "--witness", str(wf), f) == 0
        rf = tmp_path / "out" / "input.thin.json"
        rep = json.loads(rf.read_text())
        assert rep["strong"] is False
        assert run(tmp_path, "verify", "--representation", str(rf), f) == 0
        assert read_runs(tmp_path)[-1]["measured"] == {"consistent": True, "strong": False}
        assert run(tmp_path, "verify", "--representation", str(rf), "--strong", f) == 1
        rep["strong"] = True
        rf.write_text(json.dumps(rep))
        assert run(tmp_path, "verify", "--representation", str(rf), f) == 1
        assert read_runs(tmp_path)[-1]["measured"] == {"consistent": False, "strong": True}

    def test_pathdecomp(self, tmp_path):
        f = tmp_path / "p3.graph"
        f.write_text("graph 3\ne 1 2\ne 2 3\n")
        pd = tmp_path / "p3.bags"
        pd.write_text("bag 1 2\nbag 2 3\n")
        assert run(tmp_path, "verify", "--pathdecomp", str(pd), str(f)) == 0
        report = read_runs(tmp_path)[-1]
        assert report["measured"]["width"] == 1

    def test_nothing_to_verify_exit2(self, tmp_path):
        f = tmp_path / "p3.graph"
        f.write_text("graph 3\ne 1 2\n")
        assert run(tmp_path, "verify", str(f)) == 2

    def test_one_artifact_per_run(self, tmp_path, capsys):
        from gcwidth import witness_to_json

        g, w = gen_crown(4)
        f = write_graph(tmp_path, g)
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(w)))
        assert run(tmp_path, "decompose", "--class", "circular", "--witness", str(wf), f) == 0
        dec = json.loads((tmp_path / "out" / "input.decomposition.json").read_text())
        dec["tree_edges"].remove(["s6", "t6"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dec))
        assert run(tmp_path, "verify", "--decomposition", str(bad), f) == 1
        err = assert_rejected(tmp_path, capsys, "verify", "--witness", str(wf), "--decomposition", str(bad), f)
        assert "--witness and --decomposition" in err
        err = assert_rejected(tmp_path, capsys, "verify", "--witness", str(wf), "--strong", f)
        assert "--strong" in err


class TestReports:
    def test_digest_stable(self, tmp_path):
        g, _ = gen_crown(4)
        f = write_graph(tmp_path, g)
        run(tmp_path, "recognize", "--class", "circular", f)
        run(tmp_path, "recognize", "--class", "circular", f)
        runs = read_runs(tmp_path)
        assert runs[-1]["input_digest"] == runs[-2]["input_digest"]
        assert len(runs[-1]["input_digest"]) == 64

    def test_json_format_prints_report(self, tmp_path, capsys):
        g, _ = gen_crown(4)
        f = write_graph(tmp_path, g)
        main(["--out", str(tmp_path / "out"), "--format", "json", "recognize", "--class", "circular", f])
        out = capsys.readouterr().out
        assert json.loads(out)["pass"] is True

    def test_command_echoes_argv_given_to_main(self, tmp_path):
        argv = ["--out", str(tmp_path / "out"), "gen", "crown:n=3"]
        assert main(argv) == 0
        assert read_runs(tmp_path)[-1]["command"] == argv

    def test_command_falls_back_to_sys_argv(self, tmp_path, monkeypatch):
        argv = ["--out", str(tmp_path / "out"), "gen", "gk:k=2"]
        monkeypatch.setattr(sys, "argv", ["gcwidth", *argv])
        assert main() == 0
        assert read_runs(tmp_path)[-1]["command"] == argv


def run_lines(tmp_path):
    log = tmp_path / "out" / "runs.jsonl"
    return len(log.read_text().splitlines()) if log.exists() else 0


def assert_rejected(tmp_path, capsys, *argv) -> str:
    """The call ends in exit 2 with an error line and adds no run report;
    returns that line."""
    capsys.readouterr()
    before = run_lines(tmp_path)
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert run_lines(tmp_path) == before
    return err


class TestInputValidation:
    """Foreign, zero and out-of-range vertex tokens, and JSON files whose top
    level is not an object, end in exit 2 instead of being coerced."""

    def crown_artifacts(self, tmp_path):
        assert run(tmp_path, "gen", "crown:n=4") == 0
        out = tmp_path / "out"
        graph = str(out / "crown_n4.graph")
        witness = str(out / "crown_n4.witness.json")
        assert run(tmp_path, "decompose", "--class", "circular", "--witness", witness, graph) == 0
        return graph, witness, out / "crown_n4.decomposition.json"

    def test_x_leaves_in_decomposition(self, tmp_path, capsys):
        graph, _, dec = self.crown_artifacts(tmp_path)
        data = json.loads(dec.read_text())
        data["leaves"] = {k: v.replace("b", "x") for k, v in data["leaves"].items()}
        bad = tmp_path / "x.decomposition.json"
        bad.write_text(json.dumps(data))
        assert_rejected(tmp_path, capsys, "width", "--decomposition", str(bad), graph)
        assert_rejected(tmp_path, capsys, "verify", "--decomposition", str(bad), graph)

    def test_malformed_decomposition_shapes(self, tmp_path, capsys):
        graph, _, dec = self.crown_artifacts(tmp_path)
        data = json.loads(dec.read_text())
        edges = data["tree_edges"]

        def renamed(old, new):
            # the same decomposition with node `old` named `new` throughout
            def swap(nm):
                return new if nm == old else nm

            return {
                **data,
                "leaves": {swap(nm): tok for nm, tok in data["leaves"].items()},
                "tree_edges": [[swap(x), swap(y)] for x, y in edges],
                "spine": [swap(nm) for nm in data["spine"]],
            }

        cases = [{**data, key: value} for key, value in (
            ("leaves", sorted(data["leaves"].values())),
            ("leaves", "t1"),
            ("tree_edges", {"e": edges}),
            ("tree_edges", [e[0] for e in edges]),
            ("tree_edges", [edges[0] + edges[1]] + edges[2:]),
            ("tree_edges", [[1, 2]] + edges[1:]),
            ("tree_edges", 7),
            ("spine", "s1"),
            ("spine", [data["spine"]]),
            # a spine naming a leaf, a node of no edge, or one node twice
            ("spine", ["t1"]),
            ("spine", ["s99"]),
            ("spine", data["spine"][:1] * 2),
            # a linear decomposition whose spine stops short of an internal node
            ("spine", data["spine"][:-1]),
            ("linear", "false"),
        )]
        # spine nodes that are not consecutive along tree edges
        cases.append({**data, "linear": False, "spine": ["s1", "s8"]})
        # a required field left out
        cases += [{k: v for k, v in data.items() if k != key} for key in ("leaves", "tree_edges")]
        # node names other than t<i> for leaves and s<i> inside, i in ASCII digits without a leading zero
        cases += [renamed(old, new) for old, new in (
            ("t1", "x1"), ("t1", "t\u0661"), ("t1", "s99"), ("t1", "t"), ("t1", "t+1"), ("t1", "t01"),
            ("s1", "x1"), ("s1", "s\u0661"), ("s1", "t99"), ("s1", "s01"),
        )]
        for case in cases:
            bad = tmp_path / "bad.decomposition.json"
            bad.write_text(json.dumps(case))
            for cmd in ("width", "verify"):
                err = assert_rejected(tmp_path, capsys, cmd, "--decomposition", str(bad), graph)
                assert "decomposition needs" in err

    def test_malformed_witness_shapes(self, tmp_path, capsys):
        graph, witness, _ = self.crown_artifacts(tmp_path)
        data = json.loads(Path(witness).read_text())
        edges = data["host_edges"]
        cases = [{**data, key: value} for key, value in (
            ("vertices", 5),
            ("vertices", "a1"),
            ("vertices", [1, 2]),
            ("host_edges", 5),
            ("host_edges", [e[0] for e in edges]),
            ("host_edges", [edges[0] + edges[1]] + edges[2:]),
            ("host_edges", [[1, 2]] + edges[1:]),
            ("kind", ["cycle"]),
            ("kind", 5),
        )]
        # a required field left out
        cases += [{k: v for k, v in data.items() if k != key} for key in ("kind", "vertices", "host_edges")]
        for case in cases:
            bad = tmp_path / "bad.witness.json"
            bad.write_text(json.dumps(case))
            for argv in (
                ("verify", "--witness", str(bad), graph),
                ("decompose", "--class", "circular", "--witness", str(bad), graph),
            ):
                err = assert_rejected(tmp_path, capsys, *argv)
                assert "witness needs" in err

    def test_malformed_representation_shapes(self, tmp_path, capsys):
        g, w = gen_random_hconvex("tree", 6, 6, 1, t=1, delta=3)
        f = write_graph(tmp_path, g)
        from gcwidth import representation_to_json, thin_from_tree_support

        data = representation_to_json(thin_from_tree_support(g, w), g)
        cases = [{**data, key: value} for key, value in (
            ("order", 5),
            ("order", "a1"),
            ("order", [1, 2]),
            ("classes", 5),
            ("classes", data["order"]),
            ("classes", [[1]]),
            ("classes", {"c": data["classes"]}),
            ("strong", "no"),
        )]
        # a required field left out
        cases += [{k: v for k, v in data.items() if k != key} for key in ("order", "classes")]
        for case in cases:
            rf = tmp_path / "rep.json"
            rf.write_text(json.dumps(case))
            for strong in ((), ("--strong",)):
                err = assert_rejected(tmp_path, capsys, "verify", "--representation", str(rf), *strong, f)
                assert "representation needs" in err

    def test_witness_on_general_graph(self, tmp_path, capsys):
        _, witness, _ = self.crown_artifacts(tmp_path)
        f = tmp_path / "p3.graph"
        f.write_text("graph 3\ne 1 2\ne 2 3\n")
        err = assert_rejected(tmp_path, capsys, "verify", "--witness", witness, str(f))
        assert "witness verification needs a bipartite input" in err

    def test_x_tokens_in_representation(self, tmp_path, capsys):
        g, w = gen_random_hconvex("tree", 6, 6, 1, t=1, delta=3)
        f = write_graph(tmp_path, g)
        from gcwidth import representation_to_json, thin_from_tree_support

        data = representation_to_json(thin_from_tree_support(g, w), g)
        data["order"] = [t.replace("b", "x") for t in data["order"]]
        rf = tmp_path / "rep.json"
        rf.write_text(json.dumps(data))
        assert_rejected(tmp_path, capsys, "verify", "--representation", str(rf), f)

    def test_x_tokens_in_bags(self, tmp_path, capsys):
        g, _ = gen_crown(2)
        f = write_graph(tmp_path, g)
        pd = tmp_path / "x.bags"
        pd.write_text("bag a1 a2 x1\nbag a1 a2 x2\n")
        assert_rejected(tmp_path, capsys, "verify", "--pathdecomp", str(pd), f)
        assert_rejected(tmp_path, capsys, "convert", "--pathdecomp", str(pd), f)

    def test_side_b0(self, tmp_path, capsys):
        g, _ = gen_crown(3)
        f = write_graph(tmp_path, g)
        assert_rejected(tmp_path, capsys, "oracle", "--param", "mim-cut", "--side", "b0", f)
        assert_rejected(tmp_path, capsys, "oracle", "--param", "mim-cut", "--side", "a1,,b1", f)

    def test_general_token_zero(self, tmp_path, capsys):
        f = tmp_path / "p3.graph"
        f.write_text("graph 3\ne 1 2\ne 2 3\n")
        pd = tmp_path / "p3.bags"
        pd.write_text("bag 0 1 2\nbag 2 3\n")
        assert_rejected(tmp_path, capsys, "verify", "--pathdecomp", str(pd), str(f))
        assert_rejected(tmp_path, capsys, "oracle", "--param", "mim-cut", "--side", "0", str(f))

    def test_json_array_at_top_level(self, tmp_path, capsys):
        graph, witness, _ = self.crown_artifacts(tmp_path)
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps([json.loads(Path(witness).read_text())]))
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        for arr in (wrapped, empty):
            for argv in (
                ("verify", "--witness", str(arr), graph),
                ("width", "--decomposition", str(arr), graph),
                ("verify", "--decomposition", str(arr), graph),
                ("verify", "--representation", str(arr), graph),
                ("decompose", "--class", "circular", "--witness", str(arr), graph),
            ):
                err = assert_rejected(tmp_path, capsys, *argv)
                assert "expected a JSON object, got list" in err

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json.loads raises RecursionError here; it must not end in a traceback (exit 1 reads as "no")
        graph, _, _ = self.crown_artifacts(tmp_path)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000)
        for argv in (
            ("verify", "--witness", str(deep), graph),
            ("decompose", "--class", "circular", "--witness", str(deep), graph),
            ("width", "--decomposition", str(deep), graph),
            ("verify", "--decomposition", str(deep), graph),
            ("verify", "--representation", str(deep), graph),
        ):
            err = assert_rejected(tmp_path, capsys, *argv)
            assert "JSON nested too deeply" in err

    def test_leading_zeros_in_tokens(self, tmp_path, capsys):
        # a01 is not a1: tokens are read only in the form the writers print
        graph, witness, _ = self.crown_artifacts(tmp_path)
        for i, text in enumerate(("bipartite 2 1\ne a01 b1\n", "bipartite 2 1\ne a1 b001\n", "graph 3\ne 01 2\n")):
            f = tmp_path / f"zeros{i}.graph"
            f.write_text(text)
            assert_rejected(tmp_path, capsys, "oracle", "--param", "mimw", str(f))
        assert_rejected(tmp_path, capsys, "oracle", "--param", "mim-cut", "--side", "a01", graph)
        bags = tmp_path / "zeros.bags"
        bags.write_text("bag a01 b1\n")
        assert_rejected(tmp_path, capsys, "verify", "--pathdecomp", str(bags), graph)
        p3 = tmp_path / "p3.graph"
        p3.write_text("graph 3\ne 1 2\ne 2 3\n")
        assert_rejected(tmp_path, capsys, "oracle", "--param", "mim-cut", "--side", "01", str(p3))
        bags.write_text("bag 1 02\nbag 2 3\n")
        assert_rejected(tmp_path, capsys, "verify", "--pathdecomp", str(bags), str(p3))
        data = json.loads(Path(witness).read_text())
        data["vertices"] = [v.replace("a1", "a001") for v in data["vertices"]]
        bad = tmp_path / "zeros.witness.json"
        bad.write_text(json.dumps(data))
        for argv in (
            ("verify", "--witness", str(bad), graph),
            ("decompose", "--class", "circular", "--witness", str(bad), graph),
        ):
            assert "bad A-vertex token" in assert_rejected(tmp_path, capsys, *argv)
        g, w = gen_random_hconvex("tree", 6, 6, 1, t=1, delta=3)
        f = write_graph(tmp_path, g)
        from gcwidth import representation_to_json, thin_from_tree_support

        rep = representation_to_json(thin_from_tree_support(g, w), g)
        rep["order"] = [t.replace("b1", "b01") for t in rep["order"]]
        rf = tmp_path / "zeros.rep.json"
        rf.write_text(json.dumps(rep))
        assert_rejected(tmp_path, capsys, "verify", "--representation", str(rf), f)

    def test_thin_with_cycle_witness(self, tmp_path, capsys):
        graph, witness, _ = self.crown_artifacts(tmp_path)
        err = assert_rejected(tmp_path, capsys, "thin", "--witness", witness, graph)
        assert "need an acyclic witness" in err

    def test_non_ascii_digits_in_graph_files(self, tmp_path, capsys):
        for i, text in enumerate(("graph 3\ne 1 ٢\ne 2 3\n", "graph 12\ne 1_0 +2\n",
                                  "graph ٣\ne 1 2\n", "bipartite 2 2\ne a١ b1\ne a2 b2\n")):
            f = tmp_path / f"digits{i}.graph"
            f.write_text(text, encoding="utf-8")
            assert_rejected(tmp_path, capsys, "oracle", "--param", "mimw", str(f))

    def test_integer_options_are_ascii(self, tmp_path, capsys):
        graph, _, _ = self.crown_artifacts(tmp_path)
        # an option value argparse rejects ends in exit 2, as "--t abc" does
        for argv in (
            ("--seed", "\u0667", "gen", "crown:n=4"),
            ("--guard", "\u0663", "oracle", "--param", "thin", graph),
            ("recognize", "--class", "tdelta", "--t", "\u0661", "--delta", "3", graph),
            ("thin", "--t", "1", "--delta", "\u0663", graph),
            ("decompose", "--class", "tdelta", "--t", "+1", graph),
            ("recognize", "--class", "tdelta", "--t", "abc", graph),
        ):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, *argv)
            assert exc.value.code == 2
        for spec in ("crown:n=\u0665", "crown:n=+5", "crown:n=5_0", "random_hconvex:kind=path:seed=\u0667"):
            assert "not an ASCII integer" in assert_rejected(tmp_path, capsys, "gen", spec)
        # negative values keep their meaning: a seed, or an out-of-range t
        assert run(tmp_path, "--seed", "-3", "gen", "random_hconvex:kind=path,a=4,b=4") == 0
        assert (tmp_path / "out" / "hconvex_path_a4_b4_s-3.graph").exists()
        assert "need t >= 0" in assert_rejected(tmp_path, capsys, "recognize", "--class", "tdelta", "--t", "-1", graph)
        for t in ("-1", "10"):
            err = assert_rejected(tmp_path, capsys, "gen", f"random_hconvex:kind=tree,a=9,b=5,t={t}")
            assert f"got t = {t}" in err

    def test_guard_zero_is_a_guard(self, tmp_path, capsys):
        graph = write_graph(tmp_path, gen_crown(3)[0])
        for guard in ("0", "-1"):
            for param in ("mimw", "thin"):
                err = assert_rejected(tmp_path, capsys, "--guard", guard, "oracle", "--param", param, graph)
                assert f"exceeds oracle guard {guard}" in err

    def test_non_ascii_digits_in_witness(self, tmp_path, capsys):
        graph, witness, _ = self.crown_artifacts(tmp_path)
        data = json.loads(Path(witness).read_text())
        data["vertices"] = [v.replace("a1", "a١") for v in data["vertices"]]
        data["host_edges"] = [[v.replace("a1", "a١") for v in e] for e in data["host_edges"]]
        bad = tmp_path / "digits.witness.json"
        bad.write_text(json.dumps(data))
        for argv in (
            ("verify", "--witness", str(bad), graph),
            ("decompose", "--class", "circular", "--witness", str(bad), graph),
        ):
            assert "bad A-vertex token" in assert_rejected(tmp_path, capsys, *argv)
