"""Tests of the benchmark itself: seeded generation, output checks, time
limits and the self-time computation of the tracer."""

import json
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracer, workloads  # noqa: E402


@pytest.fixture(scope="module")
def gc():
    return run.program()


def _plan(gc, name, seed, tmp_path):
    where = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    return workloads.WORKLOADS[name](gc, seed, where / "inputs", where / "out")


@pytest.mark.parametrize("name", ["sweep_small", "recognize_ladder", "certify_large"])
def test_generation_is_deterministic_per_seed(gc, tmp_path, name):
    first = _plan(gc, name, 7, tmp_path)
    again = _plan(gc, name, 7, tmp_path)
    other = _plan(gc, name, 8, tmp_path)
    assert first.digests == again.digests
    # another seed: same call mix and size ladder, other random instances
    assert [c.label for c in first.calls] == [c.label for c in other.calls]
    assert first.digests.keys() == other.digests.keys()
    assert first.digests != other.digests


def _one_call(gc, tmp_path, spec, argv_tail, **kw):
    files = workloads._Files(tmp_path / "inputs")
    _, graph = workloads._fixed(gc, files, spec)
    ctx = run.Context(gc.cli, tmp_path / "out")
    return ctx, workloads.Call("probe", [*argv_tail, graph], **kw)


def test_right_answer_passes_and_wrong_answer_fails(gc, tmp_path):
    ctx, right = _one_call(gc, tmp_path, "gk:k=2", ["oracle", "--param", "thin"],
                           check=workloads.check_measured({"thin": 1}))
    assert run.execute(ctx, right, 10.0)[1] is None
    _, wrong = _one_call(gc, tmp_path, "gk:k=2", ["oracle", "--param", "thin"],
                         check=workloads.check_measured({"thin": 2}))
    assert "expected" in run.execute(ctx, wrong, 10.0)[1]
    _, bad_exit = _one_call(gc, tmp_path, "gk:k=2", ["oracle", "--param", "thin"], expect_rc=1)
    assert run.execute(ctx, bad_exit, 10.0)[1].startswith("exit 0")


def _spin_or_answer(argv):
    """Stand-in for the CLI: loops forever on "spin", else a passing report."""
    while "spin" in argv:
        pass
    print(json.dumps({"pass": True, "measured": {}, "bounds": {}}))
    return 0


def test_call_past_time_limit_fails_without_stalling(tmp_path):
    ctx = run.Context(types.SimpleNamespace(main=_spin_or_answer), tmp_path)
    slow = workloads.Call("spin", ["spin"], limit_s=0.2)
    quick = workloads.Call("answer", ["answer"])
    start = time.perf_counter()
    records, _ = run.run_calls(ctx, workloads.Plan([slow, quick], {}), 10.0, 0.0)
    assert time.perf_counter() - start < 5.0
    # the call past its limit fails; the loop goes on and the next call passes
    (_, _, spun, timeout), (_, _, _, ok) = records
    assert timeout.startswith("timeout") and spun < 1.5
    assert ok is None


def test_self_time_on_synthetic_span_tree():
    spans = [
        [0, None, 0, "cli.main", 0.0, 10.0, False],
        [1, 0, 0, "decomp.width_of", 1.0, 4.0, False],
        [2, 1, 0, "decomp.validate_decomposition", 2.0, 3.0, False],
        [3, 0, 0, "graphs.parse_graph", 5.0, 6.0, True],
        # overlapping children are covered once: [7, 9] of the parent
        [4, None, 1, "cli.main", 0.0, 10.0, False],
        [5, 4, 1, "graphs.parse_graph", 7.0, 8.5, False],
        [6, 4, 1, "graphs.parse_graph", 8.0, 9.0, False],
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 8.0, 5: 1.5, 6: 1.0})
    # the spans as two passes over the calls, after a set-up of one span
    setup = [[7, None, -1, "families.run_genspec", 0.0, 0.25, False]]
    m = tracer.layer_metrics(setup, spans, passes=2.0, wall_s=10.0, cuts=4, found=0,
                             overhead_s=0.5)
    assert m["cli.main.calls"] == 1.0 and m["cli.self_s"] == pytest.approx(7.0)
    assert m["families.run_genspec.calls"] == 1.0 and m["families.self_s"] == 0.25
    assert m["graphs.parse_graph.calls"] == 1.5
    assert m["graphs.share"] == pytest.approx(1.75 / 10.0)
    assert m["graphs.errors"] == 0.5 and m["cli.errors"] == 0.0
    assert m["decomp.width_of.cuts"] == 2.0
    assert m["decomp.width_of.s_per_cut"] == pytest.approx(3.0 / 4)


def test_tracer_wraps_definitions_and_imports_then_restores(gc):
    original = gc.decomp.width_of
    t = tracer.Tracer()
    t.install()
    try:
        assert gc.cli.width_of is gc.decomp.width_of is not original
        assert gc.cli.width_of.__wrapped__ is original
    finally:
        t.uninstall()
    assert gc.cli.width_of is gc.decomp.width_of is original


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
