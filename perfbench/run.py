"""Seeded benchmark of the gcwidth CLI: time to a checked answer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

One process per workload and one caller: a closed loop calls
``gcwidth.cli.main(argv)`` in-process, each call starting when the previous
one returned.  Set-up imports the package from ``src/`` and generates every
instance from the seed; it runs SETUP_REPEATS times and ``setup_s`` is the
median.  The timed part then cycles through the workload's call list until
``--seconds`` have gone by (at least once through).  Every call is checked
(exit code, the report's ``pass`` and bounds, the workload's own check); a
call that fails a check, raises, prints a traceback or passes its time limit
counts as failed.

End-to-end metrics: ``setup_s``; ``ops_per_s``, checked calls per second of
a pass over the call list at each call's mean time; ``call_p50_s``, the
median over the distinct calls of each one's mean time, a failed call
counting as slower than all others; ``peak_rss_mb`` of the process.
``call_p90_s`` (over every call made) and ``ops_failed_share`` are printed
too but not part of the result line: the first has too few samples on most
workloads, the second is 0 on every timed workload.

With ``--trace 1`` the set-up runs once more traced, and every second cycle
through the calls runs traced (see tracer.py); the result line then holds
the per-layer figures, per traced set-up plus one pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result (run
information, instance digests, per-call figures) is written to
``perfbench/results/``, the spans of a traced run next to it.  ``--report``
runs every workload and the probes of ``workloads.PROBES``, each in its own
process, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402

SETUP_REPEATS = 7
MODULES = ("cli", "graphs", "families", "supports", "decomp", "thinness")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


class CallTimeout(BaseException):
    """Raised inside a call that ran past its time limit.  A BaseException,
    so the CLI's own ``except`` clauses cannot swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise CallTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Context:
    """Where calls go: the CLI module (looked up per call, so a call sees
    the tracer's wrappers while they are installed), the artifact directory
    and the tracer, if any.  Output checks may call the CLI untimed."""

    def __init__(self, cli, out: Path, tracer=None):
        self.cli_module = cli
        self.out = out
        self.tracer = tracer

    def main(self, argv) -> int:
        return self.cli_module.main(argv)

    def cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.main(["--out", str(self.out), *argv])


def execute(ctx: Context, call: workloads.Call, limit_s: float):
    """Run one call; returns (seconds, None) or (seconds, why it failed)."""
    argv = ["--out", str(ctx.out), "--format", "json", *call.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with time_limit(call.limit_s or limit_s):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = ctx.main(argv)
    except CallTimeout:
        error = f"timeout after {call.limit_s or limit_s:g}s"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed call, never a stop
        error = f"raised {type(exc).__name__}: {str(exc)[:200]}"
    elapsed = time.perf_counter() - start
    if error is None:
        if ctx.tracer is not None:
            ctx.tracer.active = False
        try:
            error = check_output(ctx, call, rc, stdout.getvalue(), stderr.getvalue())
        finally:
            if ctx.tracer is not None:
                ctx.tracer.active = True
    return elapsed, error


def check_output(ctx, call, rc, out: str, err: str):
    if rc != call.expect_rc:
        return f"exit {rc}, expected {call.expect_rc}: {err.strip()[:200]}"
    if "Traceback" in err or "Traceback" in out:
        return "printed a traceback"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "no JSON run report on stdout"
    if call.expect_rc == 0 and report.get("pass") is not True:
        return f"report pass is {report.get('pass')!r}"
    for key, bound in report.get("bounds", {}).items():
        value = report["measured"].get(key)
        if not (isinstance(value, (int, float)) and value <= bound):
            return f"measured {key}={value!r} above bound {bound}"
    return call.check(report, ctx) if call.check else None


def program():
    """The gcwidth modules, imported from src/ of this checkout."""
    cli = importlib.import_module("gcwidth.cli")
    where = Path(cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"gcwidth imported from {where}, not from this checkout")
    return types.SimpleNamespace(**{m: sys.modules[f"gcwidth.{m}"] for m in MODULES})


def load_program():
    """Import gcwidth afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "gcwidth" or m.startswith("gcwidth.")]:
        del sys.modules[name]
    return program()


def set_up(name: str, seed: int, run_dir: Path):
    """Import and generate SETUP_REPEATS times; returns the program, the
    plan of the last set-up, its directory and the set-up times."""
    build = workloads.WORKLOADS[name]
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        rep = run_dir / f"setup{i}"
        start = time.perf_counter()
        gc = load_program()
        plan = build(gc, seed, rep / "inputs", rep / "out")
        times.append(time.perf_counter() - start)
        digests.append(plan.digests)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(rep)
    if any(d != digests[0] for d in digests):
        raise RuntimeError("set-up is not deterministic: instance digests differ between repeats")
    (rep / "out").mkdir(parents=True, exist_ok=True)
    return gc, plan, rep, times


def run_calls(ctx: Context, plan, limit_s: float, seconds: float):
    """Closed loop over the plan's calls, round robin, until ``seconds``
    have gone by and every call ran at least once.  Returns one record
    ``(index, label, seconds, error)`` per call made, as two lists: the
    untraced calls and the traced ones.

    With a tracer, every second cycle through the calls runs traced, so
    traced and untraced calls share the same stretch of machine time."""
    calls, tracer = plan.calls, ctx.tracer
    cycles = 1 if tracer is None else 2
    plain, traced = [], []
    start = time.perf_counter()
    try:
        while (len(plain) + len(traced) < cycles * len(calls)
               or time.perf_counter() - start < seconds):
            made = len(plain) + len(traced)
            index = made % len(calls)
            on = tracer is not None and (made // len(calls)) % 2 == 1
            if tracer is not None:
                tracer.request = made
                if on:
                    tracer.install()
                else:
                    tracer.uninstall()
            elapsed, error = execute(ctx, calls[index], limit_s)
            (traced if on else plain).append((index, calls[index].label, elapsed, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return plain, traced


def call_means(records, failed_as=None) -> list[float]:
    """Mean time of each distinct call of the plan; a failed sample counts
    as ``failed_as`` when that is given.  Means, not medians: on a shared
    host the CPU can flip between a fast and a slow state several times a
    second, and a mean averages those states where a median picks one."""
    by_call: dict[int, list] = {}
    for index, _, t, err in records:
        by_call.setdefault(index, []).append(failed_as if err and failed_as else t)
    return [statistics.fmean(v) for v in by_call.values()]


def pass_seconds(records) -> float:
    """One pass over the call list at each call's mean time."""
    return sum(call_means(records))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(records, calls_per_pass: int, setup_times) -> dict:
    # A failed call counts as slower than every completed one.  The median
    # is taken over the distinct calls' mean times, so that a run which
    # stops part-way through the call list weighs no call twice; the 90th
    # percentile needs every sample and is only read where there are many.
    means = call_means(records, failed_as=math.inf)
    ok_share = sum(1 for *_, err in records if not err) / len(records)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok_share * calls_per_pass / pass_seconds(records),
        "call_p50_s": statistics.median(means),
        "call_p90_s": percentile([math.inf if err else t for *_, t, err in records], 0.9),
        "ops_failed_share": 1.0 - ok_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_call(records) -> dict:
    by_label: dict[str, list] = {}
    for _, label, t, err in records:
        by_label.setdefault(label, []).append((t, err))
    return {
        label: {
            "samples": len(v),
            "mean_s": statistics.fmean(t for t, _ in v),
            "failed": sum(1 for _, e in v if e),
        }
        for label, v in by_label.items()
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read as files; "unknown" in a
    checkout that is not a git repository."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return "unknown"


def run_info() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = HERE / "_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        gc, plan, rep, setup_times = set_up(name, seed, run_dir)
        tracer = tracing.Tracer() if trace else None
        if trace:
            setup_wall = traced_set_up(tracer, gc, name, seed, run_dir / "traced", plan)
        ctx = Context(gc.cli, rep / "out", tracer)
        records, traced = run_calls(ctx, plan, workloads.LIMITS[name], seconds)
        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "calls_per_pass": len(plan.calls),
            "samples": len(records),
            "call_times": [[i, t, err is None] for i, _, t, err in records],
            "setup_samples": len(setup_times),
            "end_to_end": end_to_end(records, len(plan.calls), setup_times),
            "per_call": per_call(records),
            "failures": sorted({f"{label}: {err}" for _, label, _, err in records if err}),
            "digests": plan.digests,
            "run_info": run_info(),
        }
        if trace:
            result.update(layer_result(tracer, name, seed, len(plan.calls), setup_wall,
                                       records, traced))
            records = records + traced
        result["attempted"] = len(records)
        result["failed"] = sum(1 for *_, err in records if err)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def traced_set_up(tracer, gc, name, seed, where: Path, plan) -> float:
    """One more set-up with the tracer installed; returns its wall time.
    Its spans carry request -1."""
    tracer.request = -1
    start = time.perf_counter()
    tracer.install()
    try:
        traced_plan = workloads.WORKLOADS[name](gc, seed, where / "inputs", where / "out")
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    if traced_plan.digests != plan.digests:
        raise RuntimeError("traced set-up generated different instances")
    tracer.cuts = tracer.found = 0  # the derived counters cover the calls only
    return wall


def layer_result(tracer, name, seed, calls_per_pass, setup_wall, plain, traced) -> dict:
    """Per-layer figures for one traced set-up plus one pass; the spans go
    to a file."""
    passes = len(traced) / calls_per_pass
    wall = setup_wall + sum(t for *_, t, _ in traced) / passes
    layers = tracing.layer_metrics(
        [s for s in tracer.spans if s[tracing.REQUEST] == -1],
        [s for s in tracer.spans if s[tracing.REQUEST] != -1],
        passes, wall, tracer.cuts, tracer.found,
        overhead_s=pass_seconds(traced) - pass_seconds(plain),
    )
    spans_path = HERE / "results" / f"spans-{name}-s{seed}.json"
    tracer.dump(spans_path)
    return {
        "traced_samples": len(traced),
        "traced_unit_wall_s": wall,
        "per_layer": layers,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }


def emit(result: dict) -> None:
    name, e2e = result["workload"], result["end_to_end"]
    samples = result["samples"]
    print(f"workload {name} seed {result['seed']}: {samples} timed calls over "
          f"{result['calls_per_pass']} distinct calls")
    info = result["run_info"]
    print(f"  run info: nproc {info['nproc']}, Python {info['python']}, {info['cpu_model']}, "
          f"commit {info['git_commit'][:12]}, src lines {info['src_lines']}")
    units = dict(END_TO_END, call_p90_s="s", ops_failed_share="ratio")
    for key, value in e2e.items():
        count = result["setup_samples"] if key == "setup_s" else samples
        print(f"  {key:<18} {value:>14.6g} {units[key]:<6} (n={count})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if result["trace"]:
        print(f"  traced: {result['traced_samples']} calls, {result['span_count']} spans "
              f"-> {result['spans_file']}")
        for layer in tracing.TARGETS:
            print(f"  {layer:<10} self {result['per_layer'][f'{layer}.self_s']:.4f} s  "
                  f"share {result['per_layer'][f'{layer}.share']:.3f}  "
                  f"errors {result['per_layer'][f'{layer}.errors']:g}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.metric_specs()}
    else:
        metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def report(seed: int, seconds: float) -> int:
    """Every workload and probe in its own process, then one table."""
    rows = []
    for name in [*workloads.WHY, *workloads.PROBES]:
        # a probe goes once through its calls
        secs = 0 if name in workloads.PROBES else seconds
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(secs), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"workload {name} exited {done.returncode}")
            return done.returncode
        rows.append(json.loads((HERE / "results" / f"{name}-s{seed}-trace0.json").read_text()))
    print()
    print(f"{'workload':<18} {'setup_s':>9} {'ops_per_s':>10} {'call_p50_s':>11} "
          f"{'call_p90_s':>11} {'failed':>12} {'peak_rss_mb':>12}")
    for r in rows:
        e = r["end_to_end"]
        n = r["attempted"]
        p90 = f"{e['call_p90_s']:.4g}" if r["workload"] == "sweep_small" else "-"
        print(f"{r['workload']:<18} {e['setup_s']:>9.4g} {e['ops_per_s']:>10.4g} "
              f"{e['call_p50_s']:>11.4g} {p90:>11} {e['ops_failed_share']:>6.3f} of {n:<4} "
              f"{e['peak_rss_mb']:>12.1f}")
    print(f"units: s, 1/s, s, s, share of the calls attempted, MB; setup_s is the median "
          f"of {SETUP_REPEATS} set-ups, the call figures are over the calls attempted")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WHY, *workloads.PROBES])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true", help="run every workload and print a table")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gcwidth" / "cli.py").is_file():
        print(f"error: no gcwidth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required unless --report is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = HERE / "results" / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
