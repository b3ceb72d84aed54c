"""Benchmark harness for hilbertfn.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload

One client runs a closed loop: each seeded query is an argv list handed to
``hilbertfn.cli.run`` in this process, so parsing, dispatch, exit-code
mapping and rendering are timed exactly as a user gets them.  The batch is
repeated whole while another pass still fits in ``--seconds``.  Answers are
checked after the timed region (see ``check.py``).

``--trace 0`` prints the end-to-end metrics, with times scaled to the
reference host speed (see ``speed.py``); ``--trace 1`` runs each query of the
batch once untraced and once traced and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_RUNS = 11

# A fresh interpreter imports the package and builds the argument parser:
# everything cli.run does before it reads the first query.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hilbertfn, hilbertfn.cli
hilbertfn.cli.build_arg_parser()
print(time.perf_counter() - t0)
"""

# (name, unit) of the end-to-end metrics in BENCHMARK.json, in print order.
END_TO_END = (
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics in BENCHMARK.json: the work counts and ratios of every
# layer, and the self times of the layers that every workload runs.  The
# traced run prints every layer's self time as well.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("parser.parse_s", "s"),
    ("monomial.minimalize_s", "s"),
    ("monomial.minimalize_calls", "count"),
    ("monomial.gens_kept_ratio", "ratio"),
    ("engine.lattice_calls", "count"),
    ("engine.lattice_subsets", "count"),
    ("engine.syzygy_nodes", "count"),
    ("engine.syzygy_memo_hits", "count"),
    ("engine.syzygy_hit_ratio", "ratio"),
    ("engine.syzygy_memo_size", "count"),
    ("engine.annihilator_terms", "count"),
    ("kernels.calls", "count"),
    ("kernels.monomials", "count"),
    ("series.numerator_subsets", "count"),
    ("series.coeffs_per_subset", "ratio"),
    ("simplicial.nonfaces_calls", "count"),
    ("simplicial.subsets_scanned", "count"),
    ("simplicial.nonfaces_per_subset", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_share", "ratio"),
)


def import_program():
    """Import hilbertfn from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hilbertfn
    from hilbertfn import cli, kernels

    if Path(hilbertfn.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"hilbertfn was imported from {hilbertfn.__file__}, not {SRC}")
    return cli, kernels


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw seconds of each fresh-interpreter set-up, and the host speed
    factor measured just before each."""
    from speed import SpeedProbe

    times, factors = [], []
    for _ in range(SETUP_RUNS):
        probe = SpeedProbe()
        for _ in range(9):
            probe.sample()
        factors.append(probe.factor())
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip()))
    return times, factors


def run_pass(cli, queries, probe=None, marks=None):
    """One pass over the batch: wall seconds, per-query seconds, outputs.

    With a speed probe, a calibration slice runs between queries whenever
    one is due; its time is left out of the returned wall seconds, and
    ``marks`` gets the probe's sample count at the end of each query.
    """
    latencies = []
    outputs = []
    clock = time.perf_counter
    probing = 0.0
    t_pass = clock()
    for q in queries:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = clock()
            rc = cli.run(list(q.argv), out=out)
            dt = clock() - t0
        latencies.append(dt)
        outputs.append((rc, out.getvalue() if rc == 0 else err.getvalue()))
        if probe is None:
            continue
        marks.append(len(probe.samples))
        if probe.due():
            t0 = clock()
            probe.sample()
            probing += clock() - t0
    return clock() - t_pass - probing, latencies, outputs


def judge(queries, passes) -> tuple[int, int, list[str]]:
    """Check the first pass's answers; later passes must repeat them exactly.

    Returns the failed queries over all passes (unexpected exit code or
    wrong answer), the wrong answers among them, and messages for the first
    few failures.
    """
    from check import Checker

    first = passes[0]
    checker = Checker(queries, first)
    failed = wrong = 0
    messages = []
    for i, q in enumerate(queries):
        problem = checker.check(i)
        for outputs in passes:
            rc = outputs[i][0]
            bad = problem or (outputs[i] != first[i] and "answer changed between passes")
            if rc != 0:
                bad = f"exit code {rc}: {outputs[i][1].strip()[:80]}"
            if bad:
                failed += 1
                wrong += rc == 0
                if len(messages) < 5:
                    messages.append(f"{q.kind} {' '.join(q.argv[1:])[:120]}: {bad}")
    return failed, wrong, messages


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end(queries, seconds, cli) -> tuple[dict, dict, list, int]:
    """Times are in reference seconds: raw seconds times the speed factor."""
    from speed import SpeedProbe

    setup, setup_factors = measure_setup()
    probe = SpeedProbe()
    probe.sample()
    outputs, raw, marks = [], [], []
    kinds = [q.kind for q in queries]
    raw_wall = 0.0
    while True:
        dt, lat, out = run_pass(cli, queries, probe, marks)
        raw_wall += dt
        raw += lat
        outputs.append(out)
        if raw_wall + dt > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.sample()
    latencies = [t * probe.local_factor(k) for t, k in zip(raw, marks)]
    f = sum(latencies) / sum(raw)
    wall = raw_wall * f
    n = len(latencies)
    p50, p90 = statistics.median(latencies), quantile(latencies, 90)
    scaled_setup = [t * k for t, k in zip(setup, setup_factors)]
    metrics = {
        "queries_per_s": n / wall,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(scaled_setup),
    }
    extra = {}
    for kind in ("eval", "series", "table", "compare", "sr"):
        lat = [t for i, t in enumerate(latencies) if kinds[i % len(kinds)] == kind]
        if lat:
            extra[f"{kind}_p50_ms"] = (statistics.median(lat) * 1e3, "ms", f"{len(lat)} queries")
    notes = {
        "queries_per_s": f"{n} queries, {len(outputs)} passes, raw {n / raw_wall:.4g}/s in {raw_wall:.3f} s",
        "latency_p50_ms": f"{n} samples, raw {statistics.median(raw) * 1e3:.4g} ms",
        "latency_p90_ms": f"{n - int(0.9 * n)} samples above, raw {quantile(raw, 90) * 1e3:.4g} ms",
        "peak_rss_mb": "ru_maxrss after the timed passes",
        "setup_s": f"median of {len(setup)}, raw " + " ".join(f"{t:.4f}" for t in setup),
    }
    extra["speed_factor"] = (
        f, "ratio", f"reference / raw query time, from {len(probe.samples)} calibration slices",
    )
    return metrics, {"extra": extra, "notes": notes}, outputs, n


def per_layer(workload, queries, cli, meta) -> tuple[dict, dict, list, int]:
    """Run every query once untraced and once traced, alternating which goes
    first, so the overhead estimate is not skewed by the machine's speed
    drifting between two separate passes."""
    from spans import Tracer

    tracer = Tracer()
    untraced_lat, untraced_out, traced_lat, traced_out = [], [], [], []
    for qid, q in enumerate(queries):
        for traced in ((False, True) if qid % 2 == 0 else (True, False)):
            if traced:
                tracer.query_id = qid
                tracer.install()
            try:
                _, lat, out = run_pass(cli, [q])
            finally:
                tracer.uninstall()
            (traced_lat if traced else untraced_lat).extend(lat)
            (traced_out if traced else untraced_out).extend(out)
    untraced_wall, traced_wall = sum(untraced_lat), sum(traced_lat)

    self_s = tracer.self_times()
    c = tracer.counts
    m = {f"{layer}_s": t for layer, t in self_s.items()}
    m.update(c)
    m["monomial.gens_kept_ratio"] = c["monomial.gens_out"] / c["monomial.gens_in"] if c["monomial.gens_in"] else 0.0
    lookups = c["engine.syzygy_nodes"] + c["engine.syzygy_memo_hits"]
    m["engine.syzygy_hit_ratio"] = c["engine.syzygy_memo_hits"] / lookups if lookups else 0.0
    subsets = c["series.numerator_subsets"]
    m["series.coeffs_per_subset"] = c["series.numerator_coeffs"] / subsets if subsets else 0.0
    scanned = c["simplicial.subsets_scanned"]
    m["simplicial.nonfaces_per_subset"] = c["simplicial.nonfaces_found"] / scanned if scanned else 0.0
    m["trace.query_s"] = traced_wall
    m["trace.self_sum_s"] = sum(self_s.values())
    m["trace.accounted_share"] = sum(self_s.values()) / traced_wall
    m["trace.untraced_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = len(tracer.start)

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}-seed{meta['seed']}.json"
    tracer.write(span_file, meta)
    notes = {
        "trace.accounted_share": "span self times / traced query time",
        "trace.overhead_s": f"traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s",
        "trace.spans": f"written to {span_file.relative_to(ROOT)}",
    }
    return m, {"extra": {}, "notes": notes}, [untraced_out, traced_out], 2 * len(queries)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_subset")):
        return "ratio"
    return "count"


def run_workload(args) -> int:
    import workloads

    try:
        cli, kernels = import_program()
    except ImportError as exc:
        print(f"cannot import hilbertfn from {SRC}: {exc}", file=sys.stderr)
        return 2
    queries = workloads.WORKLOADS[args.workload](args.seed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "queries_per_pass": len(queries),
        "have_compiled_kernel": kernels.HAVE_COMPILED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("meta " + json.dumps(meta))
    if args.trace:
        metrics, info, passes, attempted = per_layer(args.workload, queries, cli, meta)
        declared = PER_LAYER
    else:
        metrics, info, passes, attempted = end_to_end(queries, args.seconds, cli)
        declared = END_TO_END
    t_check = time.perf_counter()
    failed, wrong, messages = judge(queries, passes)
    check_s = time.perf_counter() - t_check
    info["extra"]["failed_share"] = (failed / attempted, "ratio", f"{failed} of {attempted}")
    info["extra"]["wrong_answers"] = (wrong, "count", "exit code 0 but the check failed")

    rows = [(name, metrics[name], unit, info["notes"].get(name, "")) for name, unit in declared]
    listed = {name for name, _ in declared}
    rows += [(name, metrics[name], unit_of(name), info["notes"].get(name, ""))
             for name in sorted(metrics) if name not in listed]
    rows += [(name, v, unit, note) for name, (v, unit, note) in info["extra"].items()]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"kernel {'compiled' if meta['have_compiled_kernel'] else 'pure'}")
    for name, value, unit, note in rows:
        print(f"  {name:32} {value!r:>24} {unit:6} {note}")
    print(f"  answers checked in {check_s:.3f} s, outside the timed region")
    for msg in messages:
        print(f"  wrong: {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    import workloads

    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        last = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
