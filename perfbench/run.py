"""Planner benchmark: one workload per run, end to end or traced.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 20 --trace 0

Workloads: ``cold-compile``, ``serve-fleet``, ``what-if-sim``,
``drift-replan`` (see ``perfbench/README.md``).

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), measures it for ``--seconds`` and prints the end-to-end
metrics.  Their wall times are scaled to a reference host speed that
the run probes between operations (see ``perfbench/hostspeed.py``).  ``--trace 1`` runs the workload's fixed prefix twice, first
untraced and then with every layer's public functions wrapped in spans,
checks that both runs produced exactly the same deterministic values,
and prints the per-layer metrics and the tracing overhead.  It also
writes the per-layer self-time table and a Chrome trace (open it in
Perfetto) under ``.perfbench/``.

Every run compares its deterministic values (simulated ms and work
counts) with those of earlier runs of the same workload, seed and
source tree, recorded under ``.perfbench/records/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import sys
import time

# pin BLAS / OpenMP pools before numpy is imported: one thread each, so
# a run's wall times do not depend on how busy the other cores are
# (``main`` also pins the process to one CPU)
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: set-ups per untraced run: at least SETUP_REPEATS, then more while
#: they have taken less than SETUP_BUDGET_S in all, up to SETUP_MAX, so
#: that a set-up of a tenth of a second gets a steady median as well;
#: ``setup_s`` is their median
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX = 15

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "plan_iter_ms": "ms",
    "exposed_a2a_ms": "ms",
    "predict_err_pct": "%",
}

#: per-layer counts: name -> unit (ms metrics come from spans.SITES)
LAYER_COUNTS = {
    "core.infer_axes.calls": "count",
    "core.pack_lane.calls": "count",
    "core.cost_evals": "count",
    "core.pipeline_sims": "count",
    "core.profiled_ops": "count",
    "core.a2a_cache.hit_ratio": "ratio",
    "core.planner_cache.hit_ratio": "ratio",
    "core.dw_moved": "count",
    "ir.instructions_out": "count",
    "pipeline.candidates_simulated": "count",
    "serving.origin.memory": "count",
    "serving.origin.store": "count",
    "serving.origin.nearest": "count",
    "serving.origin.planned": "count",
    "serving.origin.stale": "count",
    "serving.origin.baseline": "count",
    "serving.planner_runs": "count",
    "serving.coalesced": "count",
    "serving.hot_swaps": "count",
    "serving.store_retries": "count",
    "serving.errors": "count",
    "api.store_bytes": "bytes",
    "runtime.sim_events": "count",
    "runtime.sim_iters_per_s": "1/s",
    "placement.searches": "count",
    "placement.evaluations": "count",
    "placement.bottleneck_ms": "ms",
    "train.reoptimizations": "count",
    "train.plan_cache.hit_ratio": "ratio",
    "bench.trace_overhead_pct": "%",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources: records are
    only compared between runs of the same program and benchmark."""
    bench = pathlib.Path(__file__).resolve().parent
    files = [*(SRC / "repro").rglob("*.py"), *bench.glob("*.py"), ROOT / "BENCHMARK.json"]
    h = hashlib.sha256()
    for path in sorted(f for f in files if f.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_record(workload: str, seed: int, det: dict) -> tuple[bool, str]:
    """Check ``det`` against the record of an earlier run of the same
    workload, seed and source tree (or create that record)."""
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload}-{seed}-{source_digest()}.json"
    if not path.exists():
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(det, sort_keys=True))
        os.replace(tmp, path)
        return True, "first run of this seed: record written"
    earlier = json.loads(path.read_text())
    diff = sorted(k for k in set(earlier) | set(det) if earlier.get(k) != det.get(k))
    return not diff, f"differs in {diff}" if diff else "matches the earlier run"


def report_checks(result) -> None:
    for name, ok, detail in result.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")


def run_untraced(wl, args) -> tuple[dict, object]:
    import workloads
    from hostspeed import HostSpeed

    speed = HostSpeed(wl.HOST_REFERENCE)
    setups, state = [], None  # (start, end) of each set-up
    while len(setups) < SETUP_REPEATS or (
        sum(t1 - t0 for t0, t1 in setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX
    ):
        if state is not None:
            wl.close(state)
        speed.probe(force=True)
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setups.append((t0, time.perf_counter()))
    try:
        result = wl.run(state, args.seconds, prefix_only=False, speed=speed)
    finally:
        wl.close(state)
    speed.probe(force=True)

    def ms_lists(spans_by_kind: dict, scaled: bool) -> dict:
        return {
            kind: [speed.scaled_ms(t0, t1) if scaled else (t1 - t0) * 1e3 for t0, t1 in spans]
            for kind, spans in spans_by_kind.items()
        }

    lat = ms_lists(result.latencies, scaled=True)
    raw = ms_lists(result.latencies, scaled=False)
    blocks = [ms_lists(b, scaled=True) for b in result.blocks]
    count = sum(len(v) for v in lat.values())

    def kind_quantile(kind: str, q: float) -> float:
        if blocks:
            return statistics.fmean(percentile(b[kind], q) for b in blocks if b.get(kind))
        return percentile(lat[kind], q)

    def quantile(q: float) -> float:
        # each operation kind gets its own percentile, and the metric is
        # their geometric mean; 0 only when every operation failed, which
        # makes the run incorrect
        if not count:
            return 0.0
        return workloads.geomean(kind_quantile(kind, q) for kind in lat)

    # the window at the reference speed: scaled by the operations'
    # time-weighted mean scale
    summed_raw = sum(sum(v) for v in raw.values())
    window_scale = sum(sum(v) for v in lat.values()) / summed_raw if summed_raw else 1.0
    metrics = {
        "setup_s": statistics.median(speed.scaled_ms(t0, t1) / 1e3 for t0, t1 in setups),
        "peak_rss_mb": workloads.peak_rss_mb(),
        "op_ms_p50": quantile(0.5),
        "op_ms_p90": quantile(0.9),
        "ops_per_s": count / (result.window_s * window_scale),
    }
    for name in ("plan_iter_ms", "exposed_a2a_ms", "predict_err_pct"):
        # missing only when a prefix operation failed, which already
        # makes the run incorrect
        metrics[name] = result.det.get(name, 0.0)
    print(
        f"{wl.name}: {count} operations in {result.window_s:.2f} s, "
        f"set-up times {[round(t1 - t0, 4) for t0, t1 in setups]} s"
    )
    print(
        f"host speed: {len(speed.ms)} probes, reference computation "
        f"p10/p50/p90 {percentile(speed.ms, 0.1):.4f}/{percentile(speed.ms, 0.5):.4f}/"
        f"{percentile(speed.ms, 0.9):.4f} ms; window scale {window_scale:.4f}; "
        f"wall (unscaled) op_ms_p50 "
        f"{workloads.geomean(percentile(v, 0.5) for v in raw.values()) if count else 0.0:.4f}, "
        f"ops_per_s {count / result.window_s:.2f}"
    )
    # percentiles at reference speed, wall p50 unscaled; share: the
    # kind's summed wall time over that of every timed operation
    side, side_raw = ms_lists(result.side, scaled=True), ms_lists(result.side, scaled=False)
    rows = [(kind, lat[kind], raw[kind]) for kind in lat] + [
        (f"{kind} (side)", side[kind], side_raw[kind]) for kind in side
    ]
    summed = sum(sum(w) for _, _, w in rows) or 1.0
    print(f"  {'operation':<26}{'n':>7}{'p50 ms':>12}{'p90 ms':>12}{'p99 ms':>12}"
          f"{'wall p50':>12}{'share':>9}")
    for kind, values, wall in rows:
        # p99 only where at least ten samples lie beyond it
        p99 = f"{percentile(values, 0.99):>12.3f}" if len(values) >= 1000 else f"{'-':>12}"
        print(f"  {kind:<26}{len(values):>7}{percentile(values, 0.5):>12.3f}"
              f"{percentile(values, 0.9):>12.3f}{p99}{percentile(wall, 0.5):>12.3f}"
              f"{sum(wall) / summed:>9.1%}")
    for name, value in sorted(result.counts.items()):
        print(f"  {name} = {value}")
    return metrics, result


def run_traced(wl, args) -> tuple[dict, object]:
    import spans

    state = wl.setup(args.seed)
    try:
        plain = wl.run(state, args.seconds, prefix_only=True)
    finally:
        wl.close(state)
    tracer = spans.Tracer()
    state = wl.setup(args.seed)
    tracer.install()
    try:
        traced = wl.run(state, args.seconds, prefix_only=True, on_window_end=tracer.stop,
                        pause=tracer.paused)
    finally:
        tracer.uninstall()
        wl.close(state)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.checks[:0] = plain.checks
    diff = sorted(
        k for k in set(plain.det) | set(traced.det) if plain.det.get(k) != traced.det.get(k)
    )
    traced.check(
        "traced run repeats the untraced run's deterministic values",
        not diff,
        f"differs in {diff}" if diff else f"{len(traced.det)} values equal",
    )
    totals = tracer.totals()
    metrics = {}
    for name in spans.SITES:
        metrics[f"{name}.ms"] = totals.get(name, {}).get("ms", 0.0)
    for name in spans.COUNTED:
        metrics[f"{name}.calls"] = totals.get(name, {}).get("calls", 0)
    overhead = (traced.window_s / plain.window_s - 1.0) * 100.0
    for name in LAYER_COUNTS:
        if name in traced.det:
            metrics[name] = traced.det[name]
        elif name in traced.counts:
            metrics[name] = traced.counts[name]
        elif name not in metrics:
            metrics[name] = 0
    metrics["bench.trace_overhead_pct"] = overhead

    STATE.mkdir(parents=True, exist_ok=True)
    stem = STATE / f"trace-{wl.name}-{args.seed}"
    table = tracer.layer_table()
    stem.with_suffix(".txt").write_text(table + "\n")
    stem.with_suffix(".json").write_text(json.dumps(tracer.chrome_trace(wl.name)))
    print(f"{wl.name}: per-layer self time over the traced prefix "
          f"({traced.window_s:.2f} s traced, {plain.window_s:.2f} s untraced, "
          f"overhead {overhead:+.2f}%)")
    print(table)
    print(f"chrome trace: {stem.with_suffix('.json').relative_to(ROOT)}")
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for every thread of the run: Python threads take turns
        # on one interpreter lock anyway, and handing it to a thread on
        # another CPU made serving slower and its latencies swing with
        # the host's load (serve-fleet thus measures single-core serving)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = STATE / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, scratch)

    if args.trace:
        metrics, result = run_traced(wl, args)
        units = {f"{n}.ms": "ms" for n in spans.SITES}
        units.update(LAYER_COUNTS)
    else:
        metrics, result = run_untraced(wl, args)
        units = END_TO_END
    ok, detail = compare_record(args.workload, args.seed, result.det)
    result.check("deterministic values repeat across runs", ok, detail)
    report_checks(result)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
