"""The four benchmark workloads and their seeded input generators.

Each workload is a class with the same three calls:

- ``setup(seed)`` builds the inputs from the seed and pays every cost a
  user pays once per process (plans compiled ahead, servers started);
- ``run(state, seconds, prefix_only, speed=)`` drives the closed-loop
  client(s), probing the host's speed between operations, and returns
  a :class:`Result`: per-operation wall-clock intervals, the
  output checks, and the deterministic values (simulated ms and work
  counts) of the run's fixed prefix;
- ``close(state)`` releases what ``setup`` opened.

The generators live here, not in ``repro.bench``, so that editing a
paper figure cannot silently change a workload.
"""

from __future__ import annotations

import contextlib
import math
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

from hostspeed import HostSpeed

from repro import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    LancetOptimizer,
    PlacementOptimizer,
    PlanServer,
    PlanStore,
    ReoptimizingTrainer,
    Scenario,
    SimulationConfig,
    SyntheticRoutingModel,
    compile,
    simulate_program,
)
import repro.pipeline
from repro.api import available_presets
from repro.api.compiler import resolve_workload
from repro.pipeline import StagedCluster, simulate_staged, split_stages
from repro.runtime.simulate import observed_routing_signatures, simulate_cluster_batch


@dataclass
class Result:
    """What one measured run of a workload produced."""

    #: probes of the host's speed taken during the run
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: (start, end) perf_counter seconds of every completed operation,
    #: by operation kind
    latencies: dict = field(default_factory=dict)
    #: (start, end) of timed operations outside the measurement window,
    #: by kind
    side: dict = field(default_factory=dict)
    #: the latencies again, split by block, for workloads whose
    #: percentiles are taken per block and then averaged over blocks
    blocks: list = field(default_factory=list)
    #: wall seconds of the measurement window (side work and host-speed
    #: probes excluded)
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail)
    checks: list = field(default_factory=list)
    #: deterministic outputs of the fixed prefix: simulated ms and
    #: work counts that must repeat exactly for the same seed
    det: dict = field(default_factory=dict)
    #: run-dependent counts (serving origins under two racing clients)
    counts: dict = field(default_factory=dict)

    def record(self, kind: str, t0: float, t1: float) -> None:
        self.latencies.setdefault(kind, []).append((t0, t1))
        if self.blocks:
            self.blocks[-1].setdefault(kind, []).append((t0, t1))

    def record_side(self, kind: str, t0: float, t1: float) -> None:
        self.side.setdefault(kind, []).append((t0, t1))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append((name, bool(ok), detail))


def _op_failed(result: Result, label: str) -> None:
    """Count a raising operation as failed and keep the run going."""
    result.failed += 1
    print(f"operation {label} failed:\n{traceback.format_exc()}", flush=True)


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def ground_truth(plan, routing=None):
    """(iteration ms, exposed all-to-all ms) of a plan under ``routing``
    (default: the plan's own scenario).  Staged plans are timed as the
    whole pipelined iteration; their exposed all-to-all is that of one
    microbatch on one stage subgroup."""
    if routing is None:
        routing = plan.scenario.routing_model()
    timeline = plan.simulate(routing=routing)
    exposed = timeline.exposed_time_of({"all_to_all"})
    if plan.stage_map is None:
        return timeline.makespan, exposed
    sm = plan.stage_map
    split = split_stages(
        plan.program, StagedCluster.from_layer_counts(plan.cluster, sm.layer_counts)
    )
    sim = simulate_staged(
        split, sm.microbatches, schedule=sm.schedule, routing=routing, padded_a2a=False
    )
    return sim.makespan, exposed


def error_pct(predicted: float, simulated: float) -> float:
    return abs(predicted - simulated) / simulated * 100.0


def own_error_pct(plan) -> float:
    """Prediction error of a plan under the routing it was compiled for."""
    return error_pct(plan.predicted_iteration_ms, ground_truth(plan)[0])


#: fresh routing realizations each plan's ground truth is averaged over
QUALITY_DRAWS = 8


def fresh_routings(plan, rng: random.Random, k: int = QUALITY_DRAWS):
    """``k`` seeded realizations of the plan's own routing distribution."""
    return [
        plan.scenario.with_(routing_seed=rng.randrange(1, 10**6)).routing_model()
        for _ in range(k)
    ]


def plan_quality(plans, draws) -> dict:
    """The three simulated plan metrics over a set of plans.

    ``plan_iter_ms`` is the geometric mean over plans of the mean
    ground-truth iteration under the plan's ``draws``; ``exposed_a2a_ms``
    the mean over every (plan, draw); ``predict_err_pct`` the mean over
    plans of the prediction's error against the ground truth of the
    routing the plan was compiled for.
    """
    iters, exposed, errors = [], [], []
    for plan, routings in zip(plans, draws):
        runs = [ground_truth(plan, r) for r in routings]
        iters.append(statistics.fmean(gt for gt, _ in runs))
        exposed.extend(exp for _, exp in runs)
        errors.append(own_error_pct(plan))
    return {
        "plan_iter_ms": geomean(iters),
        "exposed_a2a_ms": statistics.fmean(exposed),
        "predict_err_pct": statistics.fmean(errors),
    }


def compile_counts(plan) -> dict:
    """Deterministic planner work counts of one compiled plan."""
    if plan.stage_map is not None:
        reports = [
            r for stage in plan.planner["stage_reports"] for r in stage.values()
            if isinstance(r, dict)
        ]
        candidates = len(plan.planner["stage_candidates"])
    else:
        reports = [plan.planner]
        candidates = 0
    out = {
        "core.cost_evals": sum(r.get("num_cost_evals", 0) for r in reports),
        "core.pipeline_sims": sum(r.get("num_pipeline_sims", 0) for r in reports),
        "core.profiled_ops": sum(r.get("profiled_ops", 0) for r in reports),
        "core.dw_moved": sum(r.get("num_dw_moved", 0) for r in reports),
        "ir.instructions_out": plan.num_instructions(),
        "pipeline.candidates_simulated": candidates,
    }
    if plan.report is not None:
        out.update(cache_counts(plan.report.cache_stats))
    return out


def cache_counts(stats: dict) -> dict:
    """Hits and lookups of the a2a-estimate and planner caches."""
    a2a = stats["a2a_estimates"]
    planner = [v for k, v in stats.items() if k.startswith("planner_") and isinstance(v, dict) and "hits" in v]
    return {
        "a2a_hits": a2a["hits"],
        "a2a_lookups": a2a["hits"] + a2a["misses"],
        "planner_hits": sum(v["hits"] for v in planner),
        "planner_lookups": sum(v["hits"] + v["misses"] for v in planner),
    }


def add_counts(total: dict, more: dict) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


def finish_ratios(det: dict) -> None:
    """Fold raw hit/lookup counts into the reported hit ratios."""
    if "a2a_lookups" in det:
        det["core.a2a_cache.hit_ratio"] = _ratio(
            det.pop("a2a_hits"), det.pop("a2a_lookups")
        )
        det["core.planner_cache.hit_ratio"] = _ratio(
            det.pop("planner_hits"), det.pop("planner_lookups")
        )


def _nothing() -> None:
    pass


def _keep_going(elapsed: float, seconds: float, done: int, minimum: int, unit_s: float) -> bool:
    """Closed-loop stop rule over whole cycles: run ``minimum`` cycles,
    then another only if it still fits in the measurement window."""
    if done < minimum:
        return True
    return elapsed + unit_s <= seconds


# ---------------------------------------------------------------------------
# cold-compile
# ---------------------------------------------------------------------------


class ColdCompile:
    """One closed-loop client compiling the three ROADMAP presets with no
    store, over and over; one operation is one ``repro.compile`` call."""

    name = "cold-compile"
    HOST_REFERENCE = "interpreter"
    PRESETS = (
        "gpt2-s-moe/a100x16",
        "gpt2-l-moe/a100x64-hot",
        "gpt2-s-moe/a100x16-pp2x4",
    )
    #: tiny presets compiled during set-up so that lazy imports and
    #: first-call costs are not charged to the timed compiles
    PRIMERS = ("tiny/a100x8", "tiny/a100x8-hot-pp2x4")

    def setup(self, seed: int):
        for name in self.PRIMERS:
            compile(Scenario.preset(name))
        return {
            "scenarios": [Scenario.preset(name) for name in self.PRESETS],
            "rng": random.Random(seed),
            "quality_seed": seed,
        }

    def run(self, state, seconds: float, prefix_only: bool, on_window_end=_nothing,
            speed=None, pause=contextlib.nullcontext) -> Result:
        res = Result(speed=speed or HostSpeed(self.HOST_REFERENCE))
        rng = state["rng"]
        # only the first pass's plans stay alive: a heap that grew with
        # every pass would slow each later compile's garbage collections
        first: dict = {}  # preset index -> plan
        second: dict = {}  # preset index -> (fingerprint, predicted ms, counts)
        pass_s: list[float] = []
        res.speed.probe(force=True)
        probed_s = res.speed.spent_s
        started = time.perf_counter()

        def window() -> float:
            return time.perf_counter() - started - (res.speed.spent_s - probed_s)

        while _keep_going(
            window(),
            0.0 if prefix_only else seconds,
            len(pass_s),
            1 if prefix_only else 2,
            statistics.fmean(pass_s) if pass_s else 0.0,
        ):
            order = rng.sample(range(len(self.PRESETS)), len(self.PRESETS))
            t_pass = time.perf_counter()
            for i in order:
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    plan = compile(state["scenarios"][i])
                except Exception:
                    _op_failed(res, self.PRESETS[i])
                    continue
                res.record(self.PRESETS[i], t0, time.perf_counter())
                res.speed.probe()
                if not pass_s:
                    first[i] = plan
                elif len(pass_s) == 1:
                    second[i] = (plan.fingerprint, plan.predicted_iteration_ms,
                                 compile_counts(plan))
                del plan
            pass_s.append(time.perf_counter() - t_pass)
        res.window_s = window()
        on_window_end()

        if len(first) == len(self.PRESETS):
            ordered = [first[i] for i in range(len(self.PRESETS))]
            draws = random.Random(state["quality_seed"])
            res.det.update(
                plan_quality(ordered, [fresh_routings(p, draws) for p in ordered])
            )
            for plan in ordered:
                add_counts(res.det, compile_counts(plan))
            finish_ratios(res.det)
        for i, name in enumerate(self.PRESETS):
            if i not in first or i not in second:
                continue
            a, (fingerprint, predicted, cb) = first[i], second[i]
            res.check(
                f"repeat compile of {name} reproduces the plan",
                a.fingerprint == fingerprint and a.predicted_iteration_ms == predicted,
                f"{a.predicted_iteration_ms} vs {predicted}",
            )
            ca = compile_counts(a)
            keys = ("core.cost_evals", "core.profiled_ops")
            res.check(
                f"second cold compile of {name} is cold",
                all(ca[k] == cb[k] for k in keys),
                str({k: (ca[k], cb[k]) for k in keys}),
            )
        return res

    def close(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-fleet
# ---------------------------------------------------------------------------


#: one block of the serve-fleet stream: a planning phase, then a serving
#: phase.  The shares are an assumption, not measured traffic (no serving
#: trace exists to derive them from); they are chosen so that planner
#: work stays a small share of the run, which the run prints.
SERVE_PLANNING = {
    "near": 1,  # fresh routing seed of a served workload: nearest + hot swap
    "new": 1,  # structurally new workload: planner run
    "burst": 1,  # identical concurrent requests of a new workload
}
SERVE_SERVING = {
    "warm": 4250,  # repeat of a served workload: memory hit
    "store": 750,  # served workload through a memoryless second server
}
BURST_SIZE = 8
SERVE_CLIENTS = 2


def serve_suite(seed: int) -> list[Scenario]:
    """The tiny-model variant of every scenario preset: cluster kind,
    gate, skew knobs and pipeline shape kept, routing seed drawn from
    the workload seed (distinct per preset)."""
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 10**6), len(available_presets()))
    suite = []
    for routing_seed, name in zip(seeds, available_presets()):
        base = Scenario.preset(name)
        suite.append(
            Scenario(
                model="tiny",
                cluster=base.cluster,
                num_gpus=8,
                gate=base.gate,
                routing_seed=routing_seed,
                concentration=base.concentration,
                hot_experts=base.hot_experts,
                hot_boost=base.hot_boost,
                pipeline_stages=base.pipeline_stages,
                microbatches=base.microbatches,
            )
        )
    return suite


def serve_blocks(seed: int, suite: list[Scenario]):
    """Endless seeded stream of ``(planning, serving)`` request blocks
    over an already served suite.

    Both phases are lists of ``(kind, scenario)`` pairs in a seeded
    order.  New workloads come from a seeded permutation of (cluster,
    GPUs, batch, seq) shapes no suite target has; they join the served
    set, so later serving phases repeat them.
    """
    rng = random.Random(seed + 1)
    shapes = [
        (cluster, gpus, batch, seq)
        for cluster in ("a100", "v100")
        for gpus in (8, 16)
        for batch in range(1, 9)
        for seq in range(8, 33, 4)
        if (gpus, batch, seq) != (8, 4, 32)
    ]
    rng.shuffle(shapes)
    planning_kinds = [kind for kind, n in SERVE_PLANNING.items() for _ in range(n)]
    serving_kinds = [kind for kind, n in SERVE_SERVING.items() for _ in range(n)]
    seen = list(suite)
    fresh_seed = 2 * 10**6
    while True:
        planning = []
        rng.shuffle(planning_kinds)
        for kind in planning_kinds:
            if kind == "near":
                fresh_seed += 1
                planning.append((kind, rng.choice(suite).with_(routing_seed=fresh_seed)))
                continue
            cluster, gpus, batch, seq = shapes.pop()
            sc = Scenario(
                model="tiny",
                cluster=cluster,
                num_gpus=gpus,
                batch=batch,
                seq=seq,
                routing_seed=rng.randrange(1, 10**6),
            )
            seen.append(sc)
            planning.append((kind, sc))
        rng.shuffle(serving_kinds)
        yield planning, [(kind, rng.choice(seen)) for kind in serving_kinds]


class ServeFleet:
    """A ``PlanServer`` over a fresh store, driven block by block; one
    operation is one request.

    Each block first sends its planning requests (near misses, new
    workloads, bursts) from one client and drains the server, then lets
    two closed-loop clients share its serving requests (memory hits and
    store reads).  Only the serving phases are the measurement window,
    so planner runs never overlap the latencies it reports; the planning
    requests are timed and printed on their own.  Set-up starts the
    servers and plans every suite target (the fleet's first requests).

    Latency percentiles are taken per block and averaged over blocks:
    the host can switch between a fast and a ~1.7x slower speed within
    seconds, and a percentile over the whole run jumps between the two
    speeds with the share of time spent in each, while a mean over
    blocks moves with that share smoothly."""

    name = "serve-fleet"
    HOST_REFERENCE = "interpreter"

    def __init__(self, scratch_root) -> None:
        self.scratch_root = scratch_root

    def setup(self, seed: int):
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch_root)
        store = PlanStore(root)
        suite = serve_suite(seed)
        server = PlanServer(store, max_workers=SERVE_CLIENTS)
        # the fleet's first request for every target plans it
        for sc in suite:
            server.serve(sc)
        server.drain()
        return {
            "root": root,
            "quality_seed": seed,
            "suite": suite,
            "blocks": serve_blocks(seed, suite),
            # scenario -> its resolve_workload fingerprint
            "fingerprints": {},
            "server": server,
            # a second server with no memory cache stands in for another
            # process reading the shared store
            "reader": PlanServer(store, max_workers=SERVE_CLIENTS, memory_cache_size=0),
        }

    def _plan_phase(self, state, planning, res: Result, served: list) -> None:
        """One client sends the block's planning requests, then the
        server drains (hot swaps land); timed as side work."""
        server = state["server"]
        for kind, sc in planning:
            count = BURST_SIZE if kind == "burst" else 1
            res.attempted += count
            t0 = time.perf_counter()
            try:
                futures = [server.submit(sc) for _ in range(count)]
                answers = [f.result() for f in futures]
            except Exception:
                _op_failed(res, kind)
                res.failed += count - 1
                continue
            res.record_side(kind, t0, time.perf_counter())
            served.extend((sc, answer) for answer in answers)
        t0 = time.perf_counter()
        server.drain()
        res.record_side("drain", t0, time.perf_counter())

    def _serve_phase(self, state, serving, res: Result, served: list) -> None:
        """Two closed-loop clients share the block's serving requests."""
        server, reader = state["server"], state["reader"]
        lock = threading.Lock()
        cursor = [0]

        def client() -> None:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= len(serving):
                        return
                    cursor[0] += 1
                kind, sc = serving[i]
                t0 = time.perf_counter()
                try:
                    answer = (reader if kind == "store" else server).serve(sc)
                except Exception:
                    with lock:
                        _op_failed(res, kind)
                    continue
                t1 = time.perf_counter()
                with lock:
                    res.record(kind, t0, t1)
                    served.append((sc, answer))

        res.attempted += len(serving)
        res.blocks.append({})
        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    @staticmethod
    def _tally(state, served: list, tally: dict) -> None:
        """Check a block's answers and count them by origin, so that no
        answer is kept beyond its block: every answer must carry its
        request's workload identity."""
        fingerprints = state["fingerprints"]
        for sc, answer in served:
            if sc not in fingerprints:
                fingerprints[sc] = resolve_workload(sc).fingerprint
            tally["wrong"] += answer.plan.fingerprint != fingerprints[sc]
            tally[answer.origin] = tally.get(answer.origin, 0) + 1
        tally["answered"] += len(served)
        served.clear()

    def run(self, state, seconds: float, prefix_only: bool, on_window_end=_nothing,
            speed=None, pause=contextlib.nullcontext) -> Result:
        res = Result(speed=speed or HostSpeed(self.HOST_REFERENCE))
        served: list = []  # (scenario, ServeResult) of the current block
        tally = {"answered": 0, "wrong": 0}
        blocks, planning_s = 0, 0.0
        started = time.perf_counter()
        while _keep_going(
            time.perf_counter() - started,
            0.0 if prefix_only else seconds,
            blocks,
            1 if prefix_only else 2,
            (time.perf_counter() - started) / blocks if blocks else 0.0,
        ):
            planning, serving = next(state["blocks"])
            t0 = time.perf_counter()
            self._plan_phase(state, planning, res, served)
            # probes on both sides of every serving phase, outside it
            res.speed.probe(force=True)
            t1 = time.perf_counter()
            self._serve_phase(state, serving, res, served)
            t2 = time.perf_counter()
            res.speed.probe(force=True)
            planning_s += t1 - t0
            res.window_s += t2 - t1
            with pause():
                self._tally(state, served, tally)
            blocks += 1
        on_window_end()
        total_s = time.perf_counter() - started
        res.counts["serve.planning_wall_pct"] = round(100.0 * planning_s / total_s, 2)
        res.counts["serve.serving_wall_pct"] = round(100.0 * res.window_s / total_s, 2)

        issued, answered = res.attempted, tally.pop("answered")
        wrong = tally.pop("wrong")
        res.check(
            "every served plan matches its request's fingerprint",
            wrong == 0,
            f"{wrong} of {answered} mismatched",
        )
        res.check(
            "no request went unanswered",
            answered == issued,
            f"{answered} answers for {issued} requests",
        )

        # the exact plans of the suite, once every hot swap has landed
        server, reader = state["server"], state["reader"]
        exact = [server.serve(sc).plan for sc in state["suite"]]
        draws = random.Random(state["quality_seed"])
        res.det.update(plan_quality(exact, [fresh_routings(p, draws) for p in exact]))

        origins = {o: 0 for o in ("memory", "store", "nearest", "planned", "stale", "baseline")}
        origins.update(tally)
        stats = server.stats()
        counters = stats["server"]
        reader_counters = reader.stats()["server"]
        res.counts.update({f"serving.origin.{k}": v for k, v in origins.items()})
        for key in ("planner_runs", "coalesced", "hot_swaps", "store_retries", "errors"):
            res.counts[f"serving.{key}"] = counters[key] + reader_counters[key]
        res.counts["api.store_bytes"] = stats["store_bytes"]
        return res

    def close(self, state) -> None:
        state["server"].close()
        state["reader"].close()
        shutil.rmtree(state["root"], ignore_errors=True)


# ---------------------------------------------------------------------------
# what-if-sim
# ---------------------------------------------------------------------------


#: scenarios simulated in one batched call
BATCH_SCENARIOS = 16
#: routing realizations per cycle for the cheap per-plan simulations
CYCLE_ROUTINGS = 9


WHATIF_CONCENTRATIONS = (8.0, 16.0, 32.0)


def whatif_routing(rng: random.Random) -> SyntheticRoutingModel:
    """A hot-expert routing realization near the presets' own skew."""
    return SyntheticRoutingModel(
        seed=rng.randrange(1, 10**6),
        concentration=rng.choice(WHATIF_CONCENTRATIONS),
        hot_experts=2,
        hot_boost=rng.uniform(0.55, 0.8),
    )


def whatif_routings(rng: random.Random, k: int) -> list[SyntheticRoutingModel]:
    """``k`` realizations from the same distribution as
    :func:`whatif_routing`, stratified: each concentration gets an equal
    share of the draws and the boosts fall one in each of ``k`` equal
    slices of their range, so the simulated means over a cycle depend
    less on the seed (with six free draws, exposed all-to-all read an
    IQR of 12-19% of its median over ten seeds; stratified, 4.6%)."""
    concentrations = [WHATIF_CONCENTRATIONS[i % len(WHATIF_CONCENTRATIONS)] for i in range(k)]
    rng.shuffle(concentrations)
    routings = [
        SyntheticRoutingModel(
            seed=rng.randrange(1, 10**6),
            concentration=concentration,
            hot_experts=2,
            hot_boost=0.55 + 0.25 * (i + rng.random()) / k,
        )
        for i, concentration in enumerate(concentrations)
    ]
    rng.shuffle(routings)
    return routings


def whatif_fault(rng: random.Random, cluster) -> FaultSchedule:
    kind = rng.choice(("straggler", "nic_degrade"))
    if kind == "straggler":
        spec = FaultSpec("straggler", rng.randrange(cluster.num_gpus), rng.uniform(1.2, 3.0))
    else:
        spec = FaultSpec("nic_degrade", rng.randrange(cluster.num_nodes), rng.uniform(0.25, 0.75))
    return FaultSchedule([spec])


def _same_timeline(a, b) -> bool:
    """Bit-identity of two cluster timelines (every interval of every
    device, exact float equality)."""
    if a.num_devices != b.num_devices:
        return False
    for d in range(a.num_devices):
        ia, ib = a.device(d).intervals, b.device(d).intervals
        if [(i.uid, i.stream, i.start, i.end) for i in ia] != [
            (i.uid, i.stream, i.start, i.end) for i in ib
        ]:
            return False
    return True


class WhatIfSim:
    """Plans compiled in set-up, simulated under seeded routing, straggler
    and NIC-fault scenarios; one operation is one simulation call.

    A cycle draws nine routing realizations and simulates each with
    ``Plan.simulate`` of both plans and ``simulate_staged`` of the staged
    plan, then makes one scalar 64-GPU ``FaultInjector.simulate`` call
    and one ``simulate_cluster_batch`` call over 16 scenarios that
    include the scalar call's scenario."""

    name = "what-if-sim"
    #: the simulators are numpy-heavy (see hostspeed.REFERENCES)
    HOST_REFERENCE = "memory"
    PRESETS = ("gpt2-l-moe/a100x64-hot", "gpt2-s-moe/a100x16-pp2x4")

    def setup(self, seed: int):
        flat, staged = (compile(Scenario.preset(n)) for n in self.PRESETS)
        sm = staged.stage_map
        split = split_stages(
            staged.program, StagedCluster.from_layer_counts(staged.cluster, sm.layer_counts)
        )
        return {"flat": flat, "staged": staged, "split": split, "rng": random.Random(seed)}

    def _calls(self, state):
        """The cycle's calls: (label, callable, simulated device-instruction
        events, simulated iterations)."""
        rng = state["rng"]
        flat, staged, split = state["flat"], state["staged"], state["split"]
        sm = staged.stage_map
        n_flat, g_flat = flat.num_instructions(), flat.cluster.num_gpus
        n_staged = staged.num_instructions()
        calls = []
        for routing in whatif_routings(rng, CYCLE_ROUTINGS):
            calls += [
                ("flat", lambda r=routing: flat.simulate(routing=r), n_flat, 1),
                ("staged", lambda r=routing: staged.simulate(routing=r), n_staged, 1),
                ("pipeline", lambda r=routing: repro.pipeline.simulate_staged(
                    split, sm.microbatches, schedule=sm.schedule, routing=r, padded_a2a=False),
                 n_staged * sm.microbatches * staged.cluster.num_gpus, 1),
            ]
        template = SimulationConfig(
            cluster=flat.cluster, padded_a2a=False, routing=whatif_routing(rng)
        )
        injector = FaultInjector(template, whatif_fault(rng, flat.cluster))
        configs = [
            SimulationConfig(
                cluster=flat.cluster,
                padded_a2a=False,
                routing=whatif_routing(rng),
                straggler_slowdown={rng.randrange(g_flat): rng.uniform(1.2, 3.0)},
            )
            for _ in range(BATCH_SCENARIOS - 1)
        ]
        sampled = rng.randrange(BATCH_SCENARIOS)
        configs.insert(sampled, injector.config_at(0))
        calls += [
            ("fault", lambda: injector.simulate(flat.program, 0), n_flat * g_flat, 1),
            ("batch", lambda: simulate_cluster_batch(flat.program, configs=configs),
             n_flat * g_flat * BATCH_SCENARIOS, BATCH_SCENARIOS),
        ]
        return calls, sampled

    def _cycle(self, state, res: Result) -> tuple[dict, int]:
        """Run one cycle's calls: (outputs by label, index of the batch
        scenario the scalar fault call simulated)."""
        calls, sampled = self._calls(state)
        out: dict = {}
        for label, call, events, iterations in calls:
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                value = call()
            except Exception:
                _op_failed(res, label)
                continue
            res.record(label, t0, time.perf_counter())
            res.speed.probe()
            out.setdefault(label, []).append(value)
            add_counts(res.counts, {"sim_events": events, "sim_iterations": iterations})
        return out, sampled

    @staticmethod
    def _check(res: Result, out: dict, sampled: int) -> None:
        if "fault" in out and "batch" in out:
            res.check(
                "batch scenario is bit-identical to the scalar simulator",
                _same_timeline(out["batch"][0].timeline(sampled), out["fault"][0]),
                f"scenario {sampled} of {BATCH_SCENARIOS}",
            )

    def run(self, state, seconds: float, prefix_only: bool, on_window_end=_nothing,
            speed=None, pause=contextlib.nullcontext) -> Result:
        res = Result(speed=speed or HostSpeed(self.HOST_REFERENCE))
        first = None
        res.speed.probe(force=True)
        probed_s = res.speed.spent_s
        # the first cycle's bit-identity check materializes a 64-GPU
        # timeline (seconds): it runs outside the measurement window
        check_s = 0.0
        cycles, started = 0, time.perf_counter()

        def window() -> float:
            return time.perf_counter() - started - check_s - (res.speed.spent_s - probed_s)

        while _keep_going(
            window(),
            0.0 if prefix_only else seconds,
            cycles,
            1 if prefix_only else 2,
            window() / cycles if cycles else 0.0,
        ):
            out, sampled = self._cycle(state, res)
            if first is None:
                t0 = time.perf_counter()
                with pause():
                    self._check(res, out, sampled)
                check_s = time.perf_counter() - t0
                # keep only what the simulated metrics need, so that peak
                # memory does not depend on how many cycles fit in a run
                first = {k: out.get(k, []) for k in ("flat", "staged", "pipeline")}
            out = None  # released before the next cycle runs
            cycles += 1
        res.window_s = window()
        on_window_end()
        res.counts["runtime.sim_iters_per_s"] = res.counts.pop("sim_iterations") / res.window_s
        res.det["runtime.sim_events"] = res.counts.pop("sim_events") // cycles
        if all(len(first.get(k, ())) == CYCLE_ROUTINGS for k in ("flat", "staged", "pipeline")):
            # the simulated metrics come from the first cycle only
            errors = [own_error_pct(plan) for plan in (state["flat"], state["staged"])]
            res.det.update(
                {
                    "plan_iter_ms": geomean(
                        [
                            statistics.fmean(t.makespan for t in first["flat"]),
                            statistics.fmean(s.makespan for s in first["pipeline"]),
                        ]
                    ),
                    "exposed_a2a_ms": statistics.fmean(
                        t.exposed_time_of({"all_to_all"})
                        for t in first["flat"] + first["staged"]
                    ),
                    "predict_err_pct": statistics.fmean(errors),
                }
            )
        return res

    def close(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# drift-replan
# ---------------------------------------------------------------------------


#: warm re-plans of the run's prefix
DRIFT_CYCLE = 50
#: fewest re-plans of a measured run, so its p90 has ten samples beyond
MIN_REPLANS = 100
#: events of the prefix that also run a placement search
PLACEMENT_EVENTS = 2
#: accepted search steps per placement search (a few seconds at 16 GPUs / 32 experts)
PLACEMENT_MAX_MOVES = 6
#: replayed observations of the tiny re-optimizing trainer
TRAIN_STEPS = 6


def drift_routings(seed: int):
    """Endless seeded routing stream drifting around the preset's skew
    (16 concentration, 2 hot experts at 0.7 boost): a mean-reverting
    walk of the skew knobs, each event a fresh realization."""
    rng = random.Random(seed)
    x = y = 0.0
    while True:
        x = 0.7 * x + rng.gauss(0.0, 0.15)
        y = 0.7 * y + rng.gauss(0.0, 0.03)
        yield SyntheticRoutingModel(
            seed=rng.randrange(1, 10**6),
            concentration=16.0 * math.exp(x),
            hot_experts=2,
            hot_boost=min(0.85, max(0.4, 0.7 + y)),
        )


class DriftReplan:
    """One warm ``LancetOptimizer`` fed a drifting routing stream; one
    operation is one ``observe_routing`` + ``optimize`` re-plan.

    Side work of the prefix, timed only in the traced run: two
    placement searches on realized counts and a short replay through a
    tiny ``ReoptimizingTrainer``."""

    name = "drift-replan"
    HOST_REFERENCE = "interpreter"
    PRESET = "gpt2-s-moe/a100x16-hot"
    TRAIN_PRESET = "tiny/a100x8-hot"

    def setup(self, seed: int):
        sc = Scenario.preset(self.PRESET)
        graph, cluster = sc.build_graph(), sc.build_cluster()
        optimizer = LancetOptimizer(cluster)
        optimizer.observe_routing(graph, sc.routing_model())
        optimizer.optimize(graph)
        tiny = Scenario.preset(self.TRAIN_PRESET)
        tiny_graph = tiny.build_graph()
        trainer = ReoptimizingTrainer(
            tiny_graph, LancetOptimizer(tiny.build_cluster()), parallel=False
        )
        rng = random.Random(seed)
        return {
            "graph": graph,
            "cluster": cluster,
            "optimizer": optimizer,
            "trainer": trainer,
            "tiny": tiny,
            "routings": drift_routings(seed),
            "placement_at": sorted(rng.sample(range(DRIFT_CYCLE), PLACEMENT_EVENTS)),
            "sampled": rng.randrange(DRIFT_CYCLE),
            "train_seed": rng.randrange(1, 10**6),
        }

    def _placement(self, state, routing, res: Result) -> None:
        config = SimulationConfig(cluster=state["cluster"], padded_a2a=False, routing=routing)
        sigs = observed_routing_signatures(state["graph"].program, config, with_counts=True)
        layer = min(sigs)
        found = PlacementOptimizer(state["cluster"], max_moves=PLACEMENT_MAX_MOVES).optimize(
            sigs[layer]
        )
        add_counts(res.det, {
            "placement.evaluations": found.evaluations,
            "placement.searches": 1,
            "placement.bottleneck_sum_ms": found.bottleneck_ms,
        })

    def _train_replay(self, state, res: Result) -> None:
        trainer, tiny = state["trainer"], state["tiny"]
        cfg = tiny.model_config()
        g = tiny.num_gpus
        experts = cfg.experts_per_gpu * g
        tokens = tiny.resolved_batch() * tiny.resolved_seq()
        rng = random.Random(state["train_seed"])
        layers = [ml.layer for ml in trainer.graph.moe_layers]
        for _ in range(TRAIN_STEPS):
            routing = SyntheticRoutingModel(
                seed=rng.randrange(1, 10**6),
                concentration=rng.choice((1.0, 4.0, 16.0)),
                hot_experts=2,
                hot_boost=rng.uniform(0.3, 0.8),
            )
            counts = {
                layer: routing.counts_for(layer, g, experts, tokens, tokens)
                for layer in layers
            }
            trainer.replay_observation(counts)
        stats = trainer.plan_cache_stats
        res.det["train.reoptimizations"] = trainer.num_reoptimizations
        res.det["train.plan_cache.hit_ratio"] = _ratio(
            stats["hits"], stats["hits"] + stats["misses"]
        )

    def run(self, state, seconds: float, prefix_only: bool, on_window_end=_nothing,
            speed=None, pause=contextlib.nullcontext) -> Result:
        res = Result(speed=speed or HostSpeed(self.HOST_REFERENCE))
        graph, optimizer = state["graph"], state["optimizer"]
        iters, exposed, errors = [], [], []
        side_s = 0.0
        res.speed.probe(force=True)
        probed_s = res.speed.spent_s
        events, started = 0, time.perf_counter()

        def window() -> float:
            return time.perf_counter() - started - side_s - (res.speed.spent_s - probed_s)

        while True:
            if prefix_only and events >= DRIFT_CYCLE:
                break
            if events >= MIN_REPLANS and window() >= seconds:
                break
            routing = next(state["routings"])
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                signatures = optimizer.observe_routing(graph, routing)
                program, report = optimizer.optimize(graph)
            except Exception:
                _op_failed(res, f"re-plan {events}")
                events += 1
                continue
            res.record("re-plan", t0, time.perf_counter())
            res.speed.probe()
            if events < DRIFT_CYCLE:
                t_side = time.perf_counter()
                # simulated right away rather than kept: fifty live plans
                # made every full garbage collection of a re-plan slower
                with pause():
                    config = SimulationConfig(
                        cluster=state["cluster"], padded_a2a=False, routing=routing
                    )
                    timeline = simulate_program(program, config=config)
                iters.append(timeline.makespan)
                exposed.append(timeline.exposed_time_of({"all_to_all"}))
                errors.append(error_pct(report.predicted_iteration_ms, timeline.makespan))
                del timeline
                add_counts(res.det, {
                    "core.cost_evals": report.partition.num_cost_evals,
                    "core.pipeline_sims": report.partition.num_pipeline_sims,
                    "core.dw_moved": report.dw_schedule.num_dw_moved,
                    "ir.instructions_out": len(program.instructions),
                })
                if events == state["sampled"]:
                    with pause():
                        fresh = LancetOptimizer(state["cluster"], routing_signatures=signatures)
                        _, cold = fresh.optimize(graph)
                    res.check(
                        "warm re-plan equals a cold plan on the same signatures",
                        cold.predicted_iteration_ms == report.predicted_iteration_ms,
                        f"{report.predicted_iteration_ms} vs {cold.predicted_iteration_ms}",
                    )
                if events in state["placement_at"]:
                    self._placement(state, routing, res)
                if events == DRIFT_CYCLE - 1:
                    add_counts(res.det, cache_counts(report.cache_stats))
                    res.det["core.profiled_ops"] = report.profiled_ops
                    self._train_replay(state, res)
                side_s += time.perf_counter() - t_side
            events += 1
        res.window_s = window()
        on_window_end()

        if iters:
            res.det.update({
                "plan_iter_ms": geomean(iters),
                "exposed_a2a_ms": statistics.fmean(exposed),
                "predict_err_pct": statistics.fmean(errors),
            })
        finish_ratios(res.det)
        if res.det.get("placement.searches"):
            res.det["placement.bottleneck_ms"] = (
                res.det.pop("placement.bottleneck_sum_ms") / res.det["placement.searches"]
            )
        return res

    def close(self, state) -> None:
        pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {cls.name: cls for cls in (ColdCompile, ServeFleet, WhatIfSim, DriftReplan)}


def make(name: str, scratch_root):
    """The workload object for ``name`` (serve-fleet keeps its stores
    under ``scratch_root``)."""
    cls = WORKLOADS[name]
    return cls(scratch_root) if cls is ServeFleet else cls()
