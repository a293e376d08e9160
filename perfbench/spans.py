"""Span tracer for the traced benchmark run.

Wraps the public functions of each layer at the module or class
attribute its callers resolve at call time, and records one span per
call: name, thread, start, end and the enclosing span.  Nothing is
wrapped unless :meth:`Tracer.install` is called, so the untraced run
executes the program exactly as shipped.

Span names are ``<layer>.<function>``; the layer is the ``repro``
sub-package (``api``, ``core``, ``runtime``, ...).  Spans live in memory
and are written out once, at the end of the run, as a per-layer
self-time table and as Chrome trace-event JSON (pid = workload,
tid = layer) that opens in Perfetto.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time

#: span name -> call sites to wrap.  A site is ``"module:attr"`` for a
#: module-level function (the defining module, for callers that import
#: it lazily, and every module that imported it by name at load time,
#: because its callers look the name up there) or
#: ``"module:Class.method"`` for a method.
SITES = {
    "models.build_graph": ["repro.api.scenario:build_training_graph"],
    "api.resolve_workload": [
        "repro.api.compiler:resolve_workload",
        "repro.serving.server:resolve_workload",
    ],
    "api.graph_fingerprint": [
        "repro.api.compiler:graph_fingerprint",
        "repro.serving.server:graph_fingerprint",
        "repro.api.fingerprint:graph_fingerprint",
    ],
    "runtime.observed_signatures": [
        "repro.runtime.simulate:observed_routing_signatures",
    ],
    "core.optimize": ["repro.core.lancet:LancetOptimizer.optimize"],
    "core.observe_routing": [
        "repro.core.lancet:LancetOptimizer.observe_routing",
    ],
    "core.dw_pass": ["repro.core.dw_schedule:WeightGradSchedulePass.run"],
    "core.partition_pass": [
        "repro.core.partition.pass_:OperatorPartitionPass.run",
    ],
    "core.infer_axes": ["repro.core.partition.dp:infer_axes"],
    "core.pack_lane": ["repro.core.partition.pipeline:pack_lane"],
    "core.simulate_lanes": ["repro.core.partition.pipeline:simulate_lanes"],
    "core.rewrite": ["repro.core.partition.pass_:apply_plans"],
    "core.predict": [
        "repro.core.cost_model:CostEstimator.predict_iteration_ms",
    ],
    "ir.validate": [
        "repro.ir.validate:validate",
        "repro.ir.passes:validate",
        "repro.models.gpt2_moe:validate",
        "repro.pipeline.partition:validate",
    ],
    "pipeline.plan_stages": ["repro.pipeline:plan_stages"],
    "pipeline.stage_costs": ["repro.pipeline.simulate:stage_costs"],
    "pipeline.simulate_staged": [
        "repro.pipeline:simulate_staged",
        "repro.pipeline.planner:simulate_staged",
    ],
    "api.store_get": ["repro.api.store:PlanStore.get"],
    "api.store_put": ["repro.api.store:PlanStore.put"],
    "api.lookup_scenario": ["repro.api.store:PlanStore.lookup_scenario"],
    "api.plan_encode": [
        "repro.api.plan:Plan.to_dict",
        "repro.api.plan:program_to_json",
        "repro.ir.serialize:program_to_json",
    ],
    "api.plan_decode": [
        "repro.api.plan:Plan.from_dict",
        "repro.api.plan:program_from_json",
        "repro.ir.serialize:program_from_json",
    ],
    "serving.serve": ["repro.serving.server:PlanServer.serve"],
    "serving.drain": ["repro.serving.server:PlanServer.drain"],
    "runtime.simulate_program": [
        "repro.runtime:simulate_program",
        "repro.runtime.simulate:simulate_program",
    ],
    "runtime.simulate_cluster": [
        "repro.runtime:simulate_cluster",
        "repro.runtime.simulate:simulate_cluster",
        "repro.faults.injector:simulate_cluster",
        "repro.pipeline.simulate:simulate_cluster",
    ],
    "runtime.pack_scenarios": ["repro.runtime.batch:pack_scenarios"],
    "runtime.simulate_scenarios": ["repro.runtime.batch:simulate_scenarios"],
    "faults.injector_simulate": ["repro.faults.injector:FaultInjector.simulate"],
    "placement.optimize": [
        "repro.placement.optimizer:PlacementOptimizer.optimize",
    ],
    "train.replay_observation": [
        "repro.train.loop:ReoptimizingTrainer.replay_observation",
    ],
}

#: span names whose call counts are reported as ``<name>.calls``
COUNTED = ("core.infer_axes", "core.pack_lane")


class Tracer:
    """In-memory span recorder with install/uninstall of call-site wraps."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = self.t1 = time.perf_counter()
        #: spans are recorded only while active (see :meth:`stop`)
        self.active = False

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = {
                "name": name,
                "tid": threading.get_ident(),
                "parent": stack[-1]["name"] if stack else None,
                "nested": any(s["name"] == name for s in stack),
                "child_s": 0.0,
            }
            stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span["start"] = start - tracer.t0
                span["dur"] = end - start
                if stack:
                    stack[-1]["child_s"] += span["dur"]
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every site in :data:`SITES` (idempotent per tracer)."""
        if self._patched:
            return
        wrapped: dict[int, object] = {}
        for name, sites in SITES.items():
            for site in sites:
                module_name, _, attr_path = site.partition(":")
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn)
                new = wrapped[id(fn)]
                if isinstance(raw, classmethod):
                    new = classmethod(new)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)
        self.t0 = time.perf_counter()
        self.active = True

    def stop(self) -> None:
        """Stop recording (the wraps stay until :meth:`uninstall`): the
        measurement window is over and what follows is checking."""
        if self.active:
            self.active = False
            self.t1 = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks
        and quality simulations between traced operations)."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def uninstall(self) -> None:
        """Stop recording and restore every wrapped site."""
        self.stop()
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- views ---------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: inclusive ms (outermost calls only), self ms
        (inclusive minus child spans), and call count."""
        out: dict[str, dict] = {}
        with self._lock:
            spans = list(self.spans)
        for s in spans:
            t = out.setdefault(s["name"], {"ms": 0.0, "self_ms": 0.0, "calls": 0})
            t["calls"] += 1
            t["self_ms"] += (s["dur"] - s["child_s"]) * 1e3
            if not s["nested"]:
                t["ms"] += s["dur"] * 1e3
        return out

    def layer_table(self) -> str:
        """Per-layer self time as a text table (layer = span-name
        prefix).  Spans of concurrent threads overlap in wall time, so
        shares are of the summed self time, and the wall time the spans
        were recorded over is given next to it."""
        layers: dict[str, float] = {}
        for name, t in self.totals().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + t["self_ms"]
        rows = sorted(layers.items(), key=lambda kv: -kv[1])
        traced = sum(ms for _, ms in rows) or 1.0
        with self._lock:
            threads = len({s["tid"] for s in self.spans})
        lines = [
            f"{traced:.1f} ms of span self time in {threads} thread(s) "
            f"over {(self.t1 - self.t0) * 1e3:.1f} ms of wall time",
            f"{'layer':<12}{'self ms':>12}{'share':>9}",
        ]
        for layer, ms in rows:
            lines.append(f"{layer:<12}{ms:>12.1f}{ms / traced:>8.1%}")
        return "\n".join(lines)

    def chrome_trace(self, workload: str) -> dict:
        """Chrome trace-event JSON: pid = workload, tid = layer."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s["start"])
        layers = sorted({s["name"].split(".", 1)[0] for s in spans})
        tids = {layer: i + 1 for i, layer in enumerate(layers)}
        events = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": workload}},
        ]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": layer}}
            for layer, tid in tids.items()
        ]
        for s in spans:
            events.append(
                {
                    "name": s["name"],
                    "ph": "X",
                    "pid": 1,
                    "tid": tids[s["name"].split(".", 1)[0]],
                    "ts": round(s["start"] * 1e6, 3),
                    "dur": round(s["dur"] * 1e6, 3),
                    "args": {"thread": s["tid"], "parent": s["parent"]},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
