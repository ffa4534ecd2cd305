"""Which program functions the traced run wraps, and the per-layer metrics.

``TARGETS`` names the public functions and methods of each ``repro``
module that get a span, and the layer each span is charged to.  Hooks
read counts from return values at the same boundaries (connects removed,
simulated instructions, gang sizes).

``PER_LAYER`` lists every per-layer metric with its unit, which direction
is better, and the end-to-end metric it is expected to move on which
workload.  ``BENCHMARK.json`` must list the same names and units; the
self-tests check it.
"""

from __future__ import annotations

# -- result hooks -------------------------------------------------------------------


def _connect_opt(tracer, result, args, parent) -> None:
    report = result.report
    tracer.count("connects_in", report.connects_before)
    tracer.count("connects_removed",
                 report.connects_before - report.connects_after)


def _instructions(tracer, n: int, fast: bool) -> None:
    tracer.count("instructions", n)
    if fast:
        tracer.count("fast_instructions", n)


def _fast_run(tracer, result, args, parent) -> None:
    # Gang leaders and delegates are counted by the gang hook.
    if parent != "sim.gang":
        _instructions(tracer, result.stats.instructions, args[0].ran_fastpath)


def _reference_run(tracer, result, args, parent) -> None:
    # A fast-engine fallback is counted by the fast-run hook.
    if parent not in ("sim.fast_run", "sim.gang"):
        _instructions(tracer, result.stats.instructions, False)


def _gang(tracer, outcomes, args, parent) -> None:
    if len(outcomes) > 1:
        tracer.count("gangs")
        tracer.maximum("max_gang", len(outcomes))
    for outcome in outcomes:
        if outcome.result is not None:
            _instructions(tracer, outcome.result.stats.instructions,
                          outcome.ran_batched)


#: (module, function or Class.method, layer, result hook, skip when the
#: enclosing span is one of these layers)
TARGETS = [
    ("repro.workloads.registry", "Workload.module", "workloads.build",
     None, ()),
    ("repro.ir.interp", "Interpreter.run", "ir.interp", None, ()),
    ("repro.compiler.pipeline", "compile_module", "compiler.compile",
     None, ()),
    ("repro.compiler.opt", "optimize_module", "compiler.optimize", None, ()),
    ("repro.compiler.alias", "annotate_module", "compiler.alias", None, ()),
    ("repro.compiler.sched.listsched", "schedule_function",
     "compiler.schedule", None, ()),
    ("repro.compiler.regalloc.allocator", "allocate_function",
     "compiler.regalloc", None, ()),
    ("repro.compiler.regalloc.allocator", "apply_allocation",
     "compiler.regalloc", None, ()),
    ("repro.compiler.callconv", "insert_prologue_epilogue",
     "compiler.regalloc", None, ()),
    ("repro.compiler.regalloc.rc_rewrite", "insert_connects",
     "compiler.rc_rewrite", None, ()),
    ("repro.compiler.regalloc.rc_rewrite", "check_encodable",
     "compiler.rc_rewrite", None, ()),
    ("repro.compiler.callconv", "lower_calls", "compiler.lower", None, ()),
    ("repro.compiler.lower", "lower_module", "compiler.lower", None, ()),
    ("repro.analyze.optimize", "optimize_connects", "analyze.connect_opt",
     _connect_opt, ()),
    ("repro.sim.fastpath", "FastSimulator.__init__", "sim.fast_setup",
     None, ()),
    ("repro.sim.fastpath", "FastSimulator.run", "sim.fast_run",
     _fast_run, ()),
    # The reference decoder inside FastSimulator construction stays part
    # of the fast engine's set-up.
    ("repro.sim.core", "Simulator.__init__", "sim.reference_run",
     None, ("sim.fast_setup",)),
    ("repro.sim.core", "Simulator.run", "sim.reference_run",
     _reference_run, ()),
    ("repro.sim.batched", "BatchedSimulator.run", "sim.gang", _gang, ()),
    ("repro.experiments.runner", "code_fingerprint",
     "experiments.fingerprint", None, ()),
    ("repro.experiments.runner", "ExperimentRunner.cached",
     "experiments.lookup", None, ()),
    ("repro.experiments.runner", "ExperimentRunner.run",
     "experiments.record", None, ()),
    ("repro.experiments.runner", "ExperimentRunner.run_gang",
     "experiments.record", None, ()),
    ("repro.experiments.executor", "SweepExecutor.run", "executor.self",
     None, ()),
    ("repro.experiments.executor", "SweepExecutor.run_figure",
     "executor.self", None, ()),
    ("repro.serve.client", "ServeClient.submit", "serve.client", None, ()),
    ("repro.serve.client", "ServeClient.wait", "serve.client", None, ()),
    ("repro.serve.scheduler", "Scheduler.submit", "serve.scheduler",
     None, ()),
    ("repro.serve.store", "ArtifactStore.get", "serve.store", None, ()),
    ("repro.serve.store", "ArtifactStore.put", "serve.store", None, ()),
    # A worker's job time not charged to a deeper layer is unaccounted.
    ("repro.serve.workers", "execute_job", "lane.serve_worker", None, ()),
]

#: Layer whose spans wrap the figure functions of ``ALL_FIGURES``.
FIGURE_LAYER = "experiments.figure"

# Workload names, for the expectations below.
F, S, V = "figures", "sim_x4", "serve_mixed"

#: name -> (unit, better, expected effect).  Self times are seconds.
PER_LAYER = {
    "analyze.connect_opt_s": ("s", "lower",
                              f"cold_s on {F}, barely on {S}, not warm_s; "
                              f"p90_ms on {V} through RC misses"),
    "analyze.connect_opt_calls": ("count", "lower", "as connect_opt_s"),
    "analyze.connect_opt_yield": ("share", "higher",
                                  "connects removed / static connects in; "
                                  "what connect_opt_s buys"),
    "sim.fast_setup_s": ("s", "lower",
                         f"cold_s on {F}, p90_ms on {V}, less on {S}"),
    "sim.fast_setup_calls": ("count", "lower", "as fast_setup_s"),
    "sim.fast_run_s": ("s", "lower", f"cold_s on {S}, a little on {F}"),
    "sim.reference_run_s": ("s", "lower",
                            f"cold_s on {F} (ablation_cpistack CPI points)"),
    "sim.gang_s": ("s", "lower", f"cold_s on {S}"),
    "sim.gangs": ("count", "higher", f"cold_s on {S}"),
    "sim.max_gang": ("count", "higher", f"cold_s on {S}"),
    "sim.fastpath_share": ("share", "higher",
                           f"cold_s on {S}, a little on {F}"),
    "sim.instructions": ("count", "lower", f"cold_s on {S}"),
    "sim.host_ns_per_instr": ("ns/instr", "lower", f"cold_s on {S}"),
    "compiler.optimize_s": ("s", "lower", f"cold_s on {F}, p90_ms on {V}"),
    "compiler.alias_s": ("s", "lower", f"cold_s on {F}, p90_ms on {V}"),
    "compiler.schedule_s": ("s", "lower", f"cold_s on {F}, p90_ms on {V}"),
    "compiler.regalloc_s": ("s", "lower", f"cold_s on {F}, p90_ms on {V}"),
    "compiler.rc_rewrite_s": ("s", "lower", f"cold_s on {F}, p90_ms on {V}"),
    "compiler.lower_s": ("s", "lower", f"cold_s on {F}, p90_ms on {V}"),
    "compiler.compile_self_s": ("s", "lower",
                                f"cold_s on {F}, p90_ms on {V}"),
    "compiler.compile_calls": ("count", "lower",
                               f"cold_s on {F}, p90_ms on {V}"),
    "ir.interp_s": ("s", "lower",
                    f"cold_s on {F}, p90_ms on {V}; grows with scale on {S}"),
    "workloads.build_s": ("s", "lower", f"cold_s on {F}, p90_ms on {V}"),
    "experiments.lookup_s": ("s", "lower", f"warm_s on {F}, {S}"),
    "experiments.fingerprint_s": ("s", "lower", f"warm_s on {F}, {S}"),
    "experiments.figure_s": ("s", "lower", f"warm_s on {F}, {S}"),
    "experiments.record_s": ("s", "lower", f"cold_s on {F}, {S}"),
    "experiments.cache_hits": ("count", "higher", f"cold_s on {F}, {S}"),
    "experiments.cache_misses": ("count", "lower", f"cold_s on {F}, {S}"),
    "experiments.compile_hits": ("count", "higher", f"cold_s on {F}, {S}"),
    "experiments.compile_misses": ("count", "lower", f"cold_s on {F}, {S}"),
    "experiments.nondeterministic_points": (
        "count", "lower",
        "points whose (cycles, instructions) differ between runs under "
        "different PYTHONHASHSEED values; 0 once compile output is "
        "deterministic"),
    "executor.self_s": ("s", "lower", f"cold_s on {F}"),
    "executor.elapsed_s": ("s", "lower", f"cold_s on {F}"),
    "executor.job_seconds": ("s", "lower", f"cold_s on {F}"),
    "executor.utilization": ("share", "higher", f"cold_s on {F} only"),
    "serve.submit_ms": ("ms", "lower", f"p50_ms, p90_ms, jobs_per_s on {V}"),
    "serve.queue_wait_ms": ("ms", "lower",
                            f"p50_ms, p90_ms, jobs_per_s on {V}"),
    "serve.service_ms": ("ms", "lower", f"p50_ms, p90_ms, jobs_per_s on {V}"),
    "serve.scheduler_s": ("s", "lower", f"p50_ms on {V}"),
    "serve.store_s": ("s", "lower", f"p50_ms and warm_s on {V}"),
    "serve.artifact_hit_ratio": ("share", "higher",
                                 f"p50_ms, jobs_per_s on {V}"),
    "serve.coalesced": ("count", "higher", f"jobs_per_s on {V}"),
    "trace.unaccounted_share": ("share", "lower",
                                "lane wall time outside any traced call"),
    "trace.overhead_share": ("share", "lower",
                             "traced wall / untraced wall - 1"),
}

#: per-layer metric -> layer whose self time it reports.
SELF_TIME = {
    "analyze.connect_opt_s": "analyze.connect_opt",
    "sim.fast_setup_s": "sim.fast_setup",
    "sim.fast_run_s": "sim.fast_run",
    "sim.reference_run_s": "sim.reference_run",
    "sim.gang_s": "sim.gang",
    "compiler.optimize_s": "compiler.optimize",
    "compiler.alias_s": "compiler.alias",
    "compiler.schedule_s": "compiler.schedule",
    "compiler.regalloc_s": "compiler.regalloc",
    "compiler.rc_rewrite_s": "compiler.rc_rewrite",
    "compiler.lower_s": "compiler.lower",
    "compiler.compile_self_s": "compiler.compile",
    "ir.interp_s": "ir.interp",
    "workloads.build_s": "workloads.build",
    "experiments.lookup_s": "experiments.lookup",
    "experiments.fingerprint_s": "experiments.fingerprint",
    "experiments.figure_s": FIGURE_LAYER,
    "experiments.record_s": "experiments.record",
    "executor.self_s": "executor.self",
    "serve.scheduler_s": "serve.scheduler",
    "serve.store_s": "serve.store",
}

#: per-layer metric -> layer whose call count it reports.
CALLS = {
    "analyze.connect_opt_calls": "analyze.connect_opt",
    "sim.fast_setup_calls": "sim.fast_setup",
    "compiler.compile_calls": "compiler.compile",
}


def from_trace(trace: dict) -> dict[str, float]:
    """The per-layer metrics that come from one traced unit's spans."""
    spans = trace["spans"]
    counters = trace["counters"]

    def self_s(layer: str) -> float:
        return spans.get(layer, [0.0, 0.0, 0])[0]

    out = {name: self_s(layer) for name, layer in SELF_TIME.items()}
    for name, layer in CALLS.items():
        out[name] = spans.get(layer, [0.0, 0.0, 0])[2]
    connects_in = counters.get("connects_in", 0)
    out["analyze.connect_opt_yield"] = (
        counters.get("connects_removed", 0) / connects_in
        if connects_in else 0.0)
    instructions = counters.get("instructions", 0)
    out["sim.instructions"] = instructions
    out["sim.fastpath_share"] = (counters.get("fast_instructions", 0)
                                 / instructions if instructions else 0.0)
    run_s = (self_s("sim.fast_run") + self_s("sim.reference_run")
             + self_s("sim.gang"))
    out["sim.host_ns_per_instr"] = (run_s * 1e9 / instructions
                                    if instructions else 0.0)
    out["sim.gangs"] = counters.get("gangs", 0)
    out["sim.max_gang"] = trace["maxima"].get("max_gang", 0)
    lanes = [v for k, v in spans.items() if k.startswith("lane.")]
    lane_wall = sum(v[1] for v in lanes)
    out["trace.unaccounted_share"] = (sum(v[0] for v in lanes) / lane_wall
                                      if lane_wall else 0.0)
    return out
