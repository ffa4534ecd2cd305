"""Worker-process side of the serve subsystem.

Each pool worker keeps module-level *warm state* that survives across
jobs for the life of the process:

* an :class:`~repro.experiments.runner.ExperimentRunner` per (scale,
  engine) — which carries the in-memory compiled-program cache and the
  record memo, and stores its records in the artifact directory itself:
  one :class:`~repro.store.Store` root holds run records and job
  artifacts side by side, shared by all workers and the scheduler;
* a small FIFO cache of parsed assembly programs, so repeated
  submissions of the same ``.s`` text (the fuzz replay path) skip the
  parser.

Workers never raise across the pool boundary: :func:`execute_job`
classifies every failure into a structured ``(type, message)`` error so
the scheduler can report it without unpickling foreign exceptions.
Progress flows the other way through a ``multiprocessing`` manager
queue — lifecycle markers from this module, simulator events via
:class:`repro.observe.EventForwarder`.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback

from repro.errors import (
    CompileError,
    CycleBudgetError,
    ReproError,
    SimulationError,
)
from repro.serve.wire import effective_config, options_from_payload

#: Parsed-assembly cache size (FIFO eviction).
PARSE_CACHE_CAP = 128

_QUEUE = None
_ARTIFACT_DIR: str | None = None
_RUNNERS: dict = {}
_PARSED: dict = {}


def init_worker(queue, artifact_dir: str) -> None:
    """Pool initializer: wire up the progress queue and store root."""
    global _QUEUE, _ARTIFACT_DIR
    _QUEUE = queue
    _ARTIFACT_DIR = artifact_dir


def _put(event: dict) -> None:
    if _QUEUE is not None:
        try:
            _QUEUE.put(event)
        except Exception:  # noqa: BLE001 - queue gone during shutdown
            pass


def _runner(scale: int, engine: str | None):
    """The warm per-process experiment runner for (scale, engine)."""
    from repro.experiments import ExperimentRunner

    key = (scale, engine)
    runner = _RUNNERS.get(key)
    if runner is None:
        runner = _RUNNERS[key] = ExperimentRunner(
            scale=scale, cache_dir=_ARTIFACT_DIR, engine=engine)
    return runner


def _parse_asm(text: str):
    from repro.isa.asmparse import parse_program

    program = _PARSED.get(text)
    if program is None:
        program = parse_program(text)
        if len(_PARSED) >= PARSE_CACHE_CAP:
            _PARSED.pop(next(iter(_PARSED)))
        _PARSED[text] = program
    return program


def _config_for(payload: dict):
    """The job's machine config with its cycle budget applied."""
    return effective_config(payload)


def _compile_benchmark(runner, payload: dict, config):
    opts = options_from_payload(payload.get("options"))
    return runner._compiled_program(
        payload["benchmark"], config, opts["opt_level"],
        opts["unroll_factor"], opts["num_windows"])


# -- job kinds -----------------------------------------------------------------

def _job_compile(job_id: str, payload: dict) -> dict:
    config = _config_for(payload)
    if "asm" in payload:
        program = _parse_asm(payload["asm"])
        return {"machine": config.describe(),
                "instructions": len(program.instrs)}
    runner = _runner(payload["scale"], payload.get("engine"))
    _module, out = _compile_benchmark(runner, payload, config)
    stats = out.stats
    return {
        "machine": config.describe(),
        "benchmark": payload["benchmark"],
        "static": {
            "total": stats.total_instructions,
            "program": stats.program_instructions,
            "spill": stats.spill_instructions,
            "connect": stats.connect_instructions,
            "callsave": stats.callsave_instructions,
            "spilled_vregs": stats.spilled_vregs,
            "extended_vregs": stats.extended_vregs,
            "code_size_increase": stats.code_size_increase,
        },
    }


def _job_check(job_id: str, payload: dict) -> dict:
    from repro.analyze import check_program

    config = _config_for(payload)
    if "asm" in payload:
        program = _parse_asm(payload["asm"])
    else:
        runner = _runner(payload["scale"], payload.get("engine"))
        _module, out = _compile_benchmark(runner, payload, config)
        program = out.program
    report = check_program(program, config)
    strict = bool(payload.get("strict"))
    return {"machine": config.describe(),
            "clean": report.clean(strict),
            "report": report.to_dict()}


def _observing_simulate(job_id: str, program, config):
    """Reference-engine run with the observe event bus forwarding
    sampled events to the parent through the progress queue."""
    from repro.observe import EventForwarder, Observer
    from repro.sim import Simulator

    observer = Observer(keep_events=False)
    forwarder = EventForwarder(
        lambda ev: _put({"job": job_id, "stream": "observe", **ev}))
    observer.subscribe(forwarder)
    result = Simulator(program, config, observer=observer).run()
    _put({"job": job_id, "stream": "observe", "type": "summary",
          "forwarded": forwarder.forwarded, "dropped": forwarder.dropped})
    return result


def _job_simulate(job_id: str, payload: dict) -> dict:
    from repro.sim import simulate

    config = _config_for(payload)
    observe = bool(payload.get("observe"))
    if "asm" in payload:
        program = _parse_asm(payload["asm"])
        if observe:
            result = _observing_simulate(job_id, program, config)
        else:
            result = simulate(program, config,
                              engine=payload.get("engine"))
        out = {"machine": config.describe(),
               "cycles": result.cycles,
               "instructions": result.stats.instructions,
               "ipc": result.stats.ipc}
        if payload.get("dump"):
            out["memory"] = {
                str(addr): result.load_word(int(addr), default=None)
                for addr in payload["dump"]}
        return out
    runner = _runner(payload["scale"], payload.get("engine"))
    if observe:
        _module, cout = _compile_benchmark(runner, payload, config)
        result = _observing_simulate(job_id, cout.program, config)
        return {"machine": config.describe(),
                "benchmark": payload["benchmark"],
                "cycles": result.cycles,
                "instructions": result.stats.instructions,
                "ipc": result.stats.ipc}
    opts = options_from_payload(payload.get("options"))
    record = runner.run(payload["benchmark"], config, **opts)
    return {"machine": config.describe(),
            "record": dataclasses.asdict(record)}


def _job_sweep(job_id: str, payload: dict) -> dict:
    from repro.experiments import ALL_FIGURES, SweepExecutor

    runner = _runner(payload["scale"], payload.get("engine"))
    benchmarks = tuple(payload["benchmarks"])
    fig_fn = ALL_FIGURES[payload["figure"]]

    # Prewarm the figure's experiments through the sweep executor (serial
    # inside this worker process; a compile group of several points
    # simulates as one lockstep gang), emitting one progress event per
    # experiment — gang slots included, each reports as it lands.
    def report(done: int, total: int, result) -> None:
        _put({"job": job_id, "stream": "sweep", "type": "progress",
              "benchmark": result.job.benchmark, "done": done,
              "total": total})

    executor = SweepExecutor(runner=runner, jobs=1, progress=report)
    fig = executor.run_figure(fig_fn, benchmarks=benchmarks)
    return {"figure": fig.fid, "title": fig.title,
            "rows": fig.to_rows(), "notes": list(fig.notes),
            "experiments": executor.stats.jobs,
            "sweep": executor.stats.summary()}


def _job_trace(job_id: str, payload: dict) -> dict:
    config = _config_for(payload)
    runner = _runner(payload["scale"], payload.get("engine"))
    _module, out = _compile_benchmark(runner, payload, config)
    fmt = payload["format"]
    limit = int(payload.get("limit") or 200_000)
    if fmt == "text":
        from repro.sim.tracing import capture_trace

        trace = capture_trace(out.program, config, limit=limit)
        content = trace.summary() + "\n\n" + trace.render()
        cycles = len({cycle for cycle, _ in trace.events})
    else:
        from repro.observe import (
            chrome_trace_json,
            events_jsonl,
            konata_log,
            observe_run,
        )

        run = observe_run(out.program, config, limit=limit)
        if fmt == "chrome":
            content = chrome_trace_json(run)
        elif fmt == "konata":
            content = konata_log(run)
        else:
            content = events_jsonl(run)
        cycles = run.result.cycles
    return {"machine": config.describe(), "format": fmt,
            "cycles": cycles, "content": content}


_KINDS = {
    "compile": _job_compile,
    "check": _job_check,
    "simulate": _job_simulate,
    "sweep": _job_sweep,
    "trace": _job_trace,
}


def _classify(exc: BaseException) -> str:
    if isinstance(exc, CycleBudgetError):
        return "budget-exceeded"
    if isinstance(exc, CompileError):
        return "compile-error"
    if isinstance(exc, SimulationError):
        return "simulation-error"
    if isinstance(exc, ReproError):
        return "bad-request"
    return "internal-error"


def execute_job(job_id: str, kind: str, payload: dict) -> tuple:
    """Run one validated job; never raises.

    Returns ``(status, body, meta)`` where *status* is ``"ok"`` or
    ``"error"``, *body* is the JSON result or a structured
    ``{"type", "message"}`` error, and *meta* carries the worker pid,
    elapsed seconds, and the runner cache-counter delta for the parent's
    stats aggregation (workers are forked copies, so counters must be
    shipped home explicitly — same discipline as the sweep executor).
    """
    started = time.perf_counter()
    _put({"job": job_id, "stream": "lifecycle", "type": "started",
          "pid": os.getpid(), "kind": kind})
    before = {key: runner.counters() for key, runner in _RUNNERS.items()}
    try:
        body = _KINDS[kind](job_id, payload)
        status = "ok"
    except BaseException as exc:  # noqa: BLE001 - classified, not raised
        status = "error"
        body = {"type": _classify(exc), "message": str(exc)}
        if body["type"] == "internal-error":
            body["trace"] = traceback.format_exc(limit=8)
    delta: dict[str, int] = {}
    for key, runner in _RUNNERS.items():
        prior = before.get(key, {})
        for name, value in runner.counters().items():
            delta[name] = delta.get(name, 0) + value - prior.get(name, 0)
    meta = {"pid": os.getpid(),
            "elapsed": time.perf_counter() - started,
            "counters": delta}
    _put({"job": job_id, "stream": "lifecycle", "type": "finished",
          "status": status, "elapsed": round(meta["elapsed"], 6)})
    return status, body, meta
