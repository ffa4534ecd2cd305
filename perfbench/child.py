"""One timed unit of a workload, run in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json`` — the spec names the unit
(``sweep`` or ``serve``), its cache or artifact directory, whether it is
traced, and where to write the result JSON.  A fresh process per unit
means the compile memo, the fast path's code cache and the code
fingerprint all start empty, as they do for a user.

The result records the moment the unit was ready to start timed work
(``ready``), the timed wall time, per-point or per-job latencies — each
as ``(end, seconds)`` on the system-wide monotonic clock, so the parent
can match it with its speed probe — every point's ``(cycles,
instructions)``, a digest of the figure rows, and the failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import tracer as tracing  # noqa: E402


def _install_tracer(trace_dir: str) -> tracing.Tracer:
    from repro.experiments import ALL_FIGURES

    tracer = tracing.Tracer(trace_dir)
    tracing.install(tracer, layers.TARGETS)
    tracing.wrap_mapping(tracer, ALL_FIGURES, layers.FIGURE_LAYER)
    return tracer


def _lane(tracer, name: str):
    return tracer.lane(name) if tracer is not None else \
        contextlib.nullcontext()


def _point_id(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _rss_mb() -> tuple[float, float]:
    """Peak resident set of this process and of its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, kids


# -- sweeps ---------------------------------------------------------------------


def run_sweep(spec: dict) -> dict:
    from repro.experiments import ALL_FIGURES, ExperimentRunner, SweepExecutor

    ready = time.monotonic()
    tracer = _install_tracer(spec["trace_dir"]) if spec["trace"] else None
    #: (monotonic end, seconds) per computed point
    latencies: list[tuple[float, float]] = []
    points: dict[str, list[int]] = {}
    failures: list[str] = []

    def progress(done, total, result) -> None:
        job = result.job
        where = f"{job.benchmark} on {job.config.describe()}"
        if result.record is None:
            failures.append(f"{where}: {result.error}")
            return
        if not result.record.checksum_ok:
            failures.append(f"{where}: checksum mismatch")
        key = runner.cache_key(job.benchmark, job.config, **job.kwargs())
        points[_point_id(key)] = [result.record.cycles,
                                  result.record.instructions]
        if not result.from_cache:
            latencies.append((time.monotonic(), result.elapsed))

    figs = {}
    start = time.perf_counter()
    with _lane(tracer, "sweep"):
        runner = ExperimentRunner(scale=spec["scale"],
                                  cache_dir=spec["cache_dir"],
                                  verify_checksums=True,
                                  engine=spec["engine"])
        executor = SweepExecutor(runner=runner, jobs=spec["jobs"],
                                 progress=progress)
        for name in spec["figures"]:
            try:
                figs[name] = executor.run_figure(
                    ALL_FIGURES[name], benchmarks=tuple(spec["benchmarks"]))
            except RuntimeError as exc:  # failed points, recorded above
                failures.append(f"{name}: {exc}")
    wall = (time.monotonic(), time.perf_counter() - start)
    rows = {name: [fig.to_rows(), fig.notes] for name, fig in figs.items()}
    stats = executor.stats
    out = {
        "ready": ready, "wall": wall, "latencies": latencies,
        "points": points, "attempted": len(points) + len(failures),
        "failures": failures,
        "output": hashlib.sha256(json.dumps(rows, sort_keys=True)
                                 .encode()).hexdigest(),
        "counters": runner.counters(),
        "executor": {"elapsed_s": stats.elapsed,
                     "job_seconds": stats.job_seconds,
                     "workers": stats.workers},
    }
    if tracer is not None:
        out["trace"] = tracing.collect(spec["trace_dir"], tracer.snapshot())
    return out


# -- serve ----------------------------------------------------------------------


def _payload(job: dict, scale: int) -> dict:
    from repro.isa import RClass
    from repro.rc import RCModel
    from repro.serve import machine_to_payload
    from repro.sim import paper_machine
    from repro.workloads import workload

    is_int = workload(job["benchmark"]).kind == "int"
    if job["rc"]:
        config = paper_machine(
            issue_width=job["issue"], int_core=16 if is_int else 64,
            fp_core=64 if is_int else 32,
            rc_class=RClass.INT if is_int else RClass.FP,
            rc_model=RCModel(job["model"]))
    else:
        config = paper_machine(issue_width=job["issue"])
    return {"benchmark": job["benchmark"], "scale": scale,
            "machine": machine_to_payload(config)}


def _job_ok(kind: str, doc: dict) -> bool:
    if doc.get("status") != "done":
        return False
    result = doc["result"]
    if kind == "check":
        return result["clean"] is True
    return result["record"]["checksum_ok"] is True


#: Pool warm-up jobs: one tiny assembly program per worker (distinct text,
#: so neither coalesces with the other nor with the measured mix).
_WARMUP_ASM = ".entry start\nstart:\n    li r5, {n}\n    halt\n"


def _closed_loop(url: str, jobs: list, clients: int, tracer) -> list:
    """Drive *jobs* through *clients* threads, each submitting its next
    job only after the previous one finished.  Returns per-job
    ``(latency_s, submit_s, job document or error string, monotonic
    end)``."""
    from repro.serve import ServeClient

    results: list = [None] * len(jobs)
    queue = iter(range(len(jobs)))
    lock = threading.Lock()

    def loop(cid: int) -> None:
        client = ServeClient(url, client_id=f"bench-{cid}")
        with _lane(tracer, "serve_client"):
            while True:
                with lock:
                    i = next(queue, None)
                if i is None:
                    return
                kind, payload = jobs[i]
                start = time.perf_counter()
                try:
                    doc = client.submit(kind, payload)
                    submitted = time.perf_counter()
                    doc = client.wait(doc)
                except Exception as exc:  # noqa: BLE001 - counted failed
                    results[i] = (time.perf_counter() - start, 0.0,
                                  f"{type(exc).__name__}: {exc}",
                                  time.monotonic())
                    continue
                results[i] = (time.perf_counter() - start,
                              submitted - start, doc, time.monotonic())

    threads = [threading.Thread(target=loop, args=(c,))
               for c in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _start_server(spec: dict):
    """Start a server on the unit's artifact dir and fork its pool with
    one tiny job per worker; returns the handle."""
    from repro.serve import ServeClient, start_in_thread

    handle = start_in_thread(jobs=spec["jobs"],
                             artifact_dir=spec["cache_dir"])
    client = ServeClient(handle.url)
    docs = [client.submit("compile", {"asm": _WARMUP_ASM.format(n=n)})
            for n in range(spec["jobs"])]
    for doc in docs:
        if client.wait(doc)["status"] != "done":
            handle.stop()
            raise RuntimeError(f"pool warm-up job failed: {doc}")
    return handle


def _stop_server(handle) -> None:
    handle.stop()
    if handle.thread.is_alive():
        raise RuntimeError("serve thread did not stop")


def run_serve(spec: dict) -> dict:
    from repro.serve import ServeClient

    tracer = _install_tracer(spec["trace_dir"]) if spec["trace"] else None
    jobs = [(job["kind"], _payload(job, spec["scale"]))
            for job in spec["mix"]]
    handle = _start_server(spec)
    ready = time.monotonic()
    if spec.get("setup_only"):
        _stop_server(handle)
        return {"ready": ready}
    try:
        admin = ServeClient(handle.url)
        before = admin.stats()
        start = time.perf_counter()
        cold = _closed_loop(handle.url, jobs, spec["clients"], tracer)
        wall = (time.monotonic(), time.perf_counter() - start)
        after = admin.stats()
    finally:
        _stop_server(handle)

    # Warm: a restarted server answers the same sequence from its artifact
    # store, every job a hit; timed from the restart.
    warm_walls, warm_results = [], []
    for _ in range(spec["warm_reps"]):
        start = time.perf_counter()
        handle = _start_server(spec)
        try:
            warm_results.append(_closed_loop(handle.url, jobs,
                                             spec["clients"], None))
            warm_walls.append((time.monotonic(),
                               time.perf_counter() - start))
        finally:
            _stop_server(handle)

    failures: list[str] = []
    points: dict[str, list[int]] = {}
    latencies, submits, service, queue_wait = [], [], [], []
    for (kind, _payload_), (latency, submit, doc, end) in zip(jobs, cold):
        if not isinstance(doc, dict) or not _job_ok(kind, doc):
            detail = doc.get("error") if isinstance(doc, dict) else doc
            failures.append(f"{kind}: {detail}")
            continue
        latencies.append((end, latency))
        submits.append(submit)
        if kind == "simulate":
            record = doc["result"]["record"]
            points[_point_id(doc["artifact"])] = [record["cycles"],
                                                  record["instructions"]]
        if not doc["from_cache"] and "coalesced_with" not in doc:
            elapsed = doc["meta"]["elapsed"]
            service.append(elapsed)
            queue_wait.append(doc["finished"] - doc["created"] - elapsed)
    for results in warm_results:
        for (kind, _payload_), warm_job, cold_job in zip(jobs, results,
                                                         cold):
            doc, first = warm_job[2], cold_job[2]
            if (not isinstance(doc, dict) or not doc.get("from_cache")
                    or not isinstance(first, dict)
                    or doc.get("result") != first.get("result")):
                failures.append(f"warm {kind}: not an identical artifact "
                                "hit")

    def delta(group: str, name: str) -> int:
        return after[group].get(name, 0) - before[group].get(name, 0)

    out = {
        "ready": ready, "wall": wall, "warm": warm_walls,
        "latencies": latencies, "points": points,
        "attempted": len(jobs) * (1 + len(warm_walls)),
        "failures": failures,
        "submit": submits, "service": service, "queue_wait": queue_wait,
        "artifact_hits": delta("jobs", "artifact_hits"),
        "submitted": delta("jobs", "submitted"),
        "coalesced": delta("jobs", "coalesced"),
        "counters": {name: delta("runner_cache", name)
                     for name in after["runner_cache"]},
    }
    if tracer is not None:
        out["trace"] = tracing.collect(spec["trace_dir"], tracer.snapshot())
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    run = run_serve if spec["unit"] == "serve" else run_sweep
    out = run(spec)
    out["rss_mb"] = _rss_mb()
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
