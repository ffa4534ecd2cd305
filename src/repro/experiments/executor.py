"""Parallel, observable execution of compile+simulate sweeps.

Every figure of the reproduction is a sweep of benchmarks × machine
configurations through :class:`~repro.experiments.runner.ExperimentRunner`.
The :class:`SweepExecutor` fans those (benchmark, config, options) jobs out
over a :class:`concurrent.futures.ProcessPoolExecutor` — worker count from
``REPRO_JOBS``, default ``os.cpu_count()`` — with per-job timing, cache
hit/miss/error counters, and an optional progress callback so long sweeps
are observable instead of silent.

Correctness relies on the runner's cache layer: records are keyed on the
code fingerprint plus every cycle-affecting config field, and written
atomically, so concurrent workers sharing one cache directory can never
tear or cross-contaminate records.  A parallel sweep therefore produces
records identical to the serial path.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import FigureResult
from repro.experiments.runner import ExperimentRunner, RunRecord, _compile_key
from repro.observe import merge_cpi, stall_mix_summary
from repro.sim import MachineConfig
from repro.workloads import ALL_BENCHMARKS

#: Environment variable selecting the sweep worker count.
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``, defaulting to the CPU count."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepJob:
    """One (benchmark, machine configuration, compile options) experiment."""

    benchmark: str
    config: MachineConfig
    opt_level: str = "ilp"
    unroll_factor: int = 4
    num_windows: int = 4
    #: also collect the per-cause CPI stack (observer in aggregate mode).
    collect_cpi: bool = False

    def kwargs(self) -> dict:
        return {
            "opt_level": self.opt_level,
            "unroll_factor": self.unroll_factor,
            "num_windows": self.num_windows,
            "collect_cpi": self.collect_cpi,
        }


@dataclass
class JobResult:
    """The outcome of one sweep job."""

    job: SweepJob
    record: RunRecord | None
    from_cache: bool
    elapsed: float
    error: str | None = None


@dataclass
class SweepStats:
    """Aggregate counters for one executor's lifetime."""

    jobs: int = 0
    hits: int = 0
    misses: int = 0
    errors: int = 0
    elapsed: float = 0.0
    #: summed per-job compute seconds (> elapsed when workers overlap).
    job_seconds: float = 0.0
    workers: int = 1
    #: compile-dedup groups with more than one point (each compiled once).
    groups: int = 0
    #: jobs that rode a shared compilation instead of compiling themselves.
    grouped_jobs: int = 0
    #: lockstep gang runs dispatched through the batched engine.
    gangs: int = 0
    gang_points: int = 0
    max_gang: int = 0

    def summary(self) -> str:
        text = (
            f"sweep: {self.jobs} jobs, {self.hits} cache hits, "
            f"{self.misses} misses, {self.errors} errors, "
            f"{self.elapsed:.2f}s wall ({self.job_seconds:.2f}s compute, "
            f"{self.workers} workers)"
        )
        if self.groups:
            text += (f"; {self.groups} compile groups "
                     f"({self.grouped_jobs} grouped jobs)")
        if self.gangs:
            text += (f"; {self.gangs} gangs ({self.gang_points} points, "
                     f"gang_size max {self.max_gang})")
        return text


# -- worker side -----------------------------------------------------------------

#: Per-worker-process runner memo, keyed on (scale, cache_dir, verify,
#: engine): one runner per pool worker reuses golden checksums, front ends
#: and the in-memory cache across the jobs that land on it.  Under the fork
#: start method the parent enters its own runner here just before forking
#: (see :meth:`SweepExecutor._run_pool`), so workers inherit its state.
_worker_runners: dict[tuple, ExperimentRunner] = {}


def _gang_eligible(engine: str, group: list[SweepJob]) -> bool:
    """Gang a compile group when the batched engine is selected, the group
    has more than one point, and no point needs a CPI observer (attribution
    requires the reference engine)."""
    return (engine == "batched" and len(group) > 1
            and not any(job.collect_cpi for job in group))


def _run_group(scale: int, cache_dir: str, verify: bool, engine: str,
               group: list[SweepJob]
               ) -> tuple[list[tuple[RunRecord | None, float, str | None]],
                          dict, int]:
    """Run one compile group in a worker: every job shares a `_compile_key`,
    so the group compiles once (warm compile memo) — and under the batched
    engine the whole group simulates as one lockstep gang.

    Returns per-job ``(record, elapsed, error)`` in group order, the
    runner's counter delta, and the gang size used (0 = per-job runs).
    """
    key = (scale, cache_dir, verify, engine)
    runner = _worker_runners.get(key)
    if runner is None:
        runner = ExperimentRunner(scale=scale, cache_dir=cache_dir,
                                  verify_checksums=verify, engine=engine)
        _worker_runners[key] = runner
    before = runner.counters()
    out: list[tuple[RunRecord | None, float, str | None]] = []
    gang_n = 0
    if _gang_eligible(engine, group):
        gang_n = len(group)
        start = time.perf_counter()
        outcomes = runner.run_gang(
            group[0].benchmark, [job.config for job in group],
            opt_level=group[0].opt_level,
            unroll_factor=group[0].unroll_factor,
            num_windows=group[0].num_windows)
        share = (time.perf_counter() - start) / len(group)
        out = [(record, share, error) for record, error in outcomes]
    else:
        for job in group:
            start = time.perf_counter()
            record, error = None, None
            try:
                record = runner.run(job.benchmark, job.config, **job.kwargs())
            except Exception as exc:  # noqa: BLE001 - surfaced per job
                error = f"{type(exc).__name__}: {exc}"
            out.append((record, time.perf_counter() - start, error))
    after = runner.counters()
    delta = {name: after[name] - before[name] for name in after}
    return out, delta, gang_n


# -- job collection (figure prewarm) ----------------------------------------------

_DUMMY = RunRecord(
    benchmark="", cycles=1, instructions=1, ipc=1.0, checksum_ok=True,
    total_static=1, program_static=1, spill_static=0, connect_static=0,
    callsave_static=0, spilled_vregs=0, extended_vregs=0, dyn_connects=0,
    dyn_spills=0, mispredicts=0,
    cpi={"cycles": 1, "instructions": 1, "issue": 1, "raw_interlock": 0,
         "map_busy": 0, "redirect": {}, "stall_by_origin": {},
         "stall_by_category": {}, "stall_by_reg": {}, "mem_slot_stalls": 0,
         "connects": 0, "zero_cycle_connects": 0, "zero_cycle_forwards": 0},
)


class _JobCollector:
    """An :class:`ExperimentRunner` stand-in that records the jobs a figure
    function would run (returning dummy values) instead of computing them."""

    def __init__(self, runner: ExperimentRunner) -> None:
        self._runner = runner
        self.jobs: list[SweepJob] = []
        self._seen: dict[str, int] = {}

    def run(self, benchmark: str, config: MachineConfig,
            opt_level: str = "ilp", unroll_factor: int = 4,
            num_windows: int = 4, collect_cpi: bool = False) -> RunRecord:
        job = SweepJob(benchmark, config, opt_level, unroll_factor,
                       num_windows, collect_cpi)
        key = self._runner.cache_key(benchmark, config, **job.kwargs())
        if key not in self._seen:
            self._seen[key] = len(self.jobs)
            self.jobs.append(job)
        elif collect_cpi:
            # The same experiment was first requested without attribution:
            # upgrade it so the prewarmed record satisfies both lookups.
            index = self._seen[key]
            if not self.jobs[index].collect_cpi:
                self.jobs[index] = dataclasses.replace(self.jobs[index],
                                                       collect_cpi=True)
        return _DUMMY

    def baseline_cycles(self, benchmark: str) -> int:
        from repro.sim import unlimited_machine

        return self.run(benchmark, unlimited_machine(issue_width=1),
                        opt_level="scalar").cycles

    def speedup(self, benchmark: str, config: MachineConfig,
                **kwargs) -> float:
        self.baseline_cycles(benchmark)
        self.run(benchmark, config, **kwargs)
        return 1.0

    def rc_class_for(self, benchmark: str):
        return self._runner.rc_class_for(benchmark)

    @property
    def scale(self) -> int:
        return self._runner.scale


# -- the executor -----------------------------------------------------------------

class SweepExecutor:
    """Runs sweep jobs in parallel, filling the runner's cache.

    ``progress``, when given, is called as ``progress(done, total, result)``
    after every completed job (cache hits included).
    """

    def __init__(self, runner: ExperimentRunner | None = None,
                 jobs: int | None = None, progress=None,
                 collect_cpi: bool = False) -> None:
        self.runner = runner if runner is not None else ExperimentRunner()
        self.jobs = jobs if jobs is not None else default_jobs()
        self.progress = progress
        #: collect per-job CPI stacks and append the aggregate stall-cause
        #: composition to figure footers.
        self.collect_cpi = collect_cpi
        self.stats = SweepStats(workers=max(1, self.jobs))

    # -- core fan-out -------------------------------------------------------------

    def run(self, jobs: list[SweepJob]) -> list[JobResult]:
        """Execute every job; returns results in input order."""
        if self.collect_cpi:
            jobs = [job if job.collect_cpi
                    else dataclasses.replace(job, collect_cpi=True)
                    for job in jobs]
        start = time.perf_counter()
        total = len(jobs)
        self.stats.jobs += total
        results: list[JobResult | None] = [None] * total
        done = 0

        # Resolve cache hits up front, in the parent, so only real work is
        # shipped to the pool.
        pending: list[int] = []
        for i, job in enumerate(jobs):
            record = self.runner.cached(job.benchmark, job.config,
                                        **job.kwargs())
            if record is not None:
                self.runner.cache_hits += 1
                self.stats.hits += 1
                results[i] = JobResult(job, record, True, 0.0)
                done += 1
                self._notify(done, total, results[i])
            else:
                pending.append(i)

        if pending:
            if self.jobs <= 1:
                done = self._run_serial(jobs, pending, results, done, total)
            else:
                done = self._run_pool(jobs, pending, results, done, total)

        self.stats.elapsed += time.perf_counter() - start
        return [r for r in results if r is not None]

    def _finish(self, i: int, job: SweepJob, record: RunRecord | None,
                elapsed: float, error: str | None,
                results: list, done: int, total: int) -> int:
        self.stats.job_seconds += elapsed
        if error is not None:
            self.stats.errors += 1
        else:
            self.stats.misses += 1
        results[i] = JobResult(job, record, False, elapsed, error)
        done += 1
        self._notify(done, total, results[i])
        return done

    def _group_pending(self, jobs, pending) -> list[list[int]]:
        """Group pending job indices by compile-affecting key.

        Points sharing a ``(benchmark, _compile_key, opt options)`` tuple
        compile identically: each group lands on one worker so the compile
        memo serves the whole group, and under the batched engine the group
        simulates as one gang.  Bumps the grouping counters.
        """
        by_key: dict[tuple, list[int]] = {}
        for i in pending:
            job = jobs[i]
            key = (job.benchmark, _compile_key(job.config), job.opt_level,
                   job.unroll_factor, job.num_windows)
            by_key.setdefault(key, []).append(i)
        groups = list(by_key.values())
        for group in groups:
            if len(group) > 1:
                self.stats.groups += 1
                self.stats.grouped_jobs += len(group) - 1
        return groups

    def _count_gang(self, size: int) -> None:
        if size:
            self.stats.gangs += 1
            self.stats.gang_points += size
            self.stats.max_gang = max(self.stats.max_gang, size)

    def _run_serial(self, jobs, pending, results, done, total) -> int:
        runner = self.runner
        for idxs in self._group_pending(jobs, pending):
            group = [jobs[i] for i in idxs]
            if _gang_eligible(runner.engine, group):
                self._count_gang(len(group))
                start = time.perf_counter()
                outcomes = runner.run_gang(
                    group[0].benchmark, [job.config for job in group],
                    opt_level=group[0].opt_level,
                    unroll_factor=group[0].unroll_factor,
                    num_windows=group[0].num_windows)
                share = (time.perf_counter() - start) / len(group)
                for i, (record, error) in zip(idxs, outcomes):
                    done = self._finish(i, jobs[i], record, share, error,
                                        results, done, total)
                continue
            for i in idxs:
                job = jobs[i]
                start = time.perf_counter()
                record, error = None, None
                try:
                    record = runner.run(job.benchmark, job.config,
                                        **job.kwargs())
                except Exception as exc:  # noqa: BLE001 - surfaced per job
                    error = f"{type(exc).__name__}: {exc}"
                done = self._finish(i, job, record,
                                    time.perf_counter() - start,
                                    error, results, done, total)
        return done

    def _prefill(self, jobs, groups) -> None:
        """Compute every group's front end and golden checksum in this
        process, so forked workers inherit them instead of each worker
        recomputing them.  A failure is left for the worker to report
        against its jobs."""
        runner = self.runner
        for idxs in groups:
            job = jobs[idxs[0]]
            try:
                runner.front_end(job.benchmark, job.opt_level,
                                 job.unroll_factor)
                if runner.verify_checksums:
                    runner.golden_checksum(job.benchmark)
            except Exception:  # noqa: BLE001 - surfaced per job by workers
                continue

    def _run_pool(self, jobs, pending, results, done, total) -> int:
        runner = self.runner
        groups = self._group_pending(jobs, pending)
        workers = min(self.jobs, len(groups))
        args = (runner.scale, str(runner.cache_dir), runner.verify_checksums,
                runner.engine)
        # Forked workers inherit the parent's runner, front ends included;
        # spawned ones build their own (correct, but recomputed per pool).
        forked = multiprocessing.get_start_method() == "fork"
        if forked:
            self._prefill(jobs, groups)
            _worker_runners[args] = runner
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_run_group, *args,
                                [jobs[i] for i in idxs]): idxs
                    for idxs in groups
                }
                outstanding = set(futures)
                while outstanding:
                    finished, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED)
                    for fut in finished:
                        done = self._collect(fut, futures[fut], jobs,
                                             results, done, total)
        finally:
            if forked:
                _worker_runners.pop(args, None)
        return done

    def _collect(self, fut, idxs, jobs, results, done, total) -> int:
        """Fold one finished worker group into the results."""
        runner = self.runner
        try:
            outcomes, delta, gang_n = fut.result()
        except Exception as exc:  # noqa: BLE001
            error = f"{type(exc).__name__}: {exc}"
            outcomes = [(None, 0.0, error) for _ in idxs]
            delta, gang_n = None, 0
        self._count_gang(gang_n)
        if delta is not None:
            # Fold the worker's counter delta into the parent runner (the
            # forked worker's own counters are invisible here).
            runner.absorb_counters(delta)
        for i, (record, elapsed, error) in zip(idxs, outcomes):
            if record is not None:
                # Adopt the worker's record so later parent-side lookups
                # hit memory, not disk.
                key = runner.cache_key(jobs[i].benchmark, jobs[i].config,
                                       **jobs[i].kwargs())
                runner._memory[key] = record
            done = self._finish(i, jobs[i], record, elapsed, error,
                                results, done, total)
        return done

    def _notify(self, done: int, total: int, result: JobResult) -> None:
        if self.progress is not None:
            self.progress(done, total, result)

    # -- figure-level driver ------------------------------------------------------

    def collect_jobs(self, figure_fn, benchmarks=ALL_BENCHMARKS
                     ) -> list[SweepJob]:
        """The deduplicated job list a figure function would run."""
        collector = _JobCollector(self.runner)
        figure_fn(collector, benchmarks=benchmarks)
        jobs = collector.jobs
        if self.collect_cpi:
            jobs = [dataclasses.replace(job, collect_cpi=True)
                    for job in jobs]
        return jobs

    def run_figure(self, figure_fn, benchmarks=ALL_BENCHMARKS
                   ) -> FigureResult:
        """Regenerate one figure through the executor.

        Two passes: the figure function is first replayed against a job
        collector to enumerate its sweep, the jobs run in parallel to fill
        the cache, then the figure function runs for real — every lookup a
        cache hit.  The executor's counters land in the figure footer.
        """
        jobs = self.collect_jobs(figure_fn, benchmarks)
        job_results = self.run(jobs)
        failed = [r for r in job_results if r.error is not None]
        if failed:
            first = failed[0]
            raise RuntimeError(
                f"{len(failed)} sweep job(s) failed; first: "
                f"{first.job.benchmark} on {first.job.config.describe()}: "
                f"{first.error}"
            )
        fig = figure_fn(self.runner, benchmarks=benchmarks)
        fig.footer = self.stats.summary()
        if self.collect_cpi:
            merged = merge_cpi(r.record.cpi for r in job_results
                               if r.record is not None)
            fig.footer += "; " + stall_mix_summary(merged)
        return fig


def sweep_figures(names: list[str] | None = None,
                  benchmarks=ALL_BENCHMARKS,
                  runner: ExperimentRunner | None = None,
                  jobs: int | None = None,
                  progress=None) -> dict[str, FigureResult]:
    """Regenerate the named figures (default: all) through one executor."""
    executor = SweepExecutor(runner=runner, jobs=jobs, progress=progress)
    out: dict[str, FigureResult] = {}
    for name in names or list(ALL_FIGURES):
        fig_fn = ALL_FIGURES[name]
        out[name] = executor.run_figure(fig_fn, benchmarks=benchmarks)
    return out
