"""The repository's end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``figures`` regenerates the figure suite
cold with two sweep workers, then re-renders it warm from that cache;
``sim_x4`` runs figures 7 and 12 at four times the input scale on the
batched engine; ``serve_mixed`` drives an in-process ``repro serve`` with
two closed-loop clients.  Every timed unit runs in a fresh interpreter
(``child.py``) with its own empty cache directory and a pinned ``REPRO_*``
environment; timed units repeat until ``--seconds`` have passed and the
metrics are medians over them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports the per-layer metrics: it runs one untraced unit,
then one unit with every public ``repro`` function of ``layers.TARGETS``
wrapped in a span, and derives self times, counts and the tracing
overhead from the pair.  Sweep traces run with one worker so the self
times add up to the wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, serve_jobs  # noqa: E402

#: Whole-run deadline; each unit gets what is left of it.
DEADLINE_S = 170.0
#: Warm re-renders per cold sweep, and warm server restarts per serve
#: unit.
WARM_REPS = 8
#: Serve set-ups measured per run (on top of the measured units' own).
SETUP_PROBES = 2


#: The speed probe: a fixed pure-Python loop, run every PROBE_EVERY_S
#: seconds on its own thread, timed in thread CPU time so that waiting
#: for a core does not count.  REFERENCE_PROBE_S is its time on an
#: uncontended core of the reference machine (2-core x86_64, 2.1 GHz).
PROBE_LOOPS = 50_000
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.0035
#: A measured interval is divided by the mean slowdown of the samples
#: from INTERVAL_PAD_S before it to INTERVAL_PAD_S after it, so even a
#: 10 ms interval averages several samples; a unit's per-layer times use
#: a wider window.
INTERVAL_PAD_S = 0.3
PROBE_PAD_S = 1.0


class SpeedProbe:
    """Samples how much slower than the reference this machine's cores run,
    for the whole benchmark run.

    On shared hosts a core's speed drifts by up to 2x over seconds as
    co-tenants load it, and CPU time inflates with wall time, so neither
    is steady on its own.  Every time a unit reports is divided by the
    probe's mean slowdown around that unit, which puts units run at
    different moments on one scale.
    """

    def __init__(self) -> None:
        #: (monotonic time at the end of the sample, seconds it took)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            start = time.thread_time()
            x = 0
            for i in range(PROBE_LOOPS):
                x += i * i
            self.samples.append((time.monotonic(),
                                 time.thread_time() - start))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float,
                 pad: float = INTERVAL_PAD_S) -> float:
        """Mean slowdown over [start - pad, end + pad] (monotonic)."""
        window = [took for at, took in list(self.samples)
                  if start - pad <= at <= end + pad]
        if not window:
            return 1.0
        return statistics.fmean(window) / REFERENCE_PROBE_S


class UnitFailed(RuntimeError):
    """A child process crashed or timed out."""


class Run:
    """One benchmark invocation: a work directory, spawned units and the
    per-process hash seeds they ran under."""

    def __init__(self, workload: str, seed: int) -> None:
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.started = time.monotonic()
        self.work = ROOT / ".perfbench" / str(os.getpid())
        self.tmp = self.work / "t"
        self.tmp.mkdir(parents=True)
        self._hash_rng = random.Random(f"hash-{seed}")
        self._count = 0
        #: Units whose times are not yet normalized, and one report line
        #: per normalized unit.
        self._pending: list[tuple] = []
        self.log: list[str] = []
        self.probe = SpeedProbe()
        self.probe.start()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def repeat(self, seconds: float, body) -> None:
        """Call *body* the workload's ``min_units`` times, then again while
        one more call is expected to end within *seconds* of the start."""
        done = 0
        while True:
            start = time.monotonic()
            body()
            done += 1
            now = time.monotonic()
            if (done >= self.spec["min_units"]
                    and now + (now - start) - self.started > seconds):
                return

    def _env(self, hash_seed: int, cache_dir: Path, jobs: int) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")
               and k not in ("PYTHONHASHSEED", "PYTHONPATH")}
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            # Not pinned to one value: compile output depends on it, and
            # that defect must show up as nondeterministic points.
            "PYTHONHASHSEED": str(hash_seed),
            # Relative to the unit's working directory, so multiprocessing's
            # socket paths stay inside the run and under the 108-byte
            # AF_UNIX limit however deep the checkout is.
            "TMPDIR": ".",
            "REPRO_ENGINE": self.spec["engine"],
            "REPRO_JOBS": str(jobs),
            "REPRO_SCALE": str(self.spec["scale"]),
            "REPRO_CACHE_DIR": str(cache_dir),
            "REPRO_BATCH_BACKEND": "python",
            "REPRO_IR_ENGINE": "fast",
            "REPRO_COMPILE_JOBS": "1",
        })
        return env

    def unit(self, label: str, cache_dir: Path, trace: bool = False,
             jobs: int | None = None, hash_seed: int | None = None,
             **extra) -> dict:
        """Run one unit in a fresh process; returns its result with
        ``setup_s`` (spawn to ready) added.  The hash seed is the run's
        next one unless given."""
        self._count += 1
        jobs = self.spec["jobs"] if jobs is None else jobs
        if hash_seed is None:
            hash_seed = self._hash_rng.randrange(1, 2**32 - 1)
        spec = {**self.spec, **extra, "unit": self.spec["kind"],
                "jobs": jobs, "cache_dir": str(cache_dir), "trace": trace,
                "trace_dir": str(self.work / f"trace{self._count}"),
                "out": str(self.work / f"out{self._count}.json")}
        Path(spec["trace_dir"]).mkdir()
        spec_path = self.work / f"spec{self._count}.json"
        spec_path.write_text(json.dumps(spec))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=self.tmp, env=self._env(hash_seed, cache_dir, jobs),
            stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The unit's pool workers share its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        ended = time.monotonic()
        if code != 0:
            raise UnitFailed(f"{label} unit exited with {code}")
        out = json.loads(Path(spec["out"]).read_text())
        out["setup_s"] = (out["ready"], out["ready"] - spawned)
        self._pending.append((label, hash_seed, spawned, ended, out))
        return out

    def settle(self) -> None:
        """Divide the times of every unit run so far by the machine's
        slowdown while they were measured; call before computing
        metrics."""
        time.sleep(PROBE_PAD_S)  # samples after the last unit

        def scaled(end: float, seconds: float) -> float:
            return seconds / self.probe.slowdown(end - seconds, end)

        for label, hash_seed, spawned, ended, out in self._pending:
            raw_wall = out.get("wall", (0.0, 0.0))[1]
            for key in ("wall", "setup_s"):
                if key in out:
                    out[key] = scaled(*out[key])
            for key in ("latencies", "warm"):
                if key in out:
                    out[key] = [scaled(*pair) for pair in out[key]]
            # Layer times add up over the whole unit.
            slowdown = self.probe.slowdown(spawned, ended, PROBE_PAD_S)
            _normalize(out, slowdown)
            line = (f"unit {label}: PYTHONHASHSEED={hash_seed} wall "
                    f"{raw_wall:.3f} s, slowdown {slowdown:.3f}")
            if "points" in out:
                digest = hashlib.sha256(json.dumps(
                    out["points"], sort_keys=True).encode()).hexdigest()
                line += f", points digest {digest[:16]}"
            self.log.append(line)
        self._pending.clear()

    def fresh_dir(self, label: str) -> Path:
        self._count += 1
        return self.work / f"{label}{self._count}"

    def close(self) -> None:
        self.probe.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _normalize(out: dict, slowdown: float) -> None:
    """Divide a unit's per-layer times by its mean probe slowdown."""
    for key in ("submit", "service", "queue_wait"):
        if key in out:
            out[key] = [value / slowdown for value in out[key]]
    for key in ("elapsed_s", "job_seconds"):
        if key in out.get("executor", {}):
            out["executor"][key] /= slowdown
    for values in out.get("trace", {}).get("spans", {}).values():
        values[0] /= slowdown
        values[1] /= slowdown


# -- statistics ---------------------------------------------------------------------

def cold_metrics(units: list[dict]) -> dict[str, float]:
    """Medians over the cold units of their wall time, throughput and
    job-latency p50 and p90 (each unit has over 100 latencies, so its p90
    has at least ten beyond it)."""
    def median_of(fn) -> float:
        return statistics.median(fn(u) for u in units)

    return {
        "cold_s": median_of(lambda u: u["wall"]),
        "jobs_per_s": median_of(lambda u: len(u["latencies"]) / u["wall"]),
        "p50_ms": median_of(lambda u: statistics.median(u["latencies"])
                            * 1000),
        "p90_ms": median_of(lambda u: statistics.quantiles(
            u["latencies"], n=10)[-1] * 1000),
    }


def nondeterministic(units: list[dict]) -> int:
    """Points whose (cycles, instructions) differ between units."""
    seen: dict[str, set] = {}
    for unit in units:
        for key, value in unit.get("points", {}).items():
            seen.setdefault(key, set()).add(tuple(value))
    return sum(1 for values in seen.values() if len(values) > 1)


def peak_rss_mb(units: list[dict], workers: int) -> float:
    """The benchmark process plus the largest unit's process tree: its own
    peak plus *workers* times its largest worker's peak (getrusage)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tree = max(rss[0] + workers * rss[1]
               for rss in (unit["rss_mb"] for unit in units))
    return own + tree


class Outcome:
    """Attempted and failed counts, failure messages, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def absorb(self, unit: dict) -> None:
        self.attempted += unit["attempted"]
        self.failures.extend(unit["failures"])


# -- end-to-end runs ----------------------------------------------------------------

def sweep_e2e(run: Run, seconds: float, out: Outcome) -> None:
    colds, warms = [], []

    def cold_then_warm() -> None:
        cache = run.fresh_dir("cache")
        cold = run.unit("cold", cache)
        colds.append(cold)
        out.absorb(cold)
        for _ in range(WARM_REPS):
            warm = run.unit("warm", cache)
            warms.append(warm)
            out.absorb(warm)
            if warm["output"] != cold["output"]:
                out.failures.append("warm figures differ from cold ones")

    run.repeat(seconds, cold_then_warm)
    run.settle()
    units = colds + warms
    out.metrics.update({
        "setup_s": statistics.median(u["setup_s"] for u in units),
        # A warm re-render is a whole fresh process, imports included.
        "warm_s": statistics.median(u["setup_s"] + u["wall"]
                                    for u in warms),
        "peak_rss_mb": peak_rss_mb(units, run.spec["jobs"]),
        **cold_metrics(colds),
    })
    out.notes.append(f"{len(colds)} cold units, {len(warms)} warm units, "
                     f"{len(colds[0]['latencies'])} point latencies per "
                     "cold unit")
    out.notes.append("experiments.nondeterministic_points: "
                     f"{nondeterministic(colds)}")


def serve_e2e(run: Run, seconds: float, out: Outcome) -> None:
    mix = serve_jobs(run.seed)
    probes = [run.unit("setup", run.fresh_dir("art"), mix=mix,
                       setup_only=True) for _ in range(SETUP_PROBES)]
    units = []

    def serve_unit() -> None:
        unit = run.unit("serve", run.fresh_dir("art"), mix=mix,
                        warm_reps=WARM_REPS)
        units.append(unit)
        out.absorb(unit)

    run.repeat(seconds, serve_unit)
    run.settle()
    out.metrics.update({
        "setup_s": statistics.median(u["setup_s"] for u in probes + units),
        "warm_s": statistics.median(w for u in units for w in u["warm"]),
        "peak_rss_mb": peak_rss_mb(probes + units, run.spec["jobs"]),
        **cold_metrics(units),
    })
    out.notes.append(f"{len(units)} serve units of {len(mix)} jobs, "
                     f"{run.spec['clients']} closed-loop clients")
    out.notes.append("experiments.nondeterministic_points: "
                     f"{nondeterministic(units)}")


# -- traced runs --------------------------------------------------------------------

def sweep_trace(run: Run, out: Outcome) -> None:
    cache = run.fresh_dir("cache")
    base = run.unit("cold", cache)
    warm = run.unit("warm", cache)
    serial = base if run.spec["jobs"] == 1 else \
        run.unit("cold-serial", run.fresh_dir("cache"), jobs=1)
    cache = run.fresh_dir("cache")
    traced = run.unit("cold-traced", cache, trace=True, jobs=1)
    traced_warm = run.unit("warm-traced", cache, trace=True, jobs=1)
    run.settle()
    units = [base, warm, serial, traced, traced_warm]
    for unit in {id(u): u for u in units}.values():
        out.absorb(unit)
    trace = tracing.merge([traced["trace"], traced_warm["trace"]])
    out.metrics.update(layers.from_trace(trace))
    out.metrics["trace.overhead_share"] = (
        (traced["wall"] + traced_warm["wall"])
        / (serial["wall"] + warm["wall"]) - 1)
    counters = traced["counters"]
    for name in ("cache_hits", "cache_misses", "compile_hits",
                 "compile_misses"):
        out.metrics[f"experiments.{name}"] = counters[name]
    stats = base["executor"]
    out.metrics.update({
        "executor.elapsed_s": stats["elapsed_s"],
        "executor.job_seconds": stats["job_seconds"],
        "executor.utilization": stats["job_seconds"]
        / (stats["elapsed_s"] * stats["workers"]),
    })
    out.metrics.update({name: 0.0 for name in layers.PER_LAYER
                        if name.startswith("serve.")})
    out.metrics["experiments.nondeterministic_points"] = nondeterministic(
        [base, serial, traced])


def serve_trace(run: Run, out: Outcome) -> None:
    mix = serve_jobs(run.seed)
    base = run.unit("serve", run.fresh_dir("art"), mix=mix, warm_reps=1)
    traced = run.unit("serve-traced", run.fresh_dir("art"), mix=mix,
                      warm_reps=1, trace=True)
    run.settle()
    out.absorb(base)
    out.absorb(traced)
    out.metrics.update(layers.from_trace(traced["trace"]))
    out.metrics["trace.overhead_share"] = traced["wall"] / base["wall"] - 1
    for name in ("cache_hits", "cache_misses", "compile_hits",
                 "compile_misses"):
        out.metrics[f"experiments.{name}"] = traced["counters"].get(name, 0)
    out.metrics.update({
        "executor.elapsed_s": 0.0, "executor.job_seconds": 0.0,
        "executor.utilization": 0.0,
        "serve.submit_ms": statistics.median(base["submit"]) * 1000,
        "serve.queue_wait_ms": statistics.median(base["queue_wait"]) * 1000,
        "serve.service_ms": statistics.median(base["service"]) * 1000,
        "serve.artifact_hit_ratio": base["artifact_hits"]
        / base["submitted"],
        "serve.coalesced": base["coalesced"],
        "experiments.nondeterministic_points": nondeterministic(
            [base, traced]),
    })


# -- entry point --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed)
    out = Outcome()
    sweep = run.spec["kind"] == "sweep"
    try:
        if args.trace:
            (sweep_trace if sweep else serve_trace)(run, out)
        else:
            (sweep_e2e if sweep else serve_e2e)(run, args.seconds, out)
    except UnitFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    for line in run.log:
        print(line)
    for note in out.notes:
        print(note)
    for failure in out.failures[:20]:
        print(f"FAILED: {failure}")
    failed_share = len(out.failures) / max(1, out.attempted)
    print(f"{args.workload}: failed_share {failed_share:.4f} "
          f"({len(out.failures)} of {out.attempted} attempted)")
    metrics = {}
    for metric in wanted:
        value = out.metrics[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload}: {metric['name']} {value:.6g} "
              f"{metric['unit']}")
    correct = not out.failures
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": len(out.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
