"""Compile-and-simulate experiment runner with persistent caching.

One :class:`ExperimentRunner` owns a benchmark scale and a disk cache; every
(benchmark, machine configuration, optimization level) combination is
compiled, simulated, checksum-verified against the IR interpreter, and the
resulting record cached as a JSON document in a :class:`repro.store.Store`
so the figure-regeneration benches are cheap to re-run.

The speedup baseline follows paper section 5.3: "a single-issue processor
with an unlimited number of registers using conventional compiler scalar
optimizations."
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from repro.compiler import (
    CompileOptions,
    OptOptions,
    compile_front_end,
    compile_module,
)
from repro.errors import SimulationError
from repro.ir import run_module
from repro.isa import RClass
from repro.observe import CPIStack, Observer
from repro.sim import (
    MachineConfig,
    Simulator,
    resolve_engine,
    simulate,
    unlimited_machine,
)
from repro.store import Store
from repro.workloads import workload

#: Environment variable scaling every benchmark's input size.
SCALE_ENV = "REPRO_SCALE"
CACHE_ENV = "REPRO_CACHE_DIR"

#: Packages whose source determines cached results: editing any file under
#: them must invalidate every previously cached record.  ``repro.analyze``
#: holds the connect optimizer every RC compile runs, and ``repro.observe``
#: builds :attr:`RunRecord.cpi`.
FINGERPRINT_PACKAGES = ("repro.compiler", "repro.sim", "repro.workloads",
                        "repro.isa", "repro.ir", "repro.rc", "repro.analyze",
                        "repro.observe")

_fingerprint_cache: str | None = None


def code_fingerprint(refresh: bool = False) -> str:
    """A short hash of the cycle-affecting source tree.

    Every cache key embeds this fingerprint, so cached records invalidate
    automatically whenever the compiler, simulator, or workload code
    changes — no manual version bump to forget.
    """
    global _fingerprint_cache
    if _fingerprint_cache is not None and not refresh:
        return _fingerprint_cache
    import importlib.util
    import sys

    digest = hashlib.sha256()
    for pkg_name in FINGERPRINT_PACKAGES:
        # Locate a package without importing it: a warm re-render never
        # loads the connect optimizer, and importing ``repro.analyze``
        # costs ten times more than hashing it.
        pkg = sys.modules.get(pkg_name)
        roots = (pkg.__path__ if pkg is not None else
                 importlib.util.find_spec(pkg_name).submodule_search_locations)
        for root in roots:
            for path in sorted(Path(root).rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    _fingerprint_cache = digest.hexdigest()[:16]
    return _fingerprint_cache


@dataclass(frozen=True)
class RunRecord:
    """The cached outcome of one compile+simulate experiment."""

    benchmark: str
    cycles: int
    instructions: int
    ipc: float
    checksum_ok: bool
    total_static: int
    program_static: int
    spill_static: int
    connect_static: int
    callsave_static: int
    spilled_vregs: int
    extended_vregs: int
    dyn_connects: int
    dyn_spills: int
    mispredicts: int
    #: CPI-stack attribution (:meth:`repro.observe.CPIStack.to_dict`),
    #: populated when the experiment ran with ``collect_cpi=True``.
    cpi: dict | None = None

    @property
    def code_size_increase(self) -> float:
        base = self.total_static - self.overhead_static
        return self.overhead_static / base if base else 0.0

    @property
    def overhead_static(self) -> int:
        return self.spill_static + self.connect_static + self.callsave_static

    @property
    def callsave_increase(self) -> float:
        base = self.total_static - self.overhead_static
        return self.callsave_static / base if base else 0.0


#: A stored record's JSON keys, in field order; any other key list is a
#: miss that the recompute overwrites.
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(RunRecord))


def _store_key(cache_key: str) -> str:
    """The store key (a lowercase-hex digest) of one runner cache key."""
    return hashlib.sha256(cache_key.encode()).hexdigest()[:24]


def _compile_key(config: MachineConfig) -> str:
    """The part of a config that can change *compilation* output.

    The scheduler is machine-aware (issue width, memory channels, the full
    latency table, the RC model's map-dependency ordering) and the register
    allocator sees both file specs, so all of those are compile-affecting.
    ``extra_decode_stage`` and ``max_cycles`` are simulate-only and live in
    :func:`_sim_key` — sweep points differing only in those reuse one
    compilation via the in-memory compiled-program cache.
    """
    lat = "-".join(str(v) for v in config.latency.field_tuple())
    return (
        f"iw{config.issue_width}.mc{config.mem_channels}"
        f".lat{lat}"
        f".int{config.int_spec.core}-{config.int_spec.total}"
        f".fp{config.fp_spec.core}-{config.fp_spec.total}"
        f".m{config.rc_model.value}"
    )


def _sim_key(config: MachineConfig) -> str:
    """The part of a config that only changes *simulation*, not compilation."""
    return f"x{int(config.extra_decode_stage)}.cy{config.max_cycles}"


def _config_key(config: MachineConfig) -> str:
    """A cache key covering *every* cycle-affecting configuration field.

    Composed of the compile-affecting and simulate-affecting parts, so two
    configs differing in any latency or limit can never share a cached
    record.
    """
    return f"{_compile_key(config)}.{_sim_key(config)}"


class ExperimentRunner:
    """Runs and caches benchmark experiments at a fixed input scale."""

    #: In-memory compiled-program and front-end cache size (FIFO
    #: eviction); sweep points differing only in simulate-affecting fields
    #: share one compilation, and all configs share one front end.
    COMPILE_CACHE_CAP = 64

    def __init__(self, scale: int | None = None,
                 cache_dir: str | Path | None = None,
                 verify_checksums: bool = True,
                 engine: str | None = None) -> None:
        if scale is None:
            scale = int(os.environ.get(SCALE_ENV, "1"))
        self.scale = scale
        self.verify_checksums = verify_checksums
        self.engine = resolve_engine(engine)
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_ENV, ".repro_cache")
        self.cache_dir = Path(cache_dir)
        self.store = Store(self.cache_dir)
        self._memory: dict[str, RunRecord] = {}
        self._golden: dict[str, int | float] = {}
        self._compiled: dict[tuple, tuple] = {}
        self._front_ends: dict[tuple, tuple] = {}
        self._fingerprint = code_fingerprint()
        #: cache traffic counters, surfaced by the sweep executor.
        self.cache_hits = 0
        self.cache_misses = 0
        self.compile_hits = 0
        self.compile_misses = 0

    #: the counter attributes :meth:`counters` snapshots.
    COUNTER_FIELDS = ("cache_hits", "cache_misses",
                      "compile_hits", "compile_misses")

    def counters(self) -> dict[str, int]:
        """A snapshot of the cache traffic counters.

        Pool workers run jobs on *forked copies* of a runner, so counters
        they bump are invisible to the parent; callers that fan out take a
        snapshot around each remote job and ship the delta back (see
        :func:`repro.experiments.executor._run_group` and
        :meth:`absorb_counters`).
        """
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def absorb_counters(self, delta: dict[str, int]) -> None:
        """Add a worker's counter delta into this (parent) runner."""
        for name in self.COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + delta.get(name, 0))

    # -- caching ---------------------------------------------------------------

    def _load(self, key: str) -> RunRecord | None:
        record = self._memory.get(key)
        if record is not None:
            return record
        doc = self.store.get(_store_key(key))
        if doc is None or tuple(doc) != _RECORD_FIELDS:
            return None  # absent, or written under another RunRecord schema
        record = self._memory[key] = RunRecord(**doc)
        return record

    def _store(self, key: str, record: RunRecord) -> None:
        self._memory[key] = record
        self.store.put(_store_key(key),
                       {name: getattr(record, name) for name in _RECORD_FIELDS})

    # -- golden results ----------------------------------------------------------

    def golden_checksum(self, benchmark: str) -> int | float:
        if benchmark not in self._golden:
            m = workload(benchmark).module(self.scale)
            result = run_module(m)
            self._golden[benchmark] = result.load_word(
                m.global_addr("checksum"))
        return self._golden[benchmark]

    # -- running -------------------------------------------------------------------

    def cache_key(self, benchmark: str, config: MachineConfig,
                  opt_level: str = "ilp", unroll_factor: int = 4,
                  num_windows: int = 4, collect_cpi: bool = False) -> str:
        """The cache key for one experiment, including the code fingerprint.

        ``collect_cpi`` is accepted but deliberately excluded: observation
        has no effect on results (asserted by tests), so a record computed
        with CPI attribution satisfies lookups without it and vice versa —
        except that a CPI-requesting lookup of a CPI-less record recomputes
        (see :meth:`run`).
        """
        del collect_cpi
        return (f"{benchmark}.s{self.scale}.{_config_key(config)}"
                f".o{opt_level}.u{unroll_factor}.w{num_windows}"
                f".f{self._fingerprint}")

    def front_end(self, benchmark: str, opt_level: str = "ilp",
                  unroll_factor: int = 4) -> tuple:
        """The built workload module and its compiler front end, memoized.

        The front end (optimize, profile, alias) does not depend on the
        machine configuration, so every sweep point, gang and serve job of
        one (benchmark, opt level, unroll factor) shares it.
        """
        key = (benchmark, opt_level, unroll_factor)
        hit = self._front_ends.get(key)
        if hit is None:
            module = workload(benchmark).module(self.scale)
            front = compile_front_end(module, CompileOptions(
                opt=OptOptions(level=opt_level, unroll_factor=unroll_factor)))
            if len(self._front_ends) >= self.COMPILE_CACHE_CAP:
                self._front_ends.pop(next(iter(self._front_ends)))
            hit = self._front_ends[key] = (module, front)
        return hit

    def _compiled_program(self, benchmark: str, config: MachineConfig,
                          opt_level: str, unroll_factor: int,
                          num_windows: int) -> tuple:
        """Compile *benchmark* for *config*, memoized on the
        compile-affecting key.

        Sweep points that differ only in simulate-affecting fields
        (``extra_decode_stage``, ``max_cycles``) hit this cache and reuse
        one compilation — and, because the same ``MachineProgram`` object is
        returned, the fast engine's per-program code cache amortizes its
        specialization cost across those points too.  A miss runs only the
        back end, on a copy of the memoized :meth:`front_end`.
        """
        ckey = (benchmark, _compile_key(config), opt_level, unroll_factor,
                num_windows)
        hit = self._compiled.get(ckey)
        if hit is not None:
            self.compile_hits += 1
            return hit
        self.compile_misses += 1
        module, front = self.front_end(benchmark, opt_level, unroll_factor)
        from repro.compiler.regalloc.allocator import AllocationOptions

        options = CompileOptions(
            opt=OptOptions(level=opt_level, unroll_factor=unroll_factor),
            alloc=AllocationOptions(num_windows=num_windows),
        )
        out = compile_module(module, config, options, front_end=front)
        if len(self._compiled) >= self.COMPILE_CACHE_CAP:
            self._compiled.pop(next(iter(self._compiled)))
        self._compiled[ckey] = (module, out)
        return module, out

    def cached(self, benchmark: str, config: MachineConfig,
               collect_cpi: bool = False, **kwargs) -> RunRecord | None:
        """Return the cached record for one experiment, or None (no compute,
        no counter traffic)."""
        record = self._load(self.cache_key(benchmark, config, **kwargs))
        if record is not None and collect_cpi and record.cpi is None:
            return None
        return record

    def run(self, benchmark: str, config: MachineConfig,
            opt_level: str = "ilp", unroll_factor: int = 4,
            num_windows: int = 4, collect_cpi: bool = False) -> RunRecord:
        """Compile and simulate one benchmark; cached.

        ``collect_cpi=True`` attaches a per-cause cycle attribution
        (:attr:`RunRecord.cpi`) collected by an aggregate-only observer; a
        cached record without one is recomputed (and upgraded in place).
        """
        key = self.cache_key(benchmark, config, opt_level=opt_level,
                             unroll_factor=unroll_factor,
                             num_windows=num_windows)
        record = self._load(key)
        if record is not None and (record.cpi is not None or not collect_cpi):
            self.cache_hits += 1
            return record
        self.cache_misses += 1

        module, out = self._compiled_program(
            benchmark, config, opt_level, unroll_factor, num_windows)
        observer = None
        if collect_cpi:
            observer = Observer(keep_events=False)
            result = Simulator(out.program, config, observer=observer).run()
        else:
            result = simulate(out.program, config, engine=self.engine)
        record = self._make_record(benchmark, config, module, out, result,
                                   observer)
        self._store(key, record)
        return record

    def _verify(self, benchmark: str, config: MachineConfig, module, out,
                result) -> bool:
        """Checksum-verify one simulation result; raises on mismatch."""
        addr = module.global_addr("checksum")
        got = result.load_word(addr)
        # The compiled program must reproduce the optimized module's
        # interpretation exactly...
        want = out.interp.load_word(addr)
        if got != want:
            raise SimulationError(
                f"{benchmark} on {config.describe()}: checksum mismatch "
                f"({got!r} != {want!r})"
            )
        # ...and the optimized module may differ from the original only
        # by FP-reassociation rounding.
        original = self.golden_checksum(benchmark)
        if isinstance(original, float):
            drift = abs(want - original) / max(abs(original), 1e-30)
            if drift > 1e-9:
                raise SimulationError(
                    f"{benchmark}: optimization drifted the FP checksum "
                    f"by {drift:.2e}"
                )
        elif want != original:
            raise SimulationError(
                f"{benchmark}: optimization changed the integer checksum "
                f"({want!r} != {original!r})"
            )
        return True

    def _make_record(self, benchmark: str, config: MachineConfig, module,
                     out, result, observer=None) -> RunRecord:
        checksum_ok = True
        if self.verify_checksums:
            checksum_ok = self._verify(benchmark, config, module, out, result)
        stats = out.stats
        return RunRecord(
            benchmark=benchmark,
            cycles=result.cycles,
            instructions=result.stats.instructions,
            ipc=result.stats.ipc,
            checksum_ok=checksum_ok,
            total_static=stats.total_instructions,
            program_static=stats.program_instructions,
            spill_static=stats.spill_instructions,
            connect_static=stats.connect_instructions,
            callsave_static=stats.callsave_instructions,
            spilled_vregs=stats.spilled_vregs,
            extended_vregs=stats.extended_vregs,
            dyn_connects=result.stats.by_origin.get("connect", 0),
            dyn_spills=result.stats.by_origin.get("spill", 0),
            mispredicts=result.stats.mispredicts,
            cpi=(CPIStack.from_observer(observer, result.stats).to_dict()
                 if observer is not None else None),
        )

    def run_gang(self, benchmark: str, configs: list[MachineConfig],
                 opt_level: str = "ilp", unroll_factor: int = 4,
                 num_windows: int = 4,
                 ) -> list[tuple[RunRecord | None, str | None]]:
        """Compile once and simulate *configs* as one lockstep gang.

        Every config must share the benchmark's :func:`_compile_key` (the
        sweep executor groups points that way), so one compilation serves
        the whole gang and :func:`repro.sim.simulate_gang` steps all points
        in a single pass.  Returns ``(record, error)`` per slot in input
        order: a slot that faults or exhausts its budget carries the error
        string (matching what :meth:`run` would have raised) without
        disturbing the other slots.  Successful slots land in the cache
        exactly as :meth:`run` would store them.
        """
        from repro.sim import simulate_gang

        keys = {_compile_key(c) for c in configs}
        if len(keys) > 1:
            raise ValueError(f"gang configs span {len(keys)} compile keys")
        outcomes: list[tuple[RunRecord | None, str | None]] = []
        try:
            module, out = self._compiled_program(
                benchmark, configs[0], opt_level, unroll_factor, num_windows)
            gang = simulate_gang(out.program, configs)
        except Exception as exc:  # noqa: BLE001 - surfaced per slot
            err = f"{type(exc).__name__}: {exc}"
            return [(None, err) for _ in configs]
        for config, slot in zip(configs, gang):
            self.cache_misses += 1
            if slot.error is not None:
                exc = slot.error
                outcomes.append((None, f"{type(exc).__name__}: {exc}"))
                continue
            try:
                record = self._make_record(benchmark, config, module, out,
                                           slot.result)
            except Exception as exc:  # noqa: BLE001 - surfaced per slot
                outcomes.append((None, f"{type(exc).__name__}: {exc}"))
                continue
            key = self.cache_key(benchmark, config, opt_level=opt_level,
                                 unroll_factor=unroll_factor,
                                 num_windows=num_windows)
            self._store(key, record)
            outcomes.append((record, None))
        return outcomes

    # -- paper-style derived quantities ------------------------------------------

    def baseline_cycles(self, benchmark: str) -> int:
        """Cycles on the paper's speedup-baseline machine."""
        return self.run(benchmark, unlimited_machine(issue_width=1),
                        opt_level="scalar").cycles

    def speedup(self, benchmark: str, config: MachineConfig,
                **kwargs) -> float:
        record = self.run(benchmark, config, **kwargs)
        return self.baseline_cycles(benchmark) / record.cycles

    def rc_class_for(self, benchmark: str) -> RClass:
        """Which register file receives RC for this benchmark (section 5.2)."""
        return RClass.INT if workload(benchmark).kind == "int" else RClass.FP
