"""The compiler driver: IR module -> optimized, allocated machine program.

Stage order (see DESIGN.md).  Stages 1-3 plus memory-region alias tagging
are the config-independent *front end* (:func:`compile_front_end`); the
rest is the per-config *back end*, which starts from a copy of a front end
so a sweep can compute each front end once and share it across configs:

1. copy the module (compilation never mutates the caller's IR);
2. classical + ILP optimization;
3. re-profile by interpretation (priorities and branch hints must describe
   the *optimized* code; this also re-checks semantic equivalence upstream);
4. call lowering to the stack convention;
5. priority graph-coloring allocation (core / extended / spill) with
   connection-window reservation;
6. spill and extended-register caller-save insertion;
7. prologue/epilogue insertion and frame-offset resolution;
8. connect insertion through the window emulation of the mapping table;
9. profile-driven static branch hints;
10. machine-aware list scheduling;
11. layout and flattening into a :class:`~repro.sim.program.MachineProgram`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.compiler.alias import annotate_module
from repro.compiler.callconv import (
    check_no_symbolic_offsets,
    insert_prologue_epilogue,
    lower_calls,
)
from repro.compiler.lower import lower_module
from repro.compiler.opt import OptOptions, optimize_module
from repro.compiler.regalloc.allocator import (
    AllocationOptions,
    AllocationResult,
    _SharedCounters,
    allocate_function,
    apply_allocation,
)
from repro.compiler.regalloc.rc_rewrite import check_encodable, insert_connects
from repro.compiler.sched.listsched import schedule_function
from repro.ir.function import Module
from repro.ir.interp import Interpreter, InterpResult, Profile
from repro.isa.registers import RClass, UNLIMITED
from repro.observe.passes import PassMetrics, maybe_measure
from repro.sim.config import MachineConfig
from repro.sim.program import MachineProgram

@dataclass
class CompileOptions:
    opt: OptOptions = field(default_factory=OptOptions)
    alloc: AllocationOptions = field(default_factory=AllocationOptions)
    schedule: bool = True
    #: Step limit for the profiling interpretation.
    profile_step_limit: int = 50_000_000
    #: Run the static checker (:mod:`repro.analyze`) on the generated
    #: machine code and fail compilation on any error-severity finding.
    check: bool = False
    #: IR interpreter engine for the profiling stage ("fast"/"reference");
    #: ``None`` means fast.
    ir_engine: str | None = None
    #: Run the analysis-driven connect optimizer
    #: (:mod:`repro.analyze.optimize`) on the laid-out machine program:
    #: delete dead connects, eliminate redundant ones, hoist loop-invariant
    #: ones to preheaders.  Architecturally invisible (gated by bit-exact
    #: parity in CI); the report lands in :attr:`CompileOutput.connect_opt`.
    opt_connects: bool = True


@dataclass
class CompileStats:
    """Static code-size accounting (Figure 9's raw material)."""

    total_instructions: int = 0
    program_instructions: int = 0
    spill_instructions: int = 0
    connect_instructions: int = 0
    callsave_instructions: int = 0
    frame_instructions: int = 0
    spilled_vregs: int = 0
    extended_vregs: int = 0
    #: Static connect instructions removed by the connect optimizer.
    connects_removed: int = 0

    @property
    def overhead_instructions(self) -> int:
        """Code added because registers ran out (spill/connect/callsave)."""
        return (self.spill_instructions + self.connect_instructions
                + self.callsave_instructions)

    @property
    def base_instructions(self) -> int:
        return self.total_instructions - self.overhead_instructions

    @property
    def code_size_increase(self) -> float:
        """Fractional code growth due to allocation overhead."""
        base = self.base_instructions
        return self.overhead_instructions / base if base else 0.0

    @property
    def callsave_increase(self) -> float:
        """The Figure 9 'black bar': extended save/restore share of growth."""
        base = self.base_instructions
        return self.callsave_instructions / base if base else 0.0


@dataclass
class CompileOutput:
    program: MachineProgram
    module: Module
    profile: Profile
    stats: CompileStats
    allocations: dict[str, AllocationResult]
    #: The profiling interpretation of the *optimized* module; compiled
    #: output must reproduce exactly these results (FP reassociation makes
    #: them differ from the original module's by rounding only).
    interp: InterpResult | None = None
    #: Per-pass wall time and IR deltas, populated when the caller passed a
    #: :class:`~repro.observe.passes.PassMetrics` to :func:`compile_module`.
    metrics: PassMetrics | None = None
    #: What the connect optimizer did (``None`` when it was disabled).
    #: The object is ``repro.analyze.optimize.ConnectOptReport``.
    connect_opt: object | None = None


def _call_graph_reachability(module: Module) -> dict[str, set[str]]:
    """Map each function to the set of functions reachable from it."""
    from repro.isa.opcodes import Opcode

    edges: dict[str, set[str]] = {name: set() for name in module.functions}
    for name, fn in module.functions.items():
        for _, instr in fn.iter_instrs():
            if instr.op is Opcode.CALL:
                edges[name].add(instr.label)
    reach: dict[str, set[str]] = {}
    for name in module.functions:
        seen: set[str] = set()
        stack = [name]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        reach[name] = seen
    return reach


@dataclass
class FrontEnd:
    """The config-independent half of compilation (stages 1-3 + alias).

    Depends only on the module, :class:`~repro.compiler.opt.OptOptions`,
    the profiling options and the entry point, so one front end serves
    every machine configuration; :func:`compile_module` deep-copies the
    :attr:`module` of a front end it is handed before the back end touches
    it.
    """

    #: The optimized, profiled and alias-annotated module.
    module: Module
    #: The profiling interpretation of :attr:`module`.
    interp: InterpResult


def compile_front_end(module: Module, options: CompileOptions | None = None,
                      entry: str = "main",
                      metrics: PassMetrics | None = None) -> FrontEnd:
    """Copy, optimize, profile and alias-annotate *module*."""
    options = options or CompileOptions()
    work = copy.deepcopy(module)
    with maybe_measure(metrics, "optimize", work):
        optimize_module(work, options.opt)
    with maybe_measure(metrics, "profile", work):
        interp_result = Interpreter(
            work, step_limit=options.profile_step_limit,
            engine=options.ir_engine,
        ).run(entry)
    with maybe_measure(metrics, "alias", work):
        annotate_module(work)  # memory-region tags for disambiguation
    return FrontEnd(module=work, interp=interp_result)


def compile_module(module: Module, config: MachineConfig,
                   options: CompileOptions | None = None,
                   entry: str = "main",
                   metrics: PassMetrics | None = None,
                   front_end: FrontEnd | None = None) -> CompileOutput:
    """Compile *module* for *config* and return the executable program.

    *front_end*, when given, must be :func:`compile_front_end` of the same
    module, options and entry; the back end then starts from a copy of it
    instead of recomputing it.  Either way the emitted program is the same.

    When *metrics* is given, every pipeline stage is timed and its IR delta
    recorded (see :mod:`repro.observe.passes`); collection never changes the
    generated code.
    """
    options = options or CompileOptions()
    fresh = front_end is None
    if fresh:
        front_end = compile_front_end(module, options, entry, metrics)
    # A caller-supplied front end may be shared, so the back end works on a
    # copy of it; a fresh one is already a private copy.
    work = front_end.module if fresh else copy.deepcopy(front_end.module)
    interp_result = front_end.interp
    profile = interp_result.profile

    if options.schedule:
        # Prepass scheduling over *virtual* registers (the IMPACT-style
        # phase order): with no false WAW/WAR dependences the scheduler
        # freely overlaps independent work, which is precisely what
        # "tends to increase the number of variables that are
        # simultaneously live" (paper section 1) — the allocator then
        # sees the scheduled order's higher register pressure.
        with maybe_measure(metrics, "schedule-pre", work):
            for fn in work.functions.values():
                schedule_function(fn, config, None)
    with maybe_measure(metrics, "lower-calls", work):
        for fn in work.functions.values():
            lower_calls(fn)

    shared = _SharedCounters()
    allocations: dict[str, AllocationResult] = {}
    ext_threshold = {
        RClass.INT: config.int_spec.core,
        RClass.FP: config.fp_spec.core,
    }
    stats = CompileStats()
    unlimited = config.int_spec.core >= UNLIMITED
    reach = _call_graph_reachability(work) if unlimited else None

    with maybe_measure(metrics, "allocate", work):
        for fn in work.functions.values():
            result = allocate_function(
                fn, profile, config.int_spec, config.fp_spec,
                options.alloc, shared_counters=shared,
            )
            allocations[fn.name] = result
            stats.spilled_vregs += len(result.spilled)
            stats.extended_vregs += sum(
                1 for r in result.assignment.values()
                if r.num >= ext_threshold[r.cls]
            )

    with maybe_measure(metrics, "spill+frame", work):
        for fn in work.functions.values():
            result = allocations[fn.name]
            if unlimited:
                # Globally unique register ranges make callee clobbering
                # impossible except through recursion: save a live register
                # only when the callee can re-enter this function.
                fname = fn.name

                def save_policy(label, reg, f=fname):
                    return f in reach[label]
            else:
                save_policy = None
            apply_allocation(fn, result, ext_threshold, save_policy)
            insert_prologue_epilogue(fn, result.frame, result.callee_saves,
                                     result.param_homes,
                                     is_entry=fn.name == entry)
            check_no_symbolic_offsets(fn)

    tracked_by_fn: dict[str, dict[RClass, list[int]]] = {}
    with maybe_measure(metrics, "connect-insert", work):
        for fn in work.functions.values():
            result = allocations[fn.name]
            tracked_indices: dict[RClass, list[int]] = {}
            for cls in (RClass.INT, RClass.FP):
                windows = result.windows.get(cls)
                if windows:
                    spec = config.spec_for(cls)
                    steal_pool = [c for c in spec.allocatable_core()
                                  if c not in set(windows)]
                    insert_connects(fn, cls, ext_threshold[cls], windows,
                                    config.rc_model, steal_pool=steal_pool)
                    tracked_indices[cls] = windows + steal_pool
                if not unlimited:
                    check_encodable(fn, cls, ext_threshold[cls])
            tracked_by_fn[fn.name] = tracked_indices

            # Profile-driven static branch hints (paper section 5.2: extra
            # branch opcodes "facilitate static branch prediction").
            for block in fn.blocks:
                term = block.terminator
                if term is not None and term.is_cond_branch:
                    term.hint_taken = profile.predict_taken(fn.name,
                                                            block.name)

    if options.schedule:
        with maybe_measure(metrics, "schedule", work):
            for fn in work.functions.values():
                schedule_function(fn, config,
                                  tracked_by_fn[fn.name] or None)

    with maybe_measure(metrics, "layout", work):
        program = lower_module(work, entry=entry, name=module.name)

    connect_opt = None
    if options.opt_connects and config.has_rc:
        # Imported here: repro.analyze consumes machine programs and is not
        # otherwise a compiler dependency.
        from repro.analyze import optimize_connects

        with maybe_measure(metrics, "connect-opt", work):
            result = optimize_connects(program, config)
        program = result.program
        connect_opt = result.report
        stats.connects_removed = connect_opt.removed

    if options.check:
        # Imported here: repro.analyze consumes machine programs and is not
        # otherwise a compiler dependency.
        from repro.analyze import check_program
        from repro.errors import CompileError

        with maybe_measure(metrics, "check", work):
            report = check_program(program, config)
        if report.errors:
            details = "\n".join(f.format() for f in report.errors)
            raise CompileError(
                f"static check failed with {len(report.errors)} error(s):\n"
                f"{details}"
            )

    counts = program.static_counts()
    stats.total_instructions = len(program)
    stats.program_instructions = counts.get(None, 0)
    stats.spill_instructions = counts.get("spill", 0)
    stats.connect_instructions = counts.get("connect", 0)
    stats.callsave_instructions = counts.get("callsave", 0)
    stats.frame_instructions = counts.get("frame", 0)
    return CompileOutput(program=program, module=work, profile=profile,
                         stats=stats, allocations=allocations,
                         interp=interp_result, metrics=metrics,
                         connect_opt=connect_opt)
