"""Priority graph-coloring register allocation (paper sections 3 and 5.1).

The allocator colors virtual registers in profile-priority order.  Core
registers are preferred; with RC support, lower-priority values overflow into
the extended section instead of memory; anything left is spilled through the
reserved spill temporaries.

Connection windows: to realize the paper's "select the least important index"
rule with a statically checkable invariant, a small number of the
least-important allocatable core registers are reserved as rotating
*connection windows* when (and only when) the extended section is actually
needed.  A first allocation attempt runs with the full core file; windows are
reserved and the class is recolored only if that attempt spills.  This keeps
the with-RC model's performance identical to the without-RC model whenever
the core file alone suffices (as in the paper's 32/64-register results).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.frame import FrameLayout
from repro.compiler.regalloc.interference import (
    InterferenceGraph,
    build_interference,
)
from repro.compiler.regalloc.priority import priority_order
from repro.errors import AllocationError
from repro.ir.bitset import bit_liveness
from repro.ir.function import Function
from repro.ir.interp import Profile
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode
from repro.isa.registers import (
    FP_SPILL_TEMPS,
    INT_SPILL_TEMPS,
    NUM_RESERVED_FP,
    NUM_RESERVED_INT,
    UNLIMITED,
    Imm,
    PhysReg,
    RClass,
    RegFileSpec,
    SP,
    VReg,
)


@dataclass
class AllocationOptions:
    """Tuning knobs for the allocator."""

    #: Number of core registers reserved as connection windows per RC class
    #: (pairs for FP).  Must be at least 2 so one instruction can read two
    #: extended sources.
    num_windows: int = 4

    def __post_init__(self) -> None:
        if self.num_windows < 2:
            raise AllocationError("need at least 2 connection windows")


@dataclass
class AllocationResult:
    """Everything later pipeline stages need to know about one function."""

    assignment: dict[VReg, PhysReg] = field(default_factory=dict)
    spilled: set[VReg] = field(default_factory=set)
    frame: FrameLayout | None = None
    callee_saves: list[PhysReg] = field(default_factory=list)
    param_homes: dict[VReg, PhysReg] = field(default_factory=dict)
    windows: dict[RClass, list[int]] = field(default_factory=dict)
    used_extended: dict[RClass, set[int]] = field(default_factory=dict)

    def location_of(self, v: VReg) -> str:
        """Human-readable location of a virtual register."""
        if v in self.spilled:
            return "memory"
        reg = self.assignment.get(v)
        return "unassigned" if reg is None else repr(reg)


class _SharedCounters:
    """Module-wide unique register numbering for the unlimited baseline."""

    def __init__(self) -> None:
        self.next = {RClass.INT: NUM_RESERVED_INT, RClass.FP: NUM_RESERVED_FP}

    def take(self, cls: RClass, total: int) -> int:
        num = self.next[cls]
        step = 1 if cls is RClass.INT else 2
        if num + step > total:
            raise AllocationError(
                f"unlimited-register baseline exhausted the {cls.value} file"
            )
        self.next[cls] = num + step
        return num


def _color_class(
    cls: RClass,
    order: list[VReg],
    graph: InterferenceGraph,
    core_colors: list[int],
    ext_colors: list[int],
) -> tuple[dict[VReg, PhysReg], set[VReg], list[int], set[int]]:
    """Greedy priority coloring of one register class.

    Returns (assignment, spilled, used core colors in first-use order,
    used extended registers).
    """
    assignment: dict[VReg, PhysReg] = {}
    spilled: set[VReg] = set()
    used_core: list[int] = []
    used_core_set: set[int] = set()
    used_ext: set[int] = set()
    cursor = 0
    ext_cursor = 0
    n_core = len(core_colors)
    n_ext = len(ext_colors)
    for v in order:
        if v.cls is not cls:
            continue
        forbidden = {
            assignment[n].num for n in graph.neighbors(v) if n in assignment
        }
        chosen = None
        # Round-robin color choice: maximizing reuse distance minimizes the
        # false WAW/WAR dependences that serialize an in-order pipeline
        # (maximal reuse would be pessimal for the scheduler).
        for off in range(n_core):
            c = core_colors[(cursor + off) % n_core]
            if c not in forbidden:
                chosen = c
                cursor = (cursor + off + 1) % n_core
                if c not in used_core_set:
                    used_core_set.add(c)
                    used_core.append(c)
                break
        if chosen is None:
            for off in range(n_ext):
                e = ext_colors[(ext_cursor + off) % n_ext]
                if e not in forbidden:
                    chosen = e
                    ext_cursor = (ext_cursor + off + 1) % n_ext
                    used_ext.add(e)
                    break
        if chosen is None:
            spilled.add(v)
        else:
            assignment[v] = PhysReg(cls, chosen)
    return assignment, spilled, used_core, used_ext


def _reserved_windows(spec: RegFileSpec, count: int) -> list[int]:
    """The least-important allocatable core registers become windows.

    Small core files (e.g. 8 integer registers, of which 5 are reserved)
    may turn *every* allocatable register into a window; values then live
    entirely in the extended section, which is exactly the high-pressure
    regime the paper's 8-register experiments probe.
    """
    allocatable = spec.allocatable_core()
    count = min(count, len(allocatable))
    if count < 2:
        raise AllocationError(
            f"{spec.cls.value} core file of {spec.core} cannot reserve "
            "two connection windows"
        )
    return allocatable[-count:]


def allocate_function(
    fn: Function,
    profile: Profile | None,
    int_spec: RegFileSpec,
    fp_spec: RegFileSpec,
    options: AllocationOptions | None = None,
    shared_counters: _SharedCounters | None = None,
) -> AllocationResult:
    """Assign every virtual register of *fn* a location.

    The caller is expected to have run :func:`~repro.compiler.callconv.
    lower_calls` first.  The function is not rewritten here; see
    :func:`apply_allocation`.
    """
    options = options or AllocationOptions()
    result = AllocationResult()
    result.frame = FrameLayout(len(fn.params))

    if int_spec.core >= UNLIMITED:
        counters = shared_counters or _SharedCounters()
        for v in sorted(fn.vregs(), key=lambda v: (v.cls.value, v.vid)):
            spec = int_spec if v.cls is RClass.INT else fp_spec
            result.assignment[v] = PhysReg(v.cls, counters.take(v.cls,
                                                                spec.total))
        result.windows = {}
        _finish_params(fn, result)
        return result

    graph = build_interference(fn)
    order = priority_order(fn, profile)

    for cls, spec in ((RClass.INT, int_spec), (RClass.FP, fp_spec)):
        allocatable = spec.allocatable_core()
        assignment, spilled, used_core, used_ext = _color_class(
            cls, order, graph, allocatable, []
        )
        if spilled and spec.has_rc:
            # Second attempt: reserve connection windows and open the
            # extended section.
            windows = _reserved_windows(spec, options.num_windows)
            core = [c for c in allocatable if c not in windows]
            assignment, spilled, used_core, used_ext = _color_class(
                cls, order, graph, core, spec.extended_registers()
            )
            result.windows[cls] = windows
        result.assignment.update(assignment)
        result.spilled.update(spilled)
        result.used_extended[cls] = used_ext
        result.callee_saves.extend(PhysReg(cls, c) for c in used_core)

    _finish_params(fn, result)
    return result


def _finish_params(fn: Function, result: AllocationResult) -> None:
    for i, param in enumerate(fn.params):
        if param in result.spilled:
            result.frame.assign_param_slot(param, i)
        elif param in result.assignment:
            result.param_homes[param] = result.assignment[param]


class _TempPool:
    """Rotating spill temporaries for one instruction rewrite."""

    def __init__(self) -> None:
        self._cursor = {RClass.INT: 0, RClass.FP: 0}
        self._pools = {RClass.INT: INT_SPILL_TEMPS, RClass.FP: FP_SPILL_TEMPS}

    def take(self, cls: RClass, in_use: list[PhysReg]) -> PhysReg:
        pool = self._pools[cls]
        for _ in range(len(pool)):
            reg = pool[self._cursor[cls] % len(pool)]
            self._cursor[cls] += 1
            if reg not in in_use:
                return reg
        raise AllocationError(f"out of {cls.value} spill temporaries")


def apply_allocation(fn: Function, result: AllocationResult,
                     ext_threshold: dict[RClass, int],
                     save_policy=None) -> dict[str, int]:
    """Rewrite *fn* to physical registers, inserting spill and caller-save
    code.

    ``ext_threshold`` gives, per class, the first extended register number
    (i.e. the core size) so caller-save code can recognize extended
    assignments.  ``save_policy(call_label, reg) -> bool`` decides which
    assigned registers live across a call need caller-save code; the default
    saves extended registers at every call (the callee may freely use the
    extended section, and ``jsr``/``rts`` reset the map anyway — paper
    section 4.1), while core registers are protected by callee-save code.
    Returns counters: spill loads/stores and caller saves.
    """
    binfo = bit_liveness(fn)
    frame = result.frame
    assignment = result.assignment
    spilled = result.spilled
    temps = _TempPool()
    stats = {"spill_loads": 0, "spill_stores": 0, "call_saves": 0}

    def is_extended(reg: PhysReg) -> bool:
        return reg.num >= ext_threshold.get(reg.cls, 1 << 30)

    if save_policy is None:
        def save_policy(label, reg):
            return is_extended(reg)

    for block in fn.blocks:
        # Live-after sets are only consulted at call sites; materialize the
        # masks lazily so call-free blocks skip the backward walk entirely.
        after_masks = None
        new_instrs: list[Instr] = []
        for idx, instr in enumerate(block.instrs):
            if instr.op is Opcode.CALL:
                if after_masks is None:
                    after_masks = binfo.live_across_instr_masks(block)
                live_after = binfo.index.set_of(after_masks[idx])
                saves = sorted(
                    {assignment[v] for v in live_after
                     if v in assignment
                     and save_policy(instr.label, assignment[v])},
                    key=lambda r: (r.cls.value, r.num),
                )
                for reg in saves:
                    op = (Opcode.STORE if reg.cls is RClass.INT
                          else Opcode.FSTORE)
                    new_instrs.append(Instr(op, srcs=(reg, SP),
                                            imm=frame.save_slot(reg),
                                            origin="callsave"))
                    stats["call_saves"] += 1
                new_instrs.append(instr)
                for reg in saves:
                    op = (Opcode.LOAD if reg.cls is RClass.INT
                          else Opcode.FLOAD)
                    new_instrs.append(Instr(op, dest=reg, srcs=(SP,),
                                            imm=frame.save_slot(reg),
                                            origin="callsave"))
                continue

            # Temps in the order they were taken: the destination reuses
            # the first one, so the pick never depends on set iteration.
            in_use: list[PhysReg] = []
            loads: list[Instr] = []
            new_srcs: list = []
            for s in instr.srcs:
                if isinstance(s, Imm) or not isinstance(s, VReg):
                    new_srcs.append(s)
                    continue
                if s in spilled:
                    temp = temps.take(s.cls, in_use)
                    in_use.append(temp)
                    op = (Opcode.LOAD if s.cls is RClass.INT else Opcode.FLOAD)
                    loads.append(Instr(op, dest=temp, srcs=(SP,),
                                       imm=frame.spill_slot(s),
                                       origin="spill"))
                    stats["spill_loads"] += 1
                    new_srcs.append(temp)
                else:
                    new_srcs.append(assignment.get(s, s))
            store = None
            dest = instr.dest
            if isinstance(dest, VReg):
                if dest in spilled:
                    # The destination temp may overlap a source temp (the
                    # sources are read before the result is written, so
                    # reusing one within a single instruction is safe).
                    match = None
                    for s, ns in zip(instr.srcs, new_srcs):
                        if s == dest and isinstance(ns, PhysReg):
                            match = ns
                            break
                    if match is None:
                        reusable = [t for t in in_use if t.cls is dest.cls]
                        match = reusable[0] if reusable else None
                    temp = match or temps.take(dest.cls, in_use)
                    op = (Opcode.STORE if dest.cls is RClass.INT
                          else Opcode.FSTORE)
                    store = Instr(op, srcs=(temp, SP),
                                  imm=frame.spill_slot(dest), origin="spill")
                    stats["spill_stores"] += 1
                    dest = temp
                else:
                    dest = assignment.get(dest, dest)
            instr.srcs = tuple(new_srcs)
            instr.dest = dest
            new_instrs.extend(loads)
            new_instrs.append(instr)
            if store is not None:
                new_instrs.append(store)
        block.instrs = new_instrs
    return stats
