"""Analysis-driven connect optimizer (post-regalloc machine pass).

Consumes the forward mapping-table abstract interpretation and the backward
slot liveness to shrink connect traffic in a compiled
:class:`~repro.sim.program.MachineProgram` without changing its
architectural behaviour:

* **dead-connect deletion** — a connect update whose map slot is never
  observed (no read resolves through a dead read-map slot, no write lands
  through a dead write-map slot) before the slot is reconnected or reset is
  removed; because writes count as uses of the write map, deletion can never
  move a value to a different physical register.
* **redundant-connect elimination** — an update whose slot already holds
  exactly the requested physical register on every incoming path is a
  no-op and is removed.
* **loop-invariant hoisting** — a connect inside a natural loop whose slots
  are dead on loop entry is copied into the preheader when the original
  would then be redundant on every iteration; the original is deleted and
  the deletion rounds re-run.  A hoist is only committed when that brings
  the static connect count back to no more than it was, so the static cost
  never grows while the dynamic count drops from once-per-iteration to
  once-per-loop-entry.  Whether the original would be redundant is
  answered from analyses solved once per round on the current program
  (see :class:`_HoistCheck`), so only hoists that pass get a trial program.

The pass refuses to touch programs it cannot model statically: anything
with trap handlers, ``TRAP``/``RTE`` (handlers may connect with mapping
disabled), ``MTPSW`` (may toggle mapping at runtime) or ``MFMAP`` (observes
raw table state).  Such programs are returned unchanged with the bail
reason in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analyze.cfg import FuncCFG, MachineBlock, build_cfg
from repro.analyze.dataflow import (BackwardResult, DataflowResult,
                                    ForwardAnalysis, reg_bit, solve_backward,
                                    solve_forward)
from repro.analyze.liveness import SlotLiveness
from repro.isa.instruction import Instr, connect_def, connect_use
from repro.isa.opcodes import Opcode
from repro.isa.registers import RClass
from repro.rc.abstract import MaskMap
from repro.rc.models import RCModel
from repro.sim.config import MachineConfig
from repro.sim.program import MachineProgram

#: Opcodes that invalidate the static map model (see module docstring).
BAIL_OPS = frozenset({Opcode.TRAP, Opcode.RTE, Opcode.MTPSW, Opcode.MFMAP})

_MAX_DELETE_ROUNDS = 20
_MAX_HOIST_PASSES = 2


@dataclass
class ConnectEdit:
    """One applied rewrite, reported against the pre-pass instruction index."""

    kind: str  # "dead" | "redundant" | "hoist"
    function: str
    index: int  # instruction index at the time the edit was applied
    detail: str


@dataclass
class ConnectOptReport:
    """What the optimizer did to one program."""

    connects_before: int = 0
    connects_after: int = 0
    removed_dead: int = 0
    removed_redundant: int = 0
    hoisted: int = 0
    edits: list[ConnectEdit] = field(default_factory=list)
    #: Why the pass declined to run, or None when it ran.
    bail_reason: str | None = None

    @property
    def changed(self) -> bool:
        return bool(self.edits)

    @property
    def removed(self) -> int:
        return self.connects_before - self.connects_after

    def lines(self) -> list[str]:
        """Human-readable summary for ``repro disasm --annotate``."""
        if self.bail_reason is not None:
            return [f"connect-opt: skipped ({self.bail_reason})"]
        head = (f"connect-opt: {self.connects_before} -> "
                f"{self.connects_after} static connects "
                f"({self.removed_dead} dead, "
                f"{self.removed_redundant} redundant, "
                f"{self.hoisted} hoisted)")
        out = [head]
        for e in self.edits:
            out.append(f"  {e.kind:<9} {e.function}@{e.index}: {e.detail}")
        return out


@dataclass
class OptimizeResult:
    program: MachineProgram
    report: ConnectOptReport


def _static_connects(program: MachineProgram) -> int:
    return sum(1 for i in program.instrs if i.is_connect)


def _class_index(cls: RClass) -> int:
    """Position of *cls* in a ``_MapState`` state: 0 = INT, 1 = FP."""
    return 1 if cls is RClass.FP else 0


def _map_entries(config: MachineConfig) -> tuple[int, int]:
    """Mapping-table entries per class index (0 without RC)."""
    return tuple(spec.core if spec.has_rc else 0
                 for spec in (config.int_spec, config.fp_spec))


#: Effect kinds of :func:`_effects`.
_CONNECT, _RESET, _ACCESS = range(3)


def _effects(program: MachineProgram, config: MachineConfig) -> list:
    """What each instruction does to the abstract maps, decoded once.

    ``None`` (nothing), ``(_CONNECT, class index, ((which, index, phys),
    ...))``, ``(_RESET,)`` for CALL/RET, or ``(_ACCESS, ((class index,
    read index), ...), (class index, written index) | None)`` listing only
    the accesses that trigger an automatic reset under the model.
    """
    entries = _map_entries(config)
    model = config.rc_model
    resets_on_read = model.resets_read_map_on_read
    resets_on_write = model is not RCModel.NO_RESET
    out: list = []
    for instr in program.instrs:
        op = instr.op
        if instr.is_connect:
            ci = _class_index(instr.imm[0])
            n = entries[ci]
            out.append((_CONNECT, ci, tuple(
                update[1:] for update in instr.connect_updates()
                if update[2] < n)) if n else None)
            continue
        if op is Opcode.CALL or op is Opcode.RET:
            out.append((_RESET,))
            continue
        reads = ()
        if resets_on_read:
            reads = tuple((_class_index(src.cls), src.num)
                          for src in instr.reg_srcs()
                          if src.num < entries[_class_index(src.cls)])
        write = None
        dest = instr.dest
        if resets_on_write and dest is not None:
            ci = _class_index(dest.cls)
            if dest.num < entries[ci]:
                write = (ci, dest.num)
        out.append((_ACCESS, reads, write) if reads or write else None)
    return out


class _MapState(ForwardAnalysis):
    """Forward mapping-table state, site-free (entries collapse by target).

    Identical transfer semantics to the checker's abstract interpretation
    but over :class:`~repro.rc.abstract.MaskMap` entries, so an entry that
    holds physical register *p* compares equal no matter which connect
    established it — exactly the question redundancy elimination asks.  A
    state is a list of maps indexed by class index (``None`` without RC);
    instructions act through their decoded :func:`_effects`.
    """

    def __init__(self, config: MachineConfig, effects: list) -> None:
        self.model = config.rc_model
        self.entries = _map_entries(config)
        self.effects = effects

    def boundary(self, fn: FuncCFG) -> list:
        return [MaskMap(n, self.model) if n else None for n in self.entries]

    def join(self, a: list, b: list) -> list:
        for amap, other in zip(a, b):
            if amap is not None:
                amap.join(other)
        return a

    def copy(self, state: list) -> list:
        return [amap.copy() if amap is not None else None for amap in state]

    def transfer(self, state: list, index: int, instr) -> list:
        effect = self.effects[index]
        if effect is None:
            return state
        kind = effect[0]
        if kind == _CONNECT:
            amap = state[effect[1]]
            for which, ri, rp in effect[2]:
                amap.connect(which, ri, rp, None)
        elif kind == _RESET:
            for amap in state:
                if amap is not None:
                    amap.reset_home()
        else:
            for ci, num in effect[1]:
                state[ci].after_read(num)
            if effect[2] is not None:
                ci, num = effect[2]
                state[ci].after_write(num)
        return state


class _Analyses:
    """The analyses of one program version, each solved at most once.

    The deletion round that finds nothing left to delete and the hoist
    round after it look at the same program, so they share one of these.
    """

    def __init__(self, program: MachineProgram,
                 config: MachineConfig) -> None:
        self.program = program
        self.config = config
        self.cfg = build_cfg(program)
        self.effects = _effects(program, config)
        self.maps = _MapState(config, self.effects)
        self.liveness = SlotLiveness(program, config)
        self._forward: dict[str, DataflowResult] = {}
        self._backward: dict[str, BackwardResult] = {}

    def forward(self, fn: FuncCFG) -> DataflowResult:
        """The map-state fixpoint of *fn*."""
        result = self._forward.get(fn.name)
        if result is None:
            result = self._forward[fn.name] = solve_forward(
                fn, self.maps, self.program.instrs)
        return result

    def backward(self, fn: FuncCFG) -> BackwardResult:
        """The slot-liveness fixpoint of *fn*."""
        result = self._backward.get(fn.name)
        if result is None:
            result = self._backward[fn.name] = solve_backward(
                fn, self.liveness, self.program.instrs)
        return result


def _bail_reason(program: MachineProgram,
                 config: MachineConfig) -> str | None:
    if not config.has_rc:
        return "no extended registers in this configuration"
    if program.trap_handlers:
        return "program installs trap handlers"
    for instr in program.instrs:
        if instr.op in BAIL_OPS:
            return f"program uses {instr.op.value}"
    return None


# -- deletion ----------------------------------------------------------------


def _classify_drops(an: _Analyses) -> dict[int, tuple[set[int], str]]:
    """Map connect index -> (update positions to drop, position -> kind).

    Kind is ``"redundant"`` (the slot already holds the target on every
    incoming path) or ``"dead"`` (the slot is never observed afterwards);
    an update qualifying as both reports as redundant.

    The two kinds must not be applied in the same rewrite: a dead update
    can owe its deadness to a later redundant one (the redefinition that
    kills it) while that one owes its redundancy to the former (the
    definition that established the mapping) — removing both at once would
    leave reads resolving through the home mapping.  ``_delete_round``
    therefore applies one kind per round and lets the fixpoint re-judge.
    """
    program = an.program
    drops: dict[int, tuple[set[int], dict[int, str]]] = {}
    claimed: set[int] = set()

    effects = an.effects
    for fn in an.cfg.functions:
        fwd = bwd = None
        for block in fn.blocks.values():
            claimed.update(range(block.start, block.end))
            if not any(effects[k] is not None and effects[k][0] == _CONNECT
                       for k in range(block.start, block.end)):
                continue  # no connect to judge
            if fwd is None:
                fwd, bwd = an.forward(fn), an.backward(fn)
            if block.start not in fwd.block_in:
                continue  # unreachable within the function
            live: dict[int, tuple] = {}
            bwd.walk(block, lambda state, i, _instr: live.__setitem__(
                i, state))

            def visit(state: list, i: int, instr) -> None:
                effect = effects[i]
                if effect is None or effect[0] != _CONNECT:
                    return
                updates = instr.connect_updates()
                cls = instr.imm[0]
                amap = state[effect[1]]
                drop: set[int] = set()
                kinds: dict[int, str] = {}
                # Redundancy: walk updates forward over a scratch copy so
                # the second update of a combined connect sees the first.
                scratch = amap.copy()
                for pos, (_c, which, ri, rp) in enumerate(updates):
                    if ri >= scratch.entries:
                        continue
                    entry = (scratch.read_entry(ri) if which == "read"
                             else scratch.write_entry(ri))
                    if entry == 1 << rp:
                        drop.add(pos)
                        kinds[pos] = "redundant"
                    scratch.connect(which, ri, rp, None)
                # Deadness: walk updates backward so an earlier same-slot
                # update is killed by a later one.
                rmap, wmap, _ext = live[i]
                redefined: set[tuple[str, int]] = set()
                for pos in range(len(updates) - 1, -1, -1):
                    _c, which, ri, _rp = updates[pos]
                    if ri >= scratch.entries:
                        continue
                    bit = 1 << reg_bit(cls, ri)
                    alive = (rmap if which == "read" else wmap) & bit
                    if (which, ri) in redefined or not alive:
                        drop.add(pos)
                        kinds.setdefault(pos, "dead")
                    redefined.add((which, ri))
                if drop:
                    drops[i] = (drop, kinds)

            fwd.walk(block, visit)

    # Connects outside every recovered function never execute (no trap
    # handlers here — the pass bails on those): drop them whole.
    for i, instr in enumerate(program.instrs):
        if instr.is_connect and i not in claimed:
            updates = instr.connect_updates()
            drops[i] = (set(range(len(updates))),
                        {p: "dead" for p in range(len(updates))})
    return drops


def _fmt_update(update) -> str:
    _cls, which, ri, rp = update
    return f"{which}[{ri}]->p{rp}"


def _rebuild_connect(instr: Instr, kept: list) -> Instr | None:
    """The replacement for *instr* keeping only *kept* updates."""
    if not kept:
        return None
    if len(kept) == len(instr.connect_updates()):
        return instr
    cls, which, ri, rp = kept[0]
    make = connect_use if which == "read" else connect_def
    new = make(cls, ri, rp, origin=instr.origin)
    new.alias = instr.alias
    return new


def _delete_indices(program: MachineProgram,
                    deleted: set[int]) -> MachineProgram:
    """Rebuild *program* without the instructions in *deleted*.

    Jump targets, the entry point, function ranges and suppressions are
    remapped; a target whose entire suffix would be deleted keeps its
    landing instruction alive (the caller guarantees this cannot happen for
    connect-only deletions inside well-formed programs, but the guard keeps
    the rebuild total).
    """
    n = len(program.instrs)
    anchors = {program.entry}
    anchors.update(t for t in program.targets if t is not None)
    for t in sorted(anchors, reverse=True):
        if t in deleted and all(j in deleted for j in range(t, n)):
            deleted.discard(t)

    # shift[i] = number of deleted indices < i; valid for i in [0, n].
    shift = [0] * (n + 1)
    for i in range(n):
        shift[i + 1] = shift[i] + (1 if i in deleted else 0)

    def remap(t: int) -> int:
        return t - shift[t]

    new_instrs, new_targets = [], []
    for i in range(n):
        if i in deleted:
            continue
        new_instrs.append(program.instrs[i])
        t = program.targets[i]
        new_targets.append(None if t is None else remap(t))

    return replace(
        program,
        instrs=new_instrs,
        targets=new_targets,
        entry=remap(program.entry),
        func_ranges={name: (remap(lo), remap(hi))
                     for name, (lo, hi) in program.func_ranges.items()},
        suppressions={(k if k < 0 else remap(k)): v
                      for k, v in program.suppressions.items()
                      if k < 0 or k not in deleted},
    )


def _delete_round(an: _Analyses,
                  report: ConnectOptReport) -> MachineProgram | None:
    """One deletion round; None when nothing was removable."""
    drops = _classify_drops(an)
    if not drops:
        return None
    program = an.program

    # One kind per round (see _classify_drops): dead drops first, then a
    # later round picks up whatever stays redundant without them.
    kind_now = ("dead" if any("dead" in kinds.values()
                              for _d, kinds in drops.values())
                else "redundant")
    filtered: dict[int, tuple[set[int], dict[int, str]]] = {}
    for i, (drop, kinds) in drops.items():
        keep = {pos for pos in drop if kinds[pos] == kind_now}
        if keep:
            filtered[i] = (keep, kinds)
    drops = filtered

    deleted: set[int] = set()
    replaced: dict[int, Instr] = {}
    for i, (drop, kinds) in sorted(drops.items()):
        instr = program.instrs[i]
        updates = instr.connect_updates()
        kept = [u for pos, u in enumerate(updates) if pos not in drop]
        new = _rebuild_connect(instr, kept)
        fn = program.function_of(i) or "?"
        for pos in sorted(drop):
            report.edits.append(ConnectEdit(
                kind=kinds[pos], function=fn, index=i,
                detail=_fmt_update(updates[pos])))
            if kinds[pos] == "dead":
                report.removed_dead += 1
            else:
                report.removed_redundant += 1
        if new is None:
            deleted.add(i)
        else:
            replaced[i] = new

    if replaced:
        instrs = list(program.instrs)
        for i, new in replaced.items():
            instrs[i] = new
        program = replace(program, instrs=instrs)
    if deleted:
        program = _delete_indices(program, deleted)
    return program


def _delete_fixpoint(program: MachineProgram, config: MachineConfig,
                     report: ConnectOptReport) -> _Analyses:
    """Delete until nothing is removable; returns the analyses of the
    resulting program (``.program``)."""
    for _ in range(_MAX_DELETE_ROUNDS):
        an = _Analyses(program, config)
        nxt = _delete_round(an, report)
        if nxt is None:
            return an
        program = nxt
    return _Analyses(program, config)  # pragma: no cover - safety net


# -- hoisting ----------------------------------------------------------------


def _preheader(fn: FuncCFG, header: int, body: set[int]) -> int | None:
    """The unique out-of-loop predecessor that only feeds *header*."""
    outside = [p for p in fn.blocks[header].preds
               if p in fn.blocks and p not in body]
    if len(outside) != 1:
        return None
    pred = fn.blocks[outside[0]]
    if pred.succs != (header,):
        return None
    return pred.start


def _insert_at(program: MachineProgram, instr: Instr, p: int,
               execute_on_jump: bool) -> MachineProgram:
    """Insert *instr* (no target) at index *p*, shifting the suffix."""

    def remap(t: int) -> int:
        if t > p or (t == p and not execute_on_jump):
            return t + 1
        return t

    instrs = list(program.instrs)
    targets = list(program.targets)
    instrs.insert(p, instr)
    targets_new = [None if t is None else remap(t) for t in targets]
    targets_new.insert(p, None)
    return replace(
        program,
        instrs=instrs,
        targets=targets_new,
        entry=remap(program.entry),
        func_ranges={name: (lo + 1 if lo > p else lo,
                            hi + 1 if hi > p else hi)
                     for name, (lo, hi) in program.func_ranges.items()},
        suppressions={(k if k < 0 else (k + 1 if k >= p else k)): v
                      for k, v in program.suppressions.items()},
    )


def _hoist_candidates(an: _Analyses):
    """Yield ``(connect index, preheader insert position, flag, function,
    preheader start, loop header, loop body)`` per hoistable connect."""
    program, config = an.program, an.config
    for fn in an.cfg.functions:
        loops = fn.natural_loops()
        if not loops:
            continue
        bwd = an.backward(fn)
        for header, body in sorted(loops.items()):
            if header == fn.entry or header not in bwd.block_in:
                continue
            pre = _preheader(fn, header, body)
            if pre is None:
                continue
            rmap_in, wmap_in, _ext = bwd.block_in[header]
            for start in sorted(body):
                block = fn.blocks[start]
                for i in range(block.start, block.end):
                    instr = program.instrs[i]
                    if not instr.is_connect:
                        continue
                    cls = instr.imm[0]
                    spec = config.spec_for(cls)
                    entries = spec.core if spec.has_rc else 0
                    ok = True
                    for _c, which, ri, _rp in instr.connect_updates():
                        if ri >= entries:
                            ok = False
                            break
                        bit = 1 << reg_bit(cls, ri)
                        live_in = rmap_in if which == "read" else wmap_in
                        if live_in & bit:
                            ok = False
                            break
                    if not ok:
                        continue
                    pb = fn.blocks[pre]
                    last = program.instrs[pb.end - 1]
                    if last.op is Opcode.JMP or last.is_cond_branch:
                        yield i, pb.end - 1, True, fn, pre, header, body
                    else:
                        yield i, pb.end, False, fn, pre, header, body


class _HoistCheck:
    """Would a loop connect be a no-op once copied into the preheader?

    Answers that for every candidate of one hoist round from analyses
    solved once on the current program, without building the trial
    program.  The map transfer functions are distributive (each entry is
    set to a constant, reset to home, or — model 3 — copied from the
    write map into the read map), and control enters a natural loop only
    through its header, so the entry at any point of the loop in the trial
    program is the loop-relative state there with each entry's value on
    loop entry substituted in.  :meth:`_loop` solves that loop-relative
    state once per loop, seeding every slot with a marker bit; the value on
    loop entry is the current program's state at the insertion point with
    the copied connect applied (:meth:`_on_entry`).  Only slots the connect
    sets, and write-map slots, are ever substituted, and those the copy
    leaves exact.
    """

    def __init__(self, an: _Analyses) -> None:
        self.an = an
        self.program = an.program
        self.analysis = an.maps
        #: marker bit base per class, above every physical register named.
        config = an.config
        self.base = [spec.total for spec in (config.int_spec,
                                             config.fp_spec)]
        for effect in an.effects:
            if effect is not None and effect[0] == _CONNECT:
                for _which, _ri, rp in effect[2]:
                    self.base[effect[1]] = max(self.base[effect[1]], rp + 1)
        self._loops: dict[tuple[str, int], DataflowResult] = {}

    def _state_at(self, result: DataflowResult, block: MachineBlock,
                  stop: int) -> list:
        """The state before instruction *stop* of *block*."""
        analysis, instrs = result.analysis, self.program.instrs
        state = analysis.copy(result.block_in[block.start])
        for k in range(block.start, stop):
            state = analysis.transfer(state, k, instrs[k])
        return state

    def _on_entry(self, fn: FuncCFG, pre: int, p: int, i: int) -> list:
        """The state flowing from the preheader into the loop once the
        connect at *i* is copied to position *p* of the preheader."""
        block = fn.blocks[pre]
        instrs, transfer = self.program.instrs, self.analysis.transfer
        state = self._state_at(self.an.forward(fn), block, p)
        state = transfer(state, i, instrs[i])
        for k in range(p, block.end):
            state = transfer(state, k, instrs[k])
        return state

    def _loop(self, fn: FuncCFG, header: int, body: set[int]
              ) -> DataflowResult:
        key = (fn.name, header)
        rel = self._loops.get(key)
        if rel is None:
            loop = FuncCFG(name=fn.name, entry=header,
                           blocks={b: fn.blocks[b] for b in body})
            # Only slots a loop connect sets are ever substituted, and
            # under model 3 their read slots also read the write slot of
            # the same index: seed both maps of every such index.
            seeded: list[set[int]] = [set(), set()]
            effects = self.an.effects
            for b in body:
                for k in range(fn.blocks[b].start, fn.blocks[b].end):
                    effect = effects[k]
                    if effect is not None and effect[0] == _CONNECT:
                        seeded[effect[1]].update(u[1] for u in effect[2])
            rel = self._loops[key] = solve_forward(
                loop, _LoopEntry(self.analysis, self.base, seeded),
                self.program.instrs)
        return rel

    def redundant(self, fn: FuncCFG, pre: int, header: int, body: set[int],
                  i: int, p: int) -> bool:
        """Whether every update of the connect at *i* would be a no-op."""
        rel = self._loop(fn, header, body)
        block = next(fn.blocks[b] for b in body
                     if fn.blocks[b].start <= i < fn.blocks[b].end)
        if block.start not in rel.block_in:
            return False  # unreachable
        instr = self.program.instrs[i]
        ci = _class_index(instr.imm[0])
        amap = self._state_at(rel, block, i)[ci]
        if amap is None:
            return False
        on_entry = self._on_entry(fn, pre, p, i)[ci]
        marks = self.base[ci]
        scratch = amap.copy()
        for _c, which, ri, rp in instr.connect_updates():
            if ri >= scratch.entries:
                return False
            entry = (scratch.read_entry(ri) if which == "read"
                     else scratch.write_entry(ri))
            value = entry & ((1 << marks) - 1)
            markers = entry >> marks
            while markers:
                low = markers & -markers
                m = low.bit_length() - 1
                value |= (on_entry.write_entry(m >> 1) if m & 1
                          else on_entry.read_entry(m >> 1))
                markers ^= low
            if value != 1 << rp:
                return False
            scratch.connect(which, ri, rp, None)
        return True


class _LoopEntry(ForwardAnalysis):
    """:class:`_MapState` from a loop header whose entry state holds, in
    both map slots of each *seeded* index, a marker for the slot's value on
    loop entry: bit ``base + 2 * index`` for the read map, ``base + 2 *
    index + 1`` for the write map.  Other slots start at home; no transfer
    moves a value between indices, so they never reach a seeded slot."""

    def __init__(self, analysis: _MapState, base: list[int],
                 seeded: list[set[int]]) -> None:
        self.analysis = analysis
        self.base = base
        self.seeded = seeded
        self.join = analysis.join
        self.copy = analysis.copy
        self.transfer = analysis.transfer

    def boundary(self, fn: FuncCFG) -> list:
        state = self.analysis.boundary(fn)
        for amap, base, indices in zip(state, self.base, self.seeded):
            if amap is not None:
                for ri in indices:
                    amap.read[ri] = 1 << (base + 2 * ri)
                    amap.write[ri] = 1 << (base + 2 * ri + 1)
        return state


def _hoist_pass(an: _Analyses, report: ConnectOptReport) -> _Analyses:
    """Attempt each hoist candidate; commit only verified, non-growing moves.

    A candidate whose original :class:`_HoistCheck` proves would become a
    no-op gets a trial program: the loop connect copied into the
    preheader, the original deleted, and the deletion fixpoint re-run.  The
    explicit redundancy proof is what keeps the pair sound: the inserted
    copy and the original are never judged against each other's absence.
    Takes and returns the analyses of the current program.
    """
    trials = 0
    progress = True
    while progress and trials < 200:
        progress = False
        program = an.program
        check = _HoistCheck(an)
        for i, p, eoj, fn, pre, header, body in _hoist_candidates(an):
            trials += 1
            if not check.redundant(fn, pre, header, body, i, p):
                continue
            trial = _insert_at(program, program.instrs[i].copy(), p, eoj)
            trial = _delete_indices(trial, {i + 1 if i >= p else i})
            trial_report = ConnectOptReport()
            trial_an = _delete_fixpoint(trial, an.config, trial_report)
            if _static_connects(trial_an.program) > _static_connects(program):
                continue
            report.hoisted += 1
            report.edits.append(ConnectEdit(
                kind="hoist", function=fn.name, index=i,
                detail=f"loop connect@{i} -> preheader@{p}"))
            report.removed_dead += trial_report.removed_dead
            report.removed_redundant += trial_report.removed_redundant
            report.edits.extend(trial_report.edits)
            an = trial_an
            progress = True
            break  # indices shifted: recompute candidates
    return an


# -- entry point -------------------------------------------------------------


def optimize_connects(program: MachineProgram,
                      config: MachineConfig) -> OptimizeResult:
    """Run the connect optimizer; see the module docstring for the rules."""
    report = ConnectOptReport(connects_before=_static_connects(program))
    report.bail_reason = _bail_reason(program, config)
    if report.bail_reason is not None:
        report.connects_after = report.connects_before
        return OptimizeResult(program=program, report=report)

    an = _delete_fixpoint(program, config, report)
    for _ in range(_MAX_HOIST_PASSES):
        hoists_before = report.hoisted
        an = _hoist_pass(an, report)
        if report.hoisted == hoists_before:
            break
    report.connects_after = _static_connects(an.program)
    return OptimizeResult(program=an.program, report=report)
