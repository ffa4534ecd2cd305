"""Backward liveness over mapping-table slots and extended registers.

The analysis runs on the :class:`~repro.analyze.dataflow.BackwardAnalysis`
framework.  States are immutable triples of int bitmasks
``(live_rmap, live_wmap, live_ext)``:

* ``live_rmap`` / ``live_wmap`` — mapping-table slots (read map / write map,
  bit :func:`~repro.analyze.dataflow.reg_bit` ``(cls, index)``) whose current
  target may still be observed before the slot is reconnected or reset;
* ``live_ext`` — extended physical registers whose current value may still
  be read.

Slot gen/kill is purely syntactic (operand indices plus the reset model), so
the slot component is exact with respect to the simulator: a read through a
mapped index uses its read-map slot, a write uses its write-map slot and
then applies the model's automatic reset (section 2.3) — under model 3 the
write-map value flows into the read map, which the backward transfer mirrors
by transferring read-map liveness onto the write map.  ``CALL``/``RET``
reset every entry to home (section 4.1), killing all slots.

Extended-register liveness needs the *forward* map fixpoint to know which
physical registers a mapped access resolves to, so callers pass
per-instruction use/def masks (see ``checks._ext_tables``); when the tables
are omitted the extended component stays empty and only slots are tracked —
the configuration the connect optimizer uses.
"""

from __future__ import annotations

from repro.analyze.cfg import FuncCFG
from repro.analyze.dataflow import BackwardAnalysis, reg_bit
from repro.isa.opcodes import Opcode
from repro.isa.registers import RClass
from repro.rc.models import RCModel
from repro.sim.config import MachineConfig
from repro.sim.program import MachineProgram

_CLASSES = (RClass.INT, RClass.FP)

#: One liveness state: (live read-map slots, live write-map slots, live
#: extended registers).  Immutable, so ``copy`` is the identity.
LiveState = tuple[int, int, int]

EMPTY: LiveState = (0, 0, 0)


class SlotLiveness(BackwardAnalysis):
    """May-liveness of map slots (and optionally extended registers)."""

    def __init__(self, program: MachineProgram, config: MachineConfig,
                 ext_use: dict[int, int] | None = None,
                 ext_def: dict[int, int] | None = None) -> None:
        self.program = program
        self.config = config
        self.model = config.rc_model
        self.entries = {
            cls: (config.spec_for(cls).core
                  if config.spec_for(cls).has_rc else 0)
            for cls in _CLASSES
        }
        self.ext_use = ext_use or {}
        self.ext_def = ext_def or {}
        all_slots = 0
        for cls, n in self.entries.items():
            for index in range(n):
                all_slots |= 1 << reg_bit(cls, index)
        self.all_slots = all_slots
        #: instruction index -> (instruction, decoded slot masks)
        self._decoded: dict[int, tuple] = {}

    # -- BackwardAnalysis interface ------------------------------------------

    def boundary(self, fn: FuncCFG) -> LiveState:
        if fn.is_handler:
            # A handler returns into an arbitrary interrupted context (and
            # its connects mutate the live tables even with mapping
            # disabled): keep every slot conservatively live.
            return (self.all_slots, self.all_slots, 0)
        # Extended registers are caller-saved and the maps reset at return:
        # nothing survives a normal exit.
        return EMPTY

    def bottom(self, fn: FuncCFG) -> LiveState:
        return EMPTY

    def join(self, a: LiveState, b: LiveState) -> LiveState:
        return (a[0] | b[0], a[1] | b[1], a[2] | b[2])

    def copy(self, state: LiveState) -> LiveState:
        return state

    def _decode(self, index: int, instr) -> tuple:
        """The slot masks instruction *index* touches, decoded once.

        ``(True, read kills, write kills)`` for a connect, ``(False, None)``
        for CALL/RET, else ``(False, read-map MFMAP bit, write-map MFMAP
        bit, destination slot bit, source slot bits)``.
        """
        entries = self.entries
        if instr.is_connect:
            cls = instr.imm[0]
            n = entries.get(cls, 0)
            rkill = wkill = 0
            for _cls, which, ri, _rp in instr.connect_updates():
                if ri < n:
                    if which == "read":
                        rkill |= 1 << reg_bit(cls, ri)
                    else:
                        wkill |= 1 << reg_bit(cls, ri)
            return (True, rkill, wkill)
        op = instr.op
        if op in (Opcode.CALL, Opcode.RET):
            return (False, None)
        mf_r = mf_w = 0
        if op is Opcode.MFMAP:
            rclass, idx, which = instr.imm
            if idx < entries.get(rclass, 0):
                if which == "read":
                    mf_r = 1 << reg_bit(rclass, idx)
                else:
                    mf_w = 1 << reg_bit(rclass, idx)
        dest = instr.dest
        dbit = 0
        if dest is not None and dest.num < entries.get(dest.cls, 0):
            dbit = 1 << reg_bit(dest.cls, dest.num)
        sbits = 0
        for src in instr.reg_srcs():
            if src.num < entries.get(src.cls, 0):
                sbits |= 1 << reg_bit(src.cls, src.num)
        return (False, mf_r, mf_w, dbit, sbits)

    def transfer(self, state: LiveState, index: int, instr) -> LiveState:
        rmap, wmap, ext = state
        decoded = self._decoded.get(index)
        if decoded is None or decoded[0] is not instr:
            decoded = self._decoded[index] = (instr,
                                              self._decode(index, instr))
        code = decoded[1]

        if code[0]:
            # Connect: updates redefine their slots (a same-slot pair
            # leaves the slot dead before the earlier update either way).
            return (rmap & ~code[1], wmap & ~code[2], ext)

        if code[1] is None:
            # CALL/RET: both endpoints reset every entry to home: the
            # callee starts from home maps, so no caller slot is observed,
            # and every slot is redefined before the next instruction runs.
            return (0, 0, ext | self.ext_use.get(index, 0))

        _c, mf_r, mf_w, bit, sbits = code
        rmap |= mf_r
        wmap |= mf_w

        # Generic instruction.  Forward order is: resolve reads through the
        # read map, model-5 after-read resets, execute, write through the
        # write map, model after-write reset.  Undo each in reverse.
        if bit:
            model = self.model
            # Undo the automatic after-write reset (a definition of the
            # affected slots), then mark the write's own use of the
            # write-map slot.
            if model in (RCModel.WRITE_RESET, RCModel.READ_RESET):
                wmap &= ~bit
            elif model is RCModel.WRITE_RESET_READ_UPDATE:
                wmap &= ~bit
                if rmap & bit:
                    # read[d] := write[d]: the write-map value flows
                    # into the live read map.
                    wmap |= bit
                    rmap &= ~bit
            elif model is RCModel.READ_WRITE_RESET:
                rmap &= ~bit
                wmap &= ~bit
            wmap |= bit

        ext &= ~self.ext_def.get(index, 0)
        # Model-5 after-read resets kill the source slots before the reads
        # use them; either way the sources end up live.
        rmap |= sbits
        ext |= self.ext_use.get(index, 0)
        return (rmap, wmap, ext)


def after_states(result) -> dict[int, LiveState]:
    """Per-instruction liveness *after* each instruction of one function.

    *result* is the :class:`~repro.analyze.dataflow.BackwardResult` of a
    :class:`SlotLiveness` solve; unreachable blocks are absent.
    """
    states: dict[int, LiveState] = {}

    def visit(state: LiveState, i: int, _instr) -> None:
        states[i] = state

    for start, block in result.fn.blocks.items():
        if start in result.block_out:
            result.walk(block, visit)
    return states
