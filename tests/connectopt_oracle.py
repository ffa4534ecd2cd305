"""Trial-based reference for the connect optimizer's hoisting.

``repro.analyze.optimize`` decides whether a hoisted loop connect leaves
its original redundant from analyses solved once per round.  This oracle
answers the same question the direct way: build the trial program with the
copy inserted into the preheader, rebuild its CFG, and re-solve the whole
function with the site-tagged :class:`~repro.rc.abstract.AbstractMap`
(frozenset entries, keyed by ``RClass``).  The deletion rounds are the
production ones, so :func:`optimize_connects` here differs from the real
pass only in how hoists are judged and in the entry encoding they are
judged with.
"""

from __future__ import annotations

from repro.analyze.cfg import FuncCFG, build_cfg
from repro.analyze.dataflow import ForwardAnalysis, solve_forward
from repro.analyze.optimize import (
    ConnectEdit,
    ConnectOptReport,
    OptimizeResult,
    _Analyses,
    _bail_reason,
    _delete_fixpoint,
    _delete_indices,
    _hoist_candidates,
    _insert_at,
    _MAX_HOIST_PASSES,
    _static_connects,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import RClass
from repro.rc.abstract import AbstractMap


class SetMapState(ForwardAnalysis):
    """Forward mapping-table state over frozenset entries with every site
    ``None``, one :class:`AbstractMap` per ``RClass`` with RC."""

    def __init__(self, config) -> None:
        self.config = config
        self.entries = {
            cls: (config.spec_for(cls).core
                  if config.spec_for(cls).has_rc else 0)
            for cls in (RClass.INT, RClass.FP)
        }

    def boundary(self, fn: FuncCFG) -> dict:
        return {cls: AbstractMap(n, self.config.rc_model)
                for cls, n in self.entries.items() if n}

    def join(self, a: dict, b: dict) -> dict:
        for cls, amap in a.items():
            amap.join(b[cls])
        return a

    def copy(self, state: dict) -> dict:
        return {cls: amap.copy() for cls, amap in state.items()}

    def transfer(self, state: dict, index: int, instr) -> dict:
        if instr.is_connect:
            amap = state.get(instr.imm[0])
            if amap is not None:
                for _cls, which, ri, rp in instr.connect_updates():
                    if ri < amap.entries:
                        amap.connect(which, ri, rp, None)
            return state
        if instr.op in (Opcode.CALL, Opcode.RET):
            for amap in state.values():
                amap.reset_home()
            return state
        for src in instr.reg_srcs():
            amap = state.get(src.cls)
            if amap is not None and src.num < amap.entries:
                amap.after_read(src.num)
        dest = instr.dest
        if dest is not None:
            amap = state.get(dest.cls)
            if amap is not None and dest.num < amap.entries:
                amap.after_write(dest.num)
        return state


def fully_redundant(program, config, index: int) -> bool:
    """Whether every update of the connect at *index* is a no-op, by a
    whole-function re-solve of *program*."""
    cfg = build_cfg(program)
    fn = block = None
    for f in cfg.functions:
        for b in f.blocks.values():
            if b.start <= index < b.end:
                fn, block = f, b
                break
        if block is not None:
            break
    if block is None:
        return False
    analysis = SetMapState(config)
    fwd = solve_forward(fn, analysis, program.instrs)
    if block.start not in fwd.block_in:
        return False
    captured: dict = {}

    def visit(state: dict, i: int, _instr) -> None:
        if i == index:
            captured.update(analysis.copy(state))

    fwd.walk(block, visit)
    instr = program.instrs[index]
    amap = captured.get(instr.imm[0])
    if amap is None:
        return False
    scratch = amap.copy()
    for _c, which, ri, rp in instr.connect_updates():
        if ri >= scratch.entries:
            return False
        entry = (scratch.read_entry(ri) if which == "read"
                 else scratch.write_entry(ri))
        if entry != frozenset({(rp, None)}):
            return False
        scratch.connect(which, ri, rp, None)
    return True


def hoist_pass(program, config, report: ConnectOptReport):
    """The hoist pass with one trial program per candidate."""
    trials = 0
    progress = True
    while progress and trials < 200:
        progress = False
        for i, p, eoj, fn, *_loop in _hoist_candidates(
                _Analyses(program, config)):
            trials += 1
            before = _static_connects(program)
            trial = _insert_at(program, program.instrs[i].copy(), p, eoj)
            orig = i + 1 if i >= p else i
            if not fully_redundant(trial, config, orig):
                continue
            trial = _delete_indices(trial, {orig})
            trial_report = ConnectOptReport()
            trial = _delete_fixpoint(trial, config, trial_report).program
            if _static_connects(trial) > before:
                continue
            report.hoisted += 1
            report.edits.append(ConnectEdit(
                kind="hoist", function=fn.name, index=i,
                detail=f"loop connect@{i} -> preheader@{p}"))
            report.removed_dead += trial_report.removed_dead
            report.removed_redundant += trial_report.removed_redundant
            report.edits.extend(trial_report.edits)
            program = trial
            progress = True
            break
    return program


def optimize_connects(program, config) -> OptimizeResult:
    """``repro.analyze.optimize_connects`` with :func:`hoist_pass`."""
    report = ConnectOptReport(connects_before=_static_connects(program))
    report.bail_reason = _bail_reason(program, config)
    if report.bail_reason is not None:
        report.connects_after = report.connects_before
        return OptimizeResult(program=program, report=report)
    program = _delete_fixpoint(program, config, report).program
    for _ in range(_MAX_HOIST_PASSES):
        hoists_before = report.hoisted
        program = hoist_pass(program, config, report)
        if report.hoisted == hoists_before:
            break
    report.connects_after = _static_connects(program)
    return OptimizeResult(program=program, report=report)
