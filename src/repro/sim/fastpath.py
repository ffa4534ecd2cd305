"""Specializing fast-path execution engine, bit-exact with the reference
:class:`~repro.sim.core.Simulator`.

Two layers (ROADMAP: "as fast as the hardware allows"):

1. **Decode-time specialization.**  For each static instruction the engine
   generates Python source inlining exactly the operand-resolution branches
   that instruction needs — source count and classes, map-vs-bypass path for
   the configured register files, destination interlock, latency constant —
   and groups the instructions of every basic block into one ``compile()``d
   function.  State is bound through keyword-only default arguments so the
   hot loop runs on local-variable access, with no per-source
   ``for mode, payload in d.srcs`` interpretation, no ``_SRC_*`` dispatch,
   and no repeated attribute loads.

2. **Basic-block issue-bundle caching.**  A self-contained loop block (one
   whose terminating, predicted-taken conditional branch targets its own
   leader) with unmapped operands memoizes its issue schedule keyed on a
   scoreboard-relative signature: the clamped ready-time deltas of every
   register slot the block touches.  A hit replays the recorded
   per-instruction issue offsets and stat deltas — values are still computed
   live, in program order, so runs stay execution-driven — skipping the
   scoreboard polls entirely.  A miss falls back to the specialized
   single-step path, which doubles as the recorder.

The generated code reproduces the reference engine's group accounting
(zero-issue jumps, width exhaustion, memory-channel and same-cycle
store->load structural breaks, misprediction/trap/rte redirects) branch for
branch; ``tests/test_fastpath.py`` asserts equality of cycles, the full
:class:`SimStats`, and the architectural checksum across every benchmark x
RC model x issue width.

The engine transparently delegates to the reference simulator whenever its
per-event guarantees are needed: an attached observer or trace hook, a
scheduled interrupt, a resumable ``run(until_cycle=...)`` segment, or a
program shape the code generator does not support.
"""

from __future__ import annotations

import dataclasses
import re
import weakref

#: One-pass identifier scan used to decide which state names a generated
#: block function needs bound as keyword defaults.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

from repro.errors import CycleBudgetError, SimulationError
from repro.isa.inline import BRANCH_EXPR as _BR_EXPR
from repro.isa.inline import alu_stmts as _alu_stmts
from repro.isa.registers import RClass
from repro.rc.models import RCModel
from repro.sim.core import (
    K_ALU,
    K_CALL,
    K_CBR,
    K_CONNECT,
    K_HALT,
    K_JMP,
    K_LI,
    K_LOAD,
    K_MFMAP,
    K_MFPSW,
    K_MTPSW,
    K_NOP,
    K_RET,
    K_RTE,
    K_STORE,
    K_TRAP,
    SimResult,
    Simulator,
    _SRC_FP,
    _SRC_IMM,
    _SRC_INT,
)
from repro.sim.stats import SimStats

__all__ = ["FastSimulator", "program_blocks", "program_leaders"]

_CONTROL = frozenset({K_CBR, K_JMP, K_CALL, K_RET, K_HALT, K_TRAP, K_RTE})
_BUNDLE_KINDS = frozenset({K_ALU, K_LI, K_LOAD, K_STORE, K_NOP, K_CBR})
_BUNDLE_MAX_LEN = 48
_BUNDLE_MAX_SLOTS = 32
_BUNDLE_CACHE_CAP = 512

#: Names a block function may bind as keyword-only defaults; the emitted
#: body is scanned so each function binds only what it actually uses.
_BINDABLE = (
    "IREADY", "FREADY", "IREGS", "FREGS", "MEM",
    "IRM", "IWM", "FRM", "FWM",
    "IMR_R", "IMR_W", "FMR_R", "FMR_W",
    "IC", "ST", "RA", "TS", "PSWO", "MAXC", "IHOME", "FHOME",
)

class _Unsupported(Exception):
    """Program shape the generator does not handle; engine falls back."""


# -- program structure (shared with repro.sim.batched) -------------------------

def program_leaders(program, decoded) -> list[int]:
    """Basic-block leader indices: entry, control targets, fall-throughs of
    control instructions, and trap handlers."""
    n = len(decoded)
    leaders = {program.entry}
    for i, d in enumerate(decoded):
        if d.kind in _CONTROL:
            if d.target is not None:
                leaders.add(d.target)
            if i + 1 < n:
                leaders.add(i + 1)
    leaders.update(program.trap_handlers.values())
    return sorted(x for x in leaders if 0 <= x < n)


def program_blocks(program, decoded) -> list[tuple[int, list[int]]]:
    """``(leader, body)`` pairs partitioning the program into basic blocks."""
    n = len(decoded)
    leaders = program_leaders(program, decoded)
    leader_set = set(leaders)
    out = []
    for lead in leaders:
        body = []
        k = lead
        while True:
            body.append(k)
            if decoded[k].kind in _CONTROL:
                break
            if k + 1 >= n or (k + 1) in leader_set:
                break
            k += 1
        out.append((lead, body))
    return out


class _Codegen:
    """Generates one Python module of per-block step functions for a
    (program, config) pair.

    Every block function has the uniform signature
    ``fn(cycle, issued, mem_used, store_seen, map_en)`` and returns the
    7-tuple ``(pc, cycle, issued, mem_used, store_seen, map_en, halted)``;
    the driver loop in :class:`FastSimulator` threads the group state
    between blocks so a correctly-predicted not-taken branch can hand a
    partially-filled issue group to the fall-through block, exactly like
    the reference engine's inner loop.
    """

    def __init__(self, program, config, decoded, generic_maps=False) -> None:
        self.program = program
        self.config = config
        self.dec = decoded
        self.W = config.issue_width
        self.CH = config.mem_channels
        self.RD = config.redirect_penalty
        self.CL = config.latency.connect
        self.maxc = config.max_cycles
        self.model = config.rc_model
        self.read_reset = config.rc_model.resets_read_map_on_read
        #: Generic-maps mode emits the RC-model map maintenance gated by
        #: const flags (MWR/MRU/MRR/MRDR) instead of inlining one model's
        #: lines, so one compiled module serves every model — the gang
        #: simulator's class leaders differ only by model and share it.  The
        #: flags bind as keyword defaults like every other const, so the
        #: cost is a LOAD_FAST and branch per mapped writeback.
        self.generic = generic_maps
        self.ient = config.int_spec.core if config.int_spec.has_rc else 0
        self.fent = config.fp_spec.core if config.fp_spec.has_rc else 0
        self.lmax = max(max((d.latency for d in decoded), default=0),
                        self.CL, 1)
        self.consts: dict[str, object] = {}
        self.lines: list[str] = []
        self._block_consts: list[str] = []

    # -- program structure -----------------------------------------------------

    def _blocks(self) -> list[tuple[int, list[int]]]:
        return program_blocks(self.program, self.dec)

    # -- helpers ---------------------------------------------------------------

    def _validate(self, k: int, d) -> None:
        if d.kind in (K_CBR, K_JMP, K_CALL) and d.target is None:
            raise _Unsupported(f"instr {k}: control without target")
        if d.kind in (K_LOAD, K_STORE) and not isinstance(d.imm, int):
            raise _Unsupported(f"instr {k}: non-integer memory offset")
        if d.kind == K_LOAD and d.dest is None:
            raise _Unsupported(f"instr {k}: load without destination")
        if d.kind == K_CBR and d.op.name not in _BR_EXPR:
            raise _Unsupported(f"instr {k}: unknown branch {d.op.name}")
        if d.kind == K_TRAP:
            handler = self.program.trap_handlers.get(d.imm)
            if handler is not None and handler < 0:
                raise _Unsupported(f"instr {k}: negative trap handler")
        if d.kind == K_MFMAP:
            rclass = d.imm[0]
            if not self._mapped(rclass is RClass.INT):
                raise _Unsupported(f"instr {k}: mfmap without a mapping table")

    def _const(self, name: str, value) -> str:
        self.consts[name] = value
        self._block_consts.append(name)
        return name

    def _imm_expr(self, k: int, j, value) -> str:
        if type(value) is int:
            return f"({value!r})"
        return self._const(f"C{k}_{j}", value)

    def _mapped(self, is_int: bool) -> bool:
        return bool(self.ient if is_int else self.fent)

    # -- operand resolution ----------------------------------------------------

    def _emit_resolution(self, w, ind, k: int, d):
        """Emit ready-time checks accumulating the interlock bound into local
        ``b``; returns (value expressions, dest index expression or None).

        Mirrors the reference resolution walk: map-ready check and map
        translation under ``map_en`` (the decoder guarantees operand indices
        fit the table, so the reference's ``payload < ient`` test is
        statically true whenever a table exists), then the register-file
        ready check on the physical index.
        """
        vals = []
        for j, (mode, payload) in enumerate(d.srcs):
            if mode == _SRC_IMM:
                vals.append(self._imm_expr(k, j, payload))
                continue
            is_int = mode == _SRC_INT
            regs = "IREGS" if is_int else "FREGS"
            ready = "IREADY" if is_int else "FREADY"
            if self._mapped(is_int):
                mr = "IMR_R" if is_int else "FMR_R"
                rm = "IRM" if is_int else "FRM"
                w(ind + "if map_en:")
                w(ind + f"    r = {mr}[{payload}]")
                w(ind + "    if r > cycle and r > b: b = r")
                w(ind + f"    s{j} = {rm}[{payload}]")
                w(ind + "else:")
                w(ind + f"    s{j} = {payload}")
                w(ind + f"r = {ready}[s{j}]")
                w(ind + "if r > cycle and r > b: b = r")
                vals.append(f"{regs}[s{j}]")
            else:
                w(ind + f"r = {ready}[{payload}]")
                w(ind + "if r > cycle and r > b: b = r")
                vals.append(f"{regs}[{payload}]")
        dest_expr = None
        if d.dest is not None:
            dest_is_int, nm = d.dest
            ready = "IREADY" if dest_is_int else "FREADY"
            if self._mapped(dest_is_int):
                mw = "IMR_W" if dest_is_int else "FMR_W"
                wm = "IWM" if dest_is_int else "FWM"
                w(ind + "if map_en:")
                w(ind + f"    r = {mw}[{nm}]")
                w(ind + "    if r > cycle and r > b: b = r")
                w(ind + f"    dph = {wm}[{nm}]")
                w(ind + "else:")
                w(ind + f"    dph = {nm}")
                w(ind + f"r = {ready}[dph]")
                w(ind + "if r > cycle and r > b: b = r")
                dest_expr = "dph"
            else:
                w(ind + f"r = {ready}[{nm}]")
                w(ind + "if r > cycle and r > b: b = r")
                dest_expr = str(nm)
        return vals, dest_expr

    def _static_vals(self, k: int, d) -> list[str]:
        """Value expressions with direct physical indices (no mapping)."""
        vals = []
        for j, (mode, payload) in enumerate(d.srcs):
            if mode == _SRC_IMM:
                vals.append(self._imm_expr(k, j, payload))
            elif mode == _SRC_INT:
                vals.append(f"IREGS[{payload}]")
            else:
                vals.append(f"FREGS[{payload}]")
        return vals

    # -- execution -------------------------------------------------------------

    def _emit_value(self, w, ind, k: int, d, vals: list[str]) -> None:
        """Emit statements computing local ``v`` for a value-producing kind."""
        kind = d.kind
        if kind == K_ALU:
            stmts = _alu_stmts(d.op.name, vals)
            if stmts is None:
                fn = self._const(f"A{k}", d.alu)
                w(ind + f"v = {fn}({', '.join(vals)})")
            else:
                for s in stmts:
                    w(ind + s)
        elif kind == K_LI:
            w(ind + f"v = {self._imm_expr(k, 'i', d.imm)}")
        elif kind == K_LOAD:
            default = "0" if d.dest[0] else "0.0"
            w(ind + f"v = MEM.get({vals[0]} + ({d.imm!r}), {default})")
        elif kind == K_MFPSW:
            w(ind + "v = PSWO.pack()")
        elif kind == K_MFMAP:
            rclass, idx, which = d.imm
            is_int = rclass is RClass.INT
            tab = (("IRM" if which == "read" else "IWM") if is_int
                   else ("FRM" if which == "read" else "FWM"))
            w(ind + f"v = {tab}[{idx}]")

    def _emit_writeback(self, w, ind, d, dest_expr: str) -> None:
        dest_is_int, nm = d.dest
        regs = "IREGS" if dest_is_int else "FREGS"
        ready = "IREADY" if dest_is_int else "FREADY"
        w(ind + f"{regs}[{dest_expr}] = v")
        w(ind + f"{ready}[{dest_expr}] = cycle + {d.latency}")
        if not self._mapped(dest_is_int):
            return
        rm = "IRM" if dest_is_int else "FRM"
        wm = "IWM" if dest_is_int else "FWM"
        if self.generic:
            self._const("MWR", self.model is not RCModel.NO_RESET)
            self._const("MRU", self.model is RCModel.WRITE_RESET_READ_UPDATE)
            self._const("MRR", self.model is RCModel.READ_WRITE_RESET)
            w(ind + "if map_en and MWR:")
            w(ind + f"    if MRU: {rm}[{nm}] = {wm}[{nm}]")
            w(ind + f"    elif MRR: {rm}[{nm}] = {nm}")
            w(ind + f"    {wm}[{nm}] = {nm}")
        elif self.model is not RCModel.NO_RESET:
            if self.model in (RCModel.WRITE_RESET, RCModel.READ_RESET):
                body = [f"{wm}[{nm}] = {nm}"]
            elif self.model is RCModel.WRITE_RESET_READ_UPDATE:
                body = [f"{rm}[{nm}] = {wm}[{nm}]", f"{wm}[{nm}] = {nm}"]
            else:  # READ_WRITE_RESET
                body = [f"{rm}[{nm}] = {nm}", f"{wm}[{nm}] = {nm}"]
            w(ind + "if map_en:")
            for line in body:
                w(ind + "    " + line)

    def _emit_read_resets(self, w, ind, d) -> None:
        """Model 5 (READ_RESET): reads are one-shot connections."""
        if not (self.read_reset or self.generic):
            return
        resets = []
        for mode, payload in d.srcs:
            if mode == _SRC_INT and self.ient:
                resets.append(f"IRM[{payload}] = {payload}")
            elif mode == _SRC_FP and self.fent:
                resets.append(f"FRM[{payload}] = {payload}")
        if resets:
            if self.generic:
                self._const("MRDR", self.read_reset)
                w(ind + "if map_en and MRDR:")
            else:
                w(ind + "if map_en:")
            for line in resets:
                w(ind + "    " + line)

    # -- group bookkeeping -----------------------------------------------------

    def _emit_goto(self, w, ind, target: int, loop_leader) -> None:
        """Control transfer with a clean (empty) next group."""
        if loop_leader is not None and target == loop_leader:
            w(ind + f"if cycle > MAXC: _mxe({target})")
            if self.W > 1:
                w(ind + "issued = 0; mem_used = 0; store_seen = 0")
            w(ind + "continue")
        else:
            w(ind + f"return ({target}, cycle, 0, 0, False, map_en, False)")

    def _emit_epilogue(self, w, ind, k: int, is_last: bool) -> None:
        """Group advance after a fall-through issue (width exhaustion)."""
        if self.W > 1:
            w(ind + f"if issued == {self.W}:")
            w(ind + "    cycle += 1")
            if is_last:
                w(ind + f"    return ({k + 1}, cycle, 0, 0, False, map_en,"
                        " False)")
                w(ind + f"return ({k + 1}, cycle, issued, mem_used,"
                        " store_seen, map_en, False)")
            else:
                w(ind + f"    if cycle > MAXC: _mxe({k + 1})")
                w(ind + "    issued = 0; mem_used = 0; store_seen = 0")
        else:
            w(ind + "cycle += 1")
            if is_last:
                w(ind + f"return ({k + 1}, cycle, 0, 0, False, map_en,"
                        " False)")
            else:
                w(ind + f"if cycle > MAXC: _mxe({k + 1})")

    # -- per-instruction emission ----------------------------------------------

    def _emit_instr(self, w, ind, k: int, d, loop_leader, record: bool,
                    is_last: bool) -> None:
        W = self.W
        kind = d.kind
        self._validate(k, d)
        has_res = d.dest is not None or any(
            m != _SRC_IMM for m, _ in d.srcs)
        is_mem = kind in (K_LOAD, K_STORE)
        mem_can_stall = is_mem and self.CH < W
        las_check = kind == K_LOAD and W > 1

        dest_expr = None
        if has_res and W > 1:
            w(ind + "while 1:")
            i2 = ind + "    "
            w(i2 + "b = 0")
            vals, dest_expr = self._emit_resolution(w, i2, k, d)
            w(i2 + "if b:")
            w(i2 + "    if issued:")
            w(i2 + "        cycle += 1")
            w(i2 + f"        if cycle > MAXC: _mxe({k})")
            w(i2 + "        issued = 0; mem_used = 0; store_seen = 0")
            w(i2 + "        continue")
            w(i2 + "    ST[0] += b - cycle")
            w(i2 + "    cycle = b")
            w(i2 + f"    if cycle > MAXC: _mxe({k})")
            if mem_can_stall:
                w(i2 + f"if mem_used >= {self.CH}:")
                w(i2 + "    ST[2] += 1")
                w(i2 + "    cycle += 1")
                w(i2 + f"    if cycle > MAXC: _mxe({k})")
                w(i2 + "    issued = 0; mem_used = 0; store_seen = 0")
            if las_check:
                w(i2 + "if store_seen:")
                w(i2 + "    cycle += 1")
                w(i2 + f"    if cycle > MAXC: _mxe({k})")
                w(i2 + "    issued = 0; mem_used = 0; store_seen = 0")
            w(i2 + "break")
        elif has_res:  # W == 1: groups hold one instruction, stalls jump once
            w(ind + "b = 0")
            vals, dest_expr = self._emit_resolution(w, ind, k, d)
            w(ind + "if b:")
            w(ind + "    ST[0] += b - cycle")
            w(ind + "    cycle = b")
            w(ind + f"    if cycle > MAXC: _mxe({k})")
        else:
            vals = self._static_vals(k, d)
            if mem_can_stall:
                w(ind + f"if mem_used >= {self.CH}:")
                w(ind + "    ST[2] += 1")
                w(ind + "    cycle += 1")
                w(ind + f"    if cycle > MAXC: _mxe({k})")
                w(ind + "    issued = 0; mem_used = 0; store_seen = 0")
            if las_check:
                w(ind + "if store_seen:")
                w(ind + "    cycle += 1")
                w(ind + f"    if cycle > MAXC: _mxe({k})")
                w(ind + "    issued = 0; mem_used = 0; store_seen = 0")

        if is_mem and W > 1:
            w(ind + "mem_used += 1")
        if W > 1:
            w(ind + "issued += 1")
        w(ind + f"IC[{k}] += 1")
        if record:
            w(ind + "if _rec is not None:")
            w(ind + "    _rec.append(cycle - _c0)")
        self._emit_read_resets(w, ind, d)

        if kind in (K_ALU, K_LI, K_LOAD, K_MFPSW, K_MFMAP):
            self._emit_value(w, ind, k, d, vals)
            if d.dest is not None:
                self._emit_writeback(w, ind, d, dest_expr)
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_STORE:
            w(ind + f"MEM[{vals[1]} + ({d.imm!r})] = {vals[0]}")
            if W > 1:
                w(ind + "store_seen = 1")
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_NOP:
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_MTPSW:
            w(ind + f"_p = {vals[0]}")
            w(ind + "map_en = (_p & 1) != 0")
            w(ind + "PSWO.map_enable = map_en")
            w(ind + "PSWO.rc_mode = (_p & 2) != 0")
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_CONNECT:
            self._emit_connect(w, ind, d)
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_CBR:
            self._emit_cbr(w, ind, k, d, vals, loop_leader, record)
        elif kind == K_JMP:
            w(ind + "cycle += 1")
            self._emit_goto(w, ind, d.target, loop_leader)
        elif kind == K_CALL:
            w(ind + f"RA.append({k + 1})")
            self._emit_map_home(w, ind)
            w(ind + "cycle += 1")
            self._emit_goto(w, ind, d.target, loop_leader)
        elif kind == K_RET:
            w(ind + "if not RA:")
            w(ind + "    raise SE('ret with empty RA stack')")
            self._emit_map_home(w, ind)
            w(ind + "cycle += 1")
            w(ind + "return (RA.pop(), cycle, 0, 0, False, map_en, False)")
        elif kind == K_HALT:
            w(ind + "cycle += 1")
            w(ind + f"return ({k}, cycle, 0, 0, False, map_en, True)")
        elif kind == K_TRAP:
            handler = self.program.trap_handlers.get(d.imm)
            if handler is None:
                w(ind + f"raise SE('no handler for trap {d.imm}')")
            else:
                w(ind + f"TS.append((PSWO.pack(), {k + 1}))")
                w(ind + "PSWO.map_enable = False")
                w(ind + "map_en = False")
                w(ind + f"ST[3] += {self.RD}")
                w(ind + f"cycle += {1 + self.RD}")
                w(ind + f"return ({handler}, cycle, 0, 0, False, False,"
                        " False)")
        elif kind == K_RTE:
            w(ind + "if not TS:")
            w(ind + "    raise SE('rte with empty trap stack')")
            w(ind + "_p, _rpc = TS.pop()")
            w(ind + "map_en = (_p & 1) != 0")
            w(ind + "PSWO.map_enable = map_en")
            w(ind + "PSWO.rc_mode = (_p & 2) != 0")
            w(ind + f"ST[3] += {self.RD}")
            w(ind + f"cycle += {1 + self.RD}")
            w(ind + "return (_rpc, cycle, 0, 0, False, map_en, False)")
        else:
            raise _Unsupported(f"instr {k}: unhandled kind {kind}")

    def _emit_connect(self, w, ind, d) -> None:
        w(ind + ("_ra = cycle" if self.CL == 0
                 else f"_ra = cycle + {self.CL}"))
        for rclass, which, idx, phys in d.updates:
            is_int = rclass is RClass.INT
            tab = (("IRM" if which == "read" else "IWM") if is_int
                   else ("FRM" if which == "read" else "FWM"))
            mr = (("IMR_R" if which == "read" else "IMR_W") if is_int
                  else ("FMR_R" if which == "read" else "FMR_W"))
            w(ind + f"{tab}[{idx}] = {phys}")
            w(ind + f"{mr}[{idx}] = _ra")

    def _emit_map_home(self, w, ind) -> None:
        if self.ient:
            self._const("IHOME", range(self.ient))
            w(ind + "IRM[:] = IHOME")
            w(ind + "IWM[:] = IHOME")
        if self.fent:
            self._const("FHOME", range(self.fent))
            w(ind + "FRM[:] = FHOME")
            w(ind + "FWM[:] = FHOME")

    def _emit_cbr(self, w, ind, k: int, d, vals, loop_leader,
                  record: bool) -> None:
        cond = _BR_EXPR[d.op.name].format(
            a=vals[0], b=vals[1] if len(vals) > 1 else "")
        i2 = ind + "    "
        w(ind + f"if {cond}:")
        if d.pred_taken:
            # Correctly predicted taken: the group cannot fetch past it.
            if record:
                w(i2 + "if _rec is not None:")
                w(i2 + f"    if len(BC) < {_BUNDLE_CACHE_CAP}:")
                w(i2 + "        BC[_sig] = (tuple(_rec), ST[0] - _z0,"
                       " ST[2] - _m0)")
                w(i2 + "    _rec = None")
            w(i2 + "cycle += 1")
            self._emit_goto(w, i2, d.target, loop_leader)
            # Not taken against a taken prediction: mispredict redirect.
            w(ind + "ST[1] += 1")
            w(ind + f"ST[3] += {self.RD}")
            w(ind + f"cycle += {1 + self.RD}")
            w(ind + f"return ({k + 1}, cycle, 0, 0, False, map_en, False)")
        else:
            # Taken against a not-taken prediction: mispredict redirect.
            w(i2 + "ST[1] += 1")
            w(i2 + f"ST[3] += {self.RD}")
            w(i2 + f"cycle += {1 + self.RD}")
            self._emit_goto(w, i2, d.target, loop_leader)
            # Correctly predicted not taken: the group keeps filling across
            # the fall-through edge.
            self._emit_epilogue(w, ind, k, True)

    # -- issue-bundle caching --------------------------------------------------

    def _bundle_plan(self, lead: int, body: list[int]):
        """Static plan for memoizing this self-loop block's issue schedule,
        or ``None`` when the block does not qualify.

        Qualification: predicted-taken conditional-branch terminator
        targeting the leader, simple kinds only, every register operand
        unmapped (its file has no RC table, so resolution never consults
        ``map_en`` or map-ready times), a bounded register footprint, and a
        max-cycles gate far enough out that skipping the per-group limit
        checks cannot change behavior.
        """
        dec = self.dec
        term = dec[body[-1]]
        if term.kind != K_CBR or not term.pred_taken or term.target != lead:
            return None
        if not 2 <= len(body) <= _BUNDLE_MAX_LEN:
            return None
        gate = self.maxc - (len(body) * (self.lmax + 3) + self.RD + 4)
        if gate <= 0:
            return None
        slots: list[tuple[bool, int]] = []
        seen = set()
        for k in body:
            d = dec[k]
            if d.kind not in _BUNDLE_KINDS:
                return None
            operands = [(m == _SRC_INT, p) for m, p in d.srcs
                        if m != _SRC_IMM]
            if d.dest is not None:
                operands.append(d.dest)
            for is_int, p in operands:
                if self._mapped(is_int):
                    return None
                key = (is_int, p)
                if key not in seen:
                    seen.add(key)
                    slots.append(key)
        if len(slots) > _BUNDLE_MAX_SLOTS:
            return None
        return {"slots": slots, "gate": gate}

    def _emit_bundle(self, w, ind, lead: int, body: list[int], plan) -> None:
        """Loop-top pre-header: signature probe, replay on hit, recorder
        arming on miss."""
        i2 = ind + "    "
        i3 = i2 + "    "
        w(ind + f"if issued == 0 and cycle < {plan['gate']}:")
        parts = []
        for j, (is_int, p) in enumerate(plan["slots"]):
            ready = "IREADY" if is_int else "FREADY"
            parts.append(
                f"x{j} if (x{j} := {ready}[{p}] - cycle) > 0 else 0")
        if parts:
            tail = "," if len(parts) == 1 else ""
            w(i2 + f"_sig = ({', '.join(parts)}{tail})")
        else:
            w(i2 + "_sig = ()")
        w(i2 + "_e = BC.get(_sig)")
        w(i2 + "if _e is None:")
        w(i3 + "_rec = []")
        w(i3 + "_c0 = cycle")
        w(i3 + "_z0 = ST[0]")
        w(i3 + "_m0 = ST[2]")
        w(i2 + "else:")
        w(i3 + "_rel = _e[0]")
        for i, k in enumerate(body[:-1]):
            d = self.dec[k]
            w(i3 + f"IC[{k}] += 1")
            vals = self._static_vals(k, d)
            kind = d.kind
            if kind in (K_ALU, K_LI, K_LOAD):
                self._emit_value(w, i3, k, d, vals)
                if d.dest is not None:
                    is_int, nm = d.dest
                    regs = "IREGS" if is_int else "FREGS"
                    ready = "IREADY" if is_int else "FREADY"
                    w(i3 + f"{regs}[{nm}] = v")
                    w(i3 + f"{ready}[{nm}] = cycle + _rel[{i}] +"
                           f" {d.latency}")
            elif kind == K_STORE:
                w(i3 + f"MEM[{vals[1]} + ({d.imm!r})] = {vals[0]}")
            # K_NOP: nothing to execute.
        w(i3 + "ST[0] += _e[1]")
        w(i3 + "ST[2] += _e[2]")
        termk = body[-1]
        td = self.dec[termk]
        tvals = self._static_vals(termk, td)
        cond = _BR_EXPR[td.op.name].format(
            a=tvals[0], b=tvals[1] if len(tvals) > 1 else "")
        B = len(body) - 1
        w(i3 + f"IC[{termk}] += 1")
        w(i3 + f"if {cond}:")
        w(i3 + f"    cycle += _rel[{B}] + 1")
        w(i3 + f"    if cycle > MAXC: _mxe({lead})")
        w(i3 + "    continue")
        w(i3 + "ST[1] += 1")
        w(i3 + f"ST[3] += {self.RD}")
        w(i3 + f"cycle += _rel[{B}] + {1 + self.RD}")
        w(i3 + f"return ({termk + 1}, cycle, 0, 0, False, map_en, False)")
        w(ind + "else:")
        w(ind + "    _rec = None")

    # -- module assembly -------------------------------------------------------

    def _emit_block(self, lead: int, body: list[int]) -> None:
        self._block_consts = []
        dec = self.dec
        term = dec[body[-1]]
        self_loop = term.kind in (K_CBR, K_JMP) and term.target == lead
        plan = self._bundle_plan(lead, body) if self_loop else None
        buf: list[str] = []
        w = buf.append
        base = "    "
        if self_loop:
            if plan:
                w(base + "_rec = None")
            w(base + "while 1:")
            ind = base + "    "
        else:
            ind = base
        if plan:
            self._emit_bundle(w, ind, lead, body, plan)
        loop_leader = lead if self_loop else None
        last = len(body) - 1
        for i, k in enumerate(body):
            self._emit_instr(w, ind, k, dec[k], loop_leader,
                             plan is not None, i == last)
        text = "\n".join(buf)
        binds = []
        if plan:
            self.lines.append(f"BC{lead} = {{}}")
            binds.append(f"BC=BC{lead}")
        names = dict.fromkeys(list(_BINDABLE) + self._block_consts)
        used = set(_IDENT_RE.findall(text))
        for name in names:
            if name in used:
                binds.append(f"{name}={name}")
        head = f"def _b{lead}(cycle, issued, mem_used, store_seen, map_en"
        if binds:
            head += ", *, " + ", ".join(binds)
        head += "):"
        self.lines.append(head)
        self.lines.append(text)
        self.lines.append("")

    def generate(self) -> tuple[str, dict[str, object]]:
        w = self.lines.append
        w("def _mxe(pc):")
        w(f"    raise CBE('exceeded {self.maxc} cycles at pc=%d' % pc)")
        w("")
        blocks = self._blocks()
        for lead, body in blocks:
            self._emit_block(lead, body)
        w(f"_FUNCS = [None] * {len(self.dec)}")
        for lead, _body in blocks:
            w(f"_FUNCS[{lead}] = _b{lead}")
        return "\n".join(self.lines) + "\n", self.consts


# -- compiled-code cache -------------------------------------------------------

#: id(program) -> (weakref to the program, {config key -> (code, consts) or
#: None}).  Keyed by identity because :class:`MachineProgram` is an
#: eq-bearing (hence unhashable) mutable dataclass, and instances are pickled
#: into the experiment disk cache, so code objects must never be attached to
#: them.
_code_cache: dict[int, tuple[object, dict]] = {}


def _compiled(program, config, decoded):
    """Compiled step-function module for (program, config), or ``None`` when
    the program shape is unsupported.  Cached per program identity."""
    key = id(program)
    entry = _code_cache.get(key)
    if entry is None or entry[0]() is not program:
        try:
            ref = weakref.ref(
                program, lambda _r, _k=key: _code_cache.pop(_k, None))
        except TypeError:  # pragma: no cover - programs are weakref-able
            return _generate(program, config, decoded)
        entry = (ref, {})
        _code_cache[key] = entry
    per_config = entry[1]
    ckey = repr(config)
    if ckey not in per_config:
        per_config[ckey] = _generate(program, config, decoded)
    return per_config[ckey]


def _generate(program, config, decoded):
    try:
        source, consts = _Codegen(program, config, decoded).generate()
    except _Unsupported:
        return None
    code = compile(source, f"<fastpath:{program.name}>", "exec")
    return code, consts


def _model_flags(model) -> dict[str, bool]:
    """Const flags selecting one RC model inside a generic-maps module."""
    return {
        "MWR": model is not RCModel.NO_RESET,
        "MRU": model is RCModel.WRITE_RESET_READ_UPDATE,
        "MRR": model is RCModel.READ_WRITE_RESET,
        "MRDR": model.resets_read_map_on_read,
    }


def _compiled_generic(program, config, decoded):
    """Like :func:`_compiled`, but the module is generated in generic-maps
    mode and cached under the config *minus its RC model*: one ``compile()``
    serves every model, with the model selected per caller by patching the
    MWR/MRU/MRR/MRDR consts.  Used by the gang simulator, whose class
    leaders differ only by model."""
    key = id(program)
    entry = _code_cache.get(key)
    if entry is None or entry[0]() is not program:
        try:
            ref = weakref.ref(
                program, lambda _r, _k=key: _code_cache.pop(_k, None))
        except TypeError:  # pragma: no cover - programs are weakref-able
            entry = None
        else:
            entry = (ref, {})
            _code_cache[key] = entry
    base = dataclasses.replace(config, rc_model=RCModel.NO_RESET)
    if entry is None:  # pragma: no cover - unreachable for real programs
        cached = _generate_generic(program, base, decoded)
    else:
        per_config = entry[1]
        ckey = "generic:" + repr(base)
        if ckey not in per_config:
            per_config[ckey] = _generate_generic(program, base, decoded)
        cached = per_config[ckey]
    if cached is None:
        return None
    code, consts = cached
    return code, {**consts, **_model_flags(config.rc_model)}


def _generate_generic(program, base_config, decoded):
    try:
        source, consts = _Codegen(program, base_config, decoded,
                                  generic_maps=True).generate()
    except _Unsupported:
        return None
    code = compile(source, f"<fastpath-generic:{program.name}>", "exec")
    return code, consts


class FastSimulator:
    """Drop-in replacement for :class:`Simulator` built on generated code.

    Construction decodes through an embedded reference simulator (sharing
    its validation and :class:`MachineState`), so architectural state,
    ``schedule_interrupt``, observers and trace hooks behave identically.
    ``run()`` executes the specialized engine when it can guarantee bit
    exactness and silently delegates to the reference engine otherwise;
    ``ran_fastpath`` reports which engine produced the last result.
    """

    def __init__(self, program, config, trace_hook=None,
                 observer=None, *, decoded=None,
                 generic_maps=False) -> None:
        self._ref = Simulator(program, config, trace_hook=trace_hook,
                              observer=observer, decoded=decoded)
        self.program = program
        self.config = config
        self.ran_fastpath = False
        lookup = _compiled_generic if generic_maps else _compiled
        self._compiled_entry = lookup(program, config, self._ref._decoded)

    # -- reference-state delegation -------------------------------------------

    @property
    def state(self):
        return self._ref.state

    @property
    def trace_hook(self):
        return self._ref.trace_hook

    @trace_hook.setter
    def trace_hook(self, hook) -> None:
        self._ref.trace_hook = hook

    @property
    def observer(self):
        return self._ref.observer

    @observer.setter
    def observer(self, obs) -> None:
        self._ref.observer = obs

    def schedule_interrupt(self, cycle: int, vector: int) -> None:
        self._ref.schedule_interrupt(cycle, vector)

    # -- execution ------------------------------------------------------------

    def run(self, until_cycle: int | None = None) -> SimResult:
        ref = self._ref
        if (until_cycle is not None
                or ref.observer is not None
                or ref.trace_hook is not None
                or ref._interrupts
                or hasattr(ref, "_stats")
                or getattr(ref, "_failed", False)
                or self._compiled_entry is None):
            # Per-event guarantees (observation, interrupts, resumability)
            # or an unsupported program shape: reference engine.  A poisoned
            # reference (failed earlier run) also lands here so both engines
            # refuse to resume with the same diagnostic.
            self.ran_fastpath = False
            return ref.run(until_cycle)
        self.ran_fastpath = True
        try:
            return self._run_fast()
        except BaseException:
            # Architectural state is half-updated and no resume state was
            # published; mark the embedded reference so a later run() raises
            # instead of silently restarting from the entry point.
            ref._failed = True
            raise

    def _run_fast(self, trace=None) -> SimResult:
        ref = self._ref
        state = ref.state
        config = self.config
        code, consts = self._compiled_entry
        n = len(ref._decoded)
        itab = state.int_table
        ftab = state.fp_table
        iready = [0] * len(state.int_regs)
        fready = [0] * len(state.fp_regs)
        ient = config.int_spec.core if itab is not None else 0
        fent = config.fp_spec.core if ftab is not None else 0
        imr_r = [0] * ient
        imr_w = [0] * ient
        fmr_r = [0] * fent
        fmr_w = [0] * fent
        counts = [0] * n
        # [zero-issue cycles, mispredicts, mem-channel stalls, redirects]
        st = [0, 0, 0, 0]
        ns = {
            "SE": SimulationError,
            "CBE": CycleBudgetError,
            "MAXC": config.max_cycles,
            "IREADY": iready, "FREADY": fready,
            "IREGS": state.int_regs, "FREGS": state.fp_regs,
            "MEM": state.memory,
            "IRM": itab.read_map if itab is not None else None,
            "IWM": itab.write_map if itab is not None else None,
            "FRM": ftab.read_map if ftab is not None else None,
            "FWM": ftab.write_map if ftab is not None else None,
            "IMR_R": imr_r, "IMR_W": imr_w,
            "FMR_R": fmr_r, "FMR_W": fmr_w,
            "IC": counts, "ST": st,
            "RA": state.ra_stack, "TS": state.trap_stack,
            "PSWO": state.psw,
            "IHOME": None, "FHOME": None,
        }
        ns.update(consts)
        exec(code, ns)
        funcs = ns["_FUNCS"]

        pc = self.program.entry
        cycle = 0
        issued = 0
        mem_used = 0
        store_seen = False
        map_en = state.psw.map_enable
        maxc = config.max_cycles
        if trace is None:
            while True:
                if cycle > maxc:
                    raise CycleBudgetError(
                        f"exceeded {maxc} cycles at pc={pc}")
                if pc >= n:
                    raise SimulationError(f"fell off program end at pc={pc}")
                (pc, cycle, issued, mem_used, store_seen, map_en,
                 halted) = funcs[pc](cycle, issued, mem_used, store_seen,
                                     map_en)
                if halted:
                    break
        else:
            # Gang-leader mode (repro.sim.batched): record one (block leader,
            # iteration count) entry per driver dispatch.  Self-loop blocks
            # iterate internally, so the count is recovered from the leader
            # instruction's issue-count delta across the call.
            tp, tn = trace
            while True:
                if cycle > maxc:
                    raise CycleBudgetError(
                        f"exceeded {maxc} cycles at pc={pc}")
                if pc >= n:
                    raise SimulationError(f"fell off program end at pc={pc}")
                opc = pc
                before = counts[opc]
                (pc, cycle, issued, mem_used, store_seen, map_en,
                 halted) = funcs[opc](cycle, issued, mem_used, store_seen,
                                      map_en)
                tp.append(opc)
                tn.append(counts[opc] - before)
                if halted:
                    break

        dec = ref._decoded
        stats = SimStats()
        by_category = stats.by_category
        by_origin = stats.by_origin
        instructions = 0
        branches = 0
        for k, cnt in enumerate(counts):
            if cnt:
                d = dec[k]
                instructions += cnt
                by_category[d.category] += cnt
                by_origin[d.origin] += cnt
                if d.kind == K_CBR:
                    branches += cnt
        stats.instructions = instructions
        stats.branches = branches
        stats.zero_issue_cycles = st[0]
        stats.mispredicts = st[1]
        stats.mem_channel_stalls = st[2]
        stats.redirect_cycles = st[3]
        stats.cycles = cycle

        # Publish the final microarchitectural state into the embedded
        # reference simulator so a subsequent run() resumes (and returns)
        # exactly as the reference engine would after halting.
        ref._stats = stats
        ref._iready = iready
        ref._fready = fready
        ref._imr_r = imr_r
        ref._imr_w = imr_w
        ref._fmr_r = fmr_r
        ref._fmr_w = fmr_w
        ref._pc = pc
        ref._cycle = cycle
        ref._halted = True
        return SimResult(stats=stats, state=state, halted=True)
