"""Batched lockstep gang simulator: N machine configs in one pass.

A sweep often simulates the *same compiled program* under several machine
configurations.  The fast path (:mod:`repro.sim.fastpath`) specializes per
instruction but still pays decode, codegen, and a full value-computing run
per config.  This module exploits the key structural fact of the machine
model:

**Architectural state is timing-invariant.**  Register values, memory
contents, branch outcomes, and mapping-table contents depend only on
``(program, rc_model, int_spec, fp_spec)`` — the issue width, memory
channels, latencies, extra decode stage, and cycle budget shift *when*
things happen, never *what* happens.  (Values are computed in program
order at issue; map updates are value-independent; ``tests/test_batched.py``
and the ``batched_parity`` fuzz oracle gate this bit-exactly.)

So a gang is one *architectural class*: its configs share
``(rc_model, int_spec, fp_spec)``, and a config list spanning more than one
class raises :class:`~repro.errors.ConfigError`.

* the **leader** (the slot with the largest cycle budget) is an ordinary
  :class:`~repro.sim.fastpath.FastSimulator` for its config, run once while
  recording a ``(block, iterations)`` execution trace;
* every **follower** replays timing only — scoreboard ready times, mapping
  busy times, group packing, stalls, redirects — against the leader's
  branch outcomes, never touching a register value, and copies the leader's
  final architectural state.

Sweeps reach this module through
:meth:`repro.experiments.runner.ExperimentRunner.run_gang`: the sweep
executor gangs a compile group (points sharing one compiled program) when
it has more than one point.  The compile key fixes the RC model and both
register specs, so a sweep's gang is always one class whose slots differ
only in simulate-only fields such as ``extra_decode_stage`` (Figure 12).

Followers accelerate hot self-loop blocks with the bundle-signature idea
generalized to mapped operands: an iteration's timing effect is memoized
keyed on ``(map_en, map contents, clamped busy deltas, clamped ready
deltas)``, and once the signature stream becomes periodic the replay
fast-forwards whole periods in O(1).  Slots that fault or exhaust their
cycle budget retire from the gang without disturbing the others; shapes the
replayer cannot prove (``mtpsw``, branch-to-fall-through, an unsupported
codegen shape, a faulting leader) delegate to per-slot
:class:`~repro.sim.fastpath.FastSimulator` runs so results are always
bit-exact.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

from repro.errors import ConfigError, CycleBudgetError, SimulationError
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
    _SRC_IMM,
    _SRC_INT,
)
from repro.sim.fastpath import (
    FastSimulator,
    program_blocks,
)
from repro.sim.machine import MachineState
from repro.sim.stats import SimStats

__all__ = ["BatchedSimulator", "GangOutcome", "simulate_gang"]

#: Instruction kinds a follower may memoize inside a self-loop block.  Unlike
#: the fast path's bundle cache, mapped operands are allowed: the signature
#: carries the map contents, so the timing replay stays sound under connects
#: and automatic resets.
_GANG_MEMO_KINDS = frozenset({
    K_ALU, K_LI, K_LOAD, K_STORE, K_NOP, K_CBR, K_CONNECT, K_MFPSW, K_MFMAP,
})

#: Bound on the per-iteration signature footprint (map slots + registers).
#: Signature cost is O(slots) per iteration — still far below stepping the
#: block — so this only guards against pathological register fan-out.
_GANG_MAX_SLOTS = 512

#: Bound on the body length of a memoizable self-loop block.
_GANG_MAX_BODY = 256

#: Per-plan memo cap, mirroring the fast path's bundle-cache cap.
_GANG_MEMO_CAP = 512


@dataclass
class GangOutcome:
    """Per-slot result of a gang run.

    Exactly one of ``result`` / ``error`` is set.  ``ran_batched`` reports
    whether the slot was produced by the lockstep replay engine (leader or
    follower) or by a delegated per-slot fast-path run.
    """

    slot: int
    config: object
    result: SimResult | None
    error: BaseException | None
    ran_batched: bool


# -- follower replay plan -------------------------------------------------------

class _Plan:
    """Static memoization plan for one qualifying self-loop block."""

    __slots__ = ("idx", "lead", "body", "map_slots", "op_slots", "statics")

    def __init__(self, idx, lead, body, map_slots, op_slots, statics):
        self.idx = idx
        self.lead = lead
        self.body = body
        #: every map entry the block touches: operand slots + connect targets
        #: (is_int, is_read, index); snapshotted into memo effects.
        self.map_slots = map_slots
        #: operand subset whose contents/busy/ready feed the signature.
        self.op_slots = op_slots
        #: statically known physical registers reachable by the iteration:
        #: unmapped operands, home locations of mapped operands (automatic
        #: resets), and connect target registers.
        self.statics = statics


def _connect_targets(dec):
    """Mapping-table slots whose content can ever leave its home mapping.

    Only CONNECT writes a non-home value into a map entry; automatic resets
    write homes, except WRITE_RESET_READ_UPDATE which copies the write-map
    content into the read map — hence the write→read closure.  Every slot
    outside this set provably holds its home mapping with zero busy time
    forever, so signatures/snapshots can skip it (its register timing is
    covered by the static ready entry for the home register).
    """
    targ: set = set()
    for d in dec:
        if d.kind == K_CONNECT:
            for rclass, which, idx, phys in d.updates:
                targ.add((rclass is RClass.INT, which == "read", idx))
    for is_int, is_read, idx in list(targ):
        if not is_read:
            targ.add((is_int, True, idx))
    return targ


def _block_slots(dec, body, ient, fent, targ):
    """``(op_slots, map_slots, statics)`` for a block, or ``None`` when a
    kind outside the memoizable set appears in the body.

    ``op_slots`` feed the signature (content + busy + ready of the mapped
    physical register) and cover only connect-targetable slots — untargeted
    slots always map home with no busy time, so the statics entry for the
    home register already captures their timing.  ``map_slots`` extends
    op_slots with targetable entries the block *writes* without reading —
    connect targets and the read-map entry of a mapped destination
    (read-updating reset models rewrite it) — so the effect snapshot
    restores every table entry the block can change.  ``statics`` are
    physical registers reachable without a live map entry: operand payloads,
    home locations, connect target registers.
    """
    opset: dict = {}
    cnset: dict = {}
    stat: dict = {}
    for k in body:
        d = dec[k]
        if d.kind not in _GANG_MEMO_KINDS and d.kind != K_JMP:
            return None
        for mode, payload in d.srcs:
            if mode == _SRC_IMM:
                continue
            is_int = mode == _SRC_INT
            if (payload < (ient if is_int else fent)
                    and (is_int, True, payload) in targ):
                opset[(is_int, True, payload)] = True
            stat[(is_int, payload)] = True
        if d.dest is not None:
            is_int, num = d.dest
            if num < (ient if is_int else fent):
                if (is_int, False, num) in targ:
                    opset[(is_int, False, num)] = True
                if (is_int, True, num) in targ:
                    cnset[(is_int, True, num)] = True
            stat[(is_int, num)] = True
        if d.kind == K_CONNECT:
            for rclass, which, idx, phys in d.updates:
                is_int = rclass is RClass.INT
                cnset[(is_int, which == "read", idx)] = True
                stat[(is_int, phys)] = True
    op_slots = tuple(opset)
    map_slots = op_slots + tuple(k for k in cnset if k not in opset)
    statics = tuple(stat)
    if len(map_slots) + len(statics) > _GANG_MAX_SLOTS:
        return None
    return op_slots, map_slots, statics


def _build_plans(dec, blocks, ient, fent, targ):
    """Memoization plans for every qualifying self-loop block."""
    plans = [None] * len(dec)
    plan_list = []
    for lead, body in blocks:
        term = dec[body[-1]]
        if term.kind != K_CBR or not term.pred_taken or term.target != lead:
            continue
        if not 2 <= len(body) <= _GANG_MAX_BODY:
            continue
        slots = _block_slots(dec, body, ient, fent, targ)
        if slots is None:
            continue
        op_slots, map_slots, statics = slots
        plan = _Plan(len(plan_list), lead, tuple(body), map_slots, op_slots,
                     statics)
        plans[lead] = plan
        plan_list.append(plan)
    return plans, plan_list


class _BInfo:
    """Static dispatch-memo info for one non-self-loop block.

    One *dispatch* is a single pass over the block — entry fetch through the
    control transfer (or fall-through) into the next block, spanning any
    stall groups in between.  Its timing depends only on the follower's
    scoreboard / mapping-table signature at entry, the issue-group state
    carried in, and (for conditional terminators) the branch outcome from
    the leader trace, so each dispatch is memoizable as one effect keyed on
    ``(group state, outcome, slot signature)``.
    """

    __slots__ = ("idx", "lead", "map_slots", "op_slots", "statics",
                 "term_kind", "term_target", "fall")

    def __init__(self, idx, lead, map_slots, op_slots, statics,
                 term_kind, term_target, fall):
        self.idx = idx
        self.lead = lead
        self.map_slots = map_slots
        self.op_slots = op_slots
        self.statics = statics
        self.term_kind = term_kind
        self.term_target = term_target
        self.fall = fall


def _build_binfo(dec, blocks, ient, fent, targ, plans):
    """Dispatch-memo info for every qualifying non-self-loop block.

    Self-loop blocks are excluded: the iteration-level plans plus period
    fast-forward cover them far better, and their many-iterations-per-trace-
    entry bookkeeping does not fit the one-dispatch-per-trace-entry model.
    """
    binfo = [None] * len(dec)
    binfo_list = []
    for lead, body in blocks:
        if plans[lead] is not None or len(body) > _GANG_MAX_BODY:
            continue
        term = dec[body[-1]]
        tk = term.kind
        if (tk == K_CBR or tk == K_JMP) and term.target == lead:
            continue
        slots = _block_slots(dec, body, ient, fent, targ)
        if slots is None:
            continue
        op_slots, map_slots, statics = slots
        bi = _BInfo(len(binfo_list), lead, map_slots, op_slots, statics,
                    tk, term.target if (tk == K_CBR or tk == K_JMP) else None,
                    body[-1] + 1)
        binfo[lead] = bi
        binfo_list.append(bi)
    return binfo, binfo_list


class _Seg:
    """A periodic trace segment: ``width`` consecutive trace entries exactly
    repeated ``reps`` times starting at a fixed trace position.

    The leader trace pins control flow, so within the repetition the only
    evolving follower state is the union timing footprint of the member
    blocks — the same signature/period argument the self-loop plans use, one
    level up.  A follower crossing a macro-iteration boundary with a
    signature it has seen before fast-forwards whole periods of the segment
    in O(slots).
    """

    __slots__ = ("start", "width", "reps", "end", "map_slots", "op_slots",
                 "statics", "idx")

    def __init__(self, idx, start, width, reps, map_slots, op_slots,
                 statics):
        self.idx = idx
        self.start = start
        self.width = width
        self.reps = reps
        self.end = start + width * reps
        self.map_slots = map_slots
        self.op_slots = op_slots
        self.statics = statics


_SEG_MAX_WIDTH = 12
_SEG_MIN_REPS = 4


def _find_segments(tp, tn, binfo, plans):
    """Greedy left-to-right scan for exactly-repeating trace windows whose
    member blocks all have a static timing footprint (dispatch-memoizable or
    self-loop plan).  Returns ``({start_t: _Seg}, [segments])``.
    """
    n = len(tp)
    segs: dict = {}
    seg_list: list = []
    i = 0
    while i < n:
        found = None
        for w in range(1, _SEG_MAX_WIDTH + 1):
            if i + 2 * w > n:
                break
            # Scalar pre-check: almost every (position, width) pair in an
            # irregular trace fails on its first element, so reject with
            # two indexed loads before paying for four slice allocations.
            if tp[i] != tp[i + w] or tn[i] != tn[i + w]:
                continue
            if tp[i:i + w] == tp[i + w:i + 2 * w] and \
                    tn[i:i + w] == tn[i + w:i + 2 * w]:
                win_p = tp[i:i + w]
                win_n = tn[i:i + w]
                r = 2
                j = i + 2 * w
                while (j + w <= n and tp[j:j + w] == win_p
                       and tn[j:j + w] == win_n):
                    r += 1
                    j += w
                found = (w, r)
                break
        if found is not None and found[1] >= _SEG_MIN_REPS:
            w, r = found
            members = [binfo[p] or plans[p]
                       for p in dict.fromkeys(tp[i:i + w])]
            if all(b is not None for b in members):
                opset = dict.fromkeys(
                    s for b in members for s in b.op_slots)
                cnset = dict.fromkeys(
                    s for b in members for s in b.map_slots
                    if s not in opset)
                stat = dict.fromkeys(
                    s for b in members for s in b.statics)
                if len(opset) + len(cnset) + len(stat) <= _GANG_MAX_SLOTS:
                    op_slots = tuple(opset)
                    seg = _Seg(len(seg_list), i, w, r,
                               op_slots + tuple(cnset), op_slots,
                               tuple(stat))
                    segs[i] = seg
                    seg_list.append(seg)
                    i += w * r
                    continue
        i += 1
    return segs, seg_list


class _ReplayContext:
    """The gang's immutable inputs, shared by every follower replay."""

    __slots__ = ("program", "dec", "n", "tp", "tn", "lflags", "plans",
                 "plan_list", "binfo", "binfo_list", "segs", "seg_list",
                 "trapdst", "ient", "fent")

    def __init__(self, program, dec, trace, ient, fent):
        self.program = program
        self.dec = dec
        self.n = len(dec)
        self.tp, self.tn = trace
        blocks = program_blocks(program, dec)
        self.lflags = bytearray(self.n)
        for lead, _body in blocks:
            self.lflags[lead] = 1
        targ = _connect_targets(dec)
        self.plans, self.plan_list = _build_plans(dec, blocks, ient, fent,
                                                  targ)
        self.binfo, self.binfo_list = _build_binfo(dec, blocks, ient, fent,
                                                   targ, self.plans)
        self.trapdst = [program.trap_handlers.get(d.imm)
                        if d.kind == K_TRAP else None for d in dec]
        self.segs, self.seg_list = _find_segments(self.tp, self.tn,
                                                  self.binfo, self.plans)
        self.ient = ient
        self.fent = fent


def _replay_supported(dec) -> bool:
    """Static scan for shapes the trace-driven replay cannot disambiguate.

    ``mtpsw`` derives control state from a register *value* (followers never
    have values), and a conditional branch targeting its own fall-through
    reaches the same next block either way, hiding the taken/not-taken
    distinction (which still matters for mispredict/redirect accounting).
    """
    for k, d in enumerate(dec):
        if d.kind == K_MTPSW:
            return False
        if d.kind == K_CBR and d.target == k + 1:
            return False
    return True


def _replay(ctx: _ReplayContext, cfg):
    """Timing-only replay of the leader trace under follower config *cfg*.

    Mirrors the reference engine's group loop (:meth:`Simulator.run`) branch
    for branch — budget check, operand interlocks, structural hazards,
    redirects, zero-issue accounting — with branch outcomes forced from the
    leader trace instead of computed values.  Returns
    ``(cycles, zero_issue, mispredicts, mem_stalls, redirects)``.
    """
    dec = ctx.dec
    n = ctx.n
    tp = ctx.tp
    tn = ctx.tn
    ntr = len(tp)
    lflags = ctx.lflags
    plans = ctx.plans
    trapdst = ctx.trapdst
    ient = ctx.ient
    fent = ctx.fent

    W = cfg.issue_width
    CH = cfg.mem_channels
    RD = cfg.redirect_penalty
    maxc = cfg.max_cycles
    CL = cfg.latency.connect
    model = cfg.rc_model
    read_reset = model.resets_read_map_on_read
    # after_write behavior, flattened to an int switch.
    if model is RCModel.NO_RESET:
        wmode = 0
    elif model in (RCModel.WRITE_RESET, RCModel.READ_RESET):
        wmode = 1
    elif model is RCModel.WRITE_RESET_READ_UPDATE:
        wmode = 2
    else:  # READ_WRITE_RESET
        wmode = 3
    lat = [cfg.latency.of(d.op) for d in dec]
    lmax = max(max(lat, default=0), CL, 1)
    # Signature packing: clamped deltas live in [0, lmax] and map contents
    # are physical indices, so each operand slot packs injectively into a
    # single int when lmax fits 6 bits — one tuple element per slot instead
    # of three makes the memo keys much cheaper to build, hash and compare.
    pk = lmax < 64

    # -- per-slot state (struct-of-arrays across the gang) ---------------------
    iready = [0] * cfg.int_spec.total
    fready = [0] * cfg.fp_spec.total
    imr_r = [0] * ient
    imr_w = [0] * ient
    fmr_r = [0] * fent
    fmr_w = [0] * fent
    irm = list(range(ient))
    iwm = list(range(ient))
    frm = list(range(fent))
    fwm = list(range(fent))
    home_i = range(ient)
    home_f = range(fent)
    ra: list[int] = []
    ts: list[tuple[int, int]] = []
    map_en = True
    rc_mode = cfg.has_rc

    # -- per-plan / per-block, per-follower resolution --------------------------
    def _resolve_refs(op_slots, extra_slots, statics):
        op_refs = []
        for is_int, is_read, idx in op_slots:
            if is_int:
                content = irm if is_read else iwm
                busy = imr_r if is_read else imr_w
                ready = iready
            else:
                content = frm if is_read else fwm
                busy = fmr_r if is_read else fmr_w
                ready = fready
            op_refs.append((content, busy, ready, idx))
        cn_refs = []
        for is_int, is_read, idx in extra_slots:
            if is_int:
                content = irm if is_read else iwm
                busy = imr_r if is_read else imr_w
            else:
                content = frm if is_read else fwm
                busy = fmr_r if is_read else fmr_w
            cn_refs.append((content, busy, idx))
        stat_refs = [(iready if is_int else fready, ph)
                     for is_int, ph in statics]
        return op_refs, cn_refs, stat_refs

    gates = []
    memos: list[dict] = []
    prefs = []
    for p in ctx.plan_list:
        gates.append(maxc - (len(p.body) * (lmax + 3) + RD + 4))
        memos.append({})
        prefs.append(_resolve_refs(p.op_slots, p.map_slots[len(p.op_slots):],
                                   p.statics))

    binfo = ctx.binfo
    bmemos: list[dict] = []
    bprefs = []
    for b in ctx.binfo_list:
        bmemos.append({})
        bprefs.append(_resolve_refs(b.op_slots, b.map_slots[len(b.op_slots):],
                                    b.statics))

    segs = ctx.segs
    sprefs = []
    for sg in ctx.seg_list:
        sprefs.append(_resolve_refs(sg.op_slots,
                                    sg.map_slots[len(sg.op_slots):],
                                    sg.statics))
    sact = None
    sseen: dict = {}

    def _pack_writes():
        wr = tuple((iready if ii else fready, j, rel)
                   for ii, j, rel in rec_w)
        bw = []
        for ii, ir, j, rel in rec_b:
            if ii:
                bw.append((imr_r if ir else imr_w, j, rel))
            else:
                bw.append((fmr_r if ir else fmr_w, j, rel))
        return wr, tuple(bw)

    def _snap(op_refs, cn_refs):
        return tuple(
            (content, idx, content[idx])
            for content, _b, _r, idx in op_refs
        ) + tuple(
            (content, idx, content[idx])
            for content, _b, idx in cn_refs
        )

    # -- trace cursor -----------------------------------------------------------
    t = 0
    cur_lead = tp[0]
    reps = tn[0]

    pc = ctx.program.entry
    cycle = 0
    st0 = 0  # zero-issue cycles
    st1 = 0  # mispredicts
    st2 = 0  # mem-channel stalls
    st3 = 0  # redirect cycles
    halted = False

    # -- recording state (a plan-block iteration or a block dispatch) -----------
    rec_plan = None
    rec_bi = None
    rec_on = False
    rec_key: tuple = ()
    rec_c0 = rec_z0 = rec_m0 = rec_p0 = rec_r0 = 0
    rec_w: list = []
    rec_b: list = []

    while not halted:
        if cycle > maxc:
            raise CycleBudgetError(f"exceeded {maxc} cycles at pc={pc}")

        # -- memoized self-loop fast path -------------------------------------
        plan = plans[pc]
        if (plan is not None and not rec_on and pc == cur_lead
                and reps > 1):
            pi = plan.idx
            gate = gates[pi]
            memo = memos[pi]
            op_refs, cn_refs, stat_refs = prefs[pi]
            seen: dict | None = {}
            while reps > 1 and cycle < gate:
                parts = [map_en]
                ap = parts.append
                if pk:
                    for content, busy, ready, idx in op_refs:
                        c = content[idx]
                        v = busy[idx] - cycle
                        b = v if v > 0 else 0
                        v = ready[c if map_en else idx] - cycle
                        ap(c << 12 | b << 6 | (v if v > 0 else 0))
                else:
                    for content, busy, ready, idx in op_refs:
                        c = content[idx]
                        ap(c)
                        v = busy[idx] - cycle
                        ap(v if v > 0 else 0)
                        v = ready[c if map_en else idx] - cycle
                        ap(v if v > 0 else 0)
                for ready, ph in stat_refs:
                    v = ready[ph] - cycle
                    ap(v if v > 0 else 0)
                sig = tuple(parts)
                e = memo.get(sig)
                if e is None:
                    if len(memo) < _GANG_MEMO_CAP:
                        rec_plan = plan
                        rec_on = True
                        rec_key = sig
                        rec_c0 = cycle
                        rec_z0 = st0
                        rec_m0 = st2
                        rec_w = []
                        rec_b = []
                    break
                if seen is not None:
                    prev = seen.get(sig)
                    if prev is None:
                        seen[sig] = (reps, cycle, st0, st2)
                    else:
                        p_reps = prev[0] - reps
                        p_dc = cycle - prev[1]
                        if p_reps > 0 and p_dc > 0:
                            q = (reps - 1) // p_reps
                            cap = (gate - 1 - cycle) // p_dc
                            if cap < q:
                                q = cap
                            if q > 0:
                                p_dz = st0 - prev[2]
                                p_dm = st2 - prev[3]
                                # Periodic slots keep their clamped offsets;
                                # decayed (<=0) slots stay behaviorally
                                # equivalent pinned at the new cycle.
                                resync = []
                                for content, busy, ready, idx in op_refs:
                                    v = busy[idx] - cycle
                                    resync.append(
                                        (busy, idx, v if v > 0 else 0))
                                    j = content[idx] if map_en else idx
                                    v = ready[j] - cycle
                                    resync.append(
                                        (ready, j, v if v > 0 else 0))
                                for content, busy, idx in cn_refs:
                                    v = busy[idx] - cycle
                                    resync.append(
                                        (busy, idx, v if v > 0 else 0))
                                for ready, ph in stat_refs:
                                    v = ready[ph] - cycle
                                    resync.append(
                                        (ready, ph, v if v > 0 else 0))
                                cycle += q * p_dc
                                st0 += q * p_dz
                                st2 += q * p_dm
                                reps -= q * p_reps
                                for arr, j, d in resync:
                                    arr[j] = cycle + d
                        seen = None
                        continue
                # apply the recorded iteration effect
                for arr, j, rel in e[3]:
                    arr[j] = cycle + rel
                for arr, j, rel in e[4]:
                    arr[j] = cycle + rel
                for arr, j, ph in e[5]:
                    arr[j] = ph
                st0 += e[1]
                st2 += e[2]
                cycle += e[0]
                reps -= 1

        issued = 0
        mem_used = 0
        store_seen = False
        next_cycle = cycle + 1

        while issued < W:
            if pc >= n:
                raise SimulationError(f"fell off program end at pc={pc}")
            if lflags[pc] and (pc != cur_lead or reps <= 0):
                t += 1
                if t >= ntr or tp[t] != pc:
                    raise SimulationError(
                        f"gang replay diverged from leader trace at pc={pc}")
                cur_lead = pc
                reps = tn[t]
                if rec_bi is not None:
                    # Finalize the dispatch recorded since the previous block
                    # entry: the current fetch point is its exit state.
                    wr, bw = _pack_writes()
                    op_refs, cn_refs, _stat = bprefs[rec_bi.idx]
                    bmemos[rec_bi.idx][rec_key] = (
                        cycle - rec_c0, st0 - rec_z0, st1 - rec_p0,
                        st2 - rec_m0, st3 - rec_r0, wr, bw,
                        _snap(op_refs, cn_refs),
                        pc, issued, mem_used, store_seen)
                    rec_bi = None
                    rec_on = False
                # -- periodic trace-segment fast-forward ----------------------
                if sact is not None and t >= sact.end:
                    sact = None
                if sact is None:
                    sact = segs.get(t)
                    if sact is not None:
                        sseen = {}
                if sact is not None and (t - sact.start) % sact.width == 0:
                    op_refs, cn_refs, stat_refs = sprefs[sact.idx]
                    parts = [issued, mem_used, store_seen, map_en]
                    ap = parts.append
                    if pk:
                        for content, busy, ready, idx in op_refs:
                            c = content[idx]
                            v = busy[idx] - cycle
                            b = v if v > 0 else 0
                            v = ready[c if map_en else idx] - cycle
                            ap(c << 12 | b << 6 | (v if v > 0 else 0))
                    else:
                        for content, busy, ready, idx in op_refs:
                            c = content[idx]
                            ap(c)
                            v = busy[idx] - cycle
                            ap(v if v > 0 else 0)
                            v = ready[c if map_en else idx] - cycle
                            ap(v if v > 0 else 0)
                    for ready, ph in stat_refs:
                        v = ready[ph] - cycle
                        ap(v if v > 0 else 0)
                    ssig = tuple(parts)
                    prev = sseen.get(ssig)
                    if prev is None:
                        sseen[ssig] = (t, cycle, st0, st1, st2, st3)
                    else:
                        p_t = t - prev[0]
                        p_dc = cycle - prev[1]
                        if p_t > 0 and p_dc > 0:
                            done = (t - sact.start) // sact.width
                            q = ((sact.reps - done - 1)
                                 // (p_t // sact.width))
                            cap = (maxc - cycle) // p_dc
                            if cap < q:
                                q = cap
                            if q > 0:
                                p_d0 = st0 - prev[2]
                                p_d1 = st1 - prev[3]
                                p_d2 = st2 - prev[4]
                                p_d3 = st3 - prev[5]
                                resync = []
                                for content, busy, ready, idx in op_refs:
                                    v = busy[idx] - cycle
                                    resync.append(
                                        (busy, idx, v if v > 0 else 0))
                                    j = content[idx] if map_en else idx
                                    v = ready[j] - cycle
                                    resync.append(
                                        (ready, j, v if v > 0 else 0))
                                for content, busy, idx in cn_refs:
                                    v = busy[idx] - cycle
                                    resync.append(
                                        (busy, idx, v if v > 0 else 0))
                                for ready, ph in stat_refs:
                                    v = ready[ph] - cycle
                                    resync.append(
                                        (ready, ph, v if v > 0 else 0))
                                t += q * p_t
                                cycle += q * p_dc
                                st0 += q * p_d0
                                st1 += q * p_d1
                                st2 += q * p_d2
                                st3 += q * p_d3
                                next_cycle = cycle + 1
                                for arr, j, dlt in resync:
                                    arr[j] = cycle + dlt
                bi = binfo[pc]
                if bi is not None and not rec_on:
                    bmemo = bmemos[bi.idx]
                    op_refs, cn_refs, stat_refs = bprefs[bi.idx]
                    if bi.term_kind == K_CBR:
                        tgt = bi.term_target
                        outcome = t + 1 < ntr and tp[t + 1] == tgt
                    else:
                        outcome = False
                    parts = [issued, mem_used, store_seen, map_en, outcome]
                    ap = parts.append
                    if pk:
                        for content, busy, ready, idx in op_refs:
                            c = content[idx]
                            v = busy[idx] - cycle
                            b = v if v > 0 else 0
                            v = ready[c if map_en else idx] - cycle
                            ap(c << 12 | b << 6 | (v if v > 0 else 0))
                    else:
                        for content, busy, ready, idx in op_refs:
                            c = content[idx]
                            ap(c)
                            v = busy[idx] - cycle
                            ap(v if v > 0 else 0)
                            v = ready[c if map_en else idx] - cycle
                            ap(v if v > 0 else 0)
                    for ready, ph in stat_refs:
                        v = ready[ph] - cycle
                        ap(v if v > 0 else 0)
                    key = tuple(parts)
                    e = bmemo.get(key)
                    if e is not None:
                        # Exit cycle bounds every group-start cycle inside
                        # the dispatch, so one budget check covers them all.
                        if cycle + e[0] <= maxc:
                            for arr, j, rel in e[5]:
                                arr[j] = cycle + rel
                            for arr, j, rel in e[6]:
                                arr[j] = cycle + rel
                            for arr, j, ph in e[7]:
                                arr[j] = ph
                            cycle += e[0]
                            st0 += e[1]
                            st1 += e[2]
                            st2 += e[3]
                            st3 += e[4]
                            next_cycle = cycle + 1
                            pc = e[8]
                            issued = e[9]
                            mem_used = e[10]
                            store_seen = e[11]
                            continue
                    elif len(bmemo) < _GANG_MEMO_CAP:
                        rec_bi = bi
                        rec_on = True
                        rec_key = key
                        rec_c0 = cycle
                        rec_z0 = st0
                        rec_p0 = st1
                        rec_m0 = st2
                        rec_r0 = st3
                        rec_w = []
                        rec_b = []
            d = dec[pc]
            kind = d.kind

            # ---- operand resolution through the mapping table ----
            block = 0
            for mode, payload in d.srcs:
                if mode == _SRC_INT:
                    if map_en and payload < ient:
                        r = imr_r[payload]
                        if r > cycle and r > block:
                            block = r
                        phys = irm[payload]
                    else:
                        phys = payload
                    r = iready[phys]
                    if r > cycle and r > block:
                        block = r
                elif mode != _SRC_IMM:
                    if map_en and payload < fent:
                        r = fmr_r[payload]
                        if r > cycle and r > block:
                            block = r
                        phys = frm[payload]
                    else:
                        phys = payload
                    r = fready[phys]
                    if r > cycle and r > block:
                        block = r

            dest = d.dest
            if dest is not None:
                dest_is_int, num = dest
                if dest_is_int:
                    if map_en and num < ient:
                        r = imr_w[num]
                        if r > cycle and r > block:
                            block = r
                        physd = iwm[num]
                    else:
                        physd = num
                    r = iready[physd]
                else:
                    if map_en and num < fent:
                        r = fmr_w[num]
                        if r > cycle and r > block:
                            block = r
                        physd = fwm[num]
                    else:
                        physd = num
                    r = fready[physd]
                if r > cycle and r > block:
                    block = r

            if block > cycle:
                if issued == 0:
                    next_cycle = block
                break

            # ---- structural hazards ----
            if kind == K_LOAD or kind == K_STORE:
                if mem_used >= CH:
                    st2 += 1
                    break
                if kind == K_LOAD and store_seen:
                    break
                mem_used += 1

            # ---- issue ----
            issued += 1
            if pc == cur_lead:
                reps -= 1
            if read_reset and map_en:
                for mode, payload in d.srcs:
                    if mode == _SRC_INT and payload < ient:
                        irm[payload] = payload
                    elif mode != _SRC_IMM and payload < fent:
                        frm[payload] = payload
            advance = True

            if kind == K_CBR:
                tgt = d.target
                if tgt == cur_lead:
                    taken = reps > 0
                    if rec_plan is not None:
                        if taken:
                            wr, bw = _pack_writes()
                            pi = rec_plan.idx
                            op_refs, cn_refs, _stat = prefs[pi]
                            memos[pi][rec_key] = (
                                cycle + 1 - rec_c0, st0 - rec_z0,
                                st2 - rec_m0, wr, bw,
                                _snap(op_refs, cn_refs))
                        rec_plan = None
                        rec_on = False
                else:
                    taken = t + 1 < ntr and tp[t + 1] == tgt
                mispredict = taken != d.pred_taken
                if mispredict:
                    st1 += 1
                pc = tgt if taken else pc + 1
                advance = False
                if mispredict:
                    st3 += RD
                    next_cycle = cycle + 1 + RD
                    break
                if taken:
                    break
                continue
            elif kind == K_JMP:
                pc = d.target
                advance = False
                break
            elif kind == K_CALL:
                ra.append(pc + 1)
                if ient:
                    irm[:] = home_i
                    iwm[:] = home_i
                if fent:
                    frm[:] = home_f
                    fwm[:] = home_f
                pc = d.target
                advance = False
                break
            elif kind == K_RET:
                if not ra:
                    raise SimulationError("ret with empty RA stack")
                if ient:
                    irm[:] = home_i
                    iwm[:] = home_i
                if fent:
                    frm[:] = home_f
                    fwm[:] = home_f
                pc = ra.pop()
                advance = False
                break
            elif kind == K_HALT:
                halted = True
                advance = False
                break
            elif kind == K_CONNECT:
                ready_at = cycle + CL
                rel = ready_at - rec_c0 if rec_on else 0
                for rclass, which, idx, phys in d.updates:
                    is_read = which == "read"
                    if rclass is RClass.INT:
                        (irm if is_read else iwm)[idx] = phys
                        (imr_r if is_read else imr_w)[idx] = ready_at
                        if rec_on:
                            rec_b.append((True, is_read, idx, rel))
                    else:
                        (frm if is_read else fwm)[idx] = phys
                        (fmr_r if is_read else fmr_w)[idx] = ready_at
                        if rec_on:
                            rec_b.append((False, is_read, idx, rel))
                pc += 1
                continue
            elif kind == K_TRAP:
                handler = trapdst[pc]
                if handler is None:
                    raise SimulationError(f"no handler for trap {d.imm}")
                packed = (1 if map_en else 0) | (2 if rc_mode else 0)
                ts.append((packed, pc + 1))
                map_en = False
                pc = handler
                advance = False
                st3 += RD
                next_cycle = cycle + 1 + RD
                break
            elif kind == K_RTE:
                if not ts:
                    raise SimulationError("rte with empty trap stack")
                packed, ret_pc = ts.pop()
                map_en = (packed & 1) != 0
                rc_mode = (packed & 2) != 0
                pc = ret_pc
                advance = False
                st3 += RD
                next_cycle = cycle + 1 + RD
                break
            elif kind == K_STORE:
                store_seen = True
            # K_ALU / K_LI / K_LOAD / K_MFPSW / K_MFMAP / K_NOP: value
            # production is the leader's job; only the writeback timing
            # below matters here.

            if dest is not None and kind != K_STORE and kind != K_NOP:
                wb = cycle + lat[pc]
                if dest_is_int:
                    iready[physd] = wb
                    if map_en and num < ient:
                        if wmode == 1:
                            iwm[num] = num
                        elif wmode == 2:
                            irm[num] = iwm[num]
                            iwm[num] = num
                        elif wmode == 3:
                            irm[num] = num
                            iwm[num] = num
                else:
                    fready[physd] = wb
                    if map_en and num < fent:
                        if wmode == 1:
                            fwm[num] = num
                        elif wmode == 2:
                            frm[num] = fwm[num]
                            fwm[num] = num
                        elif wmode == 3:
                            frm[num] = num
                            fwm[num] = num
                if rec_on:
                    rec_w.append((dest_is_int, physd, wb - rec_c0))
            if advance:
                pc += 1

        if issued == 0:
            st0 += next_cycle - cycle
        cycle = next_cycle

    return cycle, st0, st1, st2, st3


# -- leader-state cloning -------------------------------------------------------

def _clone_state(src: MachineState, cfg) -> MachineState:
    """Follower architectural state: a deep copy of the leader's final state
    (same class, so every shape matches) bound to the follower's config."""
    dst = MachineState(cfg, None)
    dst.int_regs[:] = src.int_regs
    dst.fp_regs[:] = src.fp_regs
    dst.memory = dict(src.memory)
    dst.psw.map_enable = src.psw.map_enable
    dst.psw.rc_mode = src.psw.rc_mode
    if dst.int_table is not None:
        dst.int_table.read_map[:] = src.int_table.read_map
        dst.int_table.write_map[:] = src.int_table.write_map
    if dst.fp_table is not None:
        dst.fp_table.read_map[:] = src.fp_table.read_map
        dst.fp_table.write_map[:] = src.fp_table.write_map
    dst.ra_stack = list(src.ra_stack)
    dst.trap_stack = list(src.trap_stack)
    return dst


def _follower_stats(leader_stats: SimStats, cycles, st0, st1, st2,
                    st3) -> SimStats:
    stats = SimStats()
    stats.cycles = cycles
    stats.instructions = leader_stats.instructions
    stats.by_category = Counter(leader_stats.by_category)
    stats.by_origin = Counter(leader_stats.by_origin)
    stats.branches = leader_stats.branches
    stats.mispredicts = st1
    stats.zero_issue_cycles = st0
    stats.redirect_cycles = st3
    stats.mem_channel_stalls = st2
    return stats


# -- the gang ------------------------------------------------------------------

class BatchedSimulator:
    """Simulate one program under N configs of one architectural class.

    Every config must share ``(rc_model, int_spec, fp_spec)``; a list
    spanning more than one class raises :class:`ConfigError`.  ``run()``
    returns a list of :class:`GangOutcome`, one per config slot in input
    order.  Slots that fault or exhaust their budget carry the exception in
    ``outcome.error``; the rest of the gang is undisturbed.  The gang runs
    once: a repeated ``run()`` returns the same outcomes.
    """

    def __init__(self, program, configs) -> None:
        if not configs:
            raise ConfigError("batched gang needs at least one config")
        classes = {(c.rc_model, c.int_spec, c.fp_spec) for c in configs}
        if len(classes) > 1:
            raise ConfigError(
                f"batched gang configs span {len(classes)} architectural "
                f"classes; a gang shares (rc_model, int_spec, fp_spec)")
        self.program = program
        self.configs = list(configs)
        self._outcomes: list[GangOutcome] | None = None

    # -- public API -------------------------------------------------------------

    def run(self) -> list[GangOutcome]:
        if self._outcomes is None:
            self._outcomes = self._run_gang()
        return list(self._outcomes)

    # -- gang execution ---------------------------------------------------------

    def _run_gang(self) -> list[GangOutcome]:
        configs = self.configs
        slots = range(len(configs))
        lead_slot = max(slots, key=lambda s: configs[s].max_cycles)
        lcfg = configs[lead_slot]
        try:
            leader = FastSimulator(self.program, lcfg)
        except Exception as exc:
            # Decode/validation failure is a class property (it depends only
            # on the program and the register specs): every slot raises it.
            return [GangOutcome(s, cfg, None, exc, True)
                    for s, cfg in enumerate(configs)]
        dec = leader._ref._decoded
        if leader._compiled_entry is None or not _replay_supported(dec):
            return [self._delegate(s) for s in slots]
        trace = (array("q"), array("q"))
        try:
            lres = leader._run_fast(trace=trace)
            leader.ran_fastpath = True
        except Exception as exc:
            return [GangOutcome(s, lcfg, None, exc, True) if s == lead_slot
                    else self._delegate(s) for s in slots]
        outcomes = [GangOutcome(lead_slot, lcfg, lres, None, True)
                    if s == lead_slot else None for s in slots]
        if len(configs) == 1:
            return outcomes
        ient = lcfg.int_spec.core if lcfg.int_spec.has_rc else 0
        fent = lcfg.fp_spec.core if lcfg.fp_spec.has_rc else 0
        ctx = _ReplayContext(self.program, dec, trace, ient, fent)
        for s in slots:
            if s == lead_slot:
                continue
            cfg = configs[s]
            try:
                cycles, st0, st1, st2, st3 = _replay(ctx, cfg)
            except Exception as exc:
                outcomes[s] = GangOutcome(s, cfg, None, exc, True)
                continue
            stats = _follower_stats(lres.stats, cycles, st0, st1, st2, st3)
            state = _clone_state(lres.state, cfg)
            outcomes[s] = GangOutcome(
                s, cfg, SimResult(stats=stats, state=state, halted=True),
                None, True)
        return outcomes

    def _delegate(self, s: int) -> GangOutcome:
        cfg = self.configs[s]
        try:
            res = FastSimulator(self.program, cfg).run()
            return GangOutcome(s, cfg, res, None, False)
        except Exception as exc:
            return GangOutcome(s, cfg, None, exc, False)


def simulate_gang(program, configs) -> list[GangOutcome]:
    """Convenience wrapper: one gang run over *configs*."""
    return BatchedSimulator(program, configs).run()
