"""Set-based reference for virtual-register liveness and interference.

The compiler computes liveness as int bitmasks (:mod:`repro.ir.bitset`)
and builds the interference graph from them.  This oracle states the same
dataflow over plain ``set[VReg]`` values and adds interference edges
pairwise, so property tests can check the bitmask versions against the
textbook formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.regalloc.interference import InterferenceGraph
from repro.ir.bitset import BitLivenessInfo
from repro.ir.cfg import reverse_postorder
from repro.ir.function import BasicBlock, Function
from repro.isa.opcodes import Opcode
from repro.isa.registers import VReg


def _block_use_def(block: BasicBlock) -> tuple[set[VReg], set[VReg]]:
    """Upward-exposed uses and defs of *block* (virtual registers only)."""
    use: set[VReg] = set()
    defs: set[VReg] = set()
    for instr in block.instrs:
        for s in instr.reg_srcs():
            if isinstance(s, VReg) and s not in defs:
                use.add(s)
        d = instr.dest
        if isinstance(d, VReg):
            defs.add(d)
    return use, defs


@dataclass
class LivenessInfo:
    """Per-block live-in/live-out sets for one function."""

    live_in: dict[str, set[VReg]]
    live_out: dict[str, set[VReg]]

    def live_across_instr(self, block: BasicBlock) -> list[set[VReg]]:
        """Live-after set for each instruction position in *block*.

        Returns a list ``after`` where ``after[i]`` is the set of virtual
        registers live immediately after ``block.instrs[i]``.
        """
        live = set(self.live_out[block.name])
        after: list[set[VReg]] = [set() for _ in block.instrs]
        for i in range(len(block.instrs) - 1, -1, -1):
            after[i] = set(live)
            instr = block.instrs[i]
            d = instr.dest
            if isinstance(d, VReg):
                live.discard(d)
            for s in instr.reg_srcs():
                if isinstance(s, VReg):
                    live.add(s)
        return after


def liveness(fn: Function) -> LivenessInfo:
    """Compute per-block liveness for *fn* over its reachable blocks."""
    rpo = reverse_postorder(fn)
    use: dict[str, set[VReg]] = {}
    defs: dict[str, set[VReg]] = {}
    for name in rpo:
        use[name], defs[name] = _block_use_def(fn.block(name))
    live_in: dict[str, set[VReg]] = {name: set() for name in rpo}
    live_out: dict[str, set[VReg]] = {name: set() for name in rpo}

    # Iterate to a fixed point, visiting blocks in postorder (reverse RPO)
    # so information flows backward quickly.
    worklist = list(reversed(rpo))
    changed = True
    while changed:
        changed = False
        for name in worklist:
            out: set[VReg] = set()
            for succ in fn.block(name).successors():
                out |= live_in.get(succ, set())
            newly_in = use[name] | (out - defs[name])
            if out != live_out[name] or newly_in != live_in[name]:
                live_out[name] = out
                live_in[name] = newly_in
                changed = True
    return LivenessInfo(live_in, live_out)


def to_sets(info: BitLivenessInfo) -> LivenessInfo:
    """The set-based :class:`LivenessInfo` equivalent to bitmask *info*."""
    conv = info.index.set_of
    return LivenessInfo(
        {name: conv(m) for name, m in info.live_in.items()},
        {name: conv(m) for name, m in info.live_out.items()},
    )


def max_live_pressure(fn: Function) -> dict[str, int]:
    """Maximum number of simultaneously live vregs per register class name.

    Shows that ILP optimization raises register pressure (the paper's
    motivation).
    """
    info = liveness(fn)
    peak = {"int": 0, "fp": 0}
    for block in fn.blocks:
        for after in info.live_across_instr(block):
            by_cls = {"int": 0, "fp": 0}
            for v in after:
                by_cls[v.cls.value] += 1
            for k in peak:
                peak[k] = max(peak[k], by_cls[k])
    return peak


def build_interference(fn: Function) -> InterferenceGraph:
    """The interference graph of *fn*, edge by edge from set liveness.

    A definition interferes with everything live after it, except that a
    copy's destination does not interfere with its source.  Parameters are
    defined on function entry.
    """
    info = liveness(fn)
    graph = InterferenceGraph()
    adj = graph.adj
    for v in fn.vregs():
        adj.setdefault(v, set())

    def add_edge(a: VReg, b: VReg) -> None:
        if a != b and a.cls is b.cls:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

    entry_live = info.live_in[fn.entry.name] | set(fn.params)
    params = list(fn.params)
    for i, p in enumerate(params):
        for q in params[i + 1:]:
            add_edge(p, q)
        for other in entry_live:
            if other != p:
                add_edge(p, other)

    for block in fn.blocks:
        after = info.live_across_instr(block)
        for i, instr in enumerate(block.instrs):
            dest = instr.dest
            if not isinstance(dest, VReg):
                continue
            copy_src = None
            if instr.op in (Opcode.MOVE, Opcode.FMOV):
                src = instr.srcs[0]
                if isinstance(src, VReg):
                    copy_src = src
            for live in after[i]:
                if live is not dest and live != copy_src:
                    add_edge(dest, live)
    return graph
