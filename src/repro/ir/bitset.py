"""Dense virtual-register numbering and int-bitmask liveness.

Backward liveness over virtual registers, with the lattice expressed as
Python integers: each virtual register gets a dense index (parameters
first, then first appearance), a live set becomes one int, and transfer
functions become ``&``/``|``/``~`` on machine words.  The register
allocator's interference construction and the analyzer's abstract states
consume these masks; ``tests/test_bitset.py`` property-checks equality with
a set-of-``VReg`` reference (``tests/liveness_oracle.py``) on randomized
CFGs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import reverse_postorder
from repro.ir.function import BasicBlock, Function
from repro.isa.registers import RClass, VReg

__all__ = ["BitLivenessInfo", "VRegIndex", "bit_liveness"]


class VRegIndex:
    """Dense numbering of one function's virtual registers.

    Parameters come first (in declaration order), then every other register
    in order of first appearance.  ``class_mask[cls]`` selects all registers
    of one class; ``mask_of``/``set_of`` convert between representations.
    """

    __slots__ = ("vregs", "index", "class_mask")

    def __init__(self, fn: Function) -> None:
        index: dict[VReg, int] = {}
        for p in fn.params:
            if p not in index:
                index[p] = len(index)
        for _, instr in fn.iter_instrs():
            for r in instr.regs():
                if isinstance(r, VReg) and r not in index:
                    index[r] = len(index)
        self.index = index
        self.vregs: list[VReg] = list(index)
        cm = {RClass.INT: 0, RClass.FP: 0}
        for v, i in index.items():
            cm[v.cls] |= 1 << i
        self.class_mask = cm

    def __len__(self) -> int:
        return len(self.vregs)

    def mask_of(self, regs) -> int:
        idx = self.index
        m = 0
        for v in regs:
            m |= 1 << idx[v]
        return m

    def set_of(self, mask: int) -> set[VReg]:
        vregs = self.vregs
        out: set[VReg] = set()
        while mask:
            low = mask & -mask
            out.add(vregs[low.bit_length() - 1])
            mask ^= low
        return out


@dataclass
class BitLivenessInfo:
    """Per-block live-in/live-out masks for one function."""

    index: VRegIndex
    live_in: dict[str, int]
    live_out: dict[str, int]

    def live_across_instr_masks(self, block: BasicBlock) -> list[int]:
        """Mask of registers live immediately after each instruction."""
        idx = self.index.index
        live = self.live_out[block.name]
        n = len(block.instrs)
        after = [0] * n
        for i in range(n - 1, -1, -1):
            after[i] = live
            instr = block.instrs[i]
            d = instr.dest
            if isinstance(d, VReg):
                live &= ~(1 << idx[d])
            for s in instr.reg_srcs():
                if isinstance(s, VReg):
                    live |= 1 << idx[s]
        return after


def _block_use_def_masks(block: BasicBlock,
                         idx: dict[VReg, int]) -> tuple[int, int]:
    """Upward-exposed use and def masks of *block*."""
    use = 0
    defs = 0
    for instr in block.instrs:
        for s in instr.reg_srcs():
            if isinstance(s, VReg):
                b = 1 << idx[s]
                if not defs & b:
                    use |= b
        d = instr.dest
        if isinstance(d, VReg):
            defs |= 1 << idx[d]
    return use, defs


def bit_liveness(fn: Function, index: VRegIndex | None = None
                 ) -> BitLivenessInfo:
    """Compute per-block liveness for *fn* as bitmasks.

    The classic backward fixpoint over the reachable blocks, visiting them
    in postorder, with set union/difference replaced by integer
    ``|``/``& ~``.
    """
    index = index or VRegIndex(fn)
    idx = index.index
    rpo = reverse_postorder(fn)
    use: dict[str, int] = {}
    defs: dict[str, int] = {}
    succs: dict[str, list[str]] = {}
    for name in rpo:
        block = fn.block(name)
        use[name], defs[name] = _block_use_def_masks(block, idx)
        succs[name] = block.successors()
    live_in = dict.fromkeys(rpo, 0)
    live_out = dict.fromkeys(rpo, 0)

    worklist = list(reversed(rpo))
    changed = True
    while changed:
        changed = False
        for name in worklist:
            out = 0
            for succ in succs[name]:
                out |= live_in.get(succ, 0)
            newly_in = use[name] | (out & ~defs[name])
            if out != live_out[name] or newly_in != live_in[name]:
                live_out[name] = out
                live_in[name] = newly_in
                changed = True
    return BitLivenessInfo(index, live_in, live_out)
