"""Machine-level control-flow recovery.

Rebuilds basic blocks and function extents from a flat
:class:`~repro.sim.program.MachineProgram`: block leaders are the program
entry, every branch/jump target, every call target, every trap handler, and
every instruction following a control transfer.  Functions come from the
program's ``func_ranges`` when the compiler recorded them; for hand-assembled
programs they are recovered by reachability from the entry point, the call
targets, and the trap handlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import Opcode, ends_block
from repro.sim.program import MachineProgram


@dataclass
class MachineBlock:
    """A machine basic block: instruction indices ``[start, end)``."""

    start: int
    end: int
    #: Successor block start indices (intraprocedural: a CALL's successor is
    #: its return point, a RET/HALT/RTE has none).
    succs: tuple[int, ...] = ()
    preds: list[int] = field(default_factory=list)
    #: Name of the function this block belongs to.
    func: str = ""
    #: True when the block's last instruction may fall off the program end.
    falls_off_end: bool = False

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class FuncCFG:
    """The blocks of one recovered function."""

    name: str
    entry: int  # start index of the entry block
    blocks: dict[int, MachineBlock]
    is_entry: bool = False
    is_handler: bool = False

    def rpo(self) -> list[MachineBlock]:
        """Blocks in reverse post-order from the function entry."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(start: int) -> None:
            stack = [(start, iter(self.blocks[start].succs))]
            seen.add(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for s in it:
                    if s in self.blocks and s not in seen:
                        seen.add(s)
                        stack.append((s, iter(self.blocks[s].succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        visit(self.entry)
        return [self.blocks[i] for i in reversed(order)]

    def reachable(self) -> set[int]:
        """Start indices of blocks reachable from the function entry."""
        return {b.start for b in self.rpo()}

    def dominators(self) -> dict[int, set[int]]:
        """Dominator sets of the reachable blocks (iterative; a block
        dominates itself)."""
        rpo = self.rpo()
        all_blocks = {b.start for b in rpo}
        doms = {b.start: set(all_blocks) for b in rpo}
        doms[self.entry] = {self.entry}
        changed = True
        while changed:
            changed = False
            for b in rpo:
                if b.start == self.entry:
                    continue
                new = set(all_blocks)
                for p in b.preds:
                    if p in all_blocks:
                        new &= doms[p]
                new.add(b.start)
                if new != doms[b.start]:
                    doms[b.start] = new
                    changed = True
        return doms

    def natural_loops(self) -> dict[int, set[int]]:
        """Natural loops: header block start -> body block starts.

        The body of a header is the header plus every block that reaches
        one of its back-edge sources without passing through it (loops
        sharing a header merge).  Every predecessor of a non-header body
        block is in the body, so control enters a loop only at its header.
        """
        doms = self.dominators()
        loops: dict[int, set[int]] = {}
        for b in self.rpo():
            for s in b.succs:
                if s in self.blocks and s in doms[b.start]:
                    body = loops.setdefault(s, {s})
                    stack = [b.start]
                    while stack:
                        x = stack.pop()
                        if x in body:
                            continue
                        body.add(x)
                        stack.extend(p for p in self.blocks[x].preds
                                     if p in self.blocks)
        return loops


@dataclass
class ProgramCFG:
    """Whole-program CFG: one :class:`FuncCFG` per recovered function."""

    program: MachineProgram
    functions: list[FuncCFG]
    #: block start index -> block, across all functions.
    block_at: dict[int, MachineBlock]

    def block_of(self, index: int) -> MachineBlock | None:
        """The block containing instruction *index*, if any."""
        for block in self.block_at.values():
            if block.start <= index < block.end:
                return block
        return None


def _block_succs(program: MachineProgram, last: int) -> tuple[tuple[int, ...], bool]:
    """Successor indices of a block whose last instruction is *last*.

    Returns ``(successors, falls_off_end)``.
    """
    instr = program.instrs[last]
    target = program.targets[last]
    op = instr.op
    n = len(program.instrs)
    if op is Opcode.JMP:
        return ((target,) if target is not None else ()), target is None
    if instr.is_cond_branch:
        succs = []
        if target is not None:
            succs.append(target)
        if last + 1 < n:
            succs.append(last + 1)
            return tuple(succs), False
        return tuple(succs), True
    if op in (Opcode.RET, Opcode.HALT, Opcode.RTE):
        return (), False
    if op in (Opcode.CALL, Opcode.TRAP):
        # Intraprocedural view: control returns to the next instruction.
        if last + 1 < n:
            return (last + 1,), False
        return (), True
    # Straight-line block split by a leader at last+1.
    if last + 1 < n:
        return (last + 1,), False
    return (), True


def build_cfg(program: MachineProgram) -> ProgramCFG:
    """Recover basic blocks and function extents from *program*."""
    n = len(program.instrs)
    leaders: set[int] = set()
    if n:
        leaders.add(program.entry)
    call_targets: set[int] = set()
    for i, instr in enumerate(program.instrs):
        target = program.targets[i]
        if target is not None:
            leaders.add(target)
            if instr.op is Opcode.CALL:
                call_targets.add(target)
        if ends_block(instr.op) and i + 1 < n:
            leaders.add(i + 1)
    handler_starts = set(program.trap_handlers.values())
    leaders |= handler_starts

    # Function starts: compiler-recorded ranges take precedence; otherwise
    # the entry, every call target, and every trap handler start a function.
    if program.func_ranges:
        fn_starts = {start: name
                     for name, (start, _end) in program.func_ranges.items()}
    else:
        fn_starts = {program.entry: "main"}
        for t in sorted(call_targets):
            fn_starts.setdefault(t, f"fn@{t}")
        for t in sorted(handler_starts):
            fn_starts.setdefault(t, f"handler@{t}")
    leaders |= set(fn_starts)

    ordered = sorted(x for x in leaders if 0 <= x < n)
    blocks: dict[int, MachineBlock] = {}
    for pos, start in enumerate(ordered):
        end = ordered[pos + 1] if pos + 1 < len(ordered) else n
        last = end - 1
        succs, falls_off = _block_succs(program, last)
        # A block that would "fall through" into the next function is only
        # possible with compiler ranges; keep the edge (the scheduler never
        # produces it, and reachability below partitions by function anyway).
        blocks[start] = MachineBlock(start=start, end=end, succs=succs,
                                     falls_off_end=falls_off)

    # Partition blocks into functions by reachability from each start,
    # following only intraprocedural edges.
    funcs: list[FuncCFG] = []
    claimed: dict[int, str] = {}
    for start in sorted(fn_starts):
        name = fn_starts[start]
        if start not in blocks:
            continue
        member: set[int] = set()
        stack = [start]
        while stack:
            b = stack.pop()
            if b in member or b not in blocks:
                continue
            # With compiler ranges, never walk outside the recorded range.
            if program.func_ranges:
                lo, hi = program.func_ranges[name]
                if not lo <= b < hi:
                    continue
            elif b in fn_starts and b != start:
                continue  # reached another function's entry: stop
            member.add(b)
            stack.extend(blocks[b].succs)
        fn_blocks = {b: blocks[b] for b in member}
        for b in member:
            blocks[b].func = name
            claimed[b] = name
        is_entry = start == program.entry or (
            program.func_ranges
            and program.func_ranges[name][0] <= program.entry
            < program.func_ranges[name][1]
        )
        funcs.append(FuncCFG(name=name, entry=start, blocks=fn_blocks,
                             is_entry=bool(is_entry),
                             is_handler=start in handler_starts))

    # Predecessor edges (within each function).
    for fn in funcs:
        for block in fn.blocks.values():
            for s in block.succs:
                if s in fn.blocks:
                    fn.blocks[s].preds.append(block.start)
    return ProgramCFG(program=program, functions=funcs, block_at=blocks)
