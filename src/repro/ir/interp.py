"""Execution-driven IR interpreter: the golden model and profiler.

The interpreter executes virtual-register IR directly (before register
allocation), using the exact same operation semantics module as the
cycle-level simulator.  It serves two roles from the paper's methodology:

* the *reference output* every compiled configuration must reproduce (the
  paper verified compiler output by running it on a DEC-3100), and
* the *profile source*: block execution counts feed the register allocator's
  priority function, and branch taken/not-taken counts feed static branch
  prediction hints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ConfigError, IRError, SimulationError
from repro.ir.function import Function, Module
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode
from repro.isa.registers import Imm, VReg
from repro.isa.semantics import ALU_FUNCS, branch_taken, evaluate

DEFAULT_STEP_LIMIT = 50_000_000

VALID_IR_ENGINES = ("fast", "reference")

#: Sentinel distinguishing "absent" from any storable memory value.
_UNWRITTEN = object()


def resolve_ir_engine(engine: str | None = None) -> str:
    """Resolve an IR engine request to a member of ``VALID_IR_ENGINES``.

    ``None``, ``""`` and ``"auto"`` mean ``fast``."""
    if engine in (None, "", "auto"):
        engine = "fast"
    if engine not in VALID_IR_ENGINES:
        raise ConfigError(
            f"unknown IR engine {engine!r}; valid: "
            f"{', '.join(VALID_IR_ENGINES)}"
        )
    return engine


@dataclass
class Profile:
    """Dynamic execution profile gathered by the interpreter."""

    #: (function, block) -> execution count.
    block_counts: Counter = field(default_factory=Counter)
    #: (function, block) -> [taken, not-taken] counts of its terminator.
    branch_counts: dict[tuple[str, str], list[int]] = field(default_factory=dict)
    #: function -> number of calls made to it.
    call_counts: Counter = field(default_factory=Counter)

    def block_weight(self, fn_name: str, block_name: str) -> int:
        return self.block_counts.get((fn_name, block_name), 0)

    def predict_taken(self, fn_name: str, block_name: str) -> bool | None:
        """Static prediction for the branch terminating the given block."""
        counts = self.branch_counts.get((fn_name, block_name))
        if counts is None or counts[0] == counts[1]:
            return None
        return counts[0] > counts[1]


@dataclass
class InterpResult:
    """Outcome of one interpreter run."""

    steps: int
    memory: dict[int, int | float]
    profile: Profile

    def load_word(self, addr: int) -> int | float:
        return self.memory.get(addr, 0)


class _Frame:
    __slots__ = ("fn", "env", "ret_dest", "ret_block", "ret_index")

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.env: dict[VReg, int | float] = {}
        self.ret_dest: VReg | None = None
        self.ret_block = None
        self.ret_index = 0


class Interpreter:
    """Interprets a module starting from an entry function.

    ``engine`` selects the execution strategy: ``"fast"`` (the default)
    runs the specializing engine in :mod:`repro.ir.fastinterp`, which is
    bit-exact with the reference and transparently falls back to it for
    any run it cannot complete (step-limit overruns, undefined reads,
    opcodes without IR semantics); ``"reference"`` forces the dict-dispatch
    loop below.  ``ran_fastpath`` reports which engine produced the last
    result.

    ``strict_loads`` makes LOAD/FLOAD from a never-written address an
    error, matching :meth:`repro.sim.core.SimResult.load_word`; by default
    such loads read 0 (the historical behavior, which silently masks
    address bugs).
    """

    def __init__(self, module: Module, *,
                 step_limit: int = DEFAULT_STEP_LIMIT,
                 engine: str | None = None,
                 strict_loads: bool = False) -> None:
        self.module = module
        self.step_limit = step_limit
        self.engine = resolve_ir_engine(engine)
        self.strict_loads = strict_loads
        self.ran_fastpath = False

    def run(self, entry: str = "main",
            args: tuple[int | float, ...] = ()) -> InterpResult:
        fn = self.module.function(entry)
        if len(args) != len(fn.params):
            raise IRError(f"{entry} expects {len(fn.params)} args")
        if self.engine == "fast":
            from repro.ir import fastinterp

            result = fastinterp.try_run(self.module, entry, tuple(args),
                                        self.step_limit, self.strict_loads)
            if result is not None:
                self.ran_fastpath = True
                return result
        self.ran_fastpath = False
        return self._run_reference(entry, args)

    def _run_reference(self, entry: str,
                       args: tuple[int | float, ...]) -> InterpResult:
        module = self.module
        fn = module.function(entry)
        memory: dict[int, int | float] = module.initial_memory()
        profile = Profile()
        block_counts = profile.block_counts
        branch_counts = profile.branch_counts

        frame = _Frame(fn)
        frame.env.update(zip(fn.params, args))
        call_stack: list[_Frame] = []
        block = fn.entry
        index = 0
        steps = 0
        limit = self.step_limit
        load_default = _UNWRITTEN if self.strict_loads else 0
        env = frame.env
        block_counts[(fn.name, block.name)] += 1

        def value(operand):
            if isinstance(operand, Imm):
                return operand.value
            try:
                return env[operand]
            except KeyError:
                raise IRError(
                    f"{fn.name}/{block.name}: read of undefined {operand!r}"
                ) from None

        while True:
            if index >= len(block.instrs):
                raise IRError(f"{fn.name}/{block.name}: fell off block end")
            instr: Instr = block.instrs[index]
            steps += 1
            if steps > limit:
                raise SimulationError(
                    f"interpreter exceeded {limit} steps (infinite loop?)"
                )
            op = instr.op

            if op is Opcode.LI or op is Opcode.LIF:
                env[instr.dest] = instr.imm
                index += 1
            elif op is Opcode.LOAD or op is Opcode.FLOAD:
                addr = value(instr.srcs[0]) + instr.imm
                val = memory.get(addr, load_default)
                if val is _UNWRITTEN:
                    raise SimulationError(
                        f"{fn.name}/{block.name}: load of never-written "
                        f"address {addr} (strict_loads; the simulator's "
                        "load_word raises on such reads too)"
                    )
                env[instr.dest] = val
                index += 1
            elif op is Opcode.STORE or op is Opcode.FSTORE:
                addr = value(instr.srcs[1]) + instr.imm
                memory[addr] = value(instr.srcs[0])
                index += 1
            elif op is Opcode.JMP:
                block = fn.block(instr.label)
                index = 0
                block_counts[(fn.name, block.name)] += 1
            elif instr.is_cond_branch:
                taken = branch_taken(op, *(value(s) for s in instr.srcs))
                counts = branch_counts.setdefault((fn.name, block.name), [0, 0])
                counts[0 if taken else 1] += 1
                block = fn.block(instr.label if taken else block.fallthrough)
                index = 0
                block_counts[(fn.name, block.name)] += 1
            elif op is Opcode.CALL:
                callee = module.function(instr.label)
                profile.call_counts[callee.name] += 1
                new_frame = _Frame(callee)
                new_frame.env.update(
                    zip(callee.params, (value(s) for s in instr.srcs))
                )
                new_frame.ret_dest = instr.dest
                frame.ret_block = block
                frame.ret_index = index + 1
                call_stack.append(frame)
                frame = new_frame
                fn = callee
                env = frame.env
                block = fn.entry
                index = 0
                block_counts[(fn.name, block.name)] += 1
            elif op is Opcode.RET:
                ret_value = value(instr.srcs[0]) if instr.srcs else None
                if not call_stack:
                    return InterpResult(steps, memory, profile)
                returning = frame
                frame = call_stack.pop()
                fn = frame.fn
                env = frame.env
                block = frame.ret_block
                index = frame.ret_index
                if returning.ret_dest is not None:
                    if ret_value is None:
                        raise IRError(
                            f"{returning.fn.name} returned no value but the "
                            "caller expects one"
                        )
                    env[returning.ret_dest] = ret_value
            elif op is Opcode.HALT:
                return InterpResult(steps, memory, profile)
            elif op is Opcode.NOP:
                index += 1
            elif op not in ALU_FUNCS:
                raise IRError(
                    f"{fn.name}/{block.name}: {op.value} has no IR-level "
                    "semantics (connects, traps and PSW access are "
                    "machine-level concepts; run them on the simulator)"
                )
            else:
                func_srcs = tuple(value(s) for s in instr.srcs)
                env[instr.dest] = evaluate(op, *func_srcs)
                index += 1


def run_module(module: Module, entry: str = "main",
               step_limit: int = DEFAULT_STEP_LIMIT,
               engine: str | None = None,
               strict_loads: bool = False) -> InterpResult:
    """Convenience wrapper: interpret *module* from *entry*."""
    return Interpreter(module, step_limit=step_limit, engine=engine,
                       strict_loads=strict_loads).run(entry)
