"""Compiler IR: functions, blocks, builder DSL, analyses, interpreter."""

from repro.ir.builder import FnBuilder
from repro.ir.cfg import (
    NaturalLoop,
    dominators,
    loop_depths,
    natural_loops,
    predecessors,
    reverse_postorder,
    successors,
)
from repro.ir.function import (
    DATA_BASE,
    STACK_BASE,
    BasicBlock,
    Function,
    GlobalArray,
    Module,
)
from repro.ir.interp import (
    Interpreter,
    InterpResult,
    Profile,
    resolve_ir_engine,
    run_module,
)
from repro.ir.verify import verify_function, verify_module

__all__ = [
    "BasicBlock",
    "DATA_BASE",
    "FnBuilder",
    "Function",
    "GlobalArray",
    "Interpreter",
    "InterpResult",
    "Module",
    "NaturalLoop",
    "Profile",
    "STACK_BASE",
    "dominators",
    "loop_depths",
    "natural_loops",
    "predecessors",
    "resolve_ir_engine",
    "reverse_postorder",
    "run_module",
    "successors",
    "verify_function",
    "verify_module",
]
