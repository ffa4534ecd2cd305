"""Tests for interference, priorities, coloring, spilling, and windows."""

import pytest

from repro.compiler import (
    AllocationOptions,
    allocate_function,
    apply_allocation,
    build_interference,
    lower_calls,
    priority_order,
    reference_weights,
)
from repro.compiler.regalloc.allocator import _SharedCounters
from repro.errors import AllocationError
from repro.ir import FnBuilder, Module, run_module
from repro.isa import (
    NUM_RESERVED_INT,
    RClass,
    core_spec,
    rc_spec,
    unlimited_spec,
)


def pressure_module(n_live: int = 10):
    """main defines n_live values, keeps them all live, then sums them."""
    m = Module()
    m.add_global("out", 1)
    b = FnBuilder(m, "main")
    vals = [b.li(i + 1, name=f"v{i}") for i in range(n_live)]
    acc = b.li(0, name="acc")
    for v in vals:
        b.add(acc, v, dest=acc)
    b.store(acc, b.la("out"), 0)
    b.halt()
    b.done()
    return m


INT64 = core_spec(RClass.INT, 64)
FP64 = core_spec(RClass.FP, 64)


class TestInterference:
    def test_simultaneously_live_values_interfere(self):
        m = pressure_module(4)
        fn = m.function("main")
        g = build_interference(fn)
        vregs = {v.name: v for v in fn.vregs()}
        assert g.interferes(vregs["v0"], vregs["v3"])

    def test_sequential_values_do_not_interfere(self):
        m = Module()
        b = FnBuilder(m, "main")
        a = b.li(1, name="a")
        b.store(a, 100, 0)
        c = b.li(2, name="c")   # a is dead here
        b.store(c, 100, 0)
        b.halt()
        fn = b.done()
        g = build_interference(fn)
        assert not g.interferes(a, c)

    def test_copy_source_exempt(self):
        m = Module()
        b = FnBuilder(m, "main")
        a = b.li(1, name="a")
        c = b.move(a, name="c")
        b.store(c, 100, 0)
        b.halt()
        fn = b.done()
        g = build_interference(fn)
        assert not g.interferes(a, c)

    def test_params_interfere_with_each_other(self):
        m = Module()
        b = FnBuilder(m, "f", params=[("i", "x"), ("i", "y")], ret="i")
        x, y = b.params
        b.ret(b.add(x, y))
        fn = b.done()
        g = build_interference(fn)
        assert g.interferes(x, y)


class TestPriorities:
    def test_loop_values_outweigh_straightline(self):
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "main")
        cold = b.li(7, name="cold")
        i = b.li(0, name="i")
        acc = b.li(0, name="acc")
        b.block("loop")
        b.add(acc, i, dest=acc)
        b.add(i, 1, dest=i)
        b.br("blt", i, 100, "loop")
        b.block("exit")
        b.add(acc, cold, dest=acc)
        b.store(acc, b.la("out"), 0)
        b.halt()
        fn = b.done()
        profile = run_module(m).profile
        w = reference_weights(fn, profile)
        assert w[i] > w[cold]
        order = priority_order(fn, profile)
        assert order.index(i) < order.index(cold)

    def test_static_fallback_uses_loop_depth(self):
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "main")
        cold = b.li(7, name="cold")
        i = b.li(0, name="i")
        b.block("loop")
        b.add(i, 1, dest=i)
        b.br("blt", i, 100, "loop")
        b.block("exit")
        b.store(cold, b.la("out"), 0)
        b.halt()
        fn = b.done()
        w = reference_weights(fn, None)
        assert w[i] > w[cold]


class TestColoring:
    def test_everything_fits_in_large_file(self):
        m = pressure_module(10)
        fn = m.function("main")
        result = allocate_function(fn, None, INT64, FP64)
        assert not result.spilled
        assert not result.windows

    def test_spills_when_core_exhausted(self):
        m = pressure_module(30)
        fn = m.function("main")
        spec = core_spec(RClass.INT, 16)  # 11 allocatable
        result = allocate_function(fn, None, spec, FP64)
        assert result.spilled
        assert all(r.num < 16 for r in result.assignment.values())

    def test_rc_overflows_to_extended_instead_of_memory(self):
        m = pressure_module(30)
        fn = m.function("main")
        spec = rc_spec(RClass.INT, 16)
        result = allocate_function(fn, None, spec, FP64)
        assert not result.spilled
        assert result.windows[RClass.INT]
        assert result.used_extended[RClass.INT]
        # windows are excluded from coloring
        for reg in result.assignment.values():
            assert reg.num not in result.windows[RClass.INT]

    def test_rc_windows_not_reserved_when_core_suffices(self):
        m = pressure_module(5)
        fn = m.function("main")
        spec = rc_spec(RClass.INT, 16)
        result = allocate_function(fn, None, spec, FP64)
        assert not result.windows
        assert not result.used_extended[RClass.INT]

    def test_interfering_values_get_distinct_registers(self):
        m = pressure_module(8)
        fn = m.function("main")
        result = allocate_function(fn, None, INT64, FP64)
        g = build_interference(fn)
        for v, reg in result.assignment.items():
            for n in g.neighbors(v):
                if n in result.assignment:
                    assert result.assignment[n] != reg

    def test_reserved_registers_never_assigned(self):
        m = pressure_module(30)
        fn = m.function("main")
        result = allocate_function(fn, None, core_spec(RClass.INT, 16), FP64)
        for reg in result.assignment.values():
            assert reg.num >= NUM_RESERVED_INT

    def test_unlimited_assigns_globally_unique(self):
        m = pressure_module(6)
        fn = m.function("main")
        shared = _SharedCounters()
        r1 = allocate_function(fn, None, unlimited_spec(RClass.INT),
                               unlimited_spec(RClass.FP),
                               shared_counters=shared)
        m2 = pressure_module(6)
        fn2 = m2.function("main")
        r2 = allocate_function(fn2, None, unlimited_spec(RClass.INT),
                               unlimited_spec(RClass.FP),
                               shared_counters=shared)
        used1 = set(r1.assignment.values())
        used2 = set(r2.assignment.values())
        assert not (used1 & used2)
        assert not r1.callee_saves and not r2.callee_saves

    def test_window_minimum_enforced(self):
        with pytest.raises(AllocationError):
            AllocationOptions(num_windows=1)

    def test_fp_assignment_uses_even_pairs(self):
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "main")
        vals = [b.fli(float(i)) for i in range(6)]
        acc = b.fli(0.0)
        for v in vals:
            b.fadd(acc, v, dest=acc)
        b.fstore(acc, b.la("out"), 0)
        b.halt()
        fn = b.done()
        result = allocate_function(fn, None, INT64, core_spec(RClass.FP, 32))
        fp_regs = [r for r in result.assignment.values()
                   if r.cls is RClass.FP]
        assert fp_regs and all(r.num % 2 == 0 for r in fp_regs)


class TestApplyAllocation:
    def test_spill_code_counts(self):
        m = pressure_module(30)
        fn = m.function("main")
        lower_calls(fn)
        spec = core_spec(RClass.INT, 16)
        result = allocate_function(fn, None, spec, FP64)
        stats = apply_allocation(fn, result,
                                 {RClass.INT: 16, RClass.FP: 64})
        assert stats["spill_loads"] > 0
        assert stats["spill_stores"] > 0

    def test_no_vregs_survive(self):
        from repro.isa import VReg
        m = pressure_module(30)
        fn = m.function("main")
        lower_calls(fn)
        spec = core_spec(RClass.INT, 16)
        result = allocate_function(fn, None, spec, FP64)
        apply_allocation(fn, result, {RClass.INT: 16, RClass.FP: 64})
        for _, instr in fn.iter_instrs():
            for reg in instr.regs():
                assert not isinstance(reg, VReg)


_SEED_LISTINGS = """
import hashlib
from repro.compiler import compile_module
from repro.experiments.figures import _config
from repro.isa.asmfmt import format_listing
from repro.workloads import workload
for name in ("cmp", "eqntott"):
    out = compile_module(workload(name).module(1),
                         _config(name, rc=False, int_core=8, fp_core=16))
    text = format_listing(out.program.instrs)
    print(name, hashlib.sha256(text.encode()).hexdigest())
"""


class TestHashSeedDeterminism:
    """Spill-temp choice must not depend on set iteration order."""

    @staticmethod
    def _listings(hash_seed: int) -> str:
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
               "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-c", _SEED_LISTINGS],
                              env=env, check=True, capture_output=True,
                              text=True).stdout

    def test_figure8_no_8_16_listings_match_across_hash_seeds(self):
        # Hash seeds 1 and 2 gave different cmp and eqntott listings when
        # the reused spill temp was the first element of a set.
        first = self._listings(1)
        assert first.count("\n") == 2
        assert first == self._listings(2)
