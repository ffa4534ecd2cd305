"""Differential tests: the specializing IR interpreter vs the reference.

The fast engine (:mod:`repro.ir.fastinterp`) must be bit-identical with the
reference loop on every observable — step count, final memory, block /
branch / call counts, and branch-prediction hints — or fall back to it
transparently.
"""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.ir import FnBuilder, Module
from repro.ir.interp import Interpreter, resolve_ir_engine
from repro.workloads import ALL_BENCHMARKS, build_workload

from helpers import call_module, diamond_module, fp_module, sum_to_n_module


def _both(module, entry="main", **kwargs):
    ref_interp = Interpreter(module, engine="reference", **kwargs)
    fast_interp = Interpreter(module, engine="fast", **kwargs)
    ref = ref_interp.run(entry)
    fast = fast_interp.run(entry)
    assert not ref_interp.ran_fastpath
    return ref, fast, fast_interp.ran_fastpath


def _assert_identical(ref, fast):
    assert fast.steps == ref.steps
    assert fast.memory == ref.memory
    assert fast.profile.block_counts == ref.profile.block_counts
    assert fast.profile.branch_counts == ref.profile.branch_counts
    assert fast.profile.call_counts == ref.profile.call_counts
    for fn_name, block_name in ref.profile.branch_counts:
        assert (fast.profile.predict_taken(fn_name, block_name)
                == ref.profile.predict_taken(fn_name, block_name))


class TestBenchmarkParity:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_benchmark_bit_identical(self, name):
        module = build_workload(name)
        ref, fast, ran_fast = _both(module)
        assert ran_fast, f"{name} unexpectedly fell back to the reference"
        _assert_identical(ref, fast)


class TestSmallModuleParity:
    @pytest.mark.parametrize("make", [sum_to_n_module, call_module,
                                      fp_module, diamond_module])
    def test_helper_modules(self, make):
        ref, fast, ran_fast = _both(make())
        assert ran_fast
        _assert_identical(ref, fast)

    def test_loop_with_taken_exit_edge(self):
        # Loop whose *taken* edge exits and whose back edge is an explicit
        # jmp: exercises the not-taken fall-through and jmp dispatch paths.
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "main")
        i = b.li(0, name="i")
        limit = b.li(10, name="limit")
        b.block("loop")
        b.add(i, 1, dest=i)
        b.br("bge", i, limit, "exit")
        b.block("back")
        b.jmp("loop")
        b.block("exit")
        b.store(i, b.la("out"), 0)
        b.halt()
        b.done()
        ref, fast, ran_fast = _both(m)
        assert ran_fast
        _assert_identical(ref, fast)
        assert ref.load_word(m.global_addr("out")) == 10


class TestFallback:
    def test_step_limit_error_matches_reference(self):
        m = sum_to_n_module(1000)
        with pytest.raises(SimulationError) as ref_err:
            Interpreter(m, step_limit=100, engine="reference").run()
        interp = Interpreter(m, step_limit=100, engine="fast")
        with pytest.raises(SimulationError) as fast_err:
            interp.run()
        assert str(fast_err.value) == str(ref_err.value)
        assert not interp.ran_fastpath

    def test_division_fault_matches_reference(self):
        m = Module()
        b = FnBuilder(m, "main")
        b.div(b.li(1), b.li(0))
        b.halt()
        b.done()
        with pytest.raises(SimulationError) as ref_err:
            Interpreter(m, engine="reference").run()
        with pytest.raises(SimulationError) as fast_err:
            Interpreter(m, engine="fast").run()
        assert str(fast_err.value) == str(ref_err.value)


class TestStrictLoads:
    def _loader(self):
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "main")
        v = b.load(b.li(99999), 0)
        b.store(b.add(v, 5), b.la("out"), 0)
        b.halt()
        b.done()
        return m

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_default_reads_zero(self, engine):
        m = self._loader()
        result = Interpreter(m, engine=engine).run()
        assert result.load_word(m.global_addr("out")) == 5

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_strict_raises(self, engine):
        m = self._loader()
        with pytest.raises(SimulationError, match="never-written address"):
            Interpreter(m, engine=engine, strict_loads=True).run()

    def test_strict_error_messages_match(self):
        m = self._loader()
        with pytest.raises(SimulationError) as ref_err:
            Interpreter(m, engine="reference", strict_loads=True).run()
        with pytest.raises(SimulationError) as fast_err:
            Interpreter(m, engine="fast", strict_loads=True).run()
        assert str(fast_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_strict_allows_written_addresses(self, engine):
        m = sum_to_n_module(10)
        result = Interpreter(m, engine=engine, strict_loads=True).run()
        assert result.load_word(m.global_addr("out")) == 55


class TestEngineDispatch:
    def test_resolve_default_is_fast(self):
        assert resolve_ir_engine() == "fast"
        assert resolve_ir_engine("auto") == "fast"
        assert resolve_ir_engine("reference") == "reference"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown IR engine"):
            resolve_ir_engine("turbo")

    def test_fast_flag_set_only_on_fast_runs(self):
        interp = Interpreter(sum_to_n_module(5), engine="fast")
        interp.run()
        assert interp.ran_fastpath
