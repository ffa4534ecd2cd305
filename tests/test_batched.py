"""Gang-simulator tests: the batched lockstep gang vs fast vs reference.

The gang simulator (:mod:`repro.sim.batched`) simulates N configs in one
pass — decode and specialization shared, per-config state in flat arrays,
followers replaying the leader's trace timing-only.  Every slot must be
bit-exact with a single-config fast run (itself parity-gated against the
reference): full :class:`~repro.sim.stats.SimStats`, memory, both register
files, and fault types/messages.  Slots that fault or exhaust their cycle
budget retire without disturbing the rest of the gang.
"""

import dataclasses

import pytest

from repro.compiler import compile_module
from repro.errors import ConfigError, CycleBudgetError, SimulationError
from repro.isa import Instr, Opcode, PhysReg, RClass
from repro.rc import RCModel
from repro.sim import (
    VALID_ENGINES,
    BatchedSimulator,
    FastSimulator,
    Simulator,
    assemble,
    paper_machine,
    resolve_engine,
    simulate_gang,
)
from repro.workloads import ALL_BENCHMARKS, build_workload, workload

GANG_MODELS = (RCModel.NO_RESET, RCModel.WRITE_RESET_READ_UPDATE,
               RCModel.READ_RESET)
GANG_WIDTHS = (1, 2, 4)

#: One compilation per benchmark shared by all assertions.
_compiled: dict = {}


def _rc_class(name: str) -> RClass:
    return RClass.INT if workload(name).kind == "int" else RClass.FP


def _program(name: str):
    if name not in _compiled:
        cfg = paper_machine(issue_width=1, rc_class=_rc_class(name))
        out = compile_module(build_workload(name, scale=1), cfg)
        _compiled[name] = out.program
    return _compiled[name]


def _gang_configs(name: str):
    rc_class = _rc_class(name)
    return [paper_machine(issue_width=w, rc_class=rc_class, rc_model=m)
            for m in GANG_MODELS for w in GANG_WIDTHS]


def _assert_slot_equals(outcome, single, label: str):
    assert outcome.error is None, f"{label}: gang slot errored {outcome.error}"
    got, want = outcome.result, single
    assert got.stats == want.stats, (
        f"{label}: stats diverge\ngang {got.stats}\nfast {want.stats}")
    assert got.halted == want.halted, label
    assert got.state.memory == want.state.memory, f"{label}: memory diverges"
    assert got.state.int_regs == want.state.int_regs, label
    assert got.state.fp_regs == want.state.fp_regs, label


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_gang_parity_models_and_widths(name):
    """A gang over models × widths matches per-config fast runs bit-exactly."""
    program = _program(name)
    configs = _gang_configs(name)
    outcomes = BatchedSimulator(program, configs).run()
    for cfg, outcome in zip(configs, outcomes):
        single = FastSimulator(program, cfg).run()
        label = f"{name} w{cfg.issue_width} {cfg.rc_model.name}"
        _assert_slot_equals(outcome, single, label)


def test_gang_of_one_equals_fast():
    """A gang of 1 is exactly one fast run — and actually runs batched."""
    name = ALL_BENCHMARKS[0]
    program = _program(name)
    cfg = paper_machine(issue_width=4, rc_class=_rc_class(name))
    outcomes = BatchedSimulator(program, [cfg]).run()
    assert len(outcomes) == 1 and outcomes[0].ran_batched
    single = FastSimulator(program, cfg).run()
    _assert_slot_equals(outcomes[0], single, "gang-of-1")


def test_gang_against_reference_engine():
    """Spot-check one gang directly against the reference simulator."""
    name = ALL_BENCHMARKS[1]
    program = _program(name)
    configs = _gang_configs(name)[:4]
    for cfg, outcome in zip(configs, simulate_gang(program, configs)):
        ref = Simulator(program, cfg).run()
        _assert_slot_equals(outcome, ref, f"vs-reference w{cfg.issue_width}")


class TestRetirement:
    def test_mid_gang_budget_retires_only_that_slot(self):
        name = ALL_BENCHMARKS[0]
        program = _program(name)
        configs = _gang_configs(name)
        # Slot 4 gets a budget far below the program's runtime; it must
        # retire with the engines' exact CycleBudgetError while every other
        # slot completes untouched.
        tiny = dataclasses.replace(configs[4], max_cycles=50)
        configs = configs[:4] + [tiny] + configs[5:]
        outcomes = BatchedSimulator(program, configs).run()
        assert isinstance(outcomes[4].error, CycleBudgetError)
        with pytest.raises(CycleBudgetError) as fast_exc:
            FastSimulator(program, tiny).run()
        assert str(outcomes[4].error) == str(fast_exc.value)
        for i, (cfg, outcome) in enumerate(zip(configs, outcomes)):
            if i == 4:
                continue
            single = FastSimulator(program, cfg).run()
            _assert_slot_equals(outcome, single, f"slot{i}")

    def test_budget_slot_rerun_returns_same_outcomes(self):
        name = ALL_BENCHMARKS[0]
        program = _program(name)
        cfgs = _gang_configs(name)[:3]
        cfgs[1] = dataclasses.replace(cfgs[1], max_cycles=50)
        sim = BatchedSimulator(program, cfgs)
        first = sim.run()
        assert isinstance(first[1].error, CycleBudgetError)
        # The gang runs once: a second run() reports the same outcomes,
        # the retired slot included.
        assert sim.run() == first

    def test_faulting_program_fails_identically(self):
        prog = assemble([
            Instr(Opcode.LI, dest=PhysReg(RClass.INT, 5), imm=4),
            Instr(Opcode.LI, dest=PhysReg(RClass.INT, 6), imm=0),
            Instr(Opcode.DIV, dest=PhysReg(RClass.INT, 7),
                  srcs=(PhysReg(RClass.INT, 5), PhysReg(RClass.INT, 6))),
            Instr(Opcode.HALT),
        ])
        cfgs = [paper_machine(issue_width=w, rc_class=RClass.INT)
                for w in GANG_WIDTHS]
        outcomes = BatchedSimulator(prog, cfgs).run()
        for cfg, outcome in zip(cfgs, outcomes):
            with pytest.raises(SimulationError) as ref_exc:
                Simulator(prog, cfg).run()
            assert type(outcome.error) is type(ref_exc.value)
            assert str(outcome.error) == str(ref_exc.value)


def test_rerun_returns_same_results():
    name = ALL_BENCHMARKS[0]
    program = _program(name)
    configs = _gang_configs(name)[:3]
    sim = BatchedSimulator(program, configs)
    first = sim.run()
    assert all(o.error is None for o in first)
    assert sim.run() == first


class TestDispatch:
    def test_resolve_engine_reads_batched_as_fast(self):
        assert "batched" not in VALID_ENGINES
        assert resolve_engine("batched") == "fast"

    def test_empty_gang_rejected(self):
        name = ALL_BENCHMARKS[0]
        with pytest.raises(ConfigError, match="at least one config"):
            BatchedSimulator(_program(name), [])


def test_run_gang_matches_run(tmp_path):
    """ExperimentRunner.run_gang stores records identical to run()."""
    from repro.experiments import ExperimentRunner

    name = ALL_BENCHMARKS[0]
    configs = [paper_machine(issue_width=4, rc_class=_rc_class(name),
                             extra_decode_stage=e) for e in (False, True)]
    gang_runner = ExperimentRunner(cache_dir=tmp_path / "gang")
    outcomes = gang_runner.run_gang(name, configs)
    ref_runner = ExperimentRunner(cache_dir=tmp_path / "ref", engine="fast")
    for cfg, (record, error) in zip(configs, outcomes):
        assert error is None
        assert record == ref_runner.run(name, cfg)
    # the gang populated the cache: a follow-up run() is a pure hit
    before = gang_runner.cache_hits
    gang_runner.run(name, configs[0])
    assert gang_runner.cache_hits == before + 1


def test_run_gang_rejects_mixed_compile_keys():
    from repro.experiments import ExperimentRunner

    name = ALL_BENCHMARKS[0]
    runner = ExperimentRunner()
    configs = [paper_machine(issue_width=w, rc_class=_rc_class(name))
               for w in (1, 2)]
    with pytest.raises(ValueError, match="compile keys"):
        runner.run_gang(name, configs)
