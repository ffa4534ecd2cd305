"""Connect-optimizer tests: deletion, redundancy, hoisting, parity.

Each rewrite kind gets a firing fixture and a must-not-fire negative; the
whole pass is then gated on bit-exact architectural parity (final register
files and memory) against the unoptimized program, mirroring the CI job.
"""

import pytest

from repro.analyze import check_program, optimize_connects
from repro.compiler.pipeline import CompileOptions, compile_module
from repro.isa import RClass
from repro.isa.asmparse import parse_program
from repro.rc import RCModel
from repro.sim import FastSimulator
from repro.sim.config import paper_machine
from repro.workloads import workload

ALL_MODELS = [1, 2, 3, 4, 5]


def machine(model=3, rc=True, cls=RClass.INT):
    return paper_machine(int_core=16, fp_core=32,
                         rc_class=cls if rc else None,
                         rc_model=RCModel(model))


def run_state(program, config):
    result = FastSimulator(program, config).run()
    return (list(result.state.int_regs), list(result.state.fp_regs),
            dict(result.state.memory))


def optimize_asm(text, model=3):
    program = parse_program(text)
    config = machine(model)
    result = optimize_connects(program, config)
    return program, result, config


def assert_parity(original, optimized, config):
    assert run_state(original, config) == run_state(optimized, config)


# ---------------------------------------------------------------------------
# Dead-connect deletion


DEAD = """
start:
    li r5, 1
    connect_use ri6, rp20
    halt
"""

LIVE = """
start:
    li r20, 7
    connect_use ri6, rp20
    add r7, r6, 1
    halt
"""


class TestDeadDeletion:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_unused_connect_is_deleted(self, model):
        original, result, config = optimize_asm(DEAD, model)
        report = result.report
        assert report.removed_dead == 1
        assert (report.connects_before, report.connects_after) == (1, 0)
        assert not any(i.is_connect for i in result.program.instrs)
        assert_parity(original, result.program, config)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_used_connect_survives(self, model):
        _, result, _ = optimize_asm(LIVE, model)
        assert not result.report.changed
        assert result.report.removed == 0
        assert sum(i.is_connect for i in result.program.instrs) == 1


# ---------------------------------------------------------------------------
# Redundant-connect elimination


REDUNDANT = """
start:
    connect_def ri6, rp20
    li r6, 7
    connect_use ri6, rp20
    add r7, r6, 1
    connect_use ri6, rp20
    add r8, r6, 1
    halt
"""


class TestRedundantElimination:
    @pytest.mark.parametrize("model,removed", [(1, 1), (2, 1), (3, 2),
                                               (4, 1)])
    def test_reestablishing_connect_is_removed(self, model, removed):
        # The second connect-use re-establishes a slot the first one set.
        # Under WRITE_RESET_READ_UPDATE the write itself already made the
        # value readable, so the first connect-use is redundant too.
        original, result, config = optimize_asm(REDUNDANT, model)
        report = result.report
        assert report.removed_redundant == removed
        assert report.connects_after == 3 - removed
        assert_parity(original, result.program, config)

    def test_read_reset_model_keeps_all_connects(self):
        # Under READ_RESET the first read resets the slot to home: the
        # second connect is load-bearing and must not be removed.
        _, result, _ = optimize_asm(REDUNDANT, model=5)
        assert not result.report.changed
        assert sum(i.is_connect for i in result.program.instrs) == 3


# ---------------------------------------------------------------------------
# Loop-invariant hoisting


HOISTABLE = """
start:
    connect_def ri6, rp20
    li r6, 7
    li r5, 0
loop:
    connect_use ri6, rp20
    add r5, r5, r6
    blt r5, 100 -> loop
    halt
"""

ALTERNATING = """
start:
    connect_def ri6, rp20
    li r6, 7
    connect_def ri6, rp21
    li r6, 9
    li r5, 0
loop:
    connect_use ri6, rp20
    add r5, r5, r6
    connect_use ri6, rp21
    add r5, r5, r6
    blt r5, 100 -> loop
    halt
"""


class TestHoisting:
    @pytest.mark.parametrize("model", [1, 2, 4])
    def test_invariant_connect_moves_to_preheader(self, model):
        original, result, config = optimize_asm(HOISTABLE, model)
        report = result.report
        assert report.hoisted == 1
        # Static count unchanged: the loop connect now sits ahead of the
        # loop, so the dynamic count drops to once per loop entry.
        assert (report.connects_before, report.connects_after) == (2, 2)
        flags = [i.is_connect for i in result.program.instrs]
        assert flags == [True, False, False, True, False, False, False]
        # The loop back edge targets the add, past the hoisted connect.
        assert result.program.targets[5] == 4
        assert_parity(original, result.program, config)

    def test_write_update_model_deletes_instead(self):
        # Under WRITE_RESET_READ_UPDATE the preheader write already made
        # the value readable through index 6, so the loop connect is
        # outright redundant — deleted, not hoisted.
        original, result, config = optimize_asm(HOISTABLE, model=3)
        report = result.report
        assert report.hoisted == 0
        assert report.removed_redundant == 1
        assert (report.connects_before, report.connects_after) == (2, 1)
        assert_parity(original, result.program, config)

    def test_read_reset_model_must_not_hoist(self):
        # Under READ_RESET every iteration's read resets the slot: the
        # in-loop connect is load-bearing on the back edge.
        original, result, config = optimize_asm(HOISTABLE, model=5)
        assert not result.report.changed
        assert_parity(original, result.program, config)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_alternating_connects_do_not_hoist(self, model):
        # Both loop connects have slots dead at the header, but neither
        # copy can make its original provably redundant (the back edge
        # carries the other target), so every trial is abandoned.
        original, result, config = optimize_asm(ALTERNATING, model)
        assert result.report.hoisted == 0
        assert not result.report.changed
        assert_parity(original, result.program, config)


# ---------------------------------------------------------------------------
# Bail-outs


class TestBail:
    def test_no_rc_configuration_bails(self):
        program = parse_program(DEAD)
        result = optimize_connects(program, machine(rc=False))
        assert result.report.bail_reason is not None
        assert result.program is program
        assert not result.report.changed

    def test_report_lines_mention_skip(self):
        program = parse_program(DEAD)
        result = optimize_connects(program, machine(rc=False))
        assert result.report.lines()[0].startswith("connect-opt: skipped")


# ---------------------------------------------------------------------------
# Pipeline integration and whole-benchmark parity


class TestPipeline:
    def test_opt_connects_on_by_default(self):
        w = workload("cmp")
        config = machine(3)
        plain = compile_module(w.module(1), config,
                               CompileOptions(opt_connects=False))
        opt = compile_module(w.module(1), config)
        assert opt.connect_opt is not None
        assert plain.connect_opt is None
        n_plain = sum(i.is_connect for i in plain.program.instrs)
        n_opt = sum(i.is_connect for i in opt.program.instrs)
        assert n_opt <= n_plain
        assert opt.stats.connects_removed == n_plain - n_opt

    def test_benchmark_parity_and_idempotence(self):
        w = workload("cmp")
        config = machine(3)
        out = compile_module(w.module(1), config,
                             CompileOptions(opt_connects=False))
        result = optimize_connects(out.program, config)
        assert_parity(out.program, result.program, config)
        again = optimize_connects(result.program, config)
        assert not again.report.changed

    def test_optimized_output_checks_clean_of_own_rules(self):
        # The checker's RC003/RC005/RC006 are exactly what the optimizer
        # removes: its output must not retrigger them.
        w = workload("cmp")
        config = machine(3)
        out = compile_module(w.module(1), config)
        report = check_program(out.program, config)
        counts = report.counts()
        assert not {"RC003", "RC005", "RC006"} & set(counts), report.render()


# ---------------------------------------------------------------------------
# The once-per-round hoist check against the trial-based oracle


class TestHoistOracle:
    """``optimize_connects`` judges hoists without trial programs; the
    oracle in ``connectopt_oracle`` builds one per candidate and re-solves.
    Both must emit the same program and the same report everywhere the
    sweeps compile with RC."""

    def test_matches_trial_oracle_on_every_sweep_point(self):
        import connectopt_oracle
        from helpers import compile_options, shared_runner, sweep_points

        from repro.isa.asmfmt import format_listing

        runner = shared_runner()
        compared = hoisted = 0
        for job in sweep_points():
            if not job.config.has_rc:
                continue
            _module, front = runner.front_end(job.benchmark, job.opt_level,
                                              job.unroll_factor)
            options = compile_options(job)
            options.opt_connects = False
            program = compile_module(_module, job.config, options,
                                     front_end=front).program
            new = optimize_connects(program, job.config)
            old = connectopt_oracle.optimize_connects(program, job.config)
            where = f"{job.benchmark} on {job.config.describe()}"
            assert (format_listing(new.program.instrs)
                    == format_listing(old.program.instrs)), where
            assert new.program.targets == old.program.targets, where
            assert new.report == old.report, where
            compared += 1
            hoisted += new.report.hoisted
        assert compared >= 60
        assert hoisted > 0  # the hoist path is exercised

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_mask_states_equal_set_states(self, model):
        """The int-mask map state is the site-free set state, bit for
        bit, at every block entry."""
        import connectopt_oracle

        from repro.analyze.cfg import build_cfg
        from repro.analyze.dataflow import solve_forward
        from repro.analyze.optimize import _MapState, _effects

        for name in ("eqntott", "tomcatv"):
            cls = RClass.FP if workload(name).kind == "fp" else RClass.INT
            config = machine(model, cls=cls)
            program = compile_module(
                workload(name).module(1), config,
                CompileOptions(opt_connects=False)).program
            effects = _effects(program, config)
            for fn in build_cfg(program).functions:
                masks = solve_forward(fn, _MapState(config, effects),
                                      program.instrs).block_in
                sets = solve_forward(fn, connectopt_oracle.SetMapState(config),
                                     program.instrs).block_in
                assert masks.keys() == sets.keys()
                for start, state in masks.items():
                    for ci, amap in enumerate(state):
                        ref = sets[start].get((RClass.INT, RClass.FP)[ci])
                        if amap is None:
                            assert ref is None
                            continue
                        for which in ("read", "write"):
                            got = getattr(amap, which)
                            want = getattr(ref, which)
                            assert got.keys() == want.keys()
                            for ri, entry in got.items():
                                assert ({(p, None) for p in
                                         amap.physical(entry)}
                                        == want[ri])
