"""Tests for the sweep executor and the reworked experiment cache layer.

Covers the cache-key collision fix (full latency tuple + max_cycles),
corrupt/old-schema cache eviction, automatic code-fingerprint
invalidation, and serial/parallel sweep equivalence.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.experiments import (
    ExperimentRunner,
    SweepExecutor,
    SweepJob,
    code_fingerprint,
    figure7,
)
from repro.experiments import executor as executor_mod
from repro.experiments import runner as runner_mod
from repro.experiments.runner import _config_key, _store_key
from repro.isa import LatencyModel
from repro.sim import MachineConfig, unlimited_machine


@pytest.fixture()
def runner(tmp_path):
    return ExperimentRunner(scale=1, cache_dir=tmp_path / "cache")


def _cfg(**lat):
    return MachineConfig(issue_width=2, latency=LatencyModel(**lat))


class TestConfigKey:
    def test_distinct_for_unkeyed_latency(self):
        """Regression: configs differing only in a non-load/connect latency
        must not collide (they previously shared one cache record)."""
        a = _cfg()
        b = _cfg(int_mul=5)
        c = _cfg(fp_div=12)
        keys = {_config_key(x) for x in (a, b, c)}
        assert len(keys) == 3

    def test_distinct_for_max_cycles(self):
        a = MachineConfig(issue_width=2)
        b = MachineConfig(issue_width=2, max_cycles=1_000_000)
        assert _config_key(a) != _config_key(b)

    def test_covers_every_latency_field(self):
        base = _config_key(_cfg())
        for f in dataclasses.fields(LatencyModel):
            if f.name == "load":
                other = _cfg(load=4)
            elif f.name == "connect":
                other = _cfg(connect=1)
            else:
                other = _cfg(**{f.name: getattr(LatencyModel(), f.name) + 1})
            assert _config_key(other) != base, f.name

    def test_distinct_cached_cycles(self, runner):
        """The two keys must map to independently computed records."""
        fast = runner.run("cmp", _cfg())
        slow = runner.run("cmp", _cfg(int_alu=3))
        assert fast.cycles != slow.cycles
        # And both survive in the cache side by side.
        assert runner.cached("cmp", _cfg()).cycles == fast.cycles
        assert runner.cached("cmp", _cfg(int_alu=3)).cycles == slow.cycles


class TestCacheHygiene:
    @staticmethod
    def _path(runner, key):
        return runner.store._path(_store_key(key))

    def test_corrupt_cache_file_deleted_and_recomputed(self, runner):
        cfg = _cfg()
        rec = runner.run("cmp", cfg)
        key = runner.cache_key("cmp", cfg)
        path = self._path(runner, key)
        assert path.exists()
        path.write_bytes(b"not json")
        fresh = ExperimentRunner(scale=1, cache_dir=runner.cache_dir)
        assert fresh._load(key) is None
        assert not path.exists()  # bad file evicted, not re-parsed forever
        assert fresh.run("cmp", cfg) == rec
        assert fresh.cache_misses == 1

    def test_stale_schema_document_replaced(self, runner):
        """A document written under another RunRecord schema is a miss,
        and the recompute overwrites it with a loadable record."""
        cfg = _cfg()
        rec = runner.run("cmp", cfg)
        key = runner.cache_key("cmp", cfg)
        path = self._path(runner, key)
        stale = json.loads(path.read_text())
        del stale["mispredicts"]
        path.write_text(json.dumps(stale))
        fresh = ExperimentRunner(scale=1, cache_dir=runner.cache_dir)
        assert fresh._load(key) is None
        assert fresh.run("cmp", cfg) == rec
        assert fresh.cache_misses == 1
        reader = ExperimentRunner(scale=1, cache_dir=runner.cache_dir)
        assert reader.cached("cmp", cfg) == rec

    def test_record_round_trips_through_json(self, runner):
        cfg = _cfg()
        rec = runner.run("cmp", cfg, collect_cpi=True)
        fresh = ExperimentRunner(scale=1, cache_dir=runner.cache_dir)
        assert fresh.cached("cmp", cfg, collect_cpi=True) == rec

    def test_atomic_store_leaves_no_tmp_files(self, runner):
        runner.run("cmp", _cfg())
        runner.run("cmp", _cfg(int_alu=3))
        assert list(runner.cache_dir.rglob("*.json"))
        assert list(runner.cache_dir.rglob("*.tmp")) == []

    def test_hit_miss_counters(self, runner):
        cfg = _cfg()
        runner.run("cmp", cfg)
        runner.run("cmp", cfg)
        assert runner.cache_misses == 1
        assert runner.cache_hits == 1


class TestFingerprint:
    def test_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()

    @pytest.mark.parametrize("package, source", [
        ("repro.sim", "core.py"),
        # The connect optimizer runs inside every RC compile.
        ("repro.analyze", "optimize.py"),
    ], ids=["repro.sim", "repro.analyze"])
    def test_fingerprint_tracks_source_edits(self, tmp_path, monkeypatch,
                                             package, source):
        """Editing any fingerprinted source file must change the hash."""
        import importlib
        import shutil

        pkg = importlib.import_module(package)
        copy = tmp_path / "pkg"
        shutil.copytree(pkg.__path__[0], copy)
        before = code_fingerprint(refresh=True)
        monkeypatch.setattr(pkg, "__path__", [str(copy)])
        assert code_fingerprint(refresh=True) == before  # same content
        (copy / source).write_text(
            (copy / source).read_text() + "\n# edited\n")
        assert code_fingerprint(refresh=True) != before
        monkeypatch.undo()
        code_fingerprint(refresh=True)

    def test_fingerprint_imports_no_package(self):
        """Hashing a package must not import it: a warm re-render never
        loads the connect optimizer and should not pay for it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys; from repro.experiments import code_fingerprint; "
                "code_fingerprint(); print('repro.analyze' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"

    def test_fingerprint_change_invalidates_cache(self, tmp_path, monkeypatch):
        """Acceptance: a code change (monkeypatched fingerprint) makes
        previously cached records invisible — no manual version bump."""
        cfg = _cfg()
        r1 = ExperimentRunner(scale=1, cache_dir=tmp_path / "c")
        r1.run("cmp", cfg)

        monkeypatch.setattr(runner_mod, "_fingerprint_cache", "deadbeef")
        r2 = ExperimentRunner(scale=1, cache_dir=tmp_path / "c")
        assert r2._fingerprint == "deadbeef"
        assert r2.cached("cmp", cfg) is None
        r2.run("cmp", cfg)
        assert r2.cache_misses == 1 and r2.cache_hits == 0


class TestSweepExecutor:
    def _jobs(self):
        return [
            SweepJob("cmp", unlimited_machine(1), opt_level="scalar"),
            SweepJob("cmp", _cfg()),
            SweepJob("cmp", _cfg(int_alu=3)),
            SweepJob("grep", _cfg()),
        ]

    def test_serial_executor_matches_runner(self, runner, tmp_path):
        serial = ExperimentRunner(scale=1, cache_dir=tmp_path / "serial")
        expected = [serial.run(j.benchmark, j.config, **j.kwargs())
                    for j in self._jobs()]
        ex = SweepExecutor(runner=runner, jobs=1)
        results = ex.run(self._jobs())
        assert [r.record for r in results] == expected
        assert ex.stats.misses == 4 and ex.stats.hits == 0

    def test_parallel_matches_serial_record_for_record(self, tmp_path):
        serial = ExperimentRunner(scale=1, cache_dir=tmp_path / "serial")
        expected = [serial.run(j.benchmark, j.config, **j.kwargs())
                    for j in self._jobs()]
        par_runner = ExperimentRunner(scale=1, cache_dir=tmp_path / "par")
        ex = SweepExecutor(runner=par_runner, jobs=2)
        results = ex.run(self._jobs())
        assert [r.record for r in results] == expected
        assert all(not r.from_cache for r in results)
        # Second pass: everything a cache hit, no pool traffic.
        again = SweepExecutor(runner=par_runner, jobs=2).run(self._jobs())
        assert [r.record for r in again] == expected
        assert all(r.from_cache for r in again)

    def test_parallel_and_serial_caches_byte_identical(self, tmp_path):
        """Acceptance: cold parallel run produces byte-identical RunRecords
        (JSON documents) to the serial path."""
        serial = ExperimentRunner(scale=1, cache_dir=tmp_path / "serial")
        SweepExecutor(runner=serial, jobs=1).run(self._jobs())
        par = ExperimentRunner(scale=1, cache_dir=tmp_path / "par")
        SweepExecutor(runner=par, jobs=2).run(self._jobs())

        def documents(root):
            return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                          if p.is_file())

        serial_files = documents(tmp_path / "serial")
        assert serial_files == documents(tmp_path / "par")
        assert len(serial_files) == len(self._jobs())
        for name in serial_files:
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "par" / name).read_bytes())

    def test_duplicate_jobs_computed_once(self, runner):
        job = SweepJob("cmp", _cfg())
        ex = SweepExecutor(runner=runner, jobs=2)
        results = ex.run([job, job, job])
        assert len(results) == 3
        assert len({r.record.cycles for r in results}) == 1
        assert runner.cache_misses == 1

    def test_progress_callback_sees_every_job(self, runner):
        seen = []
        ex = SweepExecutor(runner=runner, jobs=1,
                           progress=lambda done, total, res:
                           seen.append((done, total, res.from_cache)))
        ex.run(self._jobs())
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == 4 for s in seen)

    def test_errors_are_reported_not_raised(self, runner):
        ex = SweepExecutor(runner=runner, jobs=1)
        results = ex.run([SweepJob("doom", _cfg())])
        assert results[0].record is None
        assert "doom" in results[0].error or "ConfigError" in results[0].error
        assert ex.stats.errors == 1

    def test_run_figure_footer_and_values(self, runner, tmp_path):
        ex = SweepExecutor(runner=runner, jobs=1)
        fig = ex.run_figure(figure7, benchmarks=("cmp",))
        assert fig.footer is not None and "cache hits" in fig.footer
        assert "[sweep:" in fig.render()
        # The executor-driven figure matches the plain serial figure.
        plain = figure7(
            ExperimentRunner(scale=1, cache_dir=tmp_path / "plain"),
            benchmarks=("cmp",))
        assert [s.values for s in fig.series] == [
            s.values for s in plain.series]

    def test_collect_jobs_dedupes_baseline(self, runner):
        ex = SweepExecutor(runner=runner, jobs=1)
        jobs = ex.collect_jobs(figure7, benchmarks=("cmp",))
        # 4 issue widths + 1 shared baseline, not 4 baselines.
        assert len(jobs) == 5


class TestBenchCommon:
    @pytest.fixture()
    def common(self, monkeypatch):
        from pathlib import Path

        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import _common

        monkeypatch.setattr(_common, "_runners", {})
        return _common

    def test_shared_runner_rekeys_on_env(self, common, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        r1 = common.shared_runner()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        r2 = common.shared_runner()
        assert r1 is not r2 and r1.cache_dir != r2.cache_dir
        monkeypatch.setenv("REPRO_SCALE", "2")
        r3 = common.shared_runner()
        assert r3 is not r2 and r3.scale == 2
        monkeypatch.setenv("REPRO_SCALE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        assert common.shared_runner() is r1  # memoized per env key

    def test_emit_creates_missing_results_tree(self, common, monkeypatch,
                                               tmp_path, capsys):
        from repro.experiments import FigureResult, Series

        target = tmp_path / "fresh" / "results"  # parent missing too
        monkeypatch.setattr(common, "RESULTS_DIR", target)
        fig = FigureResult("Figure X", "demo",
                           [Series("a", {"cmp": 1.0})])
        common.emit(fig)
        assert (target / "figurex.txt").exists()


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert executor_mod.default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert executor_mod.default_jobs() >= 1
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert executor_mod.default_jobs() == 1


class TestCpiCollection:
    def test_run_attaches_validated_cpi_dict(self, runner):
        rec = runner.run("cmp", _cfg(), collect_cpi=True)
        cpi = rec.cpi
        assert cpi is not None
        assert cpi["issue"] + cpi["raw_interlock"] + cpi["map_busy"] \
            + sum(cpi["redirect"].values()) == cpi["cycles"] == rec.cycles

    def test_cpi_observation_does_not_change_the_record(self, runner,
                                                        tmp_path):
        plain = ExperimentRunner(scale=1, cache_dir=tmp_path / "plain")
        a = plain.run("cmp", _cfg())
        b = runner.run("cmp", _cfg(), collect_cpi=True)
        assert (a.cycles, a.instructions, a.ipc) == \
            (b.cycles, b.instructions, b.ipc)

    def test_cpi_less_cache_record_upgraded_in_place(self, runner):
        without = runner.run("cmp", _cfg())
        assert without.cpi is None
        assert runner.cached("cmp", _cfg(), collect_cpi=True) is None
        upgraded = runner.run("cmp", _cfg(), collect_cpi=True)
        assert upgraded.cpi is not None
        assert upgraded.cycles == without.cycles
        assert runner.cache_misses == 2
        # The upgrade sticks: both flavours of lookup now hit.
        assert runner.run("cmp", _cfg()).cpi is not None
        assert runner.run("cmp", _cfg(), collect_cpi=True) is upgraded
        assert runner.cache_misses == 2

    def test_collect_jobs_upgrades_deduped_job(self, runner):
        ex = SweepExecutor(runner=runner, jobs=1, collect_cpi=True)
        jobs = ex.collect_jobs(figure7, benchmarks=("cmp",))
        assert jobs and all(j.collect_cpi for j in jobs)

    def test_executor_collects_cpi_per_job(self, runner):
        ex = SweepExecutor(runner=runner, jobs=1, collect_cpi=True)
        results = ex.run([SweepJob("cmp", _cfg())])
        assert results[0].record.cpi is not None

    def test_parallel_cpi_records_reach_parent_cache(self, tmp_path):
        par = ExperimentRunner(scale=1, cache_dir=tmp_path / "par")
        ex = SweepExecutor(runner=par, jobs=2, collect_cpi=True)
        results = ex.run([SweepJob("cmp", _cfg()),
                          SweepJob("grep", _cfg())])
        assert all(r.record.cpi is not None for r in results)
        assert par.cached("cmp", _cfg(), collect_cpi=True) is not None

    def test_figure_footer_gets_cpi_mix(self, runner):
        ex = SweepExecutor(runner=runner, jobs=1, collect_cpi=True)
        fig = ex.run_figure(figure7, benchmarks=("cmp",))
        assert "cpi mix:" in fig.footer
        assert "issue" in fig.footer

    def test_footer_unchanged_without_cpi(self, runner):
        ex = SweepExecutor(runner=runner, jobs=1)
        fig = ex.run_figure(figure7, benchmarks=("cmp",))
        assert "cpi mix:" not in fig.footer


class TestProcessSafeCounters:
    """The parent runner's cache counters must aggregate worker activity.

    Pool workers run jobs on their own (forked or freshly built) runners;
    counters bumped there used to be invisible to the parent, which instead
    guessed one miss per computed record and never saw compile-cache
    traffic.  Workers now ship a per-job counter delta back.
    """

    def _jobs(self):
        return [
            SweepJob("cmp", unlimited_machine(1), opt_level="scalar"),
            SweepJob("cmp", _cfg()),
            SweepJob("cmp", _cfg(int_alu=3)),
            SweepJob("grep", _cfg()),
        ]

    def test_parallel_cold_sweep_aggregates_worker_counters(self, tmp_path):
        runner = ExperimentRunner(scale=1, cache_dir=tmp_path / "c")
        ex = SweepExecutor(runner=runner, jobs=2)
        ex.run(self._jobs())
        # Every record computed exactly once, somewhere — and the parent's
        # totals say so, including the compile-side traffic that previously
        # vanished in the workers.
        assert runner.cache_misses == 4
        assert runner.cache_hits == 0
        assert runner.compile_misses == 4
        assert ex.stats.misses == 4

    def test_parallel_sim_only_variants_report_compile_traffic(self,
                                                               tmp_path):
        runner = ExperimentRunner(scale=1, cache_dir=tmp_path / "c")
        cfg = unlimited_machine(issue_width=4)
        jobs = [SweepJob("cmp", cfg),
                SweepJob("cmp", dataclasses.replace(cfg, max_cycles=10**8)),
                SweepJob("cmp", dataclasses.replace(cfg,
                                                    extra_decode_stage=True))]
        SweepExecutor(runner=runner, jobs=2).run(jobs)
        assert runner.cache_misses == 3
        # All three jobs share one compile key, so one worker simulates
        # them as one gang from a single compilation; the parent's totals
        # still see that worker's compile traffic.
        assert runner.compile_misses == 1 and runner.compile_hits == 0

    def test_serial_counters_unchanged(self, tmp_path):
        runner = ExperimentRunner(scale=1, cache_dir=tmp_path / "c")
        SweepExecutor(runner=runner, jobs=1).run(self._jobs())
        assert runner.cache_misses == 4
        assert runner.compile_misses == 4

    def test_counters_snapshot_roundtrip(self, tmp_path):
        runner = ExperimentRunner(scale=1, cache_dir=tmp_path / "c")
        before = runner.counters()
        assert before == {"cache_hits": 0, "cache_misses": 0,
                          "compile_hits": 0, "compile_misses": 0}
        runner.absorb_counters({"cache_hits": 2, "compile_misses": 1})
        assert runner.cache_hits == 2 and runner.compile_misses == 1


class TestCompileCache:
    def test_sim_only_variants_reuse_one_compilation(self, runner):
        cfg = unlimited_machine(issue_width=4)
        runner.run("cmp", cfg)
        assert runner.compile_misses == 1
        # extra_decode_stage and max_cycles are simulate-only: same program
        runner.run("cmp", dataclasses.replace(cfg, extra_decode_stage=True))
        runner.run("cmp", dataclasses.replace(cfg, max_cycles=10**8))
        assert runner.compile_misses == 1
        assert runner.compile_hits == 2

    def test_compile_affecting_fields_recompile(self, runner):
        cfg = unlimited_machine(issue_width=4)
        runner.run("cmp", cfg)
        runner.run("cmp", dataclasses.replace(cfg, issue_width=2))
        assert runner.compile_misses == 2
        assert runner.compile_hits == 0

    def test_sim_key_excluded_from_compile_key(self):
        from repro.experiments.runner import _compile_key, _sim_key

        cfg = unlimited_machine(issue_width=4)
        var = dataclasses.replace(cfg, extra_decode_stage=True,
                                  max_cycles=10**8)
        assert _compile_key(cfg) == _compile_key(var)
        assert _sim_key(cfg) != _sim_key(var)
        assert _config_key(cfg) != _config_key(var)

    def test_engine_excluded_from_record_keys(self, tmp_path):
        ref = ExperimentRunner(scale=1, cache_dir=tmp_path / "c",
                               engine="reference")
        fast = ExperimentRunner(scale=1, cache_dir=tmp_path / "c",
                                engine="fast")
        cfg = unlimited_machine(issue_width=2)
        assert (ref.cache_key("cmp", cfg) == fast.cache_key("cmp", cfg))
        # a record computed by one engine satisfies the other (bit-exact)
        rec_ref = ref.run("cmp", cfg)
        rec_fast = fast.run("cmp", cfg)
        assert rec_ref == rec_fast
        assert fast.cache_misses == 0 and fast.cache_hits == 1


class TestFrontEndMemo:
    """The runner computes each (benchmark, opt level, unroll) front end
    once and every compile's back end starts from a copy of it."""

    def test_memoized_compiles_match_fresh_on_every_sweep_point(self):
        from helpers import compile_options, shared_runner, sweep_points

        from repro.compiler import compile_module
        from repro.isa.asmfmt import format_listing

        shared = shared_runner()
        for job in sweep_points():
            module, out = shared._compiled_program(
                job.benchmark, job.config, job.opt_level, job.unroll_factor,
                job.num_windows)
            fresh = compile_module(module, job.config, compile_options(job))
            where = f"{job.benchmark} on {job.config.describe()}"
            assert (format_listing(out.program.instrs)
                    == format_listing(fresh.program.instrs)), where
            assert out.program.targets == fresh.program.targets, where
            assert out.stats == fresh.stats, where
            assert out.connect_opt == fresh.connect_opt, where

    def test_front_end_is_computed_once_per_key(self, runner, monkeypatch):
        calls = []
        real = runner_mod.compile_front_end

        def counted(module, *args, **kwargs):
            calls.append(module.name)
            return real(module, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "compile_front_end", counted)
        for issue in (1, 2, 4):
            runner.run("cmp", MachineConfig(issue_width=issue))
        runner.run("cmp", MachineConfig(), opt_level="scalar")
        assert len(calls) == 2
        assert runner.compile_misses == 4

    def test_pool_sweep_computes_front_ends_in_parent(self, tmp_path,
                                                       monkeypatch):
        import multiprocessing
        import os

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit front ends only when forked")
        log = tmp_path / "front-ends.log"
        real = runner_mod.compile_front_end

        def logged(module, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}:{module.name}:"
                         f"{args[0].opt.level if args else '-'}\n")
            return real(module, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "compile_front_end", logged)
        runner = ExperimentRunner(scale=1, cache_dir=tmp_path / "cache")
        ex = SweepExecutor(runner=runner, jobs=2)
        from repro.experiments import figure8

        ex.run_figure(figure7, benchmarks=("cmp", "grep"))
        ex.run_figure(figure8, benchmarks=("cmp", "grep"))
        assert ex.stats.misses > 0 and ex.stats.errors == 0
        entries = log.read_text().split()
        assert len(entries) == len(set(entries))  # once per key
        assert {e.split(":")[0] for e in entries} == {str(os.getpid())}
        assert set(runner._golden) == {"cmp", "grep"}
        assert not executor_mod._worker_runners


class TestGangs:
    """A cache-miss compile group of several points simulates as one gang;
    every other point runs on the fast engine by itself."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_figure12_gangs_match_reference(self, tmp_path, monkeypatch,
                                            jobs):
        from repro.experiments import figure12
        from repro.sim import BatchedSimulator

        # Gang sizes go to a file so pool workers' gangs are seen too.
        log = tmp_path / "gangs.log"
        real = BatchedSimulator.run

        def logged(self):
            with open(log, "a") as fh:
                fh.write(f"{len(self.configs)}\n")
            return real(self)

        monkeypatch.setattr(BatchedSimulator, "run", logged)
        runner = ExperimentRunner(scale=1, cache_dir=tmp_path / "gang")
        ex = SweepExecutor(runner=runner, jobs=jobs)
        sweep = ex.collect_jobs(figure12, benchmarks=("cmp",))
        results = ex.run(sweep)
        # The extra mapping-table stage is figure12's only simulate-only
        # axis: two compile groups of two points each, plus the baseline.
        assert ex.stats.gangs == 2 and ex.stats.max_gang == 2
        if multiprocessing.get_start_method() == "fork" or jobs == 1:
            assert log.read_text().split() == ["2", "2"]

        ref = ExperimentRunner(scale=1, cache_dir=tmp_path / "ref",
                               engine="reference")
        ref_results = SweepExecutor(runner=ref, jobs=1).run(sweep)
        assert all(r.error is None for r in results)
        for got, want in zip(results, ref_results):
            assert dataclasses.asdict(got.record) \
                == dataclasses.asdict(want.record), got.job.config.describe()

    def test_cpi_groups_do_not_gang(self, runner):
        cfg = unlimited_machine(issue_width=4)
        jobs = [SweepJob("cmp", cfg, collect_cpi=True),
                SweepJob("cmp", dataclasses.replace(
                    cfg, extra_decode_stage=True), collect_cpi=True)]
        ex = SweepExecutor(runner=runner, jobs=1)
        ex.run(jobs)
        assert ex.stats.gangs == 0 and ex.stats.groups == 1
