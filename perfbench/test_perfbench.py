"""Self-tests for the benchmark: ``python3 -m pytest perfbench``.

They check that the metrics the benchmark prints are the ones
``BENCHMARK.json`` declares, that wrapping the program's functions in
spans leaves every result bit-identical, and run a small version of each
workload through the same code paths as a real run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small stand-ins for the real workloads: same engines, workers and
#: code paths, a fraction of the points.
SMOKE = {
    "figures": {**workloads.WORKLOADS["figures"],
                "figures": ("table1", "figure7", "figure9", "figure12",
                            "ablation_cpistack"),
                "benchmarks": ("cmp", "matrix300")},
    "sim_x4": {**workloads.WORKLOADS["sim_x4"], "scale": 2,
               "figures": ("figure12",), "benchmarks": ("grep", "eqn")},
    "serve_mixed": workloads.WORKLOADS["serve_mixed"],
}


def smoke_mix(seed: int) -> list[dict]:
    mix = [job for job in workloads.serve_jobs(seed)
           if job["benchmark"] in ("grep", "matrix300")]
    return mix + mix[:2]


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", SMOKE)
    monkeypatch.setattr(bench, "serve_jobs", smoke_mix)


def _run(workload: str, trace: bool) -> bench.Outcome:
    run = bench.Run(workload, seed=3)
    out = bench.Outcome()
    try:
        if run.spec["kind"] == "sweep":
            if trace:
                bench.sweep_trace(run, out)
            else:
                bench.sweep_e2e(run, 0, out)
        elif trace:
            bench.serve_trace(run, out)
        else:
            bench.serve_e2e(run, 0, out)
    finally:
        run.close()
    return out


# -- declarations ---------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(
        workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in DECLARED["workloads"])
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_per_layer_declared_once_with_expectation():
    declared = {m["name"]: (m["unit"], m["better"])
                for m in DECLARED["per_layer"]}
    assert declared == {name: (unit, better) for name, (unit, better, _)
                        in layers.PER_LAYER.items()}
    assert all(why for _unit, _better, why in layers.PER_LAYER.values())


@pytest.mark.parametrize("workload", list(SMOKE))
def test_smoke_workload_prints_declared_metrics(smoke, workload):
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        out = _run(workload, trace)
        assert out.attempted > 0
        assert out.failures == []
        assert set(out.metrics) >= {m["name"] for m in DECLARED[group]}


def test_command_prints_json_last():
    """The real command line, on the smallest workload."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sim_x4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]}


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- inputs ---------------------------------------------------------------------


def test_names_match_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import ALL_FIGURES
    from repro.workloads import ALL_BENCHMARKS

    assert workloads.ALL_BENCHMARKS == ALL_BENCHMARKS
    assert workloads.ALL_FIGURES == tuple(ALL_FIGURES)


def test_serve_mix_is_seeded_and_a_third_repeats():
    mix = workloads.serve_jobs(5)
    assert mix == workloads.serve_jobs(5)
    assert mix != workloads.serve_jobs(6)
    keys = [json.dumps(job, sort_keys=True) for job in mix]
    repeats = len(keys) - len(set(keys))
    assert repeats == 12 * (workloads.REPEATS_NO_RC + workloads.REPEATS_RC)
    assert 0.3 < repeats / len(mix) < 0.4
    seen: dict[str, int] = {}
    late = 0
    for i, key in enumerate(keys):
        if key in seen:
            late += i - seen[key] < workloads.REPEAT_GAP
        else:
            seen[key] = i
    assert late <= 2  # only an original among the last few jobs


# -- the tracer -----------------------------------------------------------------


def test_self_times_add_up_to_root_duration(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    leaf_w = tracing._wrap(tracer, lambda: sum(range(20000)), "leaf")
    mid_w = tracing._wrap(tracer, lambda: (leaf_w(), leaf_w()), "mid")
    root_w = tracing._wrap(tracer, lambda: (mid_w(), leaf_w()), "root")
    root_w()
    spans = tracer.snapshot()["spans"]
    assert spans["leaf"][2] == 3 and spans["mid"][2] == 1
    total_self = sum(v[0] for v in spans.values())
    assert total_self == pytest.approx(spans["root"][1], rel=1e-9)


def test_forked_child_flushes_its_own_totals(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    work = tracing._wrap(tracer, lambda: None, "work")
    with tracer.lane("outer"):
        pid = os.fork()
        if pid == 0:  # the child: starts empty, flushes at root end
            work()
            os._exit(0)
        os.waitpid(pid, 0)
    child = json.loads((tmp_path / f"trace-{pid}.json").read_text())
    assert set(child["spans"]) == {"work"}
    total = tracing.collect(tmp_path, tracer.snapshot())
    assert set(total["spans"]) == {"work", "lane.outer"}


# -- wrappers leave results bit-identical ----------------------------------------


def _unit(run: bench.Run, hash_seed: int, trace: bool, **spec) -> dict:
    return run.unit("x", run.fresh_dir("c"), trace=trace, jobs=1,
                    hash_seed=hash_seed, **spec)


@pytest.mark.parametrize("workload", ["figures", "sim_x4"])
def test_traced_sweep_records_identical(smoke, workload):
    run = bench.Run(workload, seed=1)
    try:
        plain = _unit(run, 1234, False)
        traced = _unit(run, 1234, True)
    finally:
        run.close()
    assert plain["points"] and plain["points"] == traced["points"]
    assert plain["output"] == traced["output"]
    assert traced["trace"]["spans"]["compiler.compile"][2] > 0


def test_traced_serve_results_identical(smoke):
    run = bench.Run("serve_mixed", seed=1)
    mix = smoke_mix(1)
    try:
        plain = _unit(run, 99, False, mix=mix, warm_reps=1)
        traced = _unit(run, 99, True, mix=mix, warm_reps=1)
    finally:
        run.close()
    assert plain["failures"] == traced["failures"] == []
    assert plain["points"] and plain["points"] == traced["points"]
    assert traced["trace"]["spans"]["lane.serve_worker"][2] > 0
