"""Compile-pipeline speed benchmark: reference profiling interpreter vs the
specializing fast interpreter (:mod:`repro.ir.fastinterp`), and the connect
optimizer's share of compile time at the paper's RC configuration.

Measures end-to-end :func:`~repro.compiler.compile_module` wall time for
every benchmark at scale ``REPRO_SCALE`` (default 1) on the default paper
machine, under two engine settings:

* **reference** — ``CompileOptions(ir_engine="reference")``: the original
  tree-walking profiling interpreter;
* **fast** — ``CompileOptions(ir_engine="fast")``: the specializing
  interpreter (the default).

Methodology: each (benchmark, engine) point is compiled once cold, then
``--repeat`` more times with best-of taken as the warm number.  A separate
metrics compile per engine collects the per-pass breakdown (reusing
:class:`~repro.observe.passes.PassMetrics`); it is never the timed run,
since metrics compiles snapshot IR around every stage.

It then compiles every benchmark for reset models 1-5 with RC on its hot
register class (16 integer / 32 FP core registers, the other file at 64,
4-issue) and times :func:`~repro.analyze.optimize_connects` on the same
input program the pipeline hands it, best-of ``--repeat`` for both.

Gates, checked on every benchmark:

* the fast engine's :class:`~repro.ir.interp.Profile` equals the
  reference engine's (block, branch, and call counts);
* the emitted assembly (``format_listing``) is byte-identical between the
  two engines;
* over all RC points, connect-opt takes at most ``MAX_CONNECT_OPT_SHARE``
  (25%) of ``compile_module`` time.

Usage::

    PYTHONPATH=src python benchmarks/bench_compile.py [-o BENCH_compile.json]

Exits non-zero when a gate fails.  Speedup numbers are informational (CI
uploads them as an artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analyze import optimize_connects  # noqa: E402
from repro.compiler import CompileOptions, compile_module  # noqa: E402
from repro.isa import RClass  # noqa: E402
from repro.isa.asmfmt import format_listing  # noqa: E402
from repro.observe import PassMetrics  # noqa: E402
from repro.rc import RCModel  # noqa: E402
from repro.sim import MachineConfig, paper_machine  # noqa: E402
from repro.workloads import ALL_BENCHMARKS, build_workload, workload  # noqa: E402

#: RC points: core registers of the hot class (int, fp) and reset models.
RC_CORES = (16, 32)
RC_MODELS = (1, 2, 3, 4, 5)
#: Connect-opt's largest allowed share of compile time over the RC points.
MAX_CONNECT_OPT_SHARE = 0.25


def _options(engine: str) -> CompileOptions:
    return CompileOptions(ir_engine=engine)


def _rc_config(name: str, model: int) -> MachineConfig:
    if workload(name).kind == "int":
        return paper_machine(int_core=RC_CORES[0], rc_class=RClass.INT,
                             rc_model=RCModel(model))
    return paper_machine(fp_core=RC_CORES[1], rc_class=RClass.FP,
                         rc_model=RCModel(model))


def _best_of(run, repeat: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_rc(name: str, scale: int, repeat: int) -> list[dict]:
    """Compile time and connect-opt time per reset model at RC 16/32."""
    module = build_workload(name, scale=scale)
    rows = []
    for model in RC_MODELS:
        config = _rc_config(name, model)
        program = compile_module(module, config, CompileOptions(
            opt_connects=False)).program
        result = optimize_connects(program, config)
        rows.append({
            "benchmark": name,
            "model": model,
            "compile_seconds": _best_of(
                lambda: compile_module(module, config), repeat),
            "connect_opt_seconds": _best_of(
                lambda: optimize_connects(program, config), repeat),
            "connects_before": result.report.connects_before,
            "connects_removed": result.report.removed,
            "hoisted": result.report.hoisted,
        })
    return rows


def _time_compile(module, config, engine: str, repeat: int) -> tuple[float, float]:
    """(cold_seconds, warm_seconds) for one benchmark under one engine."""
    t0 = time.perf_counter()
    compile_module(module, config, _options(engine))
    cold = time.perf_counter() - t0
    warm = cold
    for _ in range(repeat):
        t0 = time.perf_counter()
        compile_module(module, config, _options(engine))
        warm = min(warm, time.perf_counter() - t0)
    return cold, warm


def _pass_rows(module, config, engine: str) -> list[dict]:
    metrics = PassMetrics()
    compile_module(module, config, _options(engine), metrics=metrics)
    return metrics.to_rows()


def bench_benchmark(name: str, scale: int, repeat: int) -> tuple[dict, list]:
    module = build_workload(name, scale=scale)
    config = MachineConfig()
    problems: list[str] = []

    # Parity gates: engine invariance of the emitted program.
    ref_out = compile_module(module, config, _options("reference"))
    fast_out = compile_module(module, config, _options("fast"))
    ref_asm = format_listing(ref_out.program.instrs)
    fast_asm = format_listing(fast_out.program.instrs)
    if ref_out.profile != fast_out.profile:
        problems.append(f"{name}: fast-engine profile diverges from reference")
    if ref_asm != fast_asm:
        problems.append(f"{name}: assembly differs between IR engines")

    ref_cold, ref_warm = _time_compile(module, config, "reference", repeat)
    fast_cold, fast_warm = _time_compile(module, config, "fast", repeat)

    point = {
        "benchmark": name,
        "functions": len(module.functions),
        "instructions": len(ref_out.program),
        "ref_cold_seconds": ref_cold,
        "ref_warm_seconds": ref_warm,
        "fast_cold_seconds": fast_cold,
        "fast_warm_seconds": fast_warm,
        "speedup_cold": ref_cold / fast_cold,
        "speedup_warm": ref_warm / fast_warm,
        "passes_reference": _pass_rows(module, config, "reference"),
        "passes_fast": _pass_rows(module, config, "fast"),
    }
    return point, problems


def _aggregate_passes(points: list[dict], key: str) -> dict[str, float]:
    """Summed per-pass seconds across all benchmarks for one engine."""
    totals: dict[str, float] = {}
    for point in points:
        for row in point[key]:
            totals[row["pass"]] = totals.get(row["pass"], 0.0) + row["seconds"]
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report here "
                             "(default: stdout only)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per engine (best-of)")
    parser.add_argument("--scale", type=int,
                        default=int(os.environ.get("REPRO_SCALE", "1")))
    args = parser.parse_args(argv)

    points, problems, rc_rows = [], [], []
    for name in ALL_BENCHMARKS:
        point, probs = bench_benchmark(name, args.scale, args.repeat)
        points.append(point)
        problems.extend(probs)
        rc_rows.extend(bench_rc(name, args.scale, args.repeat))
    rc_compile = sum(r["compile_seconds"] for r in rc_rows)
    rc_copt = sum(r["connect_opt_seconds"] for r in rc_rows)
    share = rc_copt / rc_compile
    if share > MAX_CONNECT_OPT_SHARE:
        problems.append(f"connect-opt takes {share:.1%} of compile time at "
                        f"RC {RC_CORES[0]}/{RC_CORES[1]} (gate "
                        f"{MAX_CONNECT_OPT_SHARE:.0%})")

    ref_cold = sum(p["ref_cold_seconds"] for p in points)
    ref_warm = sum(p["ref_warm_seconds"] for p in points)
    fast_cold = sum(p["fast_cold_seconds"] for p in points)
    fast_warm = sum(p["fast_warm_seconds"] for p in points)
    report = {
        "scale": args.scale,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "parity_failures": problems,
        "rc_cores": list(RC_CORES),
        "rc_compile_seconds": rc_compile,
        "rc_connect_opt_seconds": rc_copt,
        "connect_opt_share": share,
        "max_connect_opt_share": MAX_CONNECT_OPT_SHARE,
        "connects_removed": sum(r["connects_removed"] for r in rc_rows),
        "connects_before": sum(r["connects_before"] for r in rc_rows),
        "ref_cold_seconds": ref_cold,
        "ref_warm_seconds": ref_warm,
        "fast_cold_seconds": fast_cold,
        "fast_warm_seconds": fast_warm,
        "speedup_cold": ref_cold / fast_cold,
        "speedup_warm": ref_warm / fast_warm,
        "pass_seconds_reference": _aggregate_passes(points,
                                                    "passes_reference"),
        "pass_seconds_fast": _aggregate_passes(points, "passes_fast"),
        "points": points,
        "rc_points": rc_rows,
    }
    text = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")

    print(f"compile set ({len(points)} benchmarks, scale {args.scale}): "
          f"ref {ref_warm:.3f}s warm / {ref_cold:.3f}s cold, "
          f"fast {fast_warm:.3f}s warm / {fast_cold:.3f}s cold "
          f"-> {report['speedup_warm']:.2f}x warm, "
          f"{report['speedup_cold']:.2f}x cold")
    slowest = max(points, key=lambda p: p["ref_warm_seconds"])
    print(f"slowest     {slowest['benchmark']}: "
          f"ref {slowest['ref_warm_seconds']:.3f}s, "
          f"fast {slowest['fast_warm_seconds']:.3f}s "
          f"({slowest['speedup_warm']:.2f}x)")
    for engine in ("reference", "fast"):
        rows = report[f"pass_seconds_{engine}"]
        top = sorted(rows.items(), key=lambda kv: -kv[1])[:4]
        shown = ", ".join(f"{name} {secs * 1e3:.0f}ms" for name, secs in top)
        print(f"passes ({engine}): {shown}")
    print(f"RC {RC_CORES[0]}/{RC_CORES[1]}, models 1-5 ({len(rc_rows)} "
          f"points): compile {rc_compile:.3f}s, connect-opt {rc_copt:.3f}s "
          f"({share:.1%}, gate {MAX_CONNECT_OPT_SHARE:.0%}); "
          f"{report['connects_removed']} of {report['connects_before']} "
          f"static connects removed")
    if problems:
        print(f"GATE FAILURES ({len(problems)}):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("gates: OK (profiles equal, assembly byte-identical across "
          "engines, connect-opt within its share of compile time)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
