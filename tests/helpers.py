"""Shared test helpers: small IR programs used across test modules."""

from __future__ import annotations

import functools

from repro.ir import FnBuilder, Module


def sum_to_n_module(n: int = 10) -> Module:
    """main: sum 1..n into global 'out'."""
    m = Module("sum_to_n")
    m.add_global("out", 1)
    b = FnBuilder(m, "main")
    total = b.li(0, name="total")
    i = b.li(1, name="i")
    limit = b.li(n, name="limit")
    out = b.la("out")
    b.block("loop")
    b.add(total, i, dest=total)
    b.add(i, 1, dest=i)
    b.br("ble", i, limit, "loop")
    b.block("exit")
    b.store(total, out, 0)
    b.halt()
    b.done()
    return m


def call_module() -> Module:
    """main calls square(7) and adds 1; result in global 'out'."""
    m = Module("call_demo")
    m.add_global("out", 1)

    b = FnBuilder(m, "square", params=[("i", "x")], ret="i")
    (x,) = b.params
    sq = b.mul(x, x)
    b.ret(sq)
    b.done()

    b = FnBuilder(m, "main")
    r = b.call("square", [7], ret="i")
    r2 = b.add(r, 1)
    b.store(r2, b.la("out"), 0)
    b.halt()
    b.done()
    return m


def fp_module() -> Module:
    """main: out = 1.5 * 2.0 + 0.25 (double precision)."""
    m = Module("fp_demo")
    m.add_global("fout", 1)
    b = FnBuilder(m, "main")
    a = b.fli(1.5)
    c = b.fli(2.0)
    d = b.fmul(a, c)
    e = b.fli(0.25)
    f = b.fadd(d, e)
    b.fstore(f, b.la("fout"), 0)
    b.halt()
    b.done()
    return m


def diamond_module() -> Module:
    """main with an if/else diamond writing 1 or 2 to 'out' based on 'sel'."""
    m = Module("diamond")
    m.add_global("sel", 1, [1])
    m.add_global("out", 1)
    b = FnBuilder(m, "main")
    sel = b.load(b.la("sel"), 0)
    b.br("bnez", sel, target="then")
    b.block("else_")
    v = b.li(2, name="v")
    b.jmp("join")
    b.block("then")
    b.li(1, dest=v)
    b.jmp("join")
    b.block("join")
    b.store(v, b.la("out"), 0)
    b.halt()
    b.done()
    return m


@functools.lru_cache(maxsize=None)
def sweep_points() -> tuple:
    """Every distinct compile the full figure suite makes over the twelve
    kernels, plus each kernel on reset models 1-5 at 16 int / 32 FP cores
    with RC and on the 64-register machine without RC, as ``SweepJob``s."""
    from repro.experiments import ALL_FIGURES, SweepExecutor, SweepJob
    from repro.experiments.figures import _config
    from repro.experiments.runner import _compile_key
    from repro.rc import RCModel
    from repro.sim import paper_machine
    from repro.workloads import ALL_BENCHMARKS

    executor = SweepExecutor(runner=shared_runner(), jobs=1)
    jobs = [job for fn in ALL_FIGURES.values()
            for job in executor.collect_jobs(fn, ALL_BENCHMARKS)]
    for name in ALL_BENCHMARKS:
        jobs.append(SweepJob(name, paper_machine()))
        jobs.extend(SweepJob(name, _config(name, rc=True, int_core=16,
                                           fp_core=32, model=RCModel(m)))
                    for m in range(1, 6))
    points = {}
    for job in jobs:
        key = (job.benchmark, _compile_key(job.config), job.opt_level,
               job.unroll_factor, job.num_windows)
        points.setdefault(key, job)
    return tuple(points.values())


@functools.lru_cache(maxsize=None)
def shared_runner():
    """One scale-1 runner whose front ends the sweep-point tests share
    (they only compile, so its record cache is never touched)."""
    from repro.experiments import ExperimentRunner

    return ExperimentRunner(scale=1, cache_dir="unused-record-cache")


def compile_options(job):
    """The ``CompileOptions`` the runner uses for *job*."""
    from repro.compiler import CompileOptions, OptOptions
    from repro.compiler.regalloc.allocator import AllocationOptions

    return CompileOptions(
        opt=OptOptions(level=job.opt_level, unroll_factor=job.unroll_factor),
        alloc=AllocationOptions(num_windows=job.num_windows))
