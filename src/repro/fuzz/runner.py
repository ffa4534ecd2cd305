"""The fuzzing loop: generate, oracle-check, mutate, shrink, report.

One *iteration* is either

* an **asm** iteration — one generated :class:`MachineProgram` checked for
  engine parity on the full model × width matrix, checker soundness on the
  (width, model) diagonal, plus a handful of mutants (parity again, and
  checker completeness for targeted ``nop_connect`` mutants and a
  load-latency perturbation config), or
* an **ir** iteration — one generated module checked for interpreter
  parity and compile determinism, then compiled for each fuzz model and
  the compiled output pushed through the machine-level oracles.

Before any new programs are generated the committed corpus is replayed:
every past reproducer must still pass its oracle, and every crash-corpus
file must still raise a diagnostic :class:`AsmError`.

Any oracle violation is minimized with :mod:`repro.fuzz.shrink` (when a
single-artifact predicate exists for it) and recorded as a
:class:`Divergence` carrying the reproducer text.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from repro.compiler import compile_module
from repro.fuzz.corpus import (
    default_corpus_root,
    iter_cases,
    module_from_json,
    module_to_json,
    program_to_text,
)
from repro.fuzz.gen_asm import AsmGenOptions, gen_machine_program
from repro.fuzz.gen_ir import IRGenOptions, gen_module
from repro.fuzz.mutate import mutate_program
from repro.fuzz.oracles import (
    FUZZ_MODELS,
    FUZZ_WIDTHS,
    GANG_MATRIX,
    GANG_PER_MODEL,
    Divergence,
    batched_parity,
    checker_soundness,
    compile_determinism,
    fuzz_configs,
    interp_parity,
    mutation_surfaced,
    opt_parity,
    resume_parity,
    sim_parity,
)
from repro.fuzz.shrink import shrink_machine, shrink_module
from repro.isa.asmparse import AsmError, parse_program
from repro.isa.registers import RClass
from repro.sim import paper_machine

#: Seeds for derived iterations are spread out so asm seed k, ir seed k and
#: mutation seed k never collide with the raw user seed space.
_SEED_STRIDE = 1 << 20


@dataclass
class FuzzOptions:
    seed: int = 0
    budget: int = 200
    level: str = "all"  # "asm" | "ir" | "all"
    jobs: int = 1
    #: Corpus root to replay (``None`` = auto-detect the repo's corpus/).
    corpus: Path | None = None
    replay_corpus: bool = True
    shrink: bool = True
    mutants_per_program: int = 2
    asm_opts: AsmGenOptions = field(default_factory=AsmGenOptions)
    ir_opts: IRGenOptions = field(default_factory=IRGenOptions)


@dataclass
class FuzzReport:
    options: FuzzOptions
    counters: dict = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    elapsed_sec: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.divergences

    def bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def merge(self, counters: dict, divergences: list[Divergence]) -> None:
        for key, value in counters.items():
            self.bump(key, value)
        self.divergences.extend(divergences)

    def to_dict(self) -> dict:
        return {
            "seed": self.options.seed,
            "budget": self.options.budget,
            "level": self.options.level,
            "jobs": self.options.jobs,
            "clean": self.clean,
            "counters": dict(sorted(self.counters.items())),
            "divergences": [d.to_dict() for d in self.divergences],
            "elapsed_sec": round(self.elapsed_sec, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _diagonal_configs(configs):
    """One config per fuzz model, at a rotating issue width: the subset the
    expensive per-program oracles (checker soundness, mutants) run on."""
    count = len(FUZZ_MODELS)
    return [configs[(i * len(FUZZ_WIDTHS) + i) % len(configs)]
            for i in range(count)]


def _config_tag(config) -> str:
    return (f"w{config.issue_width}-{config.rc_model.name.lower()}"
            f"-cl{config.latency.connect}")


def _perturbed_config():
    """The 'perturb latencies' point: same machine, load latency 4."""
    cfg = paper_machine(issue_width=2, load_latency=4, int_core=16,
                       fp_core=16, rc_class=RClass.INT,
                       rc_model=FUZZ_MODELS[1])
    return dataclasses.replace(cfg, max_cycles=1_000_000)


class _Session:
    """Single-process fuzzing over a list of iteration seeds."""

    def __init__(self, opts: FuzzOptions) -> None:
        self.opts = opts
        self.report = FuzzReport(options=opts)

    # -- divergence plumbing --------------------------------------------------

    def _record(self, div: Divergence) -> None:
        self.report.divergences.append(div)
        self.report.bump("divergences")

    def _shrunk_asm(self, program, predicate) -> str:
        if not self.opts.shrink:
            return program_to_text(program)
        return program_to_text(shrink_machine(program, predicate))

    def _shrunk_ir(self, module, predicate) -> str:
        if not self.opts.shrink:
            return module_to_json(module)
        return module_to_json(shrink_module(module, predicate))

    # -- asm level ------------------------------------------------------------

    def asm_iteration(self, seed: int) -> None:
        self.report.bump("asm_programs")
        gen = gen_machine_program(seed, self.opts.asm_opts)
        program = gen.program
        configs = fuzz_configs(gen.has_connects)
        diagonal = _diagonal_configs(configs)
        for config in configs:
            self._check_asm_parity(program, config, seed)
        for config in diagonal:
            self._check_soundness(program, config, seed)
        self._run_mutants(gen, diagonal, seed)
        self._check_asm_parity(program, _perturbed_config(), seed,
                               tag="load-latency=4")
        self._check_resume(program, diagonal[seed % len(diagonal)], seed)
        self._check_batched(program, seed)
        self._check_opt_parity(program, seed)

    def _check_opt_parity(self, program, seed) -> None:
        self.report.bump("opt_runs")
        problem = opt_parity(program)
        if problem is None:
            return
        predicate = lambda p: opt_parity(p) is not None  # noqa: E731
        self._record(Divergence(
            oracle="opt-parity", detail=problem, level="asm", seed=seed,
            config=GANG_MATRIX,
            reproducer=self._shrunk_asm(program, predicate)))

    def _check_batched(self, program, seed) -> None:
        self.report.bump("gang_runs")
        problem = batched_parity(program)
        if problem is None:
            return
        predicate = lambda p: batched_parity(p) is not None  # noqa: E731
        self._record(Divergence(
            oracle="batched-parity", detail=problem, level="asm", seed=seed,
            config=GANG_PER_MODEL,
            reproducer=self._shrunk_asm(program, predicate)))

    def _check_resume(self, program, config, seed) -> None:
        self.report.bump("resume_runs")
        problem = resume_parity(program, config)
        if problem is None:
            return
        predicate = lambda p: resume_parity(p, config) is not None  # noqa: E731
        self._record(Divergence(
            oracle="resume-parity", detail=problem, level="asm", seed=seed,
            config=_config_tag(config),
            reproducer=self._shrunk_asm(program, predicate)))

    def _check_asm_parity(self, program, config, seed, *,
                          mutation: str = "", tag: str = "") -> bool:
        self.report.bump("sim_runs")
        problem, used_fast = sim_parity(program, config)
        self.report.bump("fastpath_runs" if used_fast else "fallback_runs")
        if problem is None:
            return True
        predicate = lambda p: sim_parity(p, config)[0] is not None  # noqa: E731
        self._record(Divergence(
            oracle="sim-parity", detail=problem, level="asm", seed=seed,
            config=tag or _config_tag(config), mutation=mutation,
            reproducer=self._shrunk_asm(program, predicate)))
        return False

    def _check_soundness(self, program, config, seed, *,
                         mutation: str = "") -> None:
        self.report.bump("soundness_runs")
        problem = checker_soundness(program, config)
        if problem is None:
            return
        predicate = lambda p: checker_soundness(p, config) is not None  # noqa: E731
        self._record(Divergence(
            oracle="checker-soundness", detail=problem, level="asm",
            seed=seed, config=_config_tag(config), mutation=mutation,
            reproducer=self._shrunk_asm(program, predicate)))

    def _run_mutants(self, gen, diagonal, seed: int) -> None:
        rng = Random(seed + 7 * _SEED_STRIDE)
        for k in range(self.opts.mutants_per_program):
            result = mutate_program(rng, gen.program,
                                    load_bearing=gen.load_bearing_connects)
            if result is None:
                return
            self.report.bump("mutants")
            config = diagonal[k % len(diagonal)]
            mutation = f"{result.kind}@{result.index}"
            ok = self._check_asm_parity(result.program, config, seed,
                                        mutation=mutation)
            self._check_soundness(result.program, config, seed,
                                  mutation=mutation)
            if result.targeted and ok:
                self._check_completeness(gen.program, result, config, seed)

    def _check_completeness(self, original, result, config, seed) -> None:
        self.report.bump("completeness_runs")
        problem = mutation_surfaced(original, result.program, config)
        if problem is None:
            return
        self._record(Divergence(
            oracle="checker-completeness", detail=problem, level="asm",
            seed=seed, config=_config_tag(config),
            mutation=f"{result.kind}@{result.index}",
            reproducer=program_to_text(result.program)))

    # -- ir level -------------------------------------------------------------

    def ir_iteration(self, seed: int) -> None:
        self.report.bump("ir_modules")
        module = gen_module(seed, self.opts.ir_opts)
        self._check_interp_parity(module, seed)
        width = FUZZ_WIDTHS[seed % len(FUZZ_WIDTHS)]
        for model in FUZZ_MODELS:
            cfg = fuzz_configs(widths=(width,), models=(model,))[0]
            self._compile_and_check(module, cfg, seed)
        det_cfg = fuzz_configs(widths=(width,), models=(FUZZ_MODELS[1],))[0]
        self._check_determinism(module, det_cfg, seed)

    def _check_interp_parity(self, module, seed) -> None:
        self.report.bump("interp_runs")
        problem, used_fast = interp_parity(module)
        self.report.bump("interp_fastpath" if used_fast
                         else "interp_fallback")
        if problem is None:
            return
        predicate = lambda m: interp_parity(m)[0] is not None  # noqa: E731
        self._record(Divergence(
            oracle="interp-parity", detail=problem, level="ir", seed=seed,
            reproducer=self._shrunk_ir(module, predicate)))

    def _compile_and_check(self, module, config, seed) -> None:
        self.report.bump("compiles")
        try:
            out = compile_module(module, config)
        except Exception as exc:  # noqa: BLE001 - compiler crash is a finding
            def predicate(m, config=config):
                try:
                    compile_module(m, config)
                except Exception:  # noqa: BLE001
                    return True
                return False

            self._record(Divergence(
                oracle="compile-crash",
                detail=f"{type(exc).__name__}: {exc}", level="ir",
                seed=seed, config=_config_tag(config),
                reproducer=self._shrunk_ir(module, predicate)))
            return
        self.report.bump("sim_runs")
        problem, used_fast = sim_parity(out.program, config)
        self.report.bump("fastpath_runs" if used_fast else "fallback_runs")
        if problem is not None:
            def predicate(m, config=config):
                compiled = compile_module(m, config)
                return sim_parity(compiled.program, config)[0] is not None

            self._record(Divergence(
                oracle="sim-parity", detail=problem, level="ir", seed=seed,
                config=_config_tag(config),
                reproducer=self._shrunk_ir(module, predicate)))
        self.report.bump("soundness_runs")
        problem = checker_soundness(out.program, config)
        if problem is not None:
            def predicate(m, config=config):
                compiled = compile_module(m, config)
                return checker_soundness(compiled.program,
                                         config) is not None

            self._record(Divergence(
                oracle="checker-soundness", detail=problem, level="ir",
                seed=seed, config=_config_tag(config),
                reproducer=self._shrunk_ir(module, predicate)))

    def _check_determinism(self, module, config, seed) -> None:
        self.report.bump("determinism_runs")
        problem = compile_determinism(module, config)
        if problem is None:
            return
        predicate = lambda m: compile_determinism(m, config) is not None  # noqa: E731
        self._record(Divergence(
            oracle="compile-determinism", detail=problem, level="ir",
            seed=seed, config=_config_tag(config),
            reproducer=self._shrunk_ir(module, predicate)))

    # -- corpus replay --------------------------------------------------------

    def replay(self, root: Path) -> None:
        for case in iter_cases(root):
            self.report.bump("corpus_cases")
            if case.kind == "crash":
                self._replay_crash(case)
            elif case.kind == "asm":
                self._replay_asm(case)
            else:
                self._replay_ir(case)

    def _replay_crash(self, case) -> None:
        try:
            parse_program(case.text)
        except AsmError:
            return  # diagnostic error: exactly what the corpus demands
        except Exception as exc:  # noqa: BLE001
            self._record(Divergence(
                oracle="parser-crash",
                detail=(f"crash corpus case raised "
                        f"{type(exc).__name__}: {exc}"),
                level="asm", case_name=case.name, reproducer=case.text))
        else:
            self._record(Divergence(
                oracle="parser-crash",
                detail="crash corpus case parsed without error",
                level="asm", case_name=case.name, reproducer=case.text))

    def _replay_asm(self, case) -> None:
        try:
            program = parse_program(case.text)
        except Exception as exc:  # noqa: BLE001
            self._record(Divergence(
                oracle="corpus-replay",
                detail=f"failed to parse: {type(exc).__name__}: {exc}",
                level="asm", case_name=case.name, reproducer=case.text))
            return
        configs = _diagonal_configs(fuzz_configs())
        for config in configs:
            self.report.bump("sim_runs")
            problem, used_fast = sim_parity(program, config)
            self.report.bump("fastpath_runs" if used_fast
                             else "fallback_runs")
            if problem is not None:
                self._record(Divergence(
                    oracle="sim-parity", detail=problem, level="asm",
                    case_name=case.name, config=_config_tag(config),
                    reproducer=case.text))
            problem = checker_soundness(program, config)
            if problem is not None:
                self._record(Divergence(
                    oracle="checker-soundness", detail=problem,
                    level="asm", case_name=case.name,
                    config=_config_tag(config), reproducer=case.text))
            problem = resume_parity(program, config)
            if problem is not None:
                self._record(Divergence(
                    oracle="resume-parity", detail=problem, level="asm",
                    case_name=case.name, config=_config_tag(config),
                    reproducer=case.text))
        self.report.bump("gang_runs")
        problem = batched_parity(program)
        if problem is not None:
            self._record(Divergence(
                oracle="batched-parity", detail=problem, level="asm",
                case_name=case.name, config=GANG_PER_MODEL,
                reproducer=case.text))
        self.report.bump("opt_runs")
        problem = opt_parity(program)
        if problem is not None:
            self._record(Divergence(
                oracle="opt-parity", detail=problem, level="asm",
                case_name=case.name, config=GANG_MATRIX,
                reproducer=case.text))

    def _replay_ir(self, case) -> None:
        try:
            module = module_from_json(case.text)
        except Exception as exc:  # noqa: BLE001
            self._record(Divergence(
                oracle="corpus-replay",
                detail=f"failed to load: {type(exc).__name__}: {exc}",
                level="ir", case_name=case.name))
            return
        problem, _ = interp_parity(module)
        self.report.bump("interp_runs")
        if problem is not None:
            self._record(Divergence(
                oracle="interp-parity", detail=problem, level="ir",
                case_name=case.name, reproducer=case.text))
        config = fuzz_configs(widths=(2,), models=(FUZZ_MODELS[1],))[0]
        self._compile_and_check(module, config, case.name and 0)

    # -- driving --------------------------------------------------------------

    def run_seeds(self, asm_seeds: list[int], ir_seeds: list[int]) -> None:
        for seed in asm_seeds:
            self.report.bump("iterations")
            self.asm_iteration(seed)
        for seed in ir_seeds:
            self.report.bump("iterations")
            self.ir_iteration(seed)


def _split_budget(opts: FuzzOptions) -> tuple[list[int], list[int]]:
    base = opts.seed * _SEED_STRIDE
    if opts.level == "asm":
        return [base + k for k in range(opts.budget)], []
    if opts.level == "ir":
        return [], [base + k for k in range(opts.budget)]
    half = opts.budget // 2
    return ([base + k for k in range(opts.budget - half)],
            [base + k for k in range(half)])


def _chunk_worker(payload) -> tuple[dict, list[Divergence]]:
    """Module-level worker (must be picklable for ProcessPoolExecutor)."""
    opts_fields, asm_seeds, ir_seeds = payload
    opts = FuzzOptions(**opts_fields)
    session = _Session(opts)
    session.run_seeds(asm_seeds, ir_seeds)
    return session.report.counters, session.report.divergences


def run_fuzz(opts: FuzzOptions) -> FuzzReport:
    """Run the whole harness: corpus replay, then *budget* fresh iterations
    split across the requested levels, fanned out over *jobs* processes."""
    started = time.monotonic()
    report = FuzzReport(options=opts)
    root = opts.corpus if opts.corpus is not None else default_corpus_root()
    if opts.replay_corpus and root is not None:
        session = _Session(opts)
        session.replay(root)
        report.merge(session.report.counters, session.report.divergences)
    asm_seeds, ir_seeds = _split_budget(opts)
    jobs = max(1, opts.jobs)
    if jobs == 1 or len(asm_seeds) + len(ir_seeds) <= 1:
        session = _Session(opts)
        session.run_seeds(asm_seeds, ir_seeds)
        report.merge(session.report.counters, session.report.divergences)
    else:
        opts_fields = {
            "seed": opts.seed, "budget": opts.budget, "level": opts.level,
            "jobs": 1, "replay_corpus": False, "shrink": opts.shrink,
            "mutants_per_program": opts.mutants_per_program,
            "asm_opts": opts.asm_opts, "ir_opts": opts.ir_opts,
        }
        payloads = [(opts_fields, asm_seeds[w::jobs], ir_seeds[w::jobs])
                    for w in range(jobs)]
        payloads = [p for p in payloads if p[1] or p[2]]
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            for counters, divergences in pool.map(_chunk_worker, payloads):
                report.merge(counters, divergences)
    report.elapsed_sec = time.monotonic() - started
    return report
