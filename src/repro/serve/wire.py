"""Wire format shared by the serve scheduler, workers, and clients.

Job payloads are plain JSON dicts.  The pieces that need care are the
machine configuration — which must round-trip with full cycle-accounting
fidelity so a remote job computes exactly what a local run would — and
payload validation, which must happen in the parent *before* a job is
queued so malformed submissions are rejected with a 400 instead of
poisoning a worker.

:func:`job_fingerprint` derives the content-addressed artifact key for a
job from the same compile/simulate fingerprint fields the experiment
cache uses (:func:`repro.experiments.runner._compile_key` /
``_sim_key``) plus the code fingerprint, so identical submissions from
different clients — or from the sweep executor — land on one shared
artifact shard and invalidate automatically on any source change.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.errors import ReproError
from repro.experiments.runner import _compile_key, _sim_key, code_fingerprint
from repro.isa.latency import LatencyModel
from repro.isa.registers import RClass, RegFileSpec
from repro.rc import RCModel
from repro.sim import VALID_ENGINES, MachineConfig
from repro.workloads import ALL_BENCHMARKS

#: Job kinds the service accepts.
JOB_KINDS = ("compile", "check", "simulate", "sweep", "trace")


class BadRequest(ReproError):
    """A submission the service refuses before queueing (HTTP 400)."""


# -- machine configuration <-> JSON -------------------------------------------

def _spec_to_payload(spec: RegFileSpec) -> dict:
    return {"core": spec.core, "total": spec.total}


def machine_to_payload(config: MachineConfig) -> dict:
    """Serialize a machine configuration with full fidelity.

    Every cycle-affecting field is carried — including the complete
    latency table, so configs the CLI cannot express (fuzz perturbations,
    programmatic sweeps) still round-trip exactly.
    """
    return {
        "issue": config.issue_width,
        "channels": config.mem_channels,
        "latency": {f.name: getattr(config.latency, f.name)
                    for f in dataclasses.fields(LatencyModel)},
        "int": _spec_to_payload(config.int_spec),
        "fp": _spec_to_payload(config.fp_spec),
        "model": config.rc_model.value,
        "extra_stage": config.extra_decode_stage,
        "max_cycles": config.max_cycles,
    }


def machine_from_payload(data: dict | None) -> MachineConfig:
    """Rebuild a machine configuration from its payload form.

    Raises :class:`BadRequest` on anything inconsistent; defaults follow
    :class:`MachineConfig` so ``{}`` (or an absent ``machine`` key) means
    the default paper machine.
    """
    data = dict(data or {})
    try:
        lat_fields = data.pop("latency", {})
        unknown = set(lat_fields) - {f.name
                                     for f in dataclasses.fields(LatencyModel)}
        if unknown:
            raise ValueError(f"unknown latency field(s) {sorted(unknown)}")
        latency = LatencyModel(**{k: int(v) for k, v in lat_fields.items()})
        int_spec = _spec_from_payload(data.pop("int", None), RClass.INT)
        fp_spec = _spec_from_payload(data.pop("fp", None), RClass.FP)
        kwargs = {}
        if "issue" in data:
            kwargs["issue_width"] = int(data.pop("issue"))
        if "channels" in data:
            kwargs["mem_channels"] = int(data.pop("channels"))
        if "model" in data:
            kwargs["rc_model"] = RCModel(int(data.pop("model")))
        if "extra_stage" in data:
            kwargs["extra_decode_stage"] = bool(data.pop("extra_stage"))
        if "max_cycles" in data:
            kwargs["max_cycles"] = int(data.pop("max_cycles"))
        if data:
            raise ValueError(f"unknown machine field(s) {sorted(data)}")
        config = MachineConfig(latency=latency, int_spec=int_spec,
                               fp_spec=fp_spec, **kwargs)
    except BadRequest:
        raise
    except Exception as exc:  # noqa: BLE001 - every malformed shape -> 400
        raise BadRequest(f"bad machine config: {exc}") from None
    return config


def _spec_from_payload(data: dict | None, cls: RClass) -> RegFileSpec:
    if data is None:
        data = {"core": 64, "total": 64}
    core = int(data.get("core", 64))
    total = int(data.get("total", core))
    if not 1 <= core <= total:
        raise BadRequest(f"bad {cls.value} register spec: core={core}, "
                         f"total={total}")
    return RegFileSpec(cls, core, total)


# -- payload validation --------------------------------------------------------

#: Compile-option payload fields and their validators.
_OPT_LEVELS = ("scalar", "ilp")
_TRACE_FORMATS = ("text", "chrome", "konata", "jsonl")


def options_from_payload(data: dict | None) -> dict:
    """Validate the compile-options payload; returns normalized kwargs
    (``opt_level``, ``unroll_factor``, ``num_windows``)."""
    data = dict(data or {})
    opt = data.pop("opt", "ilp")
    if opt not in _OPT_LEVELS:
        raise BadRequest(f"bad opt level {opt!r}; expected {_OPT_LEVELS}")
    try:
        unroll = int(data.pop("unroll", 4))
        windows = int(data.pop("windows", 4))
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad compile options: {exc}") from None
    if data:
        raise BadRequest(f"unknown option field(s) {sorted(data)}")
    if not 1 <= unroll <= 64:
        raise BadRequest(f"unroll factor {unroll} out of range [1, 64]")
    if not 1 <= windows <= 64:
        raise BadRequest(f"window count {windows} out of range [1, 64]")
    return {"opt_level": opt, "unroll_factor": unroll, "num_windows": windows}


def validate_payload(kind: str, payload: dict) -> dict:
    """Check one job submission; returns a normalized copy.

    Everything shape-related is rejected here, in the parent, so workers
    only ever see well-formed jobs; program *content* errors (assembly that
    does not parse, programs that fault) are still discovered in the
    worker and reported as structured job failures.
    """
    if kind not in JOB_KINDS:
        raise BadRequest(f"unknown job kind {kind!r}; expected one "
                         f"of {JOB_KINDS}")
    if not isinstance(payload, dict):
        raise BadRequest("payload must be a JSON object")
    out = dict(payload)
    machine_from_payload(out.get("machine"))  # shape check only
    options_from_payload(out.get("options"))

    has_benchmark = "benchmark" in out
    has_asm = "asm" in out
    if kind == "sweep":
        from repro.experiments import ALL_FIGURES

        figure = out.get("figure")
        if figure not in ALL_FIGURES:
            raise BadRequest(f"unknown figure {figure!r}; expected one of "
                             f"{sorted(ALL_FIGURES)}")
        benchmarks = out.get("benchmarks", list(ALL_BENCHMARKS))
        if (not isinstance(benchmarks, list) or not benchmarks
                or not all(isinstance(b, str) for b in benchmarks)):
            raise BadRequest("benchmarks must be a non-empty list of names")
        bad = [b for b in benchmarks if b not in ALL_BENCHMARKS]
        if bad:
            raise BadRequest(f"unknown benchmark(s) {bad}")
        out["benchmarks"] = benchmarks
    elif kind == "trace":
        if not has_benchmark:
            raise BadRequest("trace jobs need a benchmark")
        fmt = out.get("format", "jsonl")
        if fmt not in _TRACE_FORMATS:
            raise BadRequest(f"bad trace format {fmt!r}; expected "
                             f"{_TRACE_FORMATS}")
        out["format"] = fmt
    else:
        if has_benchmark == has_asm:
            raise BadRequest(f"{kind} jobs need exactly one of "
                             f"'benchmark' or 'asm'")
        if has_asm and not isinstance(out["asm"], str):
            raise BadRequest("asm must be a string of assembly text")
    if has_benchmark:
        if out["benchmark"] not in ALL_BENCHMARKS:
            raise BadRequest(f"unknown benchmark {out['benchmark']!r}")
    engine = out.get("engine")
    if engine is not None and engine not in VALID_ENGINES:
        raise BadRequest(f"bad engine {engine!r}; "
                         f"expected {'|'.join(VALID_ENGINES)}")
    scale = out.get("scale", 1)
    if not isinstance(scale, int) or not 1 <= scale <= 64:
        raise BadRequest(f"scale {scale!r} out of range [1, 64]")
    out["scale"] = scale
    if "max_cycles" in out and (not isinstance(out["max_cycles"], int)
                                or out["max_cycles"] < 1):
        raise BadRequest(f"bad max_cycles {out['max_cycles']!r}")
    return out


# -- content-addressed job keys ------------------------------------------------

def effective_config(payload: dict) -> MachineConfig:
    """The machine config a worker will actually simulate with: the
    payload's machine, with the job-level ``max_cycles`` budget applied
    (a budget can only lower the machine's own limit)."""
    config = machine_from_payload(payload.get("machine"))
    budget = payload.get("max_cycles")
    if budget is not None and budget < config.max_cycles:
        config = dataclasses.replace(config, max_cycles=budget)
    return config


def job_fingerprint(kind: str, payload: dict) -> str:
    """The artifact-store key for one validated job submission.

    Built from the experiment cache's compile-affecting and
    simulate-affecting config fingerprints plus the code fingerprint, so:

    * identical submissions — from any client, any time — share one key;
    * any cycle-affecting source change invalidates every stored artifact;
    * sweep points differing only in presentation never collide.
    """
    config = effective_config(payload)
    opts = options_from_payload(payload.get("options"))
    parts = [
        "v1", kind,
        _compile_key(config), _sim_key(config),
        f"o{opts['opt_level']}.u{opts['unroll_factor']}"
        f".w{opts['num_windows']}",
        f"s{payload.get('scale', 1)}",
        f"e{payload.get('engine') or 'fast'}",
        f"f{code_fingerprint()}",
    ]
    if "benchmark" in payload:
        parts.append(f"b:{payload['benchmark']}")
    if "asm" in payload:
        digest = hashlib.sha256(payload["asm"].encode()).hexdigest()[:24]
        parts.append(f"a:{digest}")
    if kind == "sweep":
        parts.append(f"fig:{payload['figure']}")
        parts.append("bm:" + ",".join(payload["benchmarks"]))
        parts.append(f"cpi{int(bool(payload.get('cpi')))}")
    if kind == "trace":
        parts.append(f"fmt:{payload['format']}.lim{payload.get('limit', 0)}")
    if kind == "check":
        parts.append(f"strict{int(bool(payload.get('strict')))}")
    if payload.get("observe"):
        parts.append("obs")
    return hashlib.sha256(".".join(parts).encode()).hexdigest()[:32]
