"""Machine configurations for the cycle-level simulator.

The underlying microarchitecture follows paper section 5.2: an in-order
superscalar with deterministic instruction latencies (Table 1), CRAY-1 style
register interlocking, homogeneous pipelined function units (any instruction
mix may issue in parallel), and memory accesses restricted to a subset of the
issue slots (two memory channels for the 2- and 4-issue models, four for the
8-issue model).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.isa.latency import LatencyModel
from repro.isa.registers import (
    RC_TOTAL_REGISTERS,
    RClass,
    RegFileSpec,
    core_spec,
    rc_spec,
    unlimited_spec,
)
from repro.rc.models import DEFAULT_MODEL, RCModel

VALID_ISSUE_WIDTHS = (1, 2, 4, 8)

#: Environment variable consulted when no explicit engine is requested.
ENGINE_ENV = "REPRO_ENGINE"

#: Recognised execution engines: the specializing fast path (default) and
#: the straight-line reference interpreter in :mod:`repro.sim.core`.  Sweeps
#: decide for themselves when points run as one lockstep gang
#: (:mod:`repro.sim.batched`); that is not an engine choice.
VALID_ENGINES = ("fast", "reference")


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an engine request to a member of :data:`VALID_ENGINES`.

    ``None``, ``""`` and ``"auto"`` defer to the :data:`ENGINE_ENV`
    environment variable, falling back to ``"fast"``.  Anything else must
    name a valid engine.
    """
    if engine in (None, "", "auto"):
        engine = os.environ.get(ENGINE_ENV, "").strip() or "fast"
    if engine == "batched":
        # Legacy spelling from when gangs were an engine: the perfbench
        # sim_x4 workload still pins it.  Drop at the next benchmark change.
        engine = "fast"
    if engine not in VALID_ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; expected one of {VALID_ENGINES}"
        )
    return engine


def default_memory_channels(issue_width: int) -> int:
    """Paper section 5.2: 2 channels for 2/4-issue, 4 for 8-issue."""
    return 4 if issue_width >= 8 else 2


@dataclass(frozen=True)
class MachineConfig:
    """A complete simulated machine configuration."""

    issue_width: int = 4
    mem_channels: int = 2
    latency: LatencyModel = field(default_factory=LatencyModel)
    int_spec: RegFileSpec = field(
        default_factory=lambda: core_spec(RClass.INT, 64)
    )
    fp_spec: RegFileSpec = field(
        default_factory=lambda: core_spec(RClass.FP, 64)
    )
    rc_model: RCModel = DEFAULT_MODEL
    #: Figure 12: model an additional pipeline stage for accessing the
    #: register mapping table; costs one extra cycle on every branch
    #: misprediction redirect.
    extra_decode_stage: bool = False
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        if self.issue_width not in VALID_ISSUE_WIDTHS:
            raise ConfigError(f"issue width must be one of {VALID_ISSUE_WIDTHS}")
        if self.mem_channels < 1:
            raise ConfigError("need at least one memory channel")
        if self.int_spec.cls is not RClass.INT:
            raise ConfigError("int_spec must describe the integer file")
        if self.fp_spec.cls is not RClass.FP:
            raise ConfigError("fp_spec must describe the FP file")

    @property
    def has_rc(self) -> bool:
        return self.int_spec.has_rc or self.fp_spec.has_rc

    @property
    def redirect_penalty(self) -> int:
        """Cycles lost on a branch misprediction redirect."""
        return 1 + (1 if self.extra_decode_stage else 0)

    def spec_for(self, cls: RClass) -> RegFileSpec:
        return self.int_spec if cls is RClass.INT else self.fp_spec

    def describe(self) -> str:
        rc = []
        if self.int_spec.has_rc:
            rc.append(f"int RC {self.int_spec.core}+{self.int_spec.extended}")
        if self.fp_spec.has_rc:
            rc.append(f"fp RC {self.fp_spec.core}+{self.fp_spec.extended}")
        rc_text = ", ".join(rc) if rc else "no RC"
        return (
            f"{self.issue_width}-issue, {self.mem_channels} mem channels, "
            f"load={self.latency.load}, connect={self.latency.connect}, "
            f"{rc_text}"
        )


def paper_machine(
    issue_width: int = 4,
    load_latency: int = 2,
    int_core: int = 64,
    fp_core: int = 64,
    rc_class: RClass | None = None,
    rc_model: RCModel = DEFAULT_MODEL,
    connect_latency: int = 0,
    extra_decode_stage: bool = False,
    mem_channels: int | None = None,
    rc_total: int = RC_TOTAL_REGISTERS,
) -> MachineConfig:
    """Build a configuration in the paper's experimental style.

    ``rc_class`` selects which register file (if any) receives the RC
    extension; the experiments apply RC to the integer file for integer
    benchmarks and to the FP file for FP benchmarks, with the other file
    fixed at 64 core registers.
    """
    if rc_class is RClass.INT:
        int_spec = rc_spec(RClass.INT, int_core, rc_total)
    else:
        int_spec = core_spec(RClass.INT, int_core)
    if rc_class is RClass.FP:
        fp_spec = rc_spec(RClass.FP, fp_core, rc_total)
    else:
        fp_spec = core_spec(RClass.FP, fp_core)
    return MachineConfig(
        issue_width=issue_width,
        mem_channels=(mem_channels if mem_channels is not None
                      else default_memory_channels(issue_width)),
        latency=LatencyModel(load=load_latency, connect=connect_latency),
        int_spec=int_spec,
        fp_spec=fp_spec,
        rc_model=rc_model,
        extra_decode_stage=extra_decode_stage,
    )


def unlimited_machine(issue_width: int = 1, load_latency: int = 2,
                      mem_channels: int | None = None) -> MachineConfig:
    """The paper's "unlimited number of registers" reference machine."""
    return MachineConfig(
        issue_width=issue_width,
        mem_channels=(mem_channels if mem_channels is not None
                      else default_memory_channels(issue_width)),
        latency=LatencyModel(load=load_latency),
        int_spec=unlimited_spec(RClass.INT),
        fp_spec=unlimited_spec(RClass.FP),
    )
