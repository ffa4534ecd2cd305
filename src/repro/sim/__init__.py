"""Cycle-level superscalar simulator with Register Connection support."""

from repro.sim.config import (
    ENGINE_ENV,
    VALID_ENGINES,
    MachineConfig,
    default_memory_channels,
    paper_machine,
    resolve_engine,
    unlimited_machine,
)
from repro.sim.batched import (
    BatchedSimulator,
    GangOutcome,
    simulate_gang,
)
from repro.sim.core import SimResult, Simulator, simulate
from repro.sim.fastpath import FastSimulator
from repro.sim.machine import MachineState
from repro.sim.os_model import ProcessRecord, ScheduleOutcome, TimeSharingSystem
from repro.sim.program import MachineProgram, assemble
from repro.sim.stats import SimStats
from repro.sim.tracing import PipelineTrace, capture_trace

__all__ = [
    "ENGINE_ENV",
    "VALID_ENGINES",
    "BatchedSimulator",
    "FastSimulator",
    "GangOutcome",
    "MachineConfig",
    "MachineProgram",
    "MachineState",
    "ProcessRecord",
    "ScheduleOutcome",
    "TimeSharingSystem",
    "SimResult",
    "SimStats",
    "Simulator",
    "PipelineTrace",
    "assemble",
    "capture_trace",
    "default_memory_channels",
    "paper_machine",
    "resolve_engine",
    "simulate",
    "simulate_gang",
    "unlimited_machine",
]
