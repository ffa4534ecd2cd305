"""Pipeline tracing and text visualization.

Listens to the simulator's issue events to record ``(cycle, pc)`` pairs and
renders them as an annotated listing: a ``|`` marks the start of each issue
group, so issue-width utilization and stalls are visible at a glance —
exactly the view needed to see zero-cycle connects sharing a cycle with
their consumers (paper section 2.4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.isa.asmfmt import format_instr
from repro.observe.events import IssueEvent, Observer
from repro.sim.config import MachineConfig
from repro.sim.core import Simulator
from repro.sim.program import MachineProgram
from repro.sim.stats import SimStats


@dataclass
class PipelineTrace:
    """A recorded issue trace for one program on one machine."""

    program: MachineProgram
    config: MachineConfig
    events: list[tuple[int, int]] = field(default_factory=list)  # (cycle, pc)
    truncated: bool = False
    #: the run's statistics, attached by :func:`capture_trace` so callers
    #: get counters and the trace from a single simulation.
    stats: SimStats | None = None

    # -- metrics ---------------------------------------------------------------

    def issue_group_sizes(self) -> Counter:
        """Histogram of instructions issued per (non-empty) cycle."""
        sizes: Counter = Counter()
        per_cycle: Counter = Counter(cycle for cycle, _pc in self.events)
        for _cycle, n in per_cycle.items():
            sizes[n] += 1
        return sizes

    def elapsed_cycles(self) -> int:
        """Total cycles the trace window spans.

        The run's full cycle count when stats are attached (and the trace
        was not truncated); otherwise the span of recorded events — the
        best available bound for hand-built or truncated traces.
        """
        if self.stats is not None and not self.truncated:
            return self.stats.cycles
        if not self.events:
            return 0
        first = self.events[0][0]
        last = self.events[-1][0]
        return last - first + 1

    def utilization(self) -> float:
        """Issued instructions / (elapsed cycles x issue width).

        True slot utilization: zero-issue (stall and redirect) cycles count
        against it.  See :meth:`issue_cycle_utilization` for the
        issued-cycles-only view this method historically reported.
        """
        cycles = self.elapsed_cycles()
        if not cycles:
            return 0.0
        return len(self.events) / (cycles * self.config.issue_width)

    def issue_cycle_utilization(self) -> float:
        """Issued instructions / (non-empty cycles x issue width)."""
        if not self.events:
            return 0.0
        cycles = len({c for c, _ in self.events})
        return len(self.events) / (cycles * self.config.issue_width)

    def dual_issue_pairs(self, first_pc: int, second_pc: int) -> int:
        """How often *first_pc* and *second_pc* issued in the same cycle."""
        by_cycle: dict[int, set[int]] = {}
        for cycle, pc in self.events:
            by_cycle.setdefault(cycle, set()).add(pc)
        return sum(1 for pcs in by_cycle.values()
                   if first_pc in pcs and second_pc in pcs)

    # -- rendering ----------------------------------------------------------------

    def render(self, start: int = 0, count: int = 40) -> str:
        """Render *count* trace events starting at event *start*.

        ``|`` marks the first instruction of each issue group; the cycle
        column is relative to the first rendered event.
        """
        window = self.events[start: start + count]
        if not window:
            return "(empty trace window)"
        base = window[0][0]
        lines = []
        prev_cycle = None
        for cycle, pc in window:
            marker = "|" if cycle != prev_cycle else " "
            prev_cycle = cycle
            text = format_instr(self.program.instrs[pc])
            lines.append(f"{marker} c+{cycle - base:4d}  pc{pc:5d}  {text}")
        if self.truncated and start + count >= len(self.events):
            lines.append("  ... trace truncated at the record limit ...")
        return "\n".join(lines)

    def summary(self) -> str:
        sizes = self.issue_group_sizes()
        total_cycles = len({c for c, _ in self.events})
        lines = [
            f"events            {len(self.events)}"
            + (" (truncated)" if self.truncated else ""),
            f"elapsed cycles    {self.elapsed_cycles()}",
            f"non-empty cycles  {total_cycles}",
            f"slot utilization  {100 * self.utilization():.1f}% "
            f"of {self.config.issue_width} slots/cycle "
            f"({100 * self.issue_cycle_utilization():.1f}% of issue cycles)",
            "issue-group sizes:",
        ]
        for size in sorted(sizes):
            lines.append(f"  {size} instr(s): {sizes[size]} cycles")
        return "\n".join(lines)


def capture_trace(program: MachineProgram, config: MachineConfig,
                  limit: int = 200_000) -> PipelineTrace:
    """Run *program* recording up to *limit* issue events."""
    trace = PipelineTrace(program, config)
    events = trace.events

    def on_event(event) -> None:
        if not isinstance(event, IssueEvent):
            return
        if len(events) < limit:
            events.append((event.cycle, event.pc))
        else:
            trace.truncated = True

    observer = Observer(keep_events=False)
    observer.subscribe(on_event)
    result = Simulator(program, config, observer=observer).run()
    trace.stats = result.stats
    return trace
