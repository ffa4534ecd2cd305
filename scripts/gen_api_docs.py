#!/usr/bin/env python3
"""Generate docs/API.md: a one-line-per-symbol summary of the public API.

Run from the repository root:  python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro.isa", "repro.ir", "repro.compiler", "repro.rc", "repro.sim",
    "repro.analyze", "repro.workloads", "repro.experiments", "repro.serve",
]
EXTRA_MODULES = [
    "repro.isa.asmparse", "repro.isa.encoding", "repro.sim.tracing",
    "repro.sim.os_model", "repro.workloads.analysis", "repro.store",
    "repro.cli",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def describe(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", ""]
    intro = first_line(module)
    if intro:
        lines += [intro, ""]
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    rows = []
    for name in sorted(names):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        kind = ("class" if inspect.isclass(obj)
                else "function" if callable(obj) else "value")
        rows.append(f"| `{name}` | {kind} | {first_line(obj)} |")
    if rows:
        lines += ["| symbol | kind | summary |", "|---|---|---|"] + rows
    lines.append("")
    return lines


def main() -> None:
    out = [
        "# API reference (generated)",
        "",
        "Regenerate with `python scripts/gen_api_docs.py`.",
        "",
    ]
    for name in PACKAGES + EXTRA_MODULES:
        out += describe(name)
    Path("docs/API.md").write_text("\n".join(out) + "\n")
    print(f"wrote docs/API.md ({len(out)} lines)")


if __name__ == "__main__":
    main()
