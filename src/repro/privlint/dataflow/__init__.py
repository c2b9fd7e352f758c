"""The analysis behind every privlint rule: facts, linking, summaries.

Each rule checks one invariant twice — per function (the base case) and
across calls (the closure) — and both halves read what this package builds
in three phases:

1. **facts** (:mod:`.facts`) — one parse and one pass per module extracts
   function/class/import facts with token-level value provenance, the
   base-case sites (calls, epsilon arithmetic, data reads, lazy guards) and
   the suppressions;
2. **linking** (:mod:`.callgraph`) — module-qualified name resolution builds
   the project call graph, including virtual dispatch through the
   ``Algorithm`` template methods and instantiation through the algorithm
   registry's dispatch table;
3. **summaries** (:mod:`.engine`) — fixpoints iterated to convergence
   compute which parameters/returns carry true-data taint, reach a noise
   scale, or reach a generator sink.

Entry point: :func:`analyze_sources` for a ``{path: source}`` project (the
lint engine, the tests).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Mapping

from .callgraph import Project
from .engine import ProjectAnalysis, Witness, analyze_project
from .facts import ModuleFacts, extract_module_facts

__all__ = [
    "ModuleFacts",
    "Project",
    "ProjectAnalysis",
    "Witness",
    "analyze_project",
    "analyze_sources",
    "extract_module_facts",
]


def analyze_sources(sources: Mapping[str, str],
                    errors: list[str] | None = None) -> ProjectAnalysis:
    """Analyse a ``{path: source}`` mapping as one project.

    Unparseable modules are left out of the project, with their syntax
    errors appended to ``errors`` when given."""
    modules: dict[str, ModuleFacts] = {}
    for path, source in sources.items():
        posix = Path(path).as_posix()
        try:
            tree = ast.parse(source, filename=posix)
        except SyntaxError as exc:
            if errors is not None:
                errors.append(f"{posix}: syntax error: {exc}")
            continue
        modules[posix] = extract_module_facts(source, posix, tree)
    return analyze_project(Project(modules))
