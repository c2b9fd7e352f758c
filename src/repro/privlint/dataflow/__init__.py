"""Interprocedural dataflow analysis for the privacy linter (privlint v2).

The per-module rules PL001–PL005 are blind to anything that crosses a call:
route the true histogram through one helper and PL002 never sees it.  This
package closes that gap with a three-phase whole-project analysis:

1. **facts** (:mod:`.facts`) — one AST pass per module extracts
   JSON-serialisable function/class/import facts with token-level value
   provenance; cacheable by content hash (:mod:`.cache`);
2. **linking** (:mod:`.callgraph`) — module-qualified name resolution builds
   the project call graph, including virtual dispatch through the
   ``Algorithm`` template methods and instantiation through the algorithm
   registry's dispatch table;
3. **summaries** (:mod:`.engine`) — worklist fixpoints compute which
   parameters/returns carry true-data taint, epsilon, and RNG state, and
   :mod:`.rules` evaluates PL007–PL010 over them.

Entry points: :func:`analyze_paths` for files on disk (with optional summary
cache), :func:`analyze_sources` for in-memory modules (tests, quickstart).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Mapping

from ..engine import iter_python_files, parse_suppressions
from .cache import FactsCache
from .callgraph import Project
from .engine import ProjectAnalysis, Witness, analyze_project
from .facts import ModuleFacts, extract_module_facts
from .rules import DATAFLOW_RULES, PROJECT_RULES_BY_ID

__all__ = [
    "DATAFLOW_RULES",
    "FactsCache",
    "ModuleFacts",
    "PROJECT_RULES_BY_ID",
    "Project",
    "ProjectAnalysis",
    "Witness",
    "analyze_paths",
    "analyze_project",
    "analyze_sources",
    "extract_module_facts",
]


def analyze_sources(sources: Mapping[str, str],
                    cache: FactsCache | None = None) -> ProjectAnalysis:
    """Analyse a ``{path: source}`` mapping as one project.

    Unparseable modules are skipped (the module-rule engine already reports
    syntax errors; the dataflow analysis just sees a smaller project).
    """
    modules: dict[str, ModuleFacts] = {}
    for path, source in sources.items():
        posix = Path(path).as_posix()
        facts = cache.get(posix, source) if cache is not None else None
        if facts is None:
            try:
                tree = ast.parse(source, filename=posix)
            except SyntaxError:
                continue
            facts = extract_module_facts(
                source, posix, tree=tree,
                suppressions=parse_suppressions(source))
            if cache is not None:
                cache.put(posix, source, facts)
        modules[facts.path] = facts
    if cache is not None:
        cache.save()
    return analyze_project(Project(modules))


def analyze_paths(paths: Iterable[str | Path],
                  cache_path: str | Path | None = None) -> ProjectAnalysis:
    """Analyse every ``*.py`` under ``paths`` as one project."""
    sources: dict[str, str] = {}
    for file_path in iter_python_files(paths):
        try:
            sources[file_path.as_posix()] = file_path.read_text(
                encoding="utf-8")
        except OSError:
            continue
    return analyze_sources(sources, cache=FactsCache(cache_path))
