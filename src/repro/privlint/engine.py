"""The lint engine: parse once, extract facts, run the rules, honour suppressions.

The engine is deliberately self-contained (stdlib ``ast`` and ``tokenize``
only) so the CLI can run in any environment that can import the package.
Every file is parsed once into :mod:`.dataflow.facts`; the files are linked
into one project, the interprocedural summaries are computed, and each rule
reads both to report its base-case and closure findings.  An in-memory module
is linted the same way, as a one-module project.

Inline suppressions follow the familiar lint idiom, with the justification
after the ids::

    noisy = x + rng.laplace(0.0, scale, n)  # privlint: disable=<ids> why

``<ids>`` is one rule id, a comma list of them, or ``all``; the comment must
sit on the line the finding is reported at (the first line of a multi-line
statement).  Only comment tokens count: the same text inside a string literal
suppresses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .dataflow import analyze_sources
from .findings import Finding, FindingKind
from .rules import RULES, RULES_BY_ID

__all__ = ["LintResult", "UNUSED_SUPPRESSION_RULE", "lint_paths",
           "lint_source"]


@dataclass
class LintResult:
    """Findings of one run, with the suppression bookkeeping kept visible."""

    findings: list[Finding]
    suppressed: list[Finding]
    errors: list[str]          #: unparseable files, reported not swallowed


#: PL100 — not a rule: the engine synthesises these findings after every
#: selected rule has run, ruff's unused-``noqa`` style.  A suppression is
#: judged only for rule ids that actually ran, and always for unknown ids.
UNUSED_SUPPRESSION_RULE = FindingKind(
    "PL100", "unused-suppression",
    "This `# privlint: disable=` comment suppresses nothing; "
    "either the finding was fixed (delete the comment) or the "
    "rule id is wrong (the real finding is escaping).",
    severity="warning")

_ALL_KINDS = tuple(RULES_BY_ID.values())
_KNOWN_IDS = {*RULES_BY_ID, UNUSED_SUPPRESSION_RULE.id, "all"}


def _route(finding: Finding, disabled: set[str], used: set[str],
          findings: list[Finding], suppressed: list[Finding]) -> None:
    """Route one finding by the suppressions on its line, recording in
    ``used`` which of them took effect."""
    matched = disabled & {finding.rule, "all"}
    if matched:
        suppressed.append(finding)
        used |= matched
    else:
        findings.append(finding)


def _unused_suppression_findings(
        path: str, suppressions: dict[int, set[str]],
        used: dict[int, set[str]], active_ids: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    for line, declared in sorted(suppressions.items()):
        used_ids = used.get(line, set())
        if "all" in declared:
            unused = set() if used_ids else {"all"}
        else:
            unused = {i for i in declared & active_ids if i not in used_ids}
        unused |= declared - _KNOWN_IDS
        if not unused:
            continue
        ids = ", ".join(sorted(unused))
        finding = Finding(
            path=path, line=line, rule=UNUSED_SUPPRESSION_RULE.id,
            severity=UNUSED_SUPPRESSION_RULE.severity,
            message=f"unused suppression ({ids}): no matching finding on "
                    f"this line — delete the comment or fix the rule id")
        if UNUSED_SUPPRESSION_RULE.id not in declared:
            findings.append(finding)
    return findings


def _lint(sources: Mapping[str, str], rules: Sequence[FindingKind],
          errors: list[str]) -> LintResult:
    analysis = analyze_sources(sources, errors)
    active = {kind.id for kind in rules}
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    used: dict[str, dict[int, set[str]]] = {}
    for rule in RULES:
        if active.isdisjoint(kind.id for kind in rule.kinds):
            continue
        for finding in rule.check(analysis):
            if finding.rule in active:
                module = analysis.project.modules[finding.path]
                _route(finding, module.suppressions.get(finding.line, set()),
                      used.setdefault(finding.path, {}).setdefault(
                          finding.line, set()),
                      findings, suppressed)
    # A suppression that stopped a fixpoint from propagating is used too.
    for path, lines in analysis.declassified.items():
        suppressions = analysis.project.modules[path].suppressions
        for line, rule_ids in lines.items():
            for rule_id in rule_ids & active:
                used.setdefault(path, {}).setdefault(line, set()).update(
                    suppressions[line] & {rule_id, "all"})
    for path, module in analysis.project.modules.items():
        findings.extend(_unused_suppression_findings(
            path, module.suppressions, used.get(path, {}), active))
    findings.sort()
    suppressed.sort()
    return LintResult(findings, suppressed, errors)


def lint_source(source: str, path: str,
                rules: Sequence[FindingKind]) -> LintResult:
    """Lint one in-memory module (the seam the tests and quickstart use)."""
    return _lint({path: source}, rules, [])


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[str | Path],
               rules: Sequence[FindingKind] = _ALL_KINDS) -> LintResult:
    """Lint every ``*.py`` under ``paths`` (files or directories) as one
    project; suppression comments that silence nothing become PL100
    warnings."""
    sources: dict[str, str] = {}
    errors: list[str] = []
    for file_path in iter_python_files(paths):
        posix = file_path.as_posix()
        try:
            sources[posix] = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            errors.append(f"{posix}: {exc}")
    return _lint(sources, rules, errors)
