"""Finding records and finding kinds of the privacy-invariant linter.

A :class:`Finding` is one violation of one rule at one source location; the
whole subsystem trades in immutable findings so that suppression filtering,
baseline matching and reporting are plain set/list operations.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "FindingKind"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str       #: posix-style path as given to the linter
    line: int       #: 1-based source line
    rule: str       #: rule id, e.g. ``"PL001"``
    severity: str   #: ``"error"`` or ``"warning"``
    message: str    #: human-readable description of the violation

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used for baseline matching.

        Deliberately excludes the line number so grandfathered findings
        survive unrelated edits above them; a file can carry the same
        (rule, message) more than once, which the baseline handles by count.
        """
        return (self.rule, self.path, self.message)


@dataclass(frozen=True)
class FindingKind:
    """One rule id: what ``lint_source`` selects and suppressions name.
    Each invariant's rule owns the kinds it reports."""

    id: str           #: e.g. ``"PL001"``
    name: str         #: kebab-case slug
    description: str
    severity: str = "error"
