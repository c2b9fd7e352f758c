"""Command-line interface: ``python -m repro.privlint [paths] ...``.

Exit codes follow lint convention so CI can gate directly on the process
status:

* ``0`` — no findings (after baseline filtering) and no stale baseline,
* ``1`` — at least one new finding,
* ``2`` — usage error, unreadable baseline, unparseable source file, or
  stale baseline entries (the baseline must shrink in the same change that
  fixes its findings, so it can never mask a regression).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from .baseline import apply_baseline, load_baseline, write_baseline
from .dataflow import DATAFLOW_RULES, PROJECT_RULES_BY_ID
from .engine import UNUSED_SUPPRESSION_RULE, lint_paths
from .findings import Finding
from .rules import DEFAULT_RULES, RULES_BY_ID
from .sarif import render_sarif

__all__ = ["main"]

OUTPUT_VERSION = 1

#: Every selectable rule id, module-level and project-level.
ALL_RULES_BY_ID = {**RULES_BY_ID, **PROJECT_RULES_BY_ID,
                   UNUSED_SUPPRESSION_RULE.id: UNUSED_SUPPRESSION_RULE}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.privlint",
        description="Privacy-invariant static analysis for the DPBench "
                    "reproduction (module rules PL001-PL005, "
                    "interprocedural dataflow rules PL007-PL010).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="baseline JSON of grandfathered findings; only "
                             "findings not in it fail the run")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="write the current findings as a new baseline "
                             "and exit 0")
    parser.add_argument("--rules", metavar="IDS", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all of %s)" % ",".join(
                                 k for k in ALL_RULES_BY_ID
                                 if k != UNUSED_SUPPRESSION_RULE.id))
    parser.add_argument("--summary-cache", metavar="FILE", default=None,
                        help="JSON store of per-file dataflow facts keyed by "
                             "content hash; speeds up repeated runs")
    parser.add_argument("--no-unused-disable", action="store_true",
                        help="do not report `# privlint: disable=` comments "
                             "that suppress nothing (PL100)")
    return parser


def _select_rules(spec: str | None, parser: argparse.ArgumentParser):
    """Split a ``--rules`` spec into (module rules, project rules)."""
    if spec is None:
        return DEFAULT_RULES, DATAFLOW_RULES
    module_rules = []
    project_rules = []
    for rule_id in spec.split(","):
        rule_id = rule_id.strip()
        if rule_id in RULES_BY_ID:
            module_rules.append(RULES_BY_ID[rule_id])
        elif rule_id in PROJECT_RULES_BY_ID:
            project_rules.append(PROJECT_RULES_BY_ID[rule_id])
        elif rule_id == UNUSED_SUPPRESSION_RULE.id:
            pass  # PL100 is engine-synthesised, controlled by the flag
        else:
            parser.error(f"unknown rule {rule_id!r}; "
                         f"known: {', '.join(ALL_RULES_BY_ID)}")
    return tuple(module_rules), tuple(project_rules)


def _render_text(new: list[Finding], grandfathered: list[Finding],
                 suppressed: list[Finding], stale: Counter,
                 out) -> None:
    for finding in new:
        print(f"{finding.location()}: {finding.rule} [{finding.severity}] "
              f"{finding.message}", file=out)
    for (rule, path, message), count in sorted(stale.items()):
        print(f"{path}: stale baseline entry {rule} (x{count}): {message}",
              file=out)
    summary = f"{len(new)} finding{'s' if len(new) != 1 else ''}"
    if grandfathered:
        summary += f", {len(grandfathered)} baselined"
    if suppressed:
        summary += f", {len(suppressed)} suppressed inline"
    if stale:
        summary += f", {sum(stale.values())} stale baseline entries"
    print(summary, file=out)


def _render_json(new: list[Finding], grandfathered: list[Finding],
                 suppressed: list[Finding], stale: Counter, out) -> None:
    document = {
        "version": OUTPUT_VERSION,
        "findings": [f.as_dict() for f in new],
        "baselined": [f.as_dict() for f in grandfathered],
        "suppressed": [f.as_dict() for f in suppressed],
        "stale_baseline": [
            {"rule": rule, "path": path, "message": message, "count": count}
            for (rule, path, message), count in sorted(stale.items())
        ],
        "counts": {
            "findings": len(new),
            "baselined": len(grandfathered),
            "suppressed": len(suppressed),
        },
    }
    json.dump(document, out, indent=2)
    out.write("\n")


def main(argv: Sequence[str] | None = None, out=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    rules, project_rules = _select_rules(args.rules, parser)

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    result = lint_paths(args.paths, rules, project_rules=project_rules,
                        report_unused=not args.no_unused_disable,
                        cache_path=args.summary_cache)
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)
    if result.errors:
        return 2

    if args.write_baseline:
        write_baseline(args.write_baseline, result.findings)
        print(f"wrote {len(result.findings)} finding(s) to "
              f"{args.write_baseline}", file=out)
        return 0

    baseline: Counter = Counter()
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
    new, grandfathered, stale = apply_baseline(result.findings, baseline)

    if args.format == "json":
        _render_json(new, grandfathered, result.suppressed, stale, out)
    elif args.format == "sarif":
        render_sarif(new, grandfathered, result.suppressed,
                     ALL_RULES_BY_ID, out)
    else:
        _render_text(new, grandfathered, result.suppressed, stale, out)
    if new:
        return 1
    if stale:
        return 2
    return 0
