"""Command-line interface: ``python -m repro.privlint [paths] ...``.

Every rule runs, unused suppressions are reported (PL100), and the report
is text: one line per new finding or stale baseline entry, then a summary.
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
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from .baseline import apply_baseline, load_baseline, write_baseline
from .engine import lint_paths
from .findings import Finding

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.privlint",
        description="Privacy-invariant static analysis for the DPBench "
                    "reproduction (one rule per invariant: per-function "
                    "base cases PL001-PL005, interprocedural closures "
                    "PL007-PL010).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="baseline JSON of grandfathered findings; only "
                             "findings not in it fail the run")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="write the current findings as a new baseline "
                             "and exit 0")
    return parser


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


def main(argv: Sequence[str] | None = None, out=None) -> int:
    args = _build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    result = lint_paths(args.paths)
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
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
    new, grandfathered, stale = apply_baseline(result.findings, baseline)

    _render_text(new, grandfathered, result.suppressed, stale, out)
    if new:
        return 1
    if stale:
        return 2
    return 0
