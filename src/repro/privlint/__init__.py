"""Privacy-invariant static analysis + runtime taint sanitizer for DPBench.

The benchmark's thesis — DP algorithm evaluations are only trustworthy if the
implementations are actually private and deterministic end-to-end — is
enforced here on two fronts:

* **statically**: one rule per invariant this repository has already been
  burned by (:mod:`repro.privlint.rules`) — RNG provenance, post-processing
  purity, metered noise and budget flow, lock discipline.  Each rule reads
  one fact pass over every file (:mod:`repro.privlint.dataflow`) for its
  per-function base case (PL001-PL005) and the interprocedural summaries
  for its closure across calls (PL007-PL010): call-graph taint into the
  post-processing stage, budget flow into every noise scale, RNG provenance
  back to the executor spawn, and lock discipline across methods.  Run
  ``python -m repro.privlint src`` (CI does, against the committed
  ``privlint-baseline.json``): every rule runs, suppressions that silence
  nothing are reported (PL100), and the report is text.
* **dynamically**: the taint sanitizer (:mod:`repro.privlint.taint`) runs
  every registered algorithm on a tainted histogram and asserts the release's
  taint is cleared *only* by the metered noise stage.

Inline suppressions name the rule ids after ``# privlint: disable=`` and
justify themselves in the rest of the comment; grandfathered findings live
in the committed baseline.
"""

from .baseline import apply_baseline, load_baseline, write_baseline
from .dataflow import ProjectAnalysis, analyze_sources
from .engine import (
    LintResult,
    UNUSED_SUPPRESSION_RULE,
    lint_paths,
    lint_source,
)
from .findings import Finding, FindingKind
from .rules import RULES, RULES_BY_ID
from .taint import (
    SanitizedNoise,
    TaintedArray,
    is_tainted,
    sanitize,
    sanitized_noise_stage,
    taint,
)

__all__ = [
    "Finding",
    "FindingKind",
    "LintResult",
    "ProjectAnalysis",
    "RULES",
    "RULES_BY_ID",
    "SanitizedNoise",
    "TaintedArray",
    "UNUSED_SUPPRESSION_RULE",
    "analyze_sources",
    "apply_baseline",
    "is_tainted",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "sanitize",
    "sanitized_noise_stage",
    "taint",
    "write_baseline",
]
