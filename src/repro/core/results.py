"""Result storage and aggregation for benchmark runs.

Records serialize to JSON-line form for the runner's streaming checkpoints:
one :class:`RunRecord` per line, errors stored as plain floats (JSON float
text is the shortest round-tripping repr, so a reloaded record's error vector
is bitwise-identical to the original).  :meth:`ResultSet.from_jsonl` reloads a
run-log and :meth:`ResultSet.merge` combines partial runs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .error import ErrorSummary, summarize_errors

__all__ = ["ExperimentSetting", "RunRecord", "ResultSet", "read_jsonl_entries"]


def read_jsonl_entries(source) -> list[dict]:
    """Parse run-log lines into dicts, tolerating a torn final line.

    ``source`` is a path or raw JSONL text.  A :class:`~pathlib.Path` is
    always read from disk; a string is treated as raw JSONL when it is empty,
    whitespace-only or starts with ``{`` (an empty log has no records), and
    as a path otherwise.  An interrupted run can leave a partial trailing
    write; complete lines are never lost to it.  A corrupt line anywhere else
    raises.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf8")
    else:
        text = str(source)
        if text.strip() and not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf8")
    entries = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                continue                      # torn tail of a killed run
            raise
    return entries


@dataclass(frozen=True)
class ExperimentSetting:
    """One cell of the experimental grid.

    A setting fixes the dataset (shape), the scale, the domain, epsilon and
    the workload; records for different algorithms at the same setting are
    what the competitive analysis compares.
    """

    dataset: str
    scale: int
    domain_shape: tuple[int, ...]
    epsilon: float
    workload: str

    def key_without_algorithm(self) -> tuple:
        return (self.dataset, self.scale, self.domain_shape, self.epsilon, self.workload)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "domain_shape": list(self.domain_shape),
            "epsilon": self.epsilon,
            "workload": self.workload,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSetting":
        return cls(
            dataset=data["dataset"],
            scale=int(data["scale"]),
            domain_shape=tuple(int(d) for d in data["domain_shape"]),
            epsilon=float(data["epsilon"]),
            workload=data["workload"],
        )


@dataclass
class RunRecord:
    """All trials of one algorithm at one experimental setting."""

    setting: ExperimentSetting
    algorithm: str
    errors: np.ndarray
    failed: bool = False
    failure_message: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def summary(self) -> ErrorSummary:
        return summarize_errors(self.errors)

    def record_key(self) -> tuple:
        """The record's identity in a run-log: setting (minus workload) + algorithm.

        Matches :meth:`repro.core.executor.Job.record_key` — the workload is
        omitted because it is determined by the domain shape.
        """
        s = self.setting
        return (s.dataset, s.scale, s.domain_shape, s.epsilon, self.algorithm)

    def to_dict(self) -> dict:
        return {
            "setting": self.setting.to_dict(),
            "algorithm": self.algorithm,
            "errors": np.asarray(self.errors, dtype=float).tolist(),
            "failed": self.failed,
            "failure_message": self.failure_message,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            setting=ExperimentSetting.from_dict(data["setting"]),
            algorithm=data["algorithm"],
            errors=np.asarray(data.get("errors", []), dtype=float),
            failed=bool(data.get("failed", False)),
            failure_message=data.get("failure_message", ""),
            extra=dict(data.get("extra", {})),
        )


class ResultSet:
    """A collection of :class:`RunRecord` with grouping/aggregation helpers."""

    def __init__(self, records: list[RunRecord] | None = None):
        self._records: list[RunRecord] = list(records or [])

    # -- collection protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> list[RunRecord]:
        return list(self._records)

    # -- (de)serialization ------------------------------------------------------------
    def to_jsonl(self, path=None) -> str:
        """One JSON object per record; write to ``path`` if given."""
        text = "".join(json.dumps(r.to_dict()) + "\n" for r in self._records)
        if path is not None:
            Path(path).write_text(text, encoding="utf8")
        return text

    @classmethod
    def from_jsonl(cls, source) -> "ResultSet":
        """Reload records from a run-log path (or raw JSONL text).

        Tolerates a truncated final line, which an interrupted run can leave
        behind — complete records are never lost to a partial trailing write.
        """
        return cls([RunRecord.from_dict(entry) for entry in read_jsonl_entries(source)])

    def merge(self, other) -> "ResultSet":
        """Union of two result sets, keyed by record identity.

        Records from ``other`` override same-key records from ``self`` (a
        re-executed cell supersedes its checkpointed predecessor); ordering is
        first-appearance.
        """
        merged: dict[tuple, RunRecord] = {r.record_key(): r for r in self._records}
        for record in other:
            merged[record.record_key()] = record
        return ResultSet(list(merged.values()))

    # -- filtering / grouping ---------------------------------------------------------
    def filter(self, **criteria) -> "ResultSet":
        """Subset by setting fields or by ``algorithm=...``."""
        def matches(record: RunRecord) -> bool:
            for key, value in criteria.items():
                if key == "algorithm":
                    if record.algorithm != value:
                        return False
                elif getattr(record.setting, key) != value:
                    return False
            return True

        return ResultSet([r for r in self._records if matches(r)])

    def successful(self) -> "ResultSet":
        return ResultSet([r for r in self._records if not r.failed])

    def algorithms(self) -> list[str]:
        return sorted({r.algorithm for r in self._records})

    def datasets(self) -> list[str]:
        return sorted({r.setting.dataset for r in self._records})

    def scales(self) -> list[int]:
        return sorted({r.setting.scale for r in self._records})

    def by_setting(self) -> dict[tuple, dict[str, RunRecord]]:
        """Map setting-key -> {algorithm -> record}."""
        grouped: dict[tuple, dict[str, RunRecord]] = {}
        for record in self._records:
            grouped.setdefault(record.setting.key_without_algorithm(), {})[record.algorithm] = record
        return grouped

    # -- tabulation -------------------------------------------------------------------
    def to_rows(self) -> list[dict]:
        """Flat rows (one per record) with summary statistics."""
        rows = []
        for record in self._records:
            row = {
                "dataset": record.setting.dataset,
                "scale": record.setting.scale,
                "domain": "x".join(str(d) for d in record.setting.domain_shape),
                "epsilon": record.setting.epsilon,
                "workload": record.setting.workload,
                "algorithm": record.algorithm,
                "failed": record.failed,
            }
            if record.failed:
                row.update({"mean_error": float("nan"), "p95_error": float("nan"),
                            "std_error": float("nan"), "n_trials": 0})
            else:
                summary = record.summary
                row.update({
                    "mean_error": summary.mean,
                    "p95_error": summary.percentile95,
                    "std_error": summary.std,
                    "n_trials": summary.n_trials,
                })
            rows.append(row)
        return rows

    def mean_error(self, algorithm: str, **criteria) -> float:
        """Mean error of one algorithm averaged over all matching settings."""
        subset = self.filter(algorithm=algorithm, **criteria).successful()
        if len(subset) == 0:
            return float("nan")
        return float(np.mean([r.summary.mean for r in subset]))

    def to_csv(self, path=None) -> str:
        """Write the flat rows to ``path`` (or return CSV text if no path)."""
        rows = self.to_rows()
        if not rows:
            return ""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf8") as handle:
                handle.write(text)
        return text
