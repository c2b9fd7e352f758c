"""Standards for interpreting error (EI, Section 5.4) and the competitive /
regret analyses of Section 7.2.

* :func:`competitive_algorithms` reproduces the paper's definition: an
  algorithm is competitive at a setting if it achieves the lowest error, or
  its error is not statistically distinguishable from the lowest (unpaired
  t-test with a Bonferroni-corrected significance level
  ``alpha / (n_algorithms - 1)``).
* :func:`competitive_counts` aggregates competitiveness over datasets, which
  is exactly the content of Tables 3a/3b.
* :func:`regret` computes the geometric-mean ratio between an algorithm's
  error and the per-setting oracle error (Finding 5: DAWA's regret of 1.32 on
  1-D, 1.73 on 2-D).
* :func:`baseline_comparison` counts how often each algorithm beats the
  IDENTITY and UNIFORM baselines (Finding 10).
"""

from __future__ import annotations

import numpy as np

from .results import ResultSet

__all__ = [
    "competitive_algorithms",
    "competitive_counts",
    "regret",
    "baseline_comparison",
    "mean_vs_p95_disagreements",
]


def _measure(errors: np.ndarray, measure: str) -> float:
    if measure == "mean":
        return float(np.mean(errors))
    if measure == "p95":
        return float(np.percentile(errors, 95))
    raise ValueError(f"unknown measure {measure!r}; use 'mean' or 'p95'")


def competitive_algorithms(
    error_samples: dict[str, np.ndarray],
    alpha: float = 0.05,
    measure: str = "mean",
) -> list[str]:
    """The set of algorithms that are competitive at one experimental setting.

    ``error_samples`` maps algorithm name to its vector of per-trial errors.
    For the mean measure, significance is assessed with an unpaired two-sample
    t-test against the best algorithm at level ``alpha / (n_algs - 1)``
    (Bonferroni correction for running the comparisons in parallel).  For the
    95th-percentile measure (the risk-averse analyst) the best algorithm and
    any algorithm within the best's sampling spread are competitive.
    """
    valid = {name: np.asarray(err, dtype=float) for name, err in error_samples.items()
             if np.asarray(err).size > 0}
    if not valid:
        return []
    if len(valid) == 1:
        return list(valid)
    scores = {name: _measure(err, measure) for name, err in valid.items()}
    best_name = min(scores, key=scores.get)
    best_errors = valid[best_name]
    corrected_alpha = alpha / max(len(valid) - 1, 1)

    competitive = [best_name]
    for name, errors in valid.items():
        if name == best_name:
            continue
        if measure == "mean":
            if errors.size < 2 or best_errors.size < 2:
                # Too few trials to distinguish: treat ties conservatively.
                if scores[name] <= scores[best_name] * (1 + 1e-9):
                    competitive.append(name)
                continue
            # scipy.stats costs ~0.65 s to import; only this t-test needs it.
            from scipy import stats

            _, p_value = stats.ttest_ind(errors, best_errors, equal_var=False)
            if np.isnan(p_value) or p_value > corrected_alpha:
                competitive.append(name)
        else:
            # Risk-averse comparison on the 95th percentile: competitive if the
            # algorithm's p95 lies within the best algorithm's observed range.
            if scores[name] <= float(np.max(best_errors)):
                competitive.append(name)
    return sorted(competitive)


def competitive_counts(
    results: ResultSet,
    alpha: float = 0.05,
    measure: str = "mean",
) -> dict[int, dict[str, int]]:
    """Tables 3a/3b: per scale, the number of datasets each algorithm is
    competitive on."""
    counts: dict[int, dict[str, int]] = {}
    for setting_key, records in results.successful().by_setting().items():
        scale = setting_key[1]
        samples = {name: record.errors for name, record in records.items()}
        winners = competitive_algorithms(samples, alpha=alpha, measure=measure)
        per_scale = counts.setdefault(scale, {})
        for name in winners:
            per_scale[name] = per_scale.get(name, 0) + 1
    return counts


def regret(results: ResultSet, measure: str = "mean") -> dict[str, float]:
    """Geometric-mean ratio of each algorithm's error to the oracle error.

    The oracle picks the best algorithm separately for every setting; an
    algorithm's regret is the geometric mean, over the settings it ran on, of
    ``error / oracle_error``.  Only algorithms that ran on every setting are
    comparable, so settings missing an algorithm are skipped for it.
    """
    ratios: dict[str, list[float]] = {}
    for records in results.successful().by_setting().values():
        scores = {name: _measure(record.errors, measure) for name, record in records.items()}
        if not scores:
            continue
        oracle = min(scores.values())
        if oracle <= 0:
            continue
        for name, score in scores.items():
            ratios.setdefault(name, []).append(score / oracle)
    return {
        name: float(np.exp(np.mean(np.log(values))))
        for name, values in ratios.items()
        if values
    }


def baseline_comparison(results: ResultSet, baselines: tuple[str, ...] = ("Identity", "Uniform"),
                        measure: str = "mean") -> list[dict]:
    """For every algorithm and scale, the fraction of datasets on which it
    beats each baseline (Finding 10)."""
    per_scale: dict[int, dict[str, dict[str, list[bool]]]] = {}
    for setting_key, records in results.successful().by_setting().items():
        scale = setting_key[1]
        scores = {name: _measure(record.errors, measure) for name, record in records.items()}
        for baseline in baselines:
            if baseline not in scores:
                continue
            for name, score in scores.items():
                if name == baseline:
                    continue
                bucket = per_scale.setdefault(scale, {}).setdefault(name, {}).setdefault(baseline, [])
                bucket.append(score < scores[baseline])
    rows = []
    for scale in sorted(per_scale):
        for name in sorted(per_scale[scale]):
            row = {"scale": scale, "algorithm": name}
            for baseline, outcomes in per_scale[scale][name].items():
                row[f"beats_{baseline}"] = float(np.mean(outcomes)) if outcomes else float("nan")
            rows.append(row)
    return rows


def mean_vs_p95_disagreements(results: ResultSet, alpha: float = 0.05) -> list[dict]:
    """Settings where the best algorithm by mean error is not best by p95
    error (Finding 8: the risk-averse analyst may prefer a different
    algorithm)."""
    disagreements = []
    for setting_key, records in results.successful().by_setting().items():
        if len(records) < 2:
            continue
        means = {name: float(np.mean(record.errors)) for name, record in records.items()}
        p95s = {name: float(np.percentile(record.errors, 95)) for name, record in records.items()}
        best_mean = min(means, key=means.get)
        best_p95 = min(p95s, key=p95s.get)
        if best_mean != best_p95:
            disagreements.append({
                "dataset": setting_key[0],
                "scale": setting_key[1],
                "epsilon": setting_key[3],
                "best_by_mean": best_mean,
                "best_by_p95": best_p95,
            })
    return disagreements
