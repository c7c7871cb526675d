"""Summaries and comparisons of measured samples.

Timings are reported as a median with quartiles, min/max and the sample
count, plus the highest percentile that still has at least ten samples
beyond it (:func:`tail_percentile`): a p99 over 60 samples is one
observation, not a tail.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a tail may be reported at, ascending, in tenths of a
#: percent (integers: 100 * (1 - 0.9) is 9.999... in floating point).
LADDER = (500, 750, 800, 900, 950, 990, 999)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0..100) of ``samples``."""
    ordered = sorted(samples)
    rank = round(p / 100.0 * (len(ordered) - 1))
    return ordered[max(0, min(len(ordered) - 1, rank))]


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with >= 10 of ``count`` samples beyond."""
    best = None
    for per_mille in LADDER:
        if count * (1000 - per_mille) >= MIN_BEYOND * 1000:
            best = per_mille / 10.0
    return best


def quartiles(samples: Sequence[float]) -> Optional[List[float]]:
    """[q1, q2, q3]; None below 2 samples.

    Inclusive method: a run has as few as 2-3 passes, and the default
    (exclusive) method extrapolates quartiles beyond min and max there.
    """
    if len(samples) < 2:
        return None
    return statistics.quantiles(samples, n=4, method="inclusive")


def summarize(samples: Sequence[float]) -> Dict:
    """Median, quartiles, extremes, count and rule-based tail."""
    samples = list(samples)
    out: Dict = {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }
    q = quartiles(samples)
    if q is not None:
        out["q1"], out["q3"] = q[0], q[2]
    tail = tail_percentile(len(samples))
    if tail is not None:
        out["tail"] = {"p": tail, "value": percentile(samples, tail)}
    return out


def spread(summary: Dict) -> float:
    """Interquartile distance as a share of the median (0 if unknown)."""
    if "q1" not in summary or not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def worsening(baseline: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is, as a share of ``baseline``.

    Positive means worse, whatever the metric's direction.
    """
    if baseline == 0:
        return 0.0 if candidate == 0 else float("inf")
    change = (candidate - baseline) / abs(baseline)
    return change if better == "lower" else -change


#: setup_s differences below this many seconds are scheduler noise.
SETUP_FLOOR_S = 0.05


def verdict(name: str, better: str, bound: float,
            base: Dict, cand: Dict,
            base_samples: Sequence[float] = (),
            cand_samples: Sequence[float] = ()) -> Dict:
    """Compare two summaries of one metric on one workload.

    ``regressed`` when the candidate's median is worse by more than the
    bound; ``unresolved`` (never "unchanged") when the quartile spread
    of either side is wider than the bound, unless every candidate
    sample beats every baseline sample; ``improved`` / ``ok`` otherwise.
    """
    worse = worsening(base["median"], cand["median"], better)
    wide = max(spread(base), spread(cand))
    row = {"base": base["median"], "cand": cand["median"],
           "worse_by": worse, "spread": wide, "bound": bound}
    if name == "setup_s" and \
            abs(cand["median"] - base["median"]) < SETUP_FLOOR_S:
        row["verdict"] = "ok"
    elif bound == 0.0:                       # any increase regresses
        row["verdict"] = "regressed" if worse > 0 else "ok"
    elif wide > bound:
        dominated = bool(base_samples) and bool(cand_samples) and (
            max(cand_samples) < min(base_samples) if better == "lower"
            else min(cand_samples) > max(base_samples)
        )
        row["verdict"] = "improved" if dominated else "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "improved" if worse < -bound else "ok"
    return row
