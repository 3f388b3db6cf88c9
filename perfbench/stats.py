"""Statistics shared by run.py (one run) and compare.py (many runs).

Percentiles are nearest-rank over the raw samples; quartiles and the
spread between runs use `statistics.quantiles(values, n=4)`; the
verdict follows the paired-runs rule: a gain needs nine tenths of
paired runs won and a median shift wider than the parent's own
interquartile range; a loss beyond the metric's bound is a
regression; a spread wider than the bound leaves the metric
unresolved.
"""

import math
import statistics


def percentile(values, q):
    """Nearest-rank `q`-quantile (0 < q <= 1) of `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of `n` samples lie above the nearest-rank `q`-quantile."""
    return n - max(1, math.ceil(q * n - 1e-9)) if n else 0


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values):
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


BETTER, WITHIN, REGRESSED, UNRESOLVED = "better", "within bound", "regressed", "unresolved"


def pair_wins(parent, change, higher_is_better):
    """Wins and losses of the change over the parent, paired by index."""
    wins = losses = 0
    for p, c in zip(parent, change):
        if c == p:
            continue
        if (c > p) == higher_is_better:
            wins += 1
        else:
            losses += 1
    return wins, losses


def verdict(parent, change, higher_is_better, bound):
    """Classifies `change` against `parent` (paired run values).

    * better: the change wins at least 9/10 of the pairs run (ties
      count for neither side) and the medians differ by more than the
      parent's interquartile range;
    * unresolved: the spread of either side, as a share of its median,
      exceeds the bound, unless every change run beats every parent run;
    * regressed: the change's median is worse than the parent's by more
      than `bound` times the parent's median;
    * within bound: anything else.
    """
    if not parent or not change:
        raise ValueError("verdict needs runs on both sides")
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if higher_is_better else -1.0
    wins, _ = pair_wins(parent, change, higher_is_better)
    if wins >= 0.9 * min(len(parent), len(change)) and sign * (cm - pm) > (p3 - p1):
        return BETTER
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(relative_iqr(parent), relative_iqr(change)) > bound and not dominates:
        return UNRESOLVED
    if sign * (pm - cm) > bound * abs(pm):
        return REGRESSED
    return WITHIN
