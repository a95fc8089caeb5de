"""Shortness tests and greedy density partitions.

A disjoint interval family is long when sum |I|^2 / (1 + dist(0,I)^2)
diverges, short when it converges. Truncations cannot decide convergence,
so verdicts are three-valued with documented fitted-decay thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import ParameterError, Partition, PointSequence, _dist0

__all__ = [
    "ShortnessReport",
    "shortness",
    "classify_terms",
    "PartitionValidity",
    "is_valid_paper_partition",
    "GreedyResult",
    "greedy_density_partition",
]

# Fitted log-log exponent below which truncated term decay counts as
# evidence of convergence; genuine shortness needs decay faster than 1/n.
SHORT_EXPONENT = -1.2
# "Bounded below" evidence for longness: the minimum over the outer half of
# the terms stays above this fraction of the overall mean.
LONG_FLOOR_FRACTION = 0.1
MIN_TERMS_FOR_VERDICT = 3


def _fitted_exponent(terms: np.ndarray) -> float:
    # log-log least squares of term size against rank
    k = np.arange(1, terms.size + 1, dtype=float)
    mask = terms > 0
    if np.count_nonzero(mask) < 2:
        return 0.0
    lx = np.log(k[mask])
    ly = np.log(terms[mask])
    lx = lx - lx.mean()
    denom = float(np.sum(lx * lx))
    return float(np.sum(lx * (ly - ly.mean())) / denom) if denom else 0.0


def classify_terms(terms: np.ndarray) -> tuple[str, float]:
    """(verdict, fitted_exponent) for a distance-ordered term sequence."""
    if terms.size < MIN_TERMS_FOR_VERDICT:
        return "inconclusive", 0.0
    exponent = _fitted_exponent(terms)
    if exponent < SHORT_EXPONENT:
        return "short", exponent
    outer = terms[terms.size // 2:]
    if outer.size and float(np.min(outer)) >= LONG_FLOOR_FRACTION * float(np.mean(terms)):
        return "long", exponent
    return "inconclusive", exponent


@dataclass(frozen=True)
class ShortnessReport:
    terms: np.ndarray
    partial_sums: np.ndarray
    verdict: str
    fitted_exponent: float
    window: tuple[float, float]

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1]) if len(self.partial_sums) else 0.0

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "fitted_exponent": self.fitted_exponent,
            "total": self.total,
            "terms": [float(t) for t in self.terms],
            "window": list(self.window),
        }


def shortness(part: Partition) -> ShortnessReport:
    """Shortness verdict for a partition over its covered range.

    Terms |I|^2 / (1 + dist(0, I)^2) run in order of (dist(0, I), left end).
    """
    u, v = part.breakpoints[:-1], part.breakpoints[1:]
    if u.size < MIN_TERMS_FOR_VERDICT:
        raise ParameterError("shortness needs at least 3 intervals")
    dist = _dist0(u, v)
    order = np.lexsort((u, dist))
    # Python's ** squares through libm pow, which rounds differently from
    # numpy's exact x*x in about 1 case in 1000; the reported terms keep it.
    terms = np.array([length ** 2 / (1.0 + d ** 2) for length, d in
                      zip((v - u)[order].tolist(), dist[order].tolist())])
    verdict, exponent = classify_terms(terms)
    return ShortnessReport(terms, np.cumsum(terms), verdict, exponent, part.cover())


@dataclass(frozen=True)
class PartitionValidity:
    valid: bool
    reasons: tuple
    monotone: bool
    shortness: ShortnessReport


def _lengths_by_side(part: Partition):
    z = part.zero_index
    lengths = np.diff(part.breakpoints)
    right = lengths[z:]
    left = lengths[:z][::-1]  # walking away from 0
    return left, right


def _grows_outward(lengths: np.ndarray) -> bool:
    if lengths.size < 2:
        return True
    outer = lengths[lengths.size // 2:]
    if np.any(np.diff(outer) < -1e-12):
        return False
    return outer[-1] > outer[0] or lengths[-1] > lengths[0]


def is_valid_paper_partition(part: Partition) -> PartitionValidity:
    """Check a partition against the short-partition requirements.

    Growth of |I_n| toward infinity is proxied by "lengths non-decreasing
    and actually growing over the outer half of the window"; the monotone
    flag (lengths non-decreasing away from 0 on both sides everywhere) is
    reported separately.
    """
    rep = shortness(part)
    reasons = []
    if rep.verdict != "short":
        reasons.append(rep.verdict if rep.verdict == "long" else "shortness inconclusive")
    left, right = _lengths_by_side(part)
    if not (_grows_outward(left) and _grows_outward(right)):
        reasons.append("interval lengths do not grow")
    monotone = (not np.any(np.diff(left) < -1e-12)) and (not np.any(np.diff(right) < -1e-12))
    return PartitionValidity(not reasons, tuple(reasons), monotone, rep)


# ---------------------------------------------------------------------------
# Greedy partition construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreedyResult:
    ok: bool
    partition: Partition | None
    counts: tuple
    failed_direction: str | None = None
    blocked_at: float | None = None
    covered: tuple[float, float] | None = None
    trimmed: bool = False

    def __bool__(self):
        return self.ok


def _grow_right(points: np.ndarray, d: float, hi: float, monotone: bool):
    """Greedy breakpoints 0 = a_0 < a_1 < ... with count >= d * length.

    Candidates are the sequence points themselves (counts only change
    there). Each step takes the smallest candidate satisfying the count
    condition and, if requested, the non-decreasing length constraint.

    Returns (breakpoints beyond 0, counts, blocked_at or None, trimmed).
    A step where the remaining span cannot even hold an interval of the
    previous length is a truncation artifact, not a density failure: the
    walk stops there and the leftover edge is reported as trimmed.
    """
    bks = [0.0]
    counts = []
    prev_len = 0.0
    idx = np.searchsorted(points, 0.0, side="right")
    n = points.size
    while idx < n and points[idx] <= hi:
        a_i = bks[-1]
        if monotone and points[n - 1] - a_i < prev_len:
            return bks[1:], counts, None, True
        found = None
        exhausted = True
        j = idx
        # count in (a_i, points[j]] is j - idx + 1
        while j < n and points[j] <= hi:
            length = points[j] - a_i
            count = j - idx + 1
            if monotone and length < prev_len:
                j += 1
                continue
            if count >= d * length:
                found = j
                break
            # once d*length outruns every point that could still arrive,
            # no later candidate can satisfy the condition
            if d * length > (n - idx) + 1:
                exhausted = False
                break
            j += 1
        if found is None:
            # a stall on a final sliver of the window is a truncation
            # artifact: the points that would have completed the interval
            # were cut off, not missing
            if exhausted and a_i > 0 and hi - a_i <= 0.05 * a_i:
                return bks[1:], counts, None, True
            return bks[1:], counts, float(a_i), False
        bks.append(float(points[found]))
        counts.append(found - idx + 1)
        prev_len = bks[-1] - a_i
        idx = found + 1
    return bks[1:], counts, None, False


def greedy_density_partition(seq: PointSequence, d: float,
                             monotone: bool = True) -> GreedyResult:
    """Greedy short-partition candidate at target density d.

    Walks right from 0 choosing the smallest sequence point a_(i+1) with
    #(seq in (a_i, a_(i+1)]) >= d * (a_(i+1) - a_i) and, when monotone,
    (a_(i+1) - a_i) >= (a_i - a_(i-1)); the left side mirrors this away
    from 0. Fails with the offending direction if a side runs out of window
    before its count condition can be met; a leftover sliver at the window
    edge too short for the monotone constraint is trimmed instead.
    """
    if d <= 0:
        raise ParameterError("target density must be positive")
    if len(seq) == 0:
        raise ParameterError("sequence is empty")
    lo, hi = seq.window
    right_bks, right_counts, right_block, right_trim = _grow_right(
        seq.points, d, hi, monotone)
    # mirror for the left side: reflect points about 0
    mirrored = PointSequence(-seq.points[::-1], (-hi, -lo), seq.label)
    left_bks, left_counts, left_block, left_trim = _grow_right(
        mirrored.points, d, -lo, monotone)
    if right_block is not None:
        return GreedyResult(False, None, (), "right", right_block)
    if left_block is not None:
        return GreedyResult(False, None, (), "left", -left_block)
    bks = [-b for b in reversed(left_bks)] + [0.0] + right_bks
    counts = tuple(reversed(left_counts)) + tuple(right_counts)
    if len(bks) < 2:
        return GreedyResult(False, None, (), "both", 0.0)
    part = Partition(np.array(bks))
    covered = part.cover()
    return GreedyResult(True, part, counts, covered=covered,
                        trimmed=right_trim or left_trim)
