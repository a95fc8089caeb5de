"""Shortness tests and greedy density partitions.

A disjoint interval family is long when sum |I|^2 / (1 + dist(0,I)^2)
diverges, short when it converges. Truncations cannot decide convergence,
so verdicts are three-valued with documented fitted-decay thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqcore import (ParameterError, Partition, PointSequence, _dist0, _positive,
                      _series_order, _slope)

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
    return _slope(np.log(k[mask]), np.log(terms[mask]))


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
    verdict: str
    fitted_exponent: float
    window: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "fitted_exponent": self.fitted_exponent,
            "total": float(np.cumsum(self.terms)[-1]) if self.terms.size else 0.0,
            "terms": self.terms.tolist(),
            "window": list(self.window),
        }


def _terms_of(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Shortness terms |I|^2 / (1 + dist(0, I)^2) of the intervals (u, v),
    squared exactly (x * x); the one place this formula is written."""
    length, dist = v - u, _dist0(u, v)
    return length * length / (1.0 + dist * dist)


def shortness(part: Partition) -> ShortnessReport:
    """Shortness verdict for a partition over its covered range.

    Terms |I|^2 / (1 + dist(0, I)^2) run in order of (dist(0, I), left end).
    """
    u, v = part.breakpoints[:-1], part.breakpoints[1:]
    if u.size < MIN_TERMS_FOR_VERDICT:
        raise ParameterError("shortness needs at least 3 intervals")
    order = _series_order(u, v)
    terms = _terms_of(u[order], v[order])
    verdict, exponent = classify_terms(terms)
    return ShortnessReport(terms, verdict, exponent, part.cover())


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


def _monotone(part: Partition) -> bool:
    """Lengths non-decreasing away from 0 on both sides, to 1e-12."""
    return not any(np.any(np.diff(side) < -1e-12) for side in _lengths_by_side(part))


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
    return PartitionValidity(not reasons, tuple(reasons), _monotone(part), rep)


# ---------------------------------------------------------------------------
# Greedy partition construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreedyResult:
    ok: bool
    partition: Partition | None
    counts: np.ndarray
    failed_direction: str | None = None
    blocked_at: float | None = None


# First chunk sizes of the two galloping searches in _grow_right; each chunk
# after the first is larger, so a search over m candidates takes O(log m)
# numpy calls and reads at most a few times m of them.
_STEP_CHUNK = 16
_RUN_CHUNK = 64


def _step(points, d, end, pos, a_i, prev_len):
    """One greedy step from breakpoint a_i; candidates are points[pos:end],
    less those shorter than prev_len.

    Returns (found, exhausted): the index of the chosen point, or None with
    exhausted False when d * length outran every point still to come.
    """
    # Since 0 <= prev_len <= a_i, points[j] - a_i is exact for points[j] <=
    # a_i + prev_len and at least prev_len beyond it, so the points left out
    # are those below a_i + prev_len. Its rounded sum can fall one point
    # short, never past the last left out; the loop's own test settles it.
    j = max(int(points.searchsorted(a_i + prev_len)), pos)
    if j < end and points[j] - a_i < prev_len:
        j += 1
    room = (points.size - pos) + 1
    size = _STEP_CHUNK
    while j < end:
        stop = min(j + size, end)
        scaled = d * (points[j:stop] - a_i)
        count = np.arange(j - pos + 1, stop - pos + 1)
        # count in (a_i, points[j]] is j - pos + 1; once d * length exceeds
        # every point that could still arrive, no later candidate can do
        hit = np.flatnonzero((count >= scaled) | (scaled > room))
        if hit.size:
            h = hit[0]
            return (j + int(h), True) if count[h] >= scaled[h] else (None, False)
        j = stop
        size *= 2
    return None, True


def _single_run(points, d, end, pos, prev_len):
    """How many single-point steps follow in a row from points[pos - 1].

    Step m takes points[m] alone: 1 >= d * gap and gap >= the previous gap,
    with gap = points[m] - points[m - 1]. The trim test needs no check
    here: it fails only where the gap test does.
    """
    taken = 0
    size = _RUN_CHUNK
    while pos + taken < end:
        lo = pos + taken
        seg = points[lo - 1:min(lo + size, end)]
        gaps = seg[1:] - seg[:-1]
        ok = 1 >= d * gaps
        ok[0] &= not gaps[0] < prev_len
        ok[1:] &= ~(gaps[1:] < gaps[:-1])
        m = int(ok.argmin()) if not ok.all() else ok.size
        taken += m
        if m < ok.size:
            break
        prev_len = gaps[-1]
        size *= 4
    return taken


def _grow_right(points: np.ndarray, d: float, hi: float):
    """Greedy breakpoints 0 = a_0 < a_1 < ... with count >= d * length.

    Candidates are the sequence points themselves (counts only change
    there). Each step takes the smallest candidate satisfying the count
    condition and the non-decreasing length constraint.

    Returns (breakpoints beyond 0, counts, blocked_at or None, trimmed).
    A step where the remaining span cannot even hold an interval of the
    previous length is a truncation artifact, not a density failure: the
    walk stops there and the leftover edge is reported as trimmed.

    The walk runs in numpy in two regimes. A step of any length (`_step`)
    skips the candidates shorter than the previous length, then searches
    galloping chunks for the first candidate that meets the count condition
    or that proves no later one can. After a step that took one point,
    `_single_run` accepts further single-point steps (lattices, lacunary
    sequences near 0) in growing chunks. Every comparison evaluates the same
    float expression, on the same operands, as a loop over the candidates
    one at a time, so the breakpoints, counts and blocked_at agree with that
    loop bit for bit; tests/test_series_equivalence.py keeps the loop as the
    reference.
    """
    n = points.size
    end = int(points.searchsorted(hi, side="right"))
    first = pos = int(points.searchsorted(0.0, side="right"))
    runs = []                    # chosen points as [lo, hi) index ranges
    a_i, prev_len = 0.0, 0.0
    blocked_at, trimmed = None, False
    while pos < end:
        if points[n - 1] - a_i < prev_len:
            trimmed = True
            break
        found, exhausted = _step(points, d, end, pos, a_i, prev_len)
        if found is None:
            # a stall on a final sliver of the window is a truncation
            # artifact: the points that would have completed the interval
            # were cut off, not missing
            if exhausted and a_i > 0 and hi - a_i <= 0.05 * a_i:
                trimmed = True
            else:
                blocked_at = float(a_i)
            break
        prev_len = points[found] - a_i
        last = found
        if found == pos:
            taken = _single_run(points, d, end, found + 1, prev_len)
            if taken:
                last = found + taken
                prev_len = points[last] - points[last - 1]
        runs.append((found, last + 1))
        a_i = points[last]
        pos = last + 1
    idx = np.concatenate([[first - 1]] + [np.arange(lo, hi) for lo, hi in runs])
    return points[idx[1:]], np.diff(idx), blocked_at, trimmed


def greedy_density_partition(seq: PointSequence, d: float) -> GreedyResult:
    """Greedy short-partition candidate at target density d.

    Walks right from 0 choosing the smallest sequence point a_(i+1) with
    #(seq in (a_i, a_(i+1)]) >= d * (a_(i+1) - a_i) and
    (a_(i+1) - a_i) >= (a_i - a_(i-1)); the left side mirrors this away
    from 0. Fails with the offending direction if a side runs out of window
    before its count condition can be met (the left side is walked only if
    the right one succeeds); a leftover sliver at the window edge too short
    for the length constraint is trimmed instead.
    """
    _positive(d, "target density")
    if len(seq) == 0:
        raise ParameterError("sequence is empty")
    lo, hi = seq.window
    empty = np.zeros(0, int)
    right_bks, right_counts, right_block, _ = _grow_right(seq.points, d, hi)
    if right_block is not None:
        return GreedyResult(False, None, empty, "right", right_block)
    # the left side walks the points reflected about 0
    left_bks, left_counts, left_block, _ = _grow_right(-seq.points[::-1], d, -lo)
    if left_block is not None:
        return GreedyResult(False, None, empty, "left", -left_block)
    bks = np.concatenate((-left_bks[::-1], [0.0], right_bks))
    counts = np.concatenate((left_counts[::-1], right_counts))
    if bks.size < 2:
        return GreedyResult(False, None, empty, "both", 0.0)
    return GreedyResult(True, Partition(bks), counts)


def _short_greedy(seq: PointSequence, d: float) -> GreedyResult | None:
    """The greedy result at level d if its partition has at least 4
    breakpoints and is short, else None: d1's test at level d."""
    res = greedy_density_partition(seq, d)
    ok = res.ok and len(res.partition.breakpoints) >= 4
    return res if ok and shortness(res.partition).verdict == "short" else None
