"""Logarithmic (2D Coulomb) energy of point configurations.

Covers the pairwise energy E over ordered distinct pairs and the weighted
energy-condition series over the intervals of a partition, with a
three-valued convergence verdict. The verdict applies the decay rule of
shortness (`partitions.classify_terms`) to the positive parts of the
summands, so both series of the paper's conditions are judged by one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partitions import MIN_TERMS_FOR_VERDICT, classify_terms
from .seqcore import ParameterError, Partition, PointSequence, _dist0, _owned, _series_order

__all__ = ["total_energy", "energy_condition_report", "EnergyReport"]

# The most differences one block of total_energy holds: 512 KB of doubles.
_BLOCK_DIFFS = 2**16


def total_energy(seq) -> float:
    """E = sum over ordered pairs k != l of log|x_k - x_l|.

    Blocked O(N^2) evaluation; this is the defining sum, not an
    approximation. The strict lower triangle, the differences x_i - x_j,
    j < i, in row order, is cut into blocks of whole rows: each block takes
    the most rows whose differences number at most _BLOCK_DIFFS, and at
    least one row. Every block is written into one buffer, reused, of
    max(_BLOCK_DIFFS, N - 1) doubles at most: 512 KB up to N = 65 537,
    whatever the pair count. Each block's logs are summed by np.sum and the
    block sums by math.fsum. Up to 362 points (rows 1..361, 65 341
    differences) are one block. Raises on non-finite and on duplicate points
    (log 0).
    """
    x = seq.points if isinstance(seq, PointSequence) else np.asarray(seq, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParameterError("points must be finite")
    n = x.size
    if n < 2:
        return 0.0
    cap = _BLOCK_DIFFS
    buf = np.empty(min(max(cap, n - 1), n * (n - 1) // 2))
    sums = []
    i0 = 1
    while i0 < n:
        # the largest i1 with i0 + ... + (i1 - 1) <= cap, at least i0 + 1
        i1 = min(n, max(i0 + 1, (1 + math.isqrt(1 + 8 * cap + 4 * i0 * (i0 - 1))) // 2))
        end = 0
        for i in range(i0, i1):
            np.subtract(x[i], x[:i], out=buf[end:end + i])
            end += i
        vals = buf[:end]
        np.abs(vals, out=vals)
        if not vals.all():  # a zero distance, found without a boolean copy of vals
            raise ParameterError("duplicate points give log 0 in the energy")
        sums.append(float(np.sum(np.log(vals, out=vals))))
        i0 = i1
    return 2.0 * math.fsum(sums)


@dataclass(frozen=True)
class EnergyReport:
    """Per-interval energy-condition data plus its decay diagnostic.

    One array entry per interval I_n = (a, b], ordered by increasing
    dist(0, I_n): its index n, ends a and b, point count, energy, summand
    and dist0 = dist(0, I_n). partial_sums accumulate the summands in that
    order. verdict is one of supported / unsupported / inconclusive for "the
    series converges": the decay rule of shortness on the positive parts of
    the summands, with short read as supported and long as unsupported, and
    a series with fewer positive terms than the rule needs read as
    supported. fitted_exponent is the rule's decay exponent (0 where it was
    not fitted).
    """

    n: np.ndarray
    a: np.ndarray
    b: np.ndarray
    count: np.ndarray
    energy: np.ndarray
    summand: np.ndarray
    dist0: np.ndarray
    partial_sums: np.ndarray
    window: tuple[float, float]
    fitted_exponent: float
    verdict: str

    def rows(self):
        """An iterator over the intervals, in series order, of (n, a, b,
        count, energy, summand, dist0, partial sum) as Python numbers."""
        return zip(*(col.tolist() for col in (self.n, self.a, self.b, self.count, self.energy,
                                               self.summand, self.dist0, self.partial_sums)))

    def to_json_dict(self) -> dict:
        return {
            "window": list(self.window),
            "verdict": self.verdict,
            "fitted_exponent": self.fitted_exponent,
            "partial_sums": self.partial_sums.tolist(),
            "records": [{"n": n, "interval": [a, b], "count": count, "energy": e_n,
                         "summand": s_n, "dist0": d}
                        for n, a, b, count, e_n, s_n, d, _ in self.rows()],
        }


def _series_verdict(summands: np.ndarray):
    """(verdict, fitted_exponent) of the summand series: the decay rule of
    shortness on its positive parts. The rule reads a decay from at least
    MIN_TERMS_FOR_VERDICT terms; fewer positive terms show no tail to decay,
    so that series is supported, as the all-zero series is."""
    positive = np.maximum(summands, 0.0)
    if np.count_nonzero(positive) < MIN_TERMS_FOR_VERDICT:
        return "supported", 0.0
    verdict, exponent = classify_terms(positive)
    return {"short": "supported", "long": "unsupported"}.get(verdict, verdict), exponent


def energy_condition_report(seq: PointSequence, part: Partition) -> EnergyReport:
    """Evaluate the energy-condition series of a sequence on a partition.

    The series counts the points the partition covers: every interval lies
    inside the cover, and the report's window is the intersection of the
    cover with the sequence window; a cover that does not meet the window is
    a ParameterError naming both.
    Summand for interval I_n with count D and energy E:
        s_n = (D^2 * log|I_n| - E) / (1 + dist(0, I_n)^2).
    Partial sums run in order of increasing distance from the origin. The
    verdict is the decay rule of shortness (`classify_terms`) on the
    positive parts of the summands; a series with fewer positive terms than
    the rule needs (none, say) is supported.
    """
    (lo, hi), (wlo, whi) = part.cover(), seq.window
    window = max(lo, wlo), min(hi, whi)
    if window[0] > window[1]:
        raise ParameterError(f"the partition covers [{lo}, {hi}], which does not meet "
                             f"the sequence window [{wlo}, {whi}]")
    pts = seq.points
    u, v = part.breakpoints[:-1], part.breakpoints[1:]
    order = _series_order(u, v)
    u, v = u[order], v[order]
    # the default closure: (a, b]
    first, last = _owned(pts, u, v)
    counts = last - first
    energies = np.zeros(counts.size)
    multi = np.flatnonzero(counts >= 2)
    for k, i0, i1 in zip(multi.tolist(), first[multi].tolist(), last[multi].tolist()):
        energies[k] = total_energy(pts[i0:i1])
    dist = _dist0(u, v)
    # math.log per width (numpy's log rounds differently in rare cases);
    # dist(0, I) squared exactly, as in the shortness terms
    log_width = np.fromiter(map(math.log, (v - u).tolist()), float, count=counts.size)
    summands = (counts * counts * log_width - energies) / (1.0 + dist * dist)
    verdict, exponent = _series_verdict(summands)
    return EnergyReport(order - part.zero_index, u, v, counts, energies, summands, dist,
                        np.cumsum(summands), window, exponent, verdict)
