"""Logarithmic (2D Coulomb) energy of point configurations.

Covers the pairwise energy E over ordered distinct pairs, per-interval
energies, the weighted energy-condition series with a three-valued
convergence verdict, and closed-form log-kernel integrals for step
densities together with their two-sided bound suite. The verdict applies
the decay rule of shortness (`partitions.classify_terms`) to the positive
parts of the summands, so both series of the paper's conditions are judged
by one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partitions import MIN_TERMS_FOR_VERDICT, classify_terms
from .seqcore import (Interval, ParameterError, Partition, PointSequence, _dist0, _owned,
                      _series_order)

__all__ = [
    "total_energy",
    "interval_energy",
    "energy_condition_report",
    "EnergyReport",
    "EnergyRecord",
    "StepDensity",
    "log_kernel_integral",
    "log_plus",
    "log_minus",
    "BoundCheck",
    "log_bound_part1",
    "log_bound_part2",
    "log_bound_part3",
    "log_bound_part4",
    "log_bound_part5",
    "log_bound_part6",
]

_BLOCK = 256


def _points_of(seq) -> np.ndarray:
    if isinstance(seq, PointSequence):
        return seq.points
    return np.asarray(seq, dtype=float)


def total_energy(seq) -> float:
    """E = sum over ordered pairs k != l of log|x_k - x_l|.

    Blocked O(N^2) evaluation; this is the defining sum, not an
    approximation. Raises on duplicate points (log 0).
    """
    x = _points_of(seq)
    n = x.size
    if n < 2:
        return 0.0
    total = 0.0
    for i0 in range(1, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        diffs = x[i0:i1, None] - x[None, :i1]
        mask = np.arange(i0, i1)[:, None] > np.arange(i1)[None, :]
        vals = np.abs(diffs[mask])
        if np.any(vals == 0.0):
            raise ParameterError("duplicate points give log 0 in the energy")
        total += float(np.sum(np.log(vals)))
    return 2.0 * total


def interval_energy(seq, iv: Interval):
    """(count, energy) of the points falling in the half-open interval (a, b]."""
    x = _points_of(seq)
    first, last = _owned(x, iv.a, iv.b)
    count = int(last - first)
    if count < 2:
        return count, 0.0
    return count, total_energy(x[first:last])


@dataclass(frozen=True)
class EnergyRecord:
    n: int
    interval: Interval
    count: int
    energy: float
    summand: float

    @property
    def dist0(self) -> float:
        return self.interval.dist0


@dataclass(frozen=True)
class EnergyReport:
    """Per-interval energy-condition data plus its decay diagnostic.

    records are ordered by increasing dist(0, I_n); partial_sums accumulate
    the summands in that order. verdict is one of supported / unsupported /
    inconclusive for "the series converges": the decay rule of shortness on
    the positive parts of the summands, with short read as supported and
    long as unsupported, and a series with fewer positive terms than the
    rule needs read as supported. fitted_exponent is the rule's decay
    exponent (0 where it was not fitted).
    """

    records: tuple
    partial_sums: np.ndarray
    window: tuple[float, float]
    fitted_exponent: float
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "window": list(self.window),
            "verdict": self.verdict,
            "fitted_exponent": self.fitted_exponent,
            "partial_sums": [float(v) for v in self.partial_sums],
            "records": [
                {
                    "n": r.n,
                    "interval": [r.interval.a, r.interval.b],
                    "count": r.count,
                    "energy": r.energy,
                    "summand": r.summand,
                    "dist0": r.dist0,
                }
                for r in self.records
            ],
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

    Summand for interval I_n with count D and energy E:
        s_n = (D^2 * log|I_n| - E) / (1 + dist(0, I_n)^2).
    Partial sums run in order of increasing distance from the origin. The
    verdict is the decay rule of shortness (`classify_terms`) on the
    positive parts of the summands; a series with fewer positive terms than
    the rule needs (none, say) is supported.
    """
    if not part.covers_window(seq.window):
        raise ParameterError("partition does not cover the sequence window")
    pts = seq.points
    u, v = part.breakpoints[:-1], part.breakpoints[1:]
    # interval_energy's convention: (a, b]
    first, last = _owned(pts, u, v)
    order = _series_order(u, v)
    dist = _dist0(u, v)[order].tolist()
    u, v = u[order].tolist(), v[order].tolist()
    first, last = first[order].tolist(), last[order].tolist()
    counts = [i1 - i0 for i0, i1 in zip(first, last)]
    energies = [total_energy(pts[i0:i1]) if i1 - i0 >= 2 else 0.0
                for i0, i1 in zip(first, last)]
    # math.log per summand (numpy's log rounds differently in rare cases);
    # dist(0, I) squared exactly, as in the shortness terms
    summands = [(count * count * math.log(b - a) - e_n) / (1.0 + d * d)
                for a, b, count, e_n, d in zip(u, v, counts, energies, dist)]
    z = part.zero_index
    recs = tuple(EnergyRecord(i - z, Interval(a, b), count, e_n, s_n)
                 for i, a, b, count, e_n, s_n
                 in zip(order.tolist(), u, v, counts, energies, summands))
    summands = np.array(summands)
    partial = np.cumsum(summands) if summands.size else np.zeros(0)
    verdict, exponent = _series_verdict(summands)
    return EnergyReport(recs, partial, seq.window, exponent, verdict)


# ---------------------------------------------------------------------------
# Step densities and closed-form log-kernel integrals
# ---------------------------------------------------------------------------

def log_plus(x: float) -> float:
    """max(0, log x); defined as 0 for x <= 1 (including the limit x -> 0)."""
    return math.log(x) if x > 1.0 else 0.0


def log_minus(x: float) -> float:
    """max(0, -log x) for x > 0."""
    if x <= 0.0:
        raise ParameterError("log_minus needs a positive argument")
    return -math.log(x) if x < 1.0 else 0.0


@dataclass(frozen=True)
class StepDensity:
    """Piecewise-constant density: heights[i] on (edges[i], edges[i+1])."""

    edges: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        h = np.asarray(self.heights, dtype=float)
        if e.ndim != 1 or h.ndim != 1 or e.size != h.size + 1:
            raise ParameterError("need len(edges) == len(heights) + 1")
        if np.any(np.diff(e) <= 0):
            raise ParameterError("edges must be strictly increasing")
        if np.any(h < 0):
            raise ParameterError("heights must be nonnegative")
        e.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "heights", h)

    @property
    def mass(self) -> float:
        return float(np.sum(self.heights * np.diff(self.edges)))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    @property
    def max_height(self) -> float:
        return float(np.max(self.heights)) if self.heights.size else 0.0

    @property
    def min_height(self) -> float:
        return float(np.min(self.heights)) if self.heights.size else 0.0

    @classmethod
    def uniform(cls, a: float, b: float) -> "StepDensity":
        return cls(np.array([a, b]), np.array([1.0 / (b - a)]))

    def moment0_against_log_plus(self, y: float) -> float:
        """Closed-form integral of log_plus|x - y| against the density."""
        vals = _antideriv_log_plus(self.edges - y)
        return float(np.sum(self.heights * np.diff(vals)))


def _antideriv_log_plus(u):
    """Odd antiderivative of log_plus|u|: zero on [-1, 1]."""
    u = np.asarray(u, dtype=float)
    s = np.abs(u)
    out = np.zeros_like(s)
    big = s > 1.0
    sb = s[big]
    out[big] = sb * np.log(sb) - sb + 1.0
    return np.sign(u) * out


def _second_antideriv_log_abs(u):
    """K with K'' = log|u|; K and K' vanish at 0, so no delta at the kink."""
    u = np.asarray(u, dtype=float)
    s = np.abs(u)
    out = np.zeros_like(s)
    pos = s > 0
    sp = s[pos]
    out[pos] = 0.5 * sp * sp * np.log(sp) - 0.75 * sp * sp
    return out


def _second_antideriv_log_plus(u):
    """H with H'' = log_plus|u|; identically 0 on [-1, 1], C^1 everywhere."""
    u = np.asarray(u, dtype=float)
    s = np.abs(u)
    out = np.zeros_like(s)
    big = s > 1.0
    sb = s[big]
    out[big] = 0.5 * sb * sb * np.log(sb) - 0.75 * sb * sb + sb - 0.25
    return out


def _rectangle_integral(second_antideriv, p1, p2, q1, q2):
    # int_{p1}^{p2} int_{q1}^{q2} F(x - y) dy dx = -[H(p2-q2)-H(p2-q1)-H(p1-q2)+H(p1-q1)]
    corners = second_antideriv(np.array([p2 - q2, p2 - q1, p1 - q2, p1 - q1]))
    return -(corners[0] - corners[1] - corners[2] + corners[3])


def _pair_integral(alpha: StepDensity, beta: StepDensity, kind: str) -> float:
    pa, ha = alpha.edges, alpha.heights
    pb, hb = beta.edges, beta.heights
    total = 0.0
    for i in range(ha.size):
        if ha[i] == 0.0:
            continue
        for j in range(hb.size):
            if hb[j] == 0.0:
                continue
            plus = _rectangle_integral(_second_antideriv_log_plus,
                                       pa[i], pa[i + 1], pb[j], pb[j + 1])
            if kind == "plus":
                total += ha[i] * hb[j] * plus
            else:
                whole = _rectangle_integral(_second_antideriv_log_abs,
                                            pa[i], pa[i + 1], pb[j], pb[j + 1])
                total += ha[i] * hb[j] * (plus - whole)
    return total


def log_kernel_integral(alpha: StepDensity, beta: StepDensity, sign: str) -> float:
    """Double integral of log_plus|x-y| (or log_minus) against two unit-mass
    step densities, in closed form per step pair.
    """
    if sign not in ("plus", "minus"):
        raise ParameterError("sign must be 'plus' or 'minus'")
    for name, d in (("alpha", alpha), ("beta", beta)):
        if abs(d.mass - 1.0) > 1e-9:
            raise ParameterError(f"{name} must integrate to 1, got mass {d.mass}")
    return _pair_integral(alpha, beta, sign)


# ---------------------------------------------------------------------------
# Two-sided bound suite for the log-kernel integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    part: int
    lower: float
    value: float
    upper: float
    slack: float = 1e-12

    @property
    def ok(self) -> bool:
        return self.lower - self.slack <= self.value <= self.upper + self.slack


def _require_cap(density: StepDensity, cap: float, name: str) -> None:
    if cap <= 1.0:
        raise ParameterError(f"declared cap {name} must exceed 1")
    if density.max_height > cap:
        raise ParameterError(f"{name}: density exceeds its declared cap")


def log_bound_part1(alpha: StepDensity, cap_a: float) -> BoundCheck:
    """Self-interaction of one density under the minus kernel."""
    _require_cap(alpha, cap_a, "A")
    a1, a2 = alpha.support
    value = log_kernel_integral(alpha, alpha, "minus")
    return BoundCheck(1, log_minus(a2 - a1), value, log_minus(1.0 / cap_a) + 1.0)


def log_bound_part2(alpha: StepDensity, beta: StepDensity) -> BoundCheck:
    """Separated supports, minus kernel: pinched between the two distances."""
    a1, a2 = alpha.support
    b1, b2 = beta.support
    if not a2 < b1:
        raise ParameterError("part 2 needs separated supports (a2 < b1)")
    value = log_kernel_integral(alpha, beta, "minus")
    return BoundCheck(2, log_minus(b2 - a1), value, log_minus(b1 - a2))


def log_bound_part3(alpha: StepDensity, cap_a: float,
                    beta: StepDensity, cap_b: float) -> BoundCheck:
    """Abutting supports, minus kernel: upper bound from the larger cap."""
    _require_cap(alpha, cap_a, "A")
    _require_cap(beta, cap_b, "B")
    a2 = alpha.support[1]
    b1 = beta.support[0]
    if a2 != b1:
        raise ParameterError("part 3 needs abutting supports (a2 == b1)")
    value = log_kernel_integral(alpha, beta, "minus")
    upper = min(log_minus(1.0 / cap_a), log_minus(1.0 / cap_b)) + 1.0
    return BoundCheck(3, 0.0, value, upper)


def log_bound_part4(alpha: StepDensity, beta: StepDensity) -> BoundCheck:
    """Ordered supports, plus kernel: between gap and diameter logs."""
    a1, a2 = alpha.support
    b1, b2 = beta.support
    if not a2 <= b1:
        raise ParameterError("part 4 needs ordered supports (a2 <= b1)")
    value = log_kernel_integral(alpha, beta, "plus")
    return BoundCheck(4, log_plus(b1 - a2), value, log_plus(b2 - a1))


# Concrete absolute constant for parts 5 and 6 (the statement only asserts
# existence): with A/2 <= alpha <= A and unit mass the support is at most
# 2/A <= 2 long, and log 3 absorbs the worst case in both parts.
NEAR_UNIFORM_CONSTANT = math.log(3.0)


def _require_near_uniform(alpha: StepDensity, cap: float) -> None:
    _require_cap(alpha, cap, "A")
    if alpha.min_height < cap / 2.0 - 1e-12:
        raise ParameterError("parts 5-6 need A/2 <= alpha <= A on the support")


def log_bound_part5(alpha: StepDensity, cap_a: float, y: float) -> BoundCheck:
    """Plus kernel against a near-uniform density, observed from inside."""
    _require_near_uniform(alpha, cap_a)
    a1, a2 = alpha.support
    if not a1 < y < a2:
        raise ParameterError("part 5 needs y inside the support")
    value = alpha.moment0_against_log_plus(y)
    base = log_plus(a2 - a1)
    c = NEAR_UNIFORM_CONSTANT
    return BoundCheck(5, base - c, value, base + c)


def log_bound_part6(alpha: StepDensity, cap_a: float, y: float) -> BoundCheck:
    """Plus kernel against a near-uniform density, observed from the right."""
    _require_near_uniform(alpha, cap_a)
    a1, a2 = alpha.support
    if not y > a2:
        raise ParameterError("part 6 needs y to the right of the support")
    value = alpha.moment0_against_log_plus(y)
    base = log_plus(y - a1)
    return BoundCheck(6, base - NEAR_UNIFORM_CONSTANT, value, base)
