"""Density estimators d1, d3 and d4 and the Beurling-Malliavin density.

All estimators work at truncation scale, return witnesses, and re-check
every witness before reporting. The gap certificate in gapnum takes its
level from the d1 search here. Every level search is `_grid_max_feasible`:
a walk on a ladder of grid levels k / 1000 that starts near twice the mean
density, then a bisection between two neighbouring rungs. It returns the
exact answer for a predicate that is monotone in the level. Each estimator
is one probe, probe(a) -> (passes, witness), and the search hands back the
witnesses it found: none is recomputed after it.

Work that does not depend on the level is done once per search, before the
first probe: the d4 and BM estimates each build one search
(`long_family_search`), which holds the block candidates and, for d4, the
table of sparse widenings, so a probe compares that table against its
level. A d3 probe matches once and reads its four nested residuals from one
table of events (`_counting_residuals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .partitions import _monotone, _short_greedy, _terms_of, shortness
from .seqcore import (ParameterError, Partition, PointSequence, _dist0, _owned,
                      _percentile, _positive, _series_order, _slope)

__all__ = [
    "DensityEstimate",
    "density_lower",
    "d3_residual_curve",
    "density_d3_estimate",
    "d4_complement_estimate",
    "bm_density",
    "long_family_search",
    "verify_partition_witness",
    "verify_family_witness",
    "density_estimate",
]

GRID_STEPS = 1000
GRID_RESOLUTION = 1 / GRID_STEPS
# Divergence threshold for "this family is long": accumulated sum of
# |I|^2/(1+dist^2) terms with non-decaying behaviour.
REFUTE_SUM = 10.0
# Flatness threshold for the d3 residual curve at slope a: the fitted slope
# of the residual against log window size is at most D3_FLAT_SLOPE * a. It
# scales with a: on lacunary input (d3 = 0) that slope is exactly 2a.
D3_FLAT_SLOPE = 0.03
# The nested sub-windows of the d3 residual curve, as fractions of the window.
D3_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
# The fewest points d1 reads a level from; fewer read 0, and so does the gap
# certificate.
MIN_POINTS = 4


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    method: str
    window: tuple[float, float]
    witness: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "window": list(self.window),
            "witness": self.witness,
        }


def _default_a_max(seq: PointSequence) -> float:
    """Top rung of the level search: 1.5x the densest decile of local
    spacings, so a one-sided or clustered sequence is not capped by an
    oversized window. The search starts far below it on sparse input; the
    top rung only bounds the walk up, so a predicate that always passes (d4
    on a finite set is never refuted) still terminates.
    """
    if len(seq) < 2 or seq.span <= 0:
        return 1.0
    gaps = np.diff(seq.points)  # all positive, but their percentile can round to 0
    dense = _percentile(gaps, 10) or float(np.min(gaps))
    return 1.5 / dense + 10 * GRID_RESOLUTION


def _ladder_max(passes, kmax: int, start: float) -> int:
    """Largest k in 1..kmax with passes(k), or 0 when no probe passes.

    The rungs are kmax >> i. The walk starts at the highest rung at or below
    `start` (the lowest rung if none is), goes down while a rung fails or up
    while it passes, then bisects between the two neighbouring rungs with
    mid = (lo + hi) // 2.

    A top-down bisection probes the rungs from kmax down to the first that
    passes and then bisects the same way. So the two return the same k,
    after the same passing probes in the same order, whenever every rung
    above the start fails; and for a predicate that is monotone in k
    (passing below, failing above) both return its exact threshold.
    """
    rungs = [kmax >> i for i in range(kmax.bit_length())]
    i = next((j for j, k in enumerate(rungs) if k <= start), len(rungs) - 1)
    if passes(rungs[i]):
        while i > 0 and passes(rungs[i - 1]):
            i -= 1
        if i == 0:
            return kmax
    else:
        i += 1
        while i < len(rungs) and not passes(rungs[i]):
            i += 1
        if i == len(rungs):
            return 0
    lo, hi = rungs[i], rungs[i - 1]  # lo passes, hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _grid_level(k: int) -> float:
    """The grid level k / GRID_STEPS, rounded once: 1001 steps are 1.001,
    where the float product k * GRID_RESOLUTION rounds twice and gives
    1.0010000000000001. Division is correctly rounded, so this is the double
    nearest the decimal k / 1000."""
    return k / GRID_STEPS


def _grid_max_feasible(probe, seq: PointSequence):
    """(level, witness, refutation): the largest grid level k / 1000
    (`_grid_level`), 0 < k <= kmax, whose probe passes (0.0 when none does),
    and the witnesses probe(a) -> (passes, witness) gave at k and at k + 1.
    The walk (`_ladder_max`) ends on its last passing probe at k and its last
    failing one at k + 1, so witness is None at k = 0 and refutation is None
    at k = kmax. kmax puts the top rung `_default_a_max(seq)` on the grid,
    and the walk starts at twice the mean density len(seq) / |window|.

    Feasibility gates need not be monotone in the level, so the walk keeps
    to the rungs a top-down bisection from kmax would probe rather than
    doubling from the mean density: it skips only rungs above the start,
    and returns that bisection's answer whenever those rungs fail. A top
    rung that overflows to inf (spacings near the smallest float) is a
    ParameterError.
    """
    top = _default_a_max(seq) / GRID_RESOLUTION
    if top == math.inf:
        spacing = np.diff(seq.points).min(initial=math.inf)
        raise ParameterError(f"point spacings down to {spacing:.3g} are too small for a "
                             f"level search on a grid of step {GRID_RESOLUTION:g}")
    kmax = max(1, int(round(top)))
    start = 2.0 * len(seq) / seq.span / GRID_RESOLUTION if seq.span > 0 else math.inf
    last = {}  # passes -> the witness of the last probe with that outcome

    def passes(k: int) -> bool:
        ok, witness = probe(_grid_level(k))
        last[ok] = witness
        return ok

    k = _ladder_max(passes, kmax, start)
    return _grid_level(k), last.get(True), last.get(False)


# ---------------------------------------------------------------------------
# d1: short partitions from the greedy construction
# ---------------------------------------------------------------------------

def verify_partition_witness(seq: PointSequence, a: float, part: Partition) -> bool:
    """Re-check a witness partition: density, monotone lengths and shortness.

    Counting uses the outward closure the greedy construction uses:
    intervals right of 0 are (u, v], intervals left of 0 are [u, v), so
    each owns the endpoint facing away from 0 (see the closures listed in
    the seqcore module docstring).
    """
    _positive(a, "level a")
    bks = part.breakpoints
    if len(bks) < 4:
        return False
    z = part.zero_index
    for u, v, left in ((bks[:z], bks[1:z + 1], True), (bks[z:-1], bks[z + 1:], False)):
        first, last = _owned(seq.points, u, v, include_left=left, include_right=not left)
        if np.any(last - first < a * (v - u) - 1e-9):
            return False
    if not _monotone(part):
        return False
    return shortness(part).verdict == "short"


def density_lower(seq: PointSequence) -> DensityEstimate:
    """d1, the lower (interior) density via greedy short partitions.

    Feasibility at level a = the monotone greedy construction succeeds and
    its partition is short; the returned witness partition is re-verified.
    Fewer than MIN_POINTS points read 0.
    """
    if len(seq) < MIN_POINTS:
        return DensityEstimate(0.0, "d1", seq.window)

    def probe(a: float):
        res = _short_greedy(seq, a)
        return res is not None, res

    value, res, _ = _grid_max_feasible(probe, seq)
    witness = {}
    if value > 0:
        if verify_partition_witness(seq, value, res.partition):
            witness = {"breakpoints": [float(b) for b in res.partition.breakpoints],
                       "counts": res.counts.tolist(), "verified": True}
        else:   # the witness must reproduce the claim
            value = 0.0
    return DensityEstimate(value, "d1", seq.window, witness)


# ---------------------------------------------------------------------------
# d3: counting-function residual
# ---------------------------------------------------------------------------

def _mismatch_integrals(c: np.ndarray, a: float, x: np.ndarray) -> np.ndarray:
    """Per segment i, the exact integral of |c_i - a*t| / (1 + t^2) over
    [x_i, x_(i+1)], splitting a segment where c_i = a*t. The antiderivative
    c_i * arctan(t) - (a/2) * log1p(t^2) takes arctan and log1p once per
    point of x."""
    at, lg = np.arctan(x), 0.5 * a * np.log1p(x * x)
    fu, fv = c * at[:-1] - lg[:-1], c * at[1:] - lg[1:]
    del at, lg  # two arrays the size of x, freed before the next ones
    straddle = (x[:-1] < c / a) & (c / a < x[1:])
    plain = np.abs(fv - fu)
    if np.any(straddle):
        xs = c[straddle] / a
        fxs = c[straddle] * np.arctan(xs) - 0.5 * a * np.log1p(xs * xs)
        plain[straddle] = (np.abs(fxs - fu[straddle])
                           + np.abs(fv[straddle] - fxs))
    return plain


def _greedy_match_side(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Match each target to the nearest not-yet-used point, in order.

    Points strictly increasing, targets ascending and positive; points may
    be skipped (subsequence selection) but are used at most once. Returns
    the matched points.

    This is a whole-array form of a walk that, for each target, starts one
    past the last match and steps right while the next point is at least as
    close (`|p[i+1] - t| <= |p[i] - t|`), stopping at the first point whose
    distance grows. It stops where that walk does. Rounding keeps p - t
    monotone in p, so the computed distances do not grow while p < t; above
    a positive target p - t <= p, so distinct points keep distinct rounded
    differences and the distances grow strictly. A walk from the start
    therefore stops at the nearest point j*, the right one of a tie (as
    `<=` moves right), found by `searchsorted` and one comparison made with
    the walk's own arithmetic. A walk that starts past j* stops at once.
    So the k-th stop is max(start, j*_k), with start one past the previous
    stop, which unrolls to k + max(0, running max of j*_k - k). Targets
    whose stop passes the last point were never reached (the walk ran out
    of points) and are dropped.
    """
    n = points.size
    if n == 0:
        return np.empty(0)
    above = np.searchsorted(points, targets)
    right = np.minimum(above, n - 1)
    left = np.maximum(above - 1, 0)
    nearest = np.where(np.abs(points[right] - targets) <= np.abs(points[left] - targets),
                       right, left)
    k = np.arange(targets.size)
    stop = k + np.maximum(np.maximum.accumulate(nearest - k), 0)
    return points[stop[stop < n]]


def match_to_ideal_grid(seq: PointSequence, a: float) -> np.ndarray:
    """Greedy subsequence tracking the arithmetic progression of slope a,
    sorted and distinct: each side's matches are strictly increasing."""
    lo, hi = seq.window
    pts = seq.points
    pos = pts[pts > 0]
    neg = -pts[pts < 0][::-1]
    kmax_r = max(0, int(math.floor(a * hi))) if hi > 0 else 0
    kmax_l = max(0, int(math.floor(a * (-lo)))) if lo < 0 else 0
    # each target uses up at least one point, so targets past a side's point
    # count are never read: capping there keeps the arrays at most N long
    right = _greedy_match_side(pos, np.arange(1, min(kmax_r, pos.size) + 1) / a)
    left = _greedy_match_side(neg, np.arange(1, min(kmax_l, neg.size) + 1) / a)
    return np.concatenate([-left[::-1], right])


def _event_table(matched: np.ndarray):
    """(x, n): the matched points, with 0 added unless one of them is 0, and
    at each x_k the number of matched points at or below it less the number
    at or below 0: the counting function, anchored n(0) = 0, just right of
    x_k. Positions give n, as matched is sorted and distinct. The events of
    a window (lo, hi) are its ends and the x strictly inside it; 0 is one of
    those exactly when lo < 0 < hi.
    """
    zero = int(np.searchsorted(matched, 0.0, side="right"))
    n = np.arange(1 - zero, matched.size + 1 - zero, dtype=float)
    if zero and matched[zero - 1] == 0.0:
        return matched, n
    return np.insert(matched, zero, 0.0), np.insert(n, zero, 0.0)


def _counting_residuals(matched: np.ndarray, a: float, windows) -> list:
    """Exact Poisson-weighted L1 mismatch between the two-sided counting
    function of the matched points (anchored n(0) = 0) and the line a*x, on
    each window (lo, hi), lo <= hi. matched is sorted and distinct, as
    match_to_ideal_grid returns it.

    All windows share one event table (`_event_table`): arctan, log1p and
    the integral of each segment between table points are computed once,
    and a window adds its two end segments. A segment's count is n at its
    left end or, where its midpoint rounds onto its right end, the count at
    the midpoint, as for the end segments. (A midpoint that overflows to
    -inf needs no care: both ends are then beyond 1e154, where x^2 is inf
    and the integral is NaN for any count.) Each residual sums its window's
    segments in order, in one array, so it is the number the window gives
    alone.
    """
    zero = np.searchsorted(matched, 0.0, side="right")

    def at_midpoints(u, v):
        return (np.searchsorted(matched, 0.5 * (u + v), side="right") - zero).astype(float)

    x, c = _event_table(matched)
    c = c[:-1]
    off = 0.5 * (x[:-1] + x[1:]) >= x[1:]
    c[off] = at_midpoints(x[:-1][off], x[1:][off])
    inner = _mismatch_integrals(c, a, x)
    out = []
    for lo, hi in windows:
        k0, k1 = np.searchsorted(x, lo, side="right"), np.searchsorted(x, hi)
        # the end segments (lo, x[k0]) and (x[k1 - 1], hi), less the one
        # between them, or (lo, hi) alone
        e = np.array([lo, x[k0], x[k1 - 1], hi] if k0 < k1 else [lo, hi])
        ends = _mismatch_integrals(at_midpoints(e[:-1], e[1:]), a, e)
        parts = [ends[:1], inner[k0:max(k0, k1 - 1)], ends[2:]]
        out.append(float(np.sum(np.concatenate(parts))))
    return out


def d3_residual_curve(seq: PointSequence, a: float):
    """Truncation residuals of the d3 condition at slope a on nested
    sub-windows (one matching on the full window), as (fraction, residual).

    The four residuals come from one event table of the matching
    (`_counting_residuals`). Small and flattening with window size
    indicates d3 >= a; growth of the residual in the window size indicates
    a genuine slope mismatch. The last entry, at fraction 1, is the
    residual on the whole window.
    """
    _positive(a, "slope a")
    matched = match_to_ideal_grid(seq, a) if len(seq) else np.empty(0)
    lo, hi = seq.window
    windows = [(lo * f, hi * f) for f in D3_FRACTIONS]
    return list(zip(D3_FRACTIONS, _counting_residuals(matched, a, windows)))


def density_d3_estimate(seq: PointSequence) -> DensityEstimate:
    """Largest slope whose residual curve stays flat in the window size."""
    if len(seq) == 0:
        return DensityEstimate(0.0, "d3", seq.window)
    lo, hi = seq.window

    def probe(a: float):
        curve = d3_residual_curve(seq, a)
        sizes = np.array([max(abs(lo * f), abs(hi * f), 1.0) for f, _ in curve])
        resid = np.array([r for _, r in curve])
        return _slope(np.log(sizes), resid) <= D3_FLAT_SLOPE * a, curve

    value, curve, _ = _grid_max_feasible(probe, seq)
    witness = {}
    if value > 0:
        witness = {"residual_curve": [[f, r] for f, r in curve]}
    return DensityEstimate(value, "d3", seq.window, witness)


# ---------------------------------------------------------------------------
# Long-family searches: d4 refutation and the Beurling-Malliavin density
# ---------------------------------------------------------------------------

def _qualifying(pts: np.ndarray, u, v, a: float, mode: str):
    """Which intervals meet the count condition of a long-family mode:
    'below' counts the open (u, v) and wants count < a|I|, 'above' counts
    (u, v] and wants count >= a|I|."""
    below = mode == "below"
    first, last = _owned(pts, u, v, include_right=not below)
    return last - first < a * (v - u) if below else last - first >= a * (v - u)


# Wide sparse intervals carry at most this many interior points; longer
# low-density stretches are captured by the dyadic block candidates.
MAX_SPARSE_SPAN = 64

# Evidence rule for "this disjoint family is long" at truncation scale:
# keep only members whose shortness-type term clears an absolute floor,
# cap each term (a genuinely long family, like dyadic blocks at a density
# deficit, carries terms of order 1 each; one near-origin giant must not
# buy divergence on its own), and demand enough capped mass plus reach
# comparable to the window itself. A truncation cannot certify divergence;
# these are the declared thresholds.
LONG_TERM_FLOOR = 0.2
LONG_TERM_CAP = 2.0
LONG_MIN_COUNT = 5
LONG_REACH_FRACTION = 0.125
# Cap on a term in _assemble_family's pick order. Its floor filter is exact
# only while the floor does not exceed the cap. At 1/2, the lacunary gaps
# (2^k, 2^(k+1)), k >= 0, of term 4^k / (1 + 4^k) tie at the cap with a
# giant that covers them, and go first as the shorter.
PICK_CAP = 0.5
assert LONG_TERM_FLOOR <= PICK_CAP


def _sparse_table(pts: np.ndarray):
    """The part of `_sparse_candidates` that does not depend on the level,
    as (u, gap_end, widths, v, length, terms).

    The starts are the points that can supply a term of at least
    LONG_TERM_FLOOR: for a fixed start the rounded term is non-decreasing in
    the right end, on either side of 0 and across it, so a start whose
    widest span, up to MAX_SPARSE_SPAN interior points, stays below the
    floor has both its gap and its best widening below it. u holds the
    starts' points and gap_end the next point. Row w - 2 of v, length and
    terms holds, per start, the right end w points on, v - u and the
    shortness term; a term is -inf where the end runs past the last point
    or the term is NaN, so that entry is never picked. widths holds w - 1.
    """
    n = pts.size
    s = np.arange(n - 1)
    s = s[_terms_of(pts[s], pts[np.minimum(s + MAX_SPARSE_SPAN, n - 1)]) >= LONG_TERM_FLOOR]
    w = np.arange(2, MAX_SPARSE_SPAN + 1)[:, None]
    u = pts[s]
    v = pts[np.minimum(s + w, n - 1)]
    terms = _terms_of(u, v)
    terms[(s + w > n - 1) | np.isnan(terms)] = -np.inf
    return u, pts[s + 1], w - 1.0, v, v - u, terms


def _sparse_candidates(table, a: float):
    """Endpoint-on-point intervals with interior count < a * length, from
    `_sparse_table`: the consecutive gap of each start, plus its widening
    with the largest term among those with count < a * length, the fewest
    points on a tie. In order: gaps, then widenings, each by ascending
    start. A level costs one comparison over the table and one argmax.
    """
    u, gap_end, widths, v, length, terms = table
    t = np.where(widths < a * length, terms, -np.inf)
    best = np.argmax(t, axis=0)
    cols = np.arange(u.size)
    widened = t[best, cols] > 0
    return (np.concatenate([u, u[widened]]),
            np.concatenate([gap_end, v[best[widened], cols[widened]]]))


def _block_candidates(pts: np.ndarray):
    """Dyadic-style blocks with endpoints snapped to sequence points. They
    do not depend on the level: a long-family search builds them once.

    Blocks clipped by the window edge to less than 1.5x their anchor are
    dropped: such runts get small shortness terms and only blur the
    long/short classification of the assembled family.
    """
    us, vs = [], []
    # each side as distances from 0, ascending: pts is sorted
    for sign, side in ((1.0, pts[pts > 0]), (-1.0, -pts[pts < 0][::-1])):
        if side.size < 2:
            continue
        c = max(side[0], 1e-9)
        top = side[-1]
        while c < top:
            i = np.searchsorted(side, c, side="right") - 1
            j = np.searchsorted(side, 2.0 * c, side="right") - 1
            if 0 <= i < j and side[j] >= 1.5 * c:
                u, v = side[i] * sign, side[j] * sign
                us.append(min(u, v))
                vs.append(max(u, v))
            c *= math.sqrt(2.0)
    return np.array(us), np.array(vs)


def _assemble_family(pts: np.ndarray, u: np.ndarray, v: np.ndarray,
                     a: float, mode: str):
    """Greedy disjoint accumulation of qualifying intervals whose term is
    at least LONG_TERM_FLOOR.

    Terms are capped at PICK_CAP for the pick order and ties prefer the
    shorter interval, then the earlier candidate: divergence evidence is many
    modest terms across scales, and one window-spanning giant must not crowd
    out a whole gap family. A candidate below the floor would be picked after
    all the others and is dropped by _evidence_subfamily anyway, so leaving
    it out changes no evidence.
    """
    import bisect

    if u.size == 0:
        return []
    terms = _terms_of(u, v)
    # origin-straddlers carry no tail evidence
    keep = (terms >= LONG_TERM_FLOOR) & (v > u) & ~((u < 0.0) & (v > 0.0))
    keep[keep] = _qualifying(pts, u[keep], v[keep], a, mode)
    u, v, terms = u[keep], v[keep], terms[keep]
    order = np.lexsort((v - u, -np.minimum(terms, PICK_CAP)))
    starts: list[float] = []
    ends: list[float] = []
    for idx in order:
        uu, vv = float(u[idx]), float(v[idx])
        pos = bisect.bisect_right(starts, uu)
        if pos > 0 and ends[pos - 1] > uu:
            continue
        if pos < len(starts) and starts[pos] < vv:
            continue
        starts.insert(pos, uu)
        ends.insert(pos, vv)
    return list(zip(starts, ends))


def _evidence_subfamily(family, extent: float):
    """(long, evidence, total, terms): the non-decaying core of a family."""
    if not family:
        return False, [], 0.0, np.zeros(0)
    u = np.array([f[0] for f in family])
    v = np.array([f[1] for f in family])
    terms = _terms_of(u, v)
    keep = terms >= LONG_TERM_FLOOR
    if not np.any(keep):
        return False, [], 0.0, np.zeros(0)
    u, v, terms = u[keep], v[keep], terms[keep]
    dists = _dist0(u, v)
    capped = float(np.sum(np.minimum(terms, LONG_TERM_CAP)))
    long = (terms.size >= LONG_MIN_COUNT
            and capped >= REFUTE_SUM
            and float(np.max(dists)) >= LONG_REACH_FRACTION * extent)
    order = _series_order(u, v)
    evidence = [(float(u[i]), float(v[i])) for i in order]
    return long, evidence, capped, terms[order]


def _check_mode(mode: str) -> None:
    if mode not in ("below", "above"):
        raise ParameterError(f"mode must be 'below' or 'above', got {mode!r}")


def long_family_search(seq: PointSequence, mode: str):
    """search(a) -> (found, evidence family, total, terms): the search for a
    long disjoint family at a level a > 0. Mode 'below' wants count < a|I|
    (d4-style refutation), mode 'above' wants count >= a|I| (BM-style). The
    family is re-checkable by verify_family_witness.

    The work that does not depend on the level is done here, once: the block
    candidates and, for mode 'below', the sparse table (`_sparse_table`). A
    level search builds one search for all its probes.
    """
    _check_mode(mode)
    pts = seq.points
    lo, hi = seq.window
    extent = max(abs(lo), abs(hi))
    blocks = _block_candidates(pts)
    table = _sparse_table(pts) if mode == "below" else None

    def search(a: float):
        _positive(a, "level a")
        u, v = blocks
        if table is not None:
            su, sv = _sparse_candidates(table, a)
            u, v = np.concatenate([u, su]), np.concatenate([v, sv])
        return _evidence_subfamily(_assemble_family(pts, u, v, a, mode), extent)

    return search


def verify_family_witness(seq: PointSequence, a: float, family, mode: str) -> bool:
    """Disjointness, the per-interval count condition, and longness."""
    _positive(a, "level a")
    _check_mode(mode)
    fam = sorted(family)
    u, v = np.array(fam, dtype=float).reshape(-1, 2).T
    if np.any(v[:-1] > u[1:]) or not np.all(_qualifying(seq.points, u, v, a, mode)):
        return False
    lo, hi = seq.window
    found, _, _, _ = _evidence_subfamily(fam, max(abs(lo), abs(hi)))
    return found


def d4_complement_estimate(seq: PointSequence) -> DensityEstimate:
    """Infimum of refuted levels minus one grid step (the d4 density).

    A level is refuted, and fails, when the long-family search finds a long
    family of sparse intervals (mode 'below') that verify_family_witness
    accepts: at truncation scale, the sequence fails the d4 density there.
    The witness is the refutation the search found one grid step up, if any.
    """
    if len(seq) == 0:
        return DensityEstimate(0.0, "d4", seq.window)
    search = long_family_search(seq, "below")

    def probe(a: float):
        found, family, total, terms = search(a)
        refuted = found and verify_family_witness(seq, a, family, "below")
        return not refuted, (family, total, terms)

    value, _, refutation = _grid_max_feasible(probe, seq)
    if refutation is None:
        witness = {"note": f"no refutation found below {_default_a_max(seq):.6g}"}
    else:
        family, total, terms = refutation
        witness = {"intervals": [[u, v] for u, v in family], "sum": total,
                   "terms": [float(t) for t in terms]}
    return DensityEstimate(value, "d4", seq.window, witness)


def bm_density(seq: PointSequence) -> DensityEstimate:
    """Beurling-Malliavin density: largest d with a long family carrying
    at least d points per unit length in every member interval.
    """
    if len(seq) == 0:
        return DensityEstimate(0.0, "bm", seq.window)
    search = long_family_search(seq, "above")

    def probe(d: float):
        found, family, total, _ = search(d)
        return found and verify_family_witness(seq, d, family, "above"), (family, total)

    value, passed, _ = _grid_max_feasible(probe, seq)
    witness = {}
    if value > 0:
        family, total = passed
        witness = {"intervals": [[u, v] for u, v in family], "sum": total, "verified": True}
    return DensityEstimate(value, "bm", seq.window, witness)


def density_estimate(seq: PointSequence, method: str) -> DensityEstimate:
    """Dispatch on method in {d1, d3, d4, bm}."""
    if method == "d1":
        return density_lower(seq)
    if method == "d3":
        return density_d3_estimate(seq)
    if method == "d4":
        return d4_complement_estimate(seq)
    if method == "bm":
        return bm_density(seq)
    raise ParameterError(f"unknown density method '{method}'")
