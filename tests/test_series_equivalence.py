"""The array forms of the greedy walk, shortness and energy_condition_report
against the per-point and per-interval loops they replaced, kept here as the
reference: every reported value must agree bitwise, including the order of
the terms. The ladder walk of the level search is checked the same way
against the top-down bisection it replaced, and the long-family search,
which assembles only candidates at or above the evidence floor, against the
search over every candidate. The gap certificate, which takes its level from
one d1 search and checks the energy condition once, on that witness, is
checked against the level search that gates every level by both conditions,
on inputs whose answer is known."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapkit.density as density
from gapkit.density import (LONG_TERM_FLOOR, MAX_SPARSE_SPAN, _block_candidates,
                            _evidence_subfamily, _ladder_max, _qualifying,
                            _sparse_candidates, long_family_search)
from gapkit.energy import EnergyRecord, EnergyReport, energy_condition_report, interval_energy
from gapkit.gapnum import estimate_gap_characteristic
from gapkit.partitions import (_grow_right, _short_greedy, _terms_of, classify_terms,
                               greedy_density_partition, shortness)
from gapkit.seqcore import Partition, PointSequence, generate


def loop_grow_right(points, d, hi, monotone):
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
        while j < n and points[j] <= hi:
            length = points[j] - a_i
            count = j - idx + 1
            if monotone and length < prev_len:
                j += 1
                continue
            if count >= d * length:
                found = j
                break
            if d * length > (n - idx) + 1:
                exhausted = False
                break
            j += 1
        if found is None:
            if exhausted and a_i > 0 and hi - a_i <= 0.05 * a_i:
                return bks[1:], counts, None, True
            return bks[1:], counts, float(a_i), False
        bks.append(float(points[found]))
        counts.append(found - idx + 1)
        prev_len = bks[-1] - a_i
        idx = found + 1
    return bks[1:], counts, None, False


def loop_shortness(part):
    ivs = sorted((iv for _, iv in part.intervals()), key=lambda iv: (iv.dist0, iv.a))
    terms = np.array([iv.length * iv.length / (1.0 + iv.dist0 * iv.dist0) for iv in ivs])
    verdict, exponent = classify_terms(terms)
    return terms, verdict, exponent


def loop_energy_report(seq, part):
    recs = []
    for n, iv in part.intervals():
        count, e_n = interval_energy(seq, iv)
        s_n = (count * count * math.log(iv.length) - e_n) / (1.0 + iv.dist0 * iv.dist0)
        recs.append(EnergyRecord(n, iv, count, e_n, s_n))
    recs.sort(key=lambda r: (r.dist0, r.n))
    summands = np.array([r.summand for r in recs])
    partial = np.cumsum(summands) if summands.size else np.zeros(0)
    # the decay rule of shortness on the positive parts; fewer than three
    # positive terms (none, say) converge
    positive = np.array([max(s_n, 0.0) for s_n in summands])
    if sum(1 for p in positive if p > 0) < 3:
        verdict, exponent = "supported", 0.0
    else:
        decay, exponent = classify_terms(positive)
        verdict = {"short": "supported", "long": "unsupported"}.get(decay, "inconclusive")
    return EnergyReport(tuple(recs), partial, seq.window, exponent, verdict)


def _cases():
    """(label, sequence, partition): greedy partitions of lattice, perturbed
    and Poisson input, a lattice with one extra point, whose energy series
    has a single positive summand, and a symmetric partition whose intervals
    tie in dist(0, I) in pairs and hold several points each."""
    lattice = generate("lattice:1", (-300, 300))
    seqs = [
        ("lattice:1", lattice),
        ("perturbed:1,0.2", generate("perturbed:1,0.2", (-300, 300), seed=3)),
        ("poisson:1", generate("poisson:1", (-1500, 1500), seed=4)),
    ]
    for spec, seq in seqs:
        for d in (0.3, 0.6, 0.9):
            for monotone in (True, False):
                res = greedy_density_partition(seq, d, monotone=monotone)
                if res.ok and len(res.partition.breakpoints) >= 4:
                    yield f"{spec} d={d} monotone={monotone}", seq, res.partition
    # one energy summand is positive: the unit interval (10, 11] holds 2 points
    seq = PointSequence(np.union1d(lattice.points, [10.5]), lattice.window)
    yield "lattice plus a point", seq, greedy_density_partition(seq, 1.0).partition
    part = Partition(np.array([-40.0, -20.0, -8.0, -3.0, -1.0, 0.0,
                               1.0, 3.0, 8.0, 20.0, 40.0]))
    pts = np.unique(np.random.default_rng(6).uniform(-40.0, 40.0, 200))
    pts = np.union1d(pts, [-20.0, -3.0, 0.0, 3.0, 20.0])  # points on breakpoints
    yield "symmetric ties", PointSequence(pts, (-40.0, 40.0)), part


CASES = list(_cases())


def test_cases_cover_ties_and_multipoint_intervals():
    labels = " ".join(label for label, _, _ in CASES)
    for law in ("lattice", "perturbed", "poisson", "symmetric"):
        assert law in labels
    counts = [r.count for _, seq, part in CASES
              for r in loop_energy_report(seq.restrict(*part.cover()), part).records]
    assert max(counts) >= 2


@pytest.mark.parametrize("label,seq,part", CASES, ids=[c[0] for c in CASES])
def test_shortness_matches_loop(label, seq, part):
    terms, verdict, exponent = loop_shortness(part)
    rep = shortness(part)
    assert rep.terms.tobytes() == terms.tobytes()
    assert rep.partial_sums.tobytes() == np.cumsum(terms).tobytes()
    assert rep.fitted_exponent.hex() == float(exponent).hex()
    assert rep.verdict == verdict


@pytest.mark.parametrize("label,seq,part", CASES, ids=[c[0] for c in CASES])
def test_energy_report_matches_loop(label, seq, part):
    sub = seq.restrict(*part.cover())
    old = loop_energy_report(sub, part)
    new = energy_condition_report(sub, part)
    assert new.partial_sums.tobytes() == old.partial_sums.tobytes()
    assert float(new.fitted_exponent).hex() == float(old.fitted_exponent).hex()
    assert new.verdict == old.verdict
    assert new.records == old.records
    # repr round-trips floats, so equal JSON text is bitwise equality, with
    # the same Python types (a numpy integer would not serialize at all)
    assert (json.dumps(new.to_json_dict(), sort_keys=True)
            == json.dumps(old.to_json_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# The greedy walk
# ---------------------------------------------------------------------------

def assert_walks_agree(points, d, hi, monotone):
    bks, counts, blocked_at, trimmed = loop_grow_right(points, d, hi, monotone)
    new = _grow_right(points, d, hi, monotone)
    assert new[0].dtype == np.float64 and new[1].dtype == np.int64
    assert new[0].tobytes() == np.array(bks, dtype=float).tobytes()
    assert new[1].tobytes() == np.array(counts, dtype=np.int64).tobytes()
    assert type(new[2]) is type(blocked_at)
    assert new[2] == blocked_at and new[3] == trimmed
    return blocked_at, trimmed


def _greedy_answer(points, lo, hi, monotone):
    """The largest level at which the reference walk succeeds on both sides,
    to about 1e-12 relative."""
    mirrored = -points[::-1]

    def ok(d):
        return (loop_grow_right(points, d, hi, monotone)[2] is None
                and loop_grow_right(mirrored, d, -lo, monotone)[2] is None)

    below, above = 0.0, 1.0
    while ok(above):
        below, above = above, 2.0 * above
    for _ in range(40):
        mid = 0.5 * (below + above)
        below, above = (mid, above) if ok(mid) else (below, mid)
    return below


WALK_SEQS = {
    "lattice": generate("lattice:1", (-300, 300)),
    "perturbed": generate("perturbed:1,0.2", (-300, 300), seed=3),
    "poisson": generate("poisson:1", (-1500, 1500), seed=4),
    "lacunary": generate("lacunary:2", (-1e6, 1e6)),
}


@pytest.mark.parametrize("monotone", [True, False])
@pytest.mark.parametrize("name", list(WALK_SEQS))
def test_walk_matches_loop(name, monotone):
    seq = WALK_SEQS[name]
    lo, hi = seq.window
    pts = seq.points
    if name == "lacunary":
        assert pts[pts > 0].min() < 1e-299
    ans = _greedy_answer(pts, lo, hi, monotone)
    levels = {0.05, 0.5, 1.0, 2.0, 1e250}
    if ans > 0:
        levels |= {ans * (1 - 1e-3), ans, np.nextafter(ans, np.inf), ans * (1 + 1e-3)}
    seen = set()
    for points, edge in ((pts, hi), (-pts[::-1], -lo)):
        # the window edge, an edge past the last point, and edges that cut
        # runs of steps (at a point, just past one, between two, inside)
        edges = (edge, edge + 100.0, float(points[-1]), float(points[-2]) + 1e-9,
                 0.5 * (points[-20] + points[-19]), 0.8 * edge)
        for d in sorted(levels):
            for e in edges:
                blocked, trimmed = assert_walks_agree(points, d, e, monotone)
                seen.add("blocked" if blocked is not None else
                         "trimmed" if trimmed else "complete")
    assert "blocked" in seen and len(seen) >= 2


def test_walk_edge_cases():
    pts = np.arange(-5.0, 6.0)
    for hi in (-1.0, 0.0, 0.5, 5.0, 1e300):
        for d in (0.5, 1.0, 3.0):
            for monotone in (True, False):
                assert_walks_agree(pts, d, hi, monotone)
    assert_walks_agree(np.zeros(0), 1.0, 1.0, True)
    assert_walks_agree(np.array([-0.0, 1.0, 2.0]), 1.0, 2.0, True)


def test_walk_single_point_runs():
    # slowly growing gaps that shrink once, at every step of three run
    # chunks: the run must stop there and the monotone walk skip ahead
    base = np.cumsum(1.0 + 1e-3 * np.arange(420))
    for k in range(1, 400):
        pts = base.copy()
        pts[k:] -= 0.005
        for d in (0.5, 1.0):
            assert_walks_agree(pts, d, 600.0, True)
    # a run of unit steps, then points four times denser: the first step
    # after the run must measure its length against the last unit step
    pts = np.concatenate((np.arange(1.0, 300.0), 299.0 + 0.25 * np.arange(1, 400)))
    for d in (0.5, 1.0, 1.5):
        for monotone in (True, False):
            assert_walks_agree(pts, d, 400.0, monotone)


def test_walk_skip_boundary_rounding():
    # a_i + prev_len rounds down onto a point about 1 time in 5 here; the
    # loop skips that point as too short (points[j] - a_i < prev_len)
    rng = np.random.default_rng(8)
    for _ in range(2000):
        p0 = rng.uniform(0.01, 1.0)
        a = p0 + rng.uniform(p0, 4.0 * p0)
        t = a + (a - p0)
        cluster = t + np.arange(-3, 4) * np.spacing(t)
        assert_walks_agree(np.concatenate(([p0, a], cluster)), 1e-6, 10.0, True)


_walk_points = st.lists(
    st.one_of(st.floats(-50.0, 50.0), st.integers(-40, 40).map(float),
              st.integers(-1074, 10).map(lambda e: 2.0 ** e)),
    min_size=1, max_size=80, unique=True).map(lambda xs: np.unique(np.array(xs)))


@settings(max_examples=300, deadline=None)
@given(points=_walk_points,
       d=st.one_of(st.floats(1e-3, 20.0), st.sampled_from([0.5, 1.0, 2.0])),
       hi=st.floats(-1.0, 60.0), monotone=st.booleans())
def test_walk_matches_loop_on_random_points(points, d, hi, monotone):
    assert_walks_agree(points, d, hi, monotone)


# ---------------------------------------------------------------------------
# The level search
# ---------------------------------------------------------------------------

def loop_grid_max_feasible(feasible, a_max, resolution):
    kmax = max(1, int(round(a_max / resolution)))
    lo, hi = 0, kmax + 1  # predicate(lo) true by convention, predicate(hi) false
    if feasible(kmax * resolution):
        return kmax * resolution
    hi = kmax
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid == 0:
            break
        if feasible(mid * resolution):
            lo = mid
        else:
            hi = mid
    return lo * resolution


def assert_searches_agree(passes, kmax, start, same_passes):
    """Same answer and, with same_passes, the same passing probes in the
    same order. With resolution 1 (an int) the reference probes exact
    integers."""
    new_probes, ref_probes = [], []

    def record(probes):
        def probe(k):
            probes.append(k)
            return passes(k)
        return probe

    new = _ladder_max(record(new_probes), kmax, start)
    ref = loop_grid_max_feasible(record(ref_probes), kmax, 1)
    assert new == ref
    if same_passes:
        assert [k for k in new_probes if passes(k)] == [k for k in ref_probes if passes(k)]
    return new_probes, ref_probes


def _start_rung(kmax, start):
    rungs = [kmax >> i for i in range(kmax.bit_length())]
    return next((k for k in rungs if k <= start), 1), rungs


# kmax must survive the reference's round trip through a float
_kmax = st.integers(1, 2 ** 80).map(lambda k: max(1, int(float(k))))
_start = st.one_of(st.floats(0.0, 2.0 ** 81), st.integers(0, 2 ** 81).map(float),
                   st.just(math.inf))


@settings(max_examples=1000, deadline=None)
@given(kmax=_kmax, threshold=st.integers(-1, 2 ** 81), start=_start)
def test_ladder_matches_bisection_on_thresholds(kmax, threshold, start):
    top, rungs = _start_rung(kmax, start)
    above_fail = all(k > threshold for k in rungs if k > top)
    assert_searches_agree(lambda k: k <= threshold, kmax, start, above_fail)


@settings(max_examples=1000, deadline=None)
@given(kmax=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1),
       p_pass=st.floats(0.0, 1.0), start=_start, clear_above=st.booleans())
def test_ladder_matches_bisection_with_holes(kmax, seed, p_pass, start, clear_above):
    # any predicate at all; the claim holds when every rung above the
    # start fails, which clear_above forces half of the time
    table = np.random.default_rng(seed).random(kmax + 1) < p_pass
    top, rungs = _start_rung(kmax, start)
    above = [k for k in rungs if k > top]
    if clear_above:
        table[above] = False
    if not table[above].any():
        assert_searches_agree(lambda k: bool(table[k]), kmax, start, True)
    else:
        assert 0 <= _ladder_max(lambda k: bool(table[k]), kmax, start) <= kmax


def test_ladder_skips_only_failing_rungs():
    # the walk never probes a rung above the start unless the start passes
    kmax = 2 ** 60 + 2 ** 20
    for threshold in (0, 1, 2, 7, 1000, 2 ** 30):
        new, ref = assert_searches_agree(lambda k: k <= threshold, kmax, 2000.0,
                                         threshold < 1000)
        assert len(new) < len(ref)
        if threshold < 1000:
            assert max(new) < 2000
    new, ref = assert_searches_agree(lambda k: True, kmax, 2000.0, False)
    top, rungs = _start_rung(kmax, 2000.0)
    assert new[-1] == kmax and len(new) == rungs.index(top) + 1


# ---------------------------------------------------------------------------
# The long-family search
# ---------------------------------------------------------------------------

def loop_sparse_candidates(pts, a):
    """Every consecutive gap, then the best widening of every start."""
    n = pts.size
    u_list = [pts[:-1]]
    v_list = [pts[1:]]
    best_term = np.full(n - 1, -1.0)
    best_v = pts[1:].copy()
    for w in range(2, min(MAX_SPARSE_SPAN, n - 1) + 1):
        u = pts[: n - w]
        v = pts[w:]
        ok = (w - 1) < a * (v - u)
        t = np.where(ok, _terms_of(u, v), -np.inf)
        upd = t[: n - w] > best_term[: n - w]
        best_term[: n - w][upd] = t[upd]
        best_v[: n - w][upd] = v[upd]
    widened = best_term > 0
    u_list.append(pts[:-1][widened])
    v_list.append(best_v[widened])
    return np.concatenate(u_list), np.concatenate(v_list)


def loop_assemble_family(pts, u, v, a, mode):
    """Greedy disjoint accumulation over every qualifying candidate."""
    import bisect

    if u.size == 0:
        return []
    keep = (v > u) & ~((u < 0.0) & (v > 0.0))
    keep &= _qualifying(pts, u, v, a, mode)
    u, v = u[keep], v[keep]
    order = np.lexsort((v - u, -np.minimum(_terms_of(u, v), 1.0)))
    starts, ends = [], []
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


def loop_long_family_search(seq, a, mode):
    pts = seq.points
    if pts.size < 2:
        return False, [], 0.0, np.zeros(0)
    bu, bv = _block_candidates(pts)
    if mode == "below":
        su, sv = loop_sparse_candidates(pts, a)
        bu, bv = np.concatenate([bu, su]), np.concatenate([bv, sv])
    family = loop_assemble_family(pts, bu, bv, a, mode)
    lo, hi = seq.window
    return _evidence_subfamily(family, max(abs(lo), abs(hi)))


def assert_families_agree(seq, a, mode):
    found, evidence, total, terms = long_family_search(seq, a, mode)
    ref = loop_long_family_search(seq, a, mode)
    assert found == ref[0]
    assert evidence == ref[1]
    assert all(type(x) is float for iv in evidence for x in iv)
    assert float(total).hex() == float(ref[2]).hex()
    assert terms.dtype == ref[3].dtype and terms.tobytes() == ref[3].tobytes()
    if mode == "below" and seq.points.size >= 2:
        # the candidates at or above the floor, in the same order
        new = _sparse_candidates(seq.points, a)
        old = loop_sparse_candidates(seq.points, a)
        new_keep = _terms_of(*new) >= LONG_TERM_FLOOR
        old_keep = _terms_of(*old) >= LONG_TERM_FLOOR
        for x, y in zip(new, old):
            assert x[new_keep].tobytes() == y[old_keep].tobytes()
    return found, evidence


FAMILY_SEQS = {
    "lattice": generate("lattice:1", (-300, 300)),
    "perturbed": generate("perturbed:1,0.2", (-300, 300), seed=3),
    "poisson": generate("poisson:1", (-1500, 1500), seed=4),
    "lacunary": generate("lacunary:2", (-1e6, 1e6)),
}


@pytest.mark.parametrize("mode", ["below", "above"])
@pytest.mark.parametrize("name", list(FAMILY_SEQS))
def test_long_family_matches_loop(name, mode):
    seq = FAMILY_SEQS[name]
    estimate = density.d4_complement_estimate if mode == "below" else density.bm_density
    ans = estimate(seq).value
    step = density.GRID_RESOLUTION
    levels = {0.01, 0.5, 1.0, 2.0, 40.0, ans + step}
    if ans > 0:
        levels |= {ans - step, ans, np.nextafter(ans, np.inf), ans * (1 - 1e-3),
                   ans * (1 + 1e-3)}
    seen = set()
    for a in sorted(levels):
        found, evidence = assert_families_agree(seq, a, mode)
        seen.add((found, bool(evidence)))
    # the levels around a positive answer give long and short families
    assert ({f for f, _ in seen} == {True, False}) if ans > 0 else (False, True) in seen


def test_long_family_floor_equality():
    # (2, 3) and (-3, -2) have term 1 / (1 + 2^2) == 0.2 == LONG_TERM_FLOOR
    # exactly, and (0.5, 1) has term 0.25 / 1.25 == 0.2; each is the widest
    # span of its start, so the start and the candidate sit on the floor
    assert _terms_of(np.array([2.0, -3.0, 0.5]), np.array([3.0, -2.0, 1.0])).tolist() \
        == [LONG_TERM_FLOOR] * 3
    for pts in ([-3.0, -2.0, 0.0, 2.0, 3.0], [-3.0, 0.5, 1.0], [0.5, 1.0],
                [-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]):
        seq = PointSequence(np.array(pts), (-3.0, 3.0))
        for a in (0.5, 1.0, 3.0, 10.0):
            for mode in ("below", "above"):
                assert_families_agree(seq, a, mode)
    seq = PointSequence(np.array([-3.0, -2.0, 0.0, 2.0, 3.0]), (-3.0, 3.0))
    _, evidence, _, terms = long_family_search(seq, 1.0, "below")
    assert (2.0, 3.0) in evidence and (-3.0, -2.0) in evidence
    assert LONG_TERM_FLOOR in terms.tolist()


def test_long_family_ties_follow_input_order():
    # unit lattices: every widening far out has the same capped term and
    # length, so only the candidates' order decides which are picked
    for lo, hi in ((-300, 300), (-40, 400), (5, 500)):
        pts = np.arange(lo, hi + 1, dtype=float)
        seq = PointSequence(pts, (float(lo), float(hi)))
        u, v = _sparse_candidates(pts, 1.0)
        terms = _terms_of(u, v)
        floor = terms >= LONG_TERM_FLOOR
        key = np.stack([np.minimum(terms, 1.0), v - u])[:, floor]
        assert floor.sum() - np.unique(key, axis=1).shape[1] >= 50
        for a in (0.9, 1.0, 1.02, 1.5):
            for mode in ("below", "above"):
                assert_families_agree(seq, a, mode)


def test_floor_is_below_the_pick_cap():
    assert LONG_TERM_FLOOR <= density.PICK_CAP == 1.0


_family_points = st.lists(
    st.one_of(st.floats(-300.0, 300.0), st.integers(-300, 300).map(float),
              st.integers(-8, 8).map(lambda k: k / 2.0)),
    min_size=2, max_size=160, unique=True).map(lambda xs: np.unique(np.array(xs)))


@settings(max_examples=300, deadline=None)
@given(points=_family_points,
       a=st.one_of(st.floats(1e-3, 20.0), st.sampled_from([0.25, 0.5, 1.0, 2.0])),
       mode=st.sampled_from(["below", "above"]))
def test_long_family_matches_loop_on_random_points(points, a, mode):
    if points.size < 2:
        return
    seq = PointSequence(points, (float(points[0]), float(points[-1])))
    assert_families_agree(seq, a, mode)


# ---------------------------------------------------------------------------
# The gap certificate's one search against the gated level search
# ---------------------------------------------------------------------------

def gated_search(seq):
    """(c, breakpoints): the level search whose predicate is d1's
    short-partition test and the energy verdict on its partition, at every
    level, with the partition the search hands back for its answer."""

    def probe(a):
        res, _ = _short_greedy(seq, a)
        if res is None:
            return False, None
        part = res.partition
        rep = energy_condition_report(seq.restrict(*part.cover()), part)
        return rep.verdict == "supported", tuple(float(b) for b in part.breakpoints)

    c, bks, _ = density._grid_max_feasible(probe, seq)
    return c, bks or ()


KADEC = (0.9, 1.0)

# (spec, window, known answer): a value, a band, or "d1" where only the
# lower density is known
CERTIFICATE_ORACLES = [
    ("lattice:1", (-1500, 1500), 1.0),
    ("lattice:0.5", (-1500, 1500), 2.0),
    ("perturbed:1,0.1", (-1500, 1500), KADEC),
    ("perturbed:1,0.2", (-1500, 1500), KADEC),
    ("perturbed:1,0.3", (-1500, 1500), KADEC),
    ("perturbed:1,0.1", (-15000, 15000), KADEC),
    ("lacunary:2", (-1e6, 1e6), 0.0),
    ("poisson:1", (-1500, 1500), "d1"),
]


@pytest.mark.parametrize("spec,window,known", CERTIFICATE_ORACLES,
                         ids=[f"{s}@{w[1]:g}" for s, w, _ in CERTIFICATE_ORACLES])
def test_certificate_matches_gated_search_and_oracle(spec, window, known):
    seq = generate(spec, window, seed=1)
    cert = estimate_gap_characteristic(seq)
    assert (cert.c_estimate, cert.partition_breakpoints) == gated_search(seq)
    assert "energy" not in cert.diagnostics
    c = cert.c_estimate
    assert (cert.energy_verdict == "supported") == (c > 0)
    if known == "d1":
        assert c == density.density_lower(seq, "d1").value > 0
    elif isinstance(known, tuple):
        assert known[0] <= c <= known[1]
    else:
        assert c == pytest.approx(known, abs=1e-12)


@pytest.mark.parametrize("extra", [[10.5], [10.5, -40.5]])
def test_certificate_matches_gated_search_on_lattice_plus_points(extra):
    # one or two extra points give d1's unit-interval witness as many
    # positive summands, too few to read a decay from; the level stays 1,
    # as in the gated search
    base = generate("lattice:1", (-300, 300))
    seq = PointSequence(np.union1d(base.points, extra), base.window)
    cert = estimate_gap_characteristic(seq)
    assert (cert.c_estimate, cert.partition_breakpoints) == gated_search(seq)
    assert cert.c_estimate == 1.0
    assert cert.energy_verdict == "supported" and cert.diagnostics == {}
