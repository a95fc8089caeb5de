"""The array forms of the greedy walk, shortness, energy_condition_report,
the d3 matching and the Clark atom sums against the per-point,
per-interval, per-target and per-midpoint loops they replaced, kept here as
the reference: every reported value must agree bitwise, including the order
of the terms. The pairwise energy is checked against the masked gather it
replaced, on the same row blocks, and the chunked Poisson walk against the
scalar walk. The ladder walk of the level search is checked the same way
against the top-down bisection it replaced, and the long-family search,
which assembles only candidates at or above the evidence floor, against the
search over every candidate; the d4 and BM searches, which build their
level-free candidates once, against the search each probe built from
scratch; and the d3 residuals, read from one event table, against the
per-window residual. The gap certificate, which takes its level from one d1
search and checks the energy condition once, on that witness, is checked
against the level search that gates every level by both conditions, on
inputs whose answer is known. The gap filling, which builds every added
point in one array, is checked against the per-gap loop it replaced. The
Gram stage, which refills the lower triangle of one work matrix in row
blocks, is checked against S built anew for each gap length: the crossing,
the sweep, `gram_matrix`'s eigenvalues, and the triangle itself, the only
part that eigvalsh, eigh and cholesky read."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapkit.density as density
import gapkit.gapnum as gapnum
from gapkit.clarknum import _outer_gap_scale, residue_weights
from gapkit.density import (LONG_TERM_FLOOR, MAX_SPARSE_SPAN, _assemble_family,
                            _block_candidates, _counting_residuals, _evidence_subfamily,
                            _greedy_match_side, _ladder_max, _qualifying, _sparse_candidates,
                            _sparse_table, d3_residual_curve, long_family_search,
                            match_to_ideal_grid)
from gapkit.energy import EnergyReport, energy_condition_report, total_energy
from gapkit.gapnum import (CROSSING_SAFETY, _nearest_zero, estimate_gap_characteristic,
                           gram_matrix, sigma_min_crossing, sigma_min_sweep)
from gapkit.regularize import regularize_gaps
from gapkit.partitions import (_grow_right, _monotone, _short_greedy, _terms_of,
                               classify_terms, greedy_density_partition, shortness)
from gapkit.seqcore import ParameterError, Partition, PointSequence, _median, generate


def loop_grow_right(points, d, hi):
    bks = [0.0]
    counts = []
    prev_len = 0.0
    idx = np.searchsorted(points, 0.0, side="right")
    n = points.size
    while idx < n and points[idx] <= hi:
        a_i = bks[-1]
        if points[n - 1] - a_i < prev_len:
            return bks[1:], counts, None, True
        found = None
        exhausted = True
        j = idx
        while j < n and points[j] <= hi:
            length = points[j] - a_i
            count = j - idx + 1
            if length < prev_len:
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


def loop_intervals(part):
    """(n, a, b) for each interval (a, b] of the partition, as Python floats,
    with the paper's two-sided indexing: n = 0 is the interval right of 0."""
    bks = [float(x) for x in part.breakpoints]
    z = bks.index(0.0)
    return [(i - z, a, b) for i, (a, b) in enumerate(zip(bks, bks[1:]))]


def loop_dist0(a, b):
    """Distance from 0 to the closure of the interval from a to b."""
    if a <= 0.0 <= b:
        return 0.0
    return min(abs(a), abs(b))


def loop_shortness(part):
    ivs = sorted(((a, b) for _, a, b in loop_intervals(part)),
                 key=lambda iv: (loop_dist0(*iv), iv[0]))
    dists = [loop_dist0(a, b) for a, b in ivs]
    terms = np.array([(b - a) * (b - a) / (1.0 + d * d) for (a, b), d in zip(ivs, dists)])
    verdict, exponent = classify_terms(terms)
    return terms, verdict, exponent


def loop_energy_report(seq, part):
    recs = []
    for n, a, b in loop_intervals(part):
        inside = seq.slice_in(a, b)
        count, e_n = inside.size, total_energy(inside)
        d = loop_dist0(a, b)
        s_n = (count * count * math.log(b - a) - e_n) / (1.0 + d * d)
        recs.append((n, a, b, count, e_n, s_n, d))
    recs.sort(key=lambda r: (r[6], r[0]))  # by (dist0, n)
    columns = [np.array(col) for col in zip(*recs)]
    summands = columns[5]
    partial = np.cumsum(summands)
    # the decay rule of shortness on the positive parts; fewer than three
    # positive terms (none, say) converge
    positive = np.array([max(s_n, 0.0) for s_n in summands])
    if sum(1 for p in positive if p > 0) < 3:
        verdict, exponent = "supported", 0.0
    else:
        decay, exponent = classify_terms(positive)
        verdict = {"short": "supported", "long": "unsupported"}.get(decay, "inconclusive")
    return EnergyReport(*columns, partial, seq.window, exponent, verdict)


def _cases():
    """(label, sequence, partition): greedy partitions of lattice, perturbed
    and Poisson input at level d (monotone=True); for each, a partition of
    the same range with breakpoints at 0, its ends and a seeded random half
    of the sequence points inside it (monotone=False: lengths that do not
    grow outward, as a partition file may give); a lattice with one extra
    point, whose energy series has a single positive summand; and a
    symmetric partition whose intervals tie in dist(0, I) in pairs and hold
    several points each."""
    lattice = generate("lattice:1", (-300, 300))
    seqs = [
        ("lattice:1", lattice),
        ("perturbed:1,0.2", generate("perturbed:1,0.2", (-300, 300), seed=3)),
        ("poisson:1", generate("poisson:1", (-1500, 1500), seed=4)),
    ]
    rng = np.random.default_rng(5)
    for spec, seq in seqs:
        for d in (0.3, 0.6, 0.9):
            res = greedy_density_partition(seq, d)
            if not res.ok or len(res.partition.breakpoints) < 4:
                continue
            bks = res.partition.breakpoints
            yield f"{spec} d={d} monotone=True", seq, res.partition
            inside = seq.points[(seq.points > bks[0]) & (seq.points < bks[-1])]
            kept = inside[rng.random(inside.size) < 0.5]
            part = Partition(np.union1d([bks[0], 0.0, bks[-1]], kept))
            yield f"{spec} d={d} monotone=False", seq, part
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
    for label, _, part in CASES:
        if "monotone=" in label:
            assert label.endswith(f"monotone={_monotone(part)}")
    assert min(part.breakpoints.size for label, _, part in CASES
               if label.endswith("monotone=False")) > 100
    assert max(loop_energy_report(seq.restrict(*part.cover()), part).count.max()
               for _, seq, part in CASES) >= 2


@pytest.mark.parametrize("label,seq,part", CASES, ids=[c[0] for c in CASES])
def test_shortness_matches_loop(label, seq, part):
    terms, verdict, exponent = loop_shortness(part)
    rep = shortness(part)
    assert rep.terms.tobytes() == terms.tobytes()
    total = list(itertools.accumulate(terms.tolist()))[-1]
    assert rep.to_json_dict()["total"].hex() == total.hex()
    assert rep.fitted_exponent.hex() == float(exponent).hex()
    assert rep.verdict == verdict


@pytest.mark.parametrize("label,seq,part", CASES, ids=[c[0] for c in CASES])
def test_energy_report_matches_loop(label, seq, part):
    sub = seq.restrict(*part.cover())
    old = loop_energy_report(sub, part)
    new = energy_condition_report(sub, part)
    # bytes, so that -0.0 and 0.0 differ, and the dtypes must agree
    for name in ("n", "a", "b", "count", "energy", "summand", "dist0", "partial_sums"):
        col, ref = getattr(new, name), getattr(old, name)
        assert (col.dtype, col.tobytes()) == (ref.dtype, ref.tobytes()), name
    assert new.window == old.window
    assert float(new.fitted_exponent).hex() == float(old.fitted_exponent).hex()
    assert new.verdict == old.verdict
    # repr round-trips floats, so equal JSON text is bitwise equality, with
    # the same Python types (a numpy integer would not serialize at all)
    assert (json.dumps(new.to_json_dict(), sort_keys=True)
            == json.dumps(old.to_json_dict(), sort_keys=True))


def masked_total_energy(x):
    """total_energy by the former masked gather, on the row blocks
    total_energy takes now: each block of whole rows (rows 1..361 for the
    first block) takes the strict lower triangle of its difference matrix
    through a boolean mask, and math.fsum adds the block sums."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return 0.0
    sums, i0 = [], 1
    while i0 < n:
        i1 = i0 + 1
        while i1 < n and (i1 - i0 + 1) * (i0 + i1) // 2 <= 2**16:
            i1 += 1
        diffs = x[i0:i1, None] - x[None, :i1]
        mask = np.arange(i0, i1)[:, None] > np.arange(i1)[None, :]
        vals = diffs[mask]
        np.abs(vals, out=vals)
        if np.any(vals == 0.0):
            raise ParameterError("duplicate points give log 0 in the energy")
        sums.append(float(np.sum(np.log(vals, out=vals))))
        i0 = i1
    return 2.0 * math.fsum(sums)


@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 362, 363, 364, 513, 514, 1200])
def test_total_energy_matches_masked_blocks(n):
    # up to 362 points one block (rows 1..361), 363 a second block of one
    # row, 364 of two rows; 1200 points take twelve blocks; unsorted and sorted
    x = np.random.default_rng(n).uniform(-50.0, 50.0, n)
    for pts in (x, np.sort(x), generate("perturbed:1,0.2", (0.0, n + 1.0), seed=n).points[:n]):
        assert total_energy(pts).hex() == masked_total_energy(pts).hex()
    dup = x.copy()
    dup[-1] = dup[0]
    for energy_of in (total_energy, masked_total_energy):
        with pytest.raises(ParameterError, match="duplicate"):
            energy_of(dup)


def fresh_gram(lam, a):
    """S(a) built anew from today's expression, as each Gram solve built it
    before the stage refilled one work matrix."""
    d = lam[:, None] - lam[None, :]
    np.fill_diagonal(d, 1.0)
    s = 2.0 * np.sin(0.5 * a * d) / d
    np.fill_diagonal(s, a)
    return s


def fresh_crossing(lam):
    """sigma_min_crossing with S built anew for the top solve and each probe:
    (a_max, tau, probes, lo, crossing)."""
    lam = np.sort(lam)
    a_max = 8.0 * math.pi / _median(np.diff(lam))
    w = np.linalg.eigvalsh(fresh_gram(lam, a_max))
    tau = CROSSING_SAFETY * lam.size * float(np.finfo(float).eps * max(float(w[-1]), 0.0))
    passed = max(float(w[0]), 0.0) > tau
    probes = [(a_max, passed)]
    lo, hi = 0.0, (a_max if passed else float("nan"))
    while hi - lo > 2.0 * math.pi * density.GRID_RESOLUTION:
        mid = 0.5 * (lo + hi)
        s = fresh_gram(lam, mid)
        s.flat[::lam.size + 1] -= tau
        try:
            np.linalg.cholesky(s)
            passed = True
        except np.linalg.LinAlgError:
            passed = False
        probes.append((mid, passed))
        lo, hi = (lo, mid) if passed else (mid, hi)
    return a_max, tau, tuple(probes), lo, hi


# An order whose fill spans several row blocks and ends on a ragged one: with
# blocks of 2^13 entries, 300 rows are cut at rows 90, 146, 189, 225, 256 and
# 284, and the last block, 16 rows, is cut short by the end of the matrix.
RAGGED_ORDER = 300


@pytest.mark.parametrize("order", [64, 256, RAGGED_ORDER])
@pytest.mark.parametrize("spec", ["lattice:1", "perturbed:1,0.2", "poisson:1"])
def test_gram_stage_matches_fresh_builds(spec, order):
    lam = _nearest_zero(generate(spec, (-1500.0, 1500.0), seed=1).points, order)
    found = sigma_min_crossing(lam)
    got = (found.a_max, found.tau, found.probes, found.lo, found.crossing)
    assert repr(got) == repr(fresh_crossing(lam))
    grid = np.linspace(0.3, 1.3, 40) * (2.0 * math.pi)
    ref = [max(float(np.linalg.eigvalsh(fresh_gram(lam, a))[0]), 0.0) for a in grid]
    assert sigma_min_sweep(lam, grid).tobytes() == np.array(ref).tobytes()
    shuffled = np.random.default_rng(order).permutation(lam)
    for a in (0.5, found.crossing, 7.0):
        probe = gram_matrix(shuffled, a)
        w = np.linalg.eigh(fresh_gram(shuffled, a))[0]
        assert probe.eigenvalues.tobytes() == np.maximum(w, 0.0).tobytes()
        assert gram_matrix(shuffled, a, vectors=False).eigenvalues.tobytes() == (
            np.maximum(np.linalg.eigvalsh(fresh_gram(shuffled, a)), 0.0).tobytes())


@pytest.mark.parametrize("order", [64, RAGGED_ORDER])
@pytest.mark.parametrize("spec", ["lattice:1", "poisson:1"])
def test_gram_fill_writes_the_lower_triangle_lapack_reads(spec, order):
    # the fill's lower triangle and diagonal are fresh_gram's, bit for bit;
    # with NaN above the diagonal, eigvalsh, eigh and cholesky give fresh_gram's
    # bits, so none of them reads the upper triangle
    lam = np.random.default_rng(order).permutation(
        _nearest_zero(generate(spec, (-1500.0, 1500.0), seed=1).points, order))
    fill = gapnum._gram_fill(lam)
    lower, upper = np.tril_indices(order), np.triu_indices(order, 1)
    for a in (0.5, 3.0, 7.0):
        s, ref = fill(a), fresh_gram(lam, a)
        assert s[lower].tobytes() == ref[lower].tobytes()
        s[upper] = np.nan
        assert np.linalg.eigvalsh(s).tobytes() == np.linalg.eigvalsh(ref).tobytes()
        for got, want in zip(np.linalg.eigh(s), np.linalg.eigh(ref)):
            assert got.tobytes() == want.tobytes()
        # S(a) + I is positive definite, so every a has a factor to compare
        for m in (s, ref):
            m.flat[::order + 1] += 1.0
        assert np.linalg.cholesky(s).tobytes() == np.linalg.cholesky(ref).tobytes()


def loop_poisson(rate, lo, hi, rng):
    """The Poisson walk one exponential step at a time."""
    pts = []
    x = lo + rng.exponential(1.0 / rate)
    while x <= hi:
        pts.append(x)
        x += rng.exponential(1.0 / rate)
    return np.array(pts, dtype=float)


@pytest.mark.parametrize("rate,window", [(1.0, (-1500.0, 1500.0)), (0.3, (-30.0, 30.0)),
                                         (7.5, (10.0, 12.0)), (2.0, (-0.25, 0.5)),
                                         (1.0, (0.0, 1e-3))])
def test_poisson_walk_matches_loop(rate, window):
    for seed in range(6):
        pts = generate(f"poisson:{rate}", window, seed=seed).points
        ref = loop_poisson(rate, *window, np.random.default_rng(seed))
        assert pts.tobytes() == ref.tobytes()


def test_poisson_walk_continues_past_its_first_chunk():
    # the first chunk draws the expected count plus 16 steps; seed 1 on
    # +-1500 walks further, so its points come from two chunks
    lo, hi = -1500.0, 1500.0
    pts = generate("poisson:1", (lo, hi), seed=1).points
    assert pts.size > int(hi - lo) + 16
    assert pts.tobytes() == loop_poisson(1.0, lo, hi, np.random.default_rng(1)).tobytes()


# ---------------------------------------------------------------------------
# The greedy walk
# ---------------------------------------------------------------------------

def assert_walks_agree(points, d, hi):
    bks, counts, blocked_at, trimmed = loop_grow_right(points, d, hi)
    new = _grow_right(points, d, hi)
    assert new[0].dtype == np.float64 and new[1].dtype == np.int64
    assert new[0].tobytes() == np.array(bks, dtype=float).tobytes()
    assert new[1].tobytes() == np.array(counts, dtype=np.int64).tobytes()
    assert type(new[2]) is type(blocked_at)
    assert new[2] == blocked_at and new[3] == trimmed
    return blocked_at, trimmed


def _greedy_answer(points, lo, hi):
    """The largest level at which the reference walk succeeds on both sides,
    to about 1e-12 relative."""
    mirrored = -points[::-1]

    def ok(d):
        return (loop_grow_right(points, d, hi)[2] is None
                and loop_grow_right(mirrored, d, -lo)[2] is None)

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


@pytest.mark.parametrize("name", list(WALK_SEQS))
def test_walk_matches_loop(name):
    seq = WALK_SEQS[name]
    lo, hi = seq.window
    pts = seq.points
    if name == "lacunary":
        assert pts[pts > 0].min() < 1e-299
    ans = _greedy_answer(pts, lo, hi)
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
                blocked, trimmed = assert_walks_agree(points, d, e)
                seen.add("blocked" if blocked is not None else
                         "trimmed" if trimmed else "complete")
    assert "blocked" in seen and len(seen) >= 2


def test_walk_edge_cases():
    pts = np.arange(-5.0, 6.0)
    for hi in (-1.0, 0.0, 0.5, 5.0, 1e300):
        for d in (0.5, 1.0, 3.0):
            assert_walks_agree(pts, d, hi)
    assert_walks_agree(np.zeros(0), 1.0, 1.0)
    assert_walks_agree(np.array([-0.0, 1.0, 2.0]), 1.0, 2.0)


def test_walk_single_point_runs():
    # slowly growing gaps that shrink once, at every step of three run
    # chunks: the run must stop there and the walk skip ahead
    base = np.cumsum(1.0 + 1e-3 * np.arange(420))
    for k in range(1, 400):
        pts = base.copy()
        pts[k:] -= 0.005
        for d in (0.5, 1.0):
            assert_walks_agree(pts, d, 600.0)
    # a run of unit steps, then points four times denser: the first step
    # after the run must measure its length against the last unit step
    pts = np.concatenate((np.arange(1.0, 300.0), 299.0 + 0.25 * np.arange(1, 400)))
    for d in (0.5, 1.0, 1.5):
        assert_walks_agree(pts, d, 400.0)


def test_walk_skip_boundary_rounding():
    # a_i + prev_len rounds down onto a point about 1 time in 5 here; the
    # loop skips that point as too short (points[j] - a_i < prev_len)
    rng = np.random.default_rng(8)
    for _ in range(2000):
        p0 = rng.uniform(0.01, 1.0)
        a = p0 + rng.uniform(p0, 4.0 * p0)
        t = a + (a - p0)
        cluster = t + np.arange(-3, 4) * np.spacing(t)
        assert_walks_agree(np.concatenate(([p0, a], cluster)), 1e-6, 10.0)


_walk_points = st.lists(
    st.one_of(st.floats(-50.0, 50.0), st.integers(-40, 40).map(float),
              st.integers(-1074, 10).map(lambda e: 2.0 ** e)),
    min_size=1, max_size=80, unique=True).map(lambda xs: np.unique(np.array(xs)))


@settings(max_examples=300, deadline=None)
@given(points=_walk_points,
       d=st.one_of(st.floats(1e-3, 20.0), st.sampled_from([0.5, 1.0, 2.0])),
       hi=st.floats(-1.0, 60.0))
def test_walk_matches_loop_on_random_points(points, d, hi):
    assert_walks_agree(points, d, hi)


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
    order = np.lexsort((v - u, -np.minimum(_terms_of(u, v), density.PICK_CAP)))
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
    found, evidence, total, terms = long_family_search(seq, mode)(a)
    ref = loop_long_family_search(seq, a, mode)
    assert found == ref[0]
    assert evidence == ref[1]
    assert all(type(x) is float for iv in evidence for x in iv)
    assert float(total).hex() == float(ref[2]).hex()
    assert terms.dtype == ref[3].dtype and terms.tobytes() == ref[3].tobytes()
    if mode == "below" and seq.points.size >= 2:
        # the candidates at or above the floor, in the same order
        new = _sparse_candidates(_sparse_table(seq.points), a)
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
    # the levels around a positive answer give long and short families; at a
    # zero answer the level one step up fails, which for d4 is a long family
    # and for bm a family that is not long
    assert ({f for f, _ in seen} == {True, False}) if ans > 0 else (mode == "below", True) in seen


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
    _, evidence, _, terms = long_family_search(seq, "below")(1.0)
    assert (2.0, 3.0) in evidence and (-3.0, -2.0) in evidence
    assert LONG_TERM_FLOOR in terms.tolist()


def test_long_family_ties_follow_input_order():
    # unit lattices: every widening far out has the same capped term and
    # length, so only the candidates' order decides which are picked
    for lo, hi in ((-300, 300), (-40, 400), (5, 500)):
        pts = np.arange(lo, hi + 1, dtype=float)
        seq = PointSequence(pts, (float(lo), float(hi)))
        u, v = _sparse_candidates(_sparse_table(pts), 1.0)
        terms = _terms_of(u, v)
        floor = terms >= LONG_TERM_FLOOR
        key = np.stack([np.minimum(terms, density.PICK_CAP), v - u])[:, floor]
        assert floor.sum() - np.unique(key, axis=1).shape[1] >= 50
        for a in (0.9, 1.0, 1.02, 1.5):
            for mode in ("below", "above"):
                assert_families_agree(seq, a, mode)


def test_floor_is_below_the_pick_cap():
    assert LONG_TERM_FLOOR <= density.PICK_CAP == 0.5


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


def loop_floor_sparse_candidates(pts, a):
    """`_sparse_candidates` as one probe built it: the starts at or above the
    floor, then one pass per width offset."""
    n = pts.size
    s = np.arange(n - 1)
    s = s[_terms_of(pts[s], pts[np.minimum(s + MAX_SPARSE_SPAN, n - 1)]) >= LONG_TERM_FLOOR]
    u_list = [pts[s]]
    v_list = [pts[s + 1]]
    best_term = np.full(s.size, -1.0)
    best_v = pts[s + 1]
    for w in range(2, min(MAX_SPARSE_SPAN, n - 1) + 1):
        m = np.searchsorted(s, n - w)  # starts with s + w <= n - 1
        u = pts[s[:m]]
        v = pts[s[:m] + w]
        ok = (w - 1) < a * (v - u)
        t = np.where(ok, _terms_of(u, v), -np.inf)
        upd = t > best_term[:m]
        best_term[:m][upd] = t[upd]
        best_v[:m][upd] = v[upd]
    widened = best_term > 0
    u_list.append(pts[s[widened]])
    v_list.append(best_v[widened])
    return np.concatenate(u_list), np.concatenate(v_list)


def loop_block_candidates(pts):
    """`_block_candidates` sorting each side."""
    us, vs = [], []
    for sign in (1.0, -1.0):
        side = np.sort(pts[pts * sign > 0] * sign)
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


def loop_probe_search(seq, a, mode):
    """The long-family search as each probe ran it, building its candidates
    from scratch."""
    pts = seq.points
    if pts.size < 2:
        return False, [], 0.0, np.zeros(0)
    bu, bv = loop_block_candidates(pts)
    if mode == "below":
        su, sv = loop_floor_sparse_candidates(pts, a)
        bu, bv = np.concatenate([bu, su]), np.concatenate([bv, sv])
    family = _assemble_family(pts, bu, bv, a, mode)
    lo, hi = seq.window
    return _evidence_subfamily(family, max(abs(lo), abs(hi)))


def assert_same_search(got, ref):
    assert got[0] == ref[0] and got[1] == ref[1]
    assert float(got[2]).hex() == float(ref[2]).hex()
    assert got[3].dtype == ref[3].dtype and got[3].tobytes() == ref[3].tobytes()


@pytest.mark.parametrize("mode", ["below", "above"])
@pytest.mark.parametrize("name", list(FAMILY_SEQS))
def test_family_probes_match_the_per_probe_search(monkeypatch, name, mode):
    # every level the d4 (below) and bm (above) ladders probe: the search
    # built once per level search against the one each probe built
    seq = FAMILY_SEQS[name]
    levels = []
    build = density.long_family_search

    def checked_build(seq_, mode_):
        search = build(seq_, mode_)

        def checked(a):
            got = search(a)
            assert_same_search(got, loop_probe_search(seq_, a, mode_))
            levels.append(a)
            return got
        return checked

    monkeypatch.setattr(density, "long_family_search", checked_build)
    estimate = density.d4_complement_estimate if mode == "below" else density.bm_density
    estimate(seq)
    assert len(levels) >= (1 if name == "lacunary" else 5)


@pytest.mark.parametrize("name", list(FAMILY_SEQS))
def test_sparse_table_matches_the_per_level_candidates(name):
    pts = FAMILY_SEQS[name].points
    table = _sparse_table(pts)
    assert _block_candidates(pts)[0].tobytes() == loop_block_candidates(pts)[0].tobytes()
    assert _block_candidates(pts)[1].tobytes() == loop_block_candidates(pts)[1].tobytes()
    for a in np.linspace(0.5, 2.0, 16):
        new = _sparse_candidates(table, a)
        for x, y in zip(new, loop_floor_sparse_candidates(pts, a)):
            assert x.tobytes() == y.tobytes()
        # and the unfiltered candidates at or above the floor, in order
        old = loop_sparse_candidates(pts, a)
        new_keep = _terms_of(*new) >= LONG_TERM_FLOOR
        old_keep = _terms_of(*old) >= LONG_TERM_FLOOR
        for x, y in zip(new, old):
            assert x[new_keep].tobytes() == y[old_keep].tobytes()


def test_sparse_table_on_tiny_and_huge_input():
    # two and three points (no widening, one width), and terms that are NaN
    # (an infinite length over an infinite distance) or infinite
    huge = np.array([-1.7e308, -1.5e308, -1e308, -1e155, -1e154, 0.0, 1.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _terms_of(huge[:1], huge[1:])
        assert np.isnan(terms[0]) and terms[-1] == np.inf
        for pts in (np.array([1.0, 2.0]), np.array([-1.0, 0.5, 3.0]), huge):
            for a in (0.5, 1.0, 3.0):
                for x, y in zip(_sparse_candidates(_sparse_table(pts), a),
                                loop_floor_sparse_candidates(pts, a)):
                    assert x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# The gap certificate's one search against the gated level search
# ---------------------------------------------------------------------------

def gated_search(seq):
    """(c, breakpoints): the level search whose predicate is d1's
    short-partition test and the energy verdict on its partition, at every
    level, with the partition the search hands back for its answer."""

    def probe(a):
        res = _short_greedy(seq, a)
        if res is None:
            return False, None
        part = res.partition
        rep = energy_condition_report(seq, part)
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
    bks = tuple(cert.to_json_dict()["partition_breakpoints"])
    assert (cert.c_estimate, bks) == gated_search(seq)
    assert "energy" not in cert.diagnostics
    c = cert.c_estimate
    assert (cert.energy_verdict == "supported") == (c > 0)
    if known == "d1":
        assert c == density.density_lower(seq).value > 0
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
    bks = tuple(cert.to_json_dict()["partition_breakpoints"])
    assert (cert.c_estimate, bks) == gated_search(seq)
    assert cert.c_estimate == 1.0
    assert cert.energy_verdict == "supported" and cert.diagnostics == {}


# ---------------------------------------------------------------------------
# The d3 matching and residuals, and the Clark atom sums
# ---------------------------------------------------------------------------

def loop_greedy_match_side(points, targets):
    matched = []
    i = 0
    n = points.size
    for t in targets:
        if i >= n:
            break
        while i + 1 < n and abs(points[i + 1] - t) <= abs(points[i] - t):
            i += 1
        matched.append(points[i])
        i += 1
    return np.array(matched)


def loop_atom_sum_at(a, n):
    """Sum over j != n of the closed-form gap contributions at b_n."""
    b = 0.5 * (a[:-1] + a[1:])
    bn = b[n]
    d = b - bn
    e1 = a[:-1] - bn
    e2 = a[1:] - bn
    mask = np.ones(b.size, dtype=bool)
    mask[n] = False
    terms = (np.log(np.abs(d[mask]))
             - 0.5 * np.log(np.abs(e1[mask]))
             - 0.5 * np.log(np.abs(e2[mask])))
    return float(np.sum(terms))


def loop_records(a, width, tail_mode):
    """(n, atom_sum, beta_n, tail_bound) per reported midpoint, the floats as
    hex, one midpoint at a time, with the outer gap scales recomputed for
    each tail estimate and beta_n = (delta_n / 2) * math.exp(-atom_sum)."""
    b = 0.5 * (a[:-1] + a[1:])
    idx = range(b.size) if width is None else np.nonzero(np.abs(b) <= width)[0]
    out = []
    for n in idx:
        s = loop_atom_sum_at(a, int(n))
        gl, gr = _outer_gap_scale(a)
        est = (gl / (8.0 * max(b[n] - a[0], gl)) + gr / (8.0 * max(a[-1] - b[n], gr))
               if b.size > 1 else 0.0)
        if tail_mode == "persistent":
            s += est
            d_edge = max(min(b[n] - a[0], a[-1] - b[n]), max(gl, gr))
            bound = est * (0.1 + 4.0 * max(gl, gr) / d_edge)
        else:
            bound = 2.0 * est
        beta = 0.5 * (a[n + 1] - a[n]) * math.exp(-s)
        out.append((int(n), float(s).hex(), float(beta).hex(), float(bound).hex()))
    return out


def assert_matches_agree(points, targets):
    new = _greedy_match_side(points, targets)
    assert new.dtype == np.float64
    assert new.tobytes() == loop_greedy_match_side(points, targets).tobytes()


def test_match_exact_ties_move_right():
    # half-integer targets sit midway between integer points: the loop's
    # `<=` takes the right one, and skips ahead when it is used up
    pts = np.arange(1.0, 40.0)
    for step in (0.5, 1.0, 1.5, 2.5):
        targets = np.arange(1, 60) * step + 0.5
        assert_matches_agree(pts, targets)
    assert_matches_agree(pts, np.full(10, 5.5))
    assert _greedy_match_side(pts, np.array([5.5]))[0] == 6.0


def test_match_dyadic_cluster_near_zero():
    # p - t rounds to -t for every point of the cluster, so the distances
    # tie all the way through it, as on lacunary input
    cluster = 2.0 ** -np.arange(1074, 0, -1)
    for a in (0.25, 1.0, 1.5, 3.0):
        targets = np.arange(1, 40) / a
        assert_matches_agree(cluster, targets)
        assert_matches_agree(np.concatenate((cluster, np.arange(1.0, 20.0))), targets)


def test_match_targets_past_the_last_point():
    pts = np.array([0.5, 1.0, 1.25, 4.0])
    for targets in (np.arange(1, 30) / 3.0, np.array([10.0, 20.0]), np.array([1e300])):
        assert_matches_agree(pts, targets)
    assert _greedy_match_side(pts, np.array([10.0, 20.0])).tolist() == [4.0]


def test_match_empty_and_one_point():
    for pts in (np.zeros(0), np.array([2.0])):
        for targets in (np.zeros(0), np.array([1.0]), np.array([1.0, 2.0, 3.0])):
            assert_matches_agree(pts, targets)


_match_points = st.lists(
    st.one_of(st.floats(1e-300, 60.0), st.integers(1, 40).map(float),
              st.integers(-1074, 5).map(lambda e: 2.0 ** e)),
    max_size=80, unique=True).map(lambda xs: np.unique(np.array(xs, dtype=float)))


@settings(max_examples=500, deadline=None)
@given(points=_match_points,
       a=st.one_of(st.floats(1e-2, 50.0), st.sampled_from([0.5, 1.0, 2.0, 4.0 / 3.0])),
       count=st.integers(0, 120), shift=st.sampled_from([0.0, 0.5]))
def test_match_matches_loop_on_random_points(points, a, count, shift):
    assert_matches_agree(points, (np.arange(1, count + 1) + shift) / a)


def loop_counting_residual(matched, a, window):
    """The d3 residual on one window as it was computed per window: its own
    sorted, distinct events, counts by searchsorted at segment midpoints,
    and arctan and log1p at both ends of every segment."""
    def F(x, cc):
        return cc * np.arctan(x) - 0.5 * a * np.log1p(x * x)

    lo, hi = window
    inner = matched[(matched > lo) & (matched < hi)]
    zero = [0.0] if lo < 0.0 < hi else []
    events = np.unique(np.concatenate([[lo], inner, zero, [hi]]))
    if events.size < 2:
        return 0.0
    u, v = events[:-1], events[1:]
    mids = 0.5 * (u + v)
    zero_before = np.searchsorted(matched, 0.0, side="right")
    c = (np.searchsorted(matched, mids, side="right") - zero_before).astype(float)
    xs = c / a
    straddle = (u < xs) & (xs < v)
    fu, fv = F(u, c), F(v, c)
    plain = np.abs(fv - fu)
    if np.any(straddle):
        fxs = F(xs[straddle], c[straddle])
        plain[straddle] = (np.abs(fxs - fu[straddle]) + np.abs(fv[straddle] - fxs))
    return float(np.sum(plain))


def loop_residual_curve(seq, a):
    matched = np.sort(match_to_ideal_grid(seq, a))
    lo, hi = seq.window
    return [(f, loop_counting_residual(matched, a, (lo * f, hi * f)))
            for f in density.D3_FRACTIONS]


def assert_residuals_agree(matched, a, windows):
    got = _counting_residuals(matched, a, windows)
    ref = [loop_counting_residual(matched, a, w) for w in windows]
    assert [r.hex() for r in got] == [r.hex() for r in ref]


D3_SEQS = {
    "perturbed": generate("perturbed:1,0.2", (-1500, 1500), seed=3),
    "poisson": generate("poisson:1", (-1500, 1500), seed=4),
    "lattice": generate("lattice:1", (-300, 300)),
    "lacunary": generate("lacunary:2", (-1e6, 1e6)),
    "right_of_0": generate("poisson:1", (20, 900), seed=5),
    "left_of_0": generate("perturbed:1,0.2", (-900, -20), seed=6),
}


@pytest.mark.parametrize("name", list(D3_SEQS))
def test_residual_curve_matches_the_per_window_residuals(name):
    seq = D3_SEQS[name]
    for a in (0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.3, 2.0, 3.7):
        matched = match_to_ideal_grid(seq, a)
        assert np.all(np.diff(matched) > 0)  # sorted and distinct without a sort
        curve = d3_residual_curve(seq, a)
        ref = loop_residual_curve(seq, a)
        assert [(f, r.hex()) for f, r in curve] == [(f, r.hex()) for f, r in ref]


def test_residuals_on_edge_windows():
    matched = np.array([-3.0, -1.5, -0.25, 0.5, 1.0, 2.0, 4.0])
    for zero in (None, 0.0, -0.0):
        m = matched if zero is None else np.sort(np.append(matched, zero))
        for windows in ([(-4.0, 4.0)], [(0.0, 3.0)], [(1.0, 3.0)], [(-3.0, 0.0)],
                        [(-3.0, -1.0)], [(-1.5, 2.0)], [(2.0, 2.0)], [(0.0, 0.0)],
                        [(-0.0, 0.0)], [(-4.0 * f, 4.0 * f) for f in density.D3_FRACTIONS],
                        [(1.0 * f, 4.0 * f) for f in density.D3_FRACTIONS]):
            for a in (0.5, 1.0, 2.0):
                assert_residuals_agree(m, a, windows)
    for a in (0.5, 1.0):
        assert_residuals_agree(np.zeros(0), a, [(-2.0, 3.0), (0.0, 3.0), (-2.0, -1.0)])
    # adjacent floats: the midpoint of (u, v) rounds onto v, a matched
    # point, so the count there is one more than at u
    e = np.nextafter(1.0, 2.0) - 1.0
    u, v = 1.0 + e, 1.0 + 2.0 * e
    assert 0.5 * (u + v) == v
    for matched in (np.array([u, v]), np.array([-1.0, u, v]), np.array([-1.0, u, v, 2.0])):
        for window in ((1.0, 1.0 + 3.0 * e), (-3.0, 3.0), (0.0, v), (u, 3.0)):
            for a in (0.3, 1.0, 2.0):
                assert_residuals_agree(matched, a, [window])


_residual_points = st.one_of(st.floats(-40.0, 40.0), st.integers(-40, 40).map(float),
                             st.integers(-8, 8).map(lambda k: k / 4.0),
                             st.sampled_from([0.0, -0.0]))


@settings(max_examples=400, deadline=None)
@given(points=st.lists(_residual_points, max_size=80), ends=st.lists(_residual_points,
       min_size=2, max_size=2), zero=st.sampled_from([0.0, -0.0]),
       a=st.one_of(st.floats(1e-2, 10.0), st.sampled_from([0.25, 0.5, 1.0, 2.0])),
       nested=st.booleans())
def test_residuals_match_the_per_window_reference(points, ends, zero, a, nested):
    # matched points sorted and distinct, 0 of either sign among them or
    # not; window ends on either side of 0, on 0 or on matched points
    matched = np.unique(np.array(points, dtype=float))
    matched[matched == 0.0] = zero
    lo, hi = sorted(ends)
    windows = [(lo * f, hi * f) for f in density.D3_FRACTIONS] if nested else [(lo, hi)]
    assert_residuals_agree(matched, a, windows)


ATOM_SEQS = {
    "lattice": generate("lattice:1", (-400, 400)).points,
    "perturbed": generate("perturbed:1,0.2", (-400, 400), seed=3).points,
    "poisson": generate("poisson:1", (-400, 400), seed=4).points,
    "lacunary": generate("lacunary:2", (-1e6, 1e6)).points,
}


def hex_records(table):
    return [(n, s.hex(), beta.hex(), bound.hex())
            for n, s, beta, bound in table.rows("n", "atom_sum", "beta_n", "tail_bound")]


@pytest.mark.parametrize("tail_mode", ["none", "persistent"])
@pytest.mark.parametrize("name", list(ATOM_SEQS))
def test_atom_sums_match_loop(name, tail_mode):
    a = ATOM_SEQS[name]
    # the whole slice, a window inside it, and a short slice whose blocks
    # of midpoints do not fill the last one
    for pts, width in ((a, None), (a, 40.0), (a[:37], None), (a[:2], None)):
        table = residue_weights(pts, report_width=width, tail_mode=tail_mode)
        assert table.n.size
        assert hex_records(table) == loop_records(pts, width, tail_mode)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(list(ATOM_SEQS)), start=st.integers(0, 700),
       size=st.integers(2, 60), width=st.one_of(st.none(), st.floats(0.0, 50.0)),
       tail_mode=st.sampled_from(["none", "persistent"]))
def test_atom_sums_match_loop_on_random_slices(name, start, size, width, tail_mode):
    pts = ATOM_SEQS[name][start:start + size]
    if pts.size < 2:
        return
    table = residue_weights(pts, report_width=width, tail_mode=tail_mode)
    assert hex_records(table) == loop_records(pts, width, tail_mode)


def loop_regularize(seq, C):
    """(added, gamma points, fills) as the per-gap loop built them, each
    fill a (gap_lo, gap_hi, inserted, spacing) tuple."""
    pts = seq.points
    if pts.size < 2:
        return np.empty(0), pts, []
    gaps = np.diff(pts)
    ks = np.floor(gaps / C)
    over = np.flatnonzero(gaps > C)
    fills = []
    new_points = [np.empty(0)]
    for i in over.tolist():
        k = int(ks[i])  # at least 1, as g > C
        spacing = gaps[i] / k
        new_points.append(pts[i] + spacing * np.arange(1, k))
        fills.append((float(pts[i]), float(pts[i + 1]), k - 1, float(spacing)))
    added = np.concatenate(new_points)
    return added, np.sort(np.concatenate([pts, added])), fills


def hexes(values):
    return [float(x).hex() for x in values]


def assert_fills_agree(seq, C):
    res = regularize_gaps(seq, C)
    added, gamma, fills = loop_regularize(seq, C)
    assert hexes(res.added.points) == hexes(added)
    assert hexes(res.gamma.points) == hexes(gamma)
    lo, hi, inserted, spacing = zip(*fills) if fills else ((),) * 4
    assert hexes(res.gap_lo) == hexes(lo) and hexes(res.gap_hi) == hexes(hi)
    assert res.inserted.tolist() == list(inserted)
    assert hexes(res.spacing) == hexes(spacing)
    return res


FILL_SEQS = {
    "lattice": generate("lattice:1", (-5000, 5000), seed=1),
    "perturbed": generate("perturbed:1,0.2", (-1500, 1500), seed=1),
    "poisson": generate("poisson:1", (-5000, 5000), seed=1),
    "lacunary": generate("lacunary:2", (-1e6, 1e6), seed=1),
    "one_gap": PointSequence(np.array([0.0, 1e6]), (0.0, 1e6)),
    "empty": PointSequence(np.empty(0), (0.0, 10.0)),
    "one_point": PointSequence(np.array([3.0]), (0.0, 10.0)),
    "two_points": PointSequence(np.array([0.0, 9.5]), (0.0, 10.0)),
}


@pytest.mark.parametrize("C", [1.5, 4.0, 10.0])
@pytest.mark.parametrize("name", list(FILL_SEQS))
def test_fills_match_loop(name, C):
    res = assert_fills_agree(FILL_SEQS[name], C)
    # Poisson at C = 1.5 and the one gap fill gaps with several points each
    if name == "one_gap" or (name, C) == ("poisson", 1.5):
        assert res.inserted.max() > 1


def _ulps_off(x, k):
    """x moved k ulps up (k > 0) or down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(np.inf, k))
    return x


@settings(max_examples=300, deadline=None)
@given(C=st.floats(1.01, 50.0), start=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
       picks=st.lists(st.tuples(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.5, 6.0)),
                                st.integers(-3, 3)), max_size=40))
def test_fills_match_loop_on_gaps_near_C_and_2C(C, start, picks):
    # each gap m * C moved a few ulps: just below, at or above C and 2C,
    # or any length up to 6C
    pts = start + np.cumsum([0.0] + [_ulps_off(m * C, k) for m, k in picks])
    if np.any(np.diff(pts) <= 0):
        return
    assert_fills_agree(PointSequence(pts, (pts[0], pts[-1])), C)
