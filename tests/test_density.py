import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapkit.density as density
import gapkit.gapnum as gapnum
from gapkit.density import (DensityEstimate, _counting_residuals, _greedy_match_side,
                            bm_density, d3_residual_curve, d4_complement_estimate,
                            density_estimate, density_lower, long_family_search,
                            match_to_ideal_grid, verify_family_witness,
                            verify_partition_witness)
from gapkit.partitions import greedy_density_partition
from gapkit.seqcore import ParameterError, PointSequence, generate

WINDOW = (-2000.0, 2000.0)


def test_d1_lattice():
    est = density_lower(generate("lattice:1", WINDOW))
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.witness["verified"]


def test_d1_halved_lattice():
    est = density_lower(generate("lattice:2", WINDOW))
    assert est.value == pytest.approx(0.5, abs=0.025)


def test_density_of_finite_set():
    pts = np.linspace(0.05, 0.95, 10)
    seq = PointSequence(pts, (0.0, 1.0))
    assert density_lower(seq).value == 0.0
    assert bm_density(seq).value == 0.0


def test_d1_reads_zero_below_four_points():
    # four points carry a verified level-1 witness; any three of them read 0
    pts = [-1.0, 0.5, 1.0, 1.5]
    est = density_lower(PointSequence(pts, (-1.5, 1.5)))
    assert est.value == 1.0 and est.witness["breakpoints"] == [-1.0, 0.0, 0.5, 1.0, 1.5]
    for i in range(4):
        fewer = PointSequence(pts[:i] + pts[i + 1:], (-1.5, 1.5))
        assert density_lower(fewer) == DensityEstimate(0.0, "d1", (-1.5, 1.5))


def test_witness_verification_round_trip():
    seq = generate("lattice:1", WINDOW)
    res = greedy_density_partition(seq, 1.0)
    assert verify_partition_witness(seq, 1.0, res.partition)
    assert not verify_partition_witness(seq, 1.2, res.partition)


@pytest.mark.parametrize("removed,expected", [(0.0, True), (-1.0, False), (1.0, False)])
def test_witness_counts_outward(removed, expected):
    # unit intervals own the endpoint facing away from 0: [-1, 0) and (0, 1].
    # Without 0 both still hold a point, though (-1, 0] would hold none;
    # without -1 (or 1) the interval beside 0 holds only 0, which it does not own
    lattice = generate("lattice:1", (-200.0, 200.0))
    part = greedy_density_partition(lattice, 1.0).partition
    seq = PointSequence(lattice.points[lattice.points != removed], lattice.window)
    assert verify_partition_witness(seq, 1.0, part) is expected


# intervals (3^k, 2 * 3^k], k = 0..11: disjoint, each with a shortness term
# near 1, so the family is long; at this level each needs one point to meet
# count >= a|I| and none to meet count < a|I|
ENDPOINT_FAMILY = [(3.0 ** k, 2 * 3.0 ** k) for k in range(12)]
ENDPOINT_LEVEL = 0.5 / 3 ** 11


@pytest.mark.parametrize("end,mode,expected", [
    (1, "above", True),    # (u, v] owns v
    (0, "above", False),   # ... but not u
    (1, "below", True),    # (u, v) owns neither
    (0, "below", True),
])
def test_family_witness_point_on_endpoint(end, mode, expected):
    pts = np.array([iv[end] for iv in ENDPOINT_FAMILY])
    seq = PointSequence(pts, (0.0, 2 * 3.0 ** 11))
    assert verify_family_witness(seq, ENDPOINT_LEVEL, ENDPOINT_FAMILY, mode) is expected


@pytest.mark.parametrize("mode", ["sideways", "Below", None])
def test_family_mode_must_be_known(mode):
    seq = generate("lattice:1", (-300, 300))
    with pytest.raises(ParameterError, match="mode"):
        long_family_search(seq, mode)
    with pytest.raises(ParameterError, match="mode"):
        verify_family_witness(seq, 0.5, ENDPOINT_FAMILY, mode)


# ---------------------------------------------------------------------------
# d3: counting residual
# ---------------------------------------------------------------------------

def d3_residual(seq, a):
    """The residual on the whole window: the last entry of the curve."""
    return d3_residual_curve(seq, a)[-1][1]


def test_d3_lattice_flat_and_bounded():
    seq = generate("lattice:1", WINDOW)
    curve = d3_residual_curve(seq, 1.0)
    # fractional-part bound: the mismatch never exceeds 1, so the residual
    # is below the full Poisson mass
    assert curve[-1][1] <= math.pi
    assert curve[-1][1] - curve[1][1] <= 0.1


def test_d3_slope_mismatch_grows():
    seq = generate("lattice:1", WINDOW)
    r_full = d3_residual(seq, 1.2)
    half = seq.restrict(-1000, 1000)
    r_half = d3_residual(half, 1.2)
    # |n - 1.2 x| ~ 0.2|x| makes the residual grow by ~0.4 per doubling
    assert r_full - r_half >= 0.1


def test_d3_empty_sequence_closed_form():
    seq = PointSequence(np.empty(0), (-50.0, 80.0))
    a = 0.7
    resid = d3_residual(seq, a)
    expected = a * 0.5 * (math.log(1 + 50.0 ** 2) + math.log(1 + 80.0 ** 2))
    assert resid == pytest.approx(expected, rel=1e-12)


def test_d3_requires_positive_slope():
    seq = generate("lattice:1", (0, 10))
    for a in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="slope a must be positive"):
            d3_residual_curve(seq, a)


def test_matching_thins_to_target():
    # at half the true density the matching must skip alternate points
    seq = generate("lattice:1", (0, 100))
    matched = match_to_ideal_grid(seq, 0.5)
    assert np.allclose(np.diff(matched), 2.0)


def _match_all_targets(seq, a):
    """match_to_ideal_grid without the cap: one target per grid step."""
    lo, hi = seq.window
    pts = seq.points
    right = _greedy_match_side(pts[pts > 0], np.arange(1, math.floor(a * hi) + 1) / a)
    left = _greedy_match_side(-pts[pts < 0][::-1],
                              np.arange(1, math.floor(-a * lo) + 1) / a)
    return np.sort(np.concatenate([-left, right]))


@pytest.mark.parametrize("spec,seed", [("lattice:1", None), ("lattice:2", None),
                                       ("perturbed:1,0.3", 3), ("perturbed:1,0.3", 1)])
def test_matching_cap_is_exact(spec, seed):
    # targets beyond a side's point count are never read, so capping them
    # there changes no match, at slopes below, at and above the density
    seq = generate(spec, WINDOW, seed=seed)
    for a in (0.25, 0.5, 0.999, 1.0, 1.2, 3.0):
        assert (match_to_ideal_grid(seq, a).tobytes()
                == _match_all_targets(seq, a).tobytes())


def test_matching_size_follows_points_not_slope():
    # one target per grid step over +-1e6 at slope 1e12 is 2e18 targets
    seq = generate("lacunary:2", (-1e6, 1e6))
    matched = match_to_ideal_grid(seq, 1e12)
    assert 0 < matched.size <= len(seq) and np.isin(matched, seq.points).all()
    assert np.isfinite(d3_residual(seq, 1e12))


def test_counting_residual_exactness():
    # single matched point at 1, slope 1, window [0, 2]:
    # n = 0 on (0,1), n = 1 on (1,2); integrals in closed form
    matched = np.array([1.0])

    def F(x, c, a=1.0):
        return c * math.atan(x) - 0.5 * a * math.log1p(x * x)

    # crossing at x = 1 exactly: |F(1, 0) - F(0, 0)| = log(2) / 2
    expected = (0.5 * math.log(2.0)) + abs(F(2.0, 1.0) - F(1.0, 1.0))
    assert _counting_residuals(matched, 1.0, [(0.0, 2.0)])[0] \
        == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# d4 and BM long families
# ---------------------------------------------------------------------------

def d4_refutes(seq, a):
    """(refuted, family): the d4 probe at level a, as the estimate runs it."""
    found, family, _, _ = long_family_search(seq, "below")(a)
    return found and verify_family_witness(seq, a, family, "below"), family


def test_d4_refutes_lacunary():
    seq = generate("lacunary:2", (1, 2 ** 20))
    refuted, fam = d4_refutes(seq, 0.01)
    assert refuted
    assert verify_family_witness(seq, 0.01, fam, "below")
    # the dyadic gaps themselves appear as members
    assert (1.0, 2.0) in fam or (2.0, 4.0) in fam


def test_d4_cannot_refute_dense_lattices():
    assert not d4_refutes(generate("lattice:1", WINDOW), 0.5)[0]
    assert not d4_refutes(generate("lattice:2", WINDOW), 0.4)[0]


def test_d4_complement_tracks_density():
    est = d4_complement_estimate(generate("lattice:1", WINDOW))
    assert est.value == pytest.approx(1.0, abs=0.05)


def test_bm_lattice():
    est = bm_density(generate("lattice:1", WINDOW))
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.witness["verified"]


def test_bm_one_sided():
    right = generate("lattice:1", (0, 2000))
    seq = PointSequence(right.points, (-2000, 2000))
    assert bm_density(seq).value == pytest.approx(1.0, abs=0.05)


def test_sandwich_interior_below_bm():
    for spec, seed in (("lattice:1", None), ("lattice:2", None),
                       ("perturbed:1,0.3", 1)):
        seq = generate(spec, WINDOW, seed=seed)
        d1 = density_lower(seq).value
        bm = bm_density(seq).value
        assert d1 <= bm + 0.05


def test_monotone_under_insertion():
    rng = np.random.default_rng(17)
    seq = generate("lattice:2", (-500, 500))
    base = density_lower(seq).value
    extra = rng.uniform(-500, 500, 300)
    pts = np.unique(np.concatenate([seq.points, extra]))
    denser = PointSequence(pts, seq.window)
    assert density_lower(denser).value >= base - 1e-3 - 1e-12


def test_scaling_covariance():
    seq = generate("lattice:1", (-1000, 1000))
    base = density_lower(seq).value
    for t in (0.5, 2.0):
        scaled = seq.scale(t)
        est = density_lower(scaled).value
        assert est == pytest.approx(base / t, abs=0.05 * max(1.0, 1.0 / t))


def test_density_estimate_dispatch():
    seq = generate("lattice:1", (-500, 500))
    for m in ("d1", "d3", "d4", "bm"):
        est = density_estimate(seq, m)
        assert est.method == m
        assert 0.9 <= est.value <= 1.1
    with pytest.raises(ParameterError):
        density_estimate(seq, "d9")


@settings(max_examples=2000, deadline=None)
@example(1001)  # 1001 * 1e-3 rounds twice, to 1.0010000000000001
@given(st.integers(min_value=1, max_value=2**53))
def test_grid_levels_are_the_nearest_double(k):
    assert density.GRID_RESOLUTION == 1e-3
    assert density._grid_level(k) == float(Fraction(k, 1000))


@pytest.mark.parametrize("seed", [18, 902])
def test_bm_one_step_above_kadec_reads_the_grid_level(seed):
    # on these seeds a long family holds 1.001 points per unit length
    seq = generate("perturbed:1,0.2", (-1500.0, 1500.0), seed=seed)
    assert bm_density(seq).value == 1.001 == 1.0 + 1e-3


# ---------------------------------------------------------------------------
# The level search on sparse input
# ---------------------------------------------------------------------------

PROBED = ("d3_residual_curve", "verify_family_witness")


@pytest.fixture
def probe_count(monkeypatch):
    """Record the levels every level search probes (`levels`), the levels
    each function in PROBED and each search `long_family_search` builds are
    called at (`calls[name]`, `calls["search"]`), and the mode of each build
    (`calls["build"]`)."""
    levels, calls = [], {name: [] for name in (*PROBED, "search", "build")}
    search = density._grid_max_feasible
    build = density.long_family_search

    def counted(probe, seq):
        def recorded(a):
            levels.append(a)
            return probe(a)
        return search(recorded, seq)

    def calls_of(name, fn):
        def recorded(seq, a, *args, **kwargs):
            calls[name].append(a)
            return fn(seq, a, *args, **kwargs)
        return recorded

    def built(seq, mode):
        calls["build"].append(mode)
        real = build(seq, mode)

        def recorded(a):
            calls["search"].append(a)
            return real(a)
        return recorded

    monkeypatch.setattr(density, "_grid_max_feasible", counted)
    monkeypatch.setattr(density, "long_family_search", built)
    for name in PROBED:
        monkeypatch.setattr(density, name, calls_of(name, getattr(density, name)))
    return levels, calls


LACUNARY = generate("lacunary:2", (-1e6, 1e6))


@pytest.mark.parametrize("method,limit", [
    ("gap", 2), ("d1", 2), ("bm", 2), ("d3", 40), ("d4", 40)])
def test_lacunary_levels_probed(probe_count, method, limit):
    # the top rung is 2.8e269 here; a top-down bisection probed ~906 levels
    assert density._default_a_max(LACUNARY) > 1e269
    if method == "gap":
        value = gapnum.estimate_gap_characteristic(LACUNARY).c_estimate
        assert value == 0.0
    else:
        value = density_estimate(LACUNARY, method).value
    assert 1 <= len(probe_count[0]) <= limit
    assert 0.0 <= value < 0.1


@pytest.mark.parametrize("method", ["d3", "d4"])
def test_lacunary_d3_and_d4_read_zero(method):
    # d3: the residual slope is exactly 2a at every level a, which the
    # flatness rule D3_FLAT_SLOPE * a rejects; d4: the gap family is not
    # crowded out by the candidate that starts at the first point near 0
    assert density_estimate(LACUNARY, method).value == 0.0


@pytest.mark.parametrize("method,callee", [
    ("d3", "d3_residual_curve"), ("d4", "search"), ("bm", "search")])
def test_no_probe_runs_after_the_search(probe_count, method, callee):
    # the witness comes from the search: the probe's own calls, each at a
    # distinct probed level, and none after the search returns
    levels, calls = probe_count
    est = density_estimate(generate("lattice:1", (-300.0, 300.0)), method)
    assert est.value > 0 and est.witness
    assert len(set(calls[callee])) == len(calls[callee]) > 0
    assert calls[callee] == levels
    # d4 and bm verify only the families the search finds
    assert set(calls["verify_family_witness"]) <= set(levels)


@pytest.mark.parametrize("method,mode", [("d4", "below"), ("bm", "above")])
def test_one_long_family_search_per_estimate(probe_count, method, mode):
    levels, calls = probe_count
    density_estimate(generate("poisson:1", (-300.0, 300.0), seed=2), method)
    assert calls["build"] == [mode]
    assert calls["search"] == levels and len(levels) > 1


def test_search_hands_back_the_witnesses_on_the_grid():
    seq = generate("lattice:1", (-50.0, 50.0))
    assert density._grid_max_feasible(lambda a: (a <= 0.008, a), seq) == (
        0.008, 0.008, 0.009)
    assert density._grid_max_feasible(lambda a: (False, a), seq) == (0.0, None, 0.001)
    assert density._grid_max_feasible(lambda a: (a <= 1.001, a), seq)[0] == 1.001
    top, witness, refutation = density._grid_max_feasible(lambda a: (True, a), seq)
    assert top == witness > 1.0 and refutation is None


def test_d4_probes_only_grid_levels(probe_count):
    # one grid step above 1.996 is 1.997; 1.996 + 1e-3 is 1.9969999999999999
    _, calls = probe_count
    est = d4_complement_estimate(generate("lattice:0.5", (-1500.0, 1500.0)))
    assert est.value == 1.996
    assert calls["search"] and all(
        a == density._grid_level(round(a * 1000)) for a in calls["search"])
    assert est.witness["intervals"]


def _in_series_order(intervals):
    keys = [(0.0 if u < 0 < v else min(abs(u), abs(v)), u) for u, v in intervals]
    return keys == sorted(keys)


@pytest.mark.parametrize("spec,window", [("lattice:1", (-300.0, 300.0)),
                                         ("lattice:0.5", (-1500.0, 1500.0))])
def test_family_witnesses_come_in_series_order(spec, window):
    # by dist(0, I), then left end: on a symmetric lattice a member left of 0
    # comes just before its mirror image
    seq = generate(spec, window)
    for method in ("bm", "d4"):
        intervals = density_estimate(seq, method).witness["intervals"]
        assert len(intervals) >= 10 and _in_series_order(intervals)
