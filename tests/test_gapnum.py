import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapkit.gapnum as gapnum
from gapkit.density import GRID_RESOLUTION, density_lower, verify_partition_witness
from gapkit.energy import energy_condition_report
from gapkit.gapnum import (MAX_GRAM_SIZE, _nearest_zero, estimate_gap_characteristic,
                           gram_matrix, sigma_min_crossing,
                           sigma_min_sweep, synthesize_gap_measure, with_gram_crossing)
from gapkit.seqcore import ParameterError, Partition, PointSequence, fourier_eval, generate

TWO_PI = 2.0 * math.pi
# the crossing search stops at a bracket this wide
CROSSING_STEP = TWO_PI * GRID_RESOLUTION


def gram_entries(lam, a):
    """The real form S of the Gram matrix, as the Gram stage fills it: its
    diagonal and lower triangle, all that LAPACK reads."""
    return gapnum._gram_fill(lam)(a)


def test_gram_single_atom():
    p = gram_matrix([4.2], 3.0)
    assert p.eigenvalues.shape == (1,)
    assert p.sigma_min == pytest.approx(3.0)
    assert p.minimizing_weights == pytest.approx([1.0])


def test_gram_full_period_orthogonality():
    # |G_jk| = |S_jk|: the real form vanishes off the diagonal too (the fill
    # writes the lower triangle, which LAPACK reads)
    assert abs(gram_entries([0.0, 1.0], TWO_PI)[1, 0]) <= 1e-12
    assert gram_matrix([0.0, 1.0], TWO_PI).sigma_min == pytest.approx(TWO_PI, abs=1e-12)
    off = np.tril(gram_entries(np.arange(64.0), TWO_PI)) - TWO_PI * np.eye(64)
    assert np.max(np.abs(off)) <= 1e-12
    q = gram_matrix(np.arange(64.0), TWO_PI)
    assert q.eigenvalues == pytest.approx(np.full(64, TWO_PI), abs=1e-12)


def test_gram_two_by_two_closed_form():
    p = gram_matrix([0.0, 1.0], math.pi)
    # G_10 = 2j is e^(i*pi/2) times the real form's S_10 = 2
    assert gram_entries([0.0, 1.0], math.pi)[1, 0] == pytest.approx(2.0)
    assert p.sigma_min == pytest.approx(math.pi - 2.0, abs=1e-12)
    assert p.eigenvalues == pytest.approx([math.pi - 2, math.pi + 2], abs=1e-12)


def test_gram_psd_and_quadratic_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        lam = np.sort(rng.uniform(-10, 10, n)) + np.arange(n) * 1e-7
        a = rng.uniform(0.2, 6.0)
        p = gram_matrix(lam, a)
        g = closed_form_gram(lam, a)
        assert np.max(np.abs(g - g.conj().T)) <= 1e-13
        assert p.sigma_min >= 0.0
        quad = float(np.real(p.minimizing_weights.conj() @ g @ p.minimizing_weights))
        assert quad == pytest.approx(p.sigma_min, abs=1e-10)


def test_gram_input_validation():
    with pytest.raises(ParameterError):
        gram_matrix([0.0, 0.0], 1.0)
    with pytest.raises(ParameterError):
        gram_matrix([0.0, 1.0], 0.0)
    with pytest.raises(ParameterError):
        gram_matrix(np.arange(3000.0), 1.0)


def test_lattice_transition_endpoints():
    lam = np.arange(64.0)
    assert gram_matrix(lam, TWO_PI + 0.1).sigma_min >= TWO_PI - 1e-9
    assert gram_matrix(lam, math.pi).sigma_min <= 1e-6


def test_rescaling_covariance():
    lam = np.arange(8.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.uniform(1.0, 4.0)
        s = rng.uniform(0.2, 9.0)
        lhs = gram_matrix(lam / s, s * a).sigma_min
        rhs = s * gram_matrix(lam, a).sigma_min
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, s))


def test_step_ten_lattice():
    lam = np.array([0.0, 10.0, 20.0, 30.0])
    p = gram_matrix(lam, TWO_PI / 10 + 0.01)
    assert p.sigma_min >= TWO_PI / 10 - 1e-9


def test_sweep_is_monotone():
    lam = np.arange(64.0)
    grid = np.linspace(0.2 * TWO_PI, 1.15 * TWO_PI, 50)
    sigmas = sigma_min_sweep(lam, grid)
    assert sigmas.shape == grid.shape
    assert np.min(np.diff(sigmas)) >= -1e-10


def test_sweep_matches_gram_sigma_min():
    # the sweep solves for eigenvalues only; gram_matrix also for the vectors
    rng = np.random.default_rng(5)
    lam_random = np.sort(rng.uniform(-20.0, 20.0, 48)) + np.arange(48) * 1e-7
    for lam in (np.arange(64.0), lam_random):
        grid = np.linspace(0.3, 1.3 * TWO_PI, 15)
        expected = [gram_matrix(lam, a).sigma_min for a in grid]
        assert np.max(np.abs(sigma_min_sweep(lam, grid) - expected)) <= 1e-12


def test_sweep_input_validation():
    grid = np.linspace(1.0, 2.0, 3)
    with pytest.raises(ParameterError):
        sigma_min_sweep([0.0, 1.0, 1.0], grid)
    with pytest.raises(ParameterError):
        sigma_min_sweep(np.arange(MAX_GRAM_SIZE + 1.0), grid)
    for bad in ([0.0, 1.0], [-2.0, -1.0]):
        with pytest.raises(ParameterError):
            sigma_min_sweep(np.arange(4.0), bad)


def test_synthesize_two_atoms():
    syn = synthesize_gap_measure([0.0, 1.0], math.pi)
    assert syn.l2_gap_norm == pytest.approx(math.sqrt(math.pi - 2.0), abs=1e-10)
    assert abs(syn.quadrature_l2 - (math.pi - 2.0)) <= 1e-8


def test_synthesize_single_atom():
    syn = synthesize_gap_measure([2.5], 1.7)
    assert syn.l2_gap_norm == pytest.approx(math.sqrt(1.7), abs=1e-12)
    assert syn.sup_gap_norm == pytest.approx(1.0, abs=1e-12)


def test_synthesize_lattice_gap_quality():
    syn = synthesize_gap_measure(np.arange(64.0), math.pi)
    assert syn.l2_gap_norm <= 1e-3
    t = np.linspace(0.0, 0.9 * math.pi, 1500)
    vals = np.abs(fourier_eval(syn.measure, t))
    assert np.max(vals) <= 1e-2


def test_synthesize_quadrature_consistency_random():
    rng = np.random.default_rng(12)
    for _ in range(15):
        n = int(rng.integers(2, 40))
        lam = np.sort(rng.uniform(-15, 15, n)) + np.arange(n) * 1e-7
        a = rng.uniform(0.1, 5.0)
        syn = synthesize_gap_measure(lam, a)  # 1e-8 agreement asserted inside
        assert syn.l2_gap_norm ** 2 == pytest.approx(syn.quadrature_l2, abs=1e-8)


def test_synthesize_rejects_a_quadrature_past_its_node_cap():
    # a * span = 1e8 radians would need about 2.5e8 nodes
    with pytest.raises(ParameterError, match="quadrature nodes"):
        synthesize_gap_measure([0.0, 1e4], 1e4)


def test_gram_support_breaks_ties_to_the_left():
    # +-k tie in |x| on a symmetric lattice: the stable sort keeps the left
    # one first, whatever numpy's default sort would pick
    pts = generate("lattice:1", (-1500, 1500)).points
    assert _nearest_zero(pts, 512).tolist() == list(map(float, range(-256, 256)))
    assert _nearest_zero(pts, 256).tolist() == list(map(float, range(-128, 128)))


def test_estimate_lattice():
    seq = generate("lattice:1", (-1500, 1500))
    cert = estimate_gap_characteristic(seq)
    assert 0.9 <= cert.c_estimate <= 1.0
    assert cert.g_estimate == 2.0 * math.pi * cert.c_estimate
    assert cert.energy_verdict == "supported"
    assert cert.to_json_dict()["shortness_verdict"] == "short"


@pytest.mark.parametrize("spec,window", [
    ("lattice:1", (-300, 300)),
    ("perturbed:1,0.2", (-1500, 1500)),
    ("poisson:1", (-1500, 1500)),
])
def test_certificate_partition_passes_d1_witness_check(spec, window):
    # the certificate's partition is d1's witness, so it must pass d1's own
    # witness re-check at c
    seq = generate(spec, window, seed=1)
    cert = estimate_gap_characteristic(seq)
    assert cert.c_estimate > 0
    d = cert.to_json_dict()
    bks = np.array(d["partition_breakpoints"])
    assert verify_partition_witness(seq, cert.c_estimate, Partition(bks))
    # the margin recounted with the outward closure: (u, v] right of 0,
    # [u, v) left of it
    pts, sides = seq.points, np.where(bks[:-1] >= 0, "right", "left")
    counts = np.array([pts.searchsorted(v, side) - pts.searchsorted(u, side)
                       for u, v, side in zip(bks[:-1], bks[1:], sides)])
    margin = np.min(counts - cert.c_estimate * np.diff(bks))
    assert d["density_margin"] == pytest.approx(margin, abs=1e-12)


def _counted_energy_verdict(monkeypatch, verdict_of=None):
    """Replace the certificate's energy report by one that records each
    partition it judges and, given verdict_of, reports that verdict."""
    parts = []
    real = gapnum.energy_condition_report

    def report(seq, part):
        parts.append(part)
        rep = real(seq, part)
        return replace(rep, verdict=verdict_of) if verdict_of else rep

    monkeypatch.setattr(gapnum, "energy_condition_report", report)
    return parts


def test_energy_checked_once_on_the_d1_witness(monkeypatch):
    parts = _counted_energy_verdict(monkeypatch)
    seq = generate("perturbed:1,0.2", (-1500, 1500), seed=1)
    cert = estimate_gap_characteristic(seq)
    d1 = density_lower(seq)
    assert len(parts) == 1
    assert parts[0].breakpoints.tolist() == d1.witness["breakpoints"]
    assert cert.c_estimate == d1.value and cert.d1.value == d1.value
    assert cert.energy_verdict == "supported" and "energy" not in cert.diagnostics


def test_failing_energy_on_the_d1_witness_is_reported(monkeypatch):
    parts = _counted_energy_verdict(monkeypatch, "unsupported")
    seq = generate("lattice:1", (-300, 300))
    cert = estimate_gap_characteristic(seq)
    # no second search: the level and partition stay d1's, and the verdict
    # found on the witness is reported
    assert len(parts) == 1
    assert cert.c_estimate == 1.0 and cert.energy_verdict == "unsupported"
    assert cert.to_json_dict()["partition_breakpoints"] == cert.d1.witness["breakpoints"]
    assert "unsupported" in cert.diagnostics["energy"]


def test_energy_verdict_not_supported_keeps_the_d1_level():
    # three isolated positive summands of order 1e-5 whose sizes rise and
    # fall with rank: the decay rule reads no decay from them
    base = generate("lattice:1", (-300, 300))
    seq = PointSequence(np.union1d(base.points, [-248.61, -157.914, 180.765]), base.window)
    cert = estimate_gap_characteristic(seq)
    part = Partition(np.array(cert.to_json_dict()["partition_breakpoints"]))
    assert cert.c_estimate == cert.d1.value == 1.0
    assert cert.energy_verdict == "inconclusive"
    sub = seq.restrict(*part.cover())
    assert cert.energy_verdict == energy_condition_report(sub, part).verdict
    assert "inconclusive" in cert.diagnostics["energy"]


def test_estimate_with_gram_crossing():
    seq = generate("lattice:1", (-1500, 1500))
    base = estimate_gap_characteristic(seq)
    cert = with_gram_crossing(base, seq, 64)
    # the crossing adds its fields and leaves the rest of the certificate
    assert replace(cert, crossing=None, diagnostics=base.diagnostics) == base
    found = cert.crossing
    # the range follows the support's unit spacing, not c
    assert found.a_max == 8.0 * math.pi and found.support == 64
    assert found.probes[0] == (found.a_max, True)
    assert cert.gram_crossing == found.crossing
    assert 0.0 < found.crossing - found.lo <= CROSSING_STEP
    assert cert.diagnostics["crossing_over_2pic"] == cert.gram_crossing / (2.0 * math.pi)
    center = 2.0 * math.pi * cert.c_estimate
    assert 0.7 * center <= cert.gram_crossing <= 1.1 * center


def test_few_points_certificate_fields_follow_c():
    # d1 reads 0 below four points, and the certificate reads its c from d1:
    # c = 0 with the note naming that rule, and the fields derived from d1
    # read as for no level at all
    seq = PointSequence([-1, 0.5, 1], (-3, 3))
    cert = estimate_gap_characteristic(seq)
    assert cert.d1.value == 0.0 and cert.d1.witness == {} and cert.c_estimate == 0.0
    assert cert.diagnostics == {"note": "too few points"}
    d = cert.to_json_dict()
    assert d["partition_breakpoints"] == [] and math.isnan(d["density_margin"])
    assert d["shortness_verdict"] == "inconclusive" and d["window"] == [-3.0, 3.0]


def test_estimate_lacunary_zero():
    seq = generate("lacunary:2", (1, 2 ** 16))
    cert = estimate_gap_characteristic(seq)
    assert cert.c_estimate <= 0.01


def test_sweep_skipped_without_a_density_level(monkeypatch):
    # c = 0 has no transition to cross-check: no Gram solve, same certificate
    solves = []
    monkeypatch.setattr(gapnum, "gram_matrix", lambda *a, **k: solves.append(a))
    monkeypatch.setattr(gapnum, "_gram_fill", lambda *a, **k: solves.append(a))
    seq = generate("lacunary:2", (-1e6, 1e6))
    cert = estimate_gap_characteristic(seq)
    assert cert.c_estimate == 0.0
    assert with_gram_crossing(cert, seq, 512) is cert
    assert solves == [] and cert.crossing is None and math.isnan(cert.gram_crossing)


def test_estimate_monotone_under_insertion():
    # random extras can only help the counting gates
    rng = np.random.default_rng(4)
    seq = generate("lattice:2", (-2000, 2000))
    base = estimate_gap_characteristic(seq).c_estimate
    extra = rng.uniform(-2000, 2000, 80)
    pts = np.unique(np.concatenate([seq.points, extra]))
    denser = PointSequence(pts, seq.window)
    again = estimate_gap_characteristic(denser).c_estimate
    assert again >= base - 1e-3 - 1e-12


def test_certificate_serializes():
    seq = generate("lattice:1", (-300, 300))
    cert = estimate_gap_characteristic(seq)
    d = cert.to_json_dict()
    assert d["g_estimate"] == pytest.approx(2 * math.pi * d["c_estimate"])
    assert isinstance(d["partition_breakpoints"], list)


# --- the real symmetric form S of the Gram matrix, G = U S U* ---

def closed_form_gram(lam, a):
    """The complex closed form (e^(ia(lj-lk)) - 1) / (i(lj-lk)), a on the
    diagonal, built entry by entry as before the real form."""
    lam = np.asarray(lam, dtype=float)
    d = lam[:, None] - lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (np.exp(1j * a * d) - 1.0) / (1j * d)
    g[d == 0] = a
    return g


def _assert_spectrum_matches_closed_form(lam, a):
    p = gram_matrix(lam, a, vectors=False)
    ref = np.linalg.eigvalsh(closed_form_gram(lam, a))
    assert np.max(np.abs(p.eigenvalues - np.maximum(ref, 0.0))) <= 1e-12 * ref[-1]
    assert p.sigma_min == pytest.approx(max(ref[0], 0.0), abs=1e-12 * ref[-1])


@given(gaps=st.lists(st.floats(0.05, 5.0), min_size=0, max_size=40),
       start=st.floats(-50.0, 50.0), a=st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_real_form_spectrum_matches_complex_random(gaps, start, a):
    lam = start + np.concatenate([[0.0], np.cumsum(gaps)])
    _assert_spectrum_matches_closed_form(lam, a)


@pytest.mark.parametrize("spec", ["lattice:1", "lattice:0.5", "perturbed:1,0.2",
                                  "poisson:1"])
def test_real_form_spectrum_matches_complex_supports(spec):
    seq = generate(spec, (-1500, 1500), seed=1)
    lam = _nearest_zero(seq.points, 128)
    for a in (0.3, 2.0, TWO_PI, 8.0):
        _assert_spectrum_matches_closed_form(lam, a)


def test_kernel_is_real_symmetric():
    # the fill writes the lower triangle; reversed frequencies put the upper
    # one there, so the two triangles are compared entry for entry
    lam = np.array([-3.0, 0.5, 1.0, 7.25])
    s = gram_entries(lam, 2.5)
    full = np.tril(s) + np.triu(gram_entries(lam[::-1], 2.5)[::-1, ::-1], 1)
    assert np.isrealobj(s)
    assert np.array_equal(full, full.T)
    assert np.all(np.diag(s) == 2.5)


def test_weights_minimize_the_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        lam = np.sort(rng.uniform(-15, 15, n)) + np.arange(n) * 1e-3
        a = rng.uniform(0.2, 6.0)
        p = gram_matrix(lam, a)
        w = p.minimizing_weights
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        quad = w.conj() @ closed_form_gram(lam, a) @ w
        assert abs(quad.imag) <= 1e-10
        assert quad.real == pytest.approx(p.sigma_min, abs=1e-10)
        pivot = int(np.argmax(np.abs(w)))
        assert abs(w[pivot].imag) <= 1e-15 and w[pivot].real > 0.0


def test_sub_noise_sweep_stays_at_rounding_level():
    # 128 Poisson points nearest 0: every sigma_min on the grid is rounding
    # noise, under N * eps * lambda_max, and not all of it is zero
    seq = generate("poisson:1", (-30000, 30000), seed=7)
    lam = _nearest_zero(seq.points, 128)
    grid = np.linspace(0.3, 1.3, 40) * TWO_PI * 0.937
    sigmas = sigma_min_sweep(lam, grid)
    top = gram_matrix(lam, grid[-1], vectors=False).eigenvalues[-1]
    assert np.all(sigmas <= lam.size * np.finfo(float).eps * top)
    assert np.max(sigmas) > 0.0


def test_clustered_support_crossing_reads_the_cluster():
    # a unit lattice with 81 points 0.01 apart around 0: the 64 points
    # nearest 0 all sit in the cluster, so the crossing reads the cluster's
    # density, about 86 times that of the lattice c is read from
    lattice = np.arange(-1500.0, 1501.0)
    pts = np.union1d(lattice[np.abs(lattice) > 1], np.arange(-40, 41) * 0.01)
    seq = PointSequence(pts, (-1500.0, 1500.0))
    cert = with_gram_crossing(estimate_gap_characteristic(seq), seq, 64)
    assert cert.c_estimate == 1.0 and cert.crossing.support == 64
    assert cert.crossing.a_max == pytest.approx(800.0 * math.pi)
    assert cert.diagnostics["crossing_over_2pic"] == pytest.approx(85.6, abs=0.05)
    assert "note" not in cert.diagnostics


def test_crossing_without_a_passing_top_says_why():
    # two points 1e-7 apart: sigma_min stays under tau on the whole range,
    # which the unit median spacing sets
    base = generate("lattice:1", (-60, 60))
    seq = PointSequence(np.union1d(base.points, [10.0 + 1e-7]), base.window)
    cert = with_gram_crossing(estimate_gap_characteristic(seq), seq, 512)
    assert cert.c_estimate == 1.0
    assert math.isnan(cert.gram_crossing)
    assert cert.crossing.probes == ((8.0 * math.pi, False),)
    assert gram_matrix(seq.points, 8.0 * math.pi).sigma_min <= cert.crossing.tau
    assert "no crossing" in cert.diagnostics["note"]


@given(gaps=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=23),
       start=st.floats(-50.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_crossing_brackets_the_eigenvalue_crossing(gaps, start):
    # the dense eigensolver agrees with the Cholesky bisection on the
    # returned bracket, up to its own rounding level N * eps * lambda_max
    lam = start + np.concatenate([[0.0], np.cumsum(gaps)])
    res = sigma_min_crossing(lam)
    margin = res.tau / gapnum.CROSSING_SAFETY
    if math.isnan(res.crossing):
        assert gram_matrix(lam, res.a_max, vectors=False).sigma_min <= res.tau + margin
        return
    assert res.crossing - res.lo <= CROSSING_STEP
    assert gram_matrix(lam, res.crossing, vectors=False).sigma_min > res.tau - margin
    if res.lo > 0.0:
        assert gram_matrix(lam, res.lo, vectors=False).sigma_min <= res.tau + margin


@pytest.mark.parametrize("spec", ["lattice:1", "perturbed:1,0.2", "poisson:1"])
@pytest.mark.parametrize("t", [0.5, 2.0, 3.0])
def test_crossing_scales_with_the_support(spec, t):
    # S(t*lam, a) = S(lam, t*a) / t and tau scales the same way, so the
    # crossing of t*lam is that of lam over t. Each search stops at a bracket
    # of CROSSING_STEP, and lam's bracket over t is CROSSING_STEP / t wide:
    # the two agree within the wider of the two
    lam = _nearest_zero(generate(spec, (-1500, 1500), seed=1).points, 96)
    base, scaled = sigma_min_crossing(lam), sigma_min_crossing(t * lam)
    assert scaled.crossing == pytest.approx(base.crossing / t,
                                            abs=CROSSING_STEP * max(1.0, 1.0 / t))


def test_crossing_working_memory_is_one_matrix_and_a_factor():
    # the work matrix and numpy's Cholesky factor, 2 MB each at order 512;
    # the copy LAPACK factors in place is numpy's own allocation, not traced
    lam = _nearest_zero(generate("lattice:1", (-1500, 1500)).points, 512)
    sigma_min_crossing(lam[:8])
    tracemalloc.start()
    try:
        sigma_min_crossing(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_gram_fill_working_memory_is_one_matrix():
    # one fill at the dense-solver cap: the 32 MB work matrix and one row
    # block, no difference matrix
    lam = np.arange(float(MAX_GRAM_SIZE))
    tracemalloc.start()
    try:
        gapnum._gram_fill(lam)(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * MAX_GRAM_SIZE**2


def test_crossing_input_validation():
    for bad in ([0.0], [0.0, 1.0, 1.0], [0.0, math.nan], np.arange(MAX_GRAM_SIZE + 1.0)):
        with pytest.raises(ParameterError):
            sigma_min_crossing(bad)


@pytest.mark.parametrize("lam,a", [
    ([0.0, 1.0], math.nan),
    ([0.0, 1.0], math.inf),
    ([0.0, 1.0], -math.inf),
    ([0.0, math.nan], 1.0),
    ([0.0, math.inf], 1.0),
    # a * (max - min frequency) overflows: the entries would be sin(inf) = NaN
    ([-10.0, 0.0, 10.0], 1e307),
    ([-1e308, 1e308], 1.0),
])
def test_gram_rejects_non_finite_input(lam, a):
    with pytest.raises(ParameterError):
        gram_matrix(lam, a)
    with pytest.raises(ParameterError):
        synthesize_gap_measure(lam, a)


@pytest.mark.parametrize("grid", [[1.0, math.inf], [math.nan, 1.0], [-math.inf, 1.0]])
def test_sweep_rejects_non_finite_grid(grid):
    with pytest.raises(ParameterError):
        sigma_min_sweep([0.0, 1.0, 2.5], grid)


def test_sweep_rejects_non_finite_frequencies():
    with pytest.raises(ParameterError):
        sigma_min_sweep([0.0, math.nan, 2.5], [1.0, 2.0])
