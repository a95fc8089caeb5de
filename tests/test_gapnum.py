import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapkit.gapnum as gapnum
from gapkit.density import density_lower, verify_partition_witness
from gapkit.energy import energy_condition_report
from gapkit.gapnum import (MAX_GRAM_SIZE, _nearest_zero, estimate_gap_characteristic,
                           gram_matrix, knee_location, sigma_min_sweep,
                           synthesize_gap_measure, with_gram_sweep)
from gapkit.seqcore import ParameterError, Partition, PointSequence, fourier_eval, generate

TWO_PI = 2.0 * math.pi


def test_gram_single_atom():
    p = gram_matrix([4.2], 3.0)
    assert p.gram.shape == (1, 1)
    assert p.gram[0, 0] == pytest.approx(3.0)
    assert p.sigma_min == pytest.approx(3.0)


def test_gram_full_period_orthogonality():
    p = gram_matrix([0.0, 1.0], TWO_PI)
    assert abs(p.gram[0, 1]) <= 1e-12
    assert p.sigma_min == pytest.approx(TWO_PI, abs=1e-12)
    q = gram_matrix(np.arange(64.0), TWO_PI)
    off = q.gram - TWO_PI * np.eye(64)
    assert np.max(np.abs(off)) <= 1e-12


def test_gram_two_by_two_closed_form():
    p = gram_matrix([0.0, 1.0], math.pi)
    assert p.gram[0, 1] == pytest.approx(-2j, abs=1e-12)
    assert p.sigma_min == pytest.approx(math.pi - 2.0, abs=1e-12)
    w = np.linalg.eigvalsh(p.gram)
    assert w == pytest.approx([math.pi - 2, math.pi + 2], abs=1e-12)


def test_gram_psd_and_quadratic_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        lam = np.sort(rng.uniform(-10, 10, n)) + np.arange(n) * 1e-7
        a = rng.uniform(0.2, 6.0)
        p = gram_matrix(lam, a)
        assert np.max(np.abs(p.gram - p.gram.conj().T)) <= 1e-13
        assert p.sigma_min >= 0.0
        quad = float(np.real(p.minimizing_weights.conj() @ p.gram @ p.minimizing_weights))
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


def test_sweep_monotone_and_knee():
    lam = np.arange(64.0)
    grid = np.linspace(0.2 * TWO_PI, 1.15 * TWO_PI, 50)
    sw = sigma_min_sweep(lam, grid)
    assert np.min(np.diff(sw.sigma_values)) >= -1e-10
    assert 0.85 * TWO_PI <= sw.knee <= 1.05 * TWO_PI


def test_sweep_matches_gram_sigma_min():
    # the sweep solves for eigenvalues only; gram_matrix also for the vectors
    rng = np.random.default_rng(5)
    lam_random = np.sort(rng.uniform(-20.0, 20.0, 48)) + np.arange(48) * 1e-7
    for lam in (np.arange(64.0), lam_random):
        grid = np.linspace(0.3, 1.3 * TWO_PI, 15)
        sw = sigma_min_sweep(lam, grid)
        expected = [gram_matrix(lam, a).sigma_min for a in grid]
        assert np.max(np.abs(sw.sigma_values - expected)) <= 1e-12


def test_sweep_input_validation():
    grid = np.linspace(1.0, 2.0, 3)
    with pytest.raises(ParameterError):
        sigma_min_sweep([0.0, 1.0, 1.0], grid)
    with pytest.raises(ParameterError):
        sigma_min_sweep(np.arange(MAX_GRAM_SIZE + 1.0), grid)
    for bad in ([0.0, 1.0], [-2.0, -1.0]):
        with pytest.raises(ParameterError):
            sigma_min_sweep(np.arange(4.0), bad)


def test_knee_locator_on_synthetic_curve():
    a = np.linspace(0.0, 10.0, 101)
    sigma = np.where(a < 6.0, 1e-16, np.minimum(np.exp(a - 6.0) * 1e-12, 1.0))
    knee = knee_location(a, sigma)
    assert 5.5 <= knee <= 7.5


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


def test_estimate_lattice():
    seq = generate("lattice:1", (-1500, 1500))
    cert = estimate_gap_characteristic(seq)
    assert 0.9 <= cert.c_estimate <= 1.0
    assert cert.g_estimate == 2.0 * math.pi * cert.c_estimate
    assert cert.energy_verdict == "supported"
    assert cert.shortness_verdict == "short"


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
    bks = np.array(cert.partition_breakpoints)
    assert verify_partition_witness(seq, cert.c_estimate, Partition(bks),
                                    monotone_required=True)
    # the margin recounted with the outward closure: (u, v] right of 0,
    # [u, v) left of it
    pts, sides = seq.points, np.where(bks[:-1] >= 0, "right", "left")
    counts = np.array([pts.searchsorted(v, side) - pts.searchsorted(u, side)
                       for u, v, side in zip(bks[:-1], bks[1:], sides)])
    margin = np.min(counts - cert.c_estimate * np.diff(bks))
    assert cert.density_margin == pytest.approx(margin, abs=1e-12)


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
    d1 = density_lower(seq, "d1")
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
    assert list(cert.partition_breakpoints) == cert.d1.witness["breakpoints"]
    assert "unsupported" in cert.diagnostics["energy"]


def test_energy_verdict_not_supported_keeps_the_d1_level():
    # three isolated positive summands of order 1e-5 whose sizes rise and
    # fall with rank: the decay rule reads no decay from them
    base = generate("lattice:1", (-300, 300))
    seq = PointSequence(np.union1d(base.points, [-248.61, -157.914, 180.765]), base.window)
    cert = estimate_gap_characteristic(seq)
    part = Partition(np.array(cert.partition_breakpoints))
    assert cert.c_estimate == cert.d1.value == 1.0
    assert cert.energy_verdict == "inconclusive"
    sub = seq.restrict(*part.cover())
    assert cert.energy_verdict == energy_condition_report(sub, part).verdict
    assert "inconclusive" in cert.diagnostics["energy"]


def test_estimate_with_sweep_knee():
    seq = generate("lattice:1", (-1500, 1500))
    base = estimate_gap_characteristic(seq)
    cert = with_gram_sweep(base, seq, 64)
    # the sweep adds its fields and leaves the rest of the certificate
    assert replace(cert, sweep=None, gram_knee=base.gram_knee,
                   diagnostics=base.diagnostics) == base
    assert cert.sweep.a_values.size == gapnum.SWEEP_POINTS
    assert cert.diagnostics["knee_over_2pic"] == cert.gram_knee / (2.0 * math.pi)
    center = 2.0 * math.pi * cert.c_estimate
    lo, hi = gapnum.SWEEP_RANGE
    assert cert.sweep.a_values[[0, -1]].tolist() == [lo * center, hi * center]
    assert 0.7 * center <= cert.gram_knee <= 1.1 * center


def test_estimate_lacunary_zero():
    seq = generate("lacunary:2", (1, 2 ** 16))
    cert = estimate_gap_characteristic(seq)
    assert cert.c_estimate <= 0.01


def test_sweep_skipped_without_a_density_level(monkeypatch):
    # c = 0 has no transition to cross-check: no Gram solve, same certificate
    solves = []
    monkeypatch.setattr(gapnum, "gram_matrix", lambda *a, **k: solves.append(a))
    seq = generate("lacunary:2", (-1e6, 1e6))
    cert = estimate_gap_characteristic(seq)
    assert cert.c_estimate == 0.0
    assert with_gram_sweep(cert, seq, 512) is cert
    assert solves == [] and cert.sweep is None and math.isnan(cert.gram_knee)


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


def test_gram_property_is_the_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        lam = np.sort(rng.uniform(-20, 20, n)) + np.arange(n) * 1e-3
        a = rng.uniform(0.2, 6.0)
        p = gram_matrix(lam, a)
        assert np.max(np.abs(p.gram - closed_form_gram(lam, a))) <= 1e-13
    q = gram_matrix(np.arange(64.0), TWO_PI)
    assert np.max(np.abs(q.gram - closed_form_gram(np.arange(64.0), TWO_PI))) <= 1e-13


def test_kernel_is_real_symmetric():
    lam = np.array([-3.0, 0.5, 1.0, 7.25])
    for vectors in (True, False):
        p = gram_matrix(lam, 2.5, vectors=vectors)
        assert np.isrealobj(p.kernel)
        assert np.array_equal(p.kernel, p.kernel.T)
        assert np.all(np.diag(p.kernel) == 2.5)


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


def test_knee_of_an_all_zero_curve_is_nan():
    assert math.isnan(knee_location([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]))


def test_sub_noise_sweep_has_no_knee():
    # 128 Poisson points nearest 0: every sigma_min on the grid is rounding
    # noise, some of it above the log floor, where an argmax picked a knee
    seq = generate("poisson:1", (-30000, 30000), seed=7)
    lam = _nearest_zero(seq.points, 128)
    grid = np.linspace(0.3, 1.3, 40) * TWO_PI * 0.937
    sw = sigma_min_sweep(lam, grid)
    top = gram_matrix(lam, grid[-1], vectors=False).eigenvalues[-1]
    assert np.all(sw.sigma_values <= lam.size * np.finfo(float).eps * top)
    assert np.max(sw.sigma_values) > 0.0
    assert math.isnan(sw.knee)


def test_certificate_without_knee_says_why():
    # a unit lattice with 81 points 0.01 apart around 0: the 64 points
    # nearest 0 all sit in the cluster, so on the grid around 2*pi*c every
    # sigma_min is rounding noise
    lattice = np.arange(-1500.0, 1501.0)
    pts = np.union1d(lattice[np.abs(lattice) > 1], np.arange(-40, 41) * 0.01)
    seq = PointSequence(pts, (-1500.0, 1500.0))
    cert = with_gram_sweep(estimate_gap_characteristic(seq), seq, 64)
    assert cert.c_estimate > 0 and cert.sweep is not None
    assert math.isnan(cert.gram_knee)
    assert "rounding" in cert.diagnostics["note"]


def test_lattice_knee_sits_above_the_noise_floor():
    lam = np.arange(256.0)
    grid = np.linspace(0.3, 1.3, 40) * TWO_PI
    sw = sigma_min_sweep(lam, grid)
    assert sw.knee == knee_location(grid, sw.sigma_values)


@pytest.mark.parametrize("lam,a", [
    ([0.0, 1.0], math.nan),
    ([0.0, 1.0], math.inf),
    ([0.0, 1.0], -math.inf),
    ([0.0, math.nan], 1.0),
    ([0.0, math.inf], 1.0),
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
