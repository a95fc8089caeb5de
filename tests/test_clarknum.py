import math
import warnings

import numpy as np
import pytest

from gapkit.clarknum import residue_weights, theta_derivative_profile
from gapkit.seqcore import ParameterError
from test_series_equivalence import loop_atom_sum_at

LOG_PI_HALF = math.log(math.pi / 2.0)


def lattice(radius):
    return np.arange(-radius, radius + 1, dtype=float)


def test_two_point_window():
    table = residue_weights(np.array([0.0, 1.0]))
    assert table.n_reported == table.n.size == 1
    assert table.atom_sum[0] == 0.0
    assert 2.0 * table.beta_n[0] / table.delta_n[0] == 1.0  # the amplitude exp(-0)
    assert table.beta_n[0] == pytest.approx(0.5, rel=1e-15)
    assert table.b_n[0] == 0.5 and table.delta_n[0] == 1.0


def test_lattice_atom_sum_wallis():
    # off-interval contributions at offset m telescope to
    # (1/2) log(m^2 / (m^2 - 1/4)); the full sum is log(pi/2)
    a = lattice(2000)
    table = residue_weights(a, report_width=3.5, tail_mode="persistent")
    assert table.n.size == 8
    assert table.atom_sum == pytest.approx(LOG_PI_HALF, abs=1e-6)
    assert np.all(np.abs(table.atom_sum - LOG_PI_HALF) <= table.tail_bound)
    assert table.beta_n == pytest.approx(1.0 / math.pi, abs=1e-6)


def test_lattice_betas_translation_invariant():
    betas = residue_weights(lattice(2000), report_width=20.5, tail_mode="persistent").beta_n
    assert betas.size >= 40
    assert np.max(betas) - np.min(betas) <= 1e-9


def test_amplitude_never_exceeds_one():
    # every off-interval contribution is nonnegative (AM-GM on the distances)
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(5, 80))
        gaps = rng.uniform(0.1, 2.0, n)
        a = np.concatenate([[0.0], np.cumsum(gaps)])
        a = a - a[a.size // 2]
        table = residue_weights(a)
        assert np.all(table.atom_sum >= -1e-12)
        assert np.all(2.0 * table.beta_n / table.delta_n <= 1.0 + 1e-12)  # the amplitude
        assert np.all(table.beta_n <= table.delta_n / 2.0 + 1e-12)


def test_mirror_symmetry():
    rng = np.random.default_rng(9)
    gaps = rng.uniform(0.2, 1.5, 30)
    half = np.cumsum(gaps)
    a = np.concatenate([-half[::-1], half])  # symmetric about 0
    betas = residue_weights(a).beta_n
    assert np.allclose(betas, betas[::-1], rtol=1e-12)


def test_truncation_stability():
    small = residue_weights(lattice(500), report_width=5.5, tail_mode="none")
    big = residue_weights(lattice(1000), report_width=5.5, tail_mode="none")
    assert small.n.size == big.n.size > 0
    assert np.all(np.abs(big.beta_n - small.beta_n)
                  <= small.beta_n * small.tail_bound * 1.1 + 1e-12)


def test_scaling_of_residues():
    a = lattice(300)
    s = 2.5
    base = residue_weights(a, report_width=4.0)
    scaled = residue_weights(a * s, report_width=4.0 * s)
    assert base.n.size == scaled.n.size
    # atom sums are scale-invariant, so beta scales with delta
    assert scaled.atom_sum == pytest.approx(base.atom_sum, abs=1e-12)
    assert scaled.beta_n == pytest.approx(s * base.beta_n, rel=1e-12)


def test_residue_validation():
    with pytest.raises(ParameterError):
        residue_weights(np.array([1.0]))
    with pytest.raises(ParameterError):
        residue_weights(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ParameterError):
        residue_weights(np.array([0.0, 1.0]), tail_mode="bogus")


def test_profile_single_gap_exact():
    a = np.array([0.0, 1.0])
    xs = np.array([2.0, 3.5, -1.0])
    prof = theta_derivative_profile(a, xs)
    beta0 = 0.5
    expected = beta0 / (xs - 0.5) ** 2
    assert np.allclose(prof.estimate, expected, rtol=1e-12)


def test_profile_constancy_at_midpoints():
    # at the lattice's breakpoints the profile is the sum over k of
    # (1/pi) / (k + 1/2)^2 = pi, the same at every breakpoint
    a = lattice(800)
    prof = theta_derivative_profile(a, np.arange(-3.0, 4.0))
    assert np.max(prof.estimate) - np.min(prof.estimate) <= 1e-8
    assert np.all(np.abs(prof.estimate - math.pi) <= 1e-3)


def test_profile_scaling():
    a = lattice(400)
    xs = np.arange(-2.0, 3.0)
    base = theta_derivative_profile(a, xs)
    s = 3.0
    scaled = theta_derivative_profile(a * s, xs * s)
    assert np.allclose(scaled.estimate, base.estimate / s, rtol=1e-12)


def test_profile_nudges_exact_midpoint():
    a = np.array([0.0, 1.0, 2.0])
    prof = theta_derivative_profile(a, [0.5])
    assert np.isfinite(prof.estimate[0])
    assert prof.estimate[0] > 1e15  # dominated by the nudged singular term


def test_profile_nudge_stays_finite_at_large_x():
    # 1e8 + 10.5 + 1e-9 rounds back to 1e8 + 10.5: there the nudge is one ulp,
    # and at 10.5 it is still the 1e-9 step
    for shift, x in ((0.0, 10.5 + 1e-9), (1e8, np.nextafter(1e8 + 10.5, np.inf))):
        a = shift + np.arange(50.0)
        table = residue_weights(a)
        b, betas = table.b_n, table.beta_n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = theta_derivative_profile(a, [shift + 10.5])
        assert prof.x[0] == x
        assert prof.estimate[0] == float(np.sum(betas / ((x - b) * (x - b))))
        assert 0.0 < prof.estimate[0] < np.inf


def test_band_narrow_for_perturbed_lattices():
    rng = np.random.default_rng(31)
    r1_all, r2_all = [], []
    for _ in range(10):
        base = lattice(400)
        jitter = rng.uniform(-0.45, 0.45, base.size)
        a = base + jitter
        table = residue_weights(a, report_width=30.0)
        r1_all.extend((table.beta_n / table.delta_n).tolist())
        r2_all.extend((table.beta_n / table.delta_n ** 2).tolist())
        assert np.all(table.beta_n / table.delta_n <= 1.0 + 1e-12)
    assert max(r1_all) / min(r1_all) <= 100.0
    assert max(r2_all) / min(r2_all) <= 100.0


def test_atom_sum_matches_records():
    a = lattice(50)
    table = residue_weights(a, report_width=2.0, tail_mode="none")
    assert table.n.size == 4
    for n, atom_sum in table.rows("n", "atom_sum"):
        assert atom_sum == loop_atom_sum_at(a, n)
