import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

import gapkit.fekete as fekete
from gapkit.fekete import MAX_FEKETE_POINTS, fekete_optimize, jacobi_zeros
from gapkit.seqcore import ParameterError
from paper_lemmas import key_example_check


def test_jacobi_degree_one():
    assert jacobi_zeros(1, 1.0, 1.0) == pytest.approx([0.0], abs=1e-14)


def test_legendre_two():
    z = jacobi_zeros(2, 0.0, 0.0)
    assert z == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-14)


def test_jacobi_three_11():
    z = jacobi_zeros(3, 1.0, 1.0)
    r = math.sqrt(3.0 / 7.0)
    assert z == pytest.approx([-r, 0.0, r], abs=1e-13)


def test_jacobi_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        alpha = rng.uniform(-0.9, 3.0)
        beta = rng.uniform(-0.9, 3.0)
        ours = jacobi_zeros(n, alpha, beta)
        ref = roots_jacobi(n, alpha, beta)[0]
        assert np.allclose(ours, np.sort(ref), atol=1e-10)
        assert np.all(ours > -1) and np.all(ours < 1)
        assert np.all(np.diff(ours) > 0)


def test_jacobi_parameter_domain():
    with pytest.raises(ParameterError):
        jacobi_zeros(3, -1.0, 0.0)
    with pytest.raises(ParameterError):
        jacobi_zeros(0, 1.0, 1.0)
    for alpha, beta in ((1.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(ParameterError):
            jacobi_zeros(3, alpha, beta)


def test_fekete_two_points():
    r = fekete_optimize(2, (0.0, 1.0))
    assert r.points.tolist() == [0.0, 1.0]
    assert r.energy == 0.0 and r.converged


def test_fekete_three_symmetric():
    # grid-search oracle at resolution 1e-4 puts the middle point at 0
    r = fekete_optimize(3, (-1.0, 1.0))
    assert r.points == pytest.approx([-1.0, 0.0, 1.0], abs=1e-6)


def test_fekete_five_jacobi_prediction():
    r = fekete_optimize(5, (-1.0, 1.0))
    root = math.sqrt(3.0 / 7.0)
    assert r.points == pytest.approx([-1.0, -root, 0.0, root, 1.0], abs=1e-6)
    assert r.residual <= 1e-8
    assert r.max_deviation <= 1e-6


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_fekete_matches_jacobi(k):
    r = fekete_optimize(k, (-1.0, 1.0))
    assert r.converged and r.residual <= 1e-8
    assert r.max_deviation <= 1e-6


def test_endpoints_always_active():
    for k in (3, 6, 9):
        r = fekete_optimize(k, (2.0, 7.0))
        assert abs(r.points[0] - 2.0) <= 1e-8
        assert abs(r.points[-1] - 7.0) <= 1e-8


def test_symmetry_of_maximizer():
    r = fekete_optimize(7, (-3.0, 3.0))
    assert np.max(np.abs(r.points + r.points[::-1])) <= 1e-6


def test_affine_covariance():
    rb = fekete_optimize(6, (-1.0, 1.0))
    ra = fekete_optimize(6, (2.0, 5.0))
    mapped = 2.0 + (rb.points + 1.0) * 1.5
    assert np.max(np.abs(ra.points - mapped)) <= 1e-6


@pytest.mark.parametrize("k", [5, 9, 12])
def test_oracle_dominance(k):
    r = fekete_optimize(k, (-1.0, 1.0))

    def energy(x):
        d = np.abs(x[:, None] - x[None, :])
        iu = np.triu_indices(k, 1)
        return 2.0 * float(np.sum(np.log(d[iu])))

    assert r.energy >= energy(np.linspace(-1, 1, k)) - 1e-9
    rng = np.random.default_rng(k)
    for _ in range(100):
        x = np.sort(rng.uniform(-1, 1, k))
        if np.min(np.diff(x)) <= 0:
            continue
        assert r.energy >= energy(x) - 1e-9


def test_fekete_long_interval():
    # 1e-12 relative to the interval length
    r = fekete_optimize(5, (0.0, 1e4))
    assert r.converged
    assert r.max_deviation <= 1e-12 * 1e4


@pytest.mark.parametrize("k", range(3, 41))
def test_fekete_reaches_jacobi_zeros(k):
    r = fekete_optimize(k, (-1.0, 1.0))
    z = np.sort(roots_jacobi(k - 2, 1.0, 1.0)[0])
    assert np.max(np.abs(r.points[1:-1] - z)) <= 1e-13
    assert r.points[0] == -1.0 and r.points[-1] == 1.0
    assert r.converged and 1 <= r.n_iterations <= 50


@pytest.mark.parametrize("k", [500, 1000])
def test_fekete_converged_at_large_k(k):
    # the gradient's rounding error grows with k: 1.6e-7 at k = 500
    r = fekete_optimize(k, (0.0, 1.0))
    assert r.converged and r.max_deviation <= 1e-14


def test_fekete_not_converged_after_one_step(monkeypatch):
    monkeypatch.setattr(fekete, "MAX_NEWTON_STEPS", 1)
    assert not fekete_optimize(50, (0.0, 1.0)).converged


@pytest.mark.parametrize("interval,needle", [
    ((0.0, math.inf), "must have finite ends"),
    ((-1e308, 1e308), "wider than float64 holds"),
    ((1.0, 0.0), "is empty"),
    ((1.0, 1.0), "is empty"),
])
def test_fekete_interval_passes_the_window_rule(interval, needle):
    with pytest.raises(ParameterError, match=needle):
        fekete_optimize(8, interval)


def test_fekete_caps_point_count():
    # k x k arrays: k = 100000 would ask for 75 GiB before the first step
    for k in (MAX_FEKETE_POINTS + 1, 100000):
        with pytest.raises(ParameterError, match="at most"):
            fekete_optimize(k, (0.0, 1.0))


def test_key_example_two_points():
    energy, defect = key_example_check(2, math.e)
    assert energy == pytest.approx(2.0, rel=1e-14)
    assert defect == pytest.approx(0.5, rel=1e-12)


def test_key_example_unit_spacing_defect():
    _, d1000 = key_example_check(1000, 1000.0)
    assert 1.3 <= d1000 <= 1.7
    _, d10000 = key_example_check(10000, 10000.0)
    assert abs(d10000 - d1000) <= 0.02


def test_key_example_matches_direct_energy():
    from gapkit.energy import total_energy
    k, L = 40, 90.0
    energy, _ = key_example_check(k, L)
    pts = np.linspace(0.0, L, k)
    assert energy == pytest.approx(total_energy(pts), rel=1e-11)


def test_key_example_domain():
    with pytest.raises(ParameterError):
        key_example_check(1, 10.0)
    with pytest.raises(ParameterError):
        key_example_check(5, 0.5)
