import numpy as np
import pytest

from gapkit.seqcore import (AtomicMeasure, Interval, ParameterError, Partition,
                            PointSequence, _owned, fourier_eval, generate, load_points,
                            save_points)


def test_lattice_example():
    seq = generate("lattice:1", (0, 3))
    assert seq.points.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_lacunary_example():
    seq = generate("lacunary:2", (1, 20))
    assert seq.points.tolist() == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_perturbed_min_spacing():
    # jitter bound forces spacing >= h - 2*jitter
    seq = generate("perturbed:1,0.3", (0, 1000), seed=7)
    assert len(seq) > 900
    assert np.min(np.diff(seq.points)) >= 0.4


def test_generate_reproducible():
    a = generate("poisson:2", (0, 500), seed=123)
    b = generate("poisson:2", (0, 500), seed=123)
    assert np.array_equal(a.points, b.points)
    c = generate("perturbed:1,0.2", (0, 500), seed=5)
    d = generate("perturbed:1,0.2", (0, 500), seed=5)
    assert np.array_equal(c.points, d.points)


@pytest.mark.parametrize("spec", ["lattice:0", "lattice:-2", "lacunary:1",
                                  "lacunary:0.5", "perturbed:1,0.5",
                                  "perturbed:1,0.7", "poisson:0"])
def test_bad_generator_parameters(spec):
    with pytest.raises(ParameterError):
        generate(spec, (0, 10), seed=1)


@pytest.mark.parametrize("spec,needle", [
    ("lattice:abc", "takes 1 numeric parameter"),
    ("lattice:1,2", "takes 1 numeric parameter"),
    ("perturbed:1", "takes 2 numeric parameters"),
])
def test_malformed_spec_is_parameter_error(spec, needle):
    with pytest.raises(ParameterError, match=needle):
        generate(spec, (0, 10), seed=1)


def test_window_containment():
    for spec, seed in (("lattice:0.7", None), ("perturbed:2,0.9", 3),
                       ("poisson:1.5", 9), ("lacunary:3", None)):
        seq = generate(spec, (-50, 80), seed=seed)
        lo, hi = seq.window
        assert np.all(seq.points >= lo) and np.all(seq.points <= hi)
        assert np.all(np.diff(seq.points) > 0)


def test_fourier_single_atom():
    mu = AtomicMeasure(np.array([0.0]))
    assert fourier_eval(mu, [5.0])[0] == pytest.approx(1.0 + 0.0j)


def test_fourier_cancellation_and_closed_form():
    mu = AtomicMeasure(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
    vals = fourier_eval(mu, [0.0, np.pi])
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert vals[1] == pytest.approx(2.0, abs=1e-12)


def test_fourier_linearity():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(1, 8)
        pos = np.sort(rng.uniform(-10, 10, n))
        pos += np.arange(n) * 1e-6  # enforce distinctness
        w1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        w2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        a, b = rng.normal(), rng.normal()
        t = rng.uniform(-5, 5, 7)
        lhs = fourier_eval(AtomicMeasure(pos, a * w1 + b * w2), t)
        rhs = a * fourier_eval(AtomicMeasure(pos, w1), t) \
            + b * fourier_eval(AtomicMeasure(pos, w2), t)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_fourier_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 10)
        pos = np.sort(rng.uniform(-5, 5, n)) + np.arange(n) * 1e-5
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        mu = AtomicMeasure(pos, w)
        t = rng.uniform(-20, 20, 11)
        assert np.all(np.abs(fourier_eval(mu, t)) <= np.sum(np.abs(w)) + 1e-12)


def test_fourier_phase_limit():
    mu = AtomicMeasure(np.array([1e6]))
    with pytest.raises(ParameterError):
        fourier_eval(mu, [1e6])


def test_point_sequence_invariants():
    with pytest.raises(ParameterError):
        PointSequence(np.array([1.0, 1.0]), (0, 2))
    with pytest.raises(ParameterError):
        PointSequence(np.array([2.0, 1.0]), (0, 3))
    with pytest.raises(ParameterError):
        PointSequence(np.array([5.0]), (0, 3))


def test_restrict_scale_translate():
    seq = generate("lattice:1", (-10, 10))
    sub = seq.restrict(-3, 4)
    assert sub.points.tolist() == [-3, -2, -1, 0, 1, 2, 3, 4]
    assert sub.window == (-3, 4)
    assert np.array_equal(seq.scale(2.0).points, seq.points * 2)
    assert np.array_equal(seq.translate(1.5).points, seq.points + 1.5)


def test_interval_and_partition():
    iv = Interval(1.0, 3.0)
    assert iv.length == 2.0 and iv.dist0 == 1.0
    assert Interval(-2.0, 5.0).dist0 == 0.0
    with pytest.raises(ParameterError):
        Interval(2.0, 2.0)
    with pytest.raises(ParameterError):
        Partition(np.array([1.0, 2.0]))  # no zero breakpoint
    part = Partition(np.array([-4.0, -1.0, 0.0, 2.0, 6.0]))
    idx = [n for n, _ in part.intervals()]
    assert idx == [-2, -1, 0, 1]
    refl = part.reflect()
    assert refl.breakpoints.tolist() == [-6.0, -2.0, 0.0, 1.0, 4.0]


def test_sequence_file_roundtrip(tmp_path):
    path = tmp_path / "seq.txt"
    pts = np.array([-1.5, 0.25, 3.0])
    save_points(path, pts)
    loaded = load_points(path)
    assert np.array_equal(loaded, pts)
    bad = tmp_path / "bad.txt"
    bad.write_text("2.0\n1.0\n")
    with pytest.raises(ParameterError):
        load_points(bad)


def test_explicit_generate(tmp_path):
    path = tmp_path / "pts.txt"
    save_points(path, [0.5, 1.5, 9.0])
    seq = generate(f"file:{path}", (0, 5))
    assert seq.points.tolist() == [0.5, 1.5]


@pytest.mark.parametrize("points", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0]])
def test_non_finite_points_rejected(points, tmp_path):
    with pytest.raises(ParameterError, match="finite"):
        PointSequence(np.array(points), (-10.0, 10.0))
    path = tmp_path / "pts.txt"
    path.write_text("".join(f"{x}\n" for x in points))
    with pytest.raises(ParameterError, match="finite"):
        load_points(path)


@pytest.mark.parametrize("window", [(-np.inf, 20.0), (0.0, np.inf), (np.nan, 1.0)])
def test_non_finite_window_rejected(window):
    with pytest.raises(ParameterError, match="finite"):
        generate("lattice:1", window)
    with pytest.raises(ParameterError, match="finite"):
        PointSequence(np.array([0.0, 1.0]), window)


def test_load_points_rejects_text(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# header\n1.0\nabc\n")
    with pytest.raises(ParameterError, match=r"bad.txt:3"):
        load_points(path)


@pytest.mark.parametrize("spec", ["lattice:1e-12", "perturbed:1e-12,0", "poisson:1e12",
                                  "lacunary:1.0000000001"])
def test_generate_caps_point_count(spec):
    # each would run for about 1e12 points or walk steps before the cap
    with pytest.raises(ParameterError, match="limit"):
        generate(spec, (0.0, 1.0), seed=1)


def test_generate_below_cap_unchanged():
    assert len(generate("lattice:1e-6", (0.0, 1.0))) == 1_000_001
    assert len(generate("lacunary:2", (-1e6, 1e6))) == 1016


# (include_left, include_right) -> the points of [0, 1, 2, 3, 4] owned by the
# interval from 1 to 3, whose ends are both points
CLOSURES = {
    (False, True): [2.0, 3.0],        # (u, v]
    (True, True): [1.0, 2.0, 3.0],    # [u, v]
    (True, False): [1.0, 2.0],        # [u, v)
    (False, False): [2.0],            # (u, v)
}


@pytest.mark.parametrize("closure", list(CLOSURES))
def test_owned_closures_on_endpoints(closure):
    pts = np.arange(5.0)
    first, last = _owned(pts, 1.0, 3.0, *closure)
    assert pts[first:last].tolist() == CLOSURES[closure]
    # arrays of ends give the scalar answer at every position
    u, v = np.array([1.0, 0.0, 1.0]), np.array([3.0, 4.0, 1.0])
    firsts, lasts = _owned(pts, u, v, *closure)
    for i in range(u.size):
        assert (firsts[i], lasts[i]) == _owned(pts, u[i], v[i], *closure)
    assert (firsts[0], lasts[0]) == (first, last)


def test_point_sequence_closures():
    seq = PointSequence(np.arange(5.0), (0.0, 4.0))
    assert seq.count_in(1.0, 3.0) == 2
    assert seq.count_in(1.0, 3.0, include_left=True) == 3
    assert seq.slice_in(1.0, 3.0).tolist() == CLOSURES[False, True]
    assert seq.slice_in(1.0, 3.0, include_left=True).tolist() == CLOSURES[True, True]
    assert seq.restrict(1.0, 3.0).points.tolist() == CLOSURES[True, True]


def test_generate_file_keeps_points_on_window_ends(tmp_path):
    path = tmp_path / "pts.txt"
    save_points(path, np.arange(5.0))
    assert generate(f"file:{path}", (1.0, 3.0)).points.tolist() == CLOSURES[True, True]
