import io
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapkit.density as density
from gapkit.clarknum import residue_weights, theta_derivative_profile
from gapkit.cli import load_config
from gapkit.density import (d3_residual_curve, density_lower, long_family_search,
                            verify_family_witness, verify_partition_witness)
from gapkit.energy import total_energy
from gapkit.gapnum import gram_matrix
from gapkit.partitions import greedy_density_partition
from gapkit.seqcore import (AtomicMeasure, ParameterError, Partition, PointSequence,
                            _dist0, _median, _owned, _parse_lines, _percentile,
                            _requested_window, _write_points, fourier_eval, generate,
                            load_points, save_points)


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
    assert _requested_window((1, 3)) == (1.0, 3.0)
    with pytest.raises(ParameterError):
        _requested_window((2.0, 2.0))
    with pytest.raises(ParameterError):
        Partition(np.array([1.0, 2.0]))  # no zero breakpoint
    part = Partition(np.array([-4.0, -1.0, 0.0, 2.0, 6.0]))
    idx = [i - part.zero_index for i in range(len(part.breakpoints) - 1)]
    assert idx == [-2, -1, 0, 1]
    refl = part.reflect()
    assert refl.breakpoints.tolist() == [-6.0, -2.0, 0.0, 1.0, 4.0]


@pytest.mark.parametrize("u,v,expected", [
    (1.0, 3.0, 1.0),
    (-3.0, -1.0, 1.0),
    (-2.0, 5.0, 0.0),  # straddles 0, nearer the left end
    (-5.0, 2.0, 0.0),  # straddles 0, nearer the right end
    (0.0, 3.0, 0.0),
    (-0.0, 3.0, 0.0),
    (-3.0, 0.0, 0.0),
    (-3.0, -0.0, 0.0),
])
def test_dist0(u, v, expected):
    d = _dist0(np.array([u]), np.array([v]))
    # +0.0, never -0.0, where the closure holds 0: the JSON and CSV print it
    assert d.tolist() == [expected] and math.copysign(1.0, d[0]) == 1.0


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


def test_generate_without_window(tmp_path):
    path = tmp_path / "pts.txt"
    save_points(path, [0.5, 1.5, 9.0])
    seq = generate(str(path))
    assert seq.points.tolist() == [0.5, 1.5, 9.0] and seq.window == (0.5, 9.0)
    with pytest.raises(ParameterError, match="law 'lattice:1' needs a window"):
        generate("lattice:1", seed=1)


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


def test_window_wider_than_float64_rejected():
    # both ends are finite, but hi - lo is inf
    for call in (lambda w: generate("lattice:1e307", w),
                 lambda w: PointSequence(np.array([0.0, 1.0]), w)):
        with pytest.raises(ParameterError, match="wider than float64"):
            call((-1.7e308, 1.7e308))


def test_load_points_rejects_text(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# header\n1.0\nabc\n")
    with pytest.raises(ParameterError, match=r"bad.txt:3"):
        load_points(path)


# file content -> whether every line is a number, so the streaming parse
# reads the whole file without falling back to the line loop
LOADER_FILES = {
    "comment": ("# header\n-2.0e1\n1.5\n", False),
    "late comment": ("-2.0e1\n1.5\n# footer\n", False),
    "blank line": ("1.5\n\n2.5\n", True),
    "trailing blank lines": ("1.5\n2.5\n\n \t\n", True),
    "crlf": ("1.5\r\n2.5\r\n", True),
    "trailing spaces": ("1.5  \n2.5\t \n", True),
    "no final newline": ("1.5\n2.5", True),
    "underscore": ("1_0\n2_000.5\n", True),
}


@pytest.mark.parametrize("name", list(LOADER_FILES))
def test_load_points_parse_paths_agree(name, tmp_path):
    text, streams = LOADER_FILES[name]
    path = tmp_path / "seq.txt"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as fh:
        slow = np.array(_parse_lines(fh, path), dtype=float)
    with open(path, encoding="utf-8") as fh:
        try:
            fast = np.fromiter(map(float, filter(str.strip, fh)), float)
        except ValueError:
            fast = None
    assert (fast is not None) == streams
    if streams:
        assert fast.tobytes() == slow.tobytes()
    loaded = load_points(path)
    assert loaded.tobytes() == slow.tobytes() and not loaded.flags.writeable


LOADER_ERRORS = [
    ("1.0\n2.0\nabc\n", r"seq.txt:3: not a number: 'abc'"),
    ("1.0\n# note\n\n2.0 3.0\n", r"seq.txt:4: not a number: '2.0 3.0'"),
    ("1.0\nnan\n", r"seq.txt: points must be finite"),
    ("-inf\n1.0\n", r"seq.txt: points must be finite"),
    ("# c\ninf\n", r"seq.txt: points must be finite"),
]


@pytest.mark.parametrize("text,needle", LOADER_ERRORS)
def test_load_points_errors_on_either_parse_path(text, needle, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(text)
    with pytest.raises(ParameterError, match=needle):
        load_points(path)


def _load_through_fifo(text, tmp_path, load=load_points):
    """load (load_points by default) on a FIFO named seq.txt that a thread
    fills with text, str or bytes: a source that cannot seek, as
    `--seq <(...)` or /dev/stdin gives."""
    path = tmp_path / "seq.txt"
    os.mkfifo(path)
    data = text if isinstance(text, bytes) else text.encode()

    def write():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return load(path)
    finally:
        writer.join(timeout=10)


@pytest.mark.parametrize("name", list(LOADER_FILES))
def test_load_points_from_a_pipe(name, tmp_path):
    text = LOADER_FILES[name][0]
    regular = tmp_path / "regular.txt"
    regular.write_bytes(text.encode())
    loaded = _load_through_fifo(text, tmp_path)
    assert loaded.tobytes() == load_points(regular).tobytes()


@pytest.mark.parametrize("text,needle", LOADER_ERRORS)
def test_load_points_errors_from_a_pipe(text, needle, tmp_path):
    with pytest.raises(ParameterError, match=needle):
        _load_through_fifo(text, tmp_path)


@pytest.mark.parametrize("fifo", [False, True], ids=["file", "fifo"])
@pytest.mark.parametrize("load,what", [(load_points, "sequence file"),
                                       (load_config, "config")],
                         ids=["load_points", "load_config"])
def test_non_utf8_text_names_the_file(tmp_path, load, what, fifo):
    # the bad byte past the first read chunk, after lines the fast parse takes
    text = b"1.0\n" * 5000 + b"\xff\n"
    with pytest.raises(ParameterError, match=f"cannot read {what} .*seq.txt.*: not UTF-8"):
        if fifo:
            _load_through_fifo(text, tmp_path, load)
        else:
            (tmp_path / "seq.txt").write_bytes(text)
            load(str(tmp_path / "seq.txt"))


TIED = st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
                min_size=1, max_size=600)


@settings(max_examples=300, deadline=None)
@given(TIED)
def test_order_statistics_match_numpy(values):
    x = np.array(values)
    assert _percentile(x, 10) == float(np.percentile(x, 10))
    assert _percentile(x, 10).hex() == float(np.percentile(x, 10)).hex()
    assert _median(x).hex() == float(np.median(x)).hex()
    assert x.tobytes() == np.array(values).tobytes()  # the input is left as it was


def test_order_statistics_match_numpy_at_every_size():
    for n in range(1, 601):
        # rounded to a tenth on [0, 5): most values tie with others
        x = np.round(np.random.default_rng(n).uniform(0.0, 5.0, n), 1)
        for p in (10, 50, 90):
            assert _percentile(x, p).hex() == float(np.percentile(x, p)).hex(), (n, p)
        assert _median(x).hex() == float(np.median(x)).hex(), n


def assert_events_match_numpy(matched, windows):
    """Each window's d3 events from one event table (its ends and the table
    points strictly inside it) equal np.unique of the events the per-window
    residual sorted: its ends, the matched points inside and 0 when inside.
    Compared with ==: which of two equal zeros np.unique keeps is up to its
    sort, and a zero's sign never reaches a residual (it enters through
    arctan and log1p(x^2), inside an absolute value)."""
    x, n = density._event_table(matched)
    # n: the matched points at or below each table point, less those at or below 0
    at_zero = np.count_nonzero(matched <= 0.0)
    assert n.tolist() == [np.count_nonzero(matched <= t) - at_zero for t in x.tolist()]
    for lo, hi in windows:
        if not lo < hi:
            continue
        events = np.concatenate([[lo], x[(x > lo) & (x < hi)], [hi]])
        inner = matched[(matched > lo) & (matched < hi)]
        ref = np.unique(np.concatenate([[lo], inner, [0.0] if lo < 0.0 < hi else [], [hi]]))
        assert events.size == ref.size and np.all(events == ref)


_event_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_event_values, max_size=60), st.lists(_event_values, min_size=2, max_size=2),
       st.sampled_from([0.0, -0.0]))
def test_unique_matches_numpy_with_signed_zeros(values, ends, zero):
    # matched points sorted and distinct, with 0 of either sign among them
    # or not, and window ends that may sit on matched points
    matched = np.unique(np.array(values, dtype=float))
    matched[matched == 0.0] = zero
    lo, hi = sorted(ends)
    assert_events_match_numpy(matched, [(lo * f, hi * f) for f in density.D3_FRACTIONS])


def test_unique_matches_numpy_on_d3_events(monkeypatch):
    # every event table the d3 residuals build: its events on each window
    # are the sorted, distinct window ends, matched points and 0; a matched
    # point on 0, of either sign, is the event at 0
    seen = []
    real = density._event_table

    def recording(matched):
        seen.append(matched.copy())
        return real(matched)

    monkeypatch.setattr(density, "_event_table", recording)
    windows = [(-300.0 * f, 300.0 * f) for f in density.D3_FRACTIONS]
    for spec in ("perturbed:1,0.2", "poisson:1", "lattice:1"):
        seq = generate(spec, (-300.0, 300.0), seed=1)
        for a in (0.5, 1.0, 1.3):
            d3_residual_curve(seq, a)
    for zero in (0.0, -0.0):
        matched = np.array([-2.0, -1.0, zero, 1.0, 2.0])
        density._counting_residuals(matched, 1.0, [(-2.5, 2.5)])
        x, _ = real(matched)
        assert x.tobytes() == matched.tobytes()  # the matched 0 is the one event at 0
    assert len(seen) == 11
    for matched in seen[:9]:
        assert_events_match_numpy(matched, windows)
    for matched in seen[9:]:
        assert_events_match_numpy(matched, [(-2.5, 2.5)])


def per_point_write(fh, points):
    """The writer `_write_points` replaced: one formatted line per point."""
    fh.writelines(f"{float(x)!r}\n" for x in np.asarray(points, dtype=float))


@pytest.mark.parametrize("size", [0, 1, 2, 4095, 4096, 4097, 10_000])
def test_write_points_bytes_match_the_per_point_writer(size):
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7976931348623157e308,
               3.0, -42.0, 1e16, 2.0 ** 53, 0.1, -1e-300]
    rng = np.random.default_rng(size)
    pts = np.concatenate([special, rng.uniform(-1e4, 1e4, size)])[:size]
    old, new = io.StringIO(), io.StringIO()
    per_point_write(old, pts)
    _write_points(new, pts)
    assert new.getvalue() == old.getvalue() and new.getvalue().count("\n") == size


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


# ---------------------------------------------------------------------------
# Input contract: every public entry that takes a point array or a level
# rejects bad values with a ParameterError (seqcore._points, _positive)
# ---------------------------------------------------------------------------

LATTICE = generate("lattice:1", (-300.0, 300.0))


def _load_written(values, tmp_path):
    """load_points on a file of values, one row per line: a 2-D array gives
    lines of two numbers, which a sequence file cannot hold."""
    path = tmp_path / "pts.txt"
    path.write_text("".join(" ".join(map(str, np.atleast_1d(row))) + "\n" for row in values))
    return load_points(path)


def _d1_witness():
    return Partition(density_lower(LATTICE).witness["breakpoints"])


POINT_ENTRIES = {
    "PointSequence": lambda v, tmp: PointSequence(v, (-10.0, 10.0)),
    "Partition": lambda v, tmp: Partition(v),
    "AtomicMeasure": lambda v, tmp: AtomicMeasure(v),
    "load_points": _load_written,
    "residue_weights": lambda v, tmp: residue_weights(v),
    "theta_derivative_profile": lambda v, tmp: theta_derivative_profile(v, [0.25]),
}
BAD_POINTS = {
    "nan": [0.0, math.nan, 2.0],
    "inf": [0.0, 1.0, math.inf],
    "-inf": [-math.inf, 0.0, 1.0],
    "decreasing": [0.0, 2.0, 1.0],
    "repeated": [0.0, 1.0, 1.0],
    "2-D": [[0.0, 1.0], [2.0, 3.0]],
    "span-overflow": [-1.7e308, 0.0, 1.7e308],
}
LEVEL_ENTRIES = {
    "PointSequence.scale": lambda a, tmp: LATTICE.scale(a),
    "gram_matrix": lambda a, tmp: gram_matrix(np.arange(3.0), a),
    "greedy_density_partition": lambda a, tmp: greedy_density_partition(LATTICE, a),
    "d3_residual_curve": lambda a, tmp: d3_residual_curve(LATTICE, a),
    "verify_partition_witness":
        lambda a, tmp: verify_partition_witness(LATTICE, a, _d1_witness()),
    "long_family_search": lambda a, tmp: long_family_search(LATTICE, "below")(a),
    "long_family_search_above": lambda a, tmp: long_family_search(LATTICE, "above")(a),
    "verify_family_witness":
        lambda a, tmp: verify_family_witness(LATTICE, a, [(0.5, 1.5)], "below"),
}
BAD_LEVELS = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf,
              "-inf": -math.inf}
CONTRACT = [pytest.param(POINT_ENTRIES[e], np.array(v), id=f"{e}-{b}")
            for e in POINT_ENTRIES for b, v in BAD_POINTS.items()] + \
           [pytest.param(LEVEL_ENTRIES[e], v, id=f"{e}-{b}")
            for e in LEVEL_ENTRIES for b, v in BAD_LEVELS.items()]


@pytest.mark.parametrize("call,bad", CONTRACT)
def test_input_contract(call, bad, tmp_path):
    with pytest.raises(ParameterError):
        call(bad, tmp_path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [total_energy,
                                  lambda v: fourier_eval(AtomicMeasure([0.0, 1.0]), v)],
                         ids=["total_energy", "fourier_eval"])
def test_non_finite_values_are_rejected(call, bad):
    with pytest.raises(ParameterError, match="finite"):
        call(np.array(BAD_POINTS[bad]))


@pytest.mark.parametrize("spec,needle", [
    ("lattice:inf", "lattice step"), ("lattice:nan", "lattice step"),
    ("perturbed:inf,0.1", "lattice step"), ("perturbed:nan,0.1", "lattice step"),
    ("lacunary:inf", "lacunary ratio"), ("lacunary:nan", "lacunary ratio"),
    ("poisson:inf", "poisson rate"), ("poisson:nan", "poisson rate"),
])
def test_non_finite_law_parameters_are_named(spec, needle):
    # the error names the parameter, not a later symptom such as
    # non-finite points or the point cap
    with pytest.raises(ParameterError, match=needle):
        generate(spec, (-10.0, 10.0), seed=1)


@pytest.mark.parametrize("make,read", [
    (lambda a: PointSequence(a, (0.0, 3.0)), lambda obj: obj.points),
    (Partition, lambda obj: obj.breakpoints),
    (AtomicMeasure, lambda obj: obj.positions),
])
def test_constructors_own_their_arrays(make, read):
    pts = np.arange(3.0)
    make(pts)
    pts[0] = -1.0  # the caller's array stays writable
    base = np.arange(4.0)
    obj = make(base[:3])
    base[1] = 5.0  # and a validated object does not see later writes
    assert read(obj).tolist() == [0.0, 1.0, 2.0]
    assert not read(obj).flags.writeable
