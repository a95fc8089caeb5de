"""Core domain types: point sequences, partitions, atomic measures.

All types are immutable after construction and safe to share across threads.
A range of the line is a window (lo, hi). Partition intervals are half-open
(a, b], so partitions tile exactly. Which points a counting interval from u
to v owns is decided by `_owned` alone, in one of four closures:

- (u, v]: the default. PointSequence.count_in and slice_in, the energy
  series, the intervals right of 0 in `density.verify_partition_witness`,
  and the BM ('above') family test.
- [u, v]: closed windows. PointSequence.restrict, a sequence file on a
  window and `regularize.spread_points`.
- [u, v): the intervals left of 0 in `density.verify_partition_witness`,
  which own the endpoint facing away from 0, as the greedy walk does.
- (u, v): the d4 ('below') family test, whose sparse intervals end on points.

Four input rules are each written once; breaking one is a ParameterError:

- `_points`: a point array is one-dimensional, finite and strictly
  increasing, with a span last - first finite in float64 (past it, lengths
  and energies are inf), kept as a read-only copy. Used by PointSequence,
  Partition, AtomicMeasure, `load_points` and `clarknum`'s two entries.
- `_positive`: a level is finite and > 0. Used by PointSequence.scale, the
  law parameters, `gapnum._gram_fill`, `partitions.greedy_density_partition`
  and four `density` entries: d3, two witness checks and the family search.
- `_finite_window`: a window has finite ends and a width hi - lo finite in
  float64, as for a span. Used by PointSequence and `_requested_window`.
- `_requested_window`: a window asked for passes `_finite_window` and has
  lo < hi. Used by `generate`, `_load_file`, `fekete_optimize` and
  `spread_points`, so by every CLI range: --window, --interval and --J.

A sequence spec is a file or a law, as `parse_sequence_spec` alone decides:
an existing path wins over a law of the same name. The laws are the one
table `_LAWS`: name -> (parameter count, generator).
"""

from __future__ import annotations

import math
import numbers
import os
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParameterError",
    "PointSequence",
    "Partition",
    "AtomicMeasure",
    "generate",
    "parse_sequence_spec",
    "fourier_eval",
    "load_points",
    "save_points",
]

# Hard cap used when evaluating exp(-i*t*x): beyond this the phase is
# meaningless in double precision.
PHASE_LIMIT = 1e9
# Most points (or, for lacunary laws, walk steps) a generator may produce;
# far above the 1.2e5-point sequences the estimators are sized for, far
# below what exhausts memory.
MAX_POINTS = 10**7


class ParameterError(ValueError):
    """Invalid parameters for a generator or estimator."""


def _dist0(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dist(0, I) elementwise for intervals from u to v, arrays of endpoints:
    the distance from 0 to the closure, +0.0 where it holds 0."""
    return np.abs(np.where(u >= 0, u, np.where(v <= 0, -v, 0.0)))


def _series_order(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices that put intervals (u, v] in series order: by dist(0, I),
    then by left end."""
    return np.lexsort((u, _dist0(u, v)))


def _owned(points: np.ndarray, u, v, include_left: bool = False,
           include_right: bool = True):
    """(first, last) with points[first:last] the sorted points between u and
    v, owning u with include_left and v with include_right. u and v may be
    scalars or arrays of interval ends; the count is last - first."""
    first = np.searchsorted(points, u, side="left" if include_left else "right")
    last = np.searchsorted(points, v, side="right" if include_right else "left")
    return first, last


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x by the centred formula; 0 when x
    is constant."""
    x = x - x.mean()
    denom = float(np.sum(x * x))
    return float(np.sum(x * (y - y.mean())) / denom) if denom else 0.0


def _percentile(x: np.ndarray, p: float) -> float:
    """np.percentile(x, p) of a non-empty finite array for 0 <= p < 100, bit
    for bit: numpy's linear interpolation between the order statistics at
    (n - 1) * p / 100, found by np.partition. np.percentile, np.median and
    np.unique import numpy.ma on first use, about 10 ms of a process."""
    if x.size == 1:
        return float(x[0])
    v = (x.size - 1) * (p / 100)
    i = math.floor(v)
    part = np.partition(x, (i, i + 1))
    a, b = float(part[i]), float(part[i + 1])
    g = v - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _median(x: np.ndarray) -> float:
    """np.median(x) of a non-empty finite array, bit for bit: the middle
    order statistic, or the mean of the middle two, found by np.partition.
    numpy's mean sums from 0.0, which turns -0.0 into 0.0."""
    h = x.size // 2
    if x.size % 2:
        return 0.0 + float(np.partition(x, h)[h])
    part = np.partition(x, (h - 1, h))
    return (0.0 + float(part[h - 1]) + float(part[h])) / 2


def _finite_window(window) -> tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"window [{lo}, {hi}] must have finite ends")
    if not math.isfinite(hi - lo):
        raise ParameterError(f"window [{lo}, {hi}] is wider than float64 holds")
    return lo, hi


def _requested_window(window) -> tuple[float, float]:
    """(lo, hi) of a window asked for; a ParameterError unless finite, lo < hi."""
    lo, hi = _finite_window(window)
    if not lo < hi:
        raise ParameterError(f"window [{lo}, {hi}] is empty")
    return lo, hi


def _points(values, what: str) -> np.ndarray:
    """values as a read-only float copy; a ParameterError unless it is
    one-dimensional, finite and strictly increasing with a span last - first
    finite in float64. what names the input."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ParameterError(f"{what} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} must be finite")
    if np.any(arr[1:] <= arr[:-1]):
        raise ParameterError(f"{what} must be strictly increasing")
    if arr.size and not math.isfinite(float(arr[-1]) - float(arr[0])):
        raise ParameterError(f"{what} span [{float(arr[0])!r}, {float(arr[-1])!r}] is wider "
                             "than float64 holds")
    arr.setflags(write=False)
    return arr


def _positive(x, what: str) -> float:
    """x as a float; a ParameterError unless finite and > 0 (NaN fails)."""
    if not (x > 0 and math.isfinite(x)):
        raise ParameterError(f"{what} must be positive and finite, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class PointSequence:
    """Sorted finite truncation of a discrete real sequence with its window.

    The window [lo, hi] records which part of the (conceptually infinite)
    sequence this truncation covers; estimators report it alongside results.
    """

    points: np.ndarray
    window: tuple[float, float]

    def __post_init__(self):
        arr = _points(self.points, "points")
        object.__setattr__(self, "points", arr)
        lo, hi = _finite_window(self.window)
        if not lo <= hi:
            raise ParameterError(f"window [{lo}, {hi}] is empty")
        object.__setattr__(self, "window", (lo, hi))
        if arr.size and (arr[0] < lo or arr[-1] > hi):
            raise ParameterError("all points must lie inside the window")

    def __len__(self):
        return int(self.points.size)

    @property
    def span(self) -> float:
        return self.window[1] - self.window[0]

    def count_in(self, lo: float, hi: float, include_left: bool = False) -> int:
        """Number of points in (lo, hi], or [lo, hi] with include_left."""
        first, last = _owned(self.points, lo, hi, include_left)
        return int(last - first)

    def slice_in(self, lo: float, hi: float, include_left: bool = False) -> np.ndarray:
        first, last = _owned(self.points, lo, hi, include_left)
        return self.points[first:last]

    def restrict(self, lo: float, hi: float) -> "PointSequence":
        """Sub-sequence on the intersection of the window with [lo, hi]."""
        wlo, whi = self.window
        lo, hi = max(lo, wlo), min(hi, whi)
        return PointSequence(self.slice_in(lo, hi, include_left=True), (lo, hi))

    def translate(self, c: float) -> "PointSequence":
        lo, hi = self.window
        return PointSequence(self.points + c, (lo + c, hi + c))

    def scale(self, t: float) -> "PointSequence":
        _positive(t, "scale factor")
        lo, hi = self.window
        return PointSequence(self.points * t, (lo * t, hi * t))

    @classmethod
    def from_points(cls, points) -> "PointSequence":
        arr = _points(points, "points")
        return cls(arr, (float(arr[0]), float(arr[-1])) if arr.size else (0.0, 0.0))


@dataclass(frozen=True)
class Partition:
    """Ordered breakpoints ... < a_-1 < a_0 = 0 < a_1 < ... defining (a_n, a_(n+1)].

    Breakpoints must contain 0 exactly; interval indices follow the position
    relative to the zero breakpoint, so interval n >= 0 is (a_n, a_(n+1)].
    """

    breakpoints: np.ndarray

    def __post_init__(self):
        arr = _points(self.breakpoints, "breakpoints")
        object.__setattr__(self, "breakpoints", arr)
        if arr.size < 2:
            raise ParameterError("partition needs at least two breakpoints")
        if not np.any(arr == 0.0):
            raise ParameterError("0 must be a breakpoint")

    @property
    def zero_index(self) -> int:
        return int(np.searchsorted(self.breakpoints, 0.0))

    def cover(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def reflect(self) -> "Partition":
        return Partition(-self.breakpoints[::-1])


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic measure sum of w_n * delta_(x_n) with complex weights."""

    positions: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        pos = _points(self.positions, "atom positions")
        object.__setattr__(self, "positions", pos)
        if self.weights is None:
            w = np.ones(pos.size, dtype=complex)
        else:
            w = np.asarray(self.weights, dtype=complex).copy()
        if w.shape != pos.shape:
            raise ParameterError("weights must match positions")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def fourier_eval(mu: AtomicMeasure, t_grid) -> np.ndarray:
    """Fourier transform of an atomic measure: sum of w_n * exp(-i*t*x_n).

    Rejects evaluations where |t * x| exceeds the double-precision phase
    budget (1e9 radians) and non-finite t.
    """
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ParameterError("t must be finite")
    if mu.positions.size == 0:
        return np.zeros(t.shape, dtype=complex)
    max_phase = np.max(np.abs(t)) * max(1.0, np.max(np.abs(mu.positions)))
    if max_phase > PHASE_LIMIT:
        raise ParameterError(f"|t*x| = {max_phase:.3g} exceeds phase limit {PHASE_LIMIT:g}")
    phases = np.exp(-1j * np.outer(t, mu.positions))
    return phases @ mu.weights


# ---------------------------------------------------------------------------
# Sequence generators
# ---------------------------------------------------------------------------

def _check_sweep_n_max(n) -> None:
    """A ParameterError unless n, the sweep_n_max setting (the most points
    nearest 0 a Gram crossing, sweep or synthesis runs on), is a positive
    integer (a config value may read -5 or 2.7)."""
    if not (n >= 1 and float(n).is_integer()):
        raise ParameterError(f"sweep_n_max must be a positive integer, got {n!r}")


def _check_count(count: float, what: str) -> None:
    if not count <= MAX_POINTS:
        raise ParameterError(f"the window needs about {count:.3g} {what}, more than "
                             f"the limit of {MAX_POINTS:.0e}")


def _gen_lattice(h: float, lo: float, hi: float, seed) -> np.ndarray:
    _positive(h, "lattice step")
    kmin, kmax = np.ceil(lo / h - 1e-12), np.floor(hi / h + 1e-12)
    _check_count(kmax - kmin + 1, "lattice points")
    kmin, kmax = int(kmin), int(kmax)
    if kmax < kmin:
        return np.empty(0)
    return np.arange(kmin, kmax + 1, dtype=float) * h


def _gen_perturbed(h: float, jitter: float, lo: float, hi: float, seed) -> np.ndarray:
    _positive(h, "lattice step")
    if not 0 <= jitter < h / 2:
        raise ParameterError(f"jitter must lie in [0, h/2), got {jitter}")
    base = _gen_lattice(h, lo + jitter, hi - jitter, seed)
    if base.size == 0:
        return base
    return base + np.random.default_rng(seed).uniform(-jitter, jitter, size=base.size)


def _gen_lacunary(q: float, lo: float, hi: float, seed) -> np.ndarray:
    if not (q > 1 and math.isfinite(q)):
        raise ParameterError(f"lacunary ratio must be finite and exceed 1, got {q!r}")
    if hi <= 0:
        return np.empty(0)
    _check_count((max(0.0, -math.log(max(lo, 1e-300))) + max(0.0, math.log(hi)))
                 / math.log(q), "lacunary walk steps")
    pts = []
    # walk down from 1 toward lo, then up from q; keeps powers exact for
    # integer ratios instead of round-tripping through logs
    x = 1.0
    while x >= max(lo, 1e-300):
        if lo <= x <= hi:
            pts.append(x)
        x /= q
    x = q
    while x <= hi:
        if x >= lo:
            pts.append(x)
        x *= q
    return np.sort(np.array(pts, dtype=float))


def _gen_poisson(rate: float, lo: float, hi: float, seed) -> np.ndarray:
    """The walk x_k = x_(k-1) + e_k from x_0 = lo with exponential steps,
    up to hi. The steps are drawn a chunk at a time, the expected count of
    the rest of the window plus 16, from the stream the scalar walk reads;
    np.cumsum adds them in order, so the points are that walk's."""
    _positive(rate, "poisson rate")
    _check_count(rate * (hi - lo), "Poisson points")
    rng, chunks, x = np.random.default_rng(seed), [], lo
    while True:
        steps = rng.exponential(1.0 / rate, size=int(rate * (hi - x)) + 16)
        walk = np.cumsum(np.concatenate(([x], steps)))[1:]
        inside = int(np.searchsorted(walk, hi, side="right"))
        chunks.append(walk[:inside])
        if inside < walk.size:
            return np.concatenate(chunks)
        x = float(walk[-1])


# Each generator takes the law's parameters, the window ends and the seed. Only
# the laws that draw make np.random.default_rng(seed), so only they import
# numpy.random.
_LAWS = {
    "lattice": (1, _gen_lattice),
    "perturbed": (2, _gen_perturbed),
    "lacunary": (1, _gen_lacunary),
    "poisson": (1, _gen_poisson),
}


def _open_text(path, what: str, mode: str = "r", **kwargs):
    """open(path, mode) as UTF-8 text; a ParameterError naming `what` and the
    path where the OS refuses. The one way gapkit opens a file it reads or
    writes."""
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise ParameterError(f"cannot {verb} {what} {path!r}: {exc.strerror}") from exc


def load_points(path) -> np.ndarray:
    """Read the standard sequence file: one real per line, '#' comments,
    into a read-only array of finite, strictly increasing points."""
    with _open_text(path, "sequence file") as fh:
        # float() strips what str.strip() strips, so where every line is a
        # number or blank this streaming parse reads what the line loop reads.
        # A comment or a bad line sends the file back to the line loop from
        # its start: such a line near the end pays for both parses. A pipe
        # cannot be read twice, so it goes to the line loop at once.
        vals = None
        if fh.seekable():
            try:
                vals = np.fromiter(map(float, filter(str.strip, fh)), float)
            except ValueError:
                fh.seek(0)
        if vals is None:
            vals = _parse_lines(fh, path)
    return _points(vals, f"{path}: points")


def _parse_lines(fh, path) -> list:
    """The numbers of a sequence file line by line, skipping blank lines and
    '#' comments; a ParameterError names the first line that is neither, or
    the file when it is not UTF-8 text."""
    vals = []
    try:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals.append(float(line))
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: not a number: {line!r}") from None
    except UnicodeDecodeError:
        raise ParameterError(f"cannot read sequence file {path!r}: not UTF-8 text") from None
    return vals


def _load_file(path, window) -> PointSequence:
    """The points of a sequence file on the closed window [lo, hi], or on
    the hull of its points when window is None. The one file loader: the
    explicit branch of `generate` and the CLI's --seq both use it."""
    if window is None:
        return PointSequence.from_points(load_points(path))
    window = _requested_window(window)
    pts = load_points(path)
    first, last = _owned(pts, *window, include_left=True)
    return PointSequence(pts[first:last], window)


# Points per write of `_write_points`: each chunk is one list of Python
# floats and one string, so the chunk, not the sequence, sets their memory.
_WRITE_CHUNK = 4096


def _write_points(fh, points) -> None:
    """Write the sequence-file format to an open text file: one repr(float)
    per line. The one writer: `save_points` and `gapkit gen` use it."""
    points = np.asarray(points, dtype=float)
    for i in range(0, points.size, _WRITE_CHUNK):
        fh.write("\n".join(map(repr, points[i:i + _WRITE_CHUNK].tolist())) + "\n")


def save_points(path, points) -> None:
    with _open_text(path, "sequence file", "w") as fh:
        _write_points(fh, points)


_SPEC_RE = re.compile(r"^([a-z]+)(?::(.*))?$")


def parse_sequence_spec(text: str):
    """Parse a sequence spec: a file or a law like 'lattice:1'.

    Returns ('explicit', path) for a file, else (kind, params) with params
    a tuple of floats. A spec that names an existing path is that file,
    even where it also reads as a law; `file:` marks a path explicitly.
    """
    if os.path.exists(text):
        return "explicit", text
    m = _SPEC_RE.match(text.strip())
    if m and m.group(1) in _LAWS:
        kind, raw = m.groups()
        if raw is None or raw == "":
            raise ParameterError(f"spec '{text}' is missing parameters")
        want = _LAWS[kind][0]
        try:
            params = tuple(float(p) for p in raw.split(","))
        except ValueError:
            params = ()
        if len(params) != want:
            raise ParameterError(f"spec {text!r}: law '{kind}' takes {want} numeric "
                                 f"parameter{'s' if want > 1 else ''}")
        return kind, params
    if text.startswith("file:"):
        return "explicit", text[5:]
    return "explicit", text


def generate(spec: str, window=None, seed=None) -> PointSequence:
    """Materialize a sequence spec (see parse_sequence_spec) on a window
    (lo, hi): a file's points on the closed window, or on the hull of its
    points when window is None, or a law drawn with
    np.random.default_rng(seed). Deterministic given (spec, window, seed).
    A law without a window, a law that would need more than MAX_POINTS
    points, and a seed that is neither None nor a non-negative integer, are
    a ParameterError.
    """
    kind, params = parse_sequence_spec(spec)
    if kind == "explicit":
        return _load_file(params, window)
    if window is None:
        raise ParameterError(f"law {spec!r} needs a window")
    lo, hi = _requested_window(window)
    if seed is not None and not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    gen = _LAWS[kind][1]
    return PointSequence(gen(*params, lo, hi, seed), (lo, hi))
