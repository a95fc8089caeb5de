"""Core domain types: point sequences, intervals, partitions, atomic measures.

All types are immutable after construction and safe to share across threads.
Interval and Partition intervals are half-open (a, b], so partitions tile
exactly. Which points a counting interval from u to v owns is decided by
`_owned` alone, in one of four closures:

- (u, v]: the default. PointSequence.count_in and slice_in, the energy
  series and `interval_energy`, the intervals right of 0 in
  `density.verify_partition_witness`, and the BM ('above') family test.
- [u, v]: closed windows. PointSequence.restrict, a sequence file on a
  window and `regularize.spread_points`.
- [u, v): the intervals left of 0 in `density.verify_partition_witness`,
  which own the endpoint facing away from 0, as the greedy walk does.
- (u, v): the d4 ('below') family test, whose sparse intervals end on points.

A sequence spec is a file or a law, as `parse_sequence_spec` alone decides:
an existing path wins over a law of the same name. The laws are the one
table `_LAWS`: name -> (parameter count, generator).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParameterError",
    "Interval",
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


@dataclass(frozen=True)
class Interval:
    """Half-open interval (a, b] on the real line."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ParameterError(f"interval needs a < b, got ({self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def dist0(self) -> float:
        """Distance from 0 to the closure of the interval."""
        if self.a <= 0.0 <= self.b:
            return 0.0
        return min(abs(self.a), abs(self.b))


def _dist0(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Interval.dist0 of (u, v] elementwise, for arrays of endpoints."""
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


def _finite_window(window) -> tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"window [{lo}, {hi}] must have finite ends")
    return lo, hi


def _as_sorted_array(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 1:
        raise ParameterError("points must be one-dimensional")
    return arr


@dataclass(frozen=True)
class PointSequence:
    """Sorted finite truncation of a discrete real sequence with its window.

    The window [lo, hi] records which part of the (conceptually infinite)
    sequence this truncation covers; estimators report it alongside results.
    """

    points: np.ndarray
    window: tuple[float, float]

    def __post_init__(self):
        arr = _as_sorted_array(self.points)
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)
        lo, hi = _finite_window(self.window)
        if not lo <= hi:
            raise ParameterError(f"window [{lo}, {hi}] is empty")
        object.__setattr__(self, "window", (lo, hi))
        if arr.size:
            if not np.all(np.isfinite(arr)):
                raise ParameterError("points must be finite")
            if np.any(np.diff(arr) <= 0):
                raise ParameterError("points must be strictly increasing")
            if arr[0] < lo or arr[-1] > hi:
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
        if t <= 0:
            raise ParameterError("scale factor must be positive")
        lo, hi = self.window
        return PointSequence(self.points * t, (lo * t, hi * t))

    @classmethod
    def from_points(cls, points) -> "PointSequence":
        arr = _as_sorted_array(points)
        if arr.size == 0:
            return cls(arr, (0.0, 0.0))
        return cls(arr, (float(arr[0]), float(arr[-1])))


@dataclass(frozen=True)
class Partition:
    """Ordered breakpoints ... < a_-1 < a_0 = 0 < a_1 < ... defining (a_n, a_(n+1)].

    Breakpoints must contain 0 exactly; interval indices follow the position
    relative to the zero breakpoint, so interval n >= 0 is (a_n, a_(n+1)].
    """

    breakpoints: np.ndarray

    def __post_init__(self):
        arr = _as_sorted_array(self.breakpoints)
        arr.setflags(write=False)
        object.__setattr__(self, "breakpoints", arr)
        if arr.size < 2:
            raise ParameterError("partition needs at least two breakpoints")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("breakpoints must be finite")
        if np.any(np.diff(arr) <= 0):
            raise ParameterError("breakpoints must be strictly increasing")
        if not np.any(arr == 0.0):
            raise ParameterError("0 must be a breakpoint")

    @property
    def zero_index(self) -> int:
        return int(np.searchsorted(self.breakpoints, 0.0))

    def intervals(self) -> list[tuple[int, Interval]]:
        """(index, interval) pairs with the paper's two-sided indexing."""
        z = self.zero_index
        out = []
        for i in range(len(self.breakpoints) - 1):
            iv = Interval(float(self.breakpoints[i]), float(self.breakpoints[i + 1]))
            out.append((i - z, iv))
        return out

    def cover(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def covers_window(self, window: tuple[float, float]) -> bool:
        lo, hi = self.cover()
        return lo <= window[0] and window[1] <= hi

    def reflect(self) -> "Partition":
        return Partition(-self.breakpoints[::-1])


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic measure sum of w_n * delta_(x_n) with complex weights."""

    positions: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        pos = _as_sorted_array(self.positions)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        if self.weights is None:
            w = np.ones(pos.size, dtype=complex)
        else:
            w = np.asarray(self.weights, dtype=complex).copy()
        if w.shape != pos.shape:
            raise ParameterError("weights must match positions")
        if pos.size and np.any(np.diff(pos) <= 0):
            raise ParameterError("atom positions must be strictly increasing")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def fourier_eval(mu: AtomicMeasure, t_grid) -> np.ndarray:
    """Fourier transform of an atomic measure: sum of w_n * exp(-i*t*x_n).

    Rejects evaluations where |t * x| exceeds the double-precision phase
    budget (1e9 radians).
    """
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
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

def _check_count(count: float, what: str) -> None:
    if not count <= MAX_POINTS:
        raise ParameterError(f"the window needs about {count:.3g} {what}, more than "
                             f"the limit of {MAX_POINTS:.0e}")


def _gen_lattice(h: float, lo: float, hi: float, rng) -> np.ndarray:
    if h <= 0:
        raise ParameterError(f"lattice step must be positive, got {h}")
    kmin, kmax = np.ceil(lo / h - 1e-12), np.floor(hi / h + 1e-12)
    _check_count(kmax - kmin + 1, "lattice points")
    kmin, kmax = int(kmin), int(kmax)
    if kmax < kmin:
        return np.empty(0)
    return np.arange(kmin, kmax + 1, dtype=float) * h


def _gen_perturbed(h: float, jitter: float, lo: float, hi: float, rng) -> np.ndarray:
    if h <= 0:
        raise ParameterError(f"lattice step must be positive, got {h}")
    if not 0 <= jitter < h / 2:
        raise ParameterError(f"jitter must lie in [0, h/2), got {jitter}")
    base = _gen_lattice(h, lo + jitter, hi - jitter, rng)
    if base.size == 0:
        return base
    return base + rng.uniform(-jitter, jitter, size=base.size)


def _gen_lacunary(q: float, lo: float, hi: float, rng) -> np.ndarray:
    if q <= 1:
        raise ParameterError(f"lacunary ratio must exceed 1, got {q}")
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


def _gen_poisson(rate: float, lo: float, hi: float, rng) -> np.ndarray:
    if rate <= 0:
        raise ParameterError(f"poisson rate must be positive, got {rate}")
    _check_count(rate * (hi - lo), "Poisson points")
    pts = []
    x = lo + rng.exponential(1.0 / rate)
    while x <= hi:
        pts.append(x)
        x += rng.exponential(1.0 / rate)
    return np.array(pts, dtype=float)


# Each generator takes the law's parameters, the window ends and a numpy Generator.
_LAWS = {
    "lattice": (1, _gen_lattice),
    "perturbed": (2, _gen_perturbed),
    "lacunary": (1, _gen_lacunary),
    "poisson": (1, _gen_poisson),
}


def load_points(path) -> np.ndarray:
    """Read the standard sequence file: one real per line, '#' comments."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read sequence file {path!r}: {exc.strerror}") from exc
    vals = []
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals.append(float(line))
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: not a number: {line!r}") from None
    arr = np.array(vals, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{path}: points must be finite")
    if arr.size and np.any(np.diff(arr) <= 0):
        raise ParameterError(f"{path}: points must be strictly increasing")
    return arr


def _load_file(path, window) -> PointSequence:
    """The points of a sequence file on the closed window [lo, hi], or on
    the hull of its points when window is None. The one file loader: the
    explicit branch of `generate` and the CLI's --seq both use it."""
    pts = load_points(path)
    if window is None:
        return PointSequence.from_points(pts)
    first, last = _owned(pts, *window, include_left=True)
    return PointSequence(pts[first:last], window)


def save_points(path, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x in np.asarray(points, dtype=float):
            fh.write(f"{float(x)!r}\n")


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


def generate(spec: str, window: tuple[float, float], seed=None) -> PointSequence:
    """Materialize a sequence spec (see parse_sequence_spec) on a window:
    a file's points on the closed window, or a law drawn with
    np.random.default_rng(seed). Deterministic given (spec, window, seed).
    Laws that would need more than MAX_POINTS points are a ParameterError.
    """
    kind, params = parse_sequence_spec(spec)
    lo, hi = _finite_window(window)
    if not lo < hi:
        raise ParameterError(f"window [{lo}, {hi}] is empty")
    if kind == "explicit":
        return _load_file(params, (lo, hi))
    gen = _LAWS[kind][1]
    return PointSequence(gen(*params, lo, hi, np.random.default_rng(seed)), (lo, hi))
