"""Gram-matrix probes of spectral gaps and the end-to-end gap estimator.

The Gram matrix of exponentials exp(i * lambda_n * t) over [0, a] has
smallest eigenvalue equal to the squared L2 norm of the best unit-weight
atomic measure's Fourier transform on [0, a]; a measure with a spectral
gap of length a exists in the truncation limit exactly when these minima
can be driven to zero. The transition of sigma_min as a grows localizes
2*pi times the metric gap characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .density import DensityEstimate, density_lower
from .energy import energy_condition_report
from .seqcore import AtomicMeasure, ParameterError, Partition, PointSequence, fourier_eval

__all__ = [
    "GramProbe",
    "gram_matrix",
    "sigma_min_sweep",
    "SweepResult",
    "knee_location",
    "synthesize_gap_measure",
    "SynthesisResult",
    "GapCertificate",
    "estimate_gap_characteristic",
    "with_gram_sweep",
]

MAX_GRAM_SIZE = 2048
LOG_FLOOR = 1e-18
# The certificate's Gram sweep: SWEEP_POINTS gap lengths evenly spaced over
# SWEEP_RANGE times 2*pi*c.
SWEEP_POINTS = 40
SWEEP_RANGE = (0.3, 1.3)
# The synthesis's quadrature cross-check: QUAD_NODES Gauss-Legendre nodes per
# panel of at most QUAD_TURNS turns of the transform's fastest oscillation, at
# most MAX_QUAD_NODES nodes, evaluated QUAD_CHUNK (node, atom) pairs at a time.
QUAD_NODES = 32
QUAD_TURNS = 2
QUAD_CHUNK = 4096 * 512
MAX_QUAD_NODES = 2**20


@dataclass(frozen=True)
class GramProbe:
    """One Gram solve. `kernel` is the real symmetric S of `gram_matrix`;
    `gram` rebuilds the complex Gram matrix U S U* from it."""

    a: float
    lam: np.ndarray
    kernel: np.ndarray
    sigma_min: float
    minimizing_weights: np.ndarray | None
    eigenvalues: np.ndarray

    @property
    def gram(self) -> np.ndarray:
        u = _phases(self.lam, self.a)
        return self.kernel * np.outer(u, u.conj())


def _phases(lam: np.ndarray, a: float) -> np.ndarray:
    """The diagonal of the unitary U = diag(e^(i*a*lam_j/2))."""
    return np.exp(0.5j * a * lam)


def _gram_entries(lam: np.ndarray, a: float) -> np.ndarray:
    """S_jk = 2 sin(a(lam_j-lam_k)/2) / (lam_j-lam_k), a on the diagonal."""
    d = lam[:, None] - lam[None, :]
    np.fill_diagonal(d, 1.0)
    s = 2.0 * np.sin(0.5 * a * d) / d
    np.fill_diagonal(s, a)
    return s


def _finite(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{name} must be finite")
    return values


def gram_matrix(lam, a: float, vectors: bool = True) -> GramProbe:
    """Gram matrix of exp(i*lam_j*t) on [0, a] with closed-form entries.

    Entry (j, k) = (e^(i*a*(lam_j-lam_k)) - 1) / (i*(lam_j-lam_k)), a on
    the diagonal. Factoring e^(i*a*(lam_j-lam_k)/2) out of each entry gives
    G = U S U* with U = diag(e^(i*a*lam_j/2)) unitary and S real symmetric,
    S_jk = 2 sin(a(lam_j-lam_k)/2) / (lam_j-lam_k), S_jj = a. A unitary
    similarity keeps every eigenvalue, so the solve runs on S in real
    arithmetic, and S v = sigma v gives G (U v) = sigma (U v): the
    minimizing unit-norm weight vector is U v. G is Hermitian positive
    semidefinite by construction. With vectors=False LAPACK solves for the
    eigenvalues alone and minimizing_weights is None.
    """
    lam = _finite("frequencies", lam)
    a = float(_finite("gap length a", a))
    if a <= 0:
        raise ParameterError("gap length a must be positive")
    if lam.size == 0:
        raise ParameterError("need at least one frequency")
    if lam.size > MAX_GRAM_SIZE:
        raise ParameterError(f"N = {lam.size} exceeds the dense-solver cap {MAX_GRAM_SIZE}")
    if np.any(np.diff(np.sort(lam)) == 0):
        raise ParameterError("frequencies must be distinct")
    s = _gram_entries(lam, a)
    if not vectors:
        w = np.linalg.eigvalsh(s)
        return GramProbe(a, lam, s, max(float(w[0]), 0.0), None, np.maximum(w, 0.0))
    w, v = np.linalg.eigh(s)
    sigma = max(float(w[0]), 0.0)
    vec = _phases(lam, a) * v[:, 0]
    # deterministic phase: make the largest component real positive
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    vec = vec / phase
    return GramProbe(a, lam, s, sigma, vec, np.maximum(w, 0.0))


@dataclass(frozen=True)
class SweepResult:
    a_values: np.ndarray
    sigma_values: np.ndarray
    knee: float

    def pairs(self):
        return list(zip(self.a_values.tolist(), self.sigma_values.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "knee": self.knee,
            "points": [[float(a), float(s)] for a, s in zip(self.a_values, self.sigma_values)],
        }


def knee_location(a_values, sigma_values, noise: float = LOG_FLOOR) -> float:
    """Knee of log sigma_min: the grid point maximizing the second
    difference, i.e. where the curve exits its exponentially small regime.

    The curve is floored at the larger of `noise` (the eigensolver's
    absolute rounding level) and 1e-10 of the sweep's top value, so the
    second difference spikes where the curve genuinely emerges rather than
    inside the noise. A curve that never rises above its floor has no
    knee: NaN.
    """
    a = np.asarray(a_values, dtype=float)
    raw = np.asarray(sigma_values, dtype=float)
    if a.size == 0:
        return float("nan")
    floor = max(noise, 1e-10 * float(np.max(raw)))
    if not np.any(raw > floor):
        return float("nan")
    if a.size < 3:
        return float(a[-1])
    s = np.log(np.maximum(raw, floor))
    d2 = s[2:] - 2.0 * s[1:-1] + s[:-2]
    return float(a[1 + int(np.argmax(d2))])


def _check_sweep_n_max(n) -> None:
    """A ParameterError unless n, the sweep_n_max setting, is a positive
    integer (a config value may read -5 or 2.7)."""
    if not (n >= 1 and float(n).is_integer()):
        raise ParameterError(f"sweep_n_max must be a positive integer, got {n!r}")


def _nearest_zero(points: np.ndarray, n) -> np.ndarray:
    """The n points nearest 0 (all of them if fewer), sorted: the support
    of every Gram sweep and synthesis; n passes `_check_sweep_n_max`."""
    _check_sweep_n_max(n)
    return np.sort(points[np.argsort(np.abs(points))[:int(n)]])


def sigma_min_sweep(lam, a_grid) -> SweepResult:
    """sigma_min across an increasing grid of gap lengths.

    Monotone non-decreasing in a (the Gram increment over [a1, a2] is
    itself a Gram matrix, hence PSD); asserted up to a 1e-10 numerical
    allowance. Each grid point solves for eigenvalues only: the sweep never
    uses the minimizing vector. The knee ignores values under the dense
    solver's rounding level N * eps * lambda_max, with lambda_max the
    largest eigenvalue on the grid; a sweep that stays under it has a NaN
    knee. `gram_matrix` rejects each non-finite grid value.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.size == 0:
        raise ParameterError("grid must be nonempty")
    if np.any(np.diff(a_grid) <= 0):
        raise ParameterError("grid must be increasing")
    lam = np.asarray(lam, dtype=float)
    probes = (gram_matrix(lam, a, vectors=False) for a in a_grid)
    sigmas, tops = np.array([(p.sigma_min, p.eigenvalues[-1]) for p in probes]).T
    diffs = np.diff(sigmas)
    if diffs.size and float(np.min(diffs)) < -1e-10:
        raise AssertionError(
            f"sigma_min not monotone: worst step {float(np.min(diffs)):.3e}")
    noise = lam.size * np.finfo(float).eps * float(np.max(tops))
    return SweepResult(a_grid, sigmas, knee_location(a_grid, sigmas, noise))


@dataclass(frozen=True)
class SynthesisResult:
    measure: AtomicMeasure
    l2_gap_norm: float
    sup_gap_norm: float
    quadrature_l2: float

    def to_json_dict(self) -> dict:
        return {
            "positions": [float(x) for x in self.measure.positions],
            "weights_re": [float(w.real) for w in self.measure.weights],
            "weights_im": [float(w.imag) for w in self.measure.weights],
            "l2_gap_norm": self.l2_gap_norm,
            "sup_gap_norm": self.sup_gap_norm,
            "quadrature_l2": self.quadrature_l2,
        }


def synthesize_gap_measure(lam, a: float) -> SynthesisResult:
    """Best near-gap measure on the given support at truncation scale.

    Weights are the minimizing unit eigenvector; the squared L2 norm of
    the transform over [0, a] equals sigma_min and is cross-checked to 1e-8
    by composite Gauss-Legendre quadrature. |mu^|^2 oscillates at most at
    max(span, max|lam|) radians per unit t, so [0, a] is cut into panels of
    at most QUAD_TURNS turns of that rate, each with a QUAD_NODES-node rule.
    sup_gap_norm is the largest |mu^| over the quadrature nodes.
    """
    probe = gram_matrix(lam, a)
    mu = AtomicMeasure(probe.lam, probe.minimizing_weights)
    rate = max(float(np.ptp(probe.lam)), float(np.max(np.abs(probe.lam))))
    panels = max(1, math.ceil(a * rate / (2.0 * math.pi * QUAD_TURNS)))
    if panels * QUAD_NODES > MAX_QUAD_NODES:
        raise ParameterError(f"a * max(span, max|lam|) = {a * rate:.3g} needs "
                             f"{panels * QUAD_NODES} quadrature nodes, more than "
                             f"the limit of {MAX_QUAD_NODES}")
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    h = a / panels
    per = max(1, QUAD_CHUNK // (QUAD_NODES * probe.lam.size))
    quad, sup = 0.0, 0.0
    for p0 in range(0, panels, per):
        t = h * np.arange(p0, min(p0 + per, panels))[:, None] + 0.5 * h * (x + 1.0)
        vals = np.abs(fourier_eval(mu, t.ravel())).reshape(t.shape)
        quad += 0.5 * h * float(np.sum(vals ** 2 @ w))
        sup = max(sup, float(np.max(vals)))
    l2 = math.sqrt(probe.sigma_min)
    if abs(quad - probe.sigma_min) > 1e-8:
        raise AssertionError(
            f"quadrature {quad:.3e} disagrees with sigma_min {probe.sigma_min:.3e}")
    return SynthesisResult(mu, l2, sup, quad)


# ---------------------------------------------------------------------------
# End-to-end estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapCertificate:
    """Truncation-scale certificate for the metric gap characteristic.

    g_estimate = 2*pi*c_estimate exactly. c_estimate and the partition come
    from one d1 search (its witness re-verified), kept in `d1`, which the
    JSON leaves out. The energy condition is checked once, on that witness,
    and energy_verdict is what that check found; where it is not
    "supported", diagnostics["energy"] says that c_estimate meets the
    density condition only. The density margin re-justifies c_estimate.
    `with_gram_sweep` adds the Gram sweep, whose knee cross-validates the
    2*pi*c transition; without it `sweep` is None and `gram_knee` NaN.
    """

    c_estimate: float
    g_estimate: float
    window: tuple[float, float]
    partition_breakpoints: tuple = ()
    density_margin: float = float("nan")
    energy_verdict: str = "inconclusive"
    shortness_verdict: str = "inconclusive"
    gram_knee: float = float("nan")
    sweep: SweepResult | None = None
    diagnostics: dict = field(default_factory=dict)
    d1: DensityEstimate | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "c_estimate": self.c_estimate,
            "g_estimate": self.g_estimate,
            "window": list(self.window),
            "partition_breakpoints": [float(b) for b in self.partition_breakpoints],
            "density_margin": self.density_margin,
            "energy_verdict": self.energy_verdict,
            "shortness_verdict": self.shortness_verdict,
            "gram_knee": self.gram_knee,
            "sweep": self.sweep.to_json_dict() if self.sweep else None,
            "diagnostics": self.diagnostics,
        }


def estimate_gap_characteristic(seq: PointSequence) -> GapCertificate:
    """2*pi times the largest density level with a short partition meeting
    the density condition, with the energy condition judged on that
    partition (see GapCertificate). No Gram sweep: see `with_gram_sweep`.
    """
    if len(seq) == 0:
        raise ParameterError("sequence is empty")
    d1 = density_lower(seq, "d1")
    if len(seq) < 4:
        return GapCertificate(0.0, 0.0, seq.window, d1=d1,
                              diagnostics={"note": "too few points"})
    c, diagnostics = d1.value, {}
    bks, margin, energy_v, short_v = (), float("nan"), "inconclusive", "inconclusive"
    if c > 0:
        part = Partition(np.array(d1.witness["breakpoints"]))
        bks = tuple(float(b) for b in part.breakpoints)
        counts = np.asarray(d1.witness["counts"])
        margin = float(np.min(counts - c * np.diff(part.breakpoints)))
        # the energy condition over the points the witness covers
        energy_v = energy_condition_report(seq.restrict(*part.cover()), part).verdict
        short_v = "short"
        if energy_v != "supported":
            diagnostics["energy"] = (f"energy condition {energy_v} on the d1 witness: "
                                     f"c meets the density condition only")
    else:
        diagnostics["note"] = "no feasible density level on the grid"
    return GapCertificate(
        c_estimate=c,
        g_estimate=2.0 * math.pi * c,
        window=seq.window,
        partition_breakpoints=bks,
        density_margin=margin,
        energy_verdict=energy_v,
        shortness_verdict=short_v,
        diagnostics=diagnostics,
        d1=d1,
    )


def with_gram_sweep(cert: GapCertificate, seq: PointSequence, n_max: int) -> GapCertificate:
    """The certificate with its Gram sweep: sigma_min over SWEEP_POINTS gap
    lengths spread over SWEEP_RANGE times 2*pi*c, on the n_max points of
    `seq` nearest 0. Adds the knee, its ratio to 2*pi*c and, when every
    value is rounding noise, a note that there is no knee. A certificate
    with c = 0 has no transition to cross-check and comes back unchanged.
    """
    if cert.c_estimate == 0.0:
        return cert
    center = cert.g_estimate
    lo, hi = SWEEP_RANGE
    grid = np.linspace(lo * center, hi * center, SWEEP_POINTS)
    sweep = sigma_min_sweep(_nearest_zero(seq.points, n_max), grid)
    diagnostics = dict(cert.diagnostics, knee_over_2pic=sweep.knee / center)
    if math.isnan(sweep.knee):
        diagnostics["note"] = ("every sweep value is under the eigensolver's "
                               "rounding level: no knee")
    return replace(cert, gram_knee=sweep.knee, sweep=sweep, diagnostics=diagnostics)
