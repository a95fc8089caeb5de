"""Gram-matrix probes of spectral gaps and the end-to-end gap estimator.

The Gram matrix of exponentials exp(i * lambda_n * t) over [0, a] has
smallest eigenvalue equal to the squared L2 norm of the best unit-weight
atomic measure's Fourier transform on [0, a]; a measure with a spectral
gap of length a exists in the truncation limit exactly when these minima
can be driven to zero. The transition of sigma_min as a grows localizes
2*pi times the metric gap characteristic (Landau, Acta Math. 117, 1967).

sigma_min never decreases in a: the Gram matrix on [0, a2] minus the one
on [0, a1] is the Gram matrix on [a1, a2], which is positive semidefinite.
So for a fixed level tau the test sigma_min(a) > tau fails on [0, a*] and
holds above a*, and bisection finds the crossing a* exactly.
`sigma_min_crossing` does that, one Cholesky factor of S(a) - tau*I per
step, over [0, 8*pi / median spacing], with tau CROSSING_SAFETY times the
eigensolver's rounding level at the top of that range; it stops when the
bracket is at most 2*pi times the density grid step. The gap certificate
reports that crossing (`with_gram_crossing`). `sigma_min_sweep` is the
plain sweep over a grid of lengths.

The Gram stage holds one n x n work matrix per support (`_gram_fill`),
which each gap length refills in place, on and below the diagonal only,
from row blocks of differences lam_j - lam_k in one small buffer.
`gram_matrix` runs on one; the sweep's eigenvalue solves share one; the
crossing's Cholesky probes share one, built after its top solve, a
`gram_matrix` call, has freed its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .density import GRID_RESOLUTION, MIN_POINTS, DensityEstimate, density_lower
from .energy import energy_condition_report
from .seqcore import (AtomicMeasure, ParameterError, Partition, PointSequence,
                      _check_sweep_n_max, _median, _points, _positive, fourier_eval)

__all__ = [
    "GramProbe",
    "gram_matrix",
    "sigma_min_sweep",
    "sigma_min_crossing",
    "CrossingResult",
    "synthesize_gap_measure",
    "SynthesisResult",
    "GapCertificate",
    "estimate_gap_characteristic",
    "with_gram_crossing",
]

MAX_GRAM_SIZE = 2048
# The most entries one row block of the Gram fill holds: 64 KB of doubles.
_BLOCK_ENTRIES = 2**13
# The crossing level tau is this many times the dense eigensolver's rounding
# level N * eps * lambda_max, so that a Cholesky factor, whose rounding is of
# that order, cannot pass on a sigma_min that is rounding noise.
CROSSING_SAFETY = 100.0
# The synthesis's quadrature cross-check: QUAD_NODES Gauss-Legendre nodes per
# panel of at most QUAD_TURNS turns of the transform's fastest oscillation, at
# most MAX_QUAD_NODES nodes, evaluated QUAD_CHUNK (node, atom) pairs at a time.
QUAD_NODES = 32
QUAD_TURNS = 2
QUAD_CHUNK = 4096 * 512
MAX_QUAD_NODES = 2**20


@dataclass(frozen=True)
class GramProbe:
    """One Gram solve: its frequencies, sigma_min, the minimizing weights
    (None for an eigenvalue-only solve) and the clipped spectrum."""

    lam: np.ndarray
    sigma_min: float
    minimizing_weights: np.ndarray | None
    eigenvalues: np.ndarray


def _gram_fill(lam: np.ndarray):
    """The Gram stage of one support: fill(a), which writes the lower
    triangle of S(a) of the frequencies lam (see `gram_matrix`) into one work
    matrix and returns it.

    lam must be finite, nonempty, at most MAX_GRAM_SIZE long and distinct,
    with a span max - min finite in float64; fill rejects an a that is not
    positive and finite or for which a * (max - min) overflows (past float64
    the entries would be sin(inf) = NaN). The rows are cut into blocks, each
    the most rows r0..r1 - 1 whose columns 0..r1 - 1 number at most
    _BLOCK_ENTRIES (at least one row). Each fill writes a block's
    differences d = lam_j - lam_k, 1 on the diagonal, into one reused buffer,
    then its rows of the work matrix with 0.5 * a * d, its sin, times 2, over
    d; then a on the diagonal: the operations of 2 sin(0.5 a d) / d in their
    order, so every entry on and below the diagonal is the same to the bit as
    a fresh build. Above the diagonal only the corners of the diagonal blocks
    are written; the rest holds whatever the memory held. That is all
    LAPACK reads: np.linalg.eigvalsh and eigh default to UPLO='L', and
    np.linalg.cholesky factors the lower triangle. A caller reads or factors
    S before its next fill.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ParameterError("frequencies must be finite")
    if lam.size == 0:
        raise ParameterError("need at least one frequency")
    if lam.size > MAX_GRAM_SIZE:
        raise ParameterError(f"N = {lam.size} exceeds the dense-solver cap {MAX_GRAM_SIZE}")
    srt = np.sort(lam)
    if np.any(srt[1:] == srt[:-1]):
        raise ParameterError("frequencies must be distinct")
    span = float(srt[-1]) - float(srt[0])
    if not math.isfinite(span):
        raise ParameterError(f"frequencies span [{float(srt[0])!r}, {float(srt[-1])!r}] is "
                             "wider than float64 holds")
    n = lam.size
    s = np.empty((n, n))
    buf = np.empty(min(_BLOCK_ENTRIES, n * n))
    blocks = []  # (first row, end row, the block's differences in buf)
    r0 = 0
    while r0 < n:
        # the most rows k with k * (r0 + k) <= _BLOCK_ENTRIES, at least one
        r1 = min(n, r0 + max(1, (math.isqrt(r0 * r0 + 4 * _BLOCK_ENTRIES) - r0) // 2))
        blocks.append((r0, r1, buf[:(r1 - r0) * r1].reshape(r1 - r0, r1)))
        r0 = r1

    def fill(a) -> np.ndarray:
        a = _positive(a, "gap length a")
        if not math.isfinite(a * span):
            raise ParameterError(f"a * (max - min frequency) overflows float64 at a = {a!r}")
        for r0, r1, d in blocks:
            np.subtract(lam[r0:r1, None], lam[None, :r1], out=d)
            d.flat[r0::r1 + 1] = 1.0
            out = s[r0:r1, :r1]
            np.multiply(0.5 * a, d, out=out)
            np.sin(out, out=out)
            np.multiply(2.0, out, out=out)
            np.divide(out, d, out=out)
        np.fill_diagonal(s, a)
        return s

    return fill


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
    eigenvalues alone and minimizing_weights is None. `_gram_fill` gives the
    input rules.
    """
    lam = np.asarray(lam, dtype=float)
    s = _gram_fill(lam)(a)
    if not vectors:
        w = np.linalg.eigvalsh(s)
        return GramProbe(lam, max(float(w[0]), 0.0), None, np.maximum(w, 0.0))
    w, v = np.linalg.eigh(s)
    sigma = max(float(w[0]), 0.0)
    vec = np.exp(0.5j * a * lam) * v[:, 0]
    # deterministic phase: make the largest component real positive
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    vec = vec / phase
    return GramProbe(lam, sigma, vec, np.maximum(w, 0.0))


def _nearest_zero(points: np.ndarray, n) -> np.ndarray:
    """The n points nearest 0 (all of them if fewer), sorted: the support
    of every Gram crossing, sweep and synthesis; n passes
    `_check_sweep_n_max`. Of two points equally near 0 the left one goes
    first (a stable sort): on a unit lattice 512 points are -256..255."""
    _check_sweep_n_max(n)
    return np.sort(points[np.argsort(np.abs(points), kind="stable")[:int(n)]])


def sigma_min_sweep(lam, a_grid) -> np.ndarray:
    """sigma_min at each gap length of an increasing grid.

    Monotone non-decreasing in a (the Gram increment over [a1, a2] is
    itself a Gram matrix, hence PSD); asserted up to a 1e-10 numerical
    allowance. The support is checked once and every grid point refills its
    one work matrix (`_gram_fill`, which rejects each non-finite grid
    value) and solves for eigenvalues only: the sweep never uses the
    minimizing vector.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.size == 0:
        raise ParameterError("grid must be nonempty")
    if np.any(np.diff(a_grid) <= 0):
        raise ParameterError("grid must be increasing")
    fill = _gram_fill(lam)
    sigmas = np.array([max(float(np.linalg.eigvalsh(fill(a))[0]), 0.0) for a in a_grid])
    diffs = np.diff(sigmas)
    if diffs.size and float(np.min(diffs)) < -1e-10:
        raise AssertionError(
            f"sigma_min not monotone: worst step {float(np.min(diffs)):.3e}")
    return sigmas


@dataclass(frozen=True)
class CrossingResult:
    """A bisection for the smallest gap length a in [0, a_max] with
    sigma_min > tau on `support` points. probes are (a, passed) in probe
    order, the top of the range first. lo and crossing bracket the answer:
    lo is the largest failing length (0 if none failed), crossing the
    smallest passing one, NaN when even a_max fails."""

    a_max: float
    tau: float
    support: int
    probes: tuple
    lo: float
    crossing: float

    def to_json_dict(self) -> dict:
        return {
            "range": [0.0, self.a_max],
            "tau": self.tau,
            "support": self.support,
            "probes": [[a, passed] for a, passed in self.probes],
        }


def sigma_min_crossing(lam) -> CrossingResult:
    """Bisection for the gap length at which sigma_min leaves its noise
    (see the module docstring), over [0, A], A = 8*pi / median spacing.

    One eigenvalue solve at A gives lambda_max, hence tau =
    CROSSING_SAFETY * N * eps * lambda_max, and checks that sigma_min(A) >
    tau; if not, the crossing is NaN. lambda_max is largest at A, so tau
    exceeds the rounding of every smaller length. Each step passes when
    S(a) - tau*I has a Cholesky factor. About 12 steps on a unit lattice.
    """
    lam = _points(np.sort(lam), "frequencies")
    if lam.size < 2:
        raise ParameterError("the Gram crossing needs at least two frequencies")
    a_max = 8.0 * math.pi / _median(np.diff(lam))
    top = gram_matrix(lam, a_max, vectors=False)
    tau = CROSSING_SAFETY * lam.size * float(np.finfo(float).eps * top.eigenvalues[-1])
    fill = _gram_fill(lam)
    passed = bool(top.sigma_min > tau)
    probes = [(a_max, passed)]
    lo, hi = 0.0, (a_max if passed else float("nan"))
    while hi - lo > 2.0 * math.pi * GRID_RESOLUTION:
        mid = 0.5 * (lo + hi)
        s = fill(mid)
        s.flat[::lam.size + 1] -= tau
        try:
            np.linalg.cholesky(s)
            passed = True
        except np.linalg.LinAlgError:
            passed = False
        probes.append((mid, passed))
        lo, hi = (lo, mid) if passed else (mid, hi)
    return CrossingResult(a_max, tau, lam.size, tuple(probes), lo, hi)


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

    The one gapkit result that is not reproducible bit for bit: where
    sigma_min sits at rounding level its eigenvector is not determined, and
    the weights (and the norms they give) change with the BLAS thread count.
    On lattice:1 over +-300 at a = 6, sup_gap_norm reads 3.71e-8 on one
    OpenBLAS thread and 2.36e-8 on two.
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

    g_estimate = 2*pi*c_estimate exactly. c_estimate (0 on too few points)
    and the partition come from one d1 search (its witness re-verified),
    kept in `d1`, which the JSON leaves out; its window, breakpoints, density
    margin (which re-justifies c) and shortness verdict are read from d1,
    and are [], NaN and "inconclusive" where c = 0. The energy condition is
    checked once, on that witness, and energy_verdict is what that check
    found; where it is not "supported", diagnostics["energy"] says that
    c_estimate meets the density condition only.
    `with_gram_crossing` adds the Gram crossing, which cross-checks the
    2*pi*c transition: gram_crossing is the smallest gap length at which
    sigma_min exceeds the level tau of `sigma_min_crossing`, to a bracket of
    2*pi*GRID_RESOLUTION. Its record (range, tau, support size, probes) is
    `crossing`, and diagnostics["crossing_over_2pic"] is gram_crossing /
    (2*pi*c). Without it `crossing` is None and `gram_crossing` NaN.
    """

    c_estimate: float
    d1: DensityEstimate
    energy_verdict: str = "inconclusive"
    crossing: CrossingResult | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def g_estimate(self) -> float:
        return 2.0 * math.pi * self.c_estimate

    @property
    def gram_crossing(self) -> float:
        return self.crossing.crossing if self.crossing else float("nan")

    def to_json_dict(self) -> dict:
        c, witness = self.c_estimate, self.d1.witness
        bks, margin = [], float("nan")
        if c > 0:
            bks = witness["breakpoints"]
            margin = float(np.min(np.asarray(witness["counts"]) - c * np.diff(bks)))
        return {
            "c_estimate": c,
            "g_estimate": self.g_estimate,
            "window": list(self.d1.window),
            "partition_breakpoints": list(bks),
            "density_margin": margin,
            "energy_verdict": self.energy_verdict,
            "shortness_verdict": "short" if c > 0 else "inconclusive",
            "gram_crossing": self.gram_crossing,
            "crossing": self.crossing.to_json_dict() if self.crossing else None,
            "diagnostics": self.diagnostics,
        }


def estimate_gap_characteristic(seq: PointSequence) -> GapCertificate:
    """2*pi times the largest density level with a short partition meeting
    the density condition, with the energy condition judged on that
    partition (see GapCertificate). No Gram solve: see `with_gram_crossing`.
    """
    if len(seq) == 0:
        raise ParameterError("sequence is empty")
    d1 = density_lower(seq)
    if d1.value == 0:
        note = ("too few points" if len(seq) < MIN_POINTS
                else "no feasible density level on the grid")
        return GapCertificate(0.0, d1, diagnostics={"note": note})
    part = Partition(np.array(d1.witness["breakpoints"]))
    verdict = energy_condition_report(seq, part).verdict
    diagnostics = {}
    if verdict != "supported":
        diagnostics["energy"] = (f"energy condition {verdict} on the d1 witness: "
                                 f"c meets the density condition only")
    return GapCertificate(d1.value, d1, verdict, diagnostics=diagnostics)


def with_gram_crossing(cert: GapCertificate, seq: PointSequence,
                       n_max: int) -> GapCertificate:
    """The certificate with its Gram crossing (`sigma_min_crossing`) on the
    n_max points of `seq` nearest 0. The range is [0, 8*pi / median spacing
    of those points], whatever c is; tau is CROSSING_SAFETY times the
    eigensolver's rounding level at its top; the bisection is exact because
    sigma_min never decreases in a (the Gram increment is PSD), and it
    stops at a bracket of 2*pi*GRID_RESOLUTION. Adds the crossing, its ratio
    to 2*pi*c and, when sigma_min stays under tau on the whole range, a note
    that there is no crossing. A certificate with c = 0 has no transition to
    cross-check and comes back unchanged.
    """
    if cert.c_estimate == 0.0:
        return cert
    found = sigma_min_crossing(_nearest_zero(seq.points, n_max))
    diagnostics = dict(cert.diagnostics,
                       crossing_over_2pic=found.crossing / cert.g_estimate)
    if math.isnan(found.crossing):
        diagnostics["note"] = (f"sigma_min stays under tau = {found.tau:.3g} up to "
                               f"a = {found.a_max:.6g}: no crossing")
    return replace(cert, crossing=found, diagnostics=diagnostics)
