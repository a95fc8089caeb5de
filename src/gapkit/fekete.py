"""Logarithmic-energy maximization on an interval.

The maximizer of the pairwise log energy for k points on [a, b] is the two
endpoints plus the zeros of a degree k-2 Jacobi polynomial with parameters
(1, 1); fekete_optimize recovers it by projected gradient ascent and
jacobi_zeros provides the spectral prediction to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import total_energy
from .seqcore import Interval, ParameterError

__all__ = ["jacobi_zeros", "fekete_optimize", "FeketeResult", "key_example_check"]


def jacobi_zeros(n: int, alpha: float, beta: float) -> np.ndarray:
    """Zeros of the Jacobi polynomial P_n^(alpha,beta), sorted in (-1, 1).

    Golub-Welsch: eigenvalues of the symmetric tridiagonal matrix built
    from the three-term recurrence coefficients.
    """
    if n < 1:
        raise ParameterError("degree must be at least 1")
    if alpha <= -1 or beta <= -1:
        raise ParameterError("Jacobi parameters must exceed -1")
    ab = alpha + beta
    diag = np.empty(n)
    for k in range(n):
        den = (2 * k + ab) * (2 * k + ab + 2)
        diag[k] = (beta - alpha) / (ab + 2) if k == 0 else (beta * beta - alpha * alpha) / den
    off = np.empty(max(0, n - 1))
    for k in range(1, n):
        num = 4.0 * k * (k + alpha) * (k + beta)
        den = (2 * k + ab) ** 2 * (2 * k + ab + 1)
        # the (k+ab)/(2k+ab-1) factor cancels to 1 at k = 1
        factor = 1.0 if k == 1 else (k + ab) / (2 * k + ab - 1)
        off[k - 1] = math.sqrt(num / den * factor)
    if n == 1:
        return diag.copy()
    # imported here: scipy costs most of `import gapkit.cli`, and only this needs it
    from scipy.linalg import eigh_tridiagonal
    z = eigh_tridiagonal(diag, off, eigvals_only=True)
    return np.sort(z)


@dataclass(frozen=True)
class FeketeResult:
    points: np.ndarray
    energy: float
    residual: float
    converged: bool
    jacobi_prediction: np.ndarray
    max_deviation: float
    n_iterations: int

    def to_json_dict(self) -> dict:
        return {
            "points": [float(x) for x in self.points],
            "energy": self.energy,
            "residual": self.residual,
            "converged": self.converged,
            "jacobi_prediction": [float(x) for x in self.jacobi_prediction],
            "max_deviation": self.max_deviation,
            "n_iterations": self.n_iterations,
        }


def _grad(x: np.ndarray) -> np.ndarray:
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    return 2.0 * np.sum(1.0 / d, axis=1)


def _energy(x: np.ndarray) -> float:
    d = x[:, None] - x[None, :]
    iu = np.triu_indices(x.size, 1)
    vals = np.abs(d[iu])
    if np.any(vals == 0.0):
        return -np.inf
    return 2.0 * float(np.sum(np.log(vals)))


def _interior_mask(x: np.ndarray, a: float, b: float) -> np.ndarray:
    pad = 1e-12 * (b - a)
    return (x > a + pad) & (x < b - pad)


def _residual(x: np.ndarray, g: np.ndarray, a: float, b: float) -> float:
    interior = _interior_mask(x, a, b)
    return float(np.max(np.abs(g[interior]))) if np.any(interior) else 0.0


def _ascend(x0: np.ndarray, a: float, b: float, max_iter: int, tol: float):
    """Projected gradient ascent; Barzilai-Borwein steps with a gap-based
    cap so the points never cross or collide.
    """
    x = np.sort(x0.copy())
    g = _grad(x)
    prev_x = prev_g = None
    eta = None
    best_x, best_res = x.copy(), _residual(x, g, a, b)
    it = 0
    for it in range(1, max_iter + 1):
        res = _residual(x, g, a, b)
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= tol:
            break
        min_gap = float(np.min(np.diff(x))) if x.size > 1 else b - a
        gmax = float(np.max(np.abs(g))) or 1.0
        cap = 0.25 * min_gap / gmax
        if prev_x is not None:
            interior = _interior_mask(x, a, b)
            s = (x - prev_x)[interior]
            y = (g - prev_g)[interior]
            denom = -float(np.dot(s, y))  # positive where the energy is concave
            eta = float(np.dot(s, s)) / denom if denom > 0 else eta
        if eta is None or not np.isfinite(eta) or eta <= 0:
            eta = cap
        eta = min(eta, cap)
        trial = np.clip(x + eta * g, a, b)
        while np.any(np.diff(trial) <= 0):
            eta *= 0.5
            trial = np.clip(x + eta * g, a, b)
        prev_x, prev_g = x, g
        x = trial
        g = _grad(x)
    res = _residual(x, g, a, b)
    if res < best_res:
        best_x, best_res = x, res
    return best_x, _energy(best_x), best_res, it


def fekete_optimize(k: int, interval: Interval, n_starts: int = 20,
                    seed: int = 0, max_iter: int = 20000,
                    tol: float = 1e-9) -> FeketeResult:
    """Maximize the pairwise log energy of k points box-constrained to the
    interval; multi-start projected gradient ascent.

    The stationarity residual is the max interior gradient component
    (endpoint coordinates exempt); convergence demands residual <= 1e-8.
    """
    if k < 2:
        raise ParameterError("need at least two points")
    a, b = interval.a, interval.b
    pred = _jacobi_prediction(k, a, b)
    if k == 2:
        pts = np.array([a, b])
        return FeketeResult(pts, _energy(pts), 0.0, True, pred, 0.0, 0)
    rng = np.random.default_rng(seed)
    base = np.linspace(a, b, k)
    h = (b - a) / (k - 1)
    best = None
    for s in range(n_starts):
        x0 = base.copy()
        if s > 0:
            x0[1:-1] += rng.uniform(-0.3 * h, 0.3 * h, size=k - 2)
        x, e, res, it = _ascend(x0, a, b, max_iter, tol)
        if best is None or e > best[1]:
            best = (x, e, res, it)
    x, e, res, it = best
    dev = float(np.max(np.abs(np.sort(x) - pred)))
    return FeketeResult(np.sort(x), e, res, res <= 1e-8, pred, dev, it)


def _jacobi_prediction(k: int, a: float, b: float) -> np.ndarray:
    if k == 2:
        return np.array([a, b])
    z = jacobi_zeros(k - 2, 1.0, 1.0)
    mapped = 0.5 * (a + b) + 0.5 * (b - a) * z
    return np.concatenate([[a], mapped, [b]])


def key_example_check(k: int, L: float):
    """(energy, normalized defect) for k equally spaced points spanning L.

    Points are 0, L/(k-1), ..., L; the defect (k^2 log L - E) / k^2
    stabilizes near 1.5 as k grows at unit spacing (L = k).
    """
    if k < 2:
        raise ParameterError("need at least two points")
    if L <= 1:
        raise ParameterError("length must exceed 1")
    h = L / (k - 1)
    d = np.arange(1, k, dtype=float)
    # exact pair sum: 2 * sum over separations d of (k - d) log(d * h)
    energy = 2.0 * float(np.sum((k - d) * np.log(d * h)))
    defect = (k * k * math.log(L) - energy) / (k * k)
    return energy, defect
