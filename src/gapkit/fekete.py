"""Logarithmic-energy maximization on an interval.

The maximizer of the pairwise log energy for k points on [a, b] is the two
endpoints plus the zeros of the Jacobi polynomial P_(k-2)^(1,1) (Stieltjes;
Szego, Orthogonal Polynomials, section 6.7). With the endpoints fixed the
energy is strictly concave in the interior points on the cell where they are
strictly ordered, so fekete_optimize finds the maximizer by Newton's method,
and jacobi_zeros provides the spectral prediction to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import total_energy
from .seqcore import ParameterError, _requested_window

__all__ = ["jacobi_zeros", "fekete_optimize", "FeketeResult"]

# From equispaced points k <= 200 takes at most 15 Newton steps. After a
# step of STEP_TOL on [-1, 1] the error (of order step^2) is below rounding.
MAX_NEWTON_STEPS = 100
STEP_TOL = 1e-14
# Most points fekete_optimize accepts. A Newton step holds a few k x k float64
# arrays and a dense k x k solve: at k = 2000 the run peaks near 220 MB and
# takes about 4 s on one core, and both grow as k^2 and k^3 beyond it
# (k = 100000 would ask for 75 GiB in its first array).
MAX_FEKETE_POINTS = 2000


def jacobi_zeros(n: int, alpha: float, beta: float) -> np.ndarray:
    """Zeros of the Jacobi polynomial P_n^(alpha,beta), sorted in (-1, 1).

    Golub-Welsch: eigenvalues of the symmetric tridiagonal matrix built
    from the three-term recurrence coefficients, by numpy's dense symmetric
    eigensolver. That is O(n^3): n = 1998, the most fekete_optimize asks for,
    takes 0.5-0.9 s on one core, under the ~4 s of its Newton iteration.
    """
    if n < 1:
        raise ParameterError("degree must be at least 1")
    if not (alpha > -1 and beta > -1):
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
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.sort(np.linalg.eigvalsh(jac))


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


def _inverse_gaps(x: np.ndarray) -> np.ndarray:
    """1 / (x_i - x_j) for each interior point x_i (rows) and every point x_j,
    with 0 where j == i."""
    d = x[1:-1, None] - x[None, :]
    i = np.arange(x.size - 2)
    d[i, i + 1] = np.inf
    return 1.0 / d


def _newton(m: int) -> tuple[np.ndarray, int]:
    """(interior maximizer of the log energy on [-1, 1] with the endpoints
    fixed, Newton steps taken). The Hessian is strictly diagonally dominant
    with a negative diagonal, hence negative definite; a step is halved only
    while it would break strict ordering."""
    y = np.linspace(-1.0, 1.0, m + 2)[1:-1]
    for it in range(1, MAX_NEWTON_STEPS + 1):
        inv = _inverse_gaps(np.concatenate([[-1.0], y, [1.0]]))
        inv2 = inv * inv
        hess = 2.0 * inv2[:, 1:-1]
        hess[np.diag_indices(m)] = -2.0 * np.sum(inv2, axis=1)
        step = np.linalg.solve(hess, -2.0 * np.sum(inv, axis=1))
        while not np.all(np.diff(np.concatenate([[-1.0], y + step, [1.0]])) > 0):
            step *= 0.5
        y = y + step
        if float(np.max(np.abs(step))) <= STEP_TOL:
            break
    return y, it


def fekete_optimize(k: int, interval) -> FeketeResult:
    """Maximize the pairwise log energy of k points on the interval (a, b),
    a window that passes `_requested_window`.

    The maximizer keeps both endpoints; it is unique because the energy is
    strictly concave in the ordered interior points. Newton's method from
    equispaced points finds it on [-1, 1], mapped affinely onto the interval.
    The residual is the max |interior gradient component| at the returned
    points; convergence demands that it not exceed the change that rounding
    the points to floats can make in a component, which grows with k and
    with the distance of the interval from 0.
    """
    a, b = _requested_window(interval)
    if k < 2:
        raise ParameterError("need at least two points")
    if k > MAX_FEKETE_POINTS:
        raise ParameterError(f"at most {MAX_FEKETE_POINTS} points, got {k}")

    def onto_interval(u):
        return np.concatenate([[a], 0.5 * (a + b) + 0.5 * (b - a) * u, [b]])

    y, it = _newton(k - 2) if k > 2 else (np.empty(0), 0)
    pts = onto_interval(y)
    pred = onto_interval(jacobi_zeros(k - 2, 1.0, 1.0) if k > 2 else y)
    inv = _inverse_gaps(pts)
    res = float(np.max(np.abs(2.0 * np.sum(inv, axis=1)), initial=0.0))
    # rounding each point to a float moves gradient component i by up to
    # about eps * sum_j 2 (|x_i| + |x_j|) / (x_i - x_j)^2
    x = np.abs(pts)
    inv *= inv * (x[1:-1, None] + x)
    scale = float(2.0 * np.finfo(float).eps * np.max(np.sum(inv, axis=1), initial=0.0))
    dev = float(np.max(np.abs(pts - pred)))
    return FeketeResult(pts, total_energy(pts), res, res <= scale, pred, dev, it)
