"""Residue weights of the Krein-shift inner function for a gap sequence.

For breakpoints {a_n} with bounded gaps, the inner function built from the
half-half step function u = 1_E - 1/2 (E the union of left halves of the
gaps) has a Clark measure with atoms beta_n at the gap midpoints b_n. Each
atom factors as beta_n = (delta_n / 2) * A_n where the off-interval sum
behind A_n telescopes into elementary logarithms per gap: the interval
(a_j, a_(j+1)) contributes

    (1/2) * log[ (b_j - b_n)^2 / (|a_j - b_n| * |a_(j+1) - b_n|) ],

a nonnegative quantity, so A_n <= 1 with the global constant fixed to 1.
The two-sided comparison delta_n^2 <~ beta_n <~ delta_n is what the tests
exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import ParameterError, _points

# Midpoints per block of atom sums: each block holds a few arrays of
# _ROWS x (number of gaps) floats, so larger blocks raise the peak memory.
_ROWS = 16

__all__ = [
    "ResidueTable",
    "residue_weights",
    "ThetaProfile",
    "theta_derivative_profile",
]


@dataclass(frozen=True)
class ResidueTable:
    """The reported midpoints of `residue_weights`, one array per column.
    n_reported counts them all; the arrays may hold only the first few."""
    n_reported: int
    n: np.ndarray
    a_n: np.ndarray
    b_n: np.ndarray
    delta_n: np.ndarray
    atom_sum: np.ndarray
    beta_n: np.ndarray
    tail_bound: np.ndarray

    def rows(self, *names):
        """One list per midpoint of the named columns, as Python numbers."""
        return [list(row) for row in zip(*(getattr(self, k).tolist() for k in names))]


def _outer_gap_scale(a: np.ndarray):
    """Mean gap over the outer tenth on each side (at least one gap)."""
    gaps = np.diff(a)
    k = max(1, gaps.size // 10)
    return float(np.mean(gaps[:k])), float(np.mean(gaps[-k:]))


def _atom_sums(a: np.ndarray, b: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sum over j != n of the closed-form gap contributions at each b_n,
    n in idx, _ROWS midpoints at a time.

    Row n holds the terms log|b_j - b_n| - log|a_j - b_n| / 2 -
    log|a_(j+1) - b_n| / 2 in order of j; the j = n column (log 0) is
    dropped before the row is summed on its own, so each sum is the one a
    single midpoint's term array gives. One row of log|a_k - b_n| serves
    both end terms. Two buffers of _ROWS rows are reused for every block.
    """
    sums = np.empty(idx.size)
    cols = np.arange(b.size)
    ends = np.empty((min(_ROWS, idx.size), a.size))
    terms = np.empty((ends.shape[0], b.size))
    for r0 in range(0, idx.size, _ROWS):
        rows = idx[r0:r0 + _ROWS]
        bn = b[rows, None]
        e, t = ends[:rows.size], terms[:rows.size]
        np.log(np.abs(np.subtract(a, bn, out=e), out=e), out=e)
        e *= 0.5
        np.abs(np.subtract(b, bn, out=t), out=t)
        with np.errstate(divide="ignore"):
            np.log(t, out=t)
        t -= e[:, :-1]
        t -= e[:, 1:]
        kept = t[cols != rows[:, None]].reshape(rows.size, b.size - 1)
        sums[r0:r0 + rows.size] = np.sum(kept, axis=1)
    return sums


def residue_weights(a, report_width: float | None = None, tail_mode: str = "none",
                    limit: int | None = None, sums: np.ndarray | None = None) -> ResidueTable:
    """Residue weights beta_n = (delta_n / 2) * exp(-atom sum) per midpoint.

    report_width restricts which midpoints are reported (|b_n| <=
    report_width); edge midpoints see a lopsided atom set, so reports should
    stay well inside the data. Each tail bound comes from the outer gaps of
    the breakpoints and the distance of b_n to their ends. tail_mode
    'persistent' adds the integral extrapolation of the missing tail to the
    atom sum; 'none' uses the truncated sum only (right for windows that
    genuinely end, like an isolated pair of breakpoints).

    The table holds the first `limit` reported midpoints, or all of them.
    Atom sums are computed only for those: limit 200 costs 200 rows of
    `_atom_sums` whatever the size of `a`. `sums`, the atom sums of every
    midpoint of `a` (the `atom_sum` of `residue_weights(a)`), are read
    instead of computed again: `_atom_sums` sums each midpoint on its own,
    so they are the same numbers. The undetermined global constant of the
    residue formula is fixed to 1, so only ratios are meaningful.
    """
    if tail_mode not in ("none", "persistent"):
        raise ParameterError("tail_mode must be 'none' or 'persistent'")
    if report_width is not None and not report_width >= 0:
        raise ParameterError(f"report width must be at least 0, got {report_width!r}")
    a = _points(a, "breakpoints")
    if a.size < 2:
        raise ParameterError("need at least two breakpoints")
    b = 0.5 * (a[:-1] + a[1:])
    deltas = np.diff(a)
    if report_width is None:
        idx = np.arange(b.size)
    else:
        idx = np.nonzero(np.abs(b) <= report_width)[0]
    n_reported = idx.size
    idx = idx[:limit]
    bn = b[idx]
    gl, gr = _outer_gap_scale(a)
    s = _atom_sums(a, b, idx) if sums is None else sums[idx]
    if b.size > 1:
        # integral extrapolation of the atom sum beyond the data, assuming
        # the boundary gap pattern persists: each far gap contributes about
        # delta^2 / (8 d^2) and the gaps arrive at rate 1/delta
        ests = gl / (8.0 * np.maximum(bn - a[0], gl)) + gr / (8.0 * np.maximum(a[-1] - bn, gr))
    else:
        ests = np.zeros(idx.size)
    if tail_mode == "persistent":
        s = s + ests
        d_edge = np.maximum(np.minimum(bn - a[0], a[-1] - bn), max(gl, gr))
        bound = ests * (0.1 + 4.0 * max(gl, gr) / d_edge)
    else:
        bound = 2.0 * ests
    # math.exp, not np.exp: the two differ in the last bit on some sums
    amp = np.array([math.exp(-x) for x in s.tolist()])
    return ResidueTable(n_reported, idx, a[idx], bn, deltas[idx], s,
                        0.5 * deltas[idx] * amp, bound)


@dataclass(frozen=True)
class ThetaProfile:
    """The profile on the grid x, its tail bound, and the table
    `residue_weights(a)` whose atoms it summed."""
    x: np.ndarray
    estimate: np.ndarray
    tail_bound: float
    table: ResidueTable

    def pairs(self):
        return list(zip(self.x.tolist(), self.estimate.tolist()))


def theta_derivative_profile(a, x_grid) -> ThetaProfile:
    """Midpoint-branch profile sum of beta_n / (x - b_n)^2 on a grid.

    Grid points sitting exactly on a midpoint are nudged right by 1e-9, or
    to the next float where that is farther. The two differ only where
    x + 1e-9 rounds back to x, from |x| of about 2^24 on, where the estimate
    would otherwise be infinite.
    """
    a = _points(a, "breakpoints")
    table = residue_weights(a)
    b, betas = table.b_n, table.beta_n
    x = np.atleast_1d(np.asarray(x_grid, dtype=float)).copy()
    est = np.empty(x.size)
    for i, xi in enumerate(x):
        d = xi - b
        hit = np.abs(d) < 1e-12
        if np.any(hit):
            xi = max(xi + 1e-9, np.nextafter(xi, np.inf))
            x[i] = xi
            d = xi - b
        est[i] = float(np.sum(betas / (d * d)))
    # beyond the data the same integral comparison bounds the missing mass:
    # beta <= delta/2 and atoms arrive at rate 1/delta
    gl, gr = _outer_gap_scale(a)
    span_l = max(float(np.min(np.abs(x - a[0]))), gl)
    span_r = max(float(np.min(np.abs(a[-1] - x))), gr)
    tail = 0.5 / span_l + 0.5 / span_r
    return ThetaProfile(x, est, tail, table)
