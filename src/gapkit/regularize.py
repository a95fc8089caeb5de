"""Point-spreading and gap-filling regularization.

spread_points repositions the points inside one interval to pairwise gaps
of at least C, with a guaranteed floor on the energy loss; regularize_gaps
fills every oversized gap with points spaced in [C, 2C] so the output has
bounded gaps while the inserted set stays sparse (density about 1/C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import total_energy
from .seqcore import ParameterError, PointSequence, _check_count, _owned, _requested_window

__all__ = [
    "InfeasibleError",
    "spread_points",
    "regularize_gaps",
    "RegularizeResult",
]


class InfeasibleError(ParameterError):
    """The requested spreading cannot fit the points at the demanded gap."""


def spread_points(seq: PointSequence, J, C: float):
    """Equally respace the points inside J = (a, b), a window that passes
    `_requested_window`, read as the closed [a, b], at gaps >= C.

    Requires #(seq in J) <= |J|/C - 1. Points outside J are unchanged and
    the cardinality is preserved. Returns (out, E(in), E(out), floor) with
    the energy floor
        floor = E(in) - (log C / C) * |J| * N,
    and E(out) >= floor asserted on every invocation. When J holds no
    point, out is seq and E(out) = E(in).
    """
    a, b = _requested_window(J)
    if not C > 1:
        raise ParameterError(f"spreading constant C must exceed 1, got {C!r}")
    length = b - a
    pts = seq.points
    first, last = _owned(pts, a, b, include_left=True)
    m = int(last - first)
    if m > length / C - 1:
        raise InfeasibleError(
            f"{m} points in J with |J|/C - 1 = {length / C - 1:.6g}: cannot spread")
    out = seq
    if m:
        moved = np.array([0.5 * (a + b)]) if m == 1 else np.linspace(a, b, m)
        new_pts = np.concatenate([pts[:first], moved, pts[last:]])
        if np.any(np.diff(new_pts) <= 0):
            raise InfeasibleError("spreading collided with points outside J")
        lo, hi = seq.window
        out = PointSequence(new_pts, (min(lo, a), max(hi, b)))
    e_in = total_energy(seq)
    e_out = total_energy(out) if m else e_in
    floor = e_in - (math.log(C) / C) * length * len(seq)
    if not e_out >= floor - 1e-9:
        raise AssertionError(f"energy floor violated: {e_out:.6g} < {floor:.6g}")
    return out, e_in, e_out, floor


@dataclass(frozen=True)
class RegularizeResult:
    """The filled sequence and the points added, with one array entry per
    gap longer than C: its ends, the points inserted in it and their
    spacing."""
    gamma: PointSequence
    added: PointSequence
    max_gap: float
    gap_lo: np.ndarray
    gap_hi: np.ndarray
    inserted: np.ndarray
    spacing: np.ndarray

    def to_json_dict(self) -> dict:
        fills = zip(self.gap_lo.tolist(), self.gap_hi.tolist(), self.inserted.tolist(),
                    self.spacing.tolist())
        return {
            "max_gap": self.max_gap,
            "n_added": len(self.added),
            "fills": [{"gap": [lo, hi], "inserted": k, "spacing": h}
                      for lo, hi, k, h in fills],
        }


def regularize_gaps(seq: PointSequence, C: float) -> RegularizeResult:
    """Fill every gap longer than C so that no gap exceeds 2C.

    Each oversized gap g gets floor(g/C) - 1 equally spaced interior points
    (spacing g / floor(g/C), which lands in [C, 2C]); gaps in (C, 2C] need
    no points. Point j of a fill is spacing * j plus the gap's left end.
    More than MAX_POINTS inserted points in all is a ParameterError, raised
    before anything is allocated. Asserted post-conditions: max output gap
    <= 2C and inserted points pairwise >= C apart, each up to the larger of
    1e-9 and four ulps of the largest |point|, the rounding of a position.
    """
    if not C > 1:
        raise ParameterError(f"gap constant C must exceed 1, got {C!r}")
    pts = seq.points
    gaps = np.diff(pts)
    over = np.flatnonzero(gaps > C)
    ks = np.floor(gaps[over] / C)  # each at least 1, as g > C
    _check_count(float(np.sum(ks - 1)), "gap-filling points")
    gap_lo, spacing = pts[over], gaps[over] / ks
    inserted = (ks - 1).astype(np.int64)
    # j of each added point, then spacing * j + left end, in place
    added = np.arange(1.0, int(inserted.sum()) + 1)
    added -= np.repeat(np.cumsum(inserted) - inserted, inserted)
    added *= np.repeat(spacing, inserted)
    added += np.repeat(gap_lo, inserted)
    gamma = np.concatenate([pts, added])
    gamma.sort()
    max_gap = float(np.max(np.diff(gamma), initial=0.0))
    slack = max(1e-9, 4.0 * float(np.spacing(np.max(np.abs(gamma), initial=0.0))))
    if max_gap > 2 * C + slack:
        raise AssertionError(f"max gap {max_gap:.6g} exceeds 2C = {2 * C:.6g}")
    if added.size > 1 and float(np.min(np.diff(added))) < C - slack:
        raise AssertionError("inserted points closer than C")
    # PointSequence copies its points: rebinding frees each array once copied
    gamma = PointSequence(gamma, seq.window)
    added = PointSequence(added, seq.window)
    return RegularizeResult(gamma, added, max_gap, gap_lo, pts[over + 1], inserted, spacing)
