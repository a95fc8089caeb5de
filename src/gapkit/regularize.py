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
from .seqcore import Interval, ParameterError, PointSequence, _owned

__all__ = [
    "InfeasibleError",
    "spread_points",
    "regularize_gaps",
    "RegularizeResult",
    "GapFill",
]


class InfeasibleError(ParameterError):
    """The requested spreading cannot fit the points at the demanded gap."""


def spread_points(seq: PointSequence, J: Interval, C: float):
    """Equally respace the points inside J (closed hull) at gaps >= C.

    Requires #(seq in J) <= |J|/C - 1. Points outside J are unchanged and
    the cardinality is preserved. Returns (out, E(in), E(out), floor) with
    the energy floor
        floor = E(in) - (log C / C) * |J| * N,
    and E(out) >= floor asserted on every invocation. When J holds no
    point, out is seq and E(out) = E(in).
    """
    if not C > 1:
        raise ParameterError(f"spreading constant C must exceed 1, got {C!r}")
    pts = seq.points
    first, last = _owned(pts, J.a, J.b, include_left=True)
    m = int(last - first)
    if m > J.length / C - 1:
        raise InfeasibleError(
            f"{m} points in J with |J|/C - 1 = {J.length / C - 1:.6g}: cannot spread")
    out = seq
    if m:
        moved = np.array([0.5 * (J.a + J.b)]) if m == 1 else np.linspace(J.a, J.b, m)
        new_pts = np.concatenate([pts[:first], moved, pts[last:]])
        if np.any(np.diff(new_pts) <= 0):
            raise InfeasibleError("spreading collided with points outside J")
        lo, hi = seq.window
        out = PointSequence(new_pts, (min(lo, J.a), max(hi, J.b)))
    e_in = total_energy(seq)
    e_out = total_energy(out) if m else e_in
    floor = e_in - (math.log(C) / C) * J.length * len(seq)
    if not e_out >= floor - 1e-9:
        raise AssertionError(f"energy floor violated: {e_out:.6g} < {floor:.6g}")
    return out, e_in, e_out, floor


@dataclass(frozen=True)
class GapFill:
    gap: tuple[float, float]
    inserted: int
    spacing: float


@dataclass(frozen=True)
class RegularizeResult:
    gamma: PointSequence
    added: PointSequence
    fills: tuple
    max_gap: float

    def to_json_dict(self) -> dict:
        return {
            "max_gap": self.max_gap,
            "n_added": len(self.added),
            "fills": [
                {"gap": list(f.gap), "inserted": f.inserted, "spacing": f.spacing}
                for f in self.fills
            ],
        }


def regularize_gaps(seq: PointSequence, C: float) -> RegularizeResult:
    """Fill every gap longer than C so that no gap exceeds 2C.

    Each oversized gap g gets floor(g/C) - 1 equally spaced interior points
    (spacing g / floor(g/C), which lands in [C, 2C]); gaps in (C, 2C] need
    no points. Asserted post-conditions: max output gap <= 2C and inserted
    points pairwise >= C apart.
    """
    if not C > 1:
        raise ParameterError(f"gap constant C must exceed 1, got {C!r}")
    pts = seq.points
    if pts.size < 2:
        return RegularizeResult(seq, PointSequence(np.empty(0), seq.window),
                                (), 0.0)
    fills = []
    new_points = []
    gaps = np.diff(pts)
    for i, g in enumerate(gaps):
        if g <= C:
            continue
        k = int(math.floor(g / C))
        n_add = k - 1
        spacing = g / k if k else g
        if n_add > 0:
            inserted = pts[i] + spacing * np.arange(1, k)
            new_points.append(inserted)
        fills.append(GapFill((float(pts[i]), float(pts[i + 1])), n_add, float(spacing)))
    added = np.concatenate(new_points) if new_points else np.empty(0)
    gamma_pts = np.sort(np.concatenate([pts, added]))
    gamma = PointSequence(gamma_pts, seq.window)
    added_seq = PointSequence(added, seq.window)
    max_gap = float(np.max(np.diff(gamma_pts))) if gamma_pts.size > 1 else 0.0
    if max_gap > 2 * C + 1e-9:
        raise AssertionError(f"max gap {max_gap:.6g} exceeds 2C = {2 * C:.6g}")
    if added.size > 1 and float(np.min(np.diff(added))) < C - 1e-9:
        raise AssertionError("inserted points closer than C")
    return RegularizeResult(gamma, added_seq, tuple(fills), max_gap)
