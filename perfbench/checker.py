"""Independent answer checks for the benchmark's gapkit jobs.

Nothing here imports gapkit. Every check recounts from the input file with
numpy (or scipy for the Jacobi zeros) and compares the job's JSON against a
known answer or its own witness:

- gap certificates: lattice c = 1/h (so g = 2*pi*c), lacunary c = 0, the
  Kadec band for perturbed:1,0.2, and a recount of the witness partition;
- d1 / bm / d4 witnesses: recounted with the conventions the estimators
  document (right of 0 own the right endpoint, left of 0 the left one;
  long families count (u, v] for bm and (u, v) for d4);
- fekete: the Jacobi P_(k-2)^(1,1) zeros from scipy.special.roots_jacobi;
- clark: beta_n <= delta_n / 2 on every reported record;
- regularize: the largest gap of the written gamma file is at most 2C.

A check returns `problems` (the output is malformed or its witness does not
hold: the job failed) and `disagreements` (a known answer is missed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from workloads import COUNT_SLACK, D3_SLACK, GRID_STEP, JACOBI_TOL, REL_TOL


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    disagreements: list = field(default_factory=list)
    reported: dict = field(default_factory=dict)


def load_points(path, window=None) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
    pts = np.sort(np.array(rows, dtype=float))
    if window is not None:
        pts = pts[(pts >= window[0]) & (pts <= window[1])]
    return pts


def partition_counts(pts: np.ndarray, bks: np.ndarray) -> np.ndarray:
    """Counts per interval: (lo, hi] right of 0, [lo, hi) left of 0."""
    lo, hi = bks[:-1], bks[1:]
    right = np.searchsorted(pts, hi, "right") - np.searchsorted(pts, lo, "right")
    left = np.searchsorted(pts, hi, "left") - np.searchsorted(pts, lo, "left")
    return np.where(lo >= 0.0, right, left)


def partition_problems(pts, bks, level: float) -> list:
    bks = np.asarray(bks, dtype=float)
    if bks.size < 2:
        return ["witness partition has fewer than two breakpoints"]
    out = []
    if not np.any(bks == 0.0):
        out.append("0 is not a breakpoint")
    if np.any(np.diff(bks) <= 0):
        out.append("breakpoints do not strictly increase")
        return out
    short = partition_counts(pts, bks) < level * np.diff(bks) - COUNT_SLACK
    if np.any(short):
        out.append(f"{int(short.sum())} intervals hold fewer than {level}*|I| points")
    return out


def _in_band(x, band) -> bool:
    return x is not None and band[0] <= x <= band[1]


def _certificate(v: Verdict, cert: dict, pts, known=None, band=None) -> None:
    c, g = cert.get("c_estimate"), cert.get("g_estimate")
    if not isinstance(c, (int, float)) or not isinstance(g, (int, float)):
        v.problems.append("certificate lacks c_estimate / g_estimate")
        return
    v.reported["c"] = c
    if abs(g - 2.0 * math.pi * c) > REL_TOL * max(1.0, abs(g)):
        v.problems.append(f"g_estimate {g} != 2*pi*c_estimate")
    bks = cert.get("partition_breakpoints") or []
    if c > 0:
        v.problems += partition_problems(pts, bks, c)
    elif bks:
        v.problems.append("c = 0 but a partition is reported")
    if known is not None and abs(c - known) > GRID_STEP + REL_TOL:
        v.disagreements.append(f"c = {c}, known answer {known}")
    if band is not None and not _in_band(c, band):
        v.disagreements.append(f"c = {c} outside the Kadec band {band}")


def _d1(v: Verdict, est: dict, pts, band=None) -> None:
    value = est.get("value")
    v.reported["d1"] = value
    wit = est.get("witness") or {}
    if value and value > 0:
        bks = np.asarray(wit.get("breakpoints", []), dtype=float)
        v.problems += partition_problems(pts, bks, value)
        if bks.size >= 2 and not v.problems:
            if list(partition_counts(pts, bks)) != list(wit.get("counts", [])):
                v.problems.append("d1 witness counts differ from the recount")
            lengths = np.diff(bks)
            z = int(np.searchsorted(bks, 0.0))
            if (np.any(np.diff(lengths[z:]) < -1e-12)
                    or np.any(np.diff(lengths[:z][::-1]) < -1e-12)):
                v.problems.append("d1 witness lengths shrink outward")
    if band is not None and not _in_band(value, band):
        v.disagreements.append(f"d1 = {value} outside {band}")


def _family(v: Verdict, intervals, pts, level: float, mode: str) -> None:
    fam = sorted((float(a), float(b)) for a, b in intervals)
    if any(fam[i][1] > fam[i + 1][0] for i in range(len(fam) - 1)):
        v.problems.append("family intervals overlap")
    if not fam:
        return
    u, w = np.array(fam).T
    if mode == "above":   # (u, v] holds at least level * |I|
        n = np.searchsorted(pts, w, "right") - np.searchsorted(pts, u, "right")
        bad = n < level * (w - u)
    else:                 # (u, v) holds fewer than level * |I|
        n = np.searchsorted(pts, w, "left") - np.searchsorted(pts, u, "right")
        bad = n >= level * (w - u)
    if np.any(bad):
        v.problems.append(f"{int(bad.sum())} family intervals fail the {mode} count")


def _bm(v: Verdict, est: dict, pts, band=None) -> None:
    value = est.get("value")
    v.reported["bm"] = value
    if value and value > 0:
        _family(v, (est.get("witness") or {}).get("intervals", []), pts, value, "above")
    if band is not None and not _in_band(value, band):
        v.disagreements.append(f"bm = {value} outside {band}")


# -- per-job checks: (verdict, payload result, exit code, context) ----------

def check_gap(v, res, code, ctx):
    cert = res.get("certificate")
    if not isinstance(cert, dict):
        v.problems.append("no certificate in result")
        return
    _certificate(v, cert, ctx.points(), known=ctx.params.get("c"))
    if (code == 3) != (cert.get("c_estimate") == 0.0):
        v.problems.append(f"exit {code} does not match c_estimate {cert.get('c_estimate')}")


def check_report(v, res, code, ctx):
    pts = ctx.points()
    band = ctx.params["band"]
    if res.get("n_points") != pts.size:
        v.problems.append(f"n_points {res.get('n_points')} != {pts.size}")
    cert = res.get("gap_certificate") or {}
    _certificate(v, cert, pts, band=band)
    _d1(v, res.get("density_d1") or {}, pts, band)
    _bm(v, res.get("density_bm") or {}, pts, band)
    if (code == 3) != (cert.get("c_estimate") == 0.0):
        v.problems.append(f"exit {code} does not match c_estimate {cert.get('c_estimate')}")


def check_d1(v, res, code, ctx):
    _d1(v, res, ctx.points())
    if not res.get("value"):
        v.problems.append("d1 found no level on a density-1 input")


def check_bm(v, res, code, ctx):
    _bm(v, res, ctx.points(), ctx.params.get("band"))


def check_d3(v, res, code, ctx):
    value = res.get("value")
    v.reported["d3"] = value
    known = ctx.params["value"]
    slack = GRID_STEP if known == 0.0 else D3_SLACK
    if not isinstance(value, (int, float)):
        v.problems.append("no d3 value")
    elif abs(value - known) > slack:
        v.disagreements.append(f"d3 = {value}, known answer {known}")


def check_d4(v, res, code, ctx):
    value = res.get("value")
    v.reported["d4"] = value
    if not isinstance(value, (int, float)):
        v.problems.append("no d4 value")
        return
    wit = res.get("witness") or {}
    if "intervals" in wit:   # refutation at one grid step above the value
        _family(v, wit["intervals"], ctx.points(), value + GRID_STEP, "below")
    if "value" in ctx.params and abs(value - ctx.params["value"]) > GRID_STEP:
        v.disagreements.append(f"d4 = {value}, known answer {ctx.params['value']}")


def check_fekete(v, res, code, ctx):
    k = ctx.params["k"]
    lo, hi = ctx.params["interval"]
    pts = np.sort(np.asarray(res.get("points", []), dtype=float))
    if pts.size != k:
        v.problems.append(f"{pts.size} points, expected {k}")
        return
    if (code == 0) != bool(res.get("converged")):
        v.problems.append(f"exit {code} does not match converged={res.get('converged')}")
    z, _ = roots_jacobi(k - 2, 1.0, 1.0)
    want = np.concatenate([[lo], lo + (hi - lo) * (np.sort(z) + 1.0) / 2.0, [hi]])
    dev = float(np.max(np.abs(pts - want)))
    v.reported["max_dev"] = dev
    if dev > JACOBI_TOL:
        v.disagreements.append(f"max deviation from Jacobi zeros {dev:.2e}")


def check_clark(v, res, code, ctx):
    pts = ctx.points()
    recs = res.get("records") or []
    if res.get("n_reported") != pts.size - 1 or len(recs) != min(200, pts.size - 1):
        v.problems.append("clark reports the wrong number of midpoints")
        return
    n = np.array([r["n"] for r in recs])
    a = np.array([r["a_n"] for r in recs])
    delta = np.array([r["delta_n"] for r in recs])
    beta = np.array([r["beta_n"] for r in recs])
    if not (np.array_equal(a, pts[n])
            and np.allclose(delta, pts[n + 1] - pts[n], rtol=REL_TOL, atol=0)):
        v.problems.append("clark breakpoints or deltas differ from the input")
    ratio = float(np.max(2.0 * beta / delta))
    v.reported["max_2beta_over_delta"] = ratio
    if np.any(beta <= 0) or ratio > 1.0 + REL_TOL:
        v.disagreements.append(f"beta_n exceeds delta_n / 2 (max 2*beta/delta = {ratio})")


def check_regularize(v, res, code, ctx):
    pts = ctx.points()
    two_c = 2.0 * ctx.params["C"]
    gamma = load_points(ctx.out_prefix + ".gamma.txt")
    added = load_points(ctx.out_prefix + ".added.txt")
    if gamma.size != pts.size + added.size or res.get("n_added") != added.size:
        v.problems.append("gamma is not the input plus the added points")
    elif not np.array_equal(np.sort(np.concatenate([pts, added])), gamma):
        v.problems.append("gamma is not the input plus the added points")
    gap = float(np.max(np.diff(gamma))) if gamma.size > 1 else 0.0
    v.reported["max_gap"] = gap
    if abs(gap - float(res.get("max_gap", math.nan))) > REL_TOL * max(1.0, gap):
        v.problems.append(f"reported max_gap {res.get('max_gap')} != recount {gap}")
    if gap > two_c * (1.0 + REL_TOL):
        v.disagreements.append(f"max gap {gap} exceeds 2C = {two_c}")


CHECKS = {
    "gap": check_gap,
    "report": check_report,
    "d1": check_d1,
    "bm": check_bm,
    "d3": check_d3,
    "d4": check_d4,
    "fekete": check_fekete,
    "clark": check_clark,
    "regularize": check_regularize,
}


@dataclass
class Context:
    """What a check may read: the job's input file, window and known answer."""

    input_path: str | None
    window: tuple | None
    params: dict
    out_prefix: str = ""
    _pts: np.ndarray | None = None

    def points(self) -> np.ndarray:
        if self._pts is None:
            self._pts = load_points(self.input_path, self.window)
        return self._pts


def check(name: str, result: dict, code: int, ctx: Context) -> Verdict:
    v = Verdict()
    try:
        CHECKS[name](v, result, code, ctx)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        v.problems.append(f"output does not have the expected shape: {exc!r}")
    return v
