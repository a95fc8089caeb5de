"""The source paper's continuous log-kernel lemmas, kept as a reproduction
check: gapkit reports none of them.

They are the closed-form double integrals of log_plus|x - y| and
log_minus|x - y| against step densities, the six two-sided bounds on those
integrals (`log_bound_part1`-`6`), and the key example of equally spaced
points (`key_example_check`), whose normalized energy defect tends to 3/2.
The generators at the end draw the randomized step-density instances of the
bound suite. Caps for parts 1-4 are declared with a factor-2 margin over the
realized maximum height; parts 5-6 draw heights inside the [A/2, A] band
their statements require.
"""

import math
from dataclasses import dataclass

import numpy as np

from gapkit.seqcore import ParameterError


# ---------------------------------------------------------------------------
# Step densities and closed-form log-kernel integrals
# ---------------------------------------------------------------------------

def log_plus(x: float) -> float:
    """max(0, log x); defined as 0 for x <= 1 (including the limit x -> 0)."""
    return math.log(x) if x > 1.0 else 0.0


def log_minus(x: float) -> float:
    """max(0, -log x) for x > 0."""
    if x <= 0.0:
        raise ParameterError("log_minus needs a positive argument")
    return -math.log(x) if x < 1.0 else 0.0


@dataclass(frozen=True)
class StepDensity:
    """Piecewise-constant density: heights[i] on (edges[i], edges[i+1])."""

    edges: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        h = np.asarray(self.heights, dtype=float)
        if e.ndim != 1 or h.ndim != 1 or e.size != h.size + 1:
            raise ParameterError("need len(edges) == len(heights) + 1")
        if np.any(np.diff(e) <= 0):
            raise ParameterError("edges must be strictly increasing")
        if np.any(h < 0):
            raise ParameterError("heights must be nonnegative")
        e.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "heights", h)

    @property
    def mass(self) -> float:
        return float(np.sum(self.heights * np.diff(self.edges)))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    @property
    def max_height(self) -> float:
        return float(np.max(self.heights)) if self.heights.size else 0.0

    @property
    def min_height(self) -> float:
        return float(np.min(self.heights)) if self.heights.size else 0.0

    @classmethod
    def uniform(cls, a: float, b: float) -> "StepDensity":
        return cls(np.array([a, b]), np.array([1.0 / (b - a)]))

    def moment0_against_log_plus(self, y: float) -> float:
        """Closed-form integral of log_plus|x - y| against the density."""
        vals = _antideriv_log_plus(self.edges - y)
        return float(np.sum(self.heights * np.diff(vals)))


def _antideriv_log_plus(u):
    """Odd antiderivative of log_plus|u|: zero on [-1, 1]."""
    u = np.asarray(u, dtype=float)
    s = np.abs(u)
    out = np.zeros_like(s)
    big = s > 1.0
    sb = s[big]
    out[big] = sb * np.log(sb) - sb + 1.0
    return np.sign(u) * out


def _second_antideriv_log_abs(u):
    """K with K'' = log|u|; K and K' vanish at 0, so no delta at the kink."""
    u = np.asarray(u, dtype=float)
    s = np.abs(u)
    out = np.zeros_like(s)
    pos = s > 0
    sp = s[pos]
    out[pos] = 0.5 * sp * sp * np.log(sp) - 0.75 * sp * sp
    return out


def _second_antideriv_log_plus(u):
    """H with H'' = log_plus|u|; identically 0 on [-1, 1], C^1 everywhere."""
    u = np.asarray(u, dtype=float)
    s = np.abs(u)
    out = np.zeros_like(s)
    big = s > 1.0
    sb = s[big]
    out[big] = 0.5 * sb * sb * np.log(sb) - 0.75 * sb * sb + sb - 0.25
    return out


def _rectangle_integral(second_antideriv, p1, p2, q1, q2):
    # int_{p1}^{p2} int_{q1}^{q2} F(x - y) dy dx = -[H(p2-q2)-H(p2-q1)-H(p1-q2)+H(p1-q1)]
    corners = second_antideriv(np.array([p2 - q2, p2 - q1, p1 - q2, p1 - q1]))
    return -(corners[0] - corners[1] - corners[2] + corners[3])


def _pair_integral(alpha: StepDensity, beta: StepDensity, kind: str) -> float:
    pa, ha = alpha.edges, alpha.heights
    pb, hb = beta.edges, beta.heights
    total = 0.0
    for i in range(ha.size):
        if ha[i] == 0.0:
            continue
        for j in range(hb.size):
            if hb[j] == 0.0:
                continue
            plus = _rectangle_integral(_second_antideriv_log_plus,
                                       pa[i], pa[i + 1], pb[j], pb[j + 1])
            if kind == "plus":
                total += ha[i] * hb[j] * plus
            else:
                whole = _rectangle_integral(_second_antideriv_log_abs,
                                            pa[i], pa[i + 1], pb[j], pb[j + 1])
                total += ha[i] * hb[j] * (plus - whole)
    return total


def log_kernel_integral(alpha: StepDensity, beta: StepDensity, sign: str) -> float:
    """Double integral of log_plus|x-y| (or log_minus) against two unit-mass
    step densities, in closed form per step pair.
    """
    if sign not in ("plus", "minus"):
        raise ParameterError("sign must be 'plus' or 'minus'")
    for name, d in (("alpha", alpha), ("beta", beta)):
        if abs(d.mass - 1.0) > 1e-9:
            raise ParameterError(f"{name} must integrate to 1, got mass {d.mass}")
    return _pair_integral(alpha, beta, sign)


# ---------------------------------------------------------------------------
# Two-sided bound suite for the log-kernel integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    part: int
    lower: float
    value: float
    upper: float
    slack: float = 1e-12

    @property
    def ok(self) -> bool:
        return self.lower - self.slack <= self.value <= self.upper + self.slack


def _require_cap(density: StepDensity, cap: float, name: str) -> None:
    if cap <= 1.0:
        raise ParameterError(f"declared cap {name} must exceed 1")
    if density.max_height > cap:
        raise ParameterError(f"{name}: density exceeds its declared cap")


def log_bound_part1(alpha: StepDensity, cap_a: float) -> BoundCheck:
    """Self-interaction of one density under the minus kernel."""
    _require_cap(alpha, cap_a, "A")
    a1, a2 = alpha.support
    value = log_kernel_integral(alpha, alpha, "minus")
    return BoundCheck(1, log_minus(a2 - a1), value, log_minus(1.0 / cap_a) + 1.0)


def log_bound_part2(alpha: StepDensity, beta: StepDensity) -> BoundCheck:
    """Separated supports, minus kernel: pinched between the two distances."""
    a1, a2 = alpha.support
    b1, b2 = beta.support
    if not a2 < b1:
        raise ParameterError("part 2 needs separated supports (a2 < b1)")
    value = log_kernel_integral(alpha, beta, "minus")
    return BoundCheck(2, log_minus(b2 - a1), value, log_minus(b1 - a2))


def log_bound_part3(alpha: StepDensity, cap_a: float,
                    beta: StepDensity, cap_b: float) -> BoundCheck:
    """Abutting supports, minus kernel: upper bound from the larger cap."""
    _require_cap(alpha, cap_a, "A")
    _require_cap(beta, cap_b, "B")
    a2 = alpha.support[1]
    b1 = beta.support[0]
    if a2 != b1:
        raise ParameterError("part 3 needs abutting supports (a2 == b1)")
    value = log_kernel_integral(alpha, beta, "minus")
    upper = min(log_minus(1.0 / cap_a), log_minus(1.0 / cap_b)) + 1.0
    return BoundCheck(3, 0.0, value, upper)


def log_bound_part4(alpha: StepDensity, beta: StepDensity) -> BoundCheck:
    """Ordered supports, plus kernel: between gap and diameter logs."""
    a1, a2 = alpha.support
    b1, b2 = beta.support
    if not a2 <= b1:
        raise ParameterError("part 4 needs ordered supports (a2 <= b1)")
    value = log_kernel_integral(alpha, beta, "plus")
    return BoundCheck(4, log_plus(b1 - a2), value, log_plus(b2 - a1))


# Concrete absolute constant for parts 5 and 6 (the statement only asserts
# existence): with A/2 <= alpha <= A and unit mass the support is at most
# 2/A <= 2 long, and log 3 absorbs the worst case in both parts.
NEAR_UNIFORM_CONSTANT = math.log(3.0)


def _require_near_uniform(alpha: StepDensity, cap: float) -> None:
    _require_cap(alpha, cap, "A")
    if alpha.min_height < cap / 2.0 - 1e-12:
        raise ParameterError("parts 5-6 need A/2 <= alpha <= A on the support")


def log_bound_part5(alpha: StepDensity, cap_a: float, y: float) -> BoundCheck:
    """Plus kernel against a near-uniform density, observed from inside."""
    _require_near_uniform(alpha, cap_a)
    a1, a2 = alpha.support
    if not a1 < y < a2:
        raise ParameterError("part 5 needs y inside the support")
    value = alpha.moment0_against_log_plus(y)
    base = log_plus(a2 - a1)
    c = NEAR_UNIFORM_CONSTANT
    return BoundCheck(5, base - c, value, base + c)


def log_bound_part6(alpha: StepDensity, cap_a: float, y: float) -> BoundCheck:
    """Plus kernel against a near-uniform density, observed from the right."""
    _require_near_uniform(alpha, cap_a)
    a1, a2 = alpha.support
    if not y > a2:
        raise ParameterError("part 6 needs y to the right of the support")
    value = alpha.moment0_against_log_plus(y)
    base = log_plus(y - a1)
    return BoundCheck(6, base - NEAR_UNIFORM_CONSTANT, value, base)


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


# ---------------------------------------------------------------------------
# Randomized instances of the bound suite
# ---------------------------------------------------------------------------

def random_density(rng, a1=None, length=None) -> StepDensity:
    if a1 is None:
        a1 = rng.uniform(-3, 3)
    if length is None:
        length = rng.uniform(0.2, 4.0)
    m = int(rng.integers(1, 6))
    cuts = np.sort(rng.uniform(0, length, m - 1)) if m > 1 else np.empty(0)
    edges = a1 + np.concatenate([[0.0], cuts, [length]])
    heights = rng.uniform(0.1, 1.0, m)
    mass = float(np.sum(heights * np.diff(edges)))
    return StepDensity(edges, heights / mass)


def declared_cap(density: StepDensity) -> float:
    return max(2.0 * density.max_height, 1.01)


def near_uniform_density(rng, cap: float) -> StepDensity:
    """Heights in [cap/2, cap); widths rescaled so the mass is exactly 1."""
    m = int(rng.integers(1, 5))
    widths = rng.uniform(0.2, 1.0, m)
    heights = rng.uniform(cap / 2.0, cap * 0.999, m)
    widths = widths / float(np.sum(heights * widths))
    a1 = rng.uniform(-3, 3)
    edges = a1 + np.concatenate([[0.0], np.cumsum(widths)])
    return StepDensity(edges, heights)


def bound_suite_checks(rng):
    """One randomized instance of each of the six two-sided bounds."""
    alpha = random_density(rng)
    cap_a = declared_cap(alpha)
    a2 = alpha.support[1]
    beta_sep = random_density(rng, a1=a2 + rng.uniform(0.01, 3.0))
    beta_adj = random_density(rng, a1=a2)
    checks = [
        log_bound_part1(alpha, cap_a),
        log_bound_part2(alpha, beta_sep),
        log_bound_part3(alpha, cap_a, beta_adj, declared_cap(beta_adj)),
        log_bound_part4(alpha, beta_sep),
    ]
    cap = rng.uniform(1.2, 8.0)
    nu = near_uniform_density(rng, cap)
    s1, s2 = nu.support
    checks.append(log_bound_part5(nu, cap, rng.uniform(s1 + 1e-6, s2 - 1e-6)))
    checks.append(log_bound_part6(nu, cap, s2 + rng.uniform(0.01, 50.0)))
    return checks
