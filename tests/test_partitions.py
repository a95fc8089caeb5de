import numpy as np
import pytest

from gapkit.partitions import (greedy_density_partition, is_valid_paper_partition,
                               shortness)
from gapkit.seqcore import ParameterError, Partition, PointSequence, generate


def dyadic_partition(kmax=12):
    powers = 2.0 ** np.arange(kmax)
    return Partition(np.concatenate([-powers[::-1], [0.0], powers]))


def quadratic_partition(nmax=60):
    n = np.arange(1, nmax)
    bks = np.concatenate([-(n[::-1] ** 2.0), [0.0], n ** 2.0])
    return Partition(bks)


def unit_partition(nmax=200):
    return Partition(np.arange(-nmax, nmax + 1, dtype=float))


def test_dyadic_is_long():
    rep = shortness(dyadic_partition())
    # terms 4^n / (1 + 4^n) approach 1: non-decaying
    assert rep.verdict == "long"
    assert rep.terms[-1] == pytest.approx(1.0, abs=0.01)


def test_quadratic_breakpoints_short():
    rep = shortness(quadratic_partition())
    assert rep.verdict == "short"
    assert rep.fitted_exponent < -1.2


def test_unit_partition_short():
    rep = shortness(unit_partition())
    assert rep.verdict == "short"
    # terms are 1/(1+n^2) in distance rank
    assert rep.terms[-1] == pytest.approx(1.0 / (1.0 + 199.0 ** 2), rel=1e-9)


def test_shortness_needs_three_intervals():
    with pytest.raises(ParameterError):
        shortness(Partition(np.array([0.0, 1.0])))


def test_reflection_invariance():
    for part in (dyadic_partition(), quadratic_partition(), unit_partition(50)):
        assert shortness(part).verdict == shortness(part.reflect()).verdict


def test_validity_unit_partition():
    v = is_valid_paper_partition(unit_partition())
    assert not v.valid
    assert "interval lengths do not grow" in v.reasons
    assert v.monotone


def test_validity_quadratic():
    v = is_valid_paper_partition(quadratic_partition())
    assert v.valid and v.monotone


def test_validity_dyadic():
    v = is_valid_paper_partition(dyadic_partition())
    assert not v.valid
    assert "long" in v.reasons


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------

def test_greedy_lattice_unit_intervals():
    seq = generate("lattice:1", (-100, 100))
    res = greedy_density_partition(seq, 1.0)
    assert res.ok
    assert np.allclose(np.diff(res.partition.breakpoints), 1.0)
    assert all(c == 1 for c in res.counts)


def test_greedy_halved_lattice_fails_at_one():
    seq = generate("lattice:2", (-100, 100))
    res = greedy_density_partition(seq, 1.0)
    assert not res.ok
    assert res.failed_direction in ("left", "right")


def test_greedy_lacunary_fails_at_small_density():
    seq = generate("lacunary:2", (1, 2 ** 20))
    res = greedy_density_partition(seq, 0.01)
    assert not res.ok
    assert res.failed_direction == "right"
    # the blocking gap appears once 0.01 * 2^k outruns a single point
    assert res.blocked_at <= 2 ** 10


def test_greedy_minimality():
    # shrinking any breakpoint to the previous candidate must violate a
    # constraint: count >= d * length or the monotone-growth requirement
    seq = generate("perturbed:1,0.3", (-200, 200), seed=2)
    d = 0.8
    res = greedy_density_partition(seq, d)
    assert res.ok
    bks = res.partition.breakpoints
    z = res.partition.zero_index
    pts = seq.points
    for i in range(z, len(bks) - 1):
        a_i, a_next = bks[i], bks[i + 1]
        prev_len = bks[i] - bks[i - 1] if i > z else 0.0
        inside = pts[(pts > a_i) & (pts < a_next)]
        for cand in inside:
            length = cand - a_i
            count = int(np.sum((pts > a_i) & (pts <= cand)))
            assert count < d * length or length < prev_len


def test_greedy_monotone_in_density():
    seq = generate("perturbed:1,0.3", (-300, 300), seed=5)
    grid = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0, 1.05, 1.2]
    results = [greedy_density_partition(seq, d).ok for d in grid]
    # once infeasible, stays infeasible
    assert results == sorted(results, reverse=True)


def test_greedy_counts_recheck():
    seq = generate("poisson:1.5", (-400, 400), seed=10)
    res = greedy_density_partition(seq, 0.7)
    if not res.ok:
        pytest.skip("instance infeasible at 0.7")
    bks = res.partition.breakpoints
    z = res.partition.zero_index
    for k, (lo, hi) in enumerate(zip(bks[:-1], bks[1:])):
        # outward-facing half-open: right side (lo, hi], left side [lo, hi)
        if k >= z:
            count = seq.count_in(lo, hi)
        else:
            count = (seq.count_in(lo, hi, include_left=True)
                     - seq.count_in(hi, hi, include_left=True))
        assert count == res.counts[k]
        assert count >= 0.7 * (hi - lo) - 1e-9


def test_greedy_rejects_bad_inputs():
    seq = generate("lattice:1", (-10, 10))
    with pytest.raises(ParameterError):
        greedy_density_partition(seq, 0.0)
    empty = PointSequence(np.empty(0), (0.0, 0.0))
    with pytest.raises(ParameterError):
        greedy_density_partition(empty, 1.0)


def test_greedy_edge_trim_on_perturbed():
    # the monotone ratchet cannot finish a truncated window exactly; the
    # leftover sliver is trimmed rather than reported as failure
    seq = generate("perturbed:1,0.3", (-2000, 2000), seed=11)
    res = greedy_density_partition(seq, 0.9)
    assert res.ok
    lo, hi = res.partition.cover()
    assert hi <= 2000 and lo >= -2000
    assert (2000 - hi) <= 0.05 * 2000 and (lo + 2000) <= 0.05 * 2000
