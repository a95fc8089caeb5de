import math

import numpy as np
import pytest

from gapkit.energy import (StepDensity, energy_condition_report,
                           interval_energy, log_kernel_integral, total_energy)
from gapkit.seqcore import Interval, ParameterError, Partition, PointSequence, generate
from lemma_gen import bound_suite_checks


def brute_force_energy(pts):
    acc = 0.0
    for i in range(len(pts)):
        for j in range(i):
            acc += math.log(abs(pts[i] - pts[j]))
    return 2.0 * acc


def test_two_points():
    assert total_energy([0.0, 1.0]) == 0.0


def test_three_points_by_hand():
    # six ordered pairs: four give log 1, two give log 2
    assert total_energy([0.0, 1.0, 2.0]) == pytest.approx(2 * math.log(2), rel=1e-14)


def test_single_point():
    assert total_energy([3.7]) == 0.0


def test_duplicates_rejected():
    with pytest.raises(ParameterError):
        total_energy(np.array([0.0, 1.0, 1.0]))


def test_against_brute_force():
    rng = np.random.default_rng(0)
    for n in (2, 5, 17, 60):
        pts = np.sort(rng.uniform(-30, 30, n))
        assert total_energy(pts) == pytest.approx(brute_force_energy(pts), rel=1e-11)


def test_translation_invariance():
    rng = np.random.default_rng(1)
    pts = np.sort(rng.uniform(0, 50, 25))
    for c in (-100.0, 3.25, 1e4):
        assert total_energy(pts + c) == pytest.approx(total_energy(pts), abs=1e-7)


def test_scaling_law():
    # E(t*X) = E(X) + N(N-1) log t, exactly
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(2, 30))
        pts = np.sort(rng.uniform(-5, 5, n)) + np.arange(n) * 1e-4
        t = rng.uniform(0.1, 10)
        expected = total_energy(pts) + n * (n - 1) * math.log(t)
        assert total_energy(pts * t) == pytest.approx(expected, rel=1e-10, abs=1e-8)


def test_interval_energy_conventions():
    seq = PointSequence(np.array([0.0, 1.0, 2.0, 3.0]), (0, 3))
    assert interval_energy(seq, Interval(0, 2)) == (2, 0.0)
    count, e = interval_energy(seq, Interval(0, 3))
    assert count == 3 and e == pytest.approx(2 * math.log(2), rel=1e-14)


def test_interval_energy_matches_total():
    seq = generate("lattice:1", (0, 100))
    count, e = interval_energy(seq, Interval(0, 100))
    assert count == 100
    assert e == pytest.approx(brute_force_energy(np.arange(1.0, 101.0)), rel=1e-11)


DYADIC_GROWTH = np.array([-150.0, -70.0, -30.0, -10.0, 0.0, 10.0, 30.0, 70.0, 150.0])


def test_energy_condition_positivity_and_monotone_sums():
    seq = generate("lattice:1", (-150, 150))
    rep = energy_condition_report(seq, Partition(DYADIC_GROWTH))
    assert all(r.summand >= 0 for r in rep.records)
    assert np.all(np.diff(rep.partial_sums) >= 0)


def test_energy_condition_single_point_per_interval():
    # one point inside each interval: E_n = 0, s_n = log|I_n| / (1 + dist^2)
    pts = np.array([-100.0, -50.0, -20.0, -5.0, 5.0, 20.0, 50.0, 100.0])
    seq = PointSequence(pts, (-150, 150))
    rep = energy_condition_report(seq, Partition(DYADIC_GROWTH))
    for r in rep.records:
        assert r.count == 1
        expected = math.log(r.interval.length) / (1.0 + r.interval.dist0 ** 2)
        assert r.summand == pytest.approx(expected, rel=1e-12)


def test_energy_condition_normalized_summand_band():
    # lattice summands track the uniform-configuration defect constant 1.5
    seq = generate("lattice:1", (-150, 150))
    rep = energy_condition_report(seq, Partition(DYADIC_GROWTH))
    for r in rep.records:
        ratio = r.summand * (1.0 + r.interval.dist0 ** 2) / r.interval.length ** 2
        assert 0.5 <= ratio <= 2.5


def test_deletion_never_increases_summand():
    rng = np.random.default_rng(3)
    seq = generate("perturbed:1,0.3", (-150, 150), seed=4)
    part = Partition(DYADIC_GROWTH)
    rep = energy_condition_report(seq, part)
    for r in rep.records:
        if r.interval.length < 1 or r.count < 2:
            continue
        inside = seq.slice_in(r.interval.a, r.interval.b)
        drop = rng.integers(0, inside.size)
        kept = np.delete(inside, drop)
        count = kept.size
        e = total_energy(kept)
        s_new = (count * count * math.log(r.interval.length) - e) \
            / (1.0 + r.interval.dist0 ** 2)
        assert s_new <= r.summand + 1e-12


def test_report_verdicts():
    seq = generate("lattice:1", (-150, 150))
    rep = energy_condition_report(seq, Partition(DYADIC_GROWTH))
    assert rep.verdict in ("supported", "inconclusive")
    # dyadic partition: summands stay near the defect constant, so the
    # partial sums grow linearly and the verdict must flag divergence
    seq2 = generate("lattice:1", (-256, 256))
    powers = 2.0 ** np.arange(9)
    dyadic = Partition(np.concatenate([-powers[::-1], [0.0], powers]))
    rep2 = energy_condition_report(seq2.restrict(-256, 256), dyadic)
    assert rep2.verdict == "unsupported"


def test_report_serialization():
    seq = generate("lattice:1", (-150, 150))
    rep = energy_condition_report(seq, Partition(DYADIC_GROWTH))
    d = rep.to_json_dict()
    assert len(d["records"]) == len(rep.records)


# ---------------------------------------------------------------------------
# log-kernel integrals
# ---------------------------------------------------------------------------

def test_log_kernel_trivial_cases():
    u01 = StepDensity.uniform(0, 1)
    assert log_kernel_integral(u01, u01, "plus") == 0.0
    far = StepDensity.uniform(10, 11)
    assert log_kernel_integral(u01, far, "minus") == 0.0
    # self-interaction of a unit block under the minus kernel is exactly 3/2
    assert log_kernel_integral(u01, u01, "minus") == pytest.approx(1.5, rel=1e-12)


def test_log_kernel_quadrature_oracle():
    alpha = StepDensity.uniform(0, 1)
    beta = StepDensity.uniform(2, 3)
    val = log_kernel_integral(alpha, beta, "plus")
    n = 2000
    xg = (np.arange(n) + 0.5) / n
    yg = 2.0 + (np.arange(n) + 0.5) / n
    oracle = float(np.mean(np.log(np.abs(xg[:, None] - yg[None, :]))))
    assert val == pytest.approx(oracle, abs=1e-6)
    assert math.log(1) <= val <= math.log(3)


def test_log_kernel_random_vs_quadrature():
    # midpoint rule per step pair, so grid cells never straddle a jump
    rng = np.random.default_rng(8)
    from lemma_gen import random_density
    n = 400
    for _ in range(5):
        alpha = random_density(rng)
        beta = random_density(rng, a1=alpha.support[1] + rng.uniform(1.1, 3))
        val = log_kernel_integral(alpha, beta, "plus")
        oracle = 0.0
        for i in range(alpha.heights.size):
            for j in range(beta.heights.size):
                p1, p2 = alpha.edges[i], alpha.edges[i + 1]
                q1, q2 = beta.edges[j], beta.edges[j + 1]
                xs = p1 + (np.arange(n) + 0.5) / n * (p2 - p1)
                ys = q1 + (np.arange(n) + 0.5) / n * (q2 - q1)
                kern = np.maximum(np.log(np.abs(xs[:, None] - ys[None, :])), 0.0)
                cell = (p2 - p1) * (q2 - q1) / n / n
                oracle += alpha.heights[i] * beta.heights[j] * float(np.sum(kern)) * cell
        assert val == pytest.approx(oracle, abs=1e-5)


def test_log_kernel_requires_normalization():
    bad = StepDensity(np.array([0.0, 1.0]), np.array([2.0]))
    with pytest.raises(ParameterError):
        log_kernel_integral(bad, bad, "minus")


def test_bound_suite_500_instances():
    rng = np.random.default_rng(20240101)
    bad = []
    for trial in range(500):
        for check in bound_suite_checks(rng):
            if not check.ok:
                bad.append((trial, check))
    assert not bad, f"{len(bad)} violations, first: {bad[:3]}"
