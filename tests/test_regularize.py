import math

import numpy as np
import pytest

from gapkit.density import bm_density
from gapkit.energy import total_energy
from gapkit.regularize import InfeasibleError, regularize_gaps, spread_points
from gapkit.seqcore import ParameterError, PointSequence, generate


def test_spread_hand_example():
    seq = PointSequence(np.array([0.0, 0.1, 10.0]), (0, 10))
    out, e_in, e_out, floor = spread_points(seq, (0, 10), 2.0)
    assert out.points.tolist() == [0.0, 5.0, 10.0]
    assert e_in == total_energy(seq) and e_out == total_energy(out)
    assert e_out == pytest.approx(2 * (math.log(5) + math.log(10) + math.log(5)), rel=1e-12)
    assert floor == total_energy(seq) - (math.log(2) / 2) * 10 * 3
    assert e_out >= floor


def test_spread_empty_intersection():
    seq = PointSequence(np.array([1.0, 2.0, 3.0]), (0, 20))
    out, e_in, e_out, _ = spread_points(seq, (10, 15), 3.0)
    assert out is seq
    assert e_out == e_in == total_energy(seq)


def test_spread_pushes_apart():
    seq = PointSequence(np.array([1.0, 1.01]), (0, 10))
    out, e_in, e_out, _ = spread_points(seq, (0, 10), 3.0)
    assert np.min(np.diff(out.points)) >= 3.0
    assert e_out == total_energy(out) > total_energy(seq) == e_in


def test_spread_infeasible():
    seq = PointSequence(np.linspace(0, 10, 8), (0, 10))
    with pytest.raises(InfeasibleError):
        spread_points(seq, (0, 10), 2.0)  # 8 > 10/2 - 1


def test_spread_requires_c_above_one():
    seq = PointSequence(np.array([0.0, 5.0]), (0, 10))
    with pytest.raises(ParameterError):
        spread_points(seq, (0, 10), 1.0)


@pytest.mark.parametrize("J,needle", [
    ((0.0, math.inf), "must have finite ends"),
    ((-1e308, 1e308), "wider than float64 holds"),
    ((1.0, 0.0), "is empty"),
])
def test_spread_J_passes_the_window_rule(J, needle):
    seq = PointSequence(np.array([0.0, 5.0]), (0, 10))
    with pytest.raises(ParameterError, match=needle):
        spread_points(seq, J, 2.0)


def _random_feasible_instance(rng):
    n = int(rng.integers(5, 60))
    pts = np.sort(rng.uniform(-100, 100, n))
    pts += np.arange(n) * 1e-9
    seq = PointSequence(pts, (-120, 120))
    c = rng.uniform(1.2, 6.0)
    for _ in range(30):
        a = rng.uniform(-110, 90)
        b = a + rng.uniform(2 * c, 60)
        inside = np.sum((pts >= a) & (pts <= b))
        if inside <= (b - a) / c - 1:
            return seq, (a, b), c
    return None


def test_spread_energy_floor_randomized():
    rng = np.random.default_rng(99)
    done = 0
    while done < 200:
        inst = _random_feasible_instance(rng)
        if inst is None:
            continue
        seq, J, c = inst
        spread_points(seq, J, c)  # energy floor asserted inside
        done += 1


def test_regularize_noop_on_dense():
    seq = generate("lattice:1", (0, 50))
    res = regularize_gaps(seq, 5.0)
    assert len(res.added) == 0
    assert np.array_equal(res.gamma.points, seq.points)


def test_regularize_lacunary():
    seq = generate("lacunary:2", (1, 2 ** 10))
    res = regularize_gaps(seq, 4.0)
    assert res.max_gap <= 8.0 + 1e-9
    spacings = np.diff(res.added.points)
    assert spacings.size == 0 or np.min(spacings) >= 4.0 - 1e-9
    assert bm_density(res.added).value <= 0.25 + 0.05


def test_regularize_two_point_fill():
    seq = PointSequence(np.array([0.0, 100.0]), (0, 100))
    res = regularize_gaps(seq, 10.0)
    assert len(res.added) == 9
    assert res.spacing[0] == pytest.approx(10.0)
    assert 10.0 <= res.spacing[0] <= 20.0
    assert np.allclose(res.added.points, np.arange(10.0, 100.0, 10.0))


def test_regularize_idempotent():
    seq = generate("lacunary:2", (1, 2 ** 12))
    once = regularize_gaps(seq, 4.0)
    twice = regularize_gaps(once.gamma, 4.0)
    assert len(twice.added) == 0
    assert np.array_equal(twice.gamma.points, once.gamma.points)


def test_regularize_audit_fields():
    seq = PointSequence(np.array([0.0, 7.0, 100.0]), (0, 100))
    res = regularize_gaps(seq, 3.0)
    assert len(res.spacing) == 2
    gaps = set(zip(res.gap_lo.tolist(), res.gap_hi.tolist()))
    assert (0.0, 7.0) in gaps and (7.0, 100.0) in gaps
    d = res.to_json_dict()
    assert d["n_added"] == len(res.added)
    assert res.max_gap <= 6.0 + 1e-9


def test_regularize_preserves_energy_report_quality():
    # spreading-style fills on the same partition keep the energy verdict
    from gapkit.energy import energy_condition_report
    from gapkit.seqcore import Partition

    seq = generate("poisson:0.8", (-200, 200), seed=21)
    res = regularize_gaps(seq, 6.0)
    bks = np.array([-200.0, -90.0, -40.0, -15.0, 0.0, 15.0, 40.0, 90.0, 200.0])
    before = energy_condition_report(seq, Partition(bks))
    after = energy_condition_report(res.gamma, Partition(bks))
    rank = {"supported": 0, "inconclusive": 1, "unsupported": 2}
    assert rank[after.verdict] <= rank[before.verdict]
