"""The array forms of shortness and energy_condition_report against the
per-interval loops they replaced, kept here as the reference: every reported
value must agree bitwise, including the order of the terms."""

import json
import math

import numpy as np
import pytest

from gapkit.energy import (SUPPORTED_SLOPE_FACTOR, UNSUPPORTED_SLOPE_FACTOR,
                           EnergyRecord, EnergyReport, _least_squares_slope,
                           energy_condition_report, interval_energy)
from gapkit.partitions import classify_terms, greedy_density_partition, shortness
from gapkit.seqcore import Partition, PointSequence, generate


def loop_shortness(part):
    ivs = sorted((iv for _, iv in part.intervals()), key=lambda iv: (iv.dist0, iv.a))
    terms = np.array([iv.length ** 2 / (1.0 + iv.dist0 ** 2) for iv in ivs])
    verdict, exponent = classify_terms(terms)
    return terms, verdict, exponent


def loop_energy_report(seq, part, include_endpoints=False):
    recs = []
    for n, iv in part.intervals():
        count, e_n = interval_energy(seq, iv, include_endpoints=include_endpoints)
        s_n = (count * count * math.log(iv.length) - e_n) / (1.0 + iv.dist0 ** 2)
        recs.append(EnergyRecord(n, iv, count, e_n, s_n))
    recs.sort(key=lambda r: (r.dist0, r.n))
    summands = np.array([r.summand for r in recs])
    partial = np.cumsum(summands) if summands.size else np.zeros(0)
    m = summands.size
    head = summands[: max(1, m // 3)]
    tail = partial[-max(2, m // 3):] if m >= 2 else partial
    head_mean = float(np.mean(head)) if head.size else 0.0
    slope = _least_squares_slope(np.asarray(tail, dtype=float))
    scale = max(head_mean, 1e-15)
    if slope <= SUPPORTED_SLOPE_FACTOR * scale:
        verdict = "supported"
    elif slope >= UNSUPPORTED_SLOPE_FACTOR * scale:
        verdict = "unsupported"
    else:
        verdict = "inconclusive"
    return EnergyReport(tuple(recs), partial, seq.window, slope, head_mean, verdict)


def _cases():
    """(label, sequence, partition): greedy partitions of lattice, perturbed
    and Poisson input, plus a symmetric partition whose intervals tie in
    dist(0, I) in pairs and hold several points each."""
    seqs = [
        generate("lattice:1", (-300, 300)),
        generate("perturbed:1,0.2", (-300, 300), seed=3),
        generate("poisson:1", (-1500, 1500), seed=4),
    ]
    for seq in seqs:
        for d in (0.3, 0.6, 0.9):
            for monotone in (True, False):
                res = greedy_density_partition(seq, d, monotone=monotone)
                if res.ok and len(res.partition.breakpoints) >= 4:
                    yield f"{seq.label} d={d} monotone={monotone}", seq, res.partition
    part = Partition(np.array([-40.0, -20.0, -8.0, -3.0, -1.0, 0.0,
                               1.0, 3.0, 8.0, 20.0, 40.0]))
    pts = np.unique(np.random.default_rng(6).uniform(-40.0, 40.0, 200))
    pts = np.union1d(pts, [-20.0, -3.0, 0.0, 3.0, 20.0])  # points on breakpoints
    yield "symmetric ties", PointSequence(pts, (-40.0, 40.0)), part


CASES = list(_cases())


def test_cases_cover_ties_and_multipoint_intervals():
    labels = " ".join(label for label, _, _ in CASES)
    for law in ("lattice", "perturbed", "poisson", "symmetric"):
        assert law in labels
    counts = [r.count for _, seq, part in CASES
              for r in loop_energy_report(seq.restrict(*part.cover()), part).records]
    assert max(counts) >= 2


@pytest.mark.parametrize("label,seq,part", CASES, ids=[c[0] for c in CASES])
def test_shortness_matches_loop(label, seq, part):
    terms, verdict, exponent = loop_shortness(part)
    rep = shortness(part)
    assert rep.terms.tobytes() == terms.tobytes()
    assert rep.partial_sums.tobytes() == np.cumsum(terms).tobytes()
    assert rep.fitted_exponent.hex() == float(exponent).hex()
    assert rep.verdict == verdict


@pytest.mark.parametrize("include_endpoints", [False, True])
@pytest.mark.parametrize("label,seq,part", CASES, ids=[c[0] for c in CASES])
def test_energy_report_matches_loop(label, seq, part, include_endpoints):
    sub = seq.restrict(*part.cover())
    old = loop_energy_report(sub, part, include_endpoints)
    new = energy_condition_report(sub, part, include_endpoints=include_endpoints)
    assert new.partial_sums.tobytes() == old.partial_sums.tobytes()
    assert new.tail_slope.hex() == old.tail_slope.hex()
    assert new.head_mean.hex() == old.head_mean.hex()
    assert new.verdict == old.verdict
    assert new.records == old.records
    # repr round-trips floats, so equal JSON text is bitwise equality, with
    # the same Python types (a numpy integer would not serialize at all)
    assert (json.dumps(new.to_json_dict(), sort_keys=True)
            == json.dumps(old.to_json_dict(), sort_keys=True))
