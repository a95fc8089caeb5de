"""Per-stage micro-benchmarks of the gap certificate (pytest-benchmark).

Times the stages of the certificate's level search on the four inputs of
the `certify_bisect` workload in perfbench/workloads.py, each at one fixed
level:

- `greedy_density_partition` (the right greedy walk, and the left one
  when the right one succeeds);
- `shortness` of the greedy partition (its terms and verdict);
- the energy check: the energy-condition report on the greedy partition
  (it counts the points the partition covers), whose verdict the
  certificate reads for its witness.

It also times the d1 witness re-check, `verify_partition_witness`, on the
lattice's greedy partition at level 1; `fekete_optimize` at k = 8 on [0, 1]
(the `refute_mix` job `fekete_8`) and at k = 12; and whole level searches:
the d4 estimate on the lacunary input and on Poisson input over +-10000 (the
`refute_mix` jobs `d4_lacunary` and `d4_poisson`), the d3 and the BM
estimates on the perturbed lattice over +-15000 (the `refute_mix` jobs
`d3_perturbed` and `bm_perturbed`), and the
gap certificate (`estimate_gap_characteristic`, which runs no Gram sweep) on
the lacunary input and on the Poisson input over +-30000. d3 on lacunary
input is left out: trees from before the ladder walk crash there. One
long-family search times each mode at a level near its estimate's answer:
'below' (d4) on the Poisson input over +-10000 at a = 0.962, 'above' (BM) on
the perturbed lattice over +-15000 at a = 1. The certificate's Gram crossing
(`sigma_min_crossing`, the Cholesky bisection `with_gram_crossing` runs) and
a plain sigma_min sweep of 40 grid points over 0.3-1.3 x 2*pi, as the
certificate ran before the crossing, are each timed on the 256 and the 512
lattice points nearest 0. The two array walks of `refute_mix` are timed on their own: the
Clark residue weights of every midpoint of the lattice over +-1500, and one
d3 matching of the perturbed lattice over +-15000 at slope a = 1
(`d3_perturbed` runs 24 of them). `regularize_gaps` is timed at C = 4 on the
Poisson input over +-30000, as the job `regularize_poisson` runs it. The job
`clark_lattice` itself, a `clark` run that writes only its JSON (3000
midpoints, 200 records held), is timed in process through `cli.main`. Three
stages every certificate process pays for: `load_points` on a file of the Poisson input
over +-30000, the energy report on the lattice's d1 witness over +-5000
(10 000 one-point intervals), and `total_energy` of the 2999 lattice points
of +-1499. `test_cli_process` times whole fresh `python -m gapkit.cli`
processes, start and exit included: `gap` on the lattice over +-1500,
`report` on the perturbed lattice over +-1500 and `density --method d4` on
the lacunary input, with one BLAS thread and PYTHONDONTWRITEBYTECODE=1, as
perfbench/run.py starts its jobs.

The file name keeps it out of the default test collection. Run it by path:

    PYTHONPATH=src python -m pytest benchmarks/bench_stages.py \
        --benchmark-json=benchmarks/BENCH_<date>.json

A run of the whole file is a smoke check, not a measurement: a stage's time
depends on the state of the one pytest process that runs every stage, and
stages whose code did not change have moved by a third between two such
runs. To quote a stage figure, run that stage alone in a fresh process
(`-k <stage>`), at least 3 times per side, alternating parent and change.
"""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapkit import cli
from gapkit.clarknum import residue_weights
from gapkit.density import (bm_density, d4_complement_estimate, density_d3_estimate,
                            density_lower, long_family_search, match_to_ideal_grid,
                            verify_partition_witness)
from gapkit.energy import energy_condition_report, total_energy
from gapkit.fekete import fekete_optimize
from gapkit.gapnum import (_nearest_zero, estimate_gap_characteristic,
                           sigma_min_crossing, sigma_min_sweep)
from gapkit.partitions import greedy_density_partition, shortness
from gapkit.regularize import regularize_gaps
from gapkit.seqcore import Partition, generate, load_points, save_points

# name -> (spec, window, level). The levels sit where the certificate spends
# its time: the lattice at its answer c = 1, the perturbed lattice and
# Poisson input inside their feasible range; greedy fails on lacunary input
# at every level, after walking all of its points near 0.
INPUTS = {
    "lattice": ("lattice:1", (-5000.0, 5000.0), 1.0),
    "perturbed": ("perturbed:1,0.2", (-1500.0, 1500.0), 0.5),
    "poisson": ("poisson:1", (-30000.0, 30000.0), 0.5),
    "lacunary": ("lacunary:2", (-1e6, 1e6), 1e-3),
}
SEED = 1


@functools.cache
def _input(name):
    spec, window, level = INPUTS[name]
    return generate(spec, window, seed=SEED), level


@pytest.mark.parametrize("name", list(INPUTS))
def test_greedy_partition(benchmark, name):
    seq, level = _input(name)
    res = benchmark(greedy_density_partition, seq, level)
    assert res.ok == (name != "lacunary")


@pytest.mark.parametrize("name", [n for n in INPUTS if n != "lacunary"])
def test_shortness(benchmark, name):
    seq, level = _input(name)
    part = greedy_density_partition(seq, level).partition
    rep = benchmark(shortness, part)
    assert rep.terms.size == part.breakpoints.size - 1


@pytest.mark.parametrize("name", [n for n in INPUTS if n != "lacunary"])
def test_energy_gate(benchmark, name):
    seq, level = _input(name)
    part = greedy_density_partition(seq, level).partition
    rep = benchmark(energy_condition_report, seq, part)
    assert rep.n.size == part.breakpoints.size - 1


def test_partition_witness(benchmark):
    seq, level = _input("lattice")
    part = greedy_density_partition(seq, level).partition
    assert benchmark(verify_partition_witness, seq, level, part)


@pytest.mark.parametrize("k", [8, 12])
def test_fekete(benchmark, k):
    res = benchmark(fekete_optimize, k, (0.0, 1.0))
    assert res.converged and res.max_deviation <= 1e-6


D4_WINDOWS = {"lacunary": (-1e6, 1e6), "poisson": (-10000.0, 10000.0)}


@pytest.mark.parametrize("name", list(D4_WINDOWS))
def test_d4_level_search(benchmark, name):
    seq = generate(INPUTS[name][0], D4_WINDOWS[name], seed=SEED)
    est = benchmark(d4_complement_estimate, seq)
    assert est.value == 0.0 if name == "lacunary" else 0.0 < est.value < 1.5


BM_WINDOWS = {"perturbed": (-15000.0, 15000.0)}


@pytest.mark.parametrize("name", list(BM_WINDOWS))
def test_bm_level_search(benchmark, name):
    seq = generate(INPUTS[name][0], BM_WINDOWS[name], seed=SEED)
    est = benchmark(bm_density, seq)
    assert 0.9 < est.value < 1.1 and est.witness["verified"]


def test_d3_level_search(benchmark):
    seq = generate("perturbed:1,0.2", (-15000.0, 15000.0), seed=SEED)
    est = benchmark(density_d3_estimate, seq)
    assert 0.9 < est.value < 1.1 and len(est.witness["residual_curve"]) == 4


def test_gap_level_search_lacunary(benchmark):
    seq, _ = _input("lacunary")
    cert = benchmark(estimate_gap_characteristic, seq)
    assert cert.c_estimate == 0.0


def test_gap_certificate_poisson(benchmark):
    seq, _ = _input("poisson")
    cert = benchmark(estimate_gap_characteristic, seq)
    assert 0.9 < cert.c_estimate <= 1.0


# name -> (spec, window, level, mode)
FAMILY_SEARCHES = {
    "poisson_below": ("poisson:1", (-10000.0, 10000.0), 0.962, "below"),
    "perturbed_above": ("perturbed:1,0.2", (-15000.0, 15000.0), 1.0, "above"),
}


@pytest.mark.parametrize("name", list(FAMILY_SEARCHES))
def test_long_family_search(benchmark, name):
    spec, window, level, mode = FAMILY_SEARCHES[name]
    seq = generate(spec, window, seed=SEED)
    found, evidence, _, terms = benchmark(lambda: long_family_search(seq, mode)(level))
    assert len(evidence) == terms.size > 0


@pytest.mark.parametrize("order", [256, 512])
def test_sigma_min_sweep(benchmark, order):
    seq, c = _input("lattice")
    lam = _nearest_zero(seq.points, order)
    grid = np.linspace(0.3, 1.3, 40) * (2.0 * math.pi * c)
    sigmas = benchmark(sigma_min_sweep, lam, grid)
    # the transition sits between 0.85 and 1.05 times 2*pi
    ratio = grid / (2.0 * math.pi)
    assert np.all(sigmas[ratio <= 0.85] < 1e-6) and np.all(sigmas[ratio >= 1.05] > 1.0)


@pytest.mark.parametrize("order", [256, 512])
def test_gram_crossing(benchmark, order):
    seq, _ = _input("lattice")
    lam = _nearest_zero(seq.points, order)
    found = benchmark(sigma_min_crossing, lam)
    assert 0.85 <= found.crossing / (2.0 * math.pi) <= 1.05


def test_residue_weights(benchmark):
    points = generate("lattice:1", (-1500.0, 1500.0)).points
    table = benchmark(residue_weights, points)
    assert table.n.size == points.size - 1


def test_clark_reported_records(benchmark, tmp_path):
    out = tmp_path / "clark.json"
    argv = ["clark", "--seq", "lattice:1", "--window=-1500,1500", "-o", str(out)]
    assert benchmark(cli.main, argv) == 0
    result = json.loads(out.read_text())["result"]
    assert result["n_reported"] == 3000 and len(result["records"]) == 200


def test_regularize_gaps(benchmark):
    seq, _ = _input("poisson")
    res = benchmark(regularize_gaps, seq, 4.0)
    assert res.max_gap <= 8.0 and len(res.added) == res.inserted.sum() > 0


def test_match_to_ideal_grid(benchmark):
    seq = generate("perturbed:1,0.2", (-15000.0, 15000.0), seed=SEED)
    matched = benchmark(match_to_ideal_grid, seq, 1.0)
    assert 0.99 * len(seq) < matched.size <= len(seq)


def test_load_points(benchmark, tmp_path):
    seq, _ = _input("poisson")
    path = tmp_path / "poisson.txt"
    save_points(path, seq.points)
    pts = benchmark(load_points, path)
    assert pts.tobytes() == seq.points.tobytes()


def test_energy_report_witness(benchmark):
    seq, _ = _input("lattice")
    part = Partition(np.array(density_lower(seq).witness["breakpoints"]))
    rep = benchmark(energy_condition_report, seq, part)
    assert rep.verdict == "supported" and rep.partial_sums.size == 10_000


def test_total_energy(benchmark):
    points = generate("lattice:1", (-1499.0, 1499.0)).points
    energy = benchmark(total_energy, points)
    assert points.size == 2999 and energy > 0


# name -> the arguments of one fresh gapkit process
CLI_PROCESSES = {
    "gap_lattice": ["gap", "--seq", "lattice:1", "--window=-1500,1500"],
    "report_perturbed": ["report", "--seq", "perturbed:1,0.2", "--window=-1500,1500",
                         "--seed", str(SEED)],
    "d4_lacunary": ["density", "--method", "d4", "--seq", "lacunary:2",
                    "--window=-1e6,1e6"],
}
_SRC = Path(__file__).resolve().parents[1] / "src"
_CLI_ENV = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONDONTWRITEBYTECODE="1",
                **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")})


@pytest.mark.parametrize("name", list(CLI_PROCESSES))
def test_cli_process(benchmark, tmp_path, name):
    argv = [sys.executable, "-m", "gapkit.cli", *CLI_PROCESSES[name], "-o", "out.json"]
    proc = benchmark(subprocess.run, argv, cwd=tmp_path, env=_CLI_ENV,
                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out.json").read_text())["command"] == CLI_PROCESSES[name][0]
