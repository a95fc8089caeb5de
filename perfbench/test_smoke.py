"""Smoke test of the benchmark runner, checker and tracer on tiny windows.

    python3 -m pytest -q perfbench/test_smoke.py

Runs a handful of real gapkit jobs on windows of a few hundred points, so it
takes seconds; the full workloads are run by perfbench/run.py.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
from checker import partition_counts
from tracer import load_spans, self_times
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Input, Job, Workload

HERE = Path(__file__).resolve().parent
L40 = (-40.0, 40.0)

TINY = Workload(
    why="smoke test",
    inputs=(
        Input("lattice", "lattice:1", L40),
        Input("lacunary", "lacunary:2", (-1e3, 1e3)),
        Input("poisson", "poisson:1", (-300.0, 300.0)),
    ),
    jobs=(
        Job("gap_lattice", "gap", "lattice", L40,
            check="gap", params={"c": 1.0}, oracle=True),
        Job("gap_lacunary", "gap", "lacunary", (-1e3, 1e3),
            check="gap", params={"c": 0.0}, oracle=True),
        Job("fekete_5", "fekete", None, None,
            extra=("-k", "5", "--interval", "0,1"), check="fekete",
            params={"k": 5, "interval": (0.0, 1.0)}, oracle=True),
        Job("clark_lattice", "clark", "lattice", L40, check="clark", oracle=True),
        Job("regularize_poisson", "regularize", "poisson", (-300.0, 300.0),
            extra=("--C", "4", "--out-prefix", "{prefix}"), check="regularize",
            params={"C": 4.0}, oracle=True),
        Job("bad_method", "density", "lattice", L40,
            extra=("--method", "d9"), check="d3", params={"value": 1.0}),
    ),
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    where = tmp_path_factory.mktemp("perfbench")
    deadline = time.monotonic() + 120
    _, files, setup_spans = run.setup(TINY, 7, where / "setup", deadline, traced=True)
    plain = run.run_batch(TINY, files, where / "plain", deadline, traced=False)
    traced = run.run_batch(TINY, files, where / "traced", deadline, traced=True)
    return files, setup_spans, plain, traced


def by_id(batch):
    return {r.job.id: r for r in batch.runs}


def test_benchmark_json_matches_spec():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]


def test_known_answers_and_failures_are_classified(tiny):
    _, _, plain, traced = tiny
    for batch in (plain, traced):
        runs = by_id(batch)
        for job_id in ("gap_lattice", "gap_lacunary", "fekete_5", "clark_lattice",
                       "regularize_poisson"):
            assert runs[job_id].kind == "ok", (job_id, runs[job_id].notes)
        assert runs["gap_lacunary"].proc.code == 3      # a verdict, not a failure
        assert runs["bad_method"].kind == "exit2" and runs["bad_method"].failed
    # tracing changes no reported value
    assert ({r.job.id: r.digest for r in plain.runs}
            == {r.job.id: r.digest for r in traced.runs})


def test_checker_rejects_a_wrong_certificate(tiny):
    files, _, plain, _ = tiny
    good = by_id(plain)["gap_lattice"]
    payload = json.loads(good.out.read_text())
    cert = payload["result"]["certificate"]
    cert["c_estimate"] = 1.2
    cert["g_estimate"] = 2 * np.pi * 1.2
    bad = run.JobRun(good.job, good.proc, good.out.with_name("tampered.json"), None)
    bad.out.write_text(json.dumps(payload))
    run.evaluate(bad, files)
    assert bad.kind == "witness" and bad.failed


def test_partition_counts_use_outward_half_open_intervals():
    pts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    # [-2, 0) holds -2, -1; (0, 2] holds 1, 2; 0 itself belongs to neither
    assert list(partition_counts(pts, np.array([-2.0, 0.0, 2.0]))) == [2, 2]


def test_self_time_subtracts_children():
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 60])
    parent = np.array([-1, 0, 1, 0])
    assert list(self_times(start, end, parent)) == [60, 20, 10, 10]


def test_each_call_is_rescaled_by_the_probes_beside_it(monkeypatch):
    probes = iter([0.5, 0.25, 0.125])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    results, seen, scales = run.probed(lambda x: 2 * x, [1, 2])
    assert results == [2, 4] and seen == [0.5, 0.25, 0.125]
    ref = run.PROBE_REF_S
    assert scales == pytest.approx([ref / 0.375, ref / 0.1875])


def test_peak_rss_is_the_jobs_own(tmp_path):
    ballast = np.ones(200 * 2**20 // 8)          # 200 MB resident in this process
    proc = run.run_proc([sys.executable, "-c", "pass"], tmp_path,
                        time.monotonic() + 60, "bare")
    assert proc.code == 0 and proc.rss_mb < 100
    del ballast


def test_spans_account_for_traced_wall_time(tiny):
    _, setup_spans, plain, traced = tiny
    m = run.span_metrics([r.spans for r in traced.runs if r.spans.is_file()])
    assert m["seqcore.generate.calls"] == 0
    gen = run.span_metrics(setup_spans)
    assert gen["seqcore.generate.calls"] == len(TINY.inputs)
    layers = run.layer_metrics(plain, traced, {k: gen[k] for k in run.GEN_KEYS})
    assert {metric.name for metric in PER_LAYER} <= set(layers)
    # greedy is reached through the name gapnum imported, so it nests in estimate
    assert m["gapnum.levels_per_cert"] > 0
    assert m["gapnum.gram.order"] == 81
    assert m["fekete.optimize.self_s"] > 0 and m["regularize.regularize_gaps.self_s"] > 0
    module_self = sum(m[f"{mod}.self_s"] for mod in run.MODULES)
    assert module_self == pytest.approx(m["trace.root_s"], rel=1e-9)
    walls = sum(r.proc.wall for r in traced.runs if r.spans.is_file())
    unaccounted = walls - m["cli.import_s"] - m["trace.root_s"]
    assert 0 < unaccounted < 0.5 * len(traced.runs)
    spans = load_spans(by_id(traced)["gap_lattice"].spans)
    assert spans["job"] == "gap_lattice"
    assert "cli.main" in set(spans["names"][spans["name"]])


@pytest.mark.parametrize("trace", [False, True])
def test_run_workload_reports_every_metric(tmp_path, monkeypatch, trace):
    small = Workload(why="smoke test", inputs=TINY.inputs[:1], jobs=TINY.jobs[:1])
    monkeypatch.setitem(run.WORKLOADS, "small", small)
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run_workload("small", 7, 1.0, trace)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m.name for m in (PER_LAYER if trace else END_TO_END)}
    assert all(v["value"] > 0 for k, v in metrics.items()
               if k in ("wall_norm_s", "setup_s", "cli.import_s", "gapnum.gram.self_s",
                        "raw.wall_s", "host.probe_s"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["digests"]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify_bisect",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
