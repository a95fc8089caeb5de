import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapkit
from gapkit import density, energy, gapnum, regularize
from gapkit import cli
from gapkit.cli import CONFIG_DEFAULTS, _build_parser, load_config, main
from gapkit.energy import total_energy


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["-o", str(out)])
    return code, json.loads(out.read_text())


def parsed_less_destinations(argv):
    """vars(parse_args(argv)) less the handler and the options that only say
    where output is written: what a report records as its `invocation`."""
    unrecorded = {"handler", "output", "csv", "out_prefix", "profile_csv"}
    return {k: v for k, v in vars(_build_parser().parse_args(argv)).items()
            if k not in unrecorded}


def test_gen_writes_201_lines(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    code = main(["gen", "--spec", "lattice:1", "--window=-100,100", "-o", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == 201
    # stdout carries the same bytes as the file
    capsys.readouterr()
    assert main(["gen", "--spec", "lattice:1", "--window=-100,100"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_density_cli(tmp_path):
    code, payload = run_json(
        ["density", "--method", "d1", "--seq", "lattice:1", "--window=-500,500"],
        tmp_path)
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(1.0, abs=0.05)
    assert payload["result"]["method"] == "d1"
    assert payload["command"] == "density"


def test_fekete_cli(tmp_path):
    code, payload = run_json(["fekete", "-k", "5", "--interval=-1,1"], tmp_path)
    assert code == 0
    res = payload["result"]
    assert res["max_deviation"] <= 1e-6
    assert res["residual"] <= 1e-8


def test_gap_certificate_cli(tmp_path):
    code, payload = run_json(
        ["gap", "--seq", "lattice:1", "--window=-1500,1500"], tmp_path)
    assert code == 0
    cert = payload["result"]["certificate"]
    assert 5.65 <= cert["g_estimate"] <= 6.29
    assert cert["g_estimate"] == pytest.approx(2 * math.pi * cert["c_estimate"])


def test_gap_sweep_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, payload = run_json(
        ["gap", "--seq", "lattice:1", "--window=0,63", "--sweep", "1.0:7.0:12",
         "--csv", str(csv_path)], tmp_path)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "a,sigma_min"
    assert len(lines) == 13
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    assert payload["result"]["sweep"] == {"points": rows}
    sigmas = [s for _, s in rows]
    assert all(b >= a - 1e-10 for a, b in zip(sigmas, sigmas[1:]))


def test_gap_synthesize_cli(tmp_path):
    code, payload = run_json(
        ["gap", "--seq", "lattice:1", "--window=0,31", "--synthesize", "3.14159"],
        tmp_path)
    assert code == 0
    syn = payload["result"]["synthesis"]
    assert syn["l2_gap_norm"] <= 1e-3


def test_gap_synthesize_resolves_a_long_gap(tmp_path):
    # a * (max - min frequency) is about 2e4 radians here
    code, payload = run_json(
        ["gap", "--seq", "lattice:1", "--window=-1500,1500", "--synthesize", "40"],
        tmp_path)
    assert code == 0
    syn = payload["result"]["synthesis"]
    assert abs(syn["quadrature_l2"] - syn["l2_gap_norm"] ** 2) <= 1e-8


def test_spread_cli(tmp_path):
    seq_file = tmp_path / "pts.txt"
    seq_file.write_text("0.0\n0.1\n10.0\n")
    code, payload = run_json(
        ["spread", "--seq", str(seq_file), "--J", "0,10", "--C", "2"], tmp_path)
    assert code == 0
    assert payload["result"]["points"] == [0.0, 5.0, 10.0]
    assert payload["result"]["energy_after"] >= payload["result"]["energy_floor"]


def test_spread_cli_computes_each_energy_once(tmp_path, monkeypatch):
    calls = []

    def counted(seq):
        calls.append(len(seq))
        return total_energy(seq)

    monkeypatch.setattr(energy, "total_energy", counted)
    monkeypatch.setattr(regularize, "total_energy", counted)
    code, payload = run_json(
        ["spread", "--seq", "lattice:3", "--window=-9000,9000", "--J", "0,60", "--C", "2"],
        tmp_path)
    assert code == 0
    assert calls == [6001, 6001]
    res = payload["result"]
    assert res["margin"] == res["energy_after"] - res["energy_floor"] > 0


def test_spread_infeasible_exit_3(tmp_path):
    seq_file = tmp_path / "pts.txt"
    seq_file.write_text("\n".join(str(x) for x in np.linspace(0, 10, 9)) + "\n")
    code, payload = run_json(
        ["spread", "--seq", str(seq_file), "--J", "0,10", "--C", "3"], tmp_path)
    assert code == 3
    assert not payload["result"]["ok"]


def test_regularize_cli(tmp_path):
    prefix = tmp_path / "reg"
    code, payload = run_json(
        ["regularize", "--seq", "lacunary:2", "--window=1,1024", "--C", "4",
         "--out-prefix", str(prefix)], tmp_path)
    assert code == 0
    assert payload["result"]["max_gap"] <= 8.0
    gamma = (tmp_path / "reg.gamma.txt").read_text().strip().splitlines()
    added = (tmp_path / "reg.added.txt").read_text().strip().splitlines()
    assert len(gamma) == 11 + len(added)


def test_regularize_near_1e8_allows_position_rounding(tmp_path):
    # positions near 1e8 round by up to an ulp, 1.5e-8: the smallest inserted
    # gap reads 1.09999999404 here, under C - 1e-9
    prefix = tmp_path / "reg"
    code, payload = run_json(
        ["regularize", "--seq", "lattice:7.7", "--window=1e8,1.00077e8", "--C", "1.1",
         "--out-prefix", str(prefix)], tmp_path)
    assert code == 0
    gamma = np.loadtxt(tmp_path / "reg.gamma.txt")
    assert float(np.max(np.diff(gamma))) <= 2.2
    assert payload["result"]["max_gap"] <= 2.2


def test_partition_cli_greedy_and_file(tmp_path):
    code, payload = run_json(
        ["partition", "--seq", "lattice:1", "--window=-200,200",
         "--partition", "greedy:d=1.0"], tmp_path)
    assert code == 0
    assert payload["result"]["shortness"]["verdict"] == "short"
    part_file = tmp_path / "part.json"
    part_file.write_text(json.dumps({"breakpoints": [-8, -4, -2, -1, 0, 1, 2, 4, 8]}))
    code2, payload2 = run_json(
        ["partition", "--seq", "lattice:1", "--window=-8,8",
         "--partition", str(part_file)], tmp_path, "p2.json")
    assert payload2["result"]["breakpoints"][0] == -8


def test_partition_cli_infeasible(tmp_path):
    code, payload = run_json(
        ["partition", "--seq", "lattice:2", "--window=-100,100",
         "--partition", "greedy:d=1.0"], tmp_path)
    assert code == 3
    assert payload["result"]["ok"] is False


def test_energy_cli_with_partition_csv(tmp_path):
    csv_path = tmp_path / "energy.csv"
    code, payload = run_json(
        ["energy", "--seq", "lattice:1", "--window=-150,150",
         "--partition", "greedy:d=1.0", "--csv", str(csv_path)], tmp_path)
    assert code == 0
    assert payload["result"]["total_energy"] > 0
    assert payload["result"]["energy_condition"]["verdict"] == "supported"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,a,b,count")
    assert len(lines) == 1 + len(payload["result"]["energy_condition"]["records"])
    assert str(csv_path) not in payload["invocation"].values()


@pytest.mark.parametrize("seq,level", [("lattice:1", "1.0"), ("perturbed:1,0.2", "0.5"),
                                       ("poisson:1", "0.5")])
def test_energy_csv_rows_are_the_json_records(tmp_path, seq, level):
    # both are written from the same arrays: every CSV field is the repr of
    # the JSON value at the same index, its partial sum included
    csv_path = tmp_path / "energy.csv"
    code, payload = run_json(
        ["energy", "--seq", seq, "--window=-300,300", "--seed", "5",
         "--partition", f"greedy:d={level}", "--csv", str(csv_path)], tmp_path)
    assert code in (0, 3)
    cond = payload["result"]["energy_condition"]
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == len(cond["records"]) == len(cond["partial_sums"]) > 0
    assert any(r["count"] >= 2 for r in cond["records"]) == (seq != "lattice:1")
    for row, r, ps in zip(rows, cond["records"], cond["partial_sums"]):
        values = (r["n"], *r["interval"], r["count"], r["energy"], r["summand"], r["dist0"], ps)
        assert row == [repr(v) for v in values]


def test_clark_cli(tmp_path):
    csv_path = tmp_path / "clark.csv"
    code, payload = run_json(
        ["clark", "--seq", "lattice:1", "--window=-400,400", "--width", "5",
         "--tail-mode", "persistent", "--csv", str(csv_path)], tmp_path)
    assert code == 0
    recs = payload["result"]["records"]
    assert all(abs(r["beta_n"] - 1 / math.pi) < 1e-3 for r in recs)
    header = csv_path.read_text().splitlines()[0]
    assert header == "n,a_n,delta_n,beta_n,tail_bound"
    assert str(csv_path) not in payload["invocation"].values()


@pytest.mark.parametrize("extra", [[], ["--width", "5"], ["--width", "5", "--tail-mode",
                                                           "persistent"]])
def test_clark_profile_computes_the_atom_sums_once(tmp_path, monkeypatch, extra):
    from gapkit import clarknum
    calls = {"theta_derivative_profile": 0, "residue_weights": 0, "_atom_sums": 0}
    for name in calls:
        real = getattr(clarknum, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(clarknum, name, counted)
    argv = ["clark", "--seq", "lattice:1", "--window=-60,60", *extra,
            "--profile=-3:3:13", "--csv", str(tmp_path / "recs.csv"),
            "--profile-csv", str(tmp_path / "prof.csv")]
    code, payload = run_json(argv, tmp_path)
    # one profile, which builds the table of every midpoint, and the
    # reported table, which reads its atom sums from the first
    assert code == 0 and calls == {"theta_derivative_profile": 1, "residue_weights": 2,
                                   "_atom_sums": 1}
    monkeypatch.undo()
    # the records and the profile are those of the two separate calls
    points = gapkit.generate("lattice:1", (-60, 60)).points
    width = float(extra[1]) if extra else None
    tail_mode = extra[3] if len(extra) > 2 else "none"
    table = clarknum.residue_weights(points, report_width=width, tail_mode=tail_mode)
    prof = clarknum.theta_derivative_profile(points, np.linspace(-3.0, 3.0, 13))
    result = payload["result"]
    assert [[r["n"], r["atom_sum"], r["beta_n"], r["tail_bound"]] for r in result["records"]] \
        == table.rows("n", "atom_sum", "beta_n", "tail_bound")
    assert result["profile_tail_bound"] == prof.tail_bound
    rows = (tmp_path / "prof.csv").read_text().splitlines()[1:]
    assert rows == [f"{x!r},{e!r}" for x, e in prof.pairs()]


@pytest.mark.parametrize("extra", [[], ["--width", "150"], ["--width", "250", "--tail-mode",
                                                              "persistent"],
                                   ["--width", "20"], ["--profile=-3:3:5"]])
def test_clark_json_sums_only_the_records_it_holds(tmp_path, monkeypatch, extra):
    # without --csv the JSON holds the first 200 records, and only their
    # atom sums are computed; they and n_reported equal a --csv run's
    from gapkit import clarknum
    seq = ["clark", "--seq", "lattice:1", "--window=-300,300", *extra]
    csv_path = tmp_path / "recs.csv"
    code, full = run_json(seq + ["--csv", str(csv_path)], tmp_path, "full.json")
    assert code == 0
    rows = []
    real = clarknum._atom_sums

    def counted(a, b, idx):
        rows.append(idx.size)
        return real(a, b, idx)
    monkeypatch.setattr(clarknum, "_atom_sums", counted)
    code, payload = run_json(seq, tmp_path)
    assert code == 0
    reported = full["result"]["n_reported"]
    assert reported == len(csv_path.read_text().splitlines()) - 1
    assert payload["result"] == full["result"]
    assert len(payload["result"]["records"]) == min(reported, cli.CLARK_JSON_RECORDS)
    # --profile sums every midpoint once, for the profile; else at most 200 rows
    if extra and extra[0].startswith("--profile"):
        assert rows == [600]
    else:
        assert rows == [min(reported, cli.CLARK_JSON_RECORDS)]


def test_clark_takes_breakpoints_of_any_extent(tmp_path):
    # the data reach past +-10000; only --width picks the midpoints reported
    code, payload = run_json(
        ["clark", "--seq", "poisson:1", "--window=-12000,12000", "--width", "5",
         "--seed", "1"], tmp_path)
    assert code == 0
    pts = gapkit.generate("poisson:1", (-12000, 12000), seed=1).points
    mids = 0.5 * (pts[:-1] + pts[1:])
    assert [r["b_n"] for r in payload["result"]["records"]] == mids[np.abs(mids) <= 5].tolist()
    assert payload["result"]["n_reported"] == 5


def test_report_cli(tmp_path):
    code, payload = run_json(
        ["report", "--seq", "lattice:1", "--window=-1000,1000"], tmp_path)
    assert code == 0
    res = payload["result"]
    assert res["density_d1"]["value"] == pytest.approx(1.0, abs=0.05)
    assert res["gap_certificate"]["c_estimate"] == pytest.approx(1.0, abs=0.1)


def test_report_runs_one_d1_search(tmp_path, monkeypatch):
    # the report reads density_d1 from the certificate's own d1 search
    calls = []
    real = density.density_lower

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(density, "density_lower", counted)
    monkeypatch.setattr(gapnum, "density_lower", counted)
    code, payload = run_json(
        ["report", "--seq", "perturbed:1,0.2", "--window=-300,300", "--seed", "1"],
        tmp_path)
    assert code == 0 and len(calls) == 1
    res = payload["result"]
    assert res["gap_certificate"]["c_estimate"] == res["density_d1"]["value"]
    assert (res["gap_certificate"]["partition_breakpoints"]
            == res["density_d1"]["witness"]["breakpoints"])


def test_determinism_except_timestamp(tmp_path):
    _, p1 = run_json(["density", "--method", "bm", "--seq", "lattice:1",
                      "--window=-300,300"], tmp_path, "a.json")
    _, p2 = run_json(["density", "--method", "bm", "--seq", "lattice:1",
                      "--window=-300,300"], tmp_path, "b.json")
    p1.pop("timestamp"), p2.pop("timestamp")
    assert p1 == p2


def test_invocation_embedded(tmp_path):
    argv = ["density", "--method", "d3", "--seq", "lattice:1", "--window=-200,200"]
    _, payload = run_json(argv, tmp_path)
    assert payload["invocation"] == {"command": "density", "config": None, "method": "d3",
                                     "seed": None, "seq": "lattice:1",
                                     "window": "-200,200"}
    assert payload["invocation"] == parsed_less_destinations(argv)


@pytest.mark.parametrize("spelling", [
    lambda p: ["-o", p],
    lambda p: ["-o" + p],
    lambda p: ["--output=" + p],
    lambda p: ["--out", p],
], ids=["-o X", "-oX", "--output=X", "--out X"])
def test_invocation_omits_output_path(tmp_path, spelling):
    out = tmp_path / "out.json"
    argv = ["density", "--method", "d3", "--seq", "lattice:1", "--window=-200,200"]
    assert main(argv + spelling(str(out))) == 0
    payload = json.loads(out.read_text())
    assert payload["invocation"] == parsed_less_destinations(argv + spelling(str(out)))
    assert payload["invocation"] == parsed_less_destinations(argv)
    assert str(out) not in payload["invocation"].values()


@pytest.mark.parametrize("argv", [
    ["density", "--seq", "s", "--method", "bm", "-o", "-5"],
    ["--conf", "c", "gap", "--c", "x.csv", "--sweep", "1:2:3", "--seq", "s"],
    ["--config=density", "density", "--seq", "s", "--method=bm", "-o=x"],
    ["spread", "--seq", "s", "--J", "0,1", "--C", "2", "--out-p", "pre", "--seed", "-3"],
    ["regularize", "--out-prefix=pre", "--seq", "s", "--C", "2", "--output", "o"],
    ["clark", "--seq", "s", "--profile=0:1:3", "--profile-c", "p.csv",
     "--profile-csv=q.csv", "-oo.json"],
    ["fekete", "-k5", "--interval=-1,1", "-o", "f"],
    ["gap", "--seq", "s", "--cs", "g.csv", "--sweep", "1:2:3", "--seed=2"],
])
def test_invocation_reparses_without_destinations(argv, tmp_path, monkeypatch):
    # every handler only returns a result, so these argvs need no real
    # input; the two --config files they name are empty
    monkeypatch.chdir(tmp_path)
    for name in ("c", "density"):
        (tmp_path / name).write_text("")
    recorded = []
    monkeypatch.setattr(cli, "_emit", lambda output, command, invocation, cfg, result:
                        recorded.append(invocation))
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, lambda args, cfg: (0, {}))
    assert main(argv) == 0
    assert recorded == [parsed_less_destinations(argv)]


def test_report_bytes_ignore_destinations(tmp_path):
    texts = []
    for name, dest in (("a", lambda j, c: ["-o", j, "--csv", c]),
                       ("b", lambda j, c: ["--output=" + j, "--cs", c])):
        out = tmp_path / f"{name}.json"
        code = main(["clark", "--seq", "lattice:1", "--window=-50,50"]
                    + dest(str(out), str(tmp_path / f"{name}.csv")))
        assert code == 0
        texts.append([line for line in out.read_text().splitlines()
                      if '"timestamp":' not in line])
    assert texts[0] == texts[1]


def test_gen_over_point_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    assert main(["gen", "--spec", "lattice:1e-12", "--window=0,1", "-o", str(out)]) == 2
    assert "limit" in capsys.readouterr().err
    assert not out.exists()


def test_regularize_over_point_cap_exits_2(tmp_path, capsys):
    # one gap of 1e12 at C = 2 would need 5e11 inserted points (3.64 TiB)
    seq_file = tmp_path / "pts.txt"
    seq_file.write_text("0.0\n1e12\n")
    out = tmp_path / "out.json"
    assert main(["regularize", "--seq", str(seq_file), "--C", "2", "-o", str(out)]) == 2
    assert "limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,out_name", [
    (["gen", "--spec", "poisson:1"], "seq.txt"),
    (["density", "--method", "d1", "--seq", "poisson:1"], "out.json"),
])
def test_negative_seed_exits_2(tmp_path, capsys, argv, out_name):
    out = tmp_path / out_name
    assert main(argv + ["--window=-10,10", "--seed", "-1", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert "seed must be a non-negative integer, got -1" in captured.err
    assert captured.out == "" and not out.exists()


def test_fekete_over_point_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["fekete", "-k", "100000", "--interval", "0,1", "-o", str(out)]) == 2
    assert "at most" in capsys.readouterr().err
    assert not out.exists()


def test_fekete_cli_has_no_seed(tmp_path):
    argv = ["fekete", "-k", "5", "--interval=0,1", "-o", str(tmp_path / "f.json")]
    assert main(argv) == 0
    assert main(argv + ["--seed", "1"]) == 2


def test_density_has_one_partition_method(tmp_path, capsys):
    # d1 is the one greedy short-partition search; d2 is not a method
    out = tmp_path / "out.json"
    argv = ["density", "--method", "d2", "--seq", "lattice:1", "--window=-50,50",
            "-o", str(out)]
    assert main(argv) == 2
    assert "argument --method: invalid choice: 'd2'" in capsys.readouterr().err
    assert not out.exists()


def test_parameter_error_exit_2(tmp_path):
    assert main(["gen", "--spec", "lattice:0", "--window=0,10"]) == 2
    assert main(["density", "--method", "d1", "--seq", "lattice:1"]) == 2  # no window
    assert main(["nonsense"]) == 2
    assert main([]) == 2


def test_config_file_and_env(tmp_path):
    cfg = tmp_path / "gapkit.conf"
    cfg.write_text("# comment\nsweep_n_max=11\n")
    assert load_config(str(cfg)) == {"sweep_n_max": 11}
    argv = ["--config", str(cfg), "density", "--method", "d1", "--seq", "lattice:1",
            "--window=-200,200"]
    _, payload = run_json(argv, tmp_path, "global.json")
    assert payload["config"] == {"sweep_n_max": 11}
    assert payload["invocation"] == parsed_less_destinations(argv)
    assert payload["invocation"]["config"] == str(cfg)


def test_gapkit_config_env_is_ignored(tmp_path, monkeypatch):
    cfg = tmp_path / "gapkit.conf"
    cfg.write_text("sweep_n_max=11\n")
    argv = ["density", "--method", "d1", "--seq", "lattice:1", "--window=-200,200"]
    for named in (str(cfg), str(tmp_path / "nope.conf")):
        monkeypatch.setenv("GAPKIT_CONFIG", named)
        assert load_config() == CONFIG_DEFAULTS
        code, payload = run_json(argv, tmp_path)
        assert code == 0 and payload["config"] == CONFIG_DEFAULTS


def test_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.conf")
    argv = ["density", "--method", "d1", "--seq", "lattice:1", "--window=-50,50"]
    assert main(["--config", missing] + argv) == 2
    assert "nope.conf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["density", "--method", "d1", "--seq", "lattice:1", "--window=-50,50", "-o", "x.json"],
    ["gen", "--spec", "lattice:1", "--window=-50,50", "-o", "s.txt"],
    ["gap", "--seq", "lattice:1", "--window=-50,50", "--csv", "c.csv"],
    ["regularize", "--seq", "lattice:1", "--window=-50,50", "--C", "4",
     "--out-prefix", "p"],
], ids=["report", "sequence file", "CSV", "out-prefix"])
def test_unwritable_destination_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    argv = argv[:-1] + [str(missing / argv[-1])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "cannot write" in captured.err and str(missing) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_gap_and_report_share_the_crossing(tmp_path):
    argv = ["--seq", "lattice:1", "--window=-60,60"]
    _, gap = run_json(["gap"] + argv, tmp_path, "gap.json")
    _, report = run_json(["report"] + argv, tmp_path, "report.json")
    cert = gap["result"]["certificate"]
    assert report["result"]["gap_certificate"]["crossing"] == cert["crossing"]
    assert "sweep" not in cert and "gram_knee" not in cert
    crossing = cert["crossing"]
    # 121 points of unit spacing: the range is [0, 8*pi], whatever c is
    assert crossing["range"] == [0.0, 8.0 * math.pi] and crossing["support"] == 121
    assert crossing["probes"][0] == [8.0 * math.pi, True]
    passed = [a for a, ok in crossing["probes"] if ok]
    failed = [a for a, ok in crossing["probes"] if not ok]
    assert cert["gram_crossing"] == min(passed)
    assert 0.0 < min(passed) - max(failed) <= 2.0 * math.pi * density.GRID_RESOLUTION
    ratio = cert["diagnostics"]["crossing_over_2pic"]
    assert ratio == cert["gram_crossing"] / (2.0 * math.pi * cert["c_estimate"])


def test_gap_csv_writes_the_crossing_probes(tmp_path):
    csv_path = tmp_path / "probes.csv"
    code, payload = run_json(["gap", "--seq", "lattice:1", "--window=-60,60",
                              "--csv", str(csv_path)], tmp_path)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "a,passed"
    probes = payload["result"]["certificate"]["crossing"]["probes"]
    assert lines[1:] == [f"{a!r},{ok}" for a, ok in probes]


def test_cli_import_leaves_out_scipy():
    # gapkit needs no scipy, not even for the Jacobi zeros of the fekete command
    code = ("import sys, gapkit.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n"
            "from gapkit.fekete import fekete_optimize\n"
            "res = fekete_optimize(4, (-1.0, 1.0))\n"
            "assert res.converged and res.max_deviation <= 1e-6, res\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    src = str(Path(gapkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_certificate_commands_leave_out_numpy_ma(tmp_path):
    # np.percentile, np.median and np.unique import numpy.ma on first use,
    # about 10 ms of each process
    path = tmp_path / "seq.txt"
    assert main(["gen", "--spec", "perturbed:1,0.2", "--window=-200,200", "--seed", "1",
                 "-o", str(path)]) == 0
    runs = [["gap", "--seq", "lattice:1", "--window=-200,200"],
            ["report", "--seq", str(path)],
            *(["density", "--method", m, "--seq", str(path)] for m in ("d1", "d3", "d4", "bm"))]
    code = ("import sys\n"
            "from gapkit.cli import main\n"
            f"codes = [main(argv + ['-o', {str(tmp_path / 'out.json')!r}]) for argv in {runs!r}]\n"
            "assert codes == [0] * len(codes), codes\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    src = str(Path(gapkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv,loaded", [
    (["density", "--method", "d3", "--seq", "lattice:1", "--window=-100,100"],
     {"seqcore", "partitions", "density"}),
    (["clark", "--seq", "lattice:1", "--window=-20,20"], {"seqcore", "clarknum"}),
    (["gen", "--spec", "lattice:1", "--window=-10,10"], {"seqcore"}),
])
def test_each_command_imports_only_what_it_uses(tmp_path, argv, loaded):
    code = ("import sys\n"
            "from gapkit.cli import main\n"
            f"assert main({argv!r} + ['-o', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(' '.join(m for m in sys.modules if m.startswith('gapkit.')))\n")
    src = str(Path(gapkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert {m.removeprefix("gapkit.") for m in proc.stdout.split()} == loaded | {"cli"}


def _cli_process(argv, tmp_path):
    """`python -m gapkit.cli argv`, the process entry `run()`, in a fresh
    process whose stdout is block-buffered, so output left unflushed at exit
    would be lost."""
    src = str(Path(gapkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "gapkit.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def _less_timestamp(text):
    payload = json.loads(text)
    del payload["timestamp"]
    return payload


@pytest.mark.parametrize("argv,code", [
    (["gap", "--seq", "lattice:1", "--window=-60,60"], 0),
    (["gap", "--seq", "lattice:1", "--window=-60"], 2),
    (["gap", "--seq", "lacunary:2", "--window=-1e6,1e6"], 3),
])
def test_process_exit_code_is_main_s(tmp_path, capsys, argv, code):
    proc = _cli_process(argv + ["-o", "process.json"], tmp_path)
    assert proc.returncode == code, proc.stderr
    assert main(argv + ["-o", str(tmp_path / "main.json")]) == code
    if code == 2:
        assert proc.stderr == capsys.readouterr().err
    else:
        assert (_less_timestamp((tmp_path / "process.json").read_text())
                == _less_timestamp((tmp_path / "main.json").read_text()))


def test_process_stdout_is_the_whole_report(tmp_path):
    argv = ["gap", "--seq", "lattice:1", "--window=-60,60"]
    proc = _cli_process(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 0
    assert proc.stdout.endswith("}\n")
    assert _less_timestamp(proc.stdout) == _less_timestamp((tmp_path / "out.json").read_text())


@pytest.mark.parametrize("argv", [
    ["gap", "--seq", "lattice:1", "--window=-60,60"],
    ["gap", "--seq", "lattice:1", "--window=-60"],
    ["gen", "--spec", "lattice:1", "--window=-10,10"],
])
def test_main_leaves_gc_state_alone(tmp_path, argv):
    before = gc.isenabled(), gc.get_freeze_count()
    main(argv + ["-o", str(tmp_path / "out")])
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"gapkit": "gapkit.cli:run"}


def test_every_exported_name_resolves():
    for name in gapkit.__all__:
        obj = getattr(gapkit, name)
        assert obj.__name__ == name and obj.__module__.startswith("gapkit.")
    assert set(gapkit.__all__) <= set(dir(gapkit))
    with pytest.raises(AttributeError):
        gapkit.no_such_name


@pytest.mark.parametrize("text,needle", [
    ("sweep_n_maxx = 64\n", "unknown config key 'sweep_n_maxx'"),
    ("sweep_points = 11\n", "unknown config key 'sweep_points'"),
    ("sweep_lo_factor = 0.9\n", "unknown config key 'sweep_lo_factor'"),
    ("clark_radius = 1e4\n", "unknown config key 'clark_radius'"),
    ("resolution = 0.01\n", "unknown config key 'resolution'"),
    ("sweep_n_max = abc\n", "must be a number"),
    ("sweep_n_max = nan\n", "must be finite"),
    ("sweep_n_max = inf\n", "must be finite"),
    ("sweep_n_max = 1\xff\n", "bad.conf': not UTF-8 text"),
])
def test_bad_config_exits_2(tmp_path, capsys, text, needle):
    cfg = tmp_path / "bad.conf"
    cfg.write_text(text, encoding="latin-1")
    argv = ["--config", str(cfg), "density", "--method", "d1", "--seq", "lattice:1",
            "--window=-50,50", "-o", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("spec,needle", [
    ("lattice:abc", "takes 1 numeric parameter"),
    ("lattice:1,2", "takes 1 numeric parameter"),
    ("perturbed:1", "takes 2 numeric parameters"),
])
def test_malformed_law_spec_exits_2(tmp_path, capsys, spec, needle):
    out = tmp_path / "out.json"
    assert main(["density", "--method", "d1", "--seq", spec, "--window=0,10",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert needle in err and repr(spec) in err
    assert not out.exists()


@pytest.mark.parametrize("argv,needle", [
    (["partition", "--partition", "greedy:d=abc"], "--partition must have the form greedy:d=<number>"),
    (["partition", "--partition", "greedy:d=nan"], "--partition must have the form greedy:d=<number>"),
    (["gap", "--sweep", "1:2"], "--sweep must have the form a0:a1:steps"),
    (["gap", "--sweep", "1:2:2.5"], "--sweep must have the form a0:a1:steps"),
    (["gap", "--sweep", "1:2:0"], "--sweep must have the form a0:a1:steps"),
    (["clark", "--profile", "1:2"], "--profile must have the form x0:x1:steps"),
    (["clark", "--profile", "0:abc:3"], "--profile must have the form x0:x1:steps"),
    (["gap", "--sweep", "1:2:10001"], "--sweep takes at most 10000 steps"),
    (["clark", "--profile", "1:2:10001"], "--profile takes at most 10000 steps"),
])
def test_malformed_option_value_exits_2(tmp_path, capsys, argv, needle):
    out = tmp_path / "out.json"
    assert main(argv + ["--seq", "lattice:1", "--window=-10,10", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert needle in err and repr(argv[-1]) in err
    assert not out.exists()


GAP_LATTICE = ["gap", "--seq", "lattice:1", "--window=-10,10"]


@pytest.mark.parametrize("value", ["-5", "2.7", "0"])
@pytest.mark.parametrize("command", [
    GAP_LATTICE,
    GAP_LATTICE + ["--sweep", "1:2:3"],
    GAP_LATTICE + ["--synthesize", "3"],
    # c = 0 here, so no Gram support is ever chosen: the config itself is checked
    ["gap", "--seq", "lacunary:2", "--window=-1e3,1e3"],
    ["density", "--method", "d1", "--seq", "lattice:1", "--window=-10,10"],
    # gen never reads the setting, nor imports gapnum, yet the config is checked
    ["gen", "--spec", "lattice:1", "--window=-10,10"],
])
def test_sweep_n_max_must_be_a_positive_integer(tmp_path, capsys, value, command):
    cfg = tmp_path / "n.conf"
    cfg.write_text(f"sweep_n_max = {value}\n")
    out = tmp_path / "out.json"
    assert main(["--config", str(cfg)] + command + ["-o", str(out)]) == 2
    assert f"sweep_n_max must be a positive integer, got {float(value)!r}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_synthesis_runs_on_the_sweep_support(tmp_path):
    # 3001 points; the 512 nearest 0 are the support of both
    argv = ["gap", "--seq", "lattice:1", "--window=-1500,1500"]
    _, syn = run_json(argv + ["--synthesize", "3.0"], tmp_path, "syn.json")
    _, sweep = run_json(argv + ["--sweep", "3.0:4.0:2"], tmp_path, "sweep.json")
    syn = syn["result"]["synthesis"]
    points = gapkit.generate("lattice:1", (-1500, 1500)).points
    assert syn["positions"] == gapnum._nearest_zero(points, 512).tolist()
    assert len(syn["positions"]) == 512 and max(map(abs, syn["positions"])) == 256
    sigma = sweep["result"]["sweep"]["points"][0]
    assert sigma[0] == 3.0
    assert abs(syn["l2_gap_norm"] ** 2 - sigma[1]) <= 1e-12


@pytest.mark.parametrize("content,needle", [
    (None, "cannot read partition"),
    ("[-1, 0, 1", "is neither a JSON list of numbers"),
    ('{"points": [-1, 0, 1]}', "is neither a JSON list of numbers"),
    ('{"breakpoints": [-1, "a", 1]}', "is neither a JSON list of numbers"),
    ("[-Infinity, 0, 5, 20]", "breakpoints must be finite"),
    ("[-20, 0, NaN]", "breakpoints must be finite"),
])
@pytest.mark.parametrize("command", ["energy", "partition"])
def test_bad_partition_file_exits_2(tmp_path, capsys, content, needle, command):
    path = tmp_path / "part.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out.json"
    assert main([command, "--seq", "lattice:1", "--window=-10,10",
                 "--partition", str(path), "-o", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,needle", [
    (["regularize", "--C", "nan"], "gap constant C must exceed 1"),
    (["spread", "--J", "0,5", "--C", "nan"], "spreading constant C must exceed 1"),
    (["clark", "--width", "nan"], "report width must be at least 0"),
    (["clark", "--width", "-1"], "report width must be at least 0"),
])
def test_nan_scalar_options_exit_2(tmp_path, capsys, argv, needle):
    out = tmp_path / "out.json"
    assert main(argv + ["--seq", "lattice:1", "--window=-10,10", "-o", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,needle", [
    (["fekete", "-k", "5", "--interval", "x,1"], "--interval lo must be a number"),
    (["fekete", "-k", "5", "--interval=0,inf"], "--interval hi must be finite"),
    (["fekete", "-k", "5", "--interval", "1,0"], "window [1.0, 0.0] is empty"),
    (["spread", "--seq", "lattice:1", "--window=-10,10", "--J", "0", "--C", "2"],
     "--J must be 'lo,hi'"),
    (["spread", "--seq", "lattice:1", "--window=-10,10", "--J", "5,5", "--C", "2"],
     "window [5.0, 5.0] is empty"),
    (["density", "--method", "d1", "--seq", "lattice:1", "--window", "0"],
     "parameter error: window must be 'lo,hi'"),
])
def test_range_errors_name_their_option(tmp_path, capsys, argv, needle):
    out = tmp_path / "out.json"
    assert main(argv + ["-o", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_threads_option_is_gone():
    assert main(["gap", "--threads", "2", "--seq", "lattice:1", "--window=0,10"]) == 2


@pytest.mark.parametrize("window", ["-inf,20", "0,inf", "nan,20", "abc,20", "0,1e999"])
def test_non_finite_window_exits_2(capsys, window):
    assert main(["density", "--method", "d1", "--seq", "lattice:1",
                 f"--window={window}"]) == 2
    assert "parameter error" in capsys.readouterr().err
    assert main(["gen", "--spec", "lattice:1", f"--window={window}"]) == 2


@pytest.mark.parametrize("option", [["--sweep", "1:1e308:3"], ["--synthesize", "1e308"]])
def test_gram_phase_overflow_exits_2(tmp_path, capsys, option):
    out = tmp_path / "out.json"
    assert main(GAP_LATTICE + option + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "gapkit: parameter error: a * (max - min frequency) overflows float64" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", [
    ["energy"],
    ["density", "--method", "d3"],
    ["density", "--method", "d4"],
    ["density", "--method", "bm"],
    ["gap", "--synthesize", "1e-308"],
])
def test_span_past_float64_exits_2(tmp_path, capsys, command):
    # finite ends 3.4e308 apart: every length built from them is inf
    out = tmp_path / "out.json"
    seq = ["--seq", "lattice:1e307", "--window=-1.7e308,1.7e308"]
    assert main(command + seq + ["-o", str(out)]) == 2
    assert "gapkit: parameter error: window [-1.7e+308, 1.7e+308] is wider than float64" \
        in capsys.readouterr().err
    path = tmp_path / "pts.txt"
    path.write_text("-1.7e308\n0.0\n1.7e308\n")
    assert main(command + ["--seq", str(path), "-o", str(out)]) == 2
    assert "points span [-1.7e+308, 1.7e+308] is wider than float64" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["density", "--method", "d1"], ["gap"], ["energy"]])
def test_empty_window_on_a_file_exits_2(tmp_path, capsys, command):
    # a file's window obeys the rule a law's does, as `gen` reads it
    path = tmp_path / "pts.txt"
    path.write_text("0.0\n5.0\n10.0\n")
    assert main(["gen", "--spec", str(path), "--window=5,5"]) == 2
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert main(command + ["--seq", str(path), "--window=5,5", "-o", str(out)]) == 2
    assert "window [5.0, 5.0] is empty" in capsys.readouterr().err
    assert not out.exists()


def test_partition_outside_the_window_names_both(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("[-1, 0, 0.5]")
    out = tmp_path / "out.json"
    assert main(["energy", "--seq", "lacunary:2", "--window=1,100", "--partition",
                 str(path), "-o", str(out)]) == 2
    assert ("the partition covers [-1.0, 0.5], which does not meet the sequence "
            "window [1.0, 100.0]") in capsys.readouterr().err
    assert not out.exists()


def test_infinite_lacunary_ratio_exits_2(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["gap", "--seq", "lacunary:inf", "--window=-10,10", "-o", str(out)]) == 2
    assert "lacunary ratio" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_file_points_exit_2(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("0.0\nnan\n2.0\n")
    assert main(["density", "--method", "d1", "--seq", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("window", [[], ["--window=-20,20"]])
def test_file_spellings_load_alike(tmp_path, window):
    path = tmp_path / "pts.txt"
    np.savetxt(path, np.arange(-20.0, 21.0))
    reports = []
    for i, spec in enumerate([str(path), f"file:{path}"]):
        code, payload = run_json(["density", "--method", "d1", "--seq", spec] + window,
                                 tmp_path, f"{i}.json")
        assert code == 0
        payload.pop("timestamp"), payload.pop("invocation")
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["result"]["window"] == [-20.0, 20.0]


def test_gen_and_seq_read_a_file_named_like_a_law(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lattice:1").write_text("0.5\n2.5\n")
    assert main(["gen", "--spec", "lattice:1", "--window=0,10", "-o", "gen.txt"]) == 0
    assert (tmp_path / "gen.txt").read_text() == "0.5\n2.5\n"
    code, payload = run_json(["energy", "--seq", "lattice:1", "--window=0,10"], tmp_path)
    assert code == 0
    assert payload["result"]["n_points"] == 2


@pytest.mark.parametrize("argv", [
    ["density", "--method", "d1"],
    ["partition", "--partition", "greedy:d=1.0"],
    ["spread", "--J", "0,5", "--C", "2"],
    ["regularize", "--C", "2"],
    ["report"],
])
def test_csv_only_where_a_table_is_written(tmp_path, argv):
    csv_path = tmp_path / "t.csv"
    out = tmp_path / "out.json"
    assert main(argv + ["--seq", "lattice:1", "--window=-20,20", "--csv", str(csv_path),
                        "-o", str(out)]) == 2
    assert not csv_path.exists() and not out.exists()


def test_missing_sequence_file_exits_2(tmp_path, capsys):
    for window in ([], ["--window=0,1"]):
        argv = ["density", "--method", "d1", "--seq", str(tmp_path / "nope.txt")]
        assert main(argv + window) == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["density", "--method", "d1"], ["gap"]])
def test_subnormal_spacings_exit_2(tmp_path, capsys, command):
    # ten spacings of 5e-324 put the level search's top rung at inf
    path = tmp_path / "pts.txt"
    path.write_text("".join(f"{x!r}\n" for x in [k * 5e-324 for k in range(11)] + [1.0, 2.0, 3.0]))
    out = tmp_path / "out.json"
    assert main(command + ["--seq", str(path), "--window=-5,5", "-o", str(out)]) == 2
    assert "spacings down to 4.94e-324" in capsys.readouterr().err
    assert not out.exists()


def test_fekete_500_converges_cli(tmp_path):
    code, payload = run_json(["fekete", "-k", "500", "--interval", "0,1"], tmp_path)
    assert code == 0 and payload["result"]["converged"]
