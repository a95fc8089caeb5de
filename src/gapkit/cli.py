"""Command-line front end; the only module with side effects.

Subcommands: gen | energy | partition | density | spread | regularize |
fekete | gap | clark | report. Every run writes a JSON report embedding the
invocation and the effective configuration (under `config`). `invocation`
is the object of the arguments argparse parsed, defaults included, keyed by
their names (`command`, `config`, `seq`, ...), less the options that only
say where output is written (`-o/--output`, `--csv`, `--out-prefix`,
`--profile-csv`). So runs with the same inputs, however their options are
spelled or ordered and wherever they write, give the same report bytes
apart from `timestamp`. The one exception is `gap --synthesize`, whose
weights depend on the BLAS thread count (see
`gapnum.synthesize_gap_measure`). The configuration comes from the
`--config` file alone, else from CONFIG_DEFAULTS. `--csv` exists on
`energy`, `gap` and `clark`, the commands that write a table, and writes it
plot-ready (header row, no units). Exit codes: 0 success, 2 parameter error
(an output path that cannot be written included), 3 infeasible or
inconclusive (diagnostics still written).
Each handler `_cmd_*` takes (args, cfg), writes any CSV and side files and
returns (exit code, result), which `main` writes as the report (`gen` writes
its points and returns no result). Each handler imports the gapkit modules
it uses, so a command loads only those: `gen` loads seqcore alone.

The process entry is `run()`, for `python -m gapkit.cli` and the `gapkit`
console script: `main()`, then `gc.freeze()`, then exit. The collections the
interpreter runs at exit skip frozen objects, and so the cyclic module, class
and function graph of numpy and gapkit is not torn down. Exit still flushes
stdout and stderr and runs atexit handlers, and every file a command writes
is closed by its `with` block before `main()` returns. `main()` never touches
GC state.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import seqcore
from .seqcore import ParameterError, Partition, PointSequence

# sweep_n_max: every Gram crossing, sigma_min sweep and synthesis runs on at
# most this many points nearest 0
CONFIG_DEFAULTS = {"sweep_n_max": 512.0}
# Most steps a count field of an option value (`gap --sweep`, `clark
# --profile`) may ask for. Each sweep step is a dense Gram eigensolve, about
# 20 ms at the default order of 512 on one BLAS thread, so 10^4 steps take
# minutes and 10^6 would run for hours.
MAX_OPTION_STEPS = 10_000
# Records the `clark` JSON holds; --csv writes every one.
CLARK_JSON_RECORDS = 200


def load_config(path=None) -> dict:
    """key=value text config; CLI flags override these values.

    The file is `path` (the `--config` option) alone; without one, the
    defaults. A file that cannot be read or is not UTF-8 text, a key outside
    CONFIG_DEFAULTS and a value that is not a finite number, or a sweep_n_max
    that is not a positive integer, are ParameterErrors, not a silent
    fall-back to the defaults.
    """
    cfg = dict(CONFIG_DEFAULTS)
    if not path:
        return cfg
    with seqcore._open_text(path, "config") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise ParameterError(f"cannot read config {path!r}: not UTF-8 text") from None
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ParameterError(f"unknown config key {key!r} in {path!r}; "
                                 f"known keys: {', '.join(sorted(CONFIG_DEFAULTS))}")
        cfg[key] = _finite(val, f"config key {key!r}")
    seqcore._check_sweep_n_max(cfg["sweep_n_max"])
    return cfg


def _finite(text: str, what: str) -> float:
    """A finite float parsed from text, else a ParameterError naming it."""
    try:
        value = float(text)
    except ValueError:
        raise ParameterError(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"{what} must be finite, got {text!r}")
    return value


def _option_values(option: str, text: str, form: str, kinds: str,
                   prefix: str = "") -> tuple:
    """The ':'-separated fields of an option value after `prefix`, each a
    finite float (kind 'f') or a count from 1 to MAX_OPTION_STEPS (kind 'n');
    a ParameterError naming the option and its expected form, or the cap,
    otherwise."""
    bad = ParameterError(f"{option} must have the form {form}, got {text!r}")
    fields = text[len(prefix):].split(":")
    if not text.startswith(prefix) or len(fields) != len(kinds):
        raise bad
    values = []
    for kind, field_ in zip(kinds, fields):
        try:
            x = int(field_) if kind == "n" else float(field_)
        except ValueError:
            raise bad from None
        if not (x >= 1 if kind == "n" else math.isfinite(x)):
            raise bad
        if kind == "n" and x > MAX_OPTION_STEPS:
            raise ParameterError(f"{option} takes at most {MAX_OPTION_STEPS} steps, "
                                 f"got {text!r}")
        values.append(x)
    return tuple(values)


def _parse_window(text: str, option: str = "window") -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(f"{option} must be 'lo,hi', got {text!r}")
    return _finite(parts[0], f"{option} lo"), _finite(parts[1], f"{option} hi")


def _load_sequence(args) -> PointSequence:
    """The --seq sequence on --window; `seqcore.generate` rejects a law
    without one. A file loads through `seqcore._load_file`, not `generate`,
    whose calls perfbench counts as input generation."""
    window = _parse_window(args.window) if args.window else None
    kind, path = seqcore.parse_sequence_spec(args.seq)
    if kind == "explicit":
        return seqcore._load_file(path, window)
    return seqcore.generate(args.seq, window, seed=args.seed)


def _load_partition(text: str, seq: PointSequence):
    from . import partitions
    if text.startswith("greedy:"):
        (d,) = _option_values("--partition", text, "greedy:d=<number>", "f", "greedy:d=")
        res = partitions.greedy_density_partition(seq, d)
        if not res.ok:
            return None, res
        return res.partition, res
    with seqcore._open_text(text, "partition") as fh:
        try:
            data = json.load(fh)
            bks = np.array(data["breakpoints"] if isinstance(data, dict) else data,
                           dtype=float)
        except (KeyError, TypeError, ValueError):
            raise ParameterError(f"partition {text!r} is neither a JSON list of numbers "
                                 f"nor an object with one under 'breakpoints'") from None
    return Partition(bks), None


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _emit(output, command: str, invocation: dict, cfg: dict, result: dict) -> None:
    """Write the JSON report to `output`, or to stdout when it is None.

    `invocation` is the parsed arguments less output destinations (see
    `main`). The effective configuration goes under `config`; only
    `timestamp` differs between runs with the same inputs.
    """
    payload = {
        "command": command,
        "invocation": invocation,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "result": _jsonable(result),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        with seqcore._open_text(output, "report", "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _certificate(seq: PointSequence, cfg: dict) -> gapnum.GapCertificate:
    """The gap certificate with its Gram crossing, under the effective
    configuration."""
    from . import gapnum
    cert = gapnum.estimate_gap_characteristic(seq)
    return gapnum.with_gram_crossing(cert, seq, cfg["sweep_n_max"])


def _write_csv(path, header, rows) -> None:
    with seqcore._open_text(path, "CSV", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args, cfg):
    seq = seqcore.generate(args.spec, _parse_window(args.window), seed=args.seed)
    if args.output:
        seqcore.save_points(args.output, seq.points)
    else:
        seqcore._write_points(sys.stdout, seq.points)
    return 0, None


def _cmd_energy(args, cfg):
    from . import energy
    seq = _load_sequence(args)
    result = {"n_points": len(seq), "total_energy": energy.total_energy(seq)}
    code = 0
    if args.partition:
        part, greedy = _load_partition(args.partition, seq)
        if part is None:
            result["greedy_failure"] = {"direction": greedy.failed_direction,
                                        "blocked_at": greedy.blocked_at}
            code = 3
        else:
            rep = energy.energy_condition_report(seq, part)
            result["energy_condition"] = rep.to_json_dict()
            if args.csv:
                _write_csv(args.csv,
                           ["n", "a", "b", "count", "energy", "summand", "dist0", "partial_sum"],
                           rep.rows())
            if rep.verdict == "inconclusive":
                code = 3
    return code, result


def _cmd_partition(args, cfg):
    from . import partitions
    seq = _load_sequence(args)
    part, greedy = _load_partition(args.partition, seq)
    if part is None:
        return 3, {"ok": False,
                   "direction": greedy.failed_direction,
                   "blocked_at": greedy.blocked_at}
    validity = partitions.is_valid_paper_partition(part)
    result = {
        "ok": True,
        "breakpoints": [float(b) for b in part.breakpoints],
        "shortness": validity.shortness.to_json_dict(),
        "valid_paper_partition": validity.valid,
        "reasons": list(validity.reasons),
        "monotone": validity.monotone,
    }
    if greedy is not None:
        result["counts"] = greedy.counts.tolist()
    return (0 if validity.shortness.verdict != "inconclusive" else 3), result


def _cmd_density(args, cfg):
    from . import density
    seq = _load_sequence(args)
    return 0, density.density_estimate(seq, args.method).to_json_dict()


def _cmd_spread(args, cfg):
    from . import regularize
    seq = _load_sequence(args)
    try:
        out, e_in, e_out, floor = regularize.spread_points(
            seq, _parse_window(args.J, "--J"), args.C)
    except regularize.InfeasibleError as exc:
        return 3, {"ok": False, "error": str(exc)}
    if args.out_prefix:
        seqcore.save_points(args.out_prefix + ".spread.txt", out.points)
    return 0, {
        "ok": True,
        "energy_before": e_in,
        "energy_after": e_out,
        "energy_floor": floor,
        "margin": e_out - floor,
        "points": [float(x) for x in out.points] if len(out) <= 1000 else None,
    }


def _cmd_regularize(args, cfg):
    from . import regularize
    seq = _load_sequence(args)
    res = regularize.regularize_gaps(seq, args.C)
    if args.out_prefix:
        seqcore.save_points(args.out_prefix + ".gamma.txt", res.gamma.points)
        seqcore.save_points(args.out_prefix + ".added.txt", res.added.points)
    return 0, res.to_json_dict()


def _cmd_fekete(args, cfg):
    from . import fekete
    res = fekete.fekete_optimize(args.k, _parse_window(args.interval, "--interval"))
    return (0 if res.converged else 3), res.to_json_dict()


def _cmd_gap(args, cfg):
    from . import gapnum
    seq = _load_sequence(args)
    if args.synthesize is None and not args.sweep:
        cert = _certificate(seq, cfg)
        if args.csv and cert.crossing is not None:
            _write_csv(args.csv, ["a", "passed"], cert.crossing.probes)
        return (3 if cert.c_estimate == 0.0 else 0), {"certificate": cert.to_json_dict()}
    # the one Gram support of --synthesize and --sweep
    lam = gapnum._nearest_zero(seq.points, cfg["sweep_n_max"])
    result = {}
    if args.synthesize is not None:
        syn = gapnum.synthesize_gap_measure(lam, args.synthesize)
        result["synthesis"] = syn.to_json_dict()
    if args.sweep:
        a0, a1, steps = _option_values("--sweep", args.sweep, "a0:a1:steps", "ffn")
        grid = np.linspace(a0, a1, steps)
        points = list(zip(grid.tolist(), gapnum.sigma_min_sweep(lam, grid).tolist()))
        result["sweep"] = {"points": points}
        if args.csv:
            _write_csv(args.csv, ["a", "sigma_min"], points)
    return 0, result


def _cmd_clark(args, cfg):
    from . import clarknum
    seq = _load_sequence(args)
    prof = None
    if args.profile:
        x0, x1, steps = _option_values("--profile", args.profile, "x0:x1:steps", "ffn")
        # the profile sums the atoms of every midpoint; the table reads its
        # own from the same pass
        prof = clarknum.theta_derivative_profile(seq.points, np.linspace(x0, x1, steps))
    # the JSON holds the first CLARK_JSON_RECORDS records; only --csv needs the rest
    table = clarknum.residue_weights(seq.points, args.width, args.tail_mode,
                                     None if args.csv else CLARK_JSON_RECORDS,
                                     None if prof is None else prof.table.atom_sum)
    if args.csv:
        columns = ["n", "a_n", "delta_n", "beta_n", "tail_bound"]
        _write_csv(args.csv, columns, table.rows(*columns))
    keys = ["n", "a_n", "b_n", "delta_n", "beta_n", "atom_sum", "tail_bound"]
    result = {
        "n_reported": table.n_reported,
        "records": [dict(zip(keys, row)) for row in table.rows(*keys)[:CLARK_JSON_RECORDS]],
    }
    if prof is not None:
        result["profile_tail_bound"] = prof.tail_bound
        if args.profile_csv:
            _write_csv(args.profile_csv, ["x", "estimate"], prof.pairs())
    return 0, result


def _cmd_report(args, cfg):
    from . import density, energy
    seq = _load_sequence(args)
    # summed before the Gram crossing, so its block buffer is freed before the
    # crossing's BLAS and LAPACK workspace is allocated, not added to it
    total = energy.total_energy(seq) if len(seq) <= 5000 else None
    cert = _certificate(seq, cfg)
    bm = density.bm_density(seq)
    result = {
        "n_points": len(seq),
        "window": list(seq.window),
        "total_energy": total,
        "density_d1": cert.d1.to_json_dict(),
        "density_bm": bm.to_json_dict(),
        "gap_certificate": cert.to_json_dict(),
    }
    return (0 if cert.c_estimate > 0 else 3), result


# ---------------------------------------------------------------------------

# What `invocation` leaves out: the handler, and the options that only say
# where output is written.
_UNRECORDED = frozenset({"handler", "output", "csv", "out_prefix", "profile_csv"})


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gapkit",
                                description="spectral-gap toolkit for point sequences")
    p.add_argument("--config", help="key=value config file; without it, the defaults")
    sub = p.add_subparsers(dest="command")

    def command(name, handler, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        return sp

    def common(sp):
        sp.add_argument("--seq", required=True, help="sequence file or law spec")
        sp.add_argument("--window", help="lo,hi")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("-o", "--output", help="JSON output path (default stdout)")

    sp = command("gen", _cmd_gen, "materialize a sequence law")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("-o", "--output")

    sp = command("energy", _cmd_energy, "total energy and energy-condition report")
    common(sp)
    sp.add_argument("--csv", help="CSV output path")
    sp.add_argument("--partition", help="file.json or greedy:d=<x>")

    sp = command("partition", _cmd_partition, "build/validate a partition")
    common(sp)
    sp.add_argument("--partition", required=True, help="file.json or greedy:d=<x>")

    sp = command("density", _cmd_density, "density estimators")
    common(sp)
    sp.add_argument("--method", required=True, choices=["d1", "d3", "d4", "bm"])

    sp = command("spread", _cmd_spread, "respace points inside an interval")
    common(sp)
    sp.add_argument("--J", required=True, help="a,b")
    sp.add_argument("--C", required=True, type=float)
    sp.add_argument("--out-prefix")

    sp = command("regularize", _cmd_regularize, "fill oversized gaps")
    common(sp)
    sp.add_argument("--C", required=True, type=float)
    sp.add_argument("--out-prefix")

    sp = command("fekete", _cmd_fekete, "energy maximizer on an interval")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--interval", required=True, help="a,b")
    sp.add_argument("-o", "--output")

    sp = command("gap", _cmd_gap, "gap certificate with its Gram crossing / "
                 "sigma_min sweep")
    common(sp)
    sp.add_argument("--csv", help="CSV output path")
    sp.add_argument("--sweep", help="a0:a1:steps")
    sp.add_argument("--synthesize", type=float, default=None, metavar="A",
                    help="near-gap measure for gap length A; its weights depend on "
                         "the BLAS thread count, so this output alone is not "
                         "byte-deterministic")

    sp = command("clark", _cmd_clark, "Krein-shift residue weights")
    common(sp)
    sp.add_argument("--csv", help="CSV output path: the JSON holds the first "
                    f"{CLARK_JSON_RECORDS} records; --csv writes every one")
    sp.add_argument("--width", type=float, default=None)
    sp.add_argument("--tail-mode", choices=["none", "persistent"], default="none")
    sp.add_argument("--profile", help="x0:x1:steps")
    sp.add_argument("--profile-csv")

    common(command("report", _cmd_report, "aggregate density + gap report"))
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage()
        return 2
    try:
        cfg = load_config(args.config)
        code, result = args.handler(args, cfg)
        if result is not None:
            invocation = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
            _emit(args.output, args.command, invocation, cfg, result)
        return code
    except ParameterError as exc:
        print(f"gapkit: parameter error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry: run `main()`, freeze the GC, exit with its code.

    Frozen objects that are still alive are not finalized at exit, so no
    output may wait on a finalizer. None does: `_emit`, `_write_csv` and
    `save_points` (the `gen -o` file and the `--out-prefix` side files) each
    write inside a `with` block that has closed its file when `main()`
    returns, and what goes to stdout (the report without `-o`, `gen`'s
    points) or stderr is flushed by the interpreter at exit, which the
    freeze does not skip.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
