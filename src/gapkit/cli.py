"""Command-line front end; the only module with side effects.

Subcommands: gen | energy | partition | density | spread | regularize |
fekete | gap | clark | report. Every run writes a JSON report embedding the
invocation and the effective configuration (under `config`). `invocation`
is argv as given, in its order, with the subcommand once, less the options
that only say where output is written (`-o/--output`, `--csv`,
`--out-prefix`, `--profile-csv`, in any spelling argparse accepts), so two
runs with the same inputs give the same report bytes apart from
`timestamp`. `--csv` exists on `energy`, `gap` and `clark`, the commands
that write a table, and writes it plot-ready (header row, no units). Exit codes:
0 success, 2 parameter error, 3 infeasible or inconclusive (diagnostics
still written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import clarknum, density, energy, fekete, gapnum, partitions, regularize, seqcore
from .seqcore import Interval, ParameterError, Partition, PointSequence

# sweep_n_max: every sigma_min sweep and every synthesis runs on at most this
# many points nearest 0
CONFIG_DEFAULTS = {"sweep_n_max": 512.0}


def load_config(path=None) -> dict:
    """key=value text config; CLI flags override these values.

    A named file (`path`, else GAPKIT_CONFIG) that cannot be read, a key
    outside CONFIG_DEFAULTS and a value that is not a finite number, or a
    sweep_n_max that is not a positive integer, are ParameterErrors, not a
    silent fall-back to the defaults.
    """
    cfg = dict(CONFIG_DEFAULTS)
    path = path or os.environ.get("GAPKIT_CONFIG")
    if not path:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc.strerror}") from exc
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
    gapnum._check_sweep_n_max(cfg["sweep_n_max"])
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
    finite float (kind 'f') or a positive count (kind 'n'); a ParameterError
    naming the option and its expected form otherwise."""
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
        values.append(x)
    return tuple(values)


def _parse_window(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(f"window must be 'lo,hi', got {text!r}")
    return _finite(parts[0], "window lo"), _finite(parts[1], "window hi")


def _load_sequence(args) -> PointSequence:
    """The --seq sequence (see `seqcore.parse_sequence_spec`). A file lies on
    --window, or without one on the hull of its points; a law needs
    --window."""
    window = _parse_window(args.window) if args.window else None
    kind, path = seqcore.parse_sequence_spec(args.seq)
    if kind == "explicit":
        return seqcore._load_file(path, window)
    if window is None:
        raise ParameterError("--window is required for generated sequences")
    return seqcore.generate(args.seq, window, seed=args.seed)


def _load_partition(text: str, seq: PointSequence):
    if text.startswith("greedy:"):
        (d,) = _option_values("--partition", text, "greedy:d=<number>", "f", "greedy:d=")
        res = partitions.greedy_density_partition(seq, d)
        if not res.ok:
            return None, res
        return res.partition, res
    try:
        with open(text, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        bks = np.array(data["breakpoints"] if isinstance(data, dict) else data, dtype=float)
    except OSError as exc:
        raise ParameterError(f"cannot read partition {text!r}: {exc.strerror}") from exc
    except (KeyError, TypeError, ValueError):
        raise ParameterError(f"partition {text!r} is neither a JSON list of numbers nor "
                             f"an object with one under 'breakpoints'") from None
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


def _emit(output, command: str, invocation: list, cfg: dict, result: dict) -> None:
    """Write the JSON report to `output`, or to stdout when it is None.

    `invocation` is the recorded argv from `_invocation`: as given, subcommand
    once, output destinations left out. The effective configuration goes under
    `config`; only `timestamp` differs between runs with the same inputs.
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
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _certificate(seq: PointSequence, cfg: dict) -> gapnum.GapCertificate:
    """The gap certificate with its Gram sweep, under the effective
    configuration."""
    cert = gapnum.estimate_gap_characteristic(seq)
    return gapnum.with_gram_sweep(cert, seq, cfg["sweep_n_max"])


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args, cfg, emit):
    seq = seqcore.generate(args.spec, _parse_window(args.window), seed=args.seed)
    if args.output:
        seqcore.save_points(args.output, seq.points)
    else:
        for x in seq.points:
            print(repr(float(x)))
    return 0


def _cmd_energy(args, cfg, emit):
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
            sub = seq.restrict(*part.cover())
            rep = energy.energy_condition_report(sub, part)
            result["energy_condition"] = rep.to_json_dict()
            if args.csv:
                _write_csv(args.csv,
                           ["n", "a", "b", "count", "energy", "summand", "dist0", "partial_sum"],
                           [[r.n, r.interval.a, r.interval.b, r.count, r.energy, r.summand,
                             r.dist0, ps] for r, ps in zip(rep.records, rep.partial_sums)])
            if rep.verdict == "inconclusive":
                code = 3
    emit(result)
    return code


def _cmd_partition(args, cfg, emit):
    seq = _load_sequence(args)
    part, greedy = _load_partition(args.partition, seq)
    if part is None:
        emit({"ok": False,
              "direction": greedy.failed_direction,
              "blocked_at": greedy.blocked_at})
        return 3
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
        result["counts"] = list(greedy.counts)
    emit(result)
    return 0 if validity.shortness.verdict != "inconclusive" else 3


def _cmd_density(args, cfg, emit):
    seq = _load_sequence(args)
    est = density.density_estimate(seq, args.method)
    emit(est.to_json_dict())
    return 0


def _cmd_spread(args, cfg, emit):
    seq = _load_sequence(args)
    J = Interval(*_parse_window(args.J))
    try:
        out, e_in, e_out, floor = regularize.spread_points(seq, J, args.C)
    except regularize.InfeasibleError as exc:
        emit({"ok": False, "error": str(exc)})
        return 3
    if args.out_prefix:
        seqcore.save_points(args.out_prefix + ".spread.txt", out.points)
    emit({
        "ok": True,
        "energy_before": e_in,
        "energy_after": e_out,
        "energy_floor": floor,
        "margin": e_out - floor,
        "points": [float(x) for x in out.points] if len(out) <= 1000 else None,
    })
    return 0


def _cmd_regularize(args, cfg, emit):
    seq = _load_sequence(args)
    res = regularize.regularize_gaps(seq, args.C)
    if args.out_prefix:
        seqcore.save_points(args.out_prefix + ".gamma.txt", res.gamma.points)
        seqcore.save_points(args.out_prefix + ".added.txt", res.added.points)
    emit(res.to_json_dict())
    return 0


def _cmd_fekete(args, cfg, emit):
    lo, hi = _parse_window(args.interval)
    res = fekete.fekete_optimize(args.k, Interval(lo, hi))
    emit(res.to_json_dict())
    return 0 if res.converged else 3


def _cmd_gap(args, cfg, emit):
    seq = _load_sequence(args)
    result = {}
    code = 0
    if args.synthesize is not None:
        lam = gapnum._nearest_zero(seq.points, cfg["sweep_n_max"])
        syn = gapnum.synthesize_gap_measure(lam, args.synthesize)
        result["synthesis"] = syn.to_json_dict()
    if args.sweep:
        a0, a1, steps = _option_values("--sweep", args.sweep, "a0:a1:steps", "ffn")
        lam = gapnum._nearest_zero(seq.points, cfg["sweep_n_max"])
        sweep = gapnum.sigma_min_sweep(lam, np.linspace(a0, a1, steps))
        result["sweep"] = sweep.to_json_dict()
        if args.csv:
            _write_csv(args.csv, ["a", "sigma_min"], sweep.pairs())
    if args.synthesize is None and not args.sweep:
        cert = _certificate(seq, cfg)
        result["certificate"] = cert.to_json_dict()
        if args.csv and cert.sweep is not None:
            _write_csv(args.csv, ["a", "sigma_min"], cert.sweep.pairs())
        if cert.c_estimate == 0.0:
            code = 3
    emit(result)
    return code


def _cmd_clark(args, cfg, emit):
    seq = _load_sequence(args)
    recs = clarknum.residue_weights(seq.points, report_width=args.width,
                                    tail_mode=args.tail_mode)
    if args.csv:
        _write_csv(args.csv,
                   ["n", "a_n", "delta_n", "beta_n", "tail_bound"],
                   [[r.n, r.a_n, r.delta_n, r.beta_n, r.tail_bound] for r in recs])
    result = {
        "n_reported": len(recs),
        "records": [
            {"n": r.n, "a_n": r.a_n, "b_n": r.b_n, "delta_n": r.delta_n,
             "beta_n": r.beta_n, "atom_sum": r.atom_sum, "tail_bound": r.tail_bound}
            for r in recs[:200]
        ],
    }
    if args.profile:
        x0, x1, steps = _option_values("--profile", args.profile, "x0:x1:steps", "ffn")
        prof = clarknum.theta_derivative_profile(seq.points, np.linspace(x0, x1, steps))
        result["profile_tail_bound"] = prof.tail_bound
        if args.profile_csv:
            _write_csv(args.profile_csv, ["x", "estimate"], prof.pairs())
    emit(result)
    return 0


def _cmd_report(args, cfg, emit):
    seq = _load_sequence(args)
    cert = _certificate(seq, cfg)
    bm = density.bm_density(seq)
    result = {
        "n_points": len(seq),
        "window": list(seq.window),
        "total_energy": energy.total_energy(seq) if len(seq) <= 5000 else None,
        "density_d1": cert.d1.to_json_dict(),
        "density_bm": bm.to_json_dict(),
        "gap_certificate": cert.to_json_dict(),
    }
    emit(result)
    return 0 if cert.c_estimate > 0 else 3


# ---------------------------------------------------------------------------

# Options that only say where output is written; `invocation` leaves them out.
_DESTINATIONS = frozenset({"output", "csv", "out_prefix", "profile_csv"})


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that keeps, for `_invocation`, a map from each option
    string to its action and from each subcommand to its parser."""

    def __init__(self, *args, **kwargs):
        self.option_actions = {}
        self.commands = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.option_actions.update(dict.fromkeys(action.option_strings, action))
        return action

    def add_subparsers(self, **kwargs):
        sub = super().add_subparsers(**kwargs)
        self.commands = sub.choices
        return sub

    def resolve(self, token: str):
        """(action, value attached?) for an option token, read as argparse
        reads it: exact, `--opt=X`, `-oX`, or a unique `--opt` prefix.
        (None, False) for a token that is no option."""
        if not token.startswith("-"):
            return None, False
        if token in self.option_actions:
            return self.option_actions[token], False
        name, sep, _ = token.partition("=")
        if sep and name in self.option_actions:
            return self.option_actions[name], True
        if token.startswith("--"):
            hits = [s for s in self.option_actions if s.startswith(name)]
            if len(hits) == 1:
                return self.option_actions[hits[0]], bool(sep)
        elif token[:2] in self.option_actions:
            return self.option_actions[token[:2]], True
        return None, False


def _invocation(parser: _Parser, argv: list) -> list:
    """argv as given, less each option in `_DESTINATIONS` with its value.

    `argv` must have parsed. Every gapkit option then takes one value, either
    attached or as the next token, and the one other token is the subcommand,
    after which tokens are read by its parser.
    """
    kept, level, i = [], parser, 0
    while i < len(argv):
        action, attached = level.resolve(argv[i])
        if action is None:
            level = level.commands[argv[i]]
            kept.append(argv[i])
            i += 1
            continue
        n = 1 if attached else 2
        if action.dest not in _DESTINATIONS:
            kept.extend(argv[i:i + n])
        i += n
    return kept


def _build_parser() -> _Parser:
    p = _Parser(prog="gapkit",
                                description="spectral-gap toolkit for point sequences")
    p.add_argument("--config", help="key=value config file (env GAPKIT_CONFIG)")
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
    sp.add_argument("--method", required=True, choices=["d1", "d2", "d3", "d4", "bm"])

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

    sp = command("gap", _cmd_gap, "gap certificate / sigma_min sweep")
    common(sp)
    sp.add_argument("--csv", help="CSV output path")
    sp.add_argument("--sweep", help="a0:a1:steps")
    sp.add_argument("--synthesize", type=float, default=None)

    sp = command("clark", _cmd_clark, "Krein-shift residue weights")
    common(sp)
    sp.add_argument("--csv", help="CSV output path")
    sp.add_argument("--width", type=float, default=None)
    sp.add_argument("--tail-mode", choices=["none", "persistent"], default="none")
    sp.add_argument("--profile", help="x0:x1:steps")
    sp.add_argument("--profile-csv")

    common(command("report", _cmd_report, "aggregate density + gap report"))
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
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
        emit = functools.partial(_emit, args.output, args.command,
                                 _invocation(parser, argv), cfg)
        return args.handler(args, cfg, emit)
    except ParameterError as exc:
        print(f"gapkit: parameter error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
