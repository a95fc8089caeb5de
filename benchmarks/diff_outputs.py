"""Compare the outputs of two gapkit trees on a fixed list of CLI commands.

    python3 benchmarks/diff_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout holding `src/gapkit`. Every command of `commands()`
runs once per tree, as `python -m gapkit.cli`, in a fresh directory of its
own with OPENBLAS_NUM_THREADS=1 and PYTHONUNBUFFERED unset. The list covers
every subcommand on `lattice:1` +-5000, `perturbed:1,0.2` +-1500,
`poisson:1` +-5000 and `lacunary:2` +-1e6 (seed 1), plus `fekete`, a
regularize of the two points {0, 1e6}, a `partition` check of a file
partition whose lengths do not grow outward, and three commands that print
to stdout less than its 8 KB buffer, so that output a tree loses at exit
shows.
`gap --synthesize` is left out: its weights depend on the BLAS thread count
(see `gapnum.synthesize_gap_measure`).

Two runs of a command agree when they have the same exit code, stdout and
stderr, and write the same files with the same bytes, except that JSON files,
and stdout that parses as a JSON object, are compared less their
`timestamp`. The script prints each command whose runs differ, with what
differs and, for a JSON file in both runs, its top-level keys that differ
(`out.json: invocation`). It also prints each command that exits 2, a usage
or parameter error, on either tree: such a command tests nothing even when
both trees fail it alike. The summary line gives the number of commands
that differ and each tree's tally of exit codes. It exits 1 if any command
differs or exits 2, else 0. Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

INPUTS = {
    "lattice": ("lattice:1", "-5000,5000"),
    "perturbed": ("perturbed:1,0.2", "-1500,1500"),
    "poisson": ("poisson:1", "-5000,5000"),
    "lacunary": ("lacunary:2", "-1e6,1e6"),
}
# A sequence file the `regularize_gap` command reads: one gap of 1e6.
GAP_FILE = ("gap.txt", "0.0\n1000000.0\n")
# A partition file the `partition_file` command checks: lengths 2, 3, 1, 9
# right of 0, so it reports "monotone": false.
PART_FILE = ("part.json", "[-60.0, -20.0, -12.0, -3.0, 0.0, 2.0, 5.0, 6.0, 15.0, 40.0, 60.0]\n")


def commands() -> dict:
    """name -> gapkit argv. Outputs go to files in the command's directory:
    out.json, out.csv, prof.csv, seq.txt and side files under `side`."""
    cmds = {}
    for name, (spec, window) in INPUTS.items():
        seq = ["--seq", spec, f"--window={window}", "--seed", "1"]
        out = ["-o", "out.json"]
        cmds.update({
            f"{name}/gap": ["gap", *seq, "--csv", "out.csv", *out],
            f"{name}/gap_sweep": ["gap", *seq, "--sweep", "0.5:7:12", "--csv", "out.csv", *out],
            f"{name}/report": ["report", *seq, *out],
            f"{name}/energy_0.9": ["energy", *seq, "--partition", "greedy:d=0.9",
                                   "--csv", "out.csv", *out],
            f"{name}/energy_0.5": ["energy", *seq, "--partition", "greedy:d=0.5",
                                   "--csv", "out.csv", *out],
            f"{name}/partition": ["partition", *seq, "--partition", "greedy:d=0.9", *out],
            **{f"{name}/density_{m}": ["density", *seq, "--method", m, *out]
               for m in ("d1", "d3", "d4", "bm")},
            f"{name}/clark": ["clark", *seq, "--csv", "out.csv", *out],
            f"{name}/clark_json": ["clark", *seq, *out],
            # the persistent tail on reported rows only: their atom sums
            # are computed, not read from a --profile pass
            f"{name}/clark_persistent": ["clark", *seq, "--width", "150", "--tail-mode",
                                         "persistent", *out],
            # one token: argparse reads a separate "-3:3:25" as an option
            f"{name}/clark_profile": ["clark", *seq, "--profile=-3:3:25",
                                      "--profile-csv", "prof.csv", *out],
            f"{name}/clark_profile_width": ["clark", *seq, "--width", "10", "--tail-mode",
                                            "persistent", "--profile=-3:3:25", "--csv",
                                            "out.csv", "--profile-csv", "prof.csv", *out],
            f"{name}/spread_narrow": ["spread", *seq, "--J", "0,10", "--C", "2", *out],
            f"{name}/spread_wide": ["spread", *seq, "--J", "1e5,9e5", "--C", "2",
                                    "--out-prefix", "side", *out],
            f"{name}/regularize": ["regularize", *seq, "--C", "4", "--out-prefix", "side",
                                   *out],
            # several points in many gaps: the index arithmetic of the fill
            f"{name}/regularize_fine": ["regularize", *seq, "--C", "1.5", "--out-prefix",
                                        "side", *out],
            f"{name}/gen_file": ["gen", "--spec", spec, f"--window={window}", "--seed", "1",
                                 "-o", "seq.txt"],
            f"{name}/gen_stdout": ["gen", "--spec", spec, f"--window={window}", "--seed", "1"],
        })
    cmds["fekete"] = ["fekete", "-k", "8", "--interval", "0,1", "-o", "out.json"]
    cmds["regularize_gap"] = ["regularize", "--seq", GAP_FILE[0], "--C", "4", "-o", "out.json"]
    cmds["partition_file"] = ["partition", "--seq", "lattice:1", "--window=-60,60",
                              "--partition", PART_FILE[0], "-o", "out.json"]
    # reports and points under the stdout buffer: written at exit, or lost
    cmds["stdout/gap_lattice"] = ["gap", "--seq", "lattice:1", "--window=-60,60"]
    cmds["stdout/gap_lacunary"] = ["gap", "--seq", "lacunary:2", "--window=-1e6,1e6"]
    cmds["stdout/gen_lattice"] = ["gen", "--spec", "lattice:1", "--window=-60,60"]
    return cmds


def less_timestamp(data):
    """A JSON object's text, or bytes, as sorted-key JSON without its
    `timestamp`; data unchanged when it is not a JSON object."""
    try:
        report = json.loads(data)
    except ValueError:
        return data
    if not isinstance(report, dict):
        return data
    report.pop("timestamp", None)
    return json.dumps(report, sort_keys=True)


def run(tree: Path, where: Path, argv: list) -> dict:
    """Run one command of `tree` in the empty directory `where`; return what
    it left: exit code, stdout, stderr and every file it wrote."""
    where.mkdir(parents=True)
    for name, text in (GAP_FILE, PART_FILE):
        (where / name).write_text(text)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    # stdout block-buffered, as when piped, so output a tree leaves unflushed
    # at exit shows as a difference
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "gapkit.cli", *argv], cwd=where, env=env,
                          capture_output=True, text=True, timeout=1800)
    seen = {"exit code": proc.returncode, "stdout": less_timestamp(proc.stdout),
            "stderr": proc.stderr}
    for path in sorted(where.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            data = less_timestamp(data)
        seen[f"file {path.relative_to(where)}"] = data
    return seen


def json_keys_differing(old: str, new: str) -> list:
    """The top-level keys whose values differ between two JSON objects, as
    `run` keeps them."""
    a, b = json.loads(old), json.loads(new)
    return sorted(k for k in a.keys() | b.keys()
                  if json.dumps(a.get(k), sort_keys=True) != json.dumps(b.get(k), sort_keys=True))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    for tree in trees:
        if not (tree / "src" / "gapkit" / "cli.py").is_file():
            print(f"{tree}: no src/gapkit/cli.py", file=sys.stderr)
            return 2
    cmds = commands()
    work = Path(tempfile.mkdtemp(prefix="gapkit-diff-"))
    try:
        jobs = [(name, side) for name in cmds for side in (0, 1)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(
                lambda job: run(trees[job[1]], work / str(job[1]) / job[0], cmds[job[0]]),
                jobs))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differ = usage = 0
    for i, name in enumerate(cmds):
        old, new = results[2 * i], results[2 * i + 1]
        if 2 in (old["exit code"], new["exit code"]):
            usage += 1
            print(f"EXIT 2 {name}: old {old['exit code']}, new {new['exit code']}")
            print(f"  gapkit {' '.join(cmds[name])}")
        parts = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        if parts:
            differ += 1
            print(f"DIFFERS {name}: {', '.join(parts)}")
            print(f"  gapkit {' '.join(cmds[name])}")
            for part in parts:
                if part.endswith(".json") and part in old and part in new:
                    print(f"  {part.removeprefix('file ')}: "
                          f"{', '.join(json_keys_differing(old[part], new[part]))}")
    tallies = [", ".join(f"{n} x {code}" for code, n in sorted(
        Counter(r["exit code"] for r in results[side::2]).items())) for side in (0, 1)]
    print(f"{differ} of {len(cmds)} commands differ; exit codes old {tallies[0]}; "
          f"new {tallies[1]}; {usage} exit 2")
    return 1 if differ or usage else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
