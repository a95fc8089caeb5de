"""gapkit benchmark runner: closed loop, one client, one job process at a time.

    python3 perfbench/run.py --workload certify_bisect --seed 1 --seconds 45 --trace 0

Set-up materializes every input of the workload with `gapkit gen --seed`,
one process at a time. Then whole batches of the workload's jobs run back to
back, each job a fresh `python3 -m gapkit.cli` process exactly as a user
would start it (with the benchmark's `--config`), timed from outside (wall
clock and peak RSS from wait4). A host-speed probe runs before the first job
and after every job, and each job's wall time is rescaled to the reference
host speed by the probes on either side of it (see workloads.PROBE_REF_S).
A new batch starts only if it is expected to end within --seconds; at least
one always runs. A job's time is its median over the batches, and
wall_norm_s sums those medians. After each batch every output is checked
against a known answer or recounted from the input file (checker.py), and a
digest of each job's reported values is written to .perfbench_work/digests/
so two commits can be diffed (diff_digests.py).

--trace 0 reports the end-to-end metrics; --trace 1 runs pairs of one
untraced and one traced batch (tracer.py) and reports the per-layer metrics.
--workload all runs every workload in turn. Human-readable lines go first;
the last line of stdout is one JSON object with correct, attempted, failed
and metrics. workloads.py lists every workload, job, tolerance and metric.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checker
from tracer import load_spans, self_times
from workloads import (BLAS_THREADS, CLI_CONFIG, END_TO_END, GROUPS, MODULES,
                       PER_LAYER, PROBE_REF_S, RUN_BUDGET_S, SETUP_REPEATS,
                       SPAN_GROUPS, WORKLOADS)

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GAPKIT_CONFIG", None)   # the CLI's defaults, on both commits
    env["PYTHONPATH"] = str(SRC)
    env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    return env


def environment(seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{v: str(BLAS_THREADS) for v in BLAS_VARS},
        "blas_threads_reason": "see workloads.BLAS_THREADS",
        "gapkit_config": CLI_CONFIG,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    wall: float
    rss_mb: float
    code: int
    stderr: str


class Launcher:
    """launcher.py, started once; every gapkit process is its child."""

    def __init__(self):
        self.p = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  text=True, start_new_session=True)

    def run(self, request: dict) -> dict:
        self.p.stdin.write(json.dumps(request) + "\n")
        self.p.stdin.flush()
        reply = self.p.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        return json.loads(reply)

    def close(self) -> None:
        """Kill the running job, if any, and wait for the launcher to end."""
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
        self.p.stdin.close()
        self.p.wait()
        self.p.stdout.close()


_launcher = None


def launcher() -> Launcher:
    global _launcher
    if _launcher is None:
        _launcher = Launcher()
        atexit.register(_launcher.close)
    return _launcher


def run_proc(argv, cwd: Path, deadline: float, name: str) -> Proc:
    """Run one process to completion; kill it if it outlives `deadline`."""
    err = cwd / f"{name}.stderr"
    reply = launcher().run({"argv": [str(a) for a in argv], "cwd": str(cwd),
                            "env": child_env(), "stderr": str(err),
                            "timeout": deadline - time.monotonic()})
    text = err.read_bytes().decode(errors="replace")
    return Proc(reply["wall"], reply["rss_kb"] / 1024.0, reply["code"], text[-4000:])


def gapkit_argv(args, spans: Path | None = None, job_id: str = "") -> list:
    if spans is None:
        return [sys.executable, "-m", "gapkit.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), job_id, "--", *args]


def window_arg(window) -> str:
    return f"--window={float(window[0])!r},{float(window[1])!r}"


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T
_PROBE_VECTOR = np.random.default_rng(1).standard_normal(300_000)


def probe() -> float:
    """Seconds this process takes for a fixed mix of interpreter loop, dense
    eigensolves and sorting (about PROBE_REF_S on a quiet host; no gapkit)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_100_000):
        acc += i * i
    for _ in range(12):
        np.linalg.eigvalsh(_PROBE_MATRIX)
    for _ in range(9):
        np.sort(_PROBE_VECTOR)
    return time.perf_counter() - t0


def probed(run_one, items) -> tuple[list, list, list]:
    """Call `run_one` on each item, probing the host before the first call and
    after every call.

    Returns (results, probes, scales): a call's scale is PROBE_REF_S over the
    mean of the probes on either side of it, so wall * scale is the call's
    wall time at the reference host speed.
    """
    probes = [probe()]
    results = []
    for item in items:
        results.append(run_one(item))
        probes.append(probe())
    scales = [2.0 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
    return results, probes, scales


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed: int, where: Path, deadline: float, traced: bool):
    """Materialize every input, one `gapkit gen` process after another.

    Returns ((seconds, seconds at the reference host speed), {input: path},
    span files).
    """
    where.mkdir(parents=True)
    paths = {inp.name: where / f"{inp.name}.txt" for inp in workload.inputs}
    spans = {inp.name: where / f"gen-{inp.name}.npz" if traced else None
             for inp in workload.inputs}

    def gen(inp) -> Proc:
        args = ["gen", "--spec", inp.spec, window_arg(inp.window), "--seed", str(seed),
                "-o", str(paths[inp.name])]
        return run_proc(gapkit_argv(args, spans[inp.name], f"gen-{inp.name}"), where,
                        deadline, f"gen-{inp.name}")

    procs, _, scales = probed(gen, workload.inputs)
    seconds = (sum(p.wall for p in procs), sum(p.wall * k for p, k in zip(procs, scales)))
    for inp, proc in zip(workload.inputs, procs):
        path = paths[inp.name]
        if proc.code != 0 or not path.is_file() or path.stat().st_size == 0:
            raise SetupError(f"gapkit gen {inp.spec} failed (exit {proc.code}): "
                             f"{proc.stderr.strip()[-500:]}")
    return seconds, paths, [p for p in spans.values() if p is not None]


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

FAILURES = ("crash", "exit2", "json", "witness")


@dataclass
class JobRun:
    job: object
    proc: Proc
    out: Path
    spans: Path | None
    kind: str = "ok"          # ok | disagree | crash | exit2 | json | witness
    notes: list = field(default_factory=list)
    reported: dict = field(default_factory=dict)
    digest: str = ""
    out_bytes: int = 0
    scale: float = 1.0        # to the reference host speed, see probed()

    @property
    def norm_wall(self) -> float:
        return self.proc.wall * self.scale

    @property
    def failed(self) -> bool:
        return self.kind in FAILURES

    @property
    def unexpected(self) -> bool:
        return self.kind != "ok" and self.kind not in self.job.known_defect


@dataclass
class Batch:
    runs: list
    probes: list

    @property
    def wall(self) -> float:
        """Summed wall time of the batch's jobs (probes excluded)."""
        return sum(r.proc.wall for r in self.runs)


def write_config(where: Path) -> Path:
    path = where / "gapkit.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in CLI_CONFIG.items()))
    return path


def run_batch(workload, files, where: Path, deadline: float, traced: bool) -> Batch:
    where.mkdir(parents=True)
    config = write_config(where)

    def run_job(job) -> JobRun:
        out = where / f"{job.id}.json"
        prefix = str(where / job.id)
        args = ["--config", str(config), job.command]
        if job.input is not None:
            args += ["--seq", str(files[job.input]), window_arg(job.window)]
        args += [a.replace("{prefix}", prefix) for a in job.extra] + ["-o", str(out)]
        spans = where / f"{job.id}.npz" if traced else None
        proc = run_proc(gapkit_argv(args, spans, job.id), where, deadline, job.id)
        return JobRun(job, proc, out, spans)

    runs, probes, scales = probed(run_job, workload.jobs)
    for run, scale in zip(runs, scales):
        run.scale = scale
        evaluate(run, files)
    return Batch(runs, probes)


def digest(payload: dict) -> str:
    """Hash of the reported values: the payload minus timestamp and invocation."""
    kept = {k: v for k, v in payload.items() if k not in ("timestamp", "invocation")}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def evaluate(run: JobRun, files) -> None:
    code, job = run.proc.code, run.job
    if code == 2:
        run.kind, run.notes = "exit2", ["exit 2 on valid input"]
    elif code not in (0, 3) or "Traceback (most recent call last)" in run.proc.stderr:
        last = run.proc.stderr.strip().splitlines()[-1:] or [""]
        run.kind, run.notes = "crash", [f"exit {code}: {last[0][:200]}"]
    if run.kind != "ok":
        return
    try:
        text = run.out.read_text(encoding="utf-8")
        payload = json.loads(text)
        result = payload["result"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.kind, run.notes = "json", [f"missing or malformed JSON: {exc!r}"]
        return
    run.out_bytes = len(text.encode())
    run.digest = digest(payload)
    ctx = checker.Context(str(files[job.input]) if job.input else None, job.window,
                          job.params, out_prefix=str(run.out.with_suffix("")))
    verdict = checker.check(job.check, result, code, ctx)
    run.reported = verdict.reported
    if verdict.problems:
        run.kind, run.notes = "witness", verdict.problems
    elif verdict.disagreements:
        run.kind, run.notes = "disagree", verdict.disagreements


def keep_going(started: float, last: float, seconds: float, deadline: float) -> bool:
    """Start another batch only if it should end within --seconds and the budget."""
    now = time.monotonic()
    return now - started + last <= seconds and now + 1.25 * last < deadline


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def group_sums(jobs, walls) -> dict:
    """Summed wall time of each command group, e.g. {"gap_s": ...}."""
    sums = {g: 0.0 for g in GROUPS}
    for job, wall in zip(jobs, walls):
        sums[job.group] += wall
    return {f"{g}_s": v for g, v in sums.items()}


def span_metrics(paths) -> dict:
    """Per-layer self times and work counts from the span files of one batch."""
    self_s, calls = defaultdict(float), Counter()
    counts = Counter()
    gram_order = 0
    import_s = root_s = 0.0
    for path in paths:
        s = load_spans(path)
        names = s["names"][s["name"]] if s["name"].size else np.array([], dtype=str)
        st = self_times(s["start"], s["end"], s["parent"]) / 1e9
        for nm in np.unique(names):
            mask = names == nm
            self_s[str(nm)] += float(st[mask].sum())
            calls[str(nm)] += int(mask.sum())
        roots = s["parent"] < 0
        root_s += float((s["end"][roots] - s["start"][roots]).sum()) / 1e9
        import_s += s["import_ns"] / 1e9
        is_cert = names == "gapnum.estimate_gap_characteristic"
        for i, attrs in s["attrs"].items():
            if names[i] == "partitions.greedy_density_partition":
                counts["ok"] += attrs["ok"]
                counts["intervals"] += attrs["intervals"]
                j = s["parent"][i]
                while j >= 0 and not is_cert[j]:
                    j = s["parent"][j]
                counts["in_cert"] += j >= 0
            elif names[i] == "energy.energy_condition_report":
                counts["supported"] += attrs["supported"]
            elif names[i] == "gapnum.gram_matrix":
                gram_order = max(gram_order, attrs["order"])
    m = {"cli.import_s": import_s, "trace.root_s": root_s}
    for stem, members in SPAN_GROUPS.items():
        m[f"{stem}.self_s"] = sum(self_s[n] for n in members)
        m[f"{stem}.calls"] = calls[members[0]]
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(v for n, v in self_s.items() if n.startswith(mod + "."))
    n_greedy = m["partitions.greedy.calls"]
    n_cert = m["gapnum.estimate.calls"]
    n_report = m["energy.condition_report.calls"]
    m.update({
        "partitions.greedy.intervals": counts["intervals"],
        "partitions.greedy.ok_ratio": counts["ok"] / n_greedy if n_greedy else 0.0,
        "energy.supported_ratio": counts["supported"] / n_report if n_report else 0.0,
        "gapnum.levels_per_cert": counts["in_cert"] / n_cert if n_cert else 0.0,
        "gapnum.gram.order": gram_order,
        "seqcore.generate.calls": calls["seqcore.generate"],
        "seqcore.generate.self_s": self_s["seqcore.generate"],
    })
    return m


GEN_KEYS = ("seqcore.generate.calls", "seqcore.generate.self_s")


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def fmt_job(run: JobRun) -> str:
    rep = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                   for k, v in run.reported.items())
    note = f"  [{'; '.join(run.notes)}]" if run.notes else ""
    return (f"# {run.job.id:<20} {run.job.command:<10} {run.proc.wall:8.3f} s "
            f"(x{run.scale:.3f}) "
            f"{run.proc.rss_mb:7.1f} MB  exit {run.proc.code}  {run.kind:<8} {rep} "
            f"digest={run.digest or '-'}{note}")


def set_up(workload, seed: int, work: Path, deadline: float, trace: bool):
    """Untraced: SETUP_REPEATS set-ups, which must write identical files.
    Traced: one set-up, for the seqcore.generate spans.

    Returns ((seconds, reference-speed seconds) of each set-up, input files,
    generate metrics, deterministic).
    """
    times, contents = [], []
    for rep in range(1 if trace else SETUP_REPEATS):
        seconds, files, spans = setup(workload, seed, work / f"setup{rep}", deadline, trace)
        times.append(seconds)
        contents.append({name: path.read_bytes() for name, path in files.items()})
    gen = span_metrics(spans) if trace else {}
    deterministic = all(c == contents[0] for c in contents)
    return times, files, {k: gen[k] for k in GEN_KEYS if k in gen}, deterministic


def layer_metrics(plain: Batch, traced: Batch, gen: dict) -> dict:
    """Per-layer metrics of one untraced + traced pair of batches."""
    m = span_metrics([r.spans for r in traced.runs if r.spans.is_file()])
    root_s = m.pop("trace.root_s")
    m.update(gen)
    m.update(group_sums([r.job for r in plain.runs], [r.norm_wall for r in plain.runs]))
    m["raw.wall_s"] = plain.wall
    m["host.probe_s"] = statistics.median(plain.probes)
    m["error_rate"] = sum(r.failed for r in plain.runs) / len(plain.runs)
    m["cli.output_bytes"] = sum(r.out_bytes for r in traced.runs)
    m["trace.overhead_s"] = traced.wall - plain.wall
    m["trace.unaccounted_s"] = (sum(r.proc.wall for r in traced.runs)
                                - m["cli.import_s"] - root_s)
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    env = environment(seed)
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    rounds = []   # (untraced batch, traced batch or None)
    layers = []   # per-layer metrics of each traced round
    print(f"# gapkit benchmark: workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    try:
        setup_times, files, gen, deterministic = set_up(workload, seed, work, deadline, trace)
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            k = len(rounds)
            plain = run_batch(workload, files, work / f"batch{k}", deadline, False)
            traced = (run_batch(workload, files, work / f"batch{k}t", deadline, True)
                      if trace else None)
            rounds.append((plain, traced))
            if trace:   # the span files go with the work directory
                layers.append(layer_metrics(plain, traced, gen))
            if not keep_going(measure_start, time.monotonic() - t0, seconds, deadline):
                break
    finally:
        for pair in rounds:
            for run in (r for b in pair if b is not None for r in b.runs):
                print(fmt_job(run))
        shutil.rmtree(work, ignore_errors=True)

    runs = [r for pair in rounds for b in pair if b is not None for r in b.runs]
    oracle = [r for r in runs if r.job.oracle]
    unexpected = [r for r in runs if r.unexpected]
    failed = sum(r.failed for r in runs)
    plains = [plain for plain, _ in rounds]

    def per_job(value) -> list:   # each job's median over the untraced batches
        return [statistics.median(value(b.runs[i]) for b in plains)
                for i in range(len(workload.jobs))]

    norm = per_job(lambda r: r.norm_wall)
    human = group_sums(workload.jobs, norm)
    human["wall_norm_s"] = sum(norm)
    human["wall_s"] = sum(per_job(lambda r: r.proc.wall))
    human["peak_rss_mb"] = max(per_job(lambda r: r.proc.rss_mb))
    human["setup_s"] = statistics.median(t[1] for t in setup_times)
    human["setup_raw_s"] = statistics.median(t[0] for t in setup_times)
    human["host.probe_s"] = statistics.median(x for b in plains for x in b.probes)
    human["oracle_agree"] = sum(r.kind == "ok" for r in oracle) / len(oracle)
    human["error_rate"] = failed / len(runs)
    units = {"oracle_agree": "share", "error_rate": "share", "peak_rss_mb": "MB"}
    for key in ("setup_s", "setup_raw_s", "wall_norm_s", "wall_s", "host.probe_s",
                "gap_s", "report_s", "density_s", "tools_s",
                "peak_rss_mb", "oracle_agree", "error_rate"):
        print(f"# {key:<14} {human[key]:12.4f} {units.get(key, 's')}")
    print(f"# batches={len(rounds) * (1 + trace)} attempted={len(runs)} failed={failed}"
          f" known_defects={sorted({r.job.id for r in runs if r.kind != 'ok'})}")
    why = [f"{r.job.id}: {r.kind}" for r in unexpected]
    if not deterministic:
        why.append("set-up produced different files for the same seed")
    if why:
        print(f"# INCORRECT: {'; '.join(why)}")

    if trace:
        values = median_of(layers)
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}
        for key in ("trace.overhead_s", "trace.unaccounted_s", "cli.import_s"):
            print(f"# {key:<22} {values[key]:10.4f} s")
    else:
        metrics = {m.name: {"value": human[m.name], "unit": m.unit} for m in END_TO_END}
    write_digests(name, seed, env, runs)
    return {"correct": not why, "attempted": len(runs), "failed": failed, "metrics": metrics}


def write_digests(name: str, seed: int, env: dict, runs) -> None:
    path = WORK / "digests" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    jobs = {r.job.id: {"digest": r.digest, "kind": r.kind, "reported": r.reported}
            for r in runs}
    path.write_text(json.dumps({"env": env, "jobs": jobs}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "gapkit" / "cli.py").is_file():
        print(f"perfbench: no gapkit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
