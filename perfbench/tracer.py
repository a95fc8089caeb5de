"""Run one gapkit CLI job with a span around every public gapkit function.

    python3 perfbench/tracer.py SPANS_FILE JOB_ID -- <gapkit arguments>

behaves like `python3 -m gapkit.cli <gapkit arguments>` (same exit code,
same output), and also writes SPANS_FILE (numpy .npz): one span per call of
a public function of cli, seqcore, partitions, energy, gapnum, density,
fekete, clarknum or regularize, with name, start, end, parent and the job id.
Each wrapper replaces the function in every gapkit namespace that binds it,
so `from .partitions import greedy_density_partition` in gapnum and density
goes through the wrapper too. Spans stay in memory until the job ends.

The import of gapkit.cli is timed separately (cli.import_s). Functions run
single-threaded here (the CLI's --threads defaults to 1), so one span stack
suffices. `load_spans` and `self_times` read the file back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

MODULES = ("cli", "seqcore", "partitions", "energy", "gapnum", "density",
           "fekete", "clarknum", "regularize")


def _greedy_attrs(out):
    return {"ok": bool(out.ok),
            "intervals": len(out.partition.breakpoints) - 1 if out.ok else 0}


# Work counts read off return values: span name -> attrs(result).
ANNOTATE = {
    "partitions.greedy_density_partition": _greedy_attrs,
    "energy.energy_condition_report": lambda out: {"supported": out.verdict == "supported"},
    "gapnum.gram_matrix": lambda out: {"order": int(out.lam.size)},
}


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.names: list[str] = []
        self.name_idx: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter_ns
        names, starts, ends = self.name_idx, self.start, self.end
        parents, stack, attrs = self.parent, self._stack, self.attrs

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if annotate is not None:
                attrs[i] = annotate(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap each public function and rebind it wherever gapkit binds it."""
        mods = [importlib.import_module("gapkit." + m) for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        for mod in [importlib.import_module("gapkit")] + mods:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def dump(self, path: str, import_ns: int) -> None:
        import numpy as np
        meta = {"job": self.job, "import_ns": import_ns,
                "attrs": {str(k): v for k, v in self.attrs.items()}}
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name=np.array(self.name_idx, dtype=np.int32),
                 start=np.array(self.start, dtype=np.int64),
                 end=np.array(self.end, dtype=np.int64),
                 parent=np.array(self.parent, dtype=np.int32),
                 meta=np.array(json.dumps(meta)))


def load_spans(path) -> dict:
    import numpy as np
    with np.load(path, allow_pickle=False) as z:
        out = {k: z[k] for k in ("names", "name", "start", "end", "parent")}
        meta = json.loads(str(z["meta"]))
    out["job"] = meta["job"]
    out["import_ns"] = meta["import_ns"]
    out["attrs"] = {int(k): v for k, v in meta["attrs"].items()}
    return out


def self_times(start, end, parent):
    """Each span's duration minus the time its child spans cover (ns)."""
    import numpy as np
    dur = (end - start).astype(np.int64)
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def main(argv) -> int:
    spans_path, job = argv[0], argv[1]
    gap_args = argv[argv.index("--") + 1:]
    t0 = time.perf_counter_ns()
    import gapkit.cli
    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer(job)
    tracer.install()
    try:
        return gapkit.cli.main(gap_args)
    finally:
        tracer.dump(spans_path, import_ns)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
