"""List the benchmark jobs whose reported values differ between two runs.

    python3 perfbench/diff_digests.py OLD NEW

OLD and NEW are digest files written by run.py (.perfbench_work/digests/
<workload>-seed<n>.json), or directories of them; files are paired by name.
A digest hashes a job's JSON output minus `timestamp` and `invocation`, so
two commits that report the same values give the same digests. Exits 1 if
any job changed, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def pairs(old: Path, new: Path):
    if old.is_file():
        return [(old, new)]
    return [(p, new / p.name) for p in sorted(old.glob("*.json")) if (new / p.name).is_file()]


def changed(old: Path, new: Path) -> list:
    a = json.loads(old.read_text())["jobs"]
    b = json.loads(new.read_text())["jobs"]
    out = []
    for job in sorted(set(a) | set(b)):
        ja, jb = a.get(job, {}), b.get(job, {})
        if ja.get("digest") != jb.get("digest") or ja.get("kind") != jb.get("kind"):
            out.append(f"{old.stem}/{job}: {ja.get('kind')} {ja.get('reported')} -> "
                       f"{jb.get('kind')} {jb.get('reported')}")
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    found = pairs(Path(argv[0]), Path(argv[1]))
    lines = [line for o, n in found for line in changed(o, n)]
    for line in lines:
        print(line)
    print(f"{len(found)} digest files compared, {len(lines)} jobs changed")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
