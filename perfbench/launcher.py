"""Start the benchmark's gapkit processes, one at a time, from a small process.

    python3 perfbench/launcher.py     (run.py starts it; it reads requests)

A child's peak RSS as wait4 reports it starts at its parent's memory
high-water mark: Linux carries it across fork (or vfork) and exec. The
runner holds numpy, scipy and the outputs it has checked, so a job it started
itself would report at least the runner's size. This process imports nothing
heavy, so the jobs it starts report their own peak.

One JSON request per stdin line: {"argv", "cwd", "env", "stderr", "timeout"};
one JSON reply per stdout line: {"wall", "rss_kb", "code"}. A job still
running after `timeout` seconds is killed. SIGTERM kills the running job,
reaps it and ends the launcher once stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

current = None
stopping = False


def on_term(signum, frame):
    global stopping
    stopping = True
    if current is not None:
        current.kill()


def run(req: dict) -> dict:
    global current
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        current = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                   stderr=err)
        if stopping:
            current.kill()
        timer = threading.Timer(max(0.0, req["timeout"]), current.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(current.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = current.returncode = os.waitstatus_to_exitcode(status)
    current = None
    return {"wall": wall, "rss_kb": usage.ru_maxrss, "code": code}


def main() -> int:
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        if stopping:
            break
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
