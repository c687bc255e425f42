"""Starts and measures program processes for the benchmark, from a small process.

A child's ru_maxrss starts from the resident size of the process that forked
it, so the benchmark, which holds generated inputs in memory, cannot start
program processes itself without inflating their peak RSS. This launcher
imports nothing heavy. It reads one JSON request per line on stdin and
writes one JSON reply per line on stdout:

    {"cmd": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}
    -> {"wall_s": ..., "rss_kb": ..., "code": ...}

A process still running after `timeout` seconds is killed. It exits at the
end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
        timer = threading.Timer(max(request["timeout"], 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_kb": usage.ru_maxrss, "code": proc.returncode}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
