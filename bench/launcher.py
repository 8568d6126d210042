"""Small helper process that launches the benchmark's children one at a time.

On Linux a child's peak RSS (``ru_maxrss``) starts at the RSS of the process
that spawned it.  The benchmark process holds the reference outputs, which on
the large workloads are bigger than a cold-start child, so children are
spawned from this process instead: it imports nothing heavy and stays small.
Spawning from a small process also keeps the cost of starting a child the
same whatever the workload's size.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``; one
JSON reply per stdout line, ``{"code": int, "wall_s": float, "maxrss_kb": int}``
or ``{"error": text}`` if the child outlived its timeout and was killed.
The launcher exits when its stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _on_alarm(signum, frame):
    raise TimeoutError


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            return {"error": f"{request['argv']} still running after "
                             f"{request['timeout']:.0f} s; killed"}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
