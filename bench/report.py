"""Print every metric of every workload, with its unit, as one table.

    python3 bench/report.py

Runs bench/run.py once untraced (end-to-end metrics) and once traced
(per-layer metrics) on each workload in BENCHMARK.json, with its run_seconds
and seed 1, then prints one 'workload metric value unit' line per metric, and
exits non-zero if any run failed or was incorrect.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1


def main() -> int:
    ok = True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(BENCHMARK["run_seconds"]),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} trace={trace} failed:\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{workload} attempted={result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']} trace={trace}")
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
