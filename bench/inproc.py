"""Run one stfom CLI command in-process and report its timing as JSON.

    python bench/inproc.py --src SRC --summary FILE [--spans FILE] -- ARGV...

Each command gets a fresh interpreter, as it would from the command line, so
caches filled by one command or by the benchmark's own reference computation
never serve another.  ``stfom`` is imported before the clock starts.

Without ``--spans`` the command runs untraced: the first call is timed, then
the call repeats while under a second has been spent, and the median of the
repeats is the warm in-process time.  With ``--spans`` the first call runs
once under the tracer (see tracing.py), with a ``cli.main`` span around it,
and the spans are written to that file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

WARM_BUDGET_S = 1.0
WARM_MAX_CALLS = 50


def _call(main, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--summary", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("argv", nargs="+")
    args = parser.parse_args()

    sys.path.insert(0, str(args.src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import stfom
    import stfom.cli

    if not Path(stfom.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"stfom imported from {stfom.__file__}, not {args.src}", file=sys.stderr)
        return 2

    summary: dict = {}
    if args.spans is None:
        code, out, err, first = _call(stfom.cli.main, args.argv)
        warm = []
        spent = first
        while spent < WARM_BUDGET_S and len(warm) < WARM_MAX_CALLS:
            elapsed = _call(stfom.cli.main, args.argv)[3]
            warm.append(elapsed)
            spent += elapsed
        summary["warm_s"] = statistics.median(warm) if warm else first
        summary["warm_calls"] = len(warm) or 1
    else:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            with tracer.span("cli.main"):
                code, out, err, first = _call(stfom.cli.main, args.argv)
        tracer.write_spans(args.spans)
        summary["spans"] = tracer.summary()
    summary.update(code=code, stdout=out, stderr=err, first_s=first)
    args.summary.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
