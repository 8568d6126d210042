"""Run ``python -m stfom ARGV...`` and record how long ``stfom.cli.main`` took.

    python bench/timed_main.py TIMING_FILE ARGV...

The process does what ``python -m stfom ARGV...`` does: it runs
``stfom/__main__.py`` through runpy, so its streams, output files and exit
code are stfom's own.  ``stfom.cli.main`` is wrapped before that, and the
seconds spent inside it are written to TIMING_FILE.  That time leaves out the
interpreter's start-up and ``import stfom``, so the benchmark's throughput
metrics count only the command's own work.  Nothing is written if main()
never returned.
"""

import runpy
import sys
import time

import stfom.cli

timing_path = sys.argv[1]
sys.argv[1:] = sys.argv[2:]
_main = stfom.cli.main


def _timed_main(argv=None):
    start = time.perf_counter()
    code = _main(argv)
    elapsed = time.perf_counter() - start
    with open(timing_path, "w", encoding="utf-8") as fh:
        fh.write(repr(elapsed))
    return code


stfom.cli.main = _timed_main
runpy.run_module("stfom", run_name="__main__", alter_sys=True)
