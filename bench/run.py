"""stfom benchmark: one closed-loop client driving the stfom CLI.

    python3 bench/run.py --workload {cold-start,survey,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The benchmark writes the workload's inputs
under .bench_work/ (removed on exit), computes the expected outputs in-process
with stfom's public functions, then launches one process at a time.  Each
round runs the five subcommands through timed_main.py, which also times
stfom's main() in-process, each preceded by a bare ``python -c pass`` and
the calibration script reference.py.  Rounds start until S seconds have
passed, and every round completes.  Every command's exit code, streams and output
files are checked against the expected outputs.

The last line of stdout is the result: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics.  The line before it holds the run's
metadata.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from oracle import OUTPUT_FILES, check, expected_outputs, oracle_self_test  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import COMMANDS, input_properties, make_workload  # noqa: E402

WORKLOADS = ("cold-start", "survey", "sweep")
THROUGHPUT_COMMANDS = ("validate", "compute", "figure", "bounds")
SETUP_SAMPLES = 9
# Seconds-valued metrics are reported as if bench/reference.py had taken this
# long, about its wall time on the baseline machine (see end_to_end).
REFERENCE_NOMINAL_S = 0.2
# The tail percentile of command invocations: the highest with at least ten of
# a cold-start run's 50-odd command samples beyond it (survey and sweep runs
# have 30-45, so 6-9 lie beyond it there).
TAIL_PERCENTILE = 80
IMPORTTIME_SAMPLES = 5
IMPORT_MODULES = ("stfom", "stfom.report", "stfom.catalog", "xml.sax.saxutils", "site")
CONSTANTS_CALLS = 200
EMBEDDED_PARSE_CALLS = 20
# Every child is killed if the run as a whole gets this old.
RUN_LIMIT_S = 170.0

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import stfom\n"
    "t1 = time.perf_counter()\n"
    "stfom.embedded_catalog()\n"
    "print(t1 - t0, time.perf_counter() - t1)\n"
)


class Child:
    """Runs one process at a time through bench/launcher.py.

    Records each child's wall time, measured by the launcher around spawn and
    reap, and its peak RSS per label.
    """

    def __init__(self, started: float) -> None:
        self.deadline = started + RUN_LIMIT_S
        self.work: Path | None = None
        self.peak_rss_kb: dict[str, int] = {}
        self.reference_s: list[float] = []
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))

    def run(self, label: str, argv: list[str]) -> tuple[int, float, str, str]:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": max(1.0, self.deadline - time.perf_counter())}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline() or '{"error": "launcher died"}')
        if "error" in reply:
            raise RuntimeError(f"{label}: {reply['error']}")
        self.peak_rss_kb[label] = max(self.peak_rss_kb.get(label, 0), reply["maxrss_kb"])
        return (reply["code"], reply["wall_s"],
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def reference(self) -> float:
        """Run bench/reference.py; returns its wall time."""
        code, wall, _, err = self.run("reference", [sys.executable, str(HERE / "reference.py")])
        if code != 0:
            raise RuntimeError(f"reference script failed:\n{err}")
        self.reference_s.append(wall)
        return wall

    def close(self) -> None:
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()


def _read_outputs(out_dir: Path, command: str) -> dict[str, str | None]:
    files = {}
    for name in OUTPUT_FILES.get(command, ()):
        path = out_dir / name
        files[name] = path.read_text(encoding="utf-8") if path.exists() else None
    return files


def _clear_outputs(out_dir: Path, command: str) -> None:
    for name in OUTPUT_FILES.get(command, ()):
        (out_dir / name).unlink(missing_ok=True)


def measure_setup(child: Child) -> dict[str, list[float]]:
    """Fresh-process `import stfom` times, each paired with a reference run.

    Each child also times its first embedded_catalog() call.
    """
    argv = [sys.executable, "-c", SETUP_CODE]
    child.run("setup", argv)  # compiles bytecode, fills the page cache
    samples: dict[str, list[float]] = {"import_s": [], "embedded_s": [], "ratio": []}
    for _ in range(SETUP_SAMPLES):
        reference = child.reference()
        code, _, out, err = child.run("setup", argv)
        if code != 0:
            raise RuntimeError(f"import stfom failed:\n{err}")
        import_s, embedded_s = map(float, out.split())
        samples["import_s"].append(import_s)
        samples["embedded_s"].append(embedded_s)
        samples["ratio"].append(import_s / reference)
    return samples


def closed_loop(child: Child, workload, expected, seconds: float, seed: int):
    """Rounds of the five commands, one process at a time.

    Each command is preceded by a bare interpreter and a reference run;
    ratios[name] holds each command's and each bare run's wall time over that
    of the reference run next to it, and main_ratios[name] the same for the
    command's time inside stfom's main().  The command order rotates with
    the seed and the round.  After the first round, no command starts once
    `seconds` have passed.
    """
    out_dir = child.work / "out"
    out_dir.mkdir(exist_ok=True)
    timing_path = child.work / "main.s"
    walls: dict[str, list[float]] = {name: [] for name in ("bare", *COMMANDS)}
    ratios: dict[str, list[float]] = {name: [] for name in ("bare", *COMMANDS)}
    main_ratios: dict[str, list[float]] = {name: [] for name in COMMANDS}
    failures: list[str] = []
    failed = 0
    first: dict[str, tuple[str, dict]] = {}
    deadline = time.perf_counter() + seconds
    round_no = 0
    while round_no == 0 or time.perf_counter() < deadline:
        shift = (seed + round_no) % len(COMMANDS)
        for name in COMMANDS[shift:] + COMMANDS[:shift]:
            code, wall, _, err = child.run("bare", [sys.executable, "-c", "pass"])
            if code != 0:
                raise RuntimeError(f"bare interpreter failed:\n{err}")
            walls["bare"].append(wall)
            reference = child.reference()
            ratios["bare"].append(wall / reference)
            _clear_outputs(out_dir, name)
            timing_path.unlink(missing_ok=True)
            code, wall, out, err = child.run(
                name, [sys.executable, str(HERE / "timed_main.py"), str(timing_path),
                       *workload.argv(name, out_dir)])
            walls[name].append(wall)
            ratios[name].append(wall / reference)
            files = _read_outputs(out_dir, name)
            problems = check(name, expected, code, out, err, files)
            if timing_path.exists():
                main_ratios[name].append(float(timing_path.read_text()) / reference)
            else:
                problems.append("stfom.cli.main was not timed")
                main_ratios[name].append(wall / reference)
            failures += [f"{name}: {p}" for p in problems]
            failed += bool(problems)
            first.setdefault(name, (err, files))
        round_no += 1
    return walls, ratios, main_ratios, failures, failed, first, round_no


def in_process(child: Child, workload, expected, spans_tag: str | None):
    """Run each command once in a fresh interpreter via bench/inproc.py.

    With a spans_tag the commands run traced and write their spans to
    .bench_out/spans-<tag>-<command>.txt.
    """
    results, failures, failed = {}, [], 0
    for name in COMMANDS:
        out_dir = child.work / f"inproc-{name}"
        out_dir.mkdir(exist_ok=True)
        summary_path = child.work / f"inproc-{name}.json"
        argv = [sys.executable, str(HERE / "inproc.py"), "--src", str(SRC),
                "--summary", str(summary_path)]
        if spans_tag is not None:
            TRACE_OUT.mkdir(exist_ok=True)
            argv += ["--spans", str(TRACE_OUT / f"spans-{spans_tag}-{name}.txt")]
        code, _, _, err = child.run(f"inproc-{name}", argv + ["--", *workload.argv(name, out_dir)])
        if code != 0:
            raise RuntimeError(f"in-process {name} failed:\n{err}")
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        problems = check(name, expected, summary["code"], summary["stdout"],
                         summary["stderr"], _read_outputs(out_dir, name))
        failures += [f"in-process {name}: {p}" for p in problems]
        failed += bool(problems)
        results[name] = summary
    return results, failures, failed


def import_times(child: Child) -> dict[str, float]:
    """Median cumulative import time in ms per module, from -X importtime."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_SAMPLES):
        code, _, _, err = child.run("importtime", [sys.executable, "-X", "importtime",
                                                   "-c", "import stfom"])
        if code != 0:
            raise RuntimeError(f"import stfom failed:\n{err}")
        seen = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            if cumulative.strip().isdigit():
                seen.setdefault(module.strip(), int(cumulative) / 1e3)
        for module in IMPORT_MODULES:
            samples[module].append(seen.get(module, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ratios, throughput_ratios, setup, rows: int, peak_rss_kb: int,
               attempted: int, failed: int) -> dict:
    """Metrics a user sees, each robust to the host's speed drift.

    The CPU speed of a shared host moves by tens of percent over minutes, for
    stfom and the reference script alike, so every timing is the median of
    each sample's ratio to the reference run next to it.  Set-up time and
    throughput are scaled to a reference that took REFERENCE_NOMINAL_S;
    command times are divided by the bare interpreter's, measured the same way.
    Throughput uses throughput_ratios (see main()).  The tail divides each
    invocation by its own command's median, so it measures the spread of
    every command alike, whatever their sizes.
    """
    bare = statistics.median(ratios["bare"])
    metrics = {"setup_s": _metric(statistics.median(setup["ratio"]) * REFERENCE_NOMINAL_S,
                                  "s")}
    for name in COMMANDS:
        metrics[f"cli_x.{name}"] = _metric(statistics.median(ratios[name]) / bare, "ratio")
    relative = [r / statistics.median(ratios[name]) for name in COMMANDS for r in ratios[name]]
    metrics[f"cli_tail.p{TAIL_PERCENTILE}"] = _metric(
        statistics.quantiles(relative, n=100)[TAIL_PERCENTILE - 1], "ratio")
    for name in THROUGHPUT_COMMANDS:
        seconds = statistics.median(throughput_ratios[name]) * REFERENCE_NOMINAL_S
        metrics[f"records_per_s.{name}"] = _metric(rows / seconds, "records/s")
    metrics["peak_rss_mb"] = _metric(peak_rss_kb / 1024.0, "MB")
    metrics["ok_ratio"] = _metric((attempted - failed) / attempted, "ratio")
    return metrics


def _span(spans: dict, name: str) -> dict:
    return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "distinct": 0})


def per_layer(expected, props, walls, reference_s, setup, first, untraced, traced,
              imports, direct) -> dict:
    """Layer metrics from the traced in-process commands and helper timings."""
    merged: dict[str, dict] = {}
    for summary in traced.values():
        for name, entry in summary["spans"].items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "distinct": 0})
            for key, value in entry.items():
                into[key] += value
    rows, shown = expected.rows, expected.filtered_rows

    def per_record(name: str, count: int) -> float:
        span = _span(merged, name)
        return span["self_s"] * 1e6 / (span["calls"] * count) if span["calls"] else 0.0

    def per_call(spans: dict, name: str) -> float:
        span = _span(spans, name)
        return span["self_s"] * 1e6 / span["calls"] if span["calls"] else 0.0

    def per_call_ms(name: str) -> float:
        span = _span(merged, name)
        return span["total_s"] * 1e3 / span["calls"] if span["calls"] else 0.0

    def distinct_ratio(name: str) -> float:
        span = _span(merged, name)
        return span["distinct"] / span["calls"] if span["calls"] else 0.0

    m: dict[str, dict] = {}
    for module, ms in imports.items():
        m[f"import.{module}_ms"] = _metric(ms, "ms")
    m["host.python_ms"] = _metric(statistics.median(walls["bare"]) * 1e3, "ms")
    m["host.reference_ms"] = _metric(statistics.median(reference_s) * 1e3, "ms")
    for name in COMMANDS:
        m[f"cli.main_ms.{name}"] = _metric(untraced[name]["warm_s"] * 1e3, "ms")
    for name in COMMANDS:
        m[f"cli.wall_ms.{name}"] = _metric(statistics.median(walls[name]) * 1e3, "ms")
    compute_err = first["compute"][0]
    m["cli.warning_lines"] = _metric(sum(1 for ln in compute_err.splitlines() if ln.strip()),
                                     "count")
    for command in ("compute", "figure"):
        for file_name, text in first[command][1].items():
            m[f"cli.bytes_out.{file_name}"] = _metric(len((text or "").encode()), "bytes")

    parse, parse_rows = _span(merged, "catalog.parse_records"), rows
    if not parse["calls"]:  # the embedded catalog does not go through parse_records
        parse, parse_rows = _span(direct["spans"], "catalog.parse_records"), direct["parse_rows"]
    m["catalog.parse_records.us_per_record"] = _metric(
        parse["self_s"] * 1e6 / (parse["calls"] * parse_rows), "us")
    m["catalog.rank.us_per_record"] = _metric(per_record("catalog.rank", rows), "us")
    m["catalog.select_for_figure.us_per_record"] = _metric(
        per_record("catalog.select_for_figure", shown), "us")
    m["catalog.serialize_records.us_per_record"] = _metric(
        direct["serialize_s"] * 1e6 / rows, "us")
    m["catalog.embedded_catalog_ms"] = _metric(
        statistics.median(setup["embedded_s"]) * 1e3, "ms")

    m["formula.parse_material.us_per_call"] = _metric(
        per_call(merged, "formula.parse_material"), "us")
    m["formula.parse_material.calls"] = _metric(
        _span(merged, "formula.parse_material")["calls"], "count")
    m["formula.parse_material.distinct_ratio"] = _metric(
        distinct_ratio("formula.parse_material"), "ratio")
    m["formula.nuclei_count.us_per_call"] = _metric(
        per_call(merged, "formula.nuclei_count"), "us")
    m["formula.nuclei_count.calls"] = _metric(
        _span(merged, "formula.nuclei_count")["calls"], "count")

    m["fom.evaluate_catalog.us_per_record"] = _metric(
        per_record("fom.evaluate_catalog", rows), "us")
    m["fom.thermal_share"] = _metric(props["thermal_share"], "ratio")
    m["fom.warnings"] = _metric(expected.warnings, "count")
    m["quantities.load_constants_us"] = _metric(
        per_call(direct["spans"], "quantities.load_constants"), "us")

    bound_spans = [_span(merged, "bounds.anchored_bound"), _span(merged, "bounds.si_bound")]
    m["bounds.calls"] = _metric(sum(s["calls"] for s in bound_spans), "count")
    m["bounds.us"] = _metric(sum(s["total_s"] for s in bound_spans) * 1e6, "us")

    m["report.emit_table.us_per_record"] = _metric(per_record("report.emit_table", shown), "us")
    m["report.build_figure_points.us_per_record"] = _metric(
        per_record("report.build_figure_points", shown), "us")
    m["report.emit_figure_ms"] = _metric(per_call_ms("report.emit_figure"), "ms")
    m["report.emit_bounds_summary_ms"] = _metric(per_call_ms("report.emit_bounds_summary"),
                                                 "ms")
    m["report.format_sig.us_per_call"] = _metric(per_call(merged, "report.format_sig"), "us")
    m["report.format_sig.calls"] = _metric(_span(merged, "report.format_sig")["calls"], "count")
    m["report.format_sig.distinct_ratio"] = _metric(distinct_ratio("report.format_sig"),
                                                    "ratio")

    plain = sum(untraced[name]["first_s"] for name in COMMANDS)
    with_spans = sum(traced[name]["first_s"] for name in COMMANDS)
    m["trace.overhead_ms"] = _metric((with_spans - plain) * 1e3, "ms")
    m["trace.overhead_share"] = _metric((with_spans - plain) / plain, "ratio")
    coverage = _coverage(traced)
    m["trace.coverage_min"] = _metric(min(coverage[name] for name in THROUGHPUT_COMMANDS),
                                      "ratio")

    for key in ("rows", "distinct_material_share", "distinct_numeric_share",
                "below_floor_share", "filter_pass_share"):
        m[f"input.{key}"] = _metric(props[key], "count" if key == "rows" else "ratio")
    return m


def _coverage(traced: dict) -> dict[str, float]:
    """Share of each command's in-process time covered by layer spans."""
    out = {}
    for name, summary in traced.items():
        root = summary["spans"]["cli.main"]
        out[name] = 1.0 - root["self_s"] / root["total_s"]
    return out


def direct_timings(stfom, workload, expected) -> dict:
    """Traced direct calls for layers the workload's commands may not reach.

    parse_records runs on the embedded catalog's CSV text (cold-start never
    calls it), load_constants on the workload's constants text or the
    built-in defaults, and serialize_records on the workload's catalog.
    """
    embedded_text = stfom.serialize_records(stfom.embedded_catalog())
    constants_text = (workload.constants_path.read_text(encoding="utf-8")
                      if workload.constants_path else stfom.DEFAULT_CONSTANTS_TEXT)
    tracer = Tracer()
    with tracer.installed():
        for _ in range(EMBEDDED_PARSE_CALLS):
            stfom.cli.parse_records(embedded_text)
        for _ in range(CONSTANTS_CALLS):
            stfom.cli.load_constants(constants_text)
    start = time.perf_counter()
    stfom.serialize_records(expected.catalog)
    serialize_s = time.perf_counter() - start
    return {"spans": tracer.summary(), "parse_rows": len(stfom.embedded_catalog()),
            "serialize_s": serialize_s}


def host_metadata(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    meta = host_metadata(args)

    if not (SRC / "stfom" / "__init__.py").is_file():
        print(f"no stfom package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # Start the launcher while this process is still small (see launcher.py).
    child = Child(started)
    work = None
    try:
        sys.path.insert(0, str(SRC))
        import stfom
        import stfom.cli

        WORK_ROOT.mkdir(exist_ok=True)
        work = child.work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
        if not Path(stfom.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"stfom imported from {stfom.__file__}, not {SRC}")
        workload = make_workload(args.workload, stfom, args.seed, work)
        expected = expected_outputs(stfom, workload)
        records_text = (workload.records_path.read_text(encoding="utf-8")
                        if workload.records_path
                        else stfom.serialize_records(stfom.embedded_catalog()))
        props = input_properties(records_text, expected)
        del records_text
        failures = oracle_self_test(expected)
        prepared = time.perf_counter()

        setup = measure_setup(child)
        walls, ratios, main_ratios, loop_failures, failed, first, rounds = closed_loop(
            child, workload, expected, args.seconds, args.seed)
        failures += loop_failures
        attempted = sum(len(walls[name]) for name in COMMANDS)
        peak_rss = max(child.peak_rss_kb[name] for name in COMMANDS)
        measured = time.perf_counter()

        if args.trace:
            untraced, untraced_failures, untraced_failed = in_process(
                child, workload, expected, None)
            traced, traced_failures, traced_failed = in_process(
                child, workload, expected, args.workload)
            failures += untraced_failures + traced_failures
            attempted += 2 * len(COMMANDS)
            failed += untraced_failed + traced_failed
            metrics = per_layer(expected, props, walls, child.reference_s, setup, first,
                                untraced, traced,
                                import_times(child),
                                direct_timings(stfom, workload, expected))
            meta["coverage"] = _coverage(traced)
        else:
            # Throughput counts only the time inside stfom's main(), so the fixed
            # cost of start-up and import does not dilute it.  On the embedded
            # catalog that time is a few ms, below the host's timing noise, so
            # there the whole invocation is timed instead.
            throughput = main_ratios if workload.records_path else ratios
            metrics = end_to_end(ratios, throughput, setup, expected.rows, peak_rss,
                                 attempted, failed)
    finally:
        child.close()
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)

    meta.update(
        rounds=rounds,
        samples={name: len(v) for name, v in walls.items()},
        median_ms={name: statistics.median(v) * 1e3 for name, v in walls.items()},
        main_share={name: statistics.median(main_ratios[name]) / statistics.median(ratios[name])
                    for name in COMMANDS},
        reference_ms=statistics.median(child.reference_s) * 1e3,
        setup_samples=len(setup["import_s"]),
        peak_rss_mb={name: kb / 1024.0 for name, kb in child.peak_rss_kb.items()},
        input=props,
        failures=failures[:20],
        phase_s={"prepare": prepared - started, "measure": measured - prepared,
                 "total": time.perf_counter() - started},
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
