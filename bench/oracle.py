"""Correctness oracle: what every benchmarked command must produce.

The expected bytes are computed once per run, in the benchmark process and
outside the timed region, by calling stfom's public library functions on the
same generated inputs.  Nothing is pinned to a digest, so a change that
deliberately alters output bytes still passes as long as the library and the
CLI agree.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

from workloads import FORMULA_TEXT, Workload

FIGURE_K = 3
# Tolerances against the values the embedded catalog's sources quote.
REFERENCE_FOM_TOL = 0.05
REFERENCE_N_TOL = 0.03
EMBEDDED_FIGURE_POINTS = 29
OUTPUT_FILES = {"compute": ("table.csv", "bounds.txt"),
                "figure": ("figure.svg", "figure.dat")}
EVALUATING = ("compute", "figure", "bounds")

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_NON_FINITE_RE = re.compile(r"(?<![A-Za-z])[-+]?(?:nan|inf(?:inity)?)(?![A-Za-z])",
                            re.IGNORECASE)


@dataclass(frozen=True)
class Expected:
    """Reference outputs for one workload's inputs."""

    catalog: object
    rows: int
    filtered_rows: int
    results: dict
    warnings: int
    files: dict[str, str]
    bounds_stdout: str
    formula_tokens: tuple[str, ...]
    reference: dict | None


def expected_outputs(stfom, workload: Workload) -> Expected:
    if workload.records_path is None:
        catalog = stfom.embedded_catalog()
    else:
        catalog = stfom.parse_records(workload.records_path.read_text(encoding="utf-8"))
    if workload.constants_path is None:
        constants = stfom.Constants()
    else:
        constants = stfom.load_constants(
            workload.constants_path.read_text(encoding="utf-8"))
    results = stfom.evaluate_catalog(catalog, constants=constants)
    which = workload.record_filter
    filtered = stfom.Catalog(tuple(stfom.rank(catalog, results, which)))
    bounds = stfom.emit_bounds_summary(catalog, results, constants=constants,
                                       which=which)
    svg, dat = stfom.emit_figure(
        stfom.build_figure_points(filtered, results, FIGURE_K))
    formula = stfom.parse_formula(FORMULA_TEXT)
    return Expected(
        catalog=catalog,
        rows=len(catalog),
        filtered_rows=len(filtered),
        results=results,
        warnings=sum(len(r.warnings) for r in results.values()),
        files={"table.csv": stfom.emit_table(filtered, results),
               "bounds.txt": bounds, "figure.svg": svg, "figure.dat": dat},
        bounds_stdout=bounds,
        formula_tokens=(stfom.format_sig(stfom.molar_mass(formula), 4),
                        str(stfom.nuclei_per_formula(formula))),
        reference=(stfom.embedded_reference_values()
                   if workload.records_path is None else None),
    )


def _non_finite(text: str) -> bool:
    if _NON_FINITE_RE.search(text):
        return True
    return any(not math.isfinite(float(m.group())) for m in _NUMBER_RE.finditer(text))


def _check_table(table: str, expected: Expected) -> list[str]:
    header, *rows = list(csv.reader(table.splitlines()))
    problems = []
    if len(rows) != expected.filtered_rows:
        problems.append(f"table.csv has {len(rows)} rows, expected "
                        f"{expected.filtered_rows}")
    fom_col = header.index("fom")
    foms = [float(row[fom_col]) for row in rows]
    if any(a > b for a, b in zip(foms, foms[1:])):
        problems.append("table.csv is not sorted by fom")
    if expected.reference is not None:
        name_col, n_col = header.index("reference"), header.index("N")
        for row in rows:
            quoted = expected.reference[row[name_col]]
            if abs(float(row[n_col]) / quoted.n_nuclei - 1.0) > REFERENCE_N_TOL:
                problems.append(f"{row[name_col]}: N off the quoted value")
            if abs(float(row[fom_col]) / quoted.fom - 1.0) > REFERENCE_FOM_TOL:
                problems.append(f"{row[name_col]}: fom off the quoted value")
    return problems


def check(command: str, expected: Expected, code: int, stdout: str, stderr: str,
          files: dict[str, str | None]) -> list[str]:
    """Every problem with one command's exit code, streams and output files."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "Traceback" in stderr or "Traceback" in stdout:
        problems.append("traceback printed")
    missing = [name for name, text in files.items() if text is None]
    if missing:
        return problems + [f"missing {', '.join(missing)}"]
    if any(_non_finite(text) for text in (stdout, *files.values())):
        problems.append("non-finite number in output")
    for name, text in files.items():
        if text != expected.files[name]:
            problems.append(f"{name} differs from the library output")
    warning_lines = sum(1 for line in stderr.splitlines() if line.strip())
    want_warnings = expected.warnings if command in EVALUATING else 0
    if warning_lines != want_warnings:
        problems.append(f"{warning_lines} stderr lines, expected {want_warnings}")

    if command == "compute":
        problems += _check_table(files["table.csv"], expected)
    elif command == "figure" and expected.reference is not None:
        points = [line for line in files["figure.dat"].splitlines()
                  if not line.startswith("#") and not line.endswith(" diamond")]
        if len(points) != EMBEDDED_FIGURE_POINTS:
            problems.append(f"figure.dat plots {len(points)} points, expected "
                            f"{EMBEDDED_FIGURE_POINTS}")
    elif command == "bounds" and stdout != expected.bounds_stdout:
        problems.append("bounds output differs from the library output")
    elif command == "validate" and str(expected.rows) not in stdout:
        problems.append(f"validate does not report {expected.rows} records")
    elif command == "formula" and not all(t in stdout for t in expected.formula_tokens):
        problems.append("formula output lacks the molar mass or nucleus count")
    return problems


def oracle_self_test(expected: Expected) -> list[str]:
    """The oracle must reject a reordered and a non-finite table.csv."""
    lines = expected.files["table.csv"].splitlines(keepends=True)
    reordered = lines[:]
    reordered[1], reordered[-1] = reordered[-1], reordered[1]
    non_finite = lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",inf\n"]
    failures = []
    for label, table in (("reordered", reordered), ("non-finite", non_finite)):
        files = {"table.csv": "".join(table),
                 "bounds.txt": expected.files["bounds.txt"]}
        stderr = "w\n" * expected.warnings
        if not check("compute", expected, 0, "", stderr, files):
            failures.append(f"oracle accepted a {label} table.csv")
    return failures
