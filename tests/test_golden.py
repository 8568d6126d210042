"""Byte-for-byte comparison of CLI outputs against checked-in golden files.

Each case runs compute, figure and bounds and compares table.csv,
bounds.txt, figure.svg, figure.dat, the bounds stdout and the compute
stderr (its warnings) with the files under tests/golden/<case>/.  A
deliberate change to output bytes regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and is noted in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from stfom.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
THERMAL_RECORDS = GOLDEN / "thermal_records.csv"

CASES = {
    "embedded": [],
    "embedded-absolute-on-earth": ["--filter", "absolute-on-earth"],
    "thermal-records": ["--records", str(THERMAL_RECORDS)],
}
FILES = ("table.csv", "bounds.txt", "figure.svg", "figure.dat", "bounds.stdout",
         "compute.stderr")


def _run_case(extra: list[str], out_dir: Path) -> dict[str, bytes]:
    """Run the three output commands; returns every golden file's bytes."""
    sink = io.StringIO()
    warnings = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(warnings):
        assert main(["compute", *extra, "--out", str(out_dir)]) == 0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        assert main(["figure", *extra, "--out", str(out_dir)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert main(["bounds", *extra]) == 0
    outputs = {name: (out_dir / name).read_bytes() for name in FILES[:4]}
    outputs["bounds.stdout"] = stdout.getvalue().encode("utf-8")
    outputs["compute.stderr"] = warnings.getvalue().encode("utf-8")
    return outputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_files(case, tmp_path):
    outputs = _run_case(CASES[case], tmp_path)
    for name in FILES:
        expected = (GOLDEN / case / name).read_bytes()
        assert outputs[name] == expected, f"{case}/{name} differs from the golden file"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_figure_is_wellformed_xml(case):
    ET.parse(GOLDEN / case / "figure.svg")


def test_thermal_fixture_exercises_diamonds_and_warnings(tmp_path, capsys):
    assert main(["figure", "--records", str(THERMAL_RECORDS),
                 "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "below the thermal floor" in err
    assert (GOLDEN / "thermal-records" / "figure.dat").read_text(
        encoding="utf-8").count(" diamond\n") >= 1


def _regenerate() -> None:
    import tempfile

    for case, extra in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            outputs = _run_case(extra, Path(tmp))
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            (target / name).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
