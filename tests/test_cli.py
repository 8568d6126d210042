import csv
import errno
import importlib
import importlib.util
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import stfom

from stfom import (
    CATEGORIES,
    CSV_HEADER,
    Catalog,
    Constants,
    embedded_catalog,
    serialize_records,
)
from stfom.cli import _build_parser, _read_argv, _records, _write_outputs, main

_TESTS = Path(__file__).resolve().parent


def _read(path):
    return path.read_text(encoding="utf-8")


def _summary_map(text):
    return dict(line.split(": ", 1) for line in text.splitlines())


def _dat_marker_lines(text):
    return [line.split() for line in text.splitlines()
            if line and not line.startswith("#")]


def test_compute_writes_both_outputs(tmp_path, capsys):
    assert main(["compute", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == f"wrote table.csv (46 rows) and bounds.txt to {tmp_path}\n"
    rows = list(csv.reader(io.StringIO(_read(tmp_path / "table.csv"))))
    assert len(rows) == 47
    assert rows[1][0] == "Asenbaum '17"
    entries = _summary_map(_read(tmp_path / "bounds.txt"))
    assert entries["conservative_record"] == "Gisler '22"
    assert entries["ultra-local-discrete.conservative_bound"] == "1.00e-16"
    assert entries["non-local-continuous.conservative_bound"] == "1.00e-24"


def test_compute_filter_drops_differential_records(tmp_path, capsys):
    assert main(["compute", "--filter", "absolute-on-earth",
                 "--out", str(tmp_path)]) == 0
    assert "42 rows" in capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(_read(tmp_path / "table.csv"))))
    assert len(rows) == 43
    assert rows[1][0] == "Gisler '22"
    entries = _summary_map(_read(tmp_path / "bounds.txt"))
    assert entries["best_record"] == entries["conservative_record"]
    assert entries["best_fom"] == entries["conservative_fom"]


def test_figure_defaults(tmp_path, capsys):
    assert main(["figure", "--out", str(tmp_path)]) == 0
    assert "(29 points)" in capsys.readouterr().out
    svg = _read(tmp_path / "figure.svg")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    lines = _dat_marker_lines(_read(tmp_path / "figure.dat"))
    assert len(lines) == 29


def test_figure_one_point_per_category(tmp_path, capsys):
    assert main(["figure", "--k", "1", "--out", str(tmp_path)]) == 0
    lines = _dat_marker_lines(_read(tmp_path / "figure.dat"))
    assert len(lines) == 10
    assert len({fields[1] for fields in lines}) == 10


def test_figure_rejects_bad_k(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["figure", "--k", "0", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_output_dir_is_created(tmp_path):
    target = tmp_path / "a" / "b"
    assert main(["compute", "--out", str(target)]) == 0
    assert (target / "table.csv").exists()
    assert (target / "bounds.txt").exists()


def test_no_temporary_files_left_behind(tmp_path):
    main(["compute", "--out", str(tmp_path)])
    main(["figure", "--out", str(tmp_path)])
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.name.endswith(".tmp")]
    assert leftovers == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bounds.txt", "figure.dat", "figure.svg", "table.csv"
    ]


def test_outputs_are_deterministic(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    for out in (first, second):
        main(["compute", "--out", str(out)])
        main(["figure", "--out", str(out)])
    for name in ("table.csv", "bounds.txt", "figure.svg", "figure.dat"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bounds_prints_summary(capsys):
    assert main(["bounds"]) == 0
    entries = _summary_map(capsys.readouterr().out)
    assert entries["records"] == "46"
    assert entries["filter"] == "all"
    assert entries["best_record"] == "Asenbaum '17"


def test_bounds_honours_filter(capsys):
    assert main(["bounds", "--filter", "absolute-on-earth"]) == 0
    entries = _summary_map(capsys.readouterr().out)
    assert entries["filter"] == "absolute-on-earth"
    assert entries["best_record"] == "Gisler '22"


@pytest.mark.parametrize("which", ["all", "absolute-on-earth"])
def test_bounds_summary_reads_the_baseline_of_its_own_catalog(tmp_path, capsys, which):
    # Results for all 46 records, a catalog of the 45 without Cavendish 1798:
    # the library and the command line both print no baseline record.
    full = embedded_catalog()
    catalog = Catalog(tuple(r for r in full if r.name != "Cavendish 1798"))
    summary = stfom.emit_bounds_summary(catalog, stfom.evaluate_catalog(full),
                                        which=which)
    assert _summary_map(summary)["baseline_record"] == "-"
    records = tmp_path / "records.csv"
    records.write_text(serialize_records(catalog), encoding="utf-8")
    assert main(["bounds", "--records", str(records), "--filter", which]) == 0
    assert capsys.readouterr() == (summary, "")


def test_records_file_roundtrips_through_cli(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text(serialize_records(embedded_catalog()), encoding="utf-8")
    assert main(["validate", "--records", str(records)]) == 0
    assert capsys.readouterr().out == "ok: 46 records\n"
    assert main(["compute", "--records", str(records),
                 "--out", str(tmp_path)]) == 0
    embedded_out = tmp_path / "embedded"
    assert main(["compute", "--out", str(embedded_out)]) == 0
    assert (tmp_path / "table.csv").read_bytes() == \
        (embedded_out / "table.csv").read_bytes()


# A records file with a problem in each of its two rows.
_TWO_PROBLEMS = (
    CSV_HEADER + "\n"
    "Probe,2021,src,squishy,Si3N4,1e-9,,,1e-15,,,,absolute,earth,false,\n"
    "Other,2021,src,membrane,Si3N4,zero,,,1e-15,,,,absolute,earth,false,\n"
)
_TWO_DIAGNOSTICS = ("row 1, column category: BadCategory: unknown category 'squishy'\n"
                    "row 2, column mass_kg: BadNumber: not a number: 'zero'\n")


def test_bad_records_file_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(_TWO_PROBLEMS, encoding="utf-8")
    assert main(["validate", "--records", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "row 1, column category: BadCategory:" in err
    assert "row 2, column mass_kg: BadNumber:" in err
    assert len(err.splitlines()) == 2



RECORD_COMMANDS = ("validate", "compute", "figure", "bounds")


@pytest.mark.parametrize("column, row", [
    ("sqrt_sf", "Still,2021,synthetic,membrane,Si3N4,1e-9,,1e3,0,,,,absolute,earth,false,"),
    ("sqrt_sa", "Still,2021,synthetic,membrane,Si3N4,1e-9,,1e3,,0.0,,,absolute,earth,false,"),
])
@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_zero_noise_density_is_rejected_by_every_record_command(
        tmp_path, capsys, monkeypatch, command, column, row):
    monkeypatch.chdir(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text(CSV_HEADER + "\n" + row + "\n", encoding="utf-8")
    assert main([command, "--records", str(records)]) == 1
    assert capsys.readouterr().err == (
        f"row 1, column {column}: BadNumber: "
        "noise density must be finite and > 0, got 0.0\n")
    assert list(tmp_path.iterdir()) == [records]


@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_header_only_records_file_is_refused_by_every_record_command(
        tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text(CSV_HEADER + "\n", encoding="utf-8")
    assert main([command, "--records", str(records)]) == 1
    assert capsys.readouterr().err == (
        "row 0, column file: NoRecords: records file holds no records\n")
    assert list(tmp_path.iterdir()) == [records]


@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_overlong_cell_is_a_diagnostic(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text(CSV_HEADER + "\nBig,2021," + "x" * 200_000
                       + ",membrane,Si3N4,1e-9,,1e3,1e-15,,,,absolute,earth,false,\n",
                       encoding="utf-8")
    assert main([command, "--records", str(records)]) == 1
    err = capsys.readouterr().err
    assert err == ("row 1, column row: BadCsv: "
                   "field larger than field limit (131072)\n")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [records]


def test_carriage_return_in_a_quoted_name_survives_the_cli(tmp_path, capsys):
    record = embedded_catalog()[0]._replace(name="a\rb")
    records = tmp_path / "records.csv"
    records.write_bytes(serialize_records(Catalog((record,))).encode())
    assert main(["compute", "--records", str(records),
                 "--out", str(tmp_path)]) == 0
    table = (tmp_path / "table.csv").read_bytes().decode()
    assert table.split("\n")[1].startswith('"a\rb",')
    assert list(csv.reader(io.StringIO(table)))[1][0] == "a\rb"


_BARE_CR = ("BadCsv: carriage return inside an unquoted cell; "
            "quote the cell or end lines with \\n or \\r\\n\n")


@pytest.mark.parametrize("text, expected", [
    (CSV_HEADER + "\nProbe,2021,synthetic,mem\rbrane,Si3N4,1e-9,,,1e-15,,,,"
     "absolute,earth,false,\n", "row 1, column row: " + _BARE_CR),
    (serialize_records(embedded_catalog()).replace("\n", "\r"),
     "row 0, column row: " + _BARE_CR),
], ids=["unquoted-cell", "carriage-return-line-ends"])
@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_bare_carriage_return_is_a_diagnostic(tmp_path, capsys, monkeypatch,
                                              command, text, expected):
    monkeypatch.chdir(tmp_path)
    records = tmp_path / "records.csv"
    records.write_bytes(text.encode())
    assert main([command, "--records", str(records)]) == 1
    err = capsys.readouterr().err
    assert err == expected
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [records]


# Every number is finite, but a derived one is not: the squared acceleration
# density underflows, a subnormal mass overflows it, a 0 K thermal row has a
# zero floor, the nucleus count of 1e300 kg of lead overflows, and mass times
# quality underflows to 0 in the thermal FOM's denominator.  The last two
# pass the field checks, so only the commands that evaluate can see them.
_OUT_OF_RANGE_ROWS = {
    "underflow": ("Tiny,2021,synthetic,membrane,Si3N4,1e-11,,,,1e-170,,,"
                  "absolute,earth,false,",
                  "row 1, column sqrt_sa: BadNumber: "),
    "subnormal-mass": ("Tiny,2021,synthetic,membrane,Si3N4,1e-320,,,1e-18,,,,"
                       "absolute,earth,false,",
                       "row 1, column mass_kg: BadNumber: "),
    "zero-temperature": ("Cold,2021,synthetic,membrane,Si3N4,1e-9,,1e3,1e-15,,0,"
                         "1e4,absolute,earth,false,",
                         "row 1, column temp_k: BadNumber: "),
    "overflow": ("Huge,2021,synthetic,massive,Pb,1e300,,,,1e-9,,,"
                 "absolute,earth,false,",
                 "error: Huge: n_nuclei is inf, "),
    "zero-denominator": ("Tiny,2021,synthetic,membrane,Si3N4,1e-200,,1e3,"
                         "1e-190,,300,1e-200,absolute,earth,false,",
                         "error: Tiny: thermal_fom is inf, "),
}


@pytest.mark.parametrize("case, command", [
    (case, command) for case, (_, expected) in _OUT_OF_RANGE_ROWS.items()
    for command in RECORD_COMMANDS
    if not (command == "validate" and expected.startswith("error: "))
])
def test_out_of_range_values_are_diagnostics(tmp_path, capsys, monkeypatch,
                                             case, command):
    row, expected = _OUT_OF_RANGE_ROWS[case]
    monkeypatch.chdir(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text(CSV_HEADER + "\n" + row + "\n", encoding="utf-8")
    assert main([command, "--records", str(records)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected)
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [records]


@pytest.mark.parametrize("option", ["--records", "--constants"])
@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_input_that_is_not_utf8_is_a_diagnostic(tmp_path, capsys, monkeypatch,
                                                 command, option):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "input.txt"
    bad.write_bytes(CSV_HEADER.encode() + b"\nM\xfcller,2021\n")
    assert main([command, option, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("row 0, column file: BadEncoding: ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [bad]


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    records = tmp_path / "records.csv"
    records.write_bytes(bom + serialize_records(embedded_catalog()).encode())
    constants = tmp_path / "constants.txt"
    constants.write_bytes(bom + b"r_N 1.0e-15\n")
    assert main(["bounds"]) == 0
    plain = capsys.readouterr()
    assert main(["bounds", "--records", str(records),
                 "--constants", str(constants)]) == 0
    assert capsys.readouterr() == plain


def _whole_file_decoding(path):
    """The BadEncoding line of a file decoded whole, with a leading byte
    order mark dropped, or None when it decodes."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            fh.read()
    except UnicodeDecodeError as exc:
        return (f"row 0, column file: BadEncoding: {path} is not UTF-8 text: "
                f"{exc.reason} at byte offset {exc.start}\n")
    return None


_PLAIN_ROWS = serialize_records(embedded_catalog()).encode()
_PAST_64_KIB = _PLAIN_ROWS * (65536 // len(_PLAIN_ROWS) + 1)


@pytest.mark.parametrize("content, offset", [
    pytest.param(b"name,ye\xffar\n" + _PLAIN_ROWS, 7, id="header line"),
    pytest.param(_PAST_64_KIB + b"Bad\xc3(,2021\n", len(_PAST_64_KIB) + 3,
                 id="past 64 KiB"),
    pytest.param(_PLAIN_ROWS + b"M\xfcller", len(_PLAIN_ROWS) + 1,
                 id="last line without a line feed"),
    pytest.param(_PLAIN_ROWS + b"Delic\xc4", len(_PLAIN_ROWS) + 5,
                 id="cut short at the end"),
    pytest.param(b"\xef\xbb\xbf" + _PLAIN_ROWS + b"\xff\n", len(_PLAIN_ROWS),
                 id="after a byte order mark"),
    pytest.param(b"not,a,header\n" + _PLAIN_ROWS + b"\xff\n", 13 + len(_PLAIN_ROWS),
                 id="after a bad header line"),
    pytest.param(_PLAIN_ROWS + b"a,b\rc\n" + b"\xe2\x82\n", len(_PLAIN_ROWS) + 6,
                 id="after a bare carriage return"),
    pytest.param(_PLAIN_ROWS + b'"a\n\xff\n', len(_PLAIN_ROWS) + 3,
                 id="inside a quoted cell"),
])
def test_a_byte_that_is_not_utf8_is_the_one_diagnostic(tmp_path, capsys, content,
                                                       offset):
    # The streamed reader names the byte a whole-file decode names, and no
    # problem that parsing found before it.
    records = tmp_path / "records.csv"
    records.write_bytes(content)
    assert main(["validate", "--records", str(records)]) == 1
    err = capsys.readouterr().err
    assert err == _whole_file_decoding(records)
    assert err.endswith(f" at byte offset {offset}\n")


@pytest.mark.parametrize("content", [b"", b"\xef", b"\xef\xbb", b"\xef\xbb\xbf",
                                     b"\xef\xbb\xbf\n", b"\xef\xbb\xbf\xef\xbb\xbf\n"])
def test_a_file_that_is_only_a_byte_order_mark_reads_as_decoded_whole(
        tmp_path, capsys, content):
    # The utf-8-sig codec drops a mark, and a file that is only part of one.
    records = tmp_path / "records.csv"
    records.write_bytes(content)
    assert _whole_file_decoding(records) is None
    assert main(["validate", "--records", str(records)]) == 1
    text = records.read_text(encoding="utf-8-sig")
    with pytest.raises(stfom.CatalogError) as err:
        stfom.parse_records(text)
    assert capsys.readouterr().err == "".join(f"{d}\n" for d in err.value.diagnostics)


def _load_or_error(load, source):
    try:
        return repr(load(source))
    except stfom.CatalogError as exc:
        return exc.diagnostics


_FIELD_LIMIT = csv.field_size_limit()
_GOOD_ROW = ("Probe '21,2021,synthetic,membrane,Si3N4,1e-9,,1e3,1e-15,,300,1e4,"
             "absolute,earth,false,")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("", f"{CSV_HEADER}\n", f"{CSV_HEADER}\n{_GOOD_ROW}\n",
                        f"{CSV_HEADER}\r\n{_GOOD_ROW}\r\n")),
       st.text(alphabet='a,"\r\n\0 é'), st.sampled_from(("", f"{_GOOD_ROW}\n")),
       st.none() | st.integers(1, 6))
@example(f"{CSV_HEADER}\r\n", f"{_GOOD_ROW}\r\n", "", None)
@example(f"{CSV_HEADER}\n", "a,b\rc\n", "", None)  # a bare "\r" inside a cell
@example(f"{CSV_HEADER}\n", '"a\n\n\nb",', f"{_GOOD_ROW}\n", None)  # quoted lines
@example(f"{CSV_HEADER}\n", _GOOD_ROW.replace("synthetic", '"syn\nthe\rtic"') + "\n",
         "", None)
@example(f"{CSV_HEADER}\n", _GOOD_ROW.replace("Probe", "Pr\0be"), "", None)
@example(f"{CSV_HEADER}\n", "\n\n", f"{_GOOD_ROW}\n", None)  # blank lines
@example(f"{CSV_HEADER}\n", "a" * (_FIELD_LIMIT + 1) + "\n", f"{_GOOD_ROW}\n", None)
@example(f"{CSV_HEADER}\n", "", f"{_GOOD_ROW}\n", 30)
@example(f"{CSV_HEADER}\n", _GOOD_ROW, "", None)  # a last line with no "\n"
def test_a_records_file_loads_as_its_text_parses(head, body, tail, limit):
    text = head + body + tail
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        path.write_bytes(text.encode())
        args = SimpleNamespace(records=path, constants=None)
        if limit is not None:
            csv.field_size_limit(limit)
        try:
            loaded = _load_or_error(lambda args: Catalog(_records(args)), args)
            parsed = _load_or_error(stfom.parse_records, text)
        finally:
            csv.field_size_limit(_FIELD_LIMIT)
    assert loaded == parsed


def _memory(function):
    """What function() returns, the most memory it held at once and what it
    left held, both beyond what was held before it ran, in bytes, as
    tracemalloc counts them."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = function()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return value, peak - start, held - start


def test_loading_holds_no_copy_of_the_records_file(tmp_path):
    survey = Catalog(tuple(
        record._replace(name=f"{record.name} #{copy}")
        for copy in range(44) for record in embedded_catalog()
    )[:2000])
    text = serialize_records(survey)
    assert "\u0107" in text  # "Delić": the decoded text takes 2 bytes a character
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode())
    args = SimpleNamespace(records=path, constants=None)
    tuple(_records(args))  # fill the material cache first
    parsed, parse_peak, parse_held = _memory(lambda: stfom.parse_records(text))
    loaded, load_peak, load_held = _memory(lambda: tuple(_records(args)))
    assert parsed == loaded == survey
    # Loading the file adds less than a quarter of the text's length to
    # what parse_records holds while it parses.
    assert (load_peak - load_held) - (parse_peak - parse_held) < len(text) / 4


@pytest.mark.parametrize("records, constants", [
    pytest.param(b"not,a,header\n" + _PLAIN_ROWS, None, id="bad header"),
    pytest.param(_PLAIN_ROWS + b"a,b\rc\n" + _PLAIN_ROWS, None, id="bare carriage return"),
    pytest.param(_PLAIN_ROWS + b"\xff\n" + _PLAIN_ROWS, None, id="not UTF-8"),
    pytest.param(_PLAIN_ROWS + b"x,2021\n", None, id="bad row"),
    pytest.param(_PLAIN_ROWS, b"G 1\nbad\n", id="bad constants"),
    pytest.param(_PLAIN_ROWS, b"G \xff\n", id="constants not UTF-8"),
])
def test_a_failed_load_leaves_no_file_open(tmp_path, capsys, monkeypatch, records,
                                           constants):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(stfom.cli, "open", recording_open, raising=False)
    argv = ["validate", "--records", str(tmp_path / "records.csv")]
    (tmp_path / "records.csv").write_bytes(records)
    if constants is not None:
        (tmp_path / "constants.txt").write_bytes(constants)
        argv += ["--constants", str(tmp_path / "constants.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err
    assert len(opened) == 1 + (constants is not None)
    assert all(fh.closed for fh in opened)


def test_missing_records_file_is_io_error(tmp_path, capsys):
    assert main(["validate", "--records", str(tmp_path / "absent.csv")]) == 2
    assert capsys.readouterr().err.startswith("io error:")


def test_constants_override_moves_si_bounds_only(tmp_path, capsys):
    constants = tmp_path / "constants.txt"
    constants.write_text("r_N 2.0e-15\n", encoding="utf-8")
    assert main(["bounds"]) == 0
    plain = _summary_map(capsys.readouterr().out)
    assert main(["bounds", "--constants", str(constants)]) == 0
    scaled = _summary_map(capsys.readouterr().out)
    key = "ultra-local-discrete.conservative_si_bound"
    assert float(scaled[key]) == pytest.approx(16.0 * float(plain[key]), rel=1e-2)
    for same in ("ultra-local-discrete.conservative_bound",
                 "non-local-continuous.conservative_bound",
                 "conservative_fom"):
        assert scaled[same] == plain[same]


# Each constant is a finite float > 0, so validate accepts it, but an SI
# bound leaves the range of a float: G**2 or m_N * G**2 underflows to 0,
# r_N**4 overflows, or the bound itself underflows to 0.
@pytest.mark.parametrize("line", ["G 1e-200", "m_N 1e-320", "r_N 1e100", "G 1e200"])
@pytest.mark.parametrize("command", ["compute", "bounds"])
def test_si_bound_out_of_range_is_a_diagnostic(tmp_path, capsys, monkeypatch,
                                               command, line):
    monkeypatch.chdir(tmp_path)
    constants = tmp_path / "constants.txt"
    constants.write_text(line + "\n", encoding="utf-8")
    assert main(["validate", "--constants", str(constants)]) == 0
    capsys.readouterr()
    assert main([command, "--constants", str(constants)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ultra-local-discrete: si_bound is ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in out + err and "0.00e0" not in out + err
    assert list(tmp_path.iterdir()) == [constants]


def test_bad_constants_file_is_validation_error(tmp_path, capsys):
    constants = tmp_path / "constants.txt"
    constants.write_text("G 0\n", encoding="utf-8")
    assert main(["validate", "--constants", str(constants)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_constant_is_refused(tmp_path, capsys, value):
    constants = tmp_path / "constants.txt"
    constants.write_text(f"G {value}\n", encoding="utf-8")
    assert main(["bounds", "--constants", str(constants)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: G must be a finite float > 0, got {value}\n")


@pytest.mark.parametrize("name", ["l_P", "m_P"])
def test_planck_constants_are_unknown_names(tmp_path, capsys, name):
    constants = tmp_path / "constants.txt"
    constants.write_text(f"{name} 1.0\n", encoding="utf-8")
    assert main(["validate", "--constants", str(constants)]) == 1
    assert capsys.readouterr().err == f"error: unknown constant {name!r}\n"


def test_formula_command_reports_composition(capsys):
    assert main(["formula", "Si3N4"]) == 0
    out = capsys.readouterr().out
    assert out == "terms: Si:3 N:4\nM = 1.403e-1 kg/mol\nnuclei = 7\n"


def test_formula_command_flags_ignored_charge(capsys):
    assert main(["formula", "Mg+"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "terms: Mg:1"
    assert out[-1] == "charge token ignored"


def test_formula_command_rejects_bad_text(capsys):
    assert main(["formula", "3Si"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "position 0" in err


# An element count too long for int() (5,000 digits) or for a float (400
# digits): each is a diagnostic, not a traceback.
_HUGE_COUNTS = pytest.mark.parametrize(
    "material", ["C" + "9" * 5000, "C" + "9" * 400], ids=["5000-digits", "400-digits"])
_TOO_MANY_NUCLEI = "position 1: element counts exceed the largest float\n"


@_HUGE_COUNTS
def test_formula_command_rejects_huge_counts(capsys, material):
    assert main(["formula", material]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: " + _TOO_MANY_NUCLEI


@_HUGE_COUNTS
@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_huge_count_in_a_records_file_is_a_diagnostic(tmp_path, capsys, monkeypatch,
                                                      command, material):
    monkeypatch.chdir(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text(CSV_HEADER + f"\nHuge,2021,synthetic,massive,{material},"
                       "1e-9,,,1e-20,,,,absolute,earth,false,\n", encoding="utf-8")
    assert main([command, "--records", str(records)]) == 1
    err = capsys.readouterr().err
    assert err == "row 1, column material: BadMaterial: " + _TOO_MANY_NUCLEI
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [records]


def test_validate_embedded_catalog(capsys):
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == "ok: 46 records\n"


def test_failed_write_leaves_no_temporary_files(tmp_path, monkeypatch):
    (tmp_path / "table.csv").write_text("old\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["compute", "--out", str(tmp_path)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == "old\n"


def test_a_failed_write_replaces_neither_output(tmp_path, monkeypatch):
    # The device fills up as bounds.txt's temporary file is created, after
    # table.csv's was written: the pair already there stays as it was.
    for name in ("table.csv", "bounds.txt"):
        (tmp_path / name).write_text(f"old {name}\n", encoding="utf-8")
    create = os.open

    def full_at_bounds(path, *args, **kwargs):
        if Path(path).name.startswith(".bounds.txt."):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return create(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", full_at_bounds)
    assert main(["compute", "--out", str(tmp_path)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds.txt", "table.csv"]
    for name in ("table.csv", "bounds.txt"):
        assert (tmp_path / name).read_text(encoding="utf-8") == f"old {name}\n"


class _FillsUp:
    """An open binary file on a device that is full after its first room writes."""

    def __init__(self, file, room):
        self._file, self._room, self.writes = file, room, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()

    def write(self, data):
        self.writes += 1
        if self.writes > self._room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._file.write(data)

    def writelines(self, lines):
        # As io.IOBase.writelines: one write per item.
        for line in lines:
            self.write(line)


def test_a_device_that_fills_partway_through_the_table_replaces_neither_output(
        tmp_path, capsys, monkeypatch):
    for name in ("table.csv", "bounds.txt"):
        (tmp_path / name).write_text(f"old {name}\n", encoding="utf-8")
    opened = []

    def fills_up(file, *args, **kwargs):
        opened.append(_FillsUp(open(file, *args, **kwargs), room=5))
        return opened[-1]

    monkeypatch.setattr(stfom.cli, "open", fills_up, raising=False)
    assert main(["compute", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == (
        "", f"io error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    # Only table.csv's temporary file was opened, and its header and four
    # rows were written before the fifth row failed.
    assert [file.writes for file in opened] == [6]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds.txt", "table.csv"]
    for name in ("table.csv", "bounds.txt"):
        assert (tmp_path / name).read_text(encoding="utf-8") == f"old {name}\n"


def test_compute_builds_the_bounds_summary_before_it_opens_a_file(
        tmp_path, capsys, monkeypatch):
    constants = tmp_path / "constants.txt"
    constants.write_text("G 1e200\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    create = os.open
    created = []

    def record(path, *args, **kwargs):
        created.append(path)
        return create(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", record)
    assert main(["compute", "--constants", str(constants), "--out", str(out)]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("error: ultra-local-discrete: si_bound is ")
    assert created == [] and list(out.iterdir()) == []


_THERMAL_RECORDS = _TESTS / "golden" / "thermal_records.csv"


@pytest.mark.parametrize("argv, code, out, err", [
    (["validate", "--records", "bad.csv"], 1, "", _TWO_DIAGNOSTICS),
    (["compute", "--records", "bad.csv"], 1, "", _TWO_DIAGNOSTICS),
    (["formula", "Xx"], 1, "", "error: unknown element symbol 'Xx'\n"),
    (["validate", "--records", "absent.csv"], 2, "",
     f"io error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'absent.csv'\n"),
    (["compute", "--records", str(_THERMAL_RECORDS)], 0,
     "wrote table.csv (6 rows) and bounds.txt to .\n",
     _read(_TESTS / "golden" / "thermal-records" / "compute.stderr")),
], ids=["validate-two-problems", "compute-two-problems", "formula-Xx",
        "missing-records", "thermal-warnings"])
def test_each_stream_gets_these_bytes_and_exit_code(tmp_path, capsys, monkeypatch,
                                                    argv, code, out, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text(_TWO_PROBLEMS, encoding="utf-8")
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


@contextmanager
def _pipe(data):
    """The /dev/fd path of a pipe, which cannot seek, that a thread fills
    with data and then closes."""
    read_fd, write_fd = os.pipe()

    def feed():
        with open(write_fd, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        feeder.join(timeout=60)
    assert not feeder.is_alive()


_NEEDS_DEV_FD = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@_NEEDS_DEV_FD
@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
def test_records_read_from_a_pipe_give_the_golden_outputs(tmp_path, capsys, mark):
    golden = _TESTS / "golden" / "thermal-records"
    out = tmp_path / "out"
    with _pipe(mark + _THERMAL_RECORDS.read_bytes()) as path:
        assert main(["compute", "--records", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == _read(golden / "compute.stderr")
    for name in ("table.csv", "bounds.txt"):
        assert (out / name).read_bytes() == (golden / name).read_bytes()


@_NEEDS_DEV_FD
def test_a_bad_byte_read_from_a_pipe_is_reported_at_its_offset(capsys):
    with _pipe(b"name,year\nM\xfcller,2021\n") as path:
        assert main(["validate", "--records", path]) == 1
    assert capsys.readouterr() == ("", (
        f"row 0, column file: BadEncoding: {path} is not UTF-8 text: "
        "invalid start byte at byte offset 11\n"))


@pytest.mark.parametrize("argv", [["compute"], ["figure"], ["bounds"],
                                  ["formula", "Si3N4"], ["validate"]],
                         ids=lambda argv: argv[0])
def test_bounds_with_a_closed_stdout_is_an_io_error(tmp_path, capsys, monkeypatch, argv):
    # Python sets sys.stdout to None when it starts with file descriptor 1
    # closed, as in "stfom bounds >&-"; each command's result or status
    # line goes to stdout.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == 2
    assert capsys.readouterr().err == "io error: stdout is closed\n"


class _FullStream(io.StringIO):
    """A stream on a full device, as stderr is under "2>/dev/full"."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_an_unwritable_stderr_still_exits_2(tmp_path, monkeypatch):
    # The thermal records' warnings fail to reach stderr, and so does the
    # io error line about that failure.
    monkeypatch.setattr(sys, "stderr", _FullStream())
    out = tmp_path / "out"
    assert main(["compute", "--records", str(_THERMAL_RECORDS),
                 "--out", str(out)]) == 2
    assert not out.exists()


_FAILING_ARGVS = pytest.mark.parametrize(
    "argv", [["validate", "--records", "bad.csv"], ["compute", "--records", "bad.csv"],
             ["formula", "Xx"], ["validate", "--records", "absent.csv"]],
    ids=["validate-two-problems", "compute-two-problems", "formula-Xx",
         "missing-records"])


@_FAILING_ARGVS
def test_a_failure_with_an_unwritable_stderr_exits_2(tmp_path, capsys, monkeypatch,
                                                     argv):
    # The diagnostic cannot be written, as under "2>/dev/full"; that is an
    # I/O failure, whatever the failure it would have reported.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text(_TWO_PROBLEMS, encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", _FullStream())
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@_FAILING_ARGVS
def test_a_failure_with_a_closed_stderr_exits_2(tmp_path, capsys, monkeypatch, argv):
    # Python sets sys.stderr to None when it starts with file descriptor 2
    # closed, as in "stfom validate 2>&-"; the diagnostic goes nowhere else.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text(_TWO_PROBLEMS, encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", None)
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


class _FullOnFlush(io.StringIO):
    """A block-buffered stream on a full device: it takes a write and fails
    at the flush, as stdout does under ">/dev/full"."""

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_flush_is_an_io_error_and_closes_the_stream(capsys, monkeypatch):
    stdout = _FullOnFlush()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["bounds"]) == 2
    assert capsys.readouterr().err == (
        f"io error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    # Left open, the interpreter would flush it again at exit and exit 120.
    assert stdout.closed


@pytest.mark.parametrize("argv", [["bounds", "--records", "records.csv"],
                                  ["compute", "--out", "m\u00fcller"]],
                         ids=["bounds-name", "compute-out-dir"])
def test_text_an_ascii_stdout_cannot_encode_is_an_io_error(tmp_path, capsys,
                                                          monkeypatch, argv):
    # As under PYTHONIOENCODING=ascii: a record's name in the bounds
    # summary, or the --out directory in compute's status line, is not ASCII.
    monkeypatch.chdir(tmp_path)
    record = next(iter(embedded_catalog()))._replace(name="M\u00fcller '24")
    (tmp_path / "records.csv").write_text(serialize_records(Catalog([record])),
                                          encoding="utf-8")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"io error: stdout: 'ascii' codec can't encode character "
                        r"'\\xfc' in position \d+: ordinal not in range\(128\)\n", err)
    stdout.flush()
    assert stdout.buffer.getvalue() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, full", [
    (["bounds"], "stdout"), (["compute"], "stdout"), (["formula", "Xx"], "stderr"),
    (["validate", "--records", "bad.csv"], "stderr"),
    (["compute", "--records", str(_THERMAL_RECORDS)], "stderr"),
], ids=["bounds", "compute", "formula-Xx", "validate-two-problems", "thermal-warnings"])
def test_a_full_device_exits_2_from_the_command_line(tmp_path, argv, full):
    # A fresh process with the default buffering: stdout is block-buffered
    # and stderr line-buffered, so the text that could not be written stays
    # in the stream's buffer unless main drops it.
    (tmp_path / "bad.csv").write_text(_TWO_PROBLEMS, encoding="utf-8")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(stfom.__file__).resolve().parents[1])
    with open("/dev/full", "w", encoding="utf-8") as device:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, full: device}
        run = subprocess.run([sys.executable, "-m", "stfom", *argv], cwd=tmp_path,
                             env=env, timeout=60, **streams)
    assert run.returncode == 2
    if full == "stdout":
        assert run.stderr.decode() == (
            f"io error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    else:
        assert run.stdout == b""


def test_warnings_with_a_closed_stderr_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stderr", None)
    out = tmp_path / "out"
    assert main(["compute", "--records", str(_THERMAL_RECORDS),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_concurrent_writers_never_share_a_temporary_file(tmp_path):
    target = tmp_path / "table.csv"
    chunks = [[f"writer {i}\n".encode()] * 1000 for i in range(4)]
    errors = []

    def write(parts):
        try:
            for _ in range(25):
                _write_outputs(tmp_path, {"table.csv": parts})
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(c,)) for c in chunks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    assert target.read_bytes() in [b"".join(c) for c in chunks]


def test_written_chunks_reach_the_file_verbatim(tmp_path):
    chunks = [b"a,b\r\n", b"", b"\n\r", "M\u00fcller \u2013 \r\n".encode(),
              b"\xef\xbb\xbf"]
    _write_outputs(tmp_path, {"table.csv": iter(chunks), "bounds.txt": (b"x\n",)})
    assert (tmp_path / "table.csv").read_bytes() == b"".join(chunks)
    assert (tmp_path / "bounds.txt").read_bytes() == b"x\n"


def test_chunks_that_fail_partway_leave_no_file(tmp_path):
    def chunks():
        yield b"header\n"
        raise ValueError("row refused")

    with pytest.raises(ValueError, match="row refused"):
        _write_outputs(tmp_path, {"bounds.txt": (b"x\n",), "table.csv": chunks()})
    assert list(tmp_path.iterdir()) == []


def test_import_leaves_dataclasses_and_inspect_unloaded():
    src = str(Path(stfom.__file__).resolve().parents[1])
    code = ("import sys, stfom.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""


def test_import_leaves_network_and_mail_modules_unloaded():
    src = str(Path(stfom.__file__).resolve().parents[1])
    code = ("import sys, stfom, stfom.cli; "
            "print(' '.join(m for m in ('xml.sax', 'urllib.request', 'ssl', 'email') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""


def test_catalog_and_report_name_fom_result_only_in_annotations():
    # Both read FomResult only in annotations, so catalog needs no fom at
    # run time.
    assert not hasattr(stfom.catalog, "FomResult")
    assert not hasattr(stfom.report, "FomResult")


def test_plain_command_lines_leave_argparse_unloaded(tmp_path):
    src = str(Path(stfom.__file__).resolve().parents[1])
    code = (
        "import sys, stfom.cli\n"
        "for argv in (['validate'], ['bounds'], ['formula', 'Si3N4'],\n"
        "             ['compute', '--out', sys.argv[1]]):\n"
        "    assert stfom.cli.main(argv) == 0, argv\n"
        "print('loaded:', *(m for m in ('argparse', 'gettext') if m in sys.modules))\n"
        "try:\n"
        "    stfom.cli.main(['figure', '--k', '0'])\n"
        "except SystemExit as exc:\n"
        "    print('exit:', exc.code)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-2:] == ["loaded:", "exit: 2"]
    assert out.stderr.endswith(
        "stfom figure: error: argument --k: must be >= 1, got 0\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds.txt", "table.csv"]


# ------------------------------------------------------- the help texts

_HELP = ("-h, --help", "show this help message and exit")
_RECORDS = ("--records RECORDS", "records CSV (default: embedded catalog)")
_CONSTANTS = ("--constants CONSTANTS", "constants override file")
_FILTER = ("--filter {all,absolute-on-earth}", "record subset to analyse")
_OUT = ("--out OUT", "output directory")
_EXPECTED_HELP = {
    (): [("{compute,figure,bounds,formula,validate}", ""),
         ("compute", "write table.csv and bounds.txt"),
         ("figure", "write figure.svg and figure.dat"),
         ("bounds", "print the bounds summary"),
         ("formula", "inspect a chemical formula"),
         ("validate", "check input files and report problems"),
         _HELP],
    ("compute",): [_HELP, _RECORDS, _CONSTANTS, _FILTER, _OUT],
    ("figure",): [_HELP, _RECORDS, _CONSTANTS, _FILTER, _OUT,
                  ("--k K", "points kept per category")],
    ("bounds",): [_HELP, _RECORDS, _CONSTANTS, _FILTER],
    ("validate",): [_HELP, _RECORDS, _CONSTANTS],
    ("formula",): [("text", "formula, e.g. Si3N4"), _HELP],
}


def _help_entries(text):
    """(invocation, help) for each argument argparse's help lists, the help
    joined from the lines indented under it.  Argument lines are indented
    two or four spaces, help continuation lines further."""
    entries = []
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip(" "))
        if indent in (2, 4):
            invocation, _, help_text = line.strip().partition("  ")
            entries.append([invocation, help_text.strip()])
        elif indent > 4 and entries:
            entries[-1][1] = " ".join(filter(None, (entries[-1][1], line.strip())))
    return [tuple(entry) for entry in entries]


@pytest.mark.parametrize("command", _EXPECTED_HELP, ids=lambda c: " ".join(c) or "stfom")
def test_help_lists_each_command_and_option(capsys, monkeypatch, command):
    # Wide enough that no usage line wraps, and no colour (Python 3.14).
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.setenv("PYTHON_COLORS", "0")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert _help_entries(capsys.readouterr().out) == _EXPECTED_HELP[command]


# ------------------------------------- the plain reader against argparse

_COMMANDS = ("compute", "figure", "bounds", "formula", "validate")
_OPTIONS = ("--records", "--constants", "--filter", "--out", "--k")
# Values the parser accepts for an option, and near misses it refuses.
_OPTION_VALUES = {
    "--filter": ("all", "absolute-on-earth", "ALL", "none", ""),
    "--k": ("1", "3", "03", " 3", "3\n", "+2", "1_0", "\u0663", "0", "3.0", "x", ""),
}
_TEXTS = st.sampled_from(["r.csv", "a/b.csv", "out dir", "", "Si3N4", "figure", "all"])
_ODD_OPTIONS = st.one_of(
    st.sampled_from(["--rec", "--cons", "--fil", "--o", "--help", "-h", "--",
                     "--unknown", "-k", "k", "++out", "--K", "--text",
                     "--command"]),
    st.builds("{}={}".format, st.sampled_from(_OPTIONS),
              st.sampled_from(["x", "3", "all", ""])),
)
_ODD_VALUES = st.sampled_from(["-x", "-1", "-", "--", "--out", "-h"]) | st.text(max_size=4)


@st.composite
def _command_lines(draw):
    """An argv: a command or a near miss, its text for formula, option and
    value pairs, and at times one extra token anywhere.  One token in four
    is drawn from the odd ones, the rest from what a command takes."""
    def odd():
        return draw(st.integers(0, 3)) == 0

    argv = [draw(st.sampled_from(["comp", "Compute", "-h", "--help", ""]) if odd()
                 else st.sampled_from(_COMMANDS))]
    if argv[0] == "formula":
        argv.append(draw(_ODD_VALUES if odd() else _TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        option = draw(_ODD_OPTIONS if odd() else st.sampled_from(_OPTIONS))
        values = (st.sampled_from(_OPTION_VALUES[option]) if option in _OPTION_VALUES
                  else _TEXTS)
        argv += [option, draw(_ODD_VALUES if odd() else values)]
    if odd():
        argv.insert(draw(st.integers(0, len(argv))), draw(_ODD_OPTIONS | _ODD_VALUES))
    return argv


def _parse_args(argv):
    """vars() of the parser's namespace for argv, or None if argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=500, deadline=None)
@given(_command_lines())
# The command lines the benchmark runs (bench/workloads.py).
@example(["compute", "--out", "o"])
@example(["figure", "--out", "o"])
@example(["bounds"])
@example(["validate"])
@example(["formula", "Si3N4"])
@example(["compute", "--records", "r.csv", "--out", "o"])
@example(["figure", "--records", "r.csv", "--out", "o"])
@example(["bounds", "--records", "r.csv"])
@example(["validate", "--records", "r.csv"])
@example(["compute", "--records", "r.csv", "--constants", "c.txt",
          "--filter", "absolute-on-earth", "--out", "o"])
@example(["figure", "--records", "r.csv", "--constants", "c.txt",
          "--filter", "absolute-on-earth", "--out", "o"])
@example(["bounds", "--records", "r.csv", "--constants", "c.txt",
          "--filter", "absolute-on-earth"])
@example(["validate", "--records", "r.csv", "--constants", "c.txt"])
# Repeats, and values the parser converts or refuses.
@example(["figure", "--k", "03", "--out", "a", "--out", "b", "--k", " 3"])
@example(["figure", "--k", "0", "--k", "3"])
@example(["figure", "--k", "x"])
@example(["figure", "--filter", "none"])
@example(["compute", "--out", ""])
@example(["formula", ""])
@example(["formula", "-x"])
@example(["formula", "Si3N4", "extra"])
@example(["validate", "--filter", "all"])
@example(["compute", "++out", "o"])
def test_the_plain_reader_agrees_with_argparse(argv):
    read = _read_argv(argv)
    assert read is None or vars(read) == _parse_args(argv), (argv, read)


def test_the_benchmark_command_lines_are_read_without_argparse(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "stfom_bench_workloads", _TESTS.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks it up
    spec.loader.exec_module(workloads)
    records, constants = tmp_path / "records.csv", tmp_path / "constants.txt"
    for workload in (workloads.Workload(None, None, "all"),
                     workloads.Workload(records, None, "all"),
                     workloads.Workload(records, constants, "absolute-on-earth")):
        for command in workloads.COMMANDS:
            argv = workload.argv(command, tmp_path / "out")
            read = _read_argv(argv)
            assert read is not None, argv
            assert vars(read) == _parse_args(argv)


def test_every_name_the_bench_tracer_wraps_resolves():
    # bench/tracing.py imports only the standard library; loading it runs
    # no stfom code and writes nothing.
    spec = importlib.util.spec_from_file_location(
        "stfom_bench_tracing", _TESTS.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, attribute, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attribute)), (
            module, attribute)
    # bench/run.py's direct_timings calls these two through stfom.cli.
    assert callable(stfom.cli.parse_records)
    assert callable(stfom.cli.load_constants)


# ------------------------------------------------ the CLI contract, fuzzed

# A row that validate accepts but whose thermal FOM divides by mass times
# quality, which underflows to 0.
_ZERO_DENOMINATOR_ROW = _OUT_OF_RANGE_ROWS["zero-denominator"][0]

# Floats from 5e-324 to 1.7e308: the extremes, every decade, and the decades
# real experiments quote, so that some files pass validation.
_FUZZ_NUMBER = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7e308),
    *(st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                st.floats(1.0, 9.99), st.integers(lo, hi))
      for lo, hi in ((-323, 307), (-30, 30))),
).map(repr)
_FUZZ_CELL = st.just("") | _FUZZ_NUMBER
# Numbers as Python prints them, and the words it prints for the rest.
_NUMBER_RE = re.compile(r"(?i)[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?|\b(?:inf|nan)\b")


@st.composite
def _fuzz_files(draw):
    """The text of a records file and, or None, of a constants file."""
    rows = []
    for i in range(draw(st.integers(1, 3))):
        name = "Cavendish 1798" if i == 0 and draw(st.booleans()) else f"R{i}"
        rows.append(",".join([
            name, "2021", "synthetic", draw(st.sampled_from(CATEGORIES)),
            draw(st.sampled_from(["Si3N4", "Pb", "C", "0.8*SiO2+0.2*B2O3"])),
            draw(_FUZZ_NUMBER),  # mass_kg
            *(draw(_FUZZ_CELL) for _ in range(6)),  # n_override through quality
            draw(st.sampled_from(["absolute", "differential"])),
            draw(st.sampled_from(["earth", "space"])), "false", "",
        ]))
    constants = draw(st.none() | st.lists(
        st.builds("{} {}".format, st.sampled_from(Constants._fields), _FUZZ_NUMBER),
        max_size=2).map(lambda lines: "".join(f"{line}\n" for line in lines)))
    return "".join(f"{line}\n" for line in (CSV_HEADER, *rows)), constants


def _run(argv):
    """main's exit code, stdout and stderr; an exception that escapes main
    fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_finite_numbers(text):
    # A number must read back as a finite float: "1.80e308" reads as inf.
    for token in _NUMBER_RE.findall(text):
        assert math.isfinite(float(token)), (token, text)


@settings(max_examples=100, deadline=None)
@given(_fuzz_files())
@example((f"{CSV_HEADER}\n{_ZERO_DENOMINATOR_ROW}\n", None))
# A mass of 1.797e308 kg is finite, and table.csv and figure.dat printed it
# as 1.80e308, which reads back as inf.
@example((f"{CSV_HEADER}\nR0,2021,synthetic,massive,Pb,1.797e308,1,,,1e-100,,,"
          "absolute,earth,false,\n", None))
# A fom of 1.796e308 rounds to 1.80e308 at table precision, past the largest
# float, and overflows the anchored bound's fom / fom_ref.
@example((f"{CSV_HEADER}\nR0,2021,synthetic,trapped-ion,Si3N4,1.0,1.796e308,,,"
          "1.0,,,absolute,earth,false,\n", None))
# A subnormal fom widens the figure to the decade 1e-324, which is 0.0 as a
# float; with a fom of 1e50 a grid line falls on it.
@example((f"{CSV_HEADER}\nR0,2021,synthetic,trapped-ion,Si3N4,1.0,1,,,2.2e-162,,,"
          "absolute,earth,false,\nR1,2021,synthetic,massive,Si3N4,1.0,1e50,,,1.0,,,"
          "absolute,earth,false,\n", None))
# The baseline's fom over the best one overflows a float.
@example((f"{CSV_HEADER}\nCavendish 1798,2021,synthetic,massive,Pb,1.0,1e300,,,"
          "1.0,,,differential,earth,false,\nR1,2021,synthetic,massive,Pb,1.0,1,,,"
          "1e-100,,,absolute,earth,false,\n", None))
def test_every_command_keeps_the_cli_contract(files):
    records_text, constants_text = files
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        records = tmp / "records.csv"
        records.write_text(records_text, encoding="utf-8")
        inputs = ["--records", str(records)]
        if constants_text is not None:
            (tmp / "constants.txt").write_text(constants_text, encoding="utf-8")
            inputs += ["--constants", str(tmp / "constants.txt")]
        rows = list(csv.reader(io.StringIO(records_text)))[1:]
        passing = {"all": len(rows),
                   "absolute-on-earth": sum(row[12:14] == ["absolute", "earth"]
                                            for row in rows)}
        for which, count in passing.items():
            for command in ("compute", "figure", "bounds"):
                out_dir = tmp / f"{command}-{which}"
                argv = [command, *inputs, "--filter", which]
                if command != "bounds":
                    argv += ["--out", str(out_dir)]
                code, out, err = _run(argv)
                assert code in (0, 1, 2), (argv, code, err)
                assert "Traceback" not in err
                # The random temporary directory can read as a number ("7e8926").
                _assert_finite_numbers(out.replace(str(tmp), "TMP"))
                if code != 0:
                    assert not out_dir.exists()
                    continue
                if command != "bounds":
                    for path in out_dir.iterdir():
                        _assert_finite_numbers(path.read_text(encoding="utf-8"))
                if command == "compute":
                    table = (out_dir / "table.csv").read_text(encoding="utf-8")
                    assert len(list(csv.reader(io.StringIO(table)))) == 1 + count


# validate does not evaluate records, so it accepts each of these inputs and
# the record commands refuse them.  A case that validate refuses passes, and
# the strict mark turns that pass into a failure: move the mark off it then.
@pytest.mark.xfail(strict=True, reason="validate only loads its input")
@pytest.mark.parametrize("row, constants", [
    ("Huge,2021,synthetic,massive,Pb,1e300,,,,1e-9,,,absolute,earth,false,", None),
    ("Cold,2021,synthetic,membrane,Si3N4,1e-9,,1e3,1e-15,,1e-320,1e4,"
     "absolute,earth,false,", None),
    ("Probe,2021,synthetic,membrane,Si3N4,1e-9,,,1e-15,,,,absolute,earth,false,",
     "G 1e200\n"),
    (_ZERO_DENOMINATOR_ROW, None),
], ids=["1e300-kg-lead", "temp-1e-320", "G-1e200", "zero-denominator"])
def test_what_validate_accepts_every_command_runs(tmp_path, monkeypatch, row,
                                                  constants):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "records.csv").write_text(f"{CSV_HEADER}\n{row}\n", encoding="utf-8")
    inputs = ["--records", "records.csv"]
    if constants is not None:
        (tmp_path / "constants.txt").write_text(constants, encoding="utf-8")
        inputs += ["--constants", "constants.txt"]
    accepted = _run(["validate", *inputs])[0] == 0
    failed = [command for command in ("compute", "figure", "bounds")
              if _run([command, *inputs])[0] != 0]
    assert not accepted or not failed, failed


# ------------------------------------------- the CLI route, the library route

# Rows the random records files are made of: the embedded and thermal
# records, a row whose nucleus count overflows, and rows that do not parse.
_ROUTE_RECORDS = (*embedded_catalog(),
                  *stfom.parse_records(_read(_THERMAL_RECORDS)))
_RANGE_ROW = _OUT_OF_RANGE_ROWS["overflow"][0]
_BAD_ROWS = ("Probe,2021,src,squishy,Si3N4,1e-9,,,1e-15,,,,absolute,earth,false,",
             "x,2021")


def _record_line(record):
    return serialize_records((record,))[len(CSV_HEADER) + 1:]


@st.composite
def _route_files(draw):
    """The bytes of a records file: records and renamed copies of them
    (their FOMs tie), then perhaps a repeated name, a row that does not
    parse or a row that cannot be evaluated, each in a random place, and
    perhaps a byte that is not UTF-8 at the end."""
    shown = []
    for i in range(draw(st.integers(0, 8))):
        if shown and draw(st.booleans()):
            copy = draw(st.sampled_from(shown))
            shown.append(copy._replace(name=f"{copy.name} #{i}"))
        else:
            shown.append(draw(st.sampled_from(_ROUTE_RECORDS)))
    lines = [_record_line(record) for record in shown]
    for i, problem in enumerate(draw(st.lists(
            st.sampled_from(("again", "bad", "range")), max_size=2))):
        if problem == "range":
            line = _RANGE_ROW.replace("Huge", f"Huge {i}", 1) + "\n"
        elif problem == "bad":
            line = draw(st.sampled_from(_BAD_ROWS)) + "\n"
        else:  # a name already taken
            line = draw(st.sampled_from(lines)) if lines else ""
        lines.insert(draw(st.integers(0, len(lines))), line)
    tail = draw(st.sampled_from((b"", b"\xff\n")))
    return (CSV_HEADER + "\n" + "".join(lines)).encode() + tail


def _library_route(command, records, constants_text, which, k, out):
    """The exit code, stdout, stderr and output files of a command, built
    from parse_records, evaluate_catalog, rank and the emit_* functions."""
    decoding = _whole_file_decoding(records)
    if decoding is not None:
        return 1, "", decoding, {}
    text = records.read_bytes().decode("utf-8-sig")
    warnings = ""
    try:
        catalog = stfom.parse_records(text)
        constants = (Constants() if constants_text is None
                     else stfom.load_constants(constants_text))
        if command == "validate":
            return 0, f"ok: {len(catalog)} records\n", "", {}
        results = stfom.evaluate_catalog(catalog, constants)
        warnings = "".join(f"warning: {warning}\n" for result in results.values()
                           for warning in result.warnings)
        ranked = stfom.rank(catalog, results, which)
        if command == "figure":
            points = stfom.build_figure_points(ranked, results, k)
            svg, dat = stfom.emit_figure(points)
            return 0, (f"wrote figure.svg and figure.dat ({len(points)} points) "
                       f"to {out}\n"), warnings, {"figure.svg": svg, "figure.dat": dat}
        summary = stfom.emit_bounds_summary(catalog, results, constants, which)
        if command == "bounds":
            return 0, summary, warnings, {}
        table = stfom.emit_table(ranked, results)
        return (0, f"wrote table.csv ({len(ranked)} rows) and bounds.txt to {out}\n",
                warnings, {"table.csv": table, "bounds.txt": summary})
    except stfom.CatalogError as exc:
        return 1, "", "".join(f"{d}\n" for d in exc.diagnostics), {}
    except stfom.StfomError as exc:
        return 1, "", f"{warnings}error: {exc}\n", {}


_LINES = {record.name: _record_line(record) for record in _ROUTE_RECORDS}
_ASENBAUM, _CAVENDISH = _LINES["Asenbaum '17"], _LINES["Cavendish 1798"]
_TIED = _ASENBAUM.replace("Asenbaum '17", "Asenbaum #1")
_HUGE = _RANGE_ROW + "\n"


def _renamed(name, *names):
    """Lines of the record called name, renamed to each of names; their
    FOMs tie."""
    record = next(record for record in _ROUTE_RECORDS if record.name == name)
    return "".join(_record_line(record._replace(name=new)) for new in names)


# Tied names that sort by code point: one before every longer name it
# begins, "A" before "A!" although "!" sorts below ",", a quoted name, and
# names past ASCII and past the Basic Multilingual Plane.
_TIED_NAMES = (_renamed("Asenbaum '17", "X #10", "A!", "X #1", '"A,B"', "A", "\u00c4",
                        "\U0001d538", "Z")
               + _renamed("Cavendish 1798", "X #1 C", "A C", "A! C", "\U0001d538 C"))
# FOMs near the largest number stfom prints and near the smallest normal
# float.
_EXTREME_FOMS = (
    "Huge fom,2021,synthetic,trapped-ion,Si3N4,1.0,1.79e308,,,1.0,,,"
    "absolute,earth,false,\n"
    "Tiny fom,2021,synthetic,trapped-ion,Si3N4,1.0,1,,,1.4916681462400413e-154,,,"
    "absolute,earth,false,\n"
    "Tiny fom 2,2021,synthetic,trapped-ion,Si3N4,1.0,1.0000000000000002,,,"
    "1.4916681462400413e-154,,,absolute,earth,false,\n")


@settings(max_examples=60, deadline=None)
@given(_route_files(), st.sampled_from((None, "G 1e200\n")), st.integers(1, 4))
# Tied FOMs, with and without the baseline record; the worse category first.
@example(f"{CSV_HEADER}\n{_CAVENDISH}{_ASENBAUM}{_TIED}".encode(), None, 1)
@example(f"{CSV_HEADER}\n{_TIED}{_ASENBAUM}".encode(), None, 1)
# Bad rows after good ones; a duplicate name.
@example(f"{CSV_HEADER}\n{_CAVENDISH}{_BAD_ROWS[0]}\n{_ASENBAUM}{_ASENBAUM}"
         .encode(), None, 3)
# A row that cannot be evaluated: after a record that warns, before a row
# that does not parse, and before a byte that is not UTF-8.
@example(f"{CSV_HEADER}\n{_LINES['Cold Beam']}{_HUGE}".encode(), None, 3)
@example(f"{CSV_HEADER}\n{_ASENBAUM}{_HUGE}{_BAD_ROWS[1]}\n".encode(), None, 3)
@example(f"{CSV_HEADER}\n{_HUGE}{_ASENBAUM}".encode() + b"\xff\n", None, 3)
# No record is absolutely measured on Earth.
@example(f"{CSV_HEADER}\n{_ASENBAUM}".encode(), "G 1e200\n", 2)
@example(f"{CSV_HEADER}\n{_TIED_NAMES}".encode(), None, 3)
@example(f"{CSV_HEADER}\n{_EXTREME_FOMS}{_CAVENDISH}{_ASENBAUM}".encode(), None, 3)
def test_each_command_gives_what_the_library_gives(data, constants, k):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        records = tmp / "records.csv"
        records.write_bytes(data)
        inputs = ["--records", str(records)]
        if constants is not None:
            (tmp / "constants.txt").write_text(constants, encoding="utf-8")
            inputs += ["--constants", str(tmp / "constants.txt")]
        for which in ("all", "absolute-on-earth"):
            for command in RECORD_COMMANDS:
                out = tmp / f"{command}-{which}"
                argv = [command, *inputs]
                if command != "validate":
                    argv += ["--filter", which]
                if command in ("compute", "figure"):
                    argv += ["--out", str(out)]
                if command == "figure":
                    argv += ["--k", str(k)]
                code, stdout, stderr, files = _library_route(
                    command, records, constants, which, k, out)
                assert _run(argv) == (code, stdout, stderr), argv
                written = ({path.name: path.read_bytes() for path in out.iterdir()}
                           if out.exists() else {})
                assert written == {name: text.encode()
                                   for name, text in files.items()}, argv


def _sweep_like(rows):
    """A records file of rows whose masses, materials and densities all
    differ, with thermal inputs, as a parameter sweep writes them; one row
    in ten quotes a force noise below its thermal floor, which warns."""
    lines = [CSV_HEADER]
    for i in range(rows):
        fraction = (i + 1) / (rows + 1)
        mass, f0, temp, quality = (10.0 ** (-20 + i % 997 / 50), 10.0 ** (1 + i % 89 / 18),
                                   0.01 + i % 307, 10.0 ** (2 + i % 61 / 10))
        floor = math.sqrt(4 * 1.380649e-23 * temp * mass * 2 * math.pi * f0 / quality)
        lines.append(
            f"sweep {i:05d},{1990 + i % 36},Sweep et al. ({1990 + i % 36}),"
            f"{CATEGORIES[i % len(CATEGORIES)]},"
            f"{fraction!r}*SiO2+{1.0 - fraction!r}*B2O3,{mass!r},,{f0!r},"
            f"{floor * (0.5 if i % 10 == 3 else 3.0 + i % 7)!r},,{temp!r},{quality!r},"
            f"{'differential' if i % 10 == 0 else 'absolute'},"
            f"{'space' if i % 20 == 1 else 'earth'},false,")
    return "".join(f"{line}\n" for line in lines)


def test_record_commands_hold_no_catalog(tmp_path, monkeypatch):
    text = _sweep_like(2000)
    records = tmp_path / "records.csv"
    records.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    stfom.parse_material.cache_clear()
    stfom.parse_formula.cache_clear()

    def library_route():
        catalog = stfom.parse_records(text)
        return catalog, stfom.evaluate_catalog(catalog)

    # What the library route keeps alive: the catalog and its results.
    (catalog, results), _, library = _memory(library_route)
    table = stfom.emit_table(stfom.rank(catalog, results), results)
    del catalog, results
    peaks = {}
    for command in ("validate", "bounds", "figure", "compute"):
        stfom.parse_material.cache_clear()
        stfom.parse_formula.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            _, peaks[command], _ = _memory(lambda: main([command, "--records", str(records)]))
        assert err.getvalue().count("warning: ") == (command != "validate") * 200
    # validate, bounds and figure keep a few records at most.
    assert max(peaks["validate"], peaks["bounds"], peaks["figure"]) < library / 4, peaks
    # compute keeps what bounds keeps (every name read, among the rest) and
    # one bytes object per row of table.csv: its line, and about 61 bytes
    # more here for its FOM, its name and the object's header.  A (fom,
    # name, line) tuple per row took 136 to 144 bytes beyond its line, by
    # Python version.
    assert peaks["compute"] < peaks["bounds"] + len(table) + 96 * 2000, peaks


def _nearly_fill_interned_strings():
    """Leave the interpreter's table of interned strings 500 slots short of
    its next reallocation.  A string interned and then dropped takes a
    slot that only a reallocation frees, so the strings interned between
    two reallocations, each seen as a jump in tracemalloc's peak, are as
    many as the table then takes before the next."""
    grown = []  # how many strings had been interned at each reallocation
    for count in range(1_000_000):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sys.intern(f"stfom test string {count}")
        if tracemalloc.get_traced_memory()[1] - before > 64 * 1024:
            grown.append(count)
            if len(grown) == 2:
                break
    else:
        pytest.fail("the table of interned strings never grew")
    for count in range(count + 1, count + grown[1] - grown[0] - 500):
        sys.intern(f"stfom test string {count}")


def test_a_command_leaves_nothing_held_by_the_parser(tmp_path):
    # Parsing interned each row's reference cell once.  An interned string
    # leaves the interpreter's table when it dies, and a command drops
    # each record, so every row added its reference to the table again and
    # could make the table grow, for good: the second of two commands left
    # one 415,088-byte allocation, made there, on Python 3.11.  The table
    # is filled first, so a command that interns its rows must grow it.
    records = tmp_path / "records.csv"
    records.write_text(_sweep_like(2000), encoding="utf-8")
    parser = [tracemalloc.Filter(True, stfom.catalog.__file__)]

    def bounds():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["bounds", "--records", str(records)]) == 0
        # The material caches hold what they hold by design.
        stfom.parse_material.cache_clear()
        stfom.parse_formula.cache_clear()
        return tracemalloc.take_snapshot().filter_traces(parser)

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        bounds()
        # On Python 3.12 an interned string never leaves the table.
        if sys.version_info[:2] != (3, 12):
            _nearly_fill_interned_strings()
        first = tracemalloc.take_snapshot().filter_traces(parser)
        second = bounds()
    finally:
        if not tracing:
            tracemalloc.stop()
    held = [stat for stat in second.compare_to(first, "lineno") if stat.size_diff > 0]
    # Only a few freed objects that Python keeps for reuse, if any.
    assert sum(stat.size_diff for stat in held) < 4096, held
