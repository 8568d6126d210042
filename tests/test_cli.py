import csv
import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import stfom

from stfom import CSV_HEADER, embedded_catalog, serialize_records
from stfom.cli import _write_atomic, main


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


def test_bad_records_file_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        CSV_HEADER + "\n"
        "Probe,2021,src,squishy,Si3N4,1e-9,,,1e-15,,,,absolute,earth,false,\n"
        "Other,2021,src,membrane,Si3N4,zero,,,1e-15,,,,absolute,earth,false,\n",
        encoding="utf-8",
    )
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
        f"row 1, column {column}: BadNumber: noise density must be > 0, got 0.0\n")
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


# Every number is finite, but a derived one is not: the squared acceleration
# density underflows, a subnormal mass overflows it, a 0 K thermal row has a
# zero floor, and the nucleus count of 1e300 kg of lead overflows.  Only the
# last depends on the material, so only the record commands can see it.
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
}


@pytest.mark.parametrize("case, command", [
    (case, command) for case in _OUT_OF_RANGE_ROWS for command in RECORD_COMMANDS
    if not (case == "overflow" and command == "validate")
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


def test_bad_constants_file_is_validation_error(tmp_path, capsys):
    constants = tmp_path / "constants.txt"
    constants.write_text("G 0\n", encoding="utf-8")
    assert main(["validate", "--constants", str(constants)]) == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_concurrent_writers_never_share_a_temporary_file(tmp_path):
    target = tmp_path / "table.csv"
    texts = [f"writer {i}\n" * 1000 for i in range(4)]
    errors = []

    def write(text):
        try:
            for _ in range(25):
                _write_atomic(target, text)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(text,)) for text in texts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    assert target.read_text(encoding="utf-8") in texts


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
