"""The README's library example runs against the current API, and its
export lists are the modules' `__all__`, which the package exports."""

import importlib
import re
from pathlib import Path

import pytest

import stfom

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("Gisler '22 ")
    assert "decades below the torsion-balance baseline: 14.5" in out


def _readme_export_lists():
    """{module: [names]} from the README "Library" bullets that list what
    each module exports: the first backticked word names the module."""
    readme = README.read_text(encoding="utf-8")
    block = readme.split("listed by the module that defines\nthem:\n\n", 1)[1]
    block = block.split("\n\n", 1)[0]
    lists = {}
    for bullet in block.split("\n- "):
        module, *names = re.findall(r"`(\w+)`", bullet)
        lists[module] = names
    return lists


def test_readme_export_lists_are_the_modules_all():
    lists = _readme_export_lists()
    assert lists == {module: importlib.import_module(f"stfom.{module}").__all__
                     for module in lists}
    exported = [name for names in lists.values() for name in names]
    assert sorted(exported) == sorted(stfom.__all__)


def test_each_public_name_is_exported_once_by_the_module_that_defines_it():
    assert len(set(stfom.__all__)) == len(stfom.__all__)
    namespace = {}
    exec("from stfom import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(stfom.__all__)
    for module in _readme_export_lists():
        for name in importlib.import_module(f"stfom.{module}").__all__:
            value = getattr(stfom, name)
            if callable(value):
                assert value.__module__ == f"stfom.{module}", name


# The README's "Library" idiom for reading a records file through
# parse_records without holding its text.
def _open_as_the_readme_does(path):
    return open(path, encoding="utf-8-sig", newline="\n")


def test_the_readme_file_idiom_parses_as_the_decoded_text(tmp_path):
    spread = stfom.Catalog(r._replace(notes=r.notes.replace(" ", "\n"))
                           for r in stfom.embedded_catalog())
    text = stfom.serialize_records(spread).replace("\n", "\r\n")
    path = tmp_path / "records.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    with _open_as_the_readme_does(path) as fh:
        loaded = stfom.parse_records(fh)
    assert loaded == stfom.parse_records(path.read_bytes().decode("utf-8-sig"))
    assert len(loaded) == len(spread)
    assert any("\n" in r.notes for r in loaded)


def test_the_readme_file_idiom_stops_at_a_bad_header(tmp_path):
    # A text file decodes in chunks as it is read; the byte that is not
    # UTF-8 lies past its first chunk, so a reader that stops at the header
    # never decodes it.
    rows = stfom.serialize_records(stfom.embedded_catalog()).encode()
    path = tmp_path / "records.csv"
    path.write_bytes(b"not,a,header\n" + rows * (65536 // len(rows) + 1) + b"\xff\n")
    with _open_as_the_readme_does(path) as fh, pytest.raises(stfom.CatalogError) as err:
        stfom.parse_records(fh)
    assert [d.code for d in err.value.diagnostics] == ["BadHeader"]
