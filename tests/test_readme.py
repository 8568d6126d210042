"""The README's library example runs against the current API, and its
export lists are the modules' `__all__`, which the package joins."""

import importlib
import re
from pathlib import Path

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
