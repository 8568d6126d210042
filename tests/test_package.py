"""The package resolves each public name on first use, from one table, and a
command loads only the modules the command line imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stfom

_SRC = Path(stfom.__file__).resolve().parents[1]
# The modules that `import stfom.cli` loads: no import waits for main().
_CLI_MODULES = ["bounds", "catalog", "cli", "errors", "fom", "formula", "quantities",
                "report"]


def _fresh(code, *args, cwd=None):
    """The stdout and stderr of code run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True, timeout=60)
    return run.stdout, run.stderr


def test_every_public_name_resolves_to_its_modules_object():
    listed = dir(stfom)
    for module, names in stfom._EXPORTS.items():
        defining = importlib.import_module(f"stfom.{module}")
        for name in names:
            assert getattr(stfom, name) is getattr(defining, name), name
            assert name in listed, name
    assert sorted(name for names in stfom._EXPORTS.values()
                  for name in names) == sorted(stfom.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stfom.no_such_name
    assert not hasattr(stfom, "cli_main")


def test_the_table_is_each_modules_all():
    modules = sorted(p.stem for p in Path(stfom.__file__).parent.glob("*.py")
                     if p.stem not in ("__init__", "__main__", "cli"))
    assert sorted(stfom._EXPORTS) == modules


def test_import_stfom_loads_no_module_until_one_is_read():
    out, _ = _fresh(
        "import sys, types, stfom\n"
        "print(*sorted(m for m in sys.modules if m.startswith('stfom.')))\n"
        "assert isinstance(stfom.catalog, types.ModuleType)\n"
        "print(*sorted(m for m in sys.modules if m.startswith('stfom.')))\n")
    assert out.splitlines() == [
        "", "stfom.catalog stfom.errors stfom.formula stfom.quantities"]


def test_import_stfom_cli_loads_what_every_command_needs():
    out, _ = _fresh("import sys, stfom.cli\n"
                    "print(*sorted(m for m in sys.modules if m.startswith('stfom.')))\n")
    assert out.split() == [f"stfom.{module}" for module in _CLI_MODULES]


@pytest.mark.parametrize("argv", [
    ["compute", "--out", "out"], ["figure", "--out", "out"], ["bounds"],
    ["formula", "Si3N4"], ["validate"],
], ids=lambda argv: argv[0])
def test_a_command_leaves_export_unloaded(tmp_path, argv):
    _, err = _fresh(
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('stfom', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit:', exc.code, *sorted(m for m in sys.modules\n"
        "                                    if m.startswith('stfom.')), file=sys.stderr)\n",
        *argv, cwd=tmp_path)
    assert err.splitlines()[-1].split() == [
        "exit:", "0", *(f"stfom.{module}" for module in _CLI_MODULES)]
