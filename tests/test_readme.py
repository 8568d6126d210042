"""The README's library example runs against the current API, and the
package exports only names that README or the benchmark uses."""

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


def test_every_public_name_resolves_and_is_used():
    readme = README.read_text(encoding="utf-8")
    bench = "".join(path.read_text(encoding="utf-8")
                    for path in sorted((ROOT / "bench").glob("*.py")))
    unused = []
    for name in stfom.__all__:
        value = getattr(stfom, name)
        if isinstance(value, type) and issubclass(value, Exception):
            continue  # every exception stays public, so callers can catch it
        if not (re.search(rf"\b{name}\b", readme)
                or re.search(rf"\bstfom\.{name}\b", bench)):
            unused.append(name)
    assert unused == []
