"""README's library example runs as written, and its Public API tables
list exactly ncspan.__all__, each module's names in that module's table.

The example's one python block is executed, and each print's output must
be the value its trailing comment names, so removing or renaming a public
name that the example uses fails here.  Public API has one table per
module, headed by the module's name, and each row names what reaches its
public name, so a name added to a module's __all__ fails here until it
has a row in that module's table.
"""

import contextlib
import importlib
import io
import re
from pathlib import Path

import ncspan

README = Path(__file__).parent.parent / "README.md"
MODULES = ("linalg", "linearize", "poly", "span", "text")


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    code = _library_example()
    expected = re.findall(r"^print\(.*\)\s+# (\S+)$", code, re.MULTILINE)
    assert expected, "the example prints nothing to check"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_public_api_table_lists_all():
    section = README.read_text(encoding="utf-8").split("## Public API", 1)[1]
    groups = re.findall(r"^### `ncspan\.(\w+)`\n(.*?)(?=^### |\Z)", section, re.MULTILINE | re.DOTALL)
    assert [module for module, _ in groups] == list(MODULES)
    names = []
    for module, table in groups:
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.MULTILINE)
        assert sorted(name for name, _ in rows) == sorted(importlib.import_module(f"ncspan.{module}").__all__), module
        assert all(reach.strip() for _, reach in rows), module
        names += [name for name, _ in rows]
    assert len(names) == len(set(names)), "a name has two rows"
    assert sorted(names) == sorted(ncspan.__all__)
