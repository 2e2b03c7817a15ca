"""README's library example runs as written, and its Public API table
lists exactly ncspan.__all__.

The example's one python block is executed, and each print's output must
be the value its trailing comment names, so removing or renaming a public
name that the example uses fails here.  The table names what reaches each
public name, so a name added to __all__ fails here until it has a row.
"""

import contextlib
import io
import re
from pathlib import Path

import ncspan

README = Path(__file__).parent.parent / "README.md"


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
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.MULTILINE)
    names = [name for name, _ in rows]
    assert len(names) == len(set(names)), "a name has two rows"
    assert sorted(names) == sorted(ncspan.__all__)
    assert all(reach.strip() for _, reach in rows)
