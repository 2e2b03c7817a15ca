"""README's library example runs as written.

Its one python block is executed, and each print's output must be the
value its trailing comment names, so removing or renaming a public name
that the example uses fails here.
"""

import contextlib
import io
import re
from pathlib import Path

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
