"""The README's library example runs as written against the current API."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section_code(heading):
    """The first python block under the README's ``## heading``."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(section_code("Library example"), str(README), "exec"), {})
    assert re.fullmatch(r"\d+ symbol errors\n", out.getvalue())
