"""The README's code examples run against the current package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    text = README.read_text()
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_entry_points_block_runs(capsys):
    exec(compile(_python_block("Library entry points"), str(README), "exec"), {})
    assert capsys.readouterr().out
