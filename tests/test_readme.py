"""The README's Python API example runs against the current package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_has_a_python_example():
    assert len(python_blocks()) >= 1


def test_readme_python_examples_run():
    for block in python_blocks():
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
