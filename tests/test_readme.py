"""The README's Python API example runs against the current package, and its
configuration reference states the parser's defaults and the bounds of its
field tables."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from spinturnstile.config import parse_config, resolved_json

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_has_a_python_example():
    assert len(python_blocks()) >= 1


def test_readme_python_examples_run():
    for block in python_blocks():
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})


def assert_close(got, want, path):
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-4), path
    else:
        assert got == want, path


def test_readme_configuration_states_the_defaults():
    # Every section but the example sweep resolves as an empty document does;
    # the README rounds g_nuclear, so floats compare to 1e-4 relative.
    (block,) = re.findall(r"^```jsonc\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    resolved = json.loads(resolved_json(parse_config(re.sub(r"//.*", "", block))))
    defaults = json.loads(resolved_json(parse_config("{}")))
    assert list(resolved) == list(defaults)
    for section in defaults:
        if section != "sweep":
            assert_close(resolved[section], defaults[section], section)


def test_readme_lists_every_bound_of_the_field_tables():
    from spinturnstile.config import _LEAD_FIELDS, _ROOT_FIELDS
    from spinturnstile.model import _MODEL_FIELDS

    tables = [_ROOT_FIELDS, _MODEL_FIELDS, _LEAD_FIELDS,
              *(fields for _, _, fields in _ROOT_FIELDS.values() if isinstance(fields, dict))]
    bounds = [f"`{key} {op} {bound}`" for table in tables for key, (_, _, read) in table.items()
              if type(read) is tuple for op, bound in read]
    text = README.read_text()
    assert len(bounds) == 10 and not [bound for bound in bounds if bound not in text]
