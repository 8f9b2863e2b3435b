import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_quick_start_runs_as_written():
    with open(README) as f:
        [block] = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert float(out.getvalue()) == pytest.approx(2.2e-05, rel=0.05)


def test_flags_list_the_parser_choices():
    # every `--key {a,b}` of the README is a closed setting with exactly
    # the values cli.CHOICES gives it, and every closed setting is listed
    from parabolic2d.cli import CHOICES
    with open(README) as f:
        listed = re.findall(r"`--([\w-]+) \{([^}]*)\}`", f.read())
    assert [key for key, _ in listed] == list(CHOICES)
    assert {key: tuple(values.split(",")) for key, values in listed} == CHOICES
