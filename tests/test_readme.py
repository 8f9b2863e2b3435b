import ast
import contextlib
import inspect
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


GUARDED = ("build_scheme", "boundary_fold", "residual", "advance",
           "integrate", "Grid2D", "TimeGrid", "StencilMatrix", "restrict",
           "extrapolate_space", "extrapolate_spacetime", "runge_order")


def test_backticked_calls_name_the_parameters_in_order():
    # a backticked call of a stepper entry point, a record constructor or
    # a nested-mesh function (restrict, the extrapolations, runge_order)
    # that lists its arguments without "..." names the parameters in order,
    # with the keyword-only marker "*" where the signature has one, and any
    # default it writes equals the signature's
    import parabolic2d
    with open(README) as f:
        prose = re.sub(r"```.*?```", "", f.read(), flags=re.S)
    calls = [call for span in re.findall(r"`([^`]*)`", prose)
             for call in re.findall(rf"\b({'|'.join(GUARDED)})\(([^()]*)\)",
                                    span)]
    checked = []
    for name, args in calls:
        if "..." in args:
            continue
        params = inspect.signature(getattr(parabolic2d, name)).parameters
        expected = []
        for p in params.values():
            if p.kind is p.KEYWORD_ONLY and "*" not in expected:
                expected.append("*")
            expected.append(p.name)
        written = [a.strip().partition("=") for a in args.split(",")]
        assert [key for key, _, _ in written] == expected, (name, args)
        for key, eq, default in written:
            if eq:
                assert ast.literal_eval(default) == params[key].default, \
                    (name, key)
        checked.append(name)
    assert {"boundary_fold", "advance", "integrate", "Grid2D", "TimeGrid",
            "StencilMatrix", "restrict", "extrapolate_space",
            "extrapolate_spacetime", "runge_order"} <= set(checked), checked
