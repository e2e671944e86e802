"""Check 6 of ``tools/docs_check.py`` (option reachability) on fixture trees.

Each case writes a tiny ``src/repro`` package plus an entry-directory
caller and asserts which defaulted parameters the check reports.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "docs_check",
    Path(__file__).resolve().parents[1] / "tools" / "docs_check.py",
)
docs_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(docs_check)

LIBRARY = """
def f(a, b=1, *, c=2):
    return a + b + c


class Base:
    def __init__(self, x=1):
        self.x = x


class Child(Base):
    pass


class Forwarder(Base):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
"""


def flagged(tmp_path, caller: str, library: str = LIBRARY,
            directory: str = "examples") -> set:
    """``{(qualname, parameter)}`` check 6 reports for one tree."""
    for relative, text in (("src/repro/lib.py", library),
                           (f"{directory}/caller.py", caller)):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    found = set()
    for finding in docs_check.check_options(tmp_path):
        assert finding.startswith("src/repro/lib.py:")
        qualname, _, rest = finding.split(": ", 1)[1].partition("(")
        found.add((qualname, rest.split("=", 1)[0]))
    return found


def test_never_passed_defaults_are_flagged(tmp_path):
    assert flagged(tmp_path, "from repro.lib import f\nf(0)\n") == {
        ("f", "b"), ("f", "c"), ("Base.__init__", "x"),
    }


def test_parameter_passed_by_keyword(tmp_path):
    found = flagged(tmp_path, "from repro.lib import f\nf(0, c=3)\n")
    assert ("f", "c") not in found
    assert ("f", "b") in found


def test_parameter_passed_by_position(tmp_path):
    found = flagged(tmp_path, "from repro.lib import f\nf(0, 5)\n")
    assert ("f", "b") not in found
    assert ("f", "c") in found  # keyword-only: position cannot reach it


def test_callee_called_with_kwargs_keeps_everything(tmp_path):
    found = flagged(tmp_path, """
        from repro.lib import f
        options = {"b": 2}
        f(0, **options)
    """)
    assert not {("f", "b"), ("f", "c")} & found


def test_function_stored_in_a_dict_keeps_everything(tmp_path):
    found = flagged(tmp_path, """
        from repro.lib import f
        TABLE = {"f": f}
    """)
    assert not {("f", "b"), ("f", "c")} & found


def test_base_init_reached_through_a_subclass_call(tmp_path):
    found = flagged(tmp_path, "from repro.lib import Child\nChild(x=3)\n")
    assert ("Base.__init__", "x") not in found


def test_base_init_reached_through_super(tmp_path):
    library = LIBRARY + """

class Fixed(Base):
    def __init__(self):
        super().__init__(5)
"""
    found = flagged(tmp_path, "from repro.lib import Fixed\nFixed()\n",
                    library=library)
    assert ("Base.__init__", "x") not in found


def test_forwarded_star_args_pass_what_reaches_the_forwarder(tmp_path):
    assert ("Base.__init__", "x") in flagged(
        tmp_path, "from repro.lib import Forwarder\nForwarder()\n")
    assert ("Base.__init__", "x") not in flagged(
        tmp_path, "from repro.lib import Forwarder\nForwarder(7)\n")


def test_calls_from_tests_do_not_count(tmp_path):
    found = flagged(tmp_path, "from repro.lib import f\nf(0, 1, c=2)\n",
                    directory="tests")
    assert {("f", "b"), ("f", "c")} <= found


@pytest.mark.parametrize("use", ("isinstance(obj, Base)", "x: Base = obj",
                                 "Base.attribute"))
def test_type_positions_are_not_value_uses(tmp_path, use):
    found = flagged(tmp_path, f"from repro.lib import Base\nobj = None\n{use}\n")
    assert ("Base.__init__", "x") in found


@pytest.mark.parametrize("caller", (
    # a dict display
    "f(0, **{'b': 2})",
    # dict() with keywords only
    "f(0, **dict(b=2))",
    # a local bound only to those, grown by string-keyed stores
    """
    def main(flag):
        options = {}
        if flag:
            options = dict(b=2)
        options["b"] = 3
        f(0, **options)
    """,
), ids=("display", "dict-call", "local-name"))
def test_readable_kwargs_pass_their_keys(tmp_path, caller):
    found = flagged(tmp_path, "from repro.lib import f\n"
                    + textwrap.dedent(caller))
    assert ("f", "b") not in found
    assert ("f", "c") in found


@pytest.mark.parametrize("caller", (
    """
    def main():
        for options in ({"b": 2},):
            f(0, **options)
    """,
    """
    def main(make):
        f(0, **make())
    """,
    """
    def main(more):
        options = {}
        options.update(more)
        f(0, **options)
    """,
    """
    def main(options):
        f(0, **options)
    """,
), ids=("loop-variable", "call", "updated-name", "parameter"))
def test_unreadable_kwargs_keep_everything(tmp_path, caller):
    found = flagged(tmp_path, "from repro.lib import f\n"
                    + textwrap.dedent(caller))
    assert not {("f", "b"), ("f", "c")} & found
