"""Checks 5, 6 and 7 of ``tools/docs_check.py`` on fixture trees.

Each case writes a tiny ``src/repro`` package plus an entry-directory
caller and asserts which definitions (check 5), defaulted parameters
(check 6) or record fields (check 7) the check reports.
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


RECORDS = """
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class Result:
    value: int
    extra: int = 0


class Pair(NamedTuple):
    left: int
    right: int
"""


def unread(tmp_path, caller: str, directory: str = "examples",
           package: str = "core") -> set:
    """``{Class.field}`` check 7 reports for one tree."""
    for relative, text in ((f"src/repro/{package}/records.py", RECORDS),
                           (f"{directory}/caller.py", caller)):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return {finding.split(": ", 1)[1].split(" ", 1)[0]
            for finding in docs_check.check_fields(tmp_path)}


def test_write_only_fields_are_flagged(tmp_path):
    found = unread(tmp_path, """
        from repro.core.records import Pair, Result
        Result(1, extra=2).value
        Pair(left=1, right=2)
    """)
    assert found == {"Result.extra", "Pair.left", "Pair.right"}


def test_every_package_is_covered(tmp_path):
    found = unread(tmp_path, """
        from repro.cluster.records import Result
        Result(1).value
    """, package="cluster")
    assert found == {"Result.extra", "Pair.left", "Pair.right"}


def test_reads_from_tests_do_not_count(tmp_path):
    found = unread(tmp_path, """
        from repro.core.records import Pair, Result
        print(Result(1).value, Result(1).extra, Pair(1, 2).left)
    """, directory="tests")
    assert found == {"Result.value", "Result.extra", "Pair.left", "Pair.right"}


def test_attribute_loads_and_getattr_constants_are_reads(tmp_path):
    assert unread(tmp_path, """
        def show(result, pair):
            print(result.value, result.extra, pair.left)
            return getattr(pair, "right")
    """) == set()


NAMES = """
LIMIT = 3
_SCALE = 2


def percentile(values, q):
    return sorted(values)[q]


def evaluate(name):
    return name
"""


def unnamed(tmp_path, caller: str, library: str = NAMES) -> set:
    """``{qualname}`` check 5 reports for one tree."""
    for relative, text in (("src/repro/lib.py", library),
                           ("benchmarks/caller.py", caller)):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return {finding.split(": ", 1)[1].split(" ", 1)[0]
            for finding in docs_check.check_names(tmp_path)}


def test_named_definitions_pass(tmp_path):
    assert unnamed(tmp_path, """
        from repro import lib
        from repro.lib import evaluate, percentile
        print(lib.LIMIT * lib._SCALE, evaluate("x"), percentile([1], 0))
    """) == set()


def test_a_same_named_def_in_another_module_is_not_a_use(tmp_path):
    found = unnamed(tmp_path, """
        from repro.lib import LIMIT, _SCALE, percentile


        def evaluate(name):
            return name * LIMIT * _SCALE

        evaluate(percentile([1], 0))
    """)
    assert found == {"evaluate"}


def test_a_name_imported_from_outside_repro_is_not_a_use(tmp_path):
    found = unnamed(tmp_path, """
        from repro.lib import LIMIT, _SCALE, evaluate
        from statistics import percentile

        evaluate(percentile([LIMIT], _SCALE))
    """)
    assert found == {"percentile"}


def test_unread_constants_are_flagged(tmp_path):
    found = unnamed(tmp_path, """
        from repro.lib import evaluate, percentile
        evaluate(percentile([1], 0))
    """)
    assert found == {"LIMIT", "_SCALE"}


def test_an_attribute_use_counts_despite_a_same_named_def(tmp_path):
    assert unnamed(tmp_path, """
        from repro import lib


        def evaluate(name):
            return lib.evaluate(name) * lib.LIMIT * lib._SCALE

        evaluate(lib.percentile([1], 0))
    """) == set()


def test_a_module_level_assignment_shadows_but_a_nested_def_does_not(
        tmp_path):
    found = unnamed(tmp_path, """
        from repro.lib import LIMIT, _SCALE, evaluate, percentile

        LIMIT = LIMIT * _SCALE


        def run():
            def evaluate(name):
                return name
            return evaluate(LIMIT)

        print(run(), evaluate("x"), percentile([1], 0))
    """)
    assert found == {"LIMIT"}


METHODS = """
class Report:
    def total(self):
        return 1

    def process(self, sort=True):
        return sort
"""


def test_a_local_of_a_methods_name_does_not_keep_it(tmp_path):
    found = unnamed(tmp_path, """
        from repro.lib import Report


        def run():
            total = 3
            return Report().process(total)

        run()
    """, library=METHODS)
    assert found == {"Report.total"}
    assert unnamed(tmp_path, """
        from repro.lib import Report
        Report().process(Report().total())
    """, library=METHODS) == set()


def test_a_local_of_a_methods_name_is_not_a_value_use(tmp_path):
    found = flagged(tmp_path, """
        from repro.lib import Report
        process = 1
        print(process, Report().process())
    """, library=METHODS)
    assert ("Report.process", "sort") in found
    found = flagged(tmp_path, """
        from repro.lib import Report
        print(Report().process)
    """, library=METHODS)
    assert ("Report.process", "sort") not in found
