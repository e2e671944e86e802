#!/usr/bin/env python
"""Documentation lint for the repro package.

Five checks, all hard failures:

1. **Docstrings** — every public module under ``src/repro`` (any module
   whose dotted path has no ``_``-prefixed component) must carry a
   non-trivial module docstring.
2. **Exports** — every ``__all__`` entry must resolve to an attribute of
   its module, contain no duplicates, and be sorted, so the package
   ``__init__`` files never advertise stale names.
3. **Prose references** — in ``README.md`` and ``docs/architecture.md``,
   every backticked dotted reference (``repro.x.Y``, or the short form
   ``serve.Y`` rooted at a ``repro`` subpackage) must resolve by import,
   and every backticked CamelCase identifier (alone, or as the head of
   ``Name.attr``) must be a class or function defined under ``repro`` —
   a deleted class cannot survive in the docs.
4. **Reachability** — every module under ``src/repro`` must be reachable
   through imports from what somebody runs: ``repro.cli`` /
   ``repro.__main__``, ``perfbench/*.py``, ``benchmarks/*.py``,
   ``examples/*.py`` or ``tools/*.py``. A package ``__init__.py``
   re-exporting a module does not reach it (that would make every
   module live forever); ``from repro.pkg import Name`` reaches the
   module under ``pkg`` that defines ``Name``. A module only ``tests/``
   can reach is a capability nothing uses: it goes, with its tests.
5. **Name reachability** — the same rule one level down: every top-level
   function or class and every non-dunder method under ``src/repro``
   must be named from outside its own body somewhere in ``src/`` or the
   entry directories above, by an ``ast.Name``, an ``ast.Attribute`` or
   an import alias (a package ``__init__.py`` re-export, an ``__all__``
   string, a docstring or prose does not count). Names are matched as
   bare identifiers, so any ``.attr`` of the same name keeps a method
   alive. References from inside a definition that is itself unnamed do
   not count either, iterated to a fixed point: each finding says in
   which round it fell.

Run from the repository root::

    python tools/docs_check.py

Exit status is non-zero on any finding; the Makefile ``docs-check``
target and CI wire this in.
"""

from __future__ import annotations

import ast
import importlib
import itertools
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
MIN_DOCSTRING_CHARS = 20
PROSE = ("README.md", "docs/architecture.md")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
_CAMEL = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+")
_FILE_SUFFIXES = {"json", "jsonl", "html", "py", "md", "txt", "toml", "yml"}
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("perfbench", "benchmarks", "examples", "tools")


def iter_public_modules() -> list[str]:
    """Dotted names of all public modules under ``src/repro``."""
    names = ["repro"]
    package_dir = str(SRC / "repro")
    for info in pkgutil.walk_packages([package_dir], prefix="repro."):
        parts = info.name.split(".")
        if any(part.startswith("_") for part in parts[1:]):
            continue
        names.append(info.name)
    return sorted(names)


def check_module(name: str) -> list[str]:
    problems = []
    try:
        module = importlib.import_module(name)
    except Exception as exc:  # pragma: no cover - import bugs are findings
        return [f"{name}: import failed: {exc!r}"]

    doc = (module.__doc__ or "").strip()
    if len(doc) < MIN_DOCSTRING_CHARS:
        problems.append(
            f"{name}: missing or trivial module docstring "
            f"({len(doc)} chars, need >= {MIN_DOCSTRING_CHARS})"
        )

    exported = getattr(module, "__all__", None)
    if exported is not None:
        for entry in exported:
            if not hasattr(module, entry):
                problems.append(
                    f"{name}: __all__ entry {entry!r} does not resolve"
                )
        if len(set(exported)) != len(exported):
            dupes = sorted(
                {e for e in exported if list(exported).count(e) > 1}
            )
            problems.append(f"{name}: duplicate __all__ entries {dupes}")
        if list(exported) != sorted(exported):
            problems.append(f"{name}: __all__ is not sorted")
    return problems


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                target = getattr(target, attr)
        except AttributeError:
            return False
        return True
    return False


def check_prose(modules: list[str]) -> list[str]:
    defined = {  # class/function name -> the repro module that defines it
        attr: value.__module__
        for name in modules if name in sys.modules  # failed imports: check 1
        for attr, value in vars(sys.modules[name]).items()
        if getattr(value, "__module__", "").startswith("repro")
    }
    subpackages = {m.split(".")[1] for m in modules if m.count(".")}
    problems = []
    for doc in PROSE:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for token in sorted(set(re.findall(r"`([^`\n]+)`", text))):
            token = token.removesuffix("()")
            if not (_CAMEL.fullmatch(token) or _DOTTED.fullmatch(token)):
                continue
            head, last = token.split(".")[0], token.rsplit(".", 1)[-1]
            if _CAMEL.fullmatch(head):
                # An undefined name falls through to ``repro.<Name>``,
                # which cannot resolve either.
                target = f"{defined.get(head, 'repro')}.{token}"
            elif head == "repro":
                target = token
            elif head in subpackages and last not in _FILE_SUFFIXES:
                target = f"repro.{token}"
            else:
                continue
            if not _resolves(target):
                problems.append(f"{doc}: `{token}` does not resolve")
    return problems


def check_reachability() -> list[str]:
    """Modules under ``src/repro`` with no import path from an entry point."""
    files = {}  # dotted module name -> its source file
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_init = parts[-1] == "__init__"
        files[".".join(parts[:-1] if is_init else parts)] = path
    trees: dict[str, ast.AST] = {}

    def tree_of(module: str) -> ast.AST:
        if module not in trees:
            trees[module] = ast.parse(files[module].read_text("utf-8"))
        return trees[module]

    def is_package(module: str) -> bool:
        return files[module].name == "__init__.py"

    def defining(module: str, name: str | None) -> str | None:
        """The module ``from module import name`` lands in."""
        if module not in files:
            return None
        if name is None or not is_package(module):
            return module
        for node in tree_of(module).body:  # what the __init__ re-exports
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return defining(node.module, alias.name) or module
        submodule = f"{module}.{name}"
        return submodule if submodule in files else module

    def targets(tree: ast.AST) -> set[str]:
        """Modules a file imports, at any depth (lazy imports count)."""
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found |= {defining(alias.name, None) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found |= {
                    defining(node.module, alias.name) for alias in node.names
                }
        return found - {None}

    frontier = set(ENTRY_MODULES)
    for directory in ENTRY_DIRS:
        for path in sorted((REPO_ROOT / directory).glob("*.py")):
            frontier |= targets(ast.parse(path.read_text("utf-8")))
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        reached.add(module)
        if not is_package(module):  # a re-export is not a use
            frontier |= targets(tree_of(module)) - reached
    return [
        f"{module}: no import path from {', '.join(ENTRY_MODULES)}, "
        f"{'/, '.join(ENTRY_DIRS)}/ (tests and package re-exports "
        f"do not count)"
        for module in sorted(files)
        if module not in reached and not is_package(module)
    ]


def check_names() -> list[str]:
    """Definitions under ``src/repro`` that nothing outside ``tests/`` names."""
    defs: list[tuple[str, str]] = []  # (file:line, qualname) per candidate
    names: list[str] = []  # the bare name of each candidate
    refs: dict[str, list[frozenset[int]]] = {}  # name -> defs around each use
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, inside, path, counts_imports, owner=None):
        """``owner`` is ``""`` at module level, the class name directly
        in a top-level class body and ``None`` anywhere deeper."""
        for child in ast.iter_child_nodes(node):
            enclosing = inside
            if path.is_relative_to(SRC) and (
                isinstance(child, (*functions, ast.ClassDef)) if owner == ""
                else owner and isinstance(child, functions)
                and not (child.name.startswith("__")
                         and child.name.endswith("__"))
            ):
                enclosing = inside | {len(defs)}
                defs.append((
                    f"{path.relative_to(REPO_ROOT)}:{child.lineno}",
                    f"{owner}.{child.name}" if owner else child.name,
                ))
                names.append(child.name)
            if isinstance(child, ast.Name):
                refs.setdefault(child.id, []).append(inside)
            elif isinstance(child, ast.Attribute):
                refs.setdefault(child.attr, []).append(inside)
            elif isinstance(child, ast.alias) and counts_imports:
                refs.setdefault(child.name, []).append(inside)
            is_class = owner == "" and isinstance(child, ast.ClassDef)
            visit(child, enclosing, path, counts_imports,
                  child.name if is_class else None)

    sources = sorted((SRC / "repro").rglob("*.py"))
    for directory in ENTRY_DIRS:
        sources += sorted((REPO_ROOT / directory).glob("*.py"))
    for path in sources:
        # A package ``__init__`` re-export is not a use (as in check 4).
        visit(ast.parse(path.read_text("utf-8")), frozenset(), path,
              path.name != "__init__.py", "")

    dead: dict[int, int] = {}  # candidate index -> round it fell in
    for round_ in itertools.count(1):
        fallen = [
            index for index, name in enumerate(names)
            if index not in dead and not any(
                index not in around and not around & dead.keys()
                for around in refs.get(name, ())
            )
        ]
        if not fallen:
            break
        dead.update(dict.fromkeys(fallen, round_))
    return [
        f"{where}: {qualname} (round {dead[index]}) is named by nothing in "
        f"src/, {'/, '.join(ENTRY_DIRS)}/ outside its own body"
        for index, (where, qualname) in enumerate(defs) if index in dead
    ]


def main() -> int:
    sys.path.insert(0, str(SRC))
    modules = iter_public_modules()
    findings: list[str] = []
    for name in modules:
        findings.extend(check_module(name))
    findings.extend(check_prose(modules))
    findings.extend(check_reachability())
    findings.extend(check_names())

    if findings:
        print(f"docs-check: {len(findings)} problem(s) in "
              f"{len(modules)} modules")
        for finding in findings:
            print(f"  - {finding}")
        return 1
    print(f"docs-check: {len(modules)} public modules documented, "
          f"all __all__ exports and prose references resolve, "
          f"every module and definition reachable from an entry point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
