#!/usr/bin/env python
"""Documentation lint for the repro package.

Seven checks, all hard failures:

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
   function or class, every module-level ``UPPER_CASE`` constant and
   every non-dunder method under ``src/repro`` must be named from
   outside its own body somewhere in ``src/`` or the entry directories
   above, by an ``ast.Name``, an ``ast.Attribute`` or an import alias (a
   package ``__init__.py`` re-export, an ``__all__`` string, a docstring
   or prose does not count). Names are matched as bare identifiers, so
   any ``.attr`` of the same name keeps a method alive; a method is
   reached only through an attribute, so a bare name (a local variable
   of the same name) does not keep one alive. A bare name (an
   ``ast.Name`` or an import alias) in another module that binds the
   name itself — a top-level ``def``, ``class`` or assignment, or a
   ``from X import name`` with X outside ``repro`` — means that binding
   and does not count. References from inside a definition that is
   itself unnamed do not count either, iterated to a fixed point: each
   finding says in which round it fell.
6. **Option reachability** — the same rule for options: every defaulted
   positional or keyword-only parameter of a ``def`` under ``src/repro``
   (dunders other than ``__init__`` excluded; dataclass fields are not
   ``def`` parameters) must be passed by some call in ``src/`` or the
   entry directories, by keyword or by position (``self``/``cls`` not
   counted). Calls match by bare name; a class's ``__init__`` is also
   reached through calls to its subclasses, ``super().__init__(...)``
   and ``cls(...)`` in its classmethods. A ``**`` operand passes the
   keys it can be read to hold: a dict display with string keys,
   ``dict(k=...)`` with keywords only, or a name local to the enclosing
   def whose every binding there is one of those, plus ``name["k"] =
   ...`` stores. A callee keeps every parameter when a call passes it
   any other ``*``/``**`` operand (a loop variable, ``**f()``, a
   parameter, a name ``.update()`` touches), or when its name is used
   as a value (stored, passed or returned; a call target, annotation,
   ``isinstance`` operand, attribute base or class base is not a value
   use). A method's name is a value use only as an attribute
   (``obj.method`` passed on); a bare name is a local, not the method.
   A call that only forwards its enclosing def's own
   ``*args``/``**kwargs`` passes what the calls reaching that def pass.
   Any other defaulted parameter is a constant: inline it.
7. **Field reads** — every field of a ``@dataclass`` or ``NamedTuple``
   defined under ``src/repro`` must be read somewhere in ``src/`` or the
   entry directories: by an ``ast.Attribute`` load of its name, or a
   ``getattr`` whose name is a string constant. Names match bare, as in
   check 5; a read in ``tests/`` does not count. A field nothing reads is
   work nobody consumes: delete it, or read it.

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
_CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


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


def _sources(root: Path) -> list[Path]:
    """``src/repro`` and the entry directories' modules under ``root``."""
    sources = sorted((root / "src" / "repro").rglob("*.py"))
    for directory in ENTRY_DIRS:
        sources += sorted((root / directory).glob("*.py"))
    return sources


def _bare(node: ast.AST | None) -> str | None:
    """The bare name of a ``Name`` or ``Attribute`` (``a.b.c`` -> ``c``)."""
    return getattr(node, "id", getattr(node, "attr", None))


def _targets(node: ast.AST) -> list[ast.expr]:
    """The targets of an ``Assign`` or ``AnnAssign``, else ``[]``."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, ast.AnnAssign) else []


def check_names(root: Path = REPO_ROOT) -> list[str]:
    """Definitions under ``src/repro`` that nothing outside ``tests/`` names."""
    package = root / "src" / "repro"
    # Per candidate: (file:line, qualname, bare name, defining file,
    # a method?).
    defs: list[tuple[str, str, str, Path, bool]] = []
    # Bare name -> (using file, defs around the use, a bare-name use?).
    refs: dict[str, list[tuple[Path, frozenset[int], bool]]] = {}
    binds: dict[Path, set[str]] = {}  # file -> names it binds itself
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def candidate(child, owner) -> str | None:
        """The name ``child`` defines if it is a candidate."""
        if owner == "":
            if isinstance(child, (*functions, ast.ClassDef)):
                return child.name
            targets = _targets(child)
            if (len(targets) == 1 and isinstance(targets[0], ast.Name)
                    and _CONSTANT.fullmatch(targets[0].id)):
                return targets[0].id
        elif owner and isinstance(child, functions) and not (
                child.name.startswith("__") and child.name.endswith("__")):
            return child.name
        return None

    def visit(node, inside, path, counts_imports, owner=None):
        """``owner`` is ``""`` at module level, the class name directly
        in a top-level class body and ``None`` anywhere deeper."""
        for child in ast.iter_child_nodes(node):
            enclosing = inside
            name = path.is_relative_to(package) and candidate(child, owner)
            if name:
                enclosing = inside | {len(defs)}
                defs.append((
                    f"{path.relative_to(root).as_posix()}:{child.lineno}",
                    f"{owner}.{name}" if owner else name, name, path,
                    bool(owner),
                ))
            if isinstance(child, ast.Name):
                refs.setdefault(child.id, []).append((path, inside, True))
            elif isinstance(child, ast.Attribute):
                refs.setdefault(child.attr, []).append((path, inside, False))
            elif isinstance(child, ast.alias) and counts_imports:
                refs.setdefault(child.name, []).append((path, inside, True))
            is_class = owner == "" and isinstance(child, ast.ClassDef)
            visit(child, enclosing, path, counts_imports,
                  child.name if is_class else None)

    def bound(tree: ast.Module, path: Path) -> set[str]:
        """Names a module binds at its top level: a ``def``, a ``class``,
        an assignment, or a ``from X import`` with X outside ``repro``."""
        found = set()
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, ast.ImportFrom) and (
                    node.module.split(".")[0] != "repro" if node.level == 0
                    else not path.is_relative_to(package)):
                found |= {alias.asname or alias.name for alias in node.names}
            for target in _targets(node):
                found |= {n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)}
        return found

    for path in _sources(root):
        tree = ast.parse(path.read_text("utf-8"))
        binds[path] = bound(tree, path)
        # A package ``__init__`` re-export is not a use (as in check 4).
        visit(tree, frozenset(), path, path.name != "__init__.py", "")

    # A bare name in another module that binds the name itself refers to
    # that binding, not to the candidate; a method is never a bare name.
    uses = [
        [around for path, around, bare in refs.get(name, ())
         if not (bare and (method or path != home and name in binds[path]))]
        for _, _, name, home, method in defs
    ]
    dead: dict[int, int] = {}  # candidate index -> round it fell in
    for round_ in itertools.count(1):
        fallen = [
            index for index in range(len(defs))
            if index not in dead and not any(
                index not in around and not around & dead.keys()
                for around in uses[index]
            )
        ]
        if not fallen:
            break
        dead.update(dict.fromkeys(fallen, round_))
    return [
        f"{where}: {qualname} (round {dead[index]}) is named by nothing in "
        f"src/, {'/, '.join(ENTRY_DIRS)}/ outside its own body"
        for index, (where, qualname, *_) in enumerate(defs) if index in dead
    ]


def check_options(root: Path = REPO_ROOT) -> list[str]:
    """Defaulted parameters under ``src/repro`` that no call passes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    package = root / "src" / "repro"
    bases: dict[str, set[str]] = {}  # class name -> bare base names
    # A callee is ``(name, is_init, is_method)``: an ``__init__`` goes by
    # its class.
    # Per candidate: (file:line, qualname, callee, [(parameter, position)]),
    # position ``None`` for keyword-only.
    candidates: list[tuple[str, str, tuple, list]] = []
    # Call name -> (positional count, keywords, star) per call. ``star``
    # is True for an opaque ``*``/``**`` operand, or the enclosing callee
    # when the call only forwards that callee's own ``*args``/``**kwargs``.
    calls: dict[str, list[tuple[int, set, object]]] = {}
    # Bare names loaded as a value, by an ``ast.Name`` and as an attribute.
    values: set[str] = set()
    attribute_values: set[str] = set()

    def not_values(node: ast.AST) -> list[ast.AST]:
        """Children of ``node`` whose bare name is not a value use."""
        if isinstance(node, ast.Call):
            skipped = [node.func]
            if _bare(node.func) in ("isinstance", "issubclass") and node.args:
                skipped += [node.args[-1], *getattr(node.args[-1], "elts", ())]
            return skipped
        if isinstance(node, ast.Attribute):
            return [node.value]
        if isinstance(node, ast.ClassDef):
            return [*node.bases, *node.decorator_list]
        if isinstance(node, functions):
            return node.decorator_list
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            return [node.type, *getattr(node.type, "elts", ())]
        return []

    def visit(node, where, klass=None, scope=None):
        """``klass`` is the innermost enclosing class and ``scope`` the
        innermost enclosing def as ``(callee, *args name, **kwargs name,
        def node)``."""
        skipped = {id(child) for child in not_values(node)}
        for child in ast.iter_child_nodes(node):
            if child is getattr(node, "annotation", None) or (
                    child is getattr(node, "returns", None)):
                continue
            inner_klass, inner_scope = klass, scope
            if isinstance(child, ast.ClassDef):
                bases[child.name] = {_bare(base) for base in child.bases}
                inner_klass = child.name
            elif isinstance(child, functions):
                in_class = isinstance(node, ast.ClassDef)
                method = in_class and not any(
                    _bare(d) == "staticmethod" for d in child.decorator_list)
                callee = ((klass, True, False)
                          if method and child.name == "__init__"
                          else (child.name, False, in_class))
                if where is not None:
                    record_def(child, where, klass if method else None,
                               callee, method)
                args = child.args
                inner_scope = (callee, args.vararg and args.vararg.arg,
                               args.kwarg and args.kwarg.arg, child)
            elif isinstance(child, ast.Call):
                record_call(child, klass, scope)
            elif (isinstance(child, (ast.Name, ast.Attribute))
                  and isinstance(child.ctx, ast.Load)
                  and id(child) not in skipped):
                (attribute_values if isinstance(child, ast.Attribute)
                 else values).add(_bare(child))
            visit(child, where, inner_klass, inner_scope)

    def record_def(node, where, klass, callee, method):
        if node.name.startswith("__") and node.name.endswith("__") and (
                node.name != "__init__"):
            return  # called through an instance, not by name
        args = node.args
        positional = [*args.posonlyargs, *args.args][int(method):]
        first = len(positional) - len(args.defaults)
        defaulted = [
            (arg.arg, index) for index, arg in enumerate(positional)
            if index >= first
        ] + [
            (arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        if defaulted:
            qualname = f"{klass}.{node.name}" if klass else node.name
            candidates.append(
                (f"{where}:{node.lineno}", qualname, callee, defaulted))

    def record_call(node, klass, scope):
        name = _bare(node.func)
        if name == "cls" and klass:
            name = klass  # a classmethod constructing its own class
        names = [name]
        receiver = getattr(node.func, "value", None)
        if name == "__init__" and _bare(getattr(receiver, "func", None)) == "super":
            names = sorted(bases.get(klass, ()))
        keywords = {k.arg for k in node.keywords} - {None}
        starred = [a.value for a in node.args if isinstance(a, ast.Starred)]
        for k in node.keywords:
            found = None if k.arg else keys_of(k.value, scope and scope[3])
            if found is not None:
                keywords |= found
            elif k.arg is None:
                starred.append(k.value)
        star = bool(starred)
        if starred and scope and all(
                isinstance(s, ast.Name) and s.id in scope[1:3]
                for s in starred):
            star = scope[0]
        record = (len(node.args) - sum(
            isinstance(a, ast.Starred) for a in node.args), keywords, star)
        for callee in names:
            calls.setdefault(callee, []).append(record)

    def keys_of(node, fdef) -> set[str] | None:
        """The string keys a ``**`` operand holds; ``None`` if opaque."""
        if isinstance(node, ast.Dict):
            if all(isinstance(k, ast.Constant) and isinstance(k.value, str)
                   for k in node.keys):  # a ``**`` entry has key None
                return {k.value for k in node.keys}
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name) and node.func.id == "dict"
                    and not node.args and all(k.arg for k in node.keywords)):
                return {k.arg for k in node.keywords}
        elif isinstance(node, ast.Name) and fdef is not None:
            return local_keys(node.id, fdef)
        return None

    def local_keys(name: str, fdef) -> set[str] | None:
        """Keys of a local of ``fdef`` bound only to dict displays or
        ``dict(...)`` and grown only by string-keyed item stores."""
        args = fdef.args
        if name in {a.arg for a in (*args.posonlyargs, *args.args,
                                    *args.kwonlyargs, args.vararg,
                                    args.kwarg) if a}:
            return None
        parents = {id(child): parent for parent in ast.walk(fdef)
                   for child in ast.iter_child_nodes(parent)}
        keys, bound = set(), False
        for node in ast.walk(fdef):
            if isinstance(node, (ast.Global, ast.Nonlocal)) and (
                    name in node.names):
                return None
            if not (isinstance(node, ast.Name) and node.id == name):
                continue
            parent = parents[id(node)]
            if isinstance(node.ctx, ast.Store):
                found = (keys_of(parent.value, None)
                         if isinstance(parent, ast.Assign)
                         and any(t is node for t in parent.targets) else None)
                if found is None:
                    return None
                keys, bound = keys | found, True
            elif (isinstance(parent, ast.Subscript) and parent.value is node
                  and isinstance(parent.ctx, ast.Store)):
                key = parent.slice
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    return None
                keys.add(key.value)
            elif isinstance(parent, ast.Attribute) and (
                    parent.attr in ("update", "setdefault")):
                return None
        return keys if bound else None

    def reaching(callee) -> set[str]:
        """Call names that reach ``callee``: a class's ``__init__`` is
        also reached through every subclass."""
        name, is_init, _ = callee
        found, grew = {name}, is_init
        while grew:
            more = {c for c, b in bases.items() if b & found} - found
            found |= more
            grew = bool(more)
        return found

    def passed(callee, seen) -> tuple[bool, int, set[str]]:
        """(opaque, positional count, keywords) over every call reaching
        ``callee``; opaque when a call cannot be read or it is a value."""
        names = reaching(callee)
        if names & attribute_values or not callee[2] and names & values:
            return True, 0, set()
        count, words = 0, set()
        for name in names:
            for positional, keywords, star in calls.get(name, ()):
                if star is True:
                    return True, 0, set()
                if star and star not in seen:  # forwarded: what reaches it
                    opaque, more, extra = passed(star, seen | {star})
                    if opaque:
                        return True, 0, set()
                    positional, keywords = positional + more, keywords | extra
                count, words = max(count, positional), words | keywords
        return False, count, words

    for path in _sources(root):
        where = (path.relative_to(root).as_posix()
                 if path.is_relative_to(package) else None)
        visit(ast.parse(path.read_text("utf-8")), where)
    findings = []
    for where, qualname, callee, defaulted in candidates:
        opaque, count, words = passed(callee, frozenset([callee]))
        findings += [
            f"{where}: {qualname}({param}=...) is passed by no call in "
            f"src/, {'/, '.join(ENTRY_DIRS)}/: inline its default"
            for param, position in defaulted
            if not opaque and param not in words
            and (position is None or position >= count)
        ]
    return findings


def check_fields(root: Path = REPO_ROOT) -> list[str]:
    """Record fields under ``src/repro`` that nothing reads."""
    package = root / "src" / "repro"
    fields: list[tuple[str, str, str]] = []  # (file:line, qualname, name)
    reads: set[str] = set()

    def is_record(node: ast.ClassDef) -> bool:
        decorators = (getattr(d, "func", d) for d in node.decorator_list)
        return any(_bare(d) == "dataclass" for d in decorators) or any(
            _bare(base) == "NamedTuple" for base in node.bases)

    for path in _sources(root):
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and _bare(node.func) == "getattr"
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
            elif (isinstance(node, ast.ClassDef) and is_record(node)
                  and path.is_relative_to(package)):
                fields += [
                    (f"{path.relative_to(root).as_posix()}:{stmt.lineno}",
                     f"{node.name}.{stmt.target.id}", stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
    return [
        f"{where}: {qualname} is read by nothing in src/, "
        f"{'/, '.join(ENTRY_DIRS)}/: delete the field or read it"
        for where, qualname, name in fields if name not in reads
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
    findings.extend(check_options())
    findings.extend(check_fields())

    if findings:
        print(f"docs-check: {len(findings)} problem(s) in "
              f"{len(modules)} modules")
        for finding in findings:
            print(f"  - {finding}")
        return 1
    print(f"docs-check: {len(modules)} public modules documented, "
          f"all __all__ exports and prose references resolve, "
          f"every module, definition and option reachable from an "
          f"entry point, every record field read")
    return 0


if __name__ == "__main__":
    sys.exit(main())
