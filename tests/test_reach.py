"""No helper that nothing calls: every top-level function and class of
``src/girycheck`` is named by the package's own code, or is the console
entry point that ``pyproject.toml`` declares, and every method other than
a dunder is named as an attribute by the package's own code.

Each module is parsed with ``ast``.  A definition counts as reached when
an ``ast.Name`` or ``ast.Attribute`` spells its name somewhere in
``src/girycheck`` outside the definition itself; a method, when an
``ast.Attribute`` spells it there outside the method's own body.  A call
from a test does not count.  The guard matches names, not bindings: a
method is reached when any attribute of that name is read, on any object.

Each name has one import path, its module: the package ``__init__`` binds
none, and ``import girycheck`` loads no submodule.

Nor a dependency that a user must install: the package imports only the
standard library and itself, and ``pyproject.toml`` declares no runtime
dependency.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "girycheck"
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _spelled(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _entry_points() -> set:
    """(module, name) of each ``[project.scripts]`` target."""
    scripts = PYPROJECT.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {(module.rsplit(".", 1)[-1], name)
            for module, name in re.findall(r'"([\w.]+):(\w+)"', scripts)}


def _definitions_and_uses():
    """The top-level definitions as (module, name), and every spelled name
    as (module, enclosing top-level definition or None, name)."""
    definitions, uses = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None:
                definitions.append((path.stem, owner))
            uses |= {(path.stem, owner, name) for name in _spelled(stmt)}
    return definitions, uses


def _reached(definitions, uses) -> set:
    """The (module, name) definitions that the package's code names, and
    the entry points."""
    return _entry_points() | {
        (module, name) for module, name in definitions
        if any(n == name and (m, o) != (module, name) for m, o, n in uses)}


def test_the_script_is_the_function_python_m_calls():
    # `girycheck` and `python -m girycheck.cli` end through one function,
    # the one that flushes and calls os._exit
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    block, = [stmt for stmt in cli.body
              if isinstance(stmt, ast.If) and "__main__" in ast.unparse(stmt.test)]
    calls = [n.func.id for n in ast.walk(block) if isinstance(n, ast.Call)]
    assert len(calls) == 1 and _entry_points() == {("cli", calls[0])}


def test_every_top_level_definition_is_reached():
    definitions, uses = _definitions_and_uses()
    reached = _reached(definitions, uses)
    unreached = [f"{module}.{name}" for module, name in definitions
                 if (module, name) not in reached]
    assert unreached == []


def _attributes(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_method_is_named_as_an_attribute():
    spelled, methods = Counter(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        spelled += _attributes(tree)
        methods += [(f"{path.stem}.{cls.name}.{fn.name}", fn)
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    assert methods
    unreached = [label for label, fn in methods
                 if spelled[fn.name] <= _attributes(fn)[fn.name]]
    assert unreached == []


def _imported_modules(tree) -> set:
    """The absolute module names that ``tree`` imports, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_the_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {PACKAGE.name}
    outside = sorted(f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
                     for name in _imported_modules(ast.parse(path.read_text()))
                     if name.split(".")[0] not in allowed)
    assert outside == []


def test_no_runtime_dependency_is_declared():
    project = PYPROJECT.read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    declared = re.search(r"^dependencies\s*=\s*\[([^\]]*)\]", project, re.M)
    assert declared is None or declared.group(1).strip() == ""


def test_importing_the_package_loads_no_submodule():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert [type(stmt) for stmt in body] == [ast.Expr]  # the docstring
    code = ("import sys, girycheck; "
            "print(sorted(m for m in sys.modules if m.startswith('girycheck.')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout == "[]\n"
