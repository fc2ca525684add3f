"""No helper that nothing calls: every top-level function and class of
``src/girycheck`` is named by the package's own code, or is the console
entry point that ``pyproject.toml`` declares, and every method other than
a dunder is named as an attribute by the package's own code.

Each module is parsed with ``ast``.  A definition counts as reached when
an ``ast.Name`` or ``ast.Attribute`` spells its name somewhere in
``src/girycheck`` outside ``__init__.py`` and outside the definition
itself; a method, when an ``ast.Attribute`` spells it there outside the
method's own body.  A re-export in ``__init__.py`` or a call from a test
does not count.  The guard matches names, not bindings: a method is
reached when any attribute of that name is read, on any object.
"""

import ast
import re
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "girycheck"
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

# kept unreached for the ROADMAP item 3 suites that will use them
ALLOWED = {
    "FunctionSpace",  # codense-recovery: a family of affine maps into R-inf
    "sigma_functor",  # sigma-unit: the sigma-algebra that family induces
    "is_measurable",  # sigma-unit: the unit X -> Sigma P X is measurable
}

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
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None:
                definitions.append((path.stem, owner))
            uses |= {(path.stem, owner, name) for name in _spelled(stmt)}
    return definitions, uses


def test_every_top_level_definition_is_reached():
    definitions, uses = _definitions_and_uses()
    reached = _entry_points() | {
        (module, name) for module, name in definitions
        if any(n == name and (m, o) != (module, name) for m, o, n in uses)}
    unreached = [f"{module}.{name}" for module, name in definitions
                 if (module, name) not in reached and name not in ALLOWED]
    assert unreached == []


def test_allowlist_names_existing_definitions():
    definitions, _ = _definitions_and_uses()
    assert ALLOWED <= {name for _, name in definitions}


def _attributes(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_method_is_named_as_an_attribute():
    spelled, methods = Counter(), []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
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
