"""The benchmark's tracer wraps named bindings of the package; a binding
that a change deletes or renames, or that the benchmark's calls no longer
reach, must fail here, not in a traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    """The module ``bench/<name>.py``.  It is in ``sys.modules`` while it
    loads, for its dataclasses; ``run.py`` puts ``bench`` on ``sys.path``
    to import ``scenarios``.  All three are undone once it has loaded."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
        sys.modules.pop(spec.name)
        sys.modules.pop("scenarios", None)
    return module


@pytest.mark.parametrize("target", load("tracer").TARGETS, ids=lambda t: f"{t[0]}:{t[2]}")
def test_every_traced_binding_resolves(target):
    _, modname, attr, method, _ = target
    owner = getattr(importlib.import_module(modname), attr, None)
    assert owner is not None, f"{modname}.{attr} is gone"
    if method is not None:
        assert method in vars(owner), f"{modname}.{attr}.{method} is gone"


WORKLOAD_CALLS = {
    "laws-default": ["laws", "--seed", "0", "--cases", "5"],
    "scenario-sweep": ["scenario", str(ROOT / "tests" / "scenarios" / "generators_full.json")],
}


@pytest.mark.parametrize("workload", WORKLOAD_CALLS)
def test_every_expected_span_records_calls(workload, capsys):
    # the tracer's wrappers around one in-process call, as in a traced run
    import girycheck.cli as cli

    tracer, expected = load("tracer"), load("run").EXPECTED_SPANS[workload]
    spans = tracer.Spans()
    patched, unpatched = tracer.install(spans)
    try:
        code = cli.main(WORKLOAD_CALLS[workload])
    finally:
        tracer.uninstall(patched)
    assert (code, unpatched) == (0, [])
    totals = spans.totals()
    assert [name for name in expected if totals.get(name, {}).get("calls", 0) == 0] == []
