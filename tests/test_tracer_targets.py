"""The benchmark's tracer wraps named bindings of the package; a binding
that a change deletes or renames must fail here, not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: f"{t[0]}:{t[2]}")
def test_every_traced_binding_resolves(target):
    _, modname, attr, method, _ = target
    owner = getattr(importlib.import_module(modname), attr, None)
    assert owner is not None, f"{modname}.{attr} is gone"
    if method is not None:
        assert method in vars(owner), f"{modname}.{attr}.{method} is gone"
