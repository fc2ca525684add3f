"""Outside-in tracer: run girycheck CLI calls in one process, each once
untraced and once with spans around the public functions of each layer.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 bench/tracer.py PLAN.json OUT.json SPANS.tsv

PLAN.json holds ``{"untraced": [argv, ...], "traced": [argv, ...]}``, the
same calls with different ``--json`` paths.
OUT.json receives per-call exit codes, both wall times and the per-span-name
totals; SPANS.tsv receives every span (name, start, end, parent, size).

The wrappers are installed from here, not inside girycheck.  A function
imported with ``from .x import f`` is a separate binding in every module
that imports it, so every ``girycheck.*`` module attribute that is the
original function gets the wrapper.  Methods are patched on their class.
``ExtReal`` and ``Fraction`` are not wrapped: they are too hot.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import traceback

# span name -> (module, attribute, method or None, size of the call or None)
TARGETS = [
    ("numerics.PartitionOfOne", "girycheck.numerics", "PartitionOfOne", "__init__", None),
    ("numerics.countable_combine", "girycheck.numerics", "countable_combine", None, None),
    ("numerics.compose_partitions", "girycheck.numerics", "compose_partitions", None, None),
    ("numerics.random_partition", "girycheck.numerics", "random_partition", None, None),
    ("scvx.combine", "girycheck.scvx", "IntervalSpace", "combine", None),
    ("scvx.combine", "girycheck.scvx", "ProductSpace", "combine", None),
    ("scvx.check", "girycheck.scvx", "check_axiom1", None, None),
    ("scvx.check", "girycheck.scvx", "check_axiom2", None, None),
    ("scvx.check", "girycheck.scvx", "check_morphism", None, None),
    ("meas.FiniteMeasurableSpace", "girycheck.meas", "FiniteMeasurableSpace", "__init__",
     lambda args, result: len(args[0].carrier)),
    ("meas.generate_sigma_algebra", "girycheck.meas", "generate_sigma_algebra", None,
     lambda args, result: len(result.carrier)),
    ("meas.atoms_of_sigma", "girycheck.meas", "FiniteMeasurableSpace", "atoms_of_sigma", None),
    ("giry.phi_inverse", "girycheck.giry", "phi_inverse", None,
     lambda args, result: len(args[1].carrier)),
    ("giry.integrate", "girycheck.giry", "integrate", None, None),
    ("giry.ProbMeasure", "girycheck.giry", "ProbMeasure", "__init__", None),
    ("giry.mixture", "girycheck.giry", "mixture", None, None),
    ("laws", "girycheck.laws", "run_suites", None, None),
    ("cli.main", "girycheck.cli", "main", None, None),
]


class Spans:
    """Spans kept in parallel lists; index 0 is the root."""

    def __init__(self):
        self.names = ["root"]
        self.starts = [0.0]
        self.ends = [0.0]
        self.parents = [-1]
        self.sizes = [None]
        self.stack = [0]
        self.suite_times: dict[str, float] = {}

    def wrap(self, name, fn, size_of):
        names, starts, ends = self.names, self.starts, self.ends
        parents, sizes, stack = self.parents, self.sizes, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            sizes.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if size_of is not None:
                sizes[i] = size_of(args, result)
            return result

        return traced

    def totals(self) -> dict:
        """Calls, self time and self time per carrier size for each name;
        self time is a span's duration minus that of its child spans."""
        child = [0.0] * len(self.names)
        for i in range(1, len(self.names)):
            child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i in range(1, len(self.names)):
            t = out.setdefault(self.names[i], {"calls": 0, "self_s": 0.0,
                                               "by_size": {}, "size_sum": 0})
            own = self.ends[i] - self.starts[i] - child[i]
            t["calls"] += 1
            t["self_s"] += own
            n = self.sizes[i]
            if n is not None:
                t["by_size"][n] = t["by_size"].get(n, 0.0) + own
                t["size_sum"] += n
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tsize\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.sizes):
                fh.write("\t".join("" if v is None else str(v) for v in row) + "\n")


def install(spans: Spans) -> tuple[list, list[str]]:
    """Wrap every target.  Return the (owner, attribute, original) triples
    that ``uninstall`` restores, and the bindings still holding an
    original, which must be none."""
    for _, modname, _, _, _ in TARGETS:
        importlib.import_module(modname)
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == "girycheck" or k.startswith("girycheck.")) and m is not None]
    patched, originals = [], []
    for name, modname, attr, method, size_of in TARGETS:
        owner = getattr(sys.modules[modname], attr)
        if method is not None:
            orig = owner.__dict__[method]
            patched.append((owner, method, orig))
            setattr(owner, method, spans.wrap(name, orig, size_of))
            continue
        wrapped = spans.wrap(name, owner, size_of)
        if name == "laws":
            wrapped = _recording_suite_times(spans, wrapped)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is owner:
                    patched.append((mod, key, owner))
                    setattr(mod, key, wrapped)
        originals.append((f"{modname}.{attr}", owner))
    left = [f"{label} as {mod.__name__}.{key}"
            for label, orig in originals for mod in modules
            for key, value in vars(mod).items() if value is orig]
    return patched, left


def uninstall(patched) -> None:
    for owner, key, orig in reversed(patched):
        setattr(owner, key, orig)


def _recording_suite_times(spans: Spans, run_suites):
    """Keep each suite's ``LawReport.wall_time``, which girycheck measures
    but leaves out of its JSON report."""

    @functools.wraps(run_suites)
    def recording(*args, **kwargs):
        reports = run_suites(*args, **kwargs)
        for r in reports:
            spans.suite_times[r.law] = spans.suite_times.get(r.law, 0.0) + r.wall_time
        return reports

    return recording


def run_call(argv) -> dict:
    import girycheck.cli as cli

    crash = None
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, crash = None, traceback.format_exc()
    if crash is None and "Traceback (most recent call last)" in err.getvalue():
        crash = err.getvalue()
    return {"exit": code, "crash": crash}


def main(argv) -> int:
    """Run each call untraced and traced, alternating which goes first, so
    that drift in machine speed falls on both sides of the overhead
    estimate; a plan of one call runs untraced, traced, untraced."""
    plan_path, out_path, spans_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    pairs = list(zip(plan["untraced"], plan["traced"]))
    spans = Spans()
    untraced_s = traced_s = 0.0
    results, left = [], []
    for i, (plain, traced) in enumerate(pairs):
        order = "utu" if len(pairs) == 1 else ("ut" if i % 2 == 0 else "tu")
        for step in order:
            if step == "u":
                t0 = time.perf_counter()
                run_call(plain)
                untraced_s += (time.perf_counter() - t0) / order.count("u")
                continue
            patched, left = install(spans)
            t0 = time.perf_counter()
            results.append(run_call(traced))
            traced_s += time.perf_counter() - t0
            uninstall(patched)
    spans.write(spans_path)
    out = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "calls": results,
        "totals": spans.totals(),
        "suite_times": spans.suite_times,
        "unpatched": left,
    }
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
