"""Command line entry point: run the law suites, the divergence demos,
or a user-declared scenario file.

Exit codes: 0 all checks pass, 1 at least one law failure, 2 usage,
configuration or output error, 3 internal error (the command crashed).

Each call pays for the modules it imports, so only ``laws`` and ``demo``
import the ``laws`` module; ``scenario`` needs none of it.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import sys
import time
from fractions import Fraction
from functools import partial

from .giry import GirySpace, NotAMeasure, ProbMeasure, check_phi_roundtrip, check_triangle
from .meas import FiniteMeasurableSpace, generate_sigma_algebra
from .numerics import ExtReal, as_ext
from .reports import HarnessConfig, LawReport, run_per_seed, suite_seeds
from .scvx import (
    CarrierViolation,
    CountablyAffineMap,
    IntervalSpace,
    affine_map,
    check_morphism,
    describe,
)

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _reports_payload(reports: list[LawReport]) -> str:
    return json.dumps(
        [r.to_json_obj() for r in reports], sort_keys=True, indent=2
    ) + "\n"


def _to_stdout(text: str) -> int:
    """Write and flush ``text``, every command's stdout: EXIT_OK, or exit 2
    with the reason on stderr, say for a pipe whose reader has exited."""
    try:
        print(text, end="", flush=True)
    except OSError as exc:
        print(f"cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK


def _emit_reports(reports: list[LawReport], args) -> int:
    failed = [r for r in reports if not r.ok]
    if args.json_path:
        try:
            with open(args.json_path, "w") as fh:
                fh.write(_reports_payload(reports))
        except OSError as exc:
            print(f"cannot write {args.json_path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    if args.output == "json":
        text = _reports_payload(reports)
    else:
        text = "".join(f"{r.summary_line()}\n" for r in reports)
        text += f"{len(reports) - len(failed)}/{len(reports)} suites passed\n"
    return _to_stdout(text) or (EXIT_LAW_FAILURE if failed else EXIT_OK)


def _print_timings(reports: list[LawReport], workers: int, wall: float) -> None:
    """Where the time of a ``laws`` run went, on stderr: per-suite wall time
    and case rate, then the run's wall time against the suites' total."""
    for r in reports:
        rate = f"{r.cases / r.wall_time:10.0f}" if r.wall_time > 0 else f"{'-':>10}"
        print(f"timings: {r.law:<26} {r.wall_time * 1000:9.1f} ms {rate} cases/s",
              file=sys.stderr)
    total = sum(r.wall_time for r in reports)
    print(f"timings: wall {wall:.3f} s, workers {workers}, suites {len(reports)}, "
          f"suite time {total:.3f} s", file=sys.stderr)


def cmd_laws(cfg: HarnessConfig, args, jobs: int) -> int:
    from . import laws as laws_mod

    name_filter = None
    if args.suite_glob is not None:
        name_filter = lambda name: fnmatch.fnmatch(name, args.suite_glob)
    start = time.perf_counter()
    reports = laws_mod.run_suites(
        cfg, name_filter=name_filter, include_mutants=args.mutants, jobs=jobs
    )
    if not reports:
        print(f"no suite matches {args.suite_glob!r}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if args.timings:
        _print_timings(reports, laws_mod.pool_size(jobs, len(reports)),
                       time.perf_counter() - start)
    return _emit_reports(reports, args)


def cmd_demo(args) -> int:
    from .laws import demo_divergent_sum, demo_half_cauchy, demo_open_interval

    if args.name == "divergent-sum":
        value = demo_divergent_sum(args.n)
        return _to_stdout(f"sum_(i<=N) (1/2^i)(i*2^i) at N={args.n}: {_long_str(value)}\n")
    if args.name == "half-cauchy":
        text = f"{'N':>10}  {'closed form':>14}  {'lower bound':>14}\n"
        for row in demo_half_cauchy(args.n_list):
            text += (f"{row['N']:>10}  {row['closed_form']:>14.8f}  "
                     f"{str(row['lower_bound']):>14}\n")
        return _to_stdout(text + "the exact lower bound 7 floor(log2 N)/44 grows without "
                          "bound: no barycenter exists on the half-line\n")
    result = demo_open_interval(depth=args.depth)
    enc = result.enclosure
    inside = 0 < enc.lower and enc.upper < 1
    return _to_stdout(
        f"geometric mixture of 1/(i+1) at depth {args.depth}:\n"
        f"  value    {_long_str(result.value)} ~= {float(result):.10f}\n"
        f"  enclosure [{_long_str(enc.lower)}, {_long_str(enc.upper)}] "
        f"(width {_long_str(enc.width)} ~= {float(enc.width):.3e})\n"
        + ("  lies strictly inside (0,1); the limit is 2 ln 2 - 1\n" if inside else
           "  too wide to place inside (0,1); raise --depth (the limit is 2 ln 2 - 1)\n"))


# ---------------------------------------------------------------------------
# scenarios


class ScenarioError(Exception):
    pass


def _object(value, where: str, keys=None) -> dict:
    """``value`` as a JSON object; given ``keys``, one with no other key."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = [] if keys is None else [k for k in value if k not in keys]
    if unknown:
        raise ScenarioError(f"{where}.{unknown[0]}".lstrip(".") + ": unknown key")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list")
    return value


def _label(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise ScenarioError(f"{where}: expected a string or number label")
    return value


# the cap on every number the CLI reads: CPython's default int-to-str limit,
# or the lower limit this interpreter was started with
MAX_DIGITS = min(4300, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)
_TOO_BIG = 10**MAX_DIGITS
_DIGITS_NOTE = f" (integers of at most {MAX_DIGITS} digits)"
_EXPONENT = re.compile(r"e([-+]?\d+)\s*\Z", re.IGNORECASE)  # the -3 of 1.5e-3


def _capped(text: str, read=Fraction):
    """``read(text)``, for ``int`` or ``Fraction``, unless a digit run of ``text``
    (underscores dropped), its exponent, or the value's numerator or denominator
    has more than MAX_DIGITS digits: then ValueError.  A longer run or exponent
    never reaches ``read``: ``Fraction("1e-10000000")`` is seconds of work."""
    digits = text.replace("_", "")
    exponent = _EXPONENT.search(digits)
    if (any(len(run) > MAX_DIGITS for run in re.findall(r"\d+", digits))
            or exponent and abs(int(exponent[1])) > MAX_DIGITS):
        raise ValueError(text)
    q = read(text)
    if max(abs(q.numerator), q.denominator) >= _TOO_BIG:
        raise ValueError(text)
    return q


def _rational(value, where: str) -> Fraction:
    """``value`` as a Fraction: a string read by ``_capped``, a number as it is."""
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        return _capped(value) if isinstance(value, str) else Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ScenarioError(f"{where}: {describe(value)} is not a rational{_DIGITS_NOTE}")


def _load_scenario(path: str) -> dict:
    """The scenario document, each JSON number read by ``_capped`` from its
    decimal text, never through a double: with a point or an exponent, as a Fraction."""
    def refuse(number: str):
        raise ScenarioError(f"{path}: invalid JSON number {number}")

    def number(read, text: str):
        try:
            return _capped(text, read)
        except ValueError:
            refuse(f"{text[:12]}...{_DIGITS_NOTE}")

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=refuse, parse_int=partial(number, int),
                            parse_float=partial(number, Fraction))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    except (OSError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ScenarioError('scenario must be an object with "schema": 1')
    return _object(doc, "", ("schema", "spaces", "measures", "maps", "checks"))


def _space(entry, where: str) -> FiniteMeasurableSpace:
    entry = _object(entry, where, ("carrier", "sigma"))
    carrier = entry.get("carrier")
    if not carrier or not isinstance(carrier, list):
        raise ScenarioError(f"{where}.carrier: expected a nonempty list of labels")
    for k, x in enumerate(carrier):
        _label(x, f"{where}.carrier[{k}]")
    if len(set(carrier)) != len(carrier):
        raise ScenarioError(f"{where}.carrier: labels must be distinct")
    sigma = entry.get("sigma", "powerset")
    if sigma == "powerset":
        return FiniteMeasurableSpace.powerset(carrier)
    for k, g in enumerate(_list(sigma, f"{where}.sigma")):
        for j, x in enumerate(_list(g, f"{where}.sigma[{k}]")):
            if _label(x, f"{where}.sigma[{k}][{j}]") not in carrier:
                raise ScenarioError(f"{where}.sigma[{k}][{j}]: {describe(x)} not in carrier")
    return generate_sigma_algebra(carrier, sigma)


def _measure(entry, where: str, spaces: dict) -> ProbMeasure:
    entry = _object(entry, where, ("space", "atoms"))
    name = entry.get("space")
    space = spaces.get(name) if isinstance(name, str) else None
    if space is None:
        raise ScenarioError(f"{where}.space: unknown space {describe(name)}")
    support = []
    for k, atom in enumerate(_list(entry.get("atoms", []), f"{where}.atoms")):
        at = f"{where}.atoms[{k}]"
        atom = _object(atom, at, ("atom", "weight"))
        label = _label(atom.get("atom"), f"{at}.atom")
        if label not in space.index:
            raise ScenarioError(f"{at}.atom: {describe(label)} not in carrier")
        support.append((label, _rational(atom.get("weight", "0"), f"{at}.weight")))
    try:
        return ProbMeasure(support, base=space)
    except NotAMeasure as exc:
        raise ScenarioError(f"{where}: {exc}")


def _map(entry, where: str, name: str, closed) -> CountablyAffineMap:
    kind = _object(entry, where).get("kind")
    if kind == "affine":
        _object(entry, where, ("kind", "offset", "slope"))
        offset = _rational(entry.get("offset", "0"), f"{where}.offset")
        slope = _rational(entry.get("slope", "1"), f"{where}.slope")
        if slope < 0:
            raise ScenarioError(f"{where}.slope: must be nonnegative")
        if offset < 0 or offset + slope > 1:
            raise ScenarioError(f"{where}: {offset} + {slope}x leaves [0,1]")
        return affine_map(closed, closed, offset, slope, name=name)
    if kind == "poly":
        _object(entry, where, ("kind", "coeffs"))
        coeffs = [_rational(c, f"{where}.coeffs[{k}]")
                  for k, c in enumerate(_list(entry.get("coeffs", []), f"{where}.coeffs"))]
        if not coeffs:
            raise ScenarioError(f"{where}.coeffs: must be nonempty")
        # a point inside (0,1) is checked where a case evaluates it
        for x, value in ((0, coeffs[0]), (1, sum(coeffs))):
            if not 0 <= value <= 1:
                raise ScenarioError(f"{where}: value {value} at {x} leaves [0,1]")
        pairs = [(c.numerator, c.denominator) for c in reversed(coeffs)]

        def poly(x):
            x, n, d = as_ext(x), 0, 1
            for a, b in pairs:
                n, d = n * x.num * b + a * d * x.den, d * x.den * b
            value = ExtReal.ratio(n, d)
            if not 0 <= n <= d:
                raise CarrierViolation(f"value {value.to_json()} at {x.to_json()} leaves [0,1]")
            return value

        return CountablyAffineMap(closed, closed, poly, name=name)
    raise ScenarioError(f"{where}.kind: expected 'affine' or 'poly'")


def _build_scenario_objects(doc: dict, closed):
    spaces = {name: _space(entry, f"spaces.{name}")
              for name, entry in _object(doc.get("spaces", {}), "spaces").items()}
    measures = {name: _measure(entry, f"measures.{name}", spaces)
                for name, entry in _object(doc.get("measures", {}), "measures").items()}
    maps = {name: _map(entry, f"maps.{name}", name, closed)
            for name, entry in _object(doc.get("maps", {}), "maps").items()}
    return measures, maps


# the object kind each scenario check names
CHECK_OBJECTS = {"triangle": "measure", "phi-roundtrip": "measure", "morphism": "map"}


def _run_check(check, where: str, measures: dict, maps: dict,
               cfg: HarnessConfig) -> LawReport:
    suite = _object(check, where).get("suite")
    if not isinstance(suite, str) or suite not in CHECK_OBJECTS:
        raise ScenarioError(
            f"{where}.suite: unknown suite {describe(suite)} "
            "(expected triangle, phi-roundtrip, or morphism)"
        )
    kind = CHECK_OBJECTS[suite]
    name = _object(check, where, ("suite", kind)).get(kind)
    obj = (maps if kind == "map" else measures).get(name) if isinstance(name, str) else None
    if obj is None:
        raise ScenarioError(f"{where}.{kind}: unknown {kind} {describe(name)}")
    if suite == "morphism":
        try:
            seeds = suite_seeds(cfg, f"scenario-morphism-{name}")
            return run_per_seed("morphism", name, seeds, partial(check_morphism, obj))
        except CarrierViolation as exc:
            raise ScenarioError(f"maps.{name}: {exc}")
    law = check_triangle if suite == "triangle" else check_phi_roundtrip
    return LawReport.single(suite, name, law(GirySpace(obj.base), obj))


def cmd_scenario(cfg: HarnessConfig, args) -> int:
    closed = IntervalSpace("closed_unit")
    try:
        doc = _load_scenario(args.path)
        measures, maps = _build_scenario_objects(doc, closed)
        reports = [_run_check(check, f"checks[{k}]", measures, maps, cfg)
                   for k, check in enumerate(_list(doc.get("checks", []), "checks"))]
        if not reports:
            raise ScenarioError("checks: expected at least one check")
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return _emit_reports(reports, args)


# ---------------------------------------------------------------------------


def _long_str(value) -> str:
    """``str(value)`` for an int or Fraction past Python's int-to-str limit,
    such as n(n+1)/2 for an n of MAX_DIGITS digits, or a deep enclosure."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _int_arg(minimum: int | None = None):
    """The argparse type of an integer flag that ``_capped`` reads, at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = _capped(text, int)
        except ValueError:
            value = None
        if value is None or minimum is not None and value < minimum:
            bound = "" if minimum is None else f" >= {minimum}"
            raise argparse.ArgumentTypeError(
                f"expected an integer{bound}{_DIGITS_NOTE}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--seed", type=_int_arg(), default=0)
    checks.add_argument("--cases", type=_int_arg(1), default=200,
                        help="cases per seeded check (default 200)")
    checks.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the JSON report bundle to PATH")
    checks.add_argument("--output", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="girycheck",
        description="Property-check super convex space and probability "
                    "monad laws at desk scale.",
    )
    sub = parser.add_subparsers(dest="command")

    p_laws = sub.add_parser("laws", parents=[checks], help="run the law suites")
    p_laws.add_argument("--suite", dest="suite_glob", metavar="GLOB",
                        help="only run suites matching this glob")
    p_laws.add_argument("--mutants", action="store_true",
                        help="include the deliberately broken instances "
                             "(they must fail; exit status 1)")
    p_laws.add_argument("--timings", action="store_true",
                        help="print per-suite wall time and cases/s, the "
                             "worker count and the run's wall time to stderr")

    demos = sub.add_parser("demo", help="run a counterexample demo").add_subparsers(
        dest="name", required=True)
    demos.add_parser("half-cauchy", help="truncated expectation bounds").add_argument(
        "--n-list", type=_int_arg(1), nargs="+", default=[1, 10, 100, 10**4],
        help="truncations")
    demos.add_parser("divergent-sum", help="exact partial sum").add_argument(
        "--n", type=_int_arg(1), default=100, help="truncation")
    demos.add_parser("open-interval", help="certified enclosure").add_argument(
        "--depth", type=_int_arg(0), default=50, help="enclosure depth")

    p_scn = sub.add_parser("scenario", parents=[checks],
                           help="check user-declared objects")
    p_scn.add_argument("path", help="scenario JSON file")

    return parser


def main(argv=None, jobs: int = 1) -> int:
    """Run one command.  ``laws`` runs its suites in up to ``jobs`` forked
    worker processes; the default, 1, runs them in this process."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        _to_stdout(parser.format_help())
        return EXIT_CONFIG_ERROR
    if args.command == "demo":
        return cmd_demo(args)
    cfg = HarnessConfig(seed=args.seed, cases=args.cases)
    if args.command == "laws":
        return cmd_laws(cfg, args, jobs)
    return cmd_scenario(cfg, args)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def entry() -> int:
    """The ``girycheck`` command: ``main`` with one worker per usable CPU.
    It forks, so call it only as a fresh process's entry point.  Any
    exception that escapes ``main``, a dead worker included, ends in
    exit 3 with its traceback on stderr, never in the status of a law
    failure."""
    try:
        return main(jobs=usable_cpus())
    except Exception:
        import traceback

        traceback.print_exc()
        print("girycheck: internal error", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def run_and_exit():
    """The ``girycheck`` process: ``entry``, a flush, and ``os._exit``, which
    skips finalizing an interpreter about to be discarded.  An exception
    escaping ``entry``, such as argparse's SystemExit, exits normally."""
    code = entry()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):  # no stream, or a failure reported
            pass
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
