"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import girycheck
from girycheck.cli import main
from girycheck.giry import dirac, evaluation, phi
from girycheck.laws import (
    check_evaluation_point_recovery,
    demo_divergent_sum,
    demo_half_cauchy,
    demo_open_interval,
    half_cauchy_partial_expectation,
    run_suites,
    square_map,
)
from girycheck.meas import FiniteMeasurableSpace
from girycheck.reports import HarnessConfig, run_per_seed
from girycheck.scvx import IntervalSpace, check_morphism

F = Fraction
CFG = HarnessConfig(seed=0, cases=200)


def verdict(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _run(names):
    return run_suites(CFG, name_filter=lambda n: n in names)


def test_axiom_suites_200_cases_under_10s():
    names = {f"axiom{k}-{inst}" for k in (1, 2)
             for inst in ("closed-unit", "open-unit", "ext-real", "product",
                          "giry2", "giry3", "giry4")}
    start = time.perf_counter()
    reports = _run(names)
    elapsed = time.perf_counter() - start
    ok = (len(reports) == 14
          and all(r.ok and r.cases == 200 for r in reports)
          and elapsed < 10)
    verdict(f"axiom suites: 14 instances x 200 exact cases in {elapsed:.1f}s", ok)


def test_morphism_suite_and_square_mutant():
    shipped = _run({"morphism-id", "morphism-affine-half", "morphism-const-third",
                    "morphism-proj1", "morphism-ext-affine"})
    square = square_map(IntervalSpace("closed_unit"))
    mutant = run_per_seed("morphism", square.name, range(50), partial(check_morphism, square))
    ok = (len(shipped) == 5 and all(r.ok for r in shipped)
          and not mutant.ok and bool(mutant.failures[0].get("omega")))
    verdict("morphism law: shipped affine maps pass, square mutant fails "
            "with witness", ok)


def test_triangle_identities_exact():
    (report,) = _run({"triangle"})
    verdict("triangle identities: 200 exact cases", report.ok and report.cases == 200)


def test_barycenter_naturality_exact():
    (report,) = _run({"naturality-epsilon"})
    verdict("barycenter naturality: 200 exact affine/rational cases",
            report.ok and report.cases == 200)


def test_phi_roundtrip_and_countable_additivity():
    roundtrip, additivity = _run({"phi-roundtrip", "countable-additivity"})
    ok = (roundtrip.ok and roundtrip.cases == 200
          and additivity.ok and additivity.cases == 200)
    verdict("measure/functional roundtrip exact on <=8 points; "
            "rescaled countable additivity exact on families <=8", ok)


def test_monad_laws_exact():
    (report,) = _run({"monad-laws"})
    verdict("monad laws: unit, counit, associativity, 200 exact cases",
            report.ok and report.cases == 200)


def test_image_property():
    (report,) = _run({"image-property"})
    verdict("image property: measure-backed functionals land in map images, "
            "200 cases", report.ok and report.cases == 200)


def test_evaluation_point_recovery_unique_on_small_carriers():
    ok = True
    for n in (2, 3, 4, 5, 6):
        X = FiniteMeasurableSpace.powerset([f"x{i}" for i in range(n)])
        carrier = [dirac(x, base=X) for x in X.carrier]
        maps = [lambda P, i=i: P.measure_of(1 << i) for i in range(n)]
        for target in carrier:
            for J in (evaluation(target), phi(dirac(target))):
                got = check_evaluation_point_recovery(J, carrier, maps)
                ok = ok and got == target
    verdict("evaluation-point recovery: point- and Dirac-backed functionals, "
            "uniqueness exhaustive on carriers <= 6", ok)


def test_half_cauchy_lower_bound_and_divergence():
    rows = demo_half_cauchy([1, 10, 100, 10**4])
    below = all(r["lower_bound"] <= r["closed_form"] for r in rows)
    closed_matches = all(
        r["closed_form"] == pytest.approx(math.log(1 + r["N"] ** 2) / math.pi)
        for r in rows
    )
    diverges = half_cauchy_partial_expectation(10**7) > 5
    verdict("half-Cauchy: exact lower bound at most the closed form at "
            "N in {1,10,100,1e4}; exceeds 5 by N=1e7",
            below and closed_matches and diverges)


def test_divergent_sum_exact_values():
    ok = all(demo_divergent_sum(n) == F(n * (n + 1), 2) for n in (1, 10, 100))
    ok = ok and demo_divergent_sum(100) == 5050
    ok = ok and demo_divergent_sum(2_000_000) == 2000001000000
    verdict("divergent sum: exact N(N+1)/2 at N in {1,10,100}; 100 -> 5050; "
            "2000000 -> 2000001000000", ok)


def test_open_interval_barycenter_enclosure():
    got = demo_open_interval(depth=50)
    enc = got.enclosure
    target = F(3862943, 10**7)
    ok = (enc.width <= F(1, 2**40)
          and enc.lower >= target - F(1, 10**6)
          and enc.upper <= target + F(1, 10**6)
          and 0 < enc.lower and enc.upper < 1)
    verdict("open-interval barycenter: width <= 2^-40 at depth 50, within "
            "1e-6 of 0.3862943, strictly inside (0,1)", ok)


def test_reports_byte_identical_across_runs(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["laws", "--cases", "25", "--seed", "11"]
    assert main(args + ["--json", str(p1)]) == 0
    assert main(args + ["--json", str(p2)]) == 0
    verdict("determinism: identical seeds give byte-identical JSON reports",
            p1.read_bytes() == p2.read_bytes())


def test_full_default_suite_under_60s():
    start = time.perf_counter()
    reports = run_suites(CFG)
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports) and elapsed < 60
    verdict(f"full default suite: {len(reports)} suites green in {elapsed:.1f}s "
            "(< 60s)", ok)


# SHA-256 of `laws --seed s --cases 20 --mutants --json FILE`.  A refactor
# must leave these reports byte-identical.  Re-recorded when the partition
# draws changed: every partition is now drawn from its case's generator
# instead of a generator seeded from it, which moves the `alpha` witnesses
# of mutant-axiom2, the `omega` witnesses of mutant-morphism-square and
# their lhs/rhs; every verdict stays as MUTANT_VERDICTS records.
# Re-recorded when mutant-image-halfcauchy, whose functional was infinite
# on every map and so could never pass, was deleted: each report equals
# the one before with that suite's object removed.
REPORT_DIGESTS = {
    0: "a56fbc78bb1496c5833a4f19a6c90153dc907d508214c796d7b6462cb709c81a",
    1: "8050413e164f31aed4062541bd3bbd7b3990a47f9048f2a19b5afb0227190050",
    2: "b09619a3f025ba5467d6e2ee4d99cd3b0f9872a6c7b076ec082d54911d34a24c",
    3: "74fff4be39d888959ce2e242747cce78a7f91a416415b6f24ebe6f53b71e62dd",
    4: "f1480e1f558528f0999250f0ca3bf824493a419640aab0fe4823a8c3775d212c",
}


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_mutant_reports_match_recorded_digests(seed, tmp_path):
    path = tmp_path / "report.json"
    code = main(["laws", "--seed", str(seed), "--cases", "20", "--mutants",
                 "--json", str(path)])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    verdict(f"behaviour oracle: seed {seed} report digest unchanged",
            code == 1 and digest == REPORT_DIGESTS[seed])


# SHA-256 of the stdout of `laws --seed s --output json` with default flags,
# recorded while finite weights were still stored as one Fraction each.
LAWS_DIGESTS = {
    0: "b9436b8946305f01a01fcb0d319ccded56c9a693de171c2c63f4e723c56b4518",
    1: "9c7f0d905963667481c1db28bff4dc00eb4b4179ad0f1c82ad6e3fa6a4204c0e",
    2: "2440dda6041a8ed3376143d6c313dbd4b9f33c7e803e2f33607f53157429f9ed",
    3: "378ab8c811c127029fc70094c7812587220d6666513a0b0c15a86ccc215c0c78",
    4: "7094523abe7acf0ff4f8200d015622d024459f686b4949f3fdc109e906bbce06",
}


@pytest.mark.parametrize("seed", sorted(LAWS_DIGESTS))
def test_default_laws_reports_match_recorded_digests(seed, capsys):
    code = main(["laws", "--seed", str(seed), "--output", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    verdict(f"behaviour oracle: default laws seed {seed} report digest unchanged",
            code == 0 and digest == LAWS_DIGESTS[seed])


def _command(*args) -> subprocess.CompletedProcess:
    """``python -m girycheck.cli ARGS`` as a fresh process, which runs the
    suites of ``laws`` on every CPU of its affinity mask."""
    env = {**os.environ, "PYTHONPATH": str(Path(girycheck.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "girycheck.cli", *args],
                          env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("seed", sorted(LAWS_DIGESTS))
def test_default_laws_command_matches_recorded_digests(seed):
    proc = _command("laws", "--seed", str(seed), "--output", "json")
    digest = hashlib.sha256(proc.stdout).hexdigest()
    verdict(f"behaviour oracle: default laws command seed {seed} report digest unchanged",
            proc.returncode == 0 and digest == LAWS_DIGESTS[seed])


@pytest.mark.parametrize("seed", [0, 1])
def test_mutant_laws_command_matches_recorded_digests(seed, tmp_path):
    path = tmp_path / "report.json"
    proc = _command("laws", "--seed", str(seed), "--cases", "20", "--mutants",
                    "--json", str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    verdict(f"behaviour oracle: mutant laws command seed {seed} report digest unchanged",
            proc.returncode == 1 and digest == REPORT_DIGESTS[seed])


# SHA-256 and exit code of `scenario FILE --output json` for the fixtures in
# tests/scenarios, recorded while sigma-algebras were still stored as the
# full family of measurable sets.  coarse_off_first puts mass off the first
# label of two atoms, and its quadratic map must fail `morphism`; its digest
# was re-recorded when the partition draws changed, which moves the `omega`
# witnesses of that failure and their lhs/rhs.
SCENARIO_DIGESTS = {
    "powerset": (0, "d2e58a3eabb42fb80b60d04fae8823faf2891fd7e1b04f5c386aadb89a879573"),
    "generators_full": (0, "49b29142c845885725d97a5ee1468767cbb6beee405575556fb308470b31ea41"),
    "coarse_off_first": (1, "d1eaf7986ba023a5289201d931c486f849e763c3a1c90eeab8e4d56967eca4de"),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_reports_match_recorded_digests(name, capsys):
    path = Path(__file__).parent / "scenarios" / f"{name}.json"
    code = main(["scenario", str(path), "--output", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    verdict(f"behaviour oracle: scenario {name} report digest unchanged",
            (code, digest) == SCENARIO_DIGESTS[name])


# SHA-256 over `f"{exit_code}\n{stdout}"` of `scenario FILE --output json`
# for each of the 100 scenario documents in tests/scenarios/sweep1.jsonl,
# in file order, each written as `json.dumps(doc, indent=1)`.  The
# documents are one block of the scenario-sweep benchmark (seed
# "scenario-sweep:1").  The digest was re-recorded when the partition draws
# changed, which moves the `omega` witnesses, and their lhs/rhs, of the 20
# scenarios whose map fails `morphism`.
SWEEP_DIGEST = "3740d06b86f9340504d0951060f8b9d0137038c37d8653c343b2301191bb94cb"


def test_scenario_sweep_reports_match_recorded_digest(tmp_path, capsys):
    lines = (Path(__file__).parent / "scenarios" / "sweep1.jsonl").read_text()
    docs = [json.loads(line) for line in lines.splitlines()]
    path = tmp_path / "scenario.json"
    h = hashlib.sha256()
    for doc in docs:
        path.write_text(json.dumps(doc, indent=1))
        code = main(["scenario", str(path), "--output", "json"])
        h.update(f"{code}\n{capsys.readouterr().out}".encode())
    verdict(f"behaviour oracle: {len(docs)} sweep scenario reports unchanged",
            len(docs) == 100 and h.hexdigest() == SWEEP_DIGEST)


# The (law, pass, cases, passed) of every report, and the exit code, of
# `laws --seed s --cases 20 --mutants`, of the tests/scenarios fixtures and
# of the 100 sweep1.jsonl scenarios, recorded while every sampled partition
# still seeded a generator of its own.  A change of draws moves witnesses
# and so the digests above; these verdicts must stay as they are.
SHIPPED_SUITES = (
    [f"axiom{k}-{inst}" for k in (1, 2)
     for inst in ("closed-unit", "ext-real", "giry2", "giry3", "giry4",
                  "open-unit", "product")]
    + [f"morphism-{m}" for m in ("affine-half", "const-third", "ext-affine",
                                 "id", "proj1")]
    + ["countable-additivity", "gp-naturality", "image-property", "monad-laws",
       "naturality-epsilon", "phi-roundtrip", "recovery", "sigma-agreement",
       "triangle"]
)
MUTANT_VERDICTS = {
    0: {"mutant-axiom1": (False, 20, 1), "mutant-axiom2": (False, 20, 4),
        "mutant-morphism-square": (False, 20, 8)},
    1: {"mutant-axiom1": (False, 20, 4), "mutant-axiom2": (False, 20, 2),
        "mutant-morphism-square": (False, 20, 4)},
    2: {"mutant-axiom1": (False, 20, 2), "mutant-axiom2": (False, 20, 3),
        "mutant-morphism-square": (False, 20, 0)},
    3: {"mutant-axiom1": (False, 20, 1), "mutant-axiom2": (False, 20, 5),
        "mutant-morphism-square": (False, 20, 4)},
    4: {"mutant-axiom1": (False, 20, 1), "mutant-axiom2": (False, 20, 3),
        "mutant-morphism-square": (False, 20, 3)},
}
SCENARIO_PASS = [("triangle", True, 1, 1), ("phi-roundtrip", True, 1, 1),
                 ("morphism", True, 200, 200)]
SCENARIO_VERDICTS = {
    "powerset": (0, SCENARIO_PASS),
    "generators_full": (0, SCENARIO_PASS),
    "coarse_off_first": (1, SCENARIO_PASS[:2] + [("morphism", False, 200, 29)]),
}
# the sweep scenarios whose map fails `morphism`; every other passes all three
SWEEP_FAILING = {6, 9, 10, 27, 30, 34, 47, 48, 51, 52, 62, 65, 67, 74, 79, 81,
                 82, 94, 95, 96}
SWEEP_FAIL = (1, SCENARIO_PASS[:2] + [("morphism", False, 200, 26)])


def _verdicts(objs) -> list[tuple]:
    return [(o["law"], o["pass"], o["cases"], o["passed"]) for o in objs]


@pytest.mark.parametrize("seed", sorted(MUTANT_VERDICTS))
def test_mutant_laws_verdicts_match_recorded_table(seed, tmp_path):
    path = tmp_path / "report.json"
    code = main(["laws", "--seed", str(seed), "--cases", "20", "--mutants",
                 "--json", str(path)])
    expected = {law: (True, 20, 20) for law in SHIPPED_SUITES}
    expected["mutant-phi-nonadditive"] = (False, 1, 0)
    expected.update(MUTANT_VERDICTS[seed])
    table = sorted((law, *v) for law, v in expected.items())
    verdict(f"verdict oracle: seed {seed} mutant laws verdicts unchanged",
            (code, _verdicts(json.loads(path.read_text()))) == (1, table))


def _scenario_verdicts(path, capsys):
    code = main(["scenario", str(path), "--output", "json"])
    return code, _verdicts(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("name", sorted(SCENARIO_VERDICTS))
def test_scenario_verdicts_match_recorded_table(name, capsys):
    path = Path(__file__).parent / "scenarios" / f"{name}.json"
    verdict(f"verdict oracle: scenario {name} verdicts unchanged",
            _scenario_verdicts(path, capsys) == SCENARIO_VERDICTS[name])


def test_scenario_sweep_verdicts_match_recorded_table(tmp_path, capsys):
    lines = (Path(__file__).parent / "scenarios" / "sweep1.jsonl").read_text()
    path = tmp_path / "scenario.json"
    got = []
    for doc in map(json.loads, lines.splitlines()):
        path.write_text(json.dumps(doc, indent=1))
        got.append(_scenario_verdicts(path, capsys))
    expected = [SWEEP_FAIL if i in SWEEP_FAILING else (0, SCENARIO_PASS)
                for i in range(100)]
    verdict(f"verdict oracle: {len(got)} sweep scenario verdicts unchanged",
            got == expected)
