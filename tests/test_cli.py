import contextlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import girycheck
from girycheck.cli import MAX_DIGITS, ScenarioError, _load_scenario, _map, _rational, main
from girycheck.numerics import as_ext


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOOD_SCENARIO = {
    "schema": 1,
    "spaces": {"X": {"carrier": ["a", "b"], "sigma": "powerset"}},
    "measures": {
        "P": {"space": "X",
              "atoms": [{"atom": "a", "weight": "1/2"},
                        {"atom": "b", "weight": "1/2"}]}
    },
    "maps": {"m": {"kind": "affine", "offset": "1/4", "slope": "1/2"}},
    "checks": [
        {"suite": "triangle", "measure": "P"},
        {"suite": "phi-roundtrip", "measure": "P"},
        {"suite": "morphism", "map": "m"},
    ],
}


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLawsCommand:
    def test_default_filtered_run_exits_zero(self, capsys):
        code, out, _ = run(["laws", "--cases", "5", "--suite", "axiom1-*"], capsys)
        assert code == 0
        assert "suites passed" in out

    def test_mutants_exit_one_with_witnesses(self, capsys):
        code, out, _ = run(
            ["laws", "--cases", "5", "--mutants", "--suite", "mutant-*"], capsys
        )
        assert code == 1
        assert "witness=" in out

    def test_unknown_glob_is_config_error(self, capsys):
        code, _, err = run(["laws", "--cases", "5", "--suite", "zzz*"], capsys)
        assert code == 2
        assert "no suite matches" in err
        # and the same with workers to spare: no pool of zero workers
        assert main(["laws", "--cases", "5", "--suite", "zzz*"], jobs=4) == 2
        assert "no suite matches" in capsys.readouterr().err

    def test_an_empty_glob_matches_no_suite(self, capsys):
        # an empty glob, as an unset shell variable gives, matches no name
        code, out, err = run(["laws", "--cases", "1", "--suite", ""], capsys)
        assert (code, out, err) == (2, "", "no suite matches ''\n")

    def test_bad_cases_value_is_config_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["laws", "--cases", "0"])
        assert exc.value.code == 2
        assert "argument --cases: expected an integer >= 1" in capsys.readouterr().err

    def test_json_report_is_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["laws", "--cases", "8", "--suite", "morphism-*", "--seed", "3"]
        assert run(args + ["--json", str(p1)], capsys)[0] == 0
        assert run(args + ["--json", str(p2)], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert all(r["pass"] for r in payload)

    def test_an_unwritable_json_path_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        code, _, err = run(["laws", "--cases", "2", "--suite", "triangle",
                            "--json", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"cannot write {path}: ")
        assert "Traceback" not in err

    def test_json_output_mode(self, capsys):
        code, out, _ = run(
            ["laws", "--cases", "5", "--suite", "triangle", "--output", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["law"] == "triangle"


    def test_timings_go_to_stderr_and_leave_the_reports_alone(self, tmp_path, capsys):
        args = ["laws", "--cases", "5", "--suite", "*axiom1*", "--mutants"]
        for output in (["--output", "json"], ["--output", "text"]):
            paths = [tmp_path / "plain.json", tmp_path / "timed.json"]
            code, out, err = run(args + output + ["--json", str(paths[0])], capsys)
            t_code, t_out, t_err = run(
                args + output + ["--json", str(paths[1]), "--timings"], capsys)
            assert code == t_code == 1 and t_out == out and err == ""
            assert paths[0].read_bytes() == paths[1].read_bytes()
        lines = t_err.splitlines()
        names = sorted(r["law"] for r in json.loads(paths[0].read_text()))
        assert [line.split()[1] for line in lines[:-1]] == names
        assert all(re.search(r" ms +\d+ cases/s$", line) for line in lines[:-1])
        assert re.fullmatch(rf"timings: wall [\d.]+ s, workers 1, suites {len(names)}, "
                            r"suite time [\d.]+ s", lines[-1])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool forks")
    def test_timings_count_the_workers(self, capsys):
        code = main(["laws", "--cases", "2", "--suite", "axiom1-*", "--timings"], jobs=2)
        assert code == 0
        assert ", workers 2, suites 7," in capsys.readouterr().err.splitlines()[-1]


class TestDemoCommand:
    def test_divergent_sum(self, capsys):
        # the exact partial sum and nothing else: however large, a partial
        # sum is no proof that the series diverges
        code, out, _ = run(["demo", "divergent-sum", "--n", "100"], capsys)
        assert (code, out) == (0, "sum_(i<=N) (1/2^i)(i*2^i) at N=100: 5050\n")
        code, out, _ = run(["demo", "divergent-sum", "--n", "2000000"], capsys)
        assert (code, out) == (0, "sum_(i<=N) (1/2^i)(i*2^i) at N=2000000: 2000001000000\n")

    def test_divergent_sum_at_a_huge_n_returns_at_once(self, capsys):
        # the closed form n(n+1)/2; summing term by term would take days
        n = 10**15
        start = time.perf_counter()
        code, out, _ = run(["demo", "divergent-sum", "--n", str(n)], capsys)
        assert code == 0 and time.perf_counter() - start < 5
        assert out.splitlines() == [f"sum_(i<=N) (1/2^i)(i*2^i) at N={n}: {n * (n + 1) // 2}"]

    @pytest.mark.parametrize("digits", [2200, 4300], ids=["2200-digits", "4300-digits"])
    def test_divergent_sum_prints_a_sum_longer_than_the_int_to_str_limit(self, digits,
                                                                        capsys):
        # n(n+1)/2 has about twice the digits of n: past Python's
        # int-to-str limit, printing it raised and the command crashed
        n = 10**digits - 1
        code, out, err = run(["demo", "divergent-sum", "--n", "9" * digits], capsys)
        assert (code, err) == (0, "")
        text = out.splitlines()[0].rpartition(": ")[2]
        with _no_int_str_limit():
            assert text == str(n * (n + 1) // 2)

    def test_half_cauchy(self, capsys):
        code, out, _ = run(["demo", "half-cauchy", "--n-list", "1"], capsys)
        assert code == 0
        assert "0.22063560" in out

    def test_half_cauchy_rows_default_and_an_empty_list_is_refused(self, capsys):
        code, out, _ = run(["demo", "half-cauchy"], capsys)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[1:-1]] == [
            "1", "10", "100", "10000"]
        # the flag with no value is a usage error, not the default rows
        with pytest.raises(SystemExit) as exc:
            main(["demo", "half-cauchy", "--n-list"])
        assert exc.value.code == 2
        assert "argument --n-list: expected at least one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [10**200, 10**309], ids=["1e200", "1e309"])
    def test_half_cauchy_at_a_huge_n_prints_a_bound_below_the_closed_form(self, n, capsys):
        # a float quadrature read 0 at 10**200 and overflowed at 10**309
        code, out, _ = run(["demo", "half-cauchy", "--n-list", "1", str(n)], capsys)
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:-1]]
        assert [int(N) for N, _, _ in rows] == [1, n]
        for N, closed, bound in rows:
            assert Fraction(bound) == Fraction(7 * (int(N).bit_length() - 1), 44)
            assert Fraction(bound) <= float(closed)

    def test_open_interval(self, capsys):
        code, out, _ = run(["demo", "open-interval", "--depth", "50"], capsys)
        assert code == 0
        assert "0.3862943611" in out
        assert "enclosure" in out

    def test_open_interval_prints_a_value_longer_than_the_int_to_str_limit(self, capsys):
        # at depth 6000 the value and the ends of its enclosure have
        # denominators past Python's int-to-str limit: printing them raised
        # and the command crashed
        code, out, err = run(["demo", "open-interval", "--depth", "6000"], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        value = lines[1].split()[1]
        lower, _, upper = lines[2].partition("[")[2].partition("]")[0].partition(", ")
        with _no_int_str_limit():
            assert len(value) > 4300
            assert 0 < Fraction(lower) <= Fraction(value) <= Fraction(upper) < 1
        assert "lies strictly inside (0,1)" in out

    @pytest.mark.parametrize("argv", [
        ["demo", "divergent-sum", "--n", "0"],
        ["demo", "half-cauchy", "--n-list", "-5"],
        ["demo", "open-interval", "--depth", "-1"],
    ])
    def test_out_of_range_truncation_rejected_by_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["demo", "divergent-sum", "--n", "3", "--depth", "5", "--n-list", "7", "8"],
        ["demo", "open-interval", "--n", "0"],
        ["demo", "half-cauchy", "--depth", "3"],
    ])
    def test_a_flag_of_another_demo_is_rejected_by_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err

    def test_unknown_demo_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "frobnicate"])
        assert exc.value.code == 2


class TestIntegerDigitLimit:
    # one cap, MAX_DIGITS, on every number the CLI reads, whatever
    # int-to-str limit at or above it the interpreter has
    def test_an_int_argument_past_the_limit_names_the_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "divergent-sum", "--n", "1" * (MAX_DIGITS + 1)])
        assert exc.value.code == 2
        assert f"at most {MAX_DIGITS} digits" in capsys.readouterr().err

    def test_a_weight_past_the_limit_names_the_limit(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD_SCENARIO))
        doc["measures"]["P"]["atoms"][0]["weight"] = "1" * (MAX_DIGITS + 1) + "/3"
        code, _, err = run(["scenario", write_scenario(tmp_path, doc)], capsys)
        assert code == 2
        assert err.startswith("scenario error: measures.P.atoms[0].weight: ")
        assert f"at most {MAX_DIGITS} digits" in err

    @pytest.mark.parametrize("text", ["1e-5000", "1e5000", "1e-10000000", "0.5e+10000000"])
    def test_an_exponent_past_the_limit_is_refused_unbuilt(self, text):
        # Fraction(text) would build 10**|exponent|: seconds at 10**7
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match=f"at most {MAX_DIGITS} digits"):
            _rational(text, "w")
        assert time.perf_counter() - start < 1

    def test_a_value_past_the_limit_is_refused(self):
        for value in [f"99e{MAX_DIGITS - 1}", f"0.1e-{MAX_DIGITS - 1}"]:
            with pytest.raises(ScenarioError, match=f"at most {MAX_DIGITS} digits"):
                _rational(value, "w")
        assert _rational(f"1e{MAX_DIGITS - 1}", "w") == 10**(MAX_DIGITS - 1)

    @pytest.mark.parametrize("text", [
        "0.5" + "0" * MAX_DIGITS, "1" * (MAX_DIGITS + 1) + "/" + "1" * (MAX_DIGITS + 1),
        "1e" + "0" * MAX_DIGITS + "1",
    ], ids=["decimals", "quotient", "exponent"])
    def test_a_digit_run_past_the_limit_is_refused_on_every_python(self, text):
        # a run of more digits than the cap is refused whatever the
        # value, so no interpreter limit decides it: "0.5000..." is 1/2
        with _no_int_str_limit():
            with pytest.raises(ScenarioError, match=f"at most {MAX_DIGITS} digits"):
                _rational(text, "w")
        assert _rational("0.5" + "0" * (MAX_DIGITS - 2), "w") == Fraction(1, 2)

    def test_a_json_integer_past_the_limit_is_refused_on_every_python(self, tmp_path,
                                                                       capsys):
        path = tmp_path / "scn.json"
        path.write_text('{"schema": 1, "spaces": {"X": {"carrier": [%s]}}}'
                        % ("1" * (MAX_DIGITS + 1)))
        with _no_int_str_limit():
            code, _, err = run(["scenario", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"scenario error: {path}: invalid JSON number 1111")
        assert f"at most {MAX_DIGITS} digits" in err


@pytest.mark.parametrize("text, value", [
    ("1e-3", Fraction(1, 1000)), ("1/3", Fraction(1, 3)), ("0.25", Fraction(1, 4)),
    (" 7 ", Fraction(7)), ("-2E2", Fraction(-200)), (3, Fraction(3)), (0.5, Fraction(1, 2)),
])
def test_a_rational_parses_as_fraction_does(text, value):
    assert _rational(text, "w") == value


@pytest.mark.parametrize("number, value", [
    (0.1, Fraction(1, 10)), (0.9, Fraction(9, 10)), (1e-3, Fraction(1, 1000)),
    (2.5e-7, Fraction(1, 4 * 10**6)), (1e16, Fraction(10**16)),
    (0.30000000000000004, Fraction(30000000000000004, 10**17)),
])
def test_a_json_float_reads_as_its_shortest_repr(number, value, tmp_path):
    # json.dumps writes a float's shortest repr and the reader takes that
    # text exactly: 0.1 is 1/10, not the double 3602879701896397/2**55
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"schema": 1, "maps": {"m": {"offset": number}}}))
    assert _load_scenario(str(path))["maps"]["m"]["offset"] == value


@pytest.mark.parametrize("coeffs", [["1/2"], ["0", "1"], ["1/3", "-1/2", "2/7", "1/9"],
                                    [0.25, "0", "3/4"]])
def test_a_poly_map_evaluates_its_polynomial(coeffs):
    from girycheck.scvx import IntervalSpace

    closed = IntervalSpace("closed_unit")
    poly = _map({"kind": "poly", "coeffs": coeffs}, "m", "m", closed)
    qs = [_rational(c, "c") for c in coeffs]
    for x in [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7)]:
        want = sum(q * x**k for k, q in enumerate(qs))
        assert (poly(x).num, poly(x).den) == (want.numerator, want.denominator)


@contextlib.contextmanager
def _no_int_str_limit():
    """Python's int-to-str digit limit lifted, where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestScenarioCommand:
    def test_valid_scenario_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, GOOD_SCENARIO)
        code, out, _ = run(["scenario", path, "--cases", "20"], capsys)
        assert code == 0
        assert "3/3 suites passed" in out

    def test_a_directory_as_json_path_is_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, GOOD_SCENARIO)
        code, _, err = run(["scenario", path, "--json", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith(f"cannot write {tmp_path}: ")
        assert "Traceback" not in err

    def test_json_float_weights_and_maps_read_as_decimals(self, tmp_path, capsys):
        # read as binary doubles, 0.1 + 0.9 and 0.1 + 0.9x both pass 1
        doc = json.loads(json.dumps(GOOD_SCENARIO))
        for atom, w in zip(doc["measures"]["P"]["atoms"], [0.1, 0.9]):
            atom["weight"] = w
        doc["maps"]["m"] = {"kind": "affine", "offset": 0.1, "slope": 0.9}
        code, out, err = run(["scenario", write_scenario(tmp_path, doc), "--cases", "20"],
                             capsys)
        assert (code, err) == (0, "")
        assert "3/3 suites passed" in out

    def test_a_weight_below_the_smallest_double_keeps_its_value(self, tmp_path, capsys):
        # read as a double, 1e-400 is 0.0, and weights 1 and 1e-400 pass
        doc = json.loads(json.dumps(GOOD_SCENARIO))
        for atom, w in zip(doc["measures"]["P"]["atoms"], [1, "TINY"]):
            atom["weight"] = w
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc).replace('"TINY"', "1e-400"))
        code, _, err = run(["scenario", str(path)], capsys)
        assert code == 2
        assert err.startswith("scenario error: measures.P: ") and "sum to 1" in err

    def test_a_float_label_is_neither_its_text_nor_its_double(self, tmp_path, capsys):
        # 0.5 and "0.5" are two points, and so are 0 and 1e-400
        doc = {
            "schema": 1,
            "spaces": {"X": {"carrier": ["0.5", 0.5, 0, "TINY"]}},
            "measures": {"P": {"space": "X", "atoms": [
                {"atom": "0.5", "weight": "1/4"}, {"atom": 0.5, "weight": "1/4"},
                {"atom": 0, "weight": "1/4"}, {"atom": "TINY", "weight": "1/4"}]}},
            "checks": [{"suite": "triangle", "measure": "P"},
                       {"suite": "phi-roundtrip", "measure": "P"}],
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc).replace('"TINY"', "1e-400"))
        code, out, err = run(["scenario", str(path)], capsys)
        assert (code, err) == (0, "")
        assert "2/2 suites passed" in out

    def test_bad_weights_is_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD_SCENARIO))
        doc["measures"]["P"]["atoms"][0]["weight"] = "1/4"
        path = write_scenario(tmp_path, doc)
        code, _, err = run(["scenario", path], capsys)
        assert code == 2
        assert "measures.P" in err and "sum to 1" in err

    @pytest.mark.parametrize("weights, message", [
        (["3/2", "-1/2"], "negative weight -1/2"),
        (["1/3", "-2/6"], "negative weight -1/3"),
        (["1/4", "1/2"], "weights must sum to 1"),
    ])
    def test_bad_weights_message(self, weights, message, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD_SCENARIO))
        for atom, w in zip(doc["measures"]["P"]["atoms"], weights):
            atom["weight"] = w
        code, _, err = run(["scenario", write_scenario(tmp_path, doc)], capsys)
        assert (code, err) == (2, f"scenario error: measures.P: {message}\n")

    def test_non_affine_map_fails_morphism_with_witness(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD_SCENARIO))
        doc["maps"]["m"] = {"kind": "poly", "coeffs": ["0", "0", "1"]}
        path = write_scenario(tmp_path, doc)
        code, out, _ = run(["scenario", path, "--cases", "30"], capsys)
        assert code == 1
        assert "witness=" in out

    def test_unknown_atom_is_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD_SCENARIO))
        doc["measures"]["P"]["atoms"][0]["atom"] = "zz"
        path = write_scenario(tmp_path, doc)
        code, _, err = run(["scenario", path], capsys)
        assert code == 2
        assert "measures.P.atoms[0]" in err

    def test_missing_schema_field(self, tmp_path, capsys):
        doc = {"spaces": {}}
        path = write_scenario(tmp_path, doc)
        code, _, err = run(["scenario", path], capsys)
        assert code == 2
        assert "schema" in err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, _, err = run(["scenario", str(path)], capsys)
        assert code == 2
        assert "invalid JSON" in err

    def test_unknown_suite_name(self, tmp_path, capsys):
        doc = json.loads(json.dumps(GOOD_SCENARIO))
        doc["checks"] = [{"suite": "frob"}]
        path = write_scenario(tmp_path, doc)
        code, _, err = run(["scenario", path], capsys)
        assert code == 2
        assert "unknown suite" in err

    def test_custom_sigma_generators(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "spaces": {"X": {"carrier": ["a", "b", "c"], "sigma": [["a"]]}},
            "measures": {"P": {"space": "X", "atoms": [
                {"atom": "a", "weight": "1/3"}, {"atom": "b", "weight": "2/3"}]}},
            "checks": [{"suite": "triangle", "measure": "P"}],
        }
        path = write_scenario(tmp_path, doc)
        code, out, _ = run(["scenario", path], capsys)
        assert code == 0

    def test_coarse_sigma_roundtrip_compares_mass_per_atom(self, tmp_path, capsys):
        # phi_inverse puts the mass of the atom {a, b} on its first label a;
        # the measures agree on every measurable set, so the law holds
        doc = {
            "schema": 1,
            "spaces": {"X": {"carrier": ["a", "b", "c"], "sigma": [["a", "b"]]}},
            "measures": {"P": {"space": "X", "atoms": [
                {"atom": "b", "weight": "1/2"}, {"atom": "c", "weight": "1/2"}]}},
            "checks": [{"suite": "phi-roundtrip", "measure": "P"}],
        }
        path = write_scenario(tmp_path, doc)
        code, out, _ = run(["scenario", path], capsys)
        assert code == 0
        assert "1/1 suites passed" in out

    def test_large_powerset_needs_no_list_of_its_sets(self, tmp_path, capsys):
        # 2**40 measurable sets: only the 40 atoms may be materialized
        carrier = [f"x{i}" for i in range(40)]
        doc = {
            "schema": 1,
            "spaces": {"X": {"carrier": carrier, "sigma": "powerset"}},
            "measures": {"P": {"space": "X", "atoms": [
                {"atom": x, "weight": "1/40"} for x in carrier]}},
            "maps": {"m": {"kind": "affine", "offset": "1/8", "slope": "3/4"}},
            "checks": [{"suite": "triangle", "measure": "P"},
                       {"suite": "morphism", "map": "m"}],
        }
        path = write_scenario(tmp_path, doc)
        start = time.perf_counter()
        code, out, _ = run(["scenario", path], capsys)
        assert code == 0
        assert "2/2 suites passed" in out
        assert time.perf_counter() - start < 10


def _set(*keys_and_value):
    """A scenario edit: set the value at the key path."""
    *keys, value = keys_and_value

    def edit(doc):
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit, field", [
    (_set("spaces", []), "spaces"),
    (_set("measures", "P", "atoms", 0, "a"), "measures.P.atoms[0]"),
    (_set("spaces", "X", "carrier", ["a", "a"]), "spaces.X.carrier"),
    (_set("spaces", "X", "carrier", ["a", ["b"]]), "spaces.X.carrier[1]"),
    (_set("spaces", "X", "sigma", [[["a"]]]), "spaces.X.sigma[0][0]"),
    (_set("measures", "P", "atoms", 0, "weight", "1/0"), "measures.P.atoms[0].weight"),
    (_set("measures", "P", "atoms", 0, "atom", ["a"]), "measures.P.atoms[0].atom"),
    (_set("maps", "m", "slope", "-1"), "maps.m.slope"),
    (_set("maps", "m", {"kind": "affine", "offset": "1", "slope": "1"}), "maps.m"),
    (_set("maps", "m", {"kind": "poly", "coeffs": ["2"]}), "maps.m"),
    (_set("maps", "m", {"kind": "poly", "coeffs": "12"}), "maps.m.coeffs"),
    (_set("checks", {"suite": "triangle"}), "checks"),
    (_set("checks", ["triangle"]), "checks[0]"),
    (_set("checks", [{"suite": "triangle", "measure": ["P"]}]), "checks[0].measure"),
    (_set("extra", 1), "extra"),
    (_set("maps", "m", "slop", "1"), "maps.m.slop"),
    (_set("checks", [{"suite": "morphism", "map": "m", "measure": "P"}]),
     "checks[0].measure"),
])
def test_malformed_scenario_is_config_error_with_field_path(edit, field, tmp_path,
                                                             capsys):
    doc = json.loads(json.dumps(GOOD_SCENARIO))
    edit(doc)
    path = write_scenario(tmp_path, doc)
    code, _, err = run(["scenario", path, "--cases", "20"], capsys)
    assert code == 2
    assert f"scenario error: {field}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("drop", [False, True], ids=["empty", "absent"])
def test_a_scenario_with_no_checks_is_config_error(drop, tmp_path, capsys):
    # "0/0 suites passed" is a pass that checked nothing
    doc = {**GOOD_SCENARIO, "checks": []}
    if drop:
        del doc["checks"]
    report = tmp_path / "report.json"
    code, out, err = run(["scenario", write_scenario(tmp_path, doc), "--json", str(report)],
                         capsys)
    assert (code, out, err) == (2, "", "scenario error: checks: expected at least one check\n")
    assert not report.exists()


@pytest.mark.parametrize("edit, message", [
    (_set("measures", "P", "atoms", 0, "atom", 0.25),
     "measures.P.atoms[0].atom: 1/4 not in carrier"),
    (_set("spaces", "X", "sigma", [[0.75]]), "spaces.X.sigma[0][0]: 3/4 not in carrier"),
    (_set("measures", "P", "space", 0.5), "measures.P.space: unknown space 1/2"),
    (_set("checks", 0, "suite", 2.5),
     "checks[0].suite: unknown suite 5/2 (expected triangle, phi-roundtrip, or morphism)"),
    (_set("checks", 0, "measure", 0.5), "checks[0].measure: unknown measure 1/2"),
    (_set("measures", "P", "atoms", 0, "atom", "zz"),
     "measures.P.atoms[0].atom: 'zz' not in carrier"),
    (_set("measures", "P", "space", 7), "measures.P.space: unknown space 7"),
    (_set("measures", "P", "space", [0.5]), "measures.P.space: unknown space [1/2]"),
    (_set("measures", "P", "atoms", 0, "weight", [0.5, "a"]),
     f"measures.P.atoms[0].weight: [1/2, 'a'] is not a rational"
     f" (integers of at most {MAX_DIGITS} digits)"),
    (_set("checks", 0, "suite", {"x": 0.5, "y": [None, True, {}]}),
     "checks[0].suite: unknown suite {'x': 1/2, 'y': [None, True, {}]}"
     " (expected triangle, phi-roundtrip, or morphism)"),
    (_set("measures", "P", "space", json.loads("[" * 800 + "0.5" + "]" * 800)),
     "measures.P.space: unknown space " + "[" * 800 + "1/2" + "]" * 800),
], ids=["atom", "sigma", "space", "suite", "measure", "string-atom", "int-space",
        "list-space", "list-weight", "object-suite", "deep-list-space"])
def test_a_message_prints_a_json_value_as_witnesses_do(edit, message, tmp_path, capsys):
    # a JSON float reads as a Fraction and prints as 1/4, not Fraction(1, 4),
    # inside a list or an object too, at any depth the reader takes; a
    # string or an int prints its repr
    doc = json.loads(json.dumps(GOOD_SCENARIO))
    edit(doc)
    code, _, err = run(["scenario", write_scenario(tmp_path, doc)], capsys)
    assert (code, err) == (2, f"scenario error: {message}\n")


@pytest.mark.parametrize("coeffs, message", [
    (["-1/1000", "1002/1000"], "value -1/1000 at 0 leaves [0,1]"),
    (["0", "1001/1000"], "value 1001/1000 at 1 leaves [0,1]"),
    (["1/2", "1", "-2", "2"], "value 3/2 at 1 leaves [0,1]"),
])
@pytest.mark.parametrize("cases", ["3", "20", "200"])
def test_a_poly_leaving_the_unit_interval_at_an_end_is_refused_at_any_cases(
        coeffs, message, cases, tmp_path, capsys):
    # whether a case draws the end point must not decide the exit code
    doc = {**GOOD_SCENARIO, "maps": {"m": {"kind": "poly", "coeffs": coeffs}},
           "checks": [{"suite": "morphism", "map": "m"}]}
    code, _, err = run(["scenario", write_scenario(tmp_path, doc), "--cases", cases], capsys)
    assert (code, err) == (2, f"scenario error: maps.m: {message}\n")


@pytest.mark.parametrize("seed, cases, message", [
    ("1", "1", "value 626800229/529420500 at 19811/51450 leaves [0,1]"),
    ("3", "3", "value 19542486/15682205 at 4673/8855 leaves [0,1]"),
    ("5", "1", "value 182245/171396 at 127/414 leaves [0,1]"),
])
def test_a_poly_leaving_the_unit_interval_inside_it_is_refused_not_failed(
        seed, cases, message, tmp_path, capsys):
    # 5x - 5x^2 is 0 at both ends and 5/4 at 1/2: a value outside [0,1] is
    # an error in the scenario, never a failure of the law
    doc = {**GOOD_SCENARIO, "maps": {"m": {"kind": "poly", "coeffs": ["0", "5", "-5"]}},
           "checks": [{"suite": "morphism", "map": "m"}]}
    code, _, err = run(["scenario", write_scenario(tmp_path, doc), "--seed", seed,
                        "--cases", cases], capsys)
    assert (code, err) == (2, f"scenario error: maps.m: {message}\n")


NUMBER_LABELS = {
    "schema": 1,
    "spaces": {"X": {"carrier": [0, 1], "sigma": [[0]]}},
    "measures": {"P": {"space": "X", "atoms": [{"atom": 0, "weight": "1/2"},
                                               {"atom": 1, "weight": "1/2"}]}},
    "maps": {"m": {"kind": "affine", "offset": "0", "slope": "1"}},
    "checks": [{"suite": "triangle", "measure": "P"}, {"suite": "morphism", "map": "m"}],
}


@pytest.mark.parametrize("edit, field", [
    (_set("spaces", "X", "carrier", [0, True]), "spaces.X.carrier[1]"),
    (_set("spaces", "X", "sigma", [[True]]), "spaces.X.sigma[0][0]"),
    (_set("measures", "P", "atoms", 1, "atom", True), "measures.P.atoms[1].atom"),
    (_set("measures", "P", "atoms", [{"atom": 0, "weight": "0"}, {"atom": 1, "weight": True}]),
     "measures.P.atoms[1].weight"),
    (_set("maps", "m", "offset", False), "maps.m.offset"),
    (_set("maps", "m", "slope", True), "maps.m.slope"),
    (_set("maps", "m", {"kind": "poly", "coeffs": [False, True]}), "maps.m.coeffs[0]"),
], ids=["carrier", "sigma", "atom", "weight", "offset", "slope", "coeffs"])
def test_a_json_boolean_is_neither_a_label_nor_a_number(edit, field, tmp_path, capsys):
    # each edit passes if true reads as 1 and false as 0
    doc = json.loads(json.dumps(NUMBER_LABELS))
    assert run(["scenario", write_scenario(tmp_path, doc)], capsys)[0] == 0
    edit(doc)
    code, _, err = run(["scenario", write_scenario(tmp_path, doc)], capsys)
    assert code == 2
    assert err.startswith(f"scenario error: {field}: ")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_a_non_standard_json_literal_is_refused(literal, tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text('{"schema": 1, "spaces": {"X": {"carrier": [%s]}}}' % literal)
    code, _, err = run(["scenario", str(path)], capsys)
    assert (code, err) == (2, f"scenario error: {path}: invalid JSON number {literal}\n")


@pytest.mark.parametrize("argv", [
    ["laws", "--tolerance", "1e-12"],
    ["demo", "divergent-sum", "--n", "0"],
    ["demo", "half-cauchy", "--n-list", "-5"],
    ["demo", "open-interval", "--depth", "0"],
    ["demo", "open-interval", "--depth", "1"],
    ["demo", "open-interval", "--depth", "-3"],
    ["laws", "--cases", "0", "--suite", "triangle"],
    ["laws", "--cases", "1/0", "--suite", "triangle"],
])
def test_numeric_inputs_end_in_an_exit_code_and_an_honest_line(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if "strictly inside" in out:
        lower, upper = re.search(r"enclosure \[(\S+), (\S+)\]", out).groups()
        assert 0 < Fraction(lower) and Fraction(upper) < 1


@pytest.mark.parametrize("command", [["laws"], ["scenario", "scn.json"]])
def test_tolerance_is_not_an_option(command, capsys):
    # enclosures compare at the one numerics.DEFAULT_TOLERANCE
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tolerance", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance 1e-12" in capsys.readouterr().err


# the default suites whose verdicts compare values of R-inf; the other
# eight compare members of G(X) alone, and GirySpace.eq answers for two
# structurally equal measures without reading a value
COMPARES_EXTENDED_REALS = sorted(
    [f"{axiom}-{key}" for axiom in ("axiom1", "axiom2")
     for key in ("closed-unit", "open-unit", "ext-real", "product")]
    + [f"morphism-{key}" for key in ("id", "affine-half", "const-third", "proj1",
                                     "ext-affine")]
    + ["triangle", "naturality-epsilon", "countable-additivity", "image-property",
       "gp-naturality", "recovery", "sigma-agreement"])


def test_every_comparison_of_a_laws_run_is_exact(monkeypatch, capsys):
    # every verdict on extended reals goes through ext_eq, and what the
    # reports' "tolerance_policy": "exact" claims holds: no suite compares
    # a value that carries an enclosure.  A suite that does must change
    # that field, and this test with it.
    from girycheck import laws, numerics
    from girycheck.reports import HarnessConfig

    compare, calls = numerics.ext_eq, []

    def exact(x):
        enclosure = as_ext(x).enclosure
        return enclosure is None or enclosure.width == 0

    def spy(u, v):
        calls.append(exact(u) and exact(v))
        return compare(u, v)

    bindings = [module for name, module in sys.modules.items()
                if name.startswith("girycheck.") and getattr(module, "ext_eq", None) is compare]
    for module in bindings:
        monkeypatch.setattr(module, "ext_eq", spy)
    suites = set(laws.build_suites(HarnessConfig()))
    assert sorted(suites - set(COMPARES_EXTENDED_REALS)) == [
        "axiom1-giry2", "axiom1-giry3", "axiom1-giry4", "axiom2-giry2", "axiom2-giry3",
        "axiom2-giry4", "monad-laws", "phi-roundtrip"]
    for suite in COMPARES_EXTENDED_REALS:
        calls.clear()
        code, out, _ = run(["laws", "--suite", suite, "--cases", "20", "--output", "json"],
                           capsys)
        assert (suite, code) == (suite, 0)
        assert calls and all(calls), suite
    code, out, _ = run(["laws", "--mutants", "--cases", "20", "--output", "json"], capsys)
    assert code == 1
    assert all(calls)
    assert {r["tolerance_policy"] for r in json.loads(out)} == {"exact"}


def _key_paths(node, prefix=()):
    """The key path of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


SCENARIO_KEYS = ["schema", "spaces", "measures", "maps", "checks", "carrier", "sigma",
                 "space", "atoms", "atom", "weight", "kind", "offset", "slope",
                 "coeffs", "suite", "measure", "map", "X", "P", "m"]
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
                | st.sampled_from([0.5, float("nan"), float("inf"), -float("inf")])
                | st.sampled_from(["", "a", "b", "X", "P", "m", "1/2", "-1", "1/0",
                                   "powerset", "affine", "poly", "triangle",
                                   "phi-roundtrip", "morphism", "NaN"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(SCENARIO_KEYS), inner, max_size=3)),
    max_leaves=6)
DROP = object()
SCENARIO_EDITS = st.lists(
    st.tuples(st.sampled_from(list(_key_paths(GOOD_SCENARIO))), JSON_VALUES | st.just(DROP)),
    min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(edits=SCENARIO_EDITS)
# an earlier edit made the parent a string, which indexes but takes no edit
@example(edits=[(("checks",), "a"), (("checks", 0), None)])
@example(edits=[(("checks",), "a"), (("checks", 0), DROP)])
def test_edited_scenarios_end_in_an_exit_code(edits, tmp_path_factory):
    doc = json.loads(json.dumps(GOOD_SCENARIO))
    for path, value in edits:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed this field
        if not isinstance(parent, (dict, list)):
            continue  # or replaced its parent by a scalar
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    path = tmp_path_factory.mktemp("fuzz") / "scn.json"
    path.write_text(json.dumps(doc))
    assert main(["scenario", str(path), "--cases", "3"]) in (0, 1, 2)


NUMBER_JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1/0", "1e-3", "1e400",
                               "3.5", "-0", "0x10", " 7"])
ANY_NUMBER = st.integers(-10**30, 10**30).map(str) | NUMBER_JUNK


def _small_number(low, high):
    return st.integers(low, high).map(str) | NUMBER_JUNK


NUMERIC_ARGV = st.one_of(
    st.tuples(st.just("laws"), st.just("--suite"), st.just("triangle"),
              st.just("--cases"), _small_number(-3, 5), st.just("--seed"), ANY_NUMBER),
    st.tuples(st.just("scenario"), st.just("GOOD"), st.just("--cases"),
              _small_number(-3, 5), st.just("--seed"), ANY_NUMBER),
    st.tuples(st.just("demo"), st.just("divergent-sum"), st.just("--n"),
              _small_number(-3, 10**4)),
    st.tuples(st.just("demo"), st.just("open-interval"), st.just("--depth"),
              _small_number(-3, 200)),
    st.tuples(st.just("demo"), st.just("half-cauchy"), st.just("--n-list"))
    .flatmap(lambda head: st.lists(ANY_NUMBER, max_size=3).map(lambda ns: head + tuple(ns))),
)


@settings(max_examples=60, deadline=None)
@given(argv=NUMERIC_ARGV)
def test_numeric_argv_ends_in_an_exit_code(argv, tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "scn.json"
    path.write_text(json.dumps(GOOD_SCENARIO))
    argv = [str(path) if a == "GOOD" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a malformed value with status 2
        code = exc.code
    assert code in (0, 1, 2)


def _in_fresh_interpreter(code: str) -> str:
    """The standard output of ``code`` run by a new interpreter that
    imports girycheck from the tree under test."""
    env = {**os.environ, "PYTHONPATH": str(Path(girycheck.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


WITHOUT_DIGIT_LIMIT = [
    (["scenario", "WEIGHT"], f"at most {MAX_DIGITS} digits"),
    (["laws", "--seed", "7" * 5000], f"at most {MAX_DIGITS} digits"),
    (["laws", "--cases", "0"], "expected an integer >= 1"),
    (["demo", "divergent-sum", "--n", "1" * (MAX_DIGITS + 1)], f"at most {MAX_DIGITS} digits"),
]


@pytest.mark.parametrize("argv, message", WITHOUT_DIGIT_LIMIT,
                         ids=["weight-1e-10000000", "seed-5000-digits", "cases-0",
                              "n-4301-digits"])
def test_the_digit_cap_is_the_same_without_an_interpreter_limit(argv, message, tmp_path):
    # PYTHONINTMAXSTRDIGITS=0 is the path Python 3.10 takes by default:
    # there int() and Fraction() read numbers of any length
    doc = json.loads(json.dumps(GOOD_SCENARIO))
    doc["measures"]["P"]["atoms"][0]["weight"] = "1e-10000000"
    argv = [write_scenario(tmp_path, doc) if a == "WEIGHT" else a for a in argv]
    base = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    base["PYTHONPATH"] = str(Path(girycheck.__file__).parents[1])
    lines = []
    for env in [{**base, "PYTHONINTMAXSTRDIGITS": "0"}, base]:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "girycheck.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 2
        assert done.returncode == 2
        lines.append(done.stderr.splitlines()[-1])
    assert lines[0] == lines[1]
    assert message in lines[0]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str limit")
@pytest.mark.parametrize("argv", [
    ["laws", "--seed", "7" * 2000],
    ["scenario", "WEIGHT"],
    ["scenario", "LABEL"],
], ids=["flag", "string-weight", "json-int"])
def test_a_lower_interpreter_limit_is_the_cap_the_message_names(argv, tmp_path):
    # started with a limit below MAX_DIGITS, the interpreter refuses a
    # 2,000-digit int, so the cap and its message are that limit
    doc = json.loads(json.dumps(GOOD_SCENARIO))
    doc["measures"]["P"]["atoms"][0]["weight"] = "1" * 2000 + "/3"
    paths = {"WEIGHT": write_scenario(tmp_path, doc, "weight.json"),
             "LABEL": str(tmp_path / "label.json")}
    Path(paths["LABEL"]).write_text(
        '{"schema": 1, "spaces": {"X": {"carrier": [%s]}}}' % ("1" * 2000))
    argv = [paths.get(a, a) for a in argv]
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "1000",
           "PYTHONPATH": str(Path(girycheck.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "girycheck.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "(integers of at most 1000 digits)" in done.stderr.splitlines()[-1]


def test_start_up_loads_neither_openssl_nor_scipy():
    # nor the worker pool, which only a multi-suite `laws` run imports, nor
    # dataclasses (and with it inspect) or the laws module, which only
    # `laws` and `demo` load
    code = ("import sys, girycheck.cli; "
            "print([m for m in ('_hashlib', 'scipy', 'multiprocessing', "
            "'concurrent.futures', 'dataclasses', 'inspect', 'girycheck.laws') "
            "if m in sys.modules])")
    assert _in_fresh_interpreter(code) == "[]\n"


def test_scenario_run_leaves_the_laws_module_unloaded(tmp_path):
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    code = ("import sys; from girycheck.cli import main; "
            f"code = main(['scenario', {str(path)!r}]); "
            "print(code, 'girycheck.laws' in sys.modules)")
    assert _in_fresh_interpreter(code).splitlines()[-1] == "0 False"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["demo", "divergent-sum"],
    ["scenario", str(Path(__file__).parent / "scenarios" / "powerset.json")],
    ["laws", "--seed", "0", "--output", "json"],
], ids=["demo", "scenario", "laws"])
def test_a_closed_stdout_is_an_output_error_not_a_crash(argv, unbuffered):
    # the reader of stdout exits before the command writes: as for an
    # unwritable --json path, exit 2 with the reason, and the unflushed
    # rest of a block-buffered stdout fails no second time at the end
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(girycheck.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "girycheck.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.splitlines()[-1].startswith("cannot write stdout:")
    assert "Traceback" not in err and "Exception ignored" not in err


LAWS_ARGV = ["girycheck", "laws", "--suite", "axiom1-*", "--cases", "1"]


def test_a_crash_exits_three_with_its_traceback(monkeypatch, capsys):
    from girycheck import cli, laws

    def crash(space, rng):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(laws, "check_axiom1", crash)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    monkeypatch.setattr(sys, "argv", LAWS_ARGV)
    assert cli.entry() == cli.EXIT_INTERNAL_ERROR == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: planted crash" in err
    with pytest.raises(RuntimeError, match="planted crash"):
        main(LAWS_ARGV[1:])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool forks")
def test_a_dead_worker_exits_three_not_one(monkeypatch, capsys):
    from girycheck import cli, laws

    # each forked worker dies inside the checker; two CPUs keep the
    # checker out of this process
    monkeypatch.setattr(laws, "check_axiom1", lambda space, rng: os._exit(1))
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sys, "argv", LAWS_ARGV)
    assert cli.entry() == cli.EXIT_INTERNAL_ERROR
    assert "WorkerDied" in capsys.readouterr().err
    with pytest.raises(laws.WorkerDied):
        main(LAWS_ARGV[1:], jobs=2)
