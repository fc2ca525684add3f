import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import girycheck
from girycheck.cli import main


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

    def test_bad_cases_value_is_config_error(self, capsys):
        code, _, err = run(["laws", "--cases", "0"], capsys)
        assert code == 2
        assert "config error" in err

    def test_json_report_is_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["laws", "--cases", "8", "--suite", "morphism-*", "--seed", "3"]
        assert run(args + ["--json", str(p1)], capsys)[0] == 0
        assert run(args + ["--json", str(p2)], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert all(r["pass"] for r in payload)

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
        code, out, _ = run(["demo", "divergent-sum", "--n", "100"], capsys)
        assert code == 0
        assert "5050" in out
        assert "exceeds divergence threshold" not in out
        code, out, _ = run(["demo", "divergent-sum", "--n", "2000000"], capsys)
        assert code == 0
        assert "N=2000000: 2000001000000" in out
        assert "exceeds divergence threshold 1000000000000" in out

    def test_half_cauchy(self, capsys):
        code, out, _ = run(["demo", "half-cauchy", "--n-list", "1"], capsys)
        assert code == 0
        assert "0.22063560" in out

    def test_open_interval(self, capsys):
        code, out, _ = run(["demo", "open-interval", "--depth", "50"], capsys)
        assert code == 0
        assert "0.3862943611" in out
        assert "enclosure" in out

    @pytest.mark.parametrize("argv", [
        ["demo", "divergent-sum", "--n", "0"],
        ["demo", "half-cauchy", "--n-list", "-5"],
        ["demo", "open-interval", "--depth", "-1"],
    ])
    def test_out_of_range_truncation_rejected_by_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unknown_demo_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "frobnicate"])
        assert exc.value.code == 2


class TestScenarioCommand:
    def test_valid_scenario_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, GOOD_SCENARIO)
        code, out, _ = run(["scenario", path, "--cases", "20"], capsys)
        assert code == 0
        assert "3/3 suites passed" in out

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


@pytest.mark.parametrize("argv", [
    ["laws", "--tolerance", "inf"],
    ["laws", "--tolerance", "1/0"],
    ["laws", "--tolerance", "1e-12", "--suite", "triangle", "--cases", "5"],
    ["demo", "divergent-sum", "--n", "0"],
    ["demo", "half-cauchy", "--n-list", "-5"],
    ["demo", "open-interval", "--depth", "0"],
    ["demo", "open-interval", "--depth", "1"],
    ["demo", "open-interval", "--depth", "-3"],
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
              st.just("--cases"), _small_number(-3, 5), st.just("--seed"), ANY_NUMBER,
              st.just("--tolerance"), ANY_NUMBER),
    st.tuples(st.just("scenario"), st.just("GOOD"), st.just("--cases"),
              _small_number(-3, 5), st.just("--seed"), ANY_NUMBER,
              st.just("--tolerance"), ANY_NUMBER),
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
