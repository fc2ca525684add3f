import hashlib
import json
import math
import os
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.giry import (
    GirySpace,
    ProbMeasure,
    check_phi_roundtrip,
    check_triangle,
    dirac,
    evaluation,
    integrate,
    phi,
)
from girycheck.laws import (
    Ambiguous,
    NoPoint,
    affine_endomap_family,
    build_suites,
    check_evaluation_point_recovery,
    check_generalized_point_naturality,
    check_image_property,
    check_naturality_epsilon,
    check_sigma_agreement,
    demo_divergent_sum,
    demo_half_cauchy,
    demo_open_interval,
    half_cauchy_lower_bound,
    half_cauchy_partial_expectation,
    run_suites,
)
from girycheck import cli, giry, laws, reports
from girycheck.meas import FiniteMeasurableSpace, generate_sigma_algebra
from girycheck.numerics import INF, ExtReal, PartitionOfOne, draw_int
from girycheck.reports import HarnessConfig, run_per_seed
from girycheck.scvx import (
    CarrierViolation,
    CountablyAffineMap,
    IntervalSpace,
    affine_map,
    constant_map,
    identity_map,
)

F = Fraction


def uniform(atoms, base=None):
    n = len(atoms)
    return ProbMeasure([(a, F(1, n)) for a in atoms], base=base)


@pytest.fixture
def closed():
    return IntervalSpace("closed_unit")


@pytest.fixture
def ext():
    return IntervalSpace("ext_real_line")


class TestImageProperty:
    def test_dirac_backed_value_is_an_evaluation(self, closed):
        J = phi(dirac(ExtReal(F(1, 3))))
        m = affine_map(closed, closed, F(1, 4), F(1, 2))
        assert check_image_property(J, m) is None

    def test_uniform_midpoint_in_image(self, closed):
        J = phi(uniform([ExtReal(0), ExtReal(1)]))
        assert check_image_property(J, identity_map(closed)) is None

    def test_constant_map_image_is_a_point(self, closed):
        J = phi(uniform([ExtReal(0), ExtReal(1)]))
        m = constant_map(closed, closed, F(2, 5))
        assert check_image_property(J, m) is None

    def test_constant_map_of_the_extended_reals_has_a_point_image(self, ext):
        J = lambda m: ExtReal(5)
        witness = check_image_property(J, constant_map(ext, ext, 2))
        assert witness is not None and witness["image"] == "{2}"

    def test_a_map_of_the_extended_reals_that_is_not_affine_raises(self, ext):
        # clamping to [0,1] agrees with x at 0 and 1, so it looked onto
        def clamp(x):
            return ExtReal(1) if x.is_inf else ExtReal(min(max(x.value, 0), 1))

        J = lambda m: ExtReal(5)
        m = CountablyAffineMap(ext, ext, clamp, name="clamp")
        with pytest.raises(ValueError, match="clamp is not an affine map"):
            check_image_property(J, m)
        onto = affine_map(ext, ext, F(-3), F(2))
        assert check_image_property(J, onto) is None

    def test_a_map_of_the_extended_reals_with_equal_ends_is_probed(self, ext):
        # x(x-1) is 0 at 0 and at 1 but not constant; 2 lies in its image
        J = evaluation(ExtReal(2))
        m = CountablyAffineMap(
            ext, ext, lambda x: INF if x.is_inf else ExtReal(x.value * (x.value - 1)),
            name="x(x-1)")
        with pytest.raises(ValueError, match=r"x\(x-1\) is not an affine map"):
            check_image_property(J, m)

    def test_a_map_of_the_unit_interval_that_is_not_affine_raises(self, closed):
        J = phi(dirac(ExtReal(F(1, 3))))
        m = CountablyAffineMap(closed, closed,
                               lambda x: ExtReal(x.value ** 2), name="square")
        with pytest.raises(ValueError, match="square is not an affine map"):
            check_image_property(J, m)


@pytest.mark.parametrize("kind", ["closed_unit", "open_unit", "ext_real_line"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verdict_matches_a_reference_image(kind, data):
    space = IntervalSpace(kind)
    slope = data.draw(st.sampled_from([0, F(1, 4), F(1, 2), 1, 3]))
    offset = data.draw(st.fractions(-2, 2, max_denominator=8))
    m = affine_map(space, space, offset, slope)
    # points in and around the carrier, infinity among them
    points = st.one_of(st.fractions(-2, 3, max_denominator=8).map(ExtReal),
                       st.just(INF))
    if data.draw(st.booleans()):
        J = evaluation(data.draw(points))
    else:
        atoms = data.draw(st.lists(points, min_size=1, max_size=4, unique=True))
        parts = data.draw(st.lists(st.integers(1, 9), min_size=len(atoms),
                                   max_size=len(atoms)))
        J = phi(ProbMeasure(zip(atoms, parts), den=sum(parts)))
    val = J(m)
    # the reference image: m(0) alone for a constant map, all of R-inf
    # for any other map of R-inf, else the interval between m(0) and
    # m(1) with the carrier's open or closed ends
    lo, hi = sorted([m(ExtReal(0)).value, m(ExtReal(1)).value])
    if lo == hi:
        inside = val == ExtReal(lo)
    elif kind == "ext_real_line":
        inside = True
    elif val.is_inf:
        inside = False
    elif kind == "closed_unit":
        inside = lo <= val.value <= hi
    else:
        inside = lo < val.value < hi
    assert (check_image_property(J, m) is None) == inside


class TestGeneralizedPointNaturality:
    def test_measure_backed_passes_family(self, closed, ext):
        J = phi(uniform([ExtReal(F(1, 4)), ExtReal(F(3, 4))]))
        m = affine_map(closed, ext, F(1, 8), F(1, 2))
        assert check_generalized_point_naturality(J, m, affine_endomap_family(ext)) is None

    def test_weak_averaging_via_constants(self, closed, ext):
        J = phi(uniform([ExtReal(0), ExtReal(1)]))
        c = constant_map(ext, ext, F(2, 7))
        m = identity_map(closed)
        assert check_generalized_point_naturality(J, m, [c]) is None
        # and directly: integrating a constant returns the constant
        assert J(lambda x: F(2, 7)) == ExtReal(F(2, 7))

    def test_interpolation_matches_direct_expansion(self, closed, ext):
        # oracle: J((1/2)m + (1/2)c) expanded by linearity of the integral
        P = ProbMeasure([(ExtReal(0), F(1, 3)), (ExtReal(1), F(2, 3))])
        J = phi(P)
        m = identity_map(closed)
        r, c = F(1, 2), F(1, 3)
        g = affine_map(ext, ext, (1 - r) * c, r, name="interp")
        lhs = J(lambda x: g(m(x)))
        expected = (1 - r) * c + r * (F(2, 3))
        assert lhs == ExtReal(expected)

    def test_nonlinear_functional_fails(self, closed, ext):
        P = uniform([ExtReal(0), ExtReal(1)])
        J = lambda m: ExtReal(integrate(P, m).value ** 2)
        m = identity_map(closed)
        witness = check_generalized_point_naturality(J, m, affine_endomap_family(ext))
        assert witness is not None


class TestNaturalityEpsilon:
    def test_identity_map(self, closed):
        P = uniform([ExtReal(0), ExtReal(F(1, 2))])
        assert check_naturality_epsilon(identity_map(closed), P) is None

    def test_hand_expanded_affine_case(self, closed):
        # m(x) = (x+1)/2 on the uniform measure at {0,1}: both routes give 3/4
        m = affine_map(closed, closed, F(1, 2), F(1, 2))
        P = uniform([ExtReal(0), ExtReal(1)])
        assert check_naturality_epsilon(m, P) is None
        from girycheck.giry import barycenter, pushforward
        assert m(barycenter(closed, P)) == ExtReal(F(3, 4))
        assert barycenter(closed, pushforward(P, m)) == ExtReal(F(3, 4))

    def test_constant_map(self, closed):
        m = constant_map(closed, closed, F(1, 5))
        P = uniform([ExtReal(0), ExtReal(1), ExtReal(F(1, 2))])
        assert check_naturality_epsilon(m, P) is None

    @pytest.mark.parametrize("max_eighths", [4, 8])
    def test_a_sampled_map_matches_the_fraction_formula(self, closed, ext, max_eighths):
        # the sampled map builds no Fraction; its values and name are those
        # of offset + slope * x with offset and slope drawn as Fractions
        for seed in range(100):
            m = laws._random_affine_map(random.Random(seed), closed, ext, max_eighths)
            ref = random.Random(seed)
            slope = F(draw_int(ref, 0, max_eighths), 8)
            offset = F(draw_int(ref, 0, max_eighths), 8) * (1 - slope)
            assert m.name == f"affine({offset}+{slope}x)"
            for x in (0, F(1, 3), 1):
                assert m(ExtReal(x)) == offset + slope * x
            assert m(INF) == (offset if slope == 0 else INF)


def triangle_report(X, A, seeds):
    """Per seed: a sampled measure on X and a sampled point of A."""
    GX = GirySpace(X)
    return run_per_seed("triangle", repr(X), seeds,
                        lambda rng: check_triangle(GX.sample(rng), A, A.sample(rng)))


class TestTriangleIdentities:
    def test_dirac_case(self, closed):
        X = FiniteMeasurableSpace.powerset(["a", "b"])
        assert triangle_report(X, closed, seeds=range(20)).ok

    def test_four_point_rational_measures(self, closed):
        X = FiniteMeasurableSpace.powerset(["a", "b", "c", "d"])
        assert triangle_report(X, closed, seeds=range(50)).ok


class TestPhiRoundtrip:
    def coarse(self):
        # sigma generated by {a, b}: the atoms are {a, b} and {c}
        return generate_sigma_algebra(["a", "b", "c"], [["a", "b"]])

    def test_mass_on_a_non_first_label_of_an_atom_passes(self):
        X = self.coarse()
        P = ProbMeasure([("b", F(1, 2)), ("c", F(1, 2))], base=X)
        assert check_phi_roundtrip(P) is None

    def test_mass_moved_between_atoms_fails(self, monkeypatch):
        X = self.coarse()
        P = ProbMeasure([("b", F(1, 2)), ("c", F(1, 2))], base=X)
        moved = ProbMeasure([("a", F(1, 4)), ("c", F(3, 4))], base=X)
        monkeypatch.setattr(giry, "phi_inverse", lambda J, X: moved)
        witness = check_phi_roundtrip(P)
        assert witness is not None
        assert witness["roundtrip"] == moved.to_json_obj()


class TestEvaluationPointRecovery:
    def _setup(self, n=3):
        X = FiniteMeasurableSpace.powerset([f"x{i}" for i in range(n)])
        carrier = [dirac(x, base=X) for x in X.carrier]
        maps = [lambda P, i=i: P.measure_of(1 << i) for i in range(n)]
        return X, carrier, maps

    def test_point_backed_recovery(self):
        X, carrier, maps = self._setup()
        target = carrier[1]
        J = evaluation(target)
        assert check_evaluation_point_recovery(J, carrier, maps) == target

    def test_dirac_backed_recovery(self):
        X, carrier, maps = self._setup()
        target = carrier[2]
        J = phi(dirac(target))
        assert check_evaluation_point_recovery(J, carrier, maps) == target

    def test_uniqueness_is_exhaustive(self):
        X, carrier, maps = self._setup(6)
        for target in carrier:
            J = evaluation(target)
            got = check_evaluation_point_recovery(J, carrier, maps)
            assert got == target

    def test_no_point_for_proper_mixture(self):
        X, carrier, maps = self._setup()
        J = phi(uniform(carrier[:2]))
        with pytest.raises(NoPoint):
            check_evaluation_point_recovery(J, carrier, maps)

    def test_ambiguous_when_maps_cannot_separate(self):
        X, carrier, maps = self._setup()
        const = lambda P: ExtReal(1)
        J = evaluation(carrier[0])
        with pytest.raises(Ambiguous):
            check_evaluation_point_recovery(J, carrier, [const])

    def test_functional_applied_once_per_map(self):
        X, carrier, maps = self._setup(6)
        J, applied = evaluation(carrier[4]), []
        counted = lambda m: applied.append(m) or J(m)
        assert check_evaluation_point_recovery(counted, carrier, maps) == carrier[4]
        assert len(applied) == len(maps)


class TestSigmaAgreement:
    def test_four_point_space(self):
        X = FiniteMeasurableSpace.powerset(["a", "b", "c", "d"])
        assert run_per_seed("sigma-agreement", repr(X), range(50),
                            partial(check_sigma_agreement, X)).ok

    def test_affine_combos_equal_on_diracs_checked_by_linear_algebra(self):
        # oracle: an evaluation combo is a linear functional on the vector
        # of atom weights; equal coefficient vectors mean equal functionals
        X = FiniteMeasurableSpace.powerset(["a", "b"])
        u = X.mask_of(["a"])
        comp = X.mask_of(["b"])
        coeff_a = [F(1, 2) * 1 + F(1, 2) * 0, F(1, 2) * 0 + F(1, 2) * 1]
        coeff_b = [F(1, 2) * 1 + F(1, 2) * 0, F(1, 2) * 1 + F(1, 2) * 0]
        assert coeff_a == coeff_b
        # so (1/2)ev_u + (1/2)ev_comp == (1/2)ev_X + (1/2)ev_empty everywhere
        P = ProbMeasure([("a", F(1, 5)), ("b", F(4, 5))], base=X)
        lhs = F(1, 2) * P.measure_of(u).value + F(1, 2) * P.measure_of(comp).value
        rhs = F(1, 2) * P.measure_of(X.full_mask).value + F(1, 2) * P.measure_of(0).value
        assert lhs == rhs


class TestDemos:
    def test_divergent_sum_small_values(self):
        assert demo_divergent_sum(1) == 1
        assert demo_divergent_sum(10) == 55
        assert demo_divergent_sum(100) == 5050

    def test_divergent_sum_matches_closed_form(self):
        # oracle: sum of the first n integers
        for n in (1, 5, 37, 100):
            assert demo_divergent_sum(n) == F(n * (n + 1), 2)

    def test_divergent_sum_is_exact_at_a_huge_n(self):
        n = 10**18
        assert demo_divergent_sum(n) == n * (n + 1) // 2
        assert demo_divergent_sum(n) == 500000000000000000500000000000000000

    def test_divergent_sum_strictly_increasing(self):
        values = [demo_divergent_sum(n) for n in range(1, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_half_cauchy_closed_form(self):
        assert half_cauchy_partial_expectation(1) == pytest.approx(
            math.log(2) / math.pi
        )

    def test_half_cauchy_lower_bound_is_below_the_closed_form(self):
        rows = demo_half_cauchy([1, 10, 100])
        for row in rows:
            assert row["lower_bound"] <= row["closed_form"]

    def test_the_integrand_is_at_least_a_harmonic_term_on_each_unit_step(self):
        # x/(1+x^2) decreases on [1, inf): its minimum on [k, k+1] is at k+1
        for k in range(1, 1001):
            assert F(k + 1, 1 + (k + 1) ** 2) >= F(1, 2 * (k + 1))

    def test_22_over_7_exceeds_pi(self):
        # so (2/pi) x/(1+x^2) >= 1/(pi(k+1)) > (7/22)/(k+1) on [k, k+1]
        assert F(22, 7) > math.pi

    def test_half_cauchy_lower_bound_is_below_the_harmonic_bound(self):
        harmonic = F(0)
        for n in range(1, 2001):
            harmonic += F(1, n)
            assert half_cauchy_lower_bound(n) <= F(7, 22) * (harmonic - 1)

    def test_half_cauchy_lower_bound_at_powers_of_two(self):
        for k in range(0, 1100):
            assert half_cauchy_lower_bound(2**k) == F(7 * k, 44)

    def test_half_cauchy_growth_is_logarithmic(self):
        e3 = half_cauchy_partial_expectation(10**3)
        e6 = half_cauchy_partial_expectation(10**6)
        assert e6 - e3 == pytest.approx(math.log(10**6) / math.pi, rel=1e-3)

    def test_open_interval_enclosure(self):
        got = demo_open_interval(depth=50)
        assert got.enclosure.width <= F(1, 2**40)
        assert 0 < got.enclosure.lower and got.enclosure.upper < 1


class TestSuiteRegistry:
    def test_every_default_suite_passes_quickly(self):
        cfg = HarnessConfig(cases=10)
        reports = run_suites(cfg)
        assert all(r.ok for r in reports)
        names = {r.law for r in reports}
        assert "axiom1-giry3" in names and "monad-laws" in names

    def test_each_mutant_suite_fails(self):
        cfg = HarnessConfig(cases=10)
        reports = run_suites(cfg, include_mutants=True)
        mutant = [r for r in reports if r.law.startswith("mutant-")]
        assert len(mutant) == 4
        assert all(not r.ok for r in mutant)
        assert all(r.failures for r in mutant)

    def test_deterministic_per_seed(self):
        cfg = HarnessConfig(cases=10, seed=7)
        a = [r.to_json_obj() for r in run_suites(cfg)]
        b = [r.to_json_obj() for r in run_suites(cfg)]
        assert a == b

    def test_seed_changes_cases(self):
        r1 = run_suites(HarnessConfig(cases=10, seed=1),
                        name_filter=lambda n: n == "triangle")[0]
        r2 = run_suites(HarnessConfig(cases=10, seed=2),
                        name_filter=lambda n: n == "triangle")[0]
        assert r1.seeds != r2.seeds

    def test_suite_seeds_hash_is_hashlib_blake2s(self):
        # reports takes blake2s from _blake2, which does not load OpenSSL;
        # the seeds, and so every pinned report, need it to be hashlib's
        assert reports.blake2s is hashlib.blake2s

    def test_a_case_seeds_one_generator(self, monkeypatch):
        # every draw of a case, its partitions included, comes from the one
        # generator run_per_seed seeds for it; suite_seeds seeds one more
        # to derive the case seeds
        seed, seeded = random.Random.seed, []

        def counting_seed(self, *args, **kwargs):
            seeded.append(args)
            return seed(self, *args, **kwargs)

        monkeypatch.setattr(random.Random, "seed", counting_seed)
        report = build_suites(HarnessConfig(cases=5))["axiom2-giry4"]()
        assert report.ok and report.cases == 5
        assert seeded[1:] == [(s,) for s in report.seeds]

    def test_one_giry_space_per_powerset_size(self, monkeypatch):
        # G(X) on 2..8 points, the shipped giry2..giry4 among them, are
        # built once each, and so are their powerset spaces
        built = {FiniteMeasurableSpace: 0, GirySpace: 0}
        for cls in built:
            def counting_init(self, *args, cls=cls, init=cls.__init__):
                built[cls] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting_init)
        build_suites(HarnessConfig())
        assert built == {FiniteMeasurableSpace: 7, GirySpace: 7}

    def test_name_filter(self):
        cfg = HarnessConfig(cases=5)
        reports = run_suites(cfg, name_filter=lambda n: n.startswith("morphism"))
        assert reports and all(r.law.startswith("morphism") for r in reports)


# A fault planted on the binding a suite's checker reads, and a key its
# failure witness must carry.
PLANTED_FAULTS = [
    pytest.param("triangle", giry, "monad_mu", lambda Q: dirac("planted"),
                 "recovered", id="triangle-flatten"),
    pytest.param("naturality-epsilon", laws, "pushforward", lambda P, m: P,
                 "measure", id="naturality-epsilon-unmapped"),
    pytest.param("countable-additivity", laws, "scale", lambda s, u: u,
                 "via_rescaling", id="countable-additivity-unscaled"),
    pytest.param("monad-laws", laws, "monad_mu", lambda Q: dirac("planted"),
                 "left_unit", id="monad-laws-flatten"),
    pytest.param("image-property", laws, "phi", lambda P: (lambda m: ExtReal(5)),
                 "image", id="image-property-outside"),
    pytest.param("gp-naturality", laws, "phi", lambda P: (lambda m: ExtReal(5)),
                 "g", id="gp-naturality-constant"),
    pytest.param("recovery", laws, "phi", lambda P: (lambda m: ExtReal(7)),
                 "error", id="recovery-no-point"),
    pytest.param("recovery", laws, "check_evaluation_point_recovery",
                 lambda J, carrier, maps: dirac("planted"),
                 "got", id="recovery-wrong-point"),
    pytest.param("sigma-agreement", laws, "mixture",
                 lambda omega, measures, base: dirac(base.carrier[0], base=base),
                 "mixture_mass", id="sigma-agreement-collapsed"),
]


class TestPlantedFaults:
    @pytest.mark.parametrize("suite, module, name, fault, key", PLANTED_FAULTS)
    def test_suite_fails_with_a_seeded_witness(self, suite, module, name, fault,
                                               key, monkeypatch):
        monkeypatch.setattr(module, name, fault)
        (report,) = run_suites(HarnessConfig(cases=3), name_filter=lambda n: n == suite)
        assert not report.ok and report.cases == 3
        assert all(w["seed"] in report.seeds for w in report.failures)
        (payload,) = json.loads(cli._reports_payload([report]))
        assert payload["pass"] is False
        assert payload["counterexample"]["seed"] == report.failures[0]["seed"]
        assert key in payload["counterexample"]

    def test_a_planted_fault_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(laws, "monad_mu", lambda Q: dirac("planted"))
        assert cli.main(["laws", "--suite", "monad-laws", "--cases", "3"]) == 1
        assert "[FAIL] monad-laws" in capsys.readouterr().out


# the default suites whose verdicts compare members of G(X)
OVER_GIRY = sorted([f"{axiom}-giry{n}" for axiom in ("axiom1", "axiom2") for n in (2, 3, 4)]
                   + ["triangle", "phi-roundtrip", "monad-laws", "recovery"])


def test_every_suite_over_giry_compares_by_its_eq(monkeypatch):
    # an eq that never holds fails every suite over G(X), and only those:
    # none of them decides by a second rule of its own
    monkeypatch.setattr(GirySpace, "eq", lambda self, P, Q: False)
    reports = run_suites(HarnessConfig(cases=3))
    assert [r.law for r in reports if not r.ok] == OVER_GIRY


def test_a_crash_of_phi_inverse_is_not_a_kill_of_the_mutant(monkeypatch):
    # only NotAMeasure rejects the nonadditive functional; any other
    # exception is a fault of the checker and must reach the caller
    def crash(J, X):
        raise TypeError("planted")

    monkeypatch.setattr(laws, "phi_inverse", crash)
    run = build_suites(HarnessConfig(cases=3), include_mutants=True)["mutant-phi-nonadditive"]
    with pytest.raises(TypeError, match="planted"):
        run()


def _violate(space, rng):
    raise CarrierViolation(f"{space.name}: planted")


def _pid_witness(space, rng):
    """A checker whose one case fails with the id of the process it ran in."""
    return {"pid": os.getpid()}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool forks")
class TestWorkerPool:
    def test_forked_reports_equal_in_process_reports(self):
        cfg = HarnessConfig(cases=20, seed=5)
        serial = run_suites(cfg, include_mutants=True)
        forked = run_suites(cfg, include_mutants=True, jobs=2)
        assert [r.law for r in forked] == [r.law for r in serial]
        assert [r.to_json_obj() for r in forked] == [r.to_json_obj() for r in serial]
        assert all(r.wall_time > 0 for r in forked)

    def test_suites_run_in_workers(self, monkeypatch):
        monkeypatch.setattr(laws, "check_axiom1", _pid_witness)
        reports = run_suites(HarnessConfig(cases=1), jobs=2,
                             name_filter=lambda n: n.startswith("axiom1-"))
        pids = {r.failures[0]["pid"] for r in reports}
        assert len(reports) == 7 and os.getpid() not in pids

    def test_one_matching_suite_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(laws, "check_axiom1", _pid_witness)
        (report,) = run_suites(HarnessConfig(cases=1), jobs=4,
                               name_filter=lambda n: n == "axiom1-giry2")
        assert report.failures[0]["pid"] == os.getpid()

    def test_a_worker_exception_reraises_in_the_parent(self, monkeypatch):
        def violate(space, rng):
            raise CarrierViolation(f"{space.name}: planted")

        monkeypatch.setattr(laws, "check_axiom1", violate)
        with pytest.raises(CarrierViolation, match="planted"):
            run_suites(HarnessConfig(cases=2), jobs=2,
                       name_filter=lambda n: n.startswith("axiom1-"))

    @pytest.mark.parametrize("fault, raised", [
        (None, None),
        (_violate, CarrierViolation),
        (lambda space, rng: os._exit(1), laws.WorkerDied),
    ])
    def test_every_worker_is_reaped(self, monkeypatch, fault, raised):
        if fault is not None:
            monkeypatch.setattr(laws, "check_axiom1", fault)
        run = partial(run_suites, HarnessConfig(cases=2), jobs=2,
                      name_filter=lambda n: n.startswith("axiom1-"))
        if raised is None:
            assert len(run()) == 7
        else:
            with pytest.raises(raised):
                run()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pool_size(self):
        assert laws.pool_size(1, 28) == 1
        assert laws.pool_size(4, 1) == 1
        assert laws.pool_size(4, 0) == 1
        assert laws.pool_size(4, 3) == 3
        assert laws.pool_size(2, 28) == 2


class TestOrderAndAveraging:
    def test_measure_backed_functional_preserves_order(self, closed, ext):
        P = ProbMeasure([(ExtReal(F(1, 4)), F(1, 2)), (ExtReal(F(3, 4)), F(1, 2))])
        J = phi(P)
        f = affine_map(closed, ext, 0, F(1, 2))
        g = affine_map(closed, ext, F(1, 4), F(1, 2))
        lo, hi = J(f), J(g)
        assert not lo.is_inf and not hi.is_inf and lo.value < hi.value

    def test_constant_maps_are_averaged_to_their_value(self, closed, ext):
        for backing in (evaluation(ExtReal(F(1, 3))),
                        phi(uniform([ExtReal(0), ExtReal(1)]))):
            c = constant_map(closed, ext, F(5, 9))
            assert backing(c) == ExtReal(F(5, 9))

    def test_positive_scalar_homogeneity_of_integration(self):
        from girycheck.numerics import scale
        P = ProbMeasure([(ExtReal(F(1, 3)), F(1, 2)), (ExtReal(F(2, 3)), F(1, 2))])
        m = lambda x: x
        s = F(5, 2)
        lhs = integrate(P, lambda x: scale(s, x))
        rhs = scale(s, integrate(P, m))
        assert lhs == rhs
