import ast
import itertools
import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.giry import (
    GirySpace,
    NotAMeasure,
    ProbMeasure,
    barycenter,
    dirac,
    evaluation,
    integrate,
    mixture,
    monad_mu,
    phi,
    phi_inverse,
    pushforward,
)
from girycheck.meas import FiniteMeasurableSpace, indicator
from girycheck.numerics import (
    INF,
    Enclosure,
    ExtReal,
    LazyPartition,
    PartitionOfOne,
    UnsupportedRepresentation,
    as_ext,
    compose_partitions,
    countable_combine,
    draw_int,
    map_terms,
    random_partition,
)
from girycheck.reports import run_per_seed
from girycheck.scvx import (
    CarrierViolation,
    IntervalSpace,
    ProductSpace,
    affine_map,
    check_axiom1,
    check_axiom2,
)

F = Fraction
SEEDS = list(range(40))


@pytest.fixture
def X():
    return FiniteMeasurableSpace.powerset(["a", "b", "c", "d"])


@pytest.fixture
def closed():
    return IntervalSpace("closed_unit")


def uniform(atoms, base=None):
    n = len(atoms)
    return ProbMeasure([(a, F(1, n)) for a in atoms], base=base)


class TestProbMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(NotAMeasure):
            ProbMeasure([("a", F(1, 2)), ("b", F(1, 4))])

    def test_negative_weight_rejected(self):
        with pytest.raises(NotAMeasure):
            ProbMeasure([("a", F(3, 2)), ("b", F(-1, 2))])

    @pytest.mark.parametrize("support, den, message", [
        ([("a", F(3, 2)), ("b", F(-1, 2))], 1, "negative weight -1/2"),
        ([("a", F(1, 3)), ("b", F(-2, 6))], 1, "negative weight -1/3"),
        ([("a", 3), ("b", -1)], 4, "negative weight -1/4"),
        ([("a", F(1, 2)), ("b", F(1, 4))], 1, "weights must sum to 1"),
        ([("a", 1), ("a", 1)], 3, "weights must sum to 1"),
        ([], 1, "weights must sum to 1"),
    ])
    def test_rejection_messages(self, support, den, message):
        with pytest.raises(NotAMeasure) as info:
            ProbMeasure(support, den=den)
        assert str(info.value) == message

    def test_a_float_weight_is_a_type_error(self):
        with pytest.raises(TypeError, match="weight 0.5 is not an int"):
            ProbMeasure([("a", 0.5), ("b", 0.5)])

    @pytest.mark.parametrize("support, atom, weight", [
        ([("a", "1/2"), ("b", "1/2")], "'a'", "'1/2'"),
        ([("a", F(1, 2)), ("b", None)], "'b'", "None"),
        ([("b", F(1, 2)), ("a", 0.5)], "'a'", "0.5"),
        ([("a", -0.5), ("b", F(3, 2))], "'a'", "-0.5"),
    ], ids=["str", "none", "float", "negative-float"])
    def test_a_weight_of_the_wrong_type_names_its_atom(self, support, atom, weight):
        with pytest.raises(TypeError) as info:
            ProbMeasure(support)
        assert atom in str(info.value) and weight in str(info.value)

    def test_negative_entry_rejected_before_merging(self):
        # merged, "a" would weigh 1/2 and the measure would be valid
        with pytest.raises(NotAMeasure, match="negative weight -1/2"):
            ProbMeasure([("a", F(1)), ("a", F(-1, 2)), ("b", F(1, 2))])

    def test_weights_over_den(self):
        P = ProbMeasure([("b", 2), ("a", 1), ("b", 3)], den=6)
        assert (P.points, P.vec, P.den) == (("a", "b"), (1, 5), 6)
        assert P == ProbMeasure([("a", F(1, 6)), ("b", F(5, 6))])
        assert P.to_json_obj() == {"atoms": [{"atom": "'a'", "weight": "1/6"},
                                             {"atom": "'b'", "weight": "5/6"}]}
        assert (P.weights.parts, P.weights.den) == ({1: 1, 2: 5}, 6)
        with pytest.raises(ValueError, match="den must be a positive integer"):
            ProbMeasure([("a", 0)], den=0)

    def test_collisions_merge_exactly(self):
        P = ProbMeasure([("a", F(1, 3)), ("a", F(1, 3)), ("b", F(1, 3))])
        assert (P.points, P.vec, P.den) == (("a", "b"), (2, 1), 3)
        assert P.to_json_obj() == {"atoms": [{"atom": "'a'", "weight": "2/3"},
                                             {"atom": "'b'", "weight": "1/3"}]}

    def test_measure_of_regions(self, X):
        P = uniform(["a", "b"], base=X)
        assert P.measure_of(X.mask_of(["a"])) == F(1, 2)
        assert P.measure_of(X.mask_of(["a", "b", "c"])) == 1
        assert P.measure_of(X.mask_of(["b"])) == F(1, 2)
        assert P.measure_of(0) == 0

    def test_measure_of_takes_only_a_mask_of_the_base(self, X):
        # a list of labels is not a region, and a measure without a base
        # has no masks; both name the way to build one
        labels = ["a"]
        with pytest.raises(TypeError, match=r"base\.mask_of\(labels\)"):
            uniform(["a", "b"], base=X).measure_of(labels)
        with pytest.raises(TypeError, match=r"base\.mask_of\(labels\)"):
            uniform(["a", "b"]).measure_of(0b1)


class TestDirac:
    def test_point_mass_values(self, X):
        P = dirac("a", base=X)
        assert P.measure_of(X.mask_of(["a", "b"])) == 1
        assert P.measure_of(X.mask_of(["b"])) == 0

    def test_integrate_against_dirac_is_evaluation(self, X):
        P = dirac("b", base=X)
        f = lambda x: F(7) if x == "b" else F(0)
        assert integrate(P, f) == ExtReal(7)


class TestMixture:
    def test_single_component_is_identity(self):
        P = uniform(["a", "b"])
        assert mixture(PartitionOfOne.finite([F(1)]), [P]) == P

    def test_even_mixture_of_diracs_is_uniform(self):
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        got = mixture(half, [dirac("x"), dirac("y")])
        assert got == uniform(["x", "y"])

    def test_geometric_mixture_of_diracs_is_rejected(self):
        # a countable mixture is not a finite measure; the countable
        # combination of the points is the space's combine (TestBarycenter)
        geo = LazyPartition.geometric()
        with pytest.raises(UnsupportedRepresentation, match="finite partition"):
            mixture(geo, lambda i: dirac(F(1, i + 1)))

    def test_base_mismatch(self):
        X1 = FiniteMeasurableSpace.powerset(["a"])
        X2 = FiniteMeasurableSpace.powerset(["b"])
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        with pytest.raises(CarrierViolation):
            mixture(half, [dirac("a", base=X1), dirac("b", base=X2)])

    def test_equal_bases_built_apart_are_one_base(self):
        X1 = FiniteMeasurableSpace.powerset(["x1", "x2"])
        X2 = FiniteMeasurableSpace.powerset(["x1", "x2"])
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        got = mixture(half, [dirac("x1", base=X1), dirac("x2", base=X2)])
        assert got == uniform(["x1", "x2"]) and got.base is X1
        Q = ProbMeasure([(dirac("x1", base=X1), F(1, 2)),
                         (dirac("x2", base=X2), F(1, 2))])
        assert monad_mu(Q) == got

    def test_lazy_mixture_of_nondiracs_rejected(self):
        geo = LazyPartition.geometric()
        with pytest.raises(UnsupportedRepresentation):
            mixture(geo, lambda i: uniform(["a", "b"]))

    def test_giry_space_refuses_a_lazy_partition(self):
        # G(X) takes no countable mixture it cannot represent: combine
        # raises instead of returning a value outside G(X)
        X = FiniteMeasurableSpace.powerset(["a", "b"])
        geo = LazyPartition.geometric()
        with pytest.raises(UnsupportedRepresentation):
            GirySpace(X).combine(geo, lambda i: dirac("ab"[i % 2], base=X))


class TestPushforward:
    def test_dirac_pushes_to_dirac(self):
        assert pushforward(dirac("a"), lambda x: x.upper()) == dirac("A")

    def test_constant_map_collapses_everything(self):
        P = uniform(["a", "b", "c"])
        assert pushforward(P, lambda x: "c") == dirac("c")

    def test_parity_collapse_matches_preimage_sums(self):
        P = uniform([0, 1, 2, 3])
        got = pushforward(P, lambda x: x % 2)
        # oracle: sum the weights over each parity preimage directly
        evens = sum(F(p, P.den) for a, p in zip(P.points, P.vec) if a % 2 == 0)
        odds = sum(F(p, P.den) for a, p in zip(P.points, P.vec) if a % 2 == 1)
        assert got == ProbMeasure([(0, evens), (1, odds)])


class TestIntegrate:
    def test_uniform_identity(self):
        P = uniform([F(0), F(1)])
        assert integrate(P, lambda x: x) == ExtReal(F(1, 2))

    def test_indicator_recovers_measure(self, X):
        P = ProbMeasure([("a", F(1, 6)), ("b", F(1, 3)), ("c", F(1, 2))], base=X)
        u = X.mask_of(["a", "c"])
        assert integrate(P, indicator(X, u)) == ExtReal(F(2, 3))

    def test_divergent_lazy_integral(self):
        # the integral of i 2^i against the geometric weights 2^-i
        geo = LazyPartition.geometric()
        assert countable_combine(geo, lambda i: ExtReal(i * 4**i), n_max=100) == INF


class TestBarycenter:
    def test_uniform_on_unit_interval(self, closed):
        P = uniform([ExtReal(0), ExtReal(1)])
        got = barycenter(closed, P)
        assert got == ExtReal(F(1, 2))

    def test_dirac_on_measures_recovers_measure(self, X):
        Q = uniform(["a", "b"], base=X)
        got = barycenter(GirySpace(X), dirac(Q))
        assert got == Q

    def test_open_interval_geometric(self):
        # the barycenter of the geometric mixture of the points 1/(i+1)
        open_unit = IntervalSpace("open_unit")
        geo = LazyPartition.geometric()
        got = open_unit.combine(geo, lambda i: F(1, i + 1), n_max=50, bound=1)
        assert open_unit.contains(got)
        target = F(3862943, 10**7)
        assert got.enclosure.lower >= target - F(1, 10**6)
        assert got.enclosure.upper <= target + F(1, 10**6)

    def test_product_of_geometric_mixture_of_diracs(self, closed):
        prod = ProductSpace([closed, closed])
        geo = LazyPartition.geometric()
        point = lambda i: (ExtReal(F(1, i + 1)), ExtReal(F(1, 2)))
        got = prod.combine(geo, point, n_max=30, bound=1)
        for k in (0, 1):
            want = closed.combine(geo, lambda i: point(i)[k], n_max=30, bound=1)
            assert got[k].value == want.value
            assert got[k].enclosure.lower == want.enclosure.lower
            assert got[k].enclosure.upper == want.enclosure.upper

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["closed_unit", "open_unit"]), st.data())
    def test_ev_consistency_for_affine_family(self, kind, data):
        # the defining property of the barycenter: an affine map of it is
        # the integral of the map
        A = IntervalSpace(kind)
        low, high = (0, 1) if kind == "closed_unit" else (F(1, 64), F(63, 64))
        points = data.draw(st.lists(st.fractions(low, high, max_denominator=64),
                                    min_size=1, max_size=6))
        weights = data.draw(st.lists(st.integers(1, 50), min_size=len(points),
                                     max_size=len(points)))
        P = ProbMeasure(zip(map(ExtReal, points), weights), den=sum(weights))
        slope = data.draw(st.fractions(0, 1, max_denominator=16))
        offset = data.draw(st.fractions(0, 1 - slope, max_denominator=16))
        m = affine_map(A, A, offset, slope)
        assert m(barycenter(A, P)) == integrate(P, m)


class TestMonadMu:
    def test_unit_law(self, X):
        P = uniform(["a", "b", "c"], base=X)
        assert monad_mu(dirac(P)) == P

    def test_flatten_diracs(self):
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        Q = mixture(half, [dirac(dirac("x")), dirac(dirac("y"))])
        assert monad_mu(Q) == uniform(["x", "y"])

    def test_weighted_flatten_oracle(self):
        # mu(1/2 d_{uniform{a,b}} + 1/2 d_{d_a}) = 3/4 d_a + 1/4 d_b
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        Q = mixture(half, [dirac(uniform(["a", "b"])), dirac(dirac("a"))])
        assert monad_mu(Q) == ProbMeasure([("a", F(3, 4)), ("b", F(1, 4))])

    def test_atoms_must_be_measures(self):
        with pytest.raises(CarrierViolation):
            monad_mu(uniform(["a", "b"]))

    def test_atom_measures_on_different_bases_are_rejected(self):
        Q = uniform([dirac("a", base=FiniteMeasurableSpace.powerset(["a"])),
                     dirac("b", base=FiniteMeasurableSpace.powerset(["b"]))])
        with pytest.raises(CarrierViolation):
            monad_mu(Q)


class TestGirySpace:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_axioms_hold(self, n):
        X = FiniteMeasurableSpace.powerset([f"x{i}" for i in range(n)])
        GX = GirySpace(X)
        assert run_per_seed("axiom1", GX.name, SEEDS, partial(check_axiom1, GX)).ok
        assert run_per_seed("axiom2", GX.name, SEEDS, partial(check_axiom2, GX)).ok

    def test_membership(self, X):
        # a member of G(X) is a measure on X: the same atoms without a base
        # are not one
        GX = GirySpace(X)
        assert GX.contains(ProbMeasure([("a", 1), ("b", 1)], base=X, den=2))
        assert not GX.contains(uniform(["a", "b"]))
        assert not GX.contains(uniform(["z"]))
        assert not GX.contains("a")

    def test_samples_are_members(self, X):
        GX = GirySpace(X)
        rng = random.Random(3)
        for _ in range(30):
            assert GX.contains(GX.sample(rng))


class TestPhi:
    def test_phi_on_indicators_is_the_measure(self, X):
        P = ProbMeasure([("a", F(1, 4)), ("b", F(3, 4))], base=X)
        J = phi(P)
        u = X.mask_of(["a"])
        assert J(indicator(X, u)) == ExtReal(F(1, 4))
        assert J(indicator(X, X.full_mask)) == ExtReal(1)
        assert J(indicator(X, 0)) == ExtReal(0)

    def test_phi_of_dirac_is_membership(self, X):
        J = phi(dirac("a", base=X))
        u = X.mask_of(["a", "c"])
        v = X.mask_of(["b"])
        assert J(indicator(X, u)) == ExtReal(1)
        assert J(indicator(X, v)) == ExtReal(0)

    def test_roundtrip_exact(self, X):
        P = ProbMeasure(
            [("a", F(1, 7)), ("b", F(2, 7)), ("d", F(4, 7))], base=X
        )
        assert phi_inverse(phi(P), X) == P

    def test_point_backed_functional_recovers_dirac(self, X):
        J = evaluation("c")
        # evaluation at a point applies the map directly
        got = phi_inverse(phi(dirac("c", base=X)), X)
        assert got == dirac("c", base=X)
        assert J(indicator(X, X.mask_of(["c"]))) == ExtReal(1)

    def test_every_functional_returns_an_ext_real_on_an_indicator(self, X):
        # phi_inverse reads the num and den of J(chi_U), and an indicator
        # takes the int values 0 and 1, so J must make them an ExtReal
        from girycheck.laws import nonadditive_functional
        chi = indicator(X, X.mask_of(["a", "c"]))
        assert {type(chi(x)) for x in X.carrier} == {int}
        P = ProbMeasure([("a", F(1, 4)), ("b", F(3, 4))], base=X)
        functionals = {"phi": phi(P), "phi of a measure without a base": phi(dirac("a")),
                       "evaluation": evaluation("a"),
                       "nonadditive": nonadditive_functional(X),
                       "infinite": lambda m: INF}
        values = {name: J(chi) for name, J in functionals.items()}
        assert all(type(v) is ExtReal for v in values.values()), values
        assert values == {"phi": F(1, 4), "phi of a measure without a base": 1,
                          "evaluation": 1, "nonadditive": F(1, 4), "infinite": INF}

    def test_nonadditive_functional_rejected(self, X):
        from girycheck.laws import nonadditive_functional
        with pytest.raises(NotAMeasure):
            phi_inverse(nonadditive_functional(X), X)

    def test_unnormalized_functional_rejected(self, X):
        J = lambda m: ExtReal(F(1, 2))
        with pytest.raises(NotAMeasure, match="weakly averaging"):
            phi_inverse(J, X)

    @staticmethod
    def set_function(X, table):
        """A raw functional whose value on chi_U is table[frozenset(U)]."""
        def fn(m):
            return ExtReal(table[frozenset(x for x in X.carrier if m(x) == 1)])
        return fn

    def test_functional_additive_on_pairs_only_rejected(self):
        # additive on every pair of singletons, normalized, but the full
        # three-point set is not the sum of any split of it
        X = FiniteMeasurableSpace.powerset(["a", "b", "c"])
        table = {frozenset(s): F(len(s), 4) for n in range(3)
                 for s in itertools.combinations("abc", n)}
        table[frozenset("abc")] = F(1)
        with pytest.raises(NotAMeasure) as exc:
            phi_inverse(self.set_function(X, table), X)
        left, right = (
            frozenset(ast.literal_eval(s)) for s in
            re.fullmatch(r"additivity fails on (\[.*\]) and (\[.*\])",
                         str(exc.value)).groups()
        )
        assert left and right and not left & right
        assert table[left | right] != table[left] + table[right]

    def test_functional_outside_unit_interval_rejected(self):
        # normalized and additive, but a set gets weight 3/2
        X = FiniteMeasurableSpace.powerset(["a", "b"])
        table = {frozenset(): F(0), frozenset("a"): F(3, 2),
                 frozenset("b"): F(-1, 2), frozenset("ab"): F(1)}
        with pytest.raises(NotAMeasure, match=r"outside \[0,1\]"):
            phi_inverse(self.set_function(X, table), X)

    def test_coarse_sigma_roundtrip_agrees_on_measurable_sets(self):
        from girycheck.meas import generate_sigma_algebra
        X = generate_sigma_algebra(["a", "b", "c"], [["a"]])
        P = ProbMeasure([("a", F(1, 3)), ("b", F(2, 3))], base=X)
        back = phi_inverse(phi(P), X)
        for u in X.sigma:
            assert back.measure_of(u) == P.measure_of(u)


# The Fraction loop phi_inverse ran before it checked integer numerators
# over one common denominator: the same checks in the same order, with the
# same messages.


def ref_phi_inverse(J, X):
    values = {}
    for u in sorted(X.sigma):
        v = J(indicator(X, u))
        if v.is_inf:
            raise NotAMeasure(f"J(chi_U) infinite on U={X.set_of(u)}")
        values[u] = v.value
    if values[0] != 0:
        raise NotAMeasure("J(chi_empty) != 0: not weakly averaging")
    if values[X.full_mask] != 1:
        raise NotAMeasure("J(chi_X) != 1: not weakly averaging")
    atoms = X.atoms_of_sigma()
    first_atom = {a & -a: a for a in atoms}
    for u, vu in values.items():
        if not 0 <= vu <= 1:
            raise NotAMeasure(f"J(chi_U)={vu} outside [0,1]")
        a = first_atom.get(u & -u, u)
        if a != u and vu != values[a] + values[u & ~a]:
            raise NotAMeasure(
                f"additivity fails on {X.set_of(a)} and {X.set_of(u & ~a)}"
            )
    support = [(X.set_of(a)[0], values[a]) for a in atoms if values[a] != 0]
    return ProbMeasure(support, base=X)


SET_VALUES = st.fractions(F(-1, 2), F(3, 2), max_denominator=12)


@st.composite
def set_function_tables(draw):
    """A powerset of 1-4 points and a value for each of its sets: random
    Fractions, the masses of a random measure with one set's value made
    infinite, or with one set's value perturbed."""
    n = draw(st.integers(1, 4))
    X = FiniteMeasurableSpace.powerset([f"x{i}" for i in range(n)])
    sets = sorted(X.sigma)
    kind = draw(st.sampled_from(["fractions", "inf", "perturbed"]))
    if kind == "fractions":
        table = {u: draw(SET_VALUES) for u in sets}
        if draw(st.booleans()):  # normalized, to reach the later checks
            table[0], table[X.full_mask] = F(0), F(1)
        return X, table
    parts = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
    table = {u: F(sum(p for i, p in enumerate(parts) if u >> i & 1), sum(parts))
             for u in sets}
    u = draw(st.sampled_from(sets))
    delta = draw(st.just(F(0)) | SET_VALUES.map(lambda v: v - F(1, 2)))
    table[u] = INF if kind == "inf" else table[u] + delta
    return X, table


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(set_function_tables())
def test_phi_inverse_matches_fraction_reference(case):
    X, table = case
    J = lambda m: as_ext(table[X.mask_of([x for x in X.carrier if m(x) == 1])])
    got, expected = outcome(phi_inverse, J, X), outcome(ref_phi_inverse, J, X)
    assert got == expected and repr(got) == repr(expected)


# Plain-Fraction reference for mixture weights: omega_i times each
# component weight, merged per atom.


def ref_parts(support):
    """The atoms, integer parts and reduced den of ``(atom, Fraction)``
    pairs that sum to one: the den is the lcm of the denominators."""
    den = math.lcm(*(w.denominator for _, w in support))
    return tuple(a for a, _ in support), tuple(int(w * den) for _, w in support), den


def ref_mixture_support(omega, components):
    merged = {}
    for w_i, comp in zip(omega, components):
        for a, w in comp:
            merged[a] = merged.get(a, F(0)) + w_i * w
    return tuple(sorted(((a, w) for a, w in merged.items() if w != 0),
                        key=lambda kv: repr(kv[0])))


def weight_lists(max_size):
    ratios = st.lists(st.tuples(st.integers(0, 9), st.integers(1, 9)),
                      min_size=1, max_size=max_size)
    ratios = ratios.filter(lambda rs: any(a for a, _ in rs))
    def normalize(rs):
        ws = [F(a, b) for a, b in rs]
        return [w / sum(ws) for w in ws]
    return ratios.map(normalize)


def components():
    return weight_lists(4).flatmap(lambda ws: st.lists(
        st.sampled_from("abcde"), min_size=len(ws), max_size=len(ws)
    ).map(lambda atoms: list(zip(atoms, ws))))


@settings(max_examples=80, deadline=None)
@given(weight_lists(4).flatmap(lambda omega: st.tuples(
    st.just(omega), st.lists(components(), min_size=len(omega), max_size=len(omega)))))
def test_mixture_weights_match_fraction_reference(case):
    omega, comps = case
    got = mixture(PartitionOfOne.finite(omega), [ProbMeasure(c) for c in comps])
    assert (got.points, got.vec, got.den) == ref_parts(ref_mixture_support(omega, comps))
    assert got == ProbMeasure(ref_mixture_support(omega, comps))


# Plain-Fraction reference for a measure: per-atom sums of the weights,
# zero masses dropped, atoms sorted by repr.


def ref_support(pairs):
    merged = {}
    for a, w in pairs:
        merged[a] = merged.get(a, F(0)) + w
    return tuple(sorted(((a, w) for a, w in merged.items() if w != 0),
                        key=lambda kv: repr(kv[0])))


ATOMS = ["a", "b", "c", 1, 2]


def atom_weight_lists():
    """(atom, weight) lists summing to one, with colliding atoms and zero
    weights."""
    entries = st.lists(st.tuples(st.sampled_from(ATOMS), st.integers(0, 9),
                                 st.integers(1, 9)), min_size=1, max_size=8)
    entries = entries.filter(lambda es: any(p for _, p, _ in es))
    def normalize(es):
        ws = [F(p, q) for _, p, q in es]
        return [(a, w / sum(ws)) for (a, _, _), w in zip(es, ws)]
    return entries.map(normalize)


@settings(max_examples=150, deadline=None)
@given(atom_weight_lists().flatmap(
    lambda pairs: st.tuples(st.just(pairs), st.permutations(pairs))))
def test_measure_matches_fraction_reference(case):
    pairs, shuffled = case
    X = FiniteMeasurableSpace.powerset(ATOMS)
    P = ProbMeasure(pairs, base=X)
    ref = ref_support(pairs)
    atoms, parts, den = ref_parts(ref)
    assert P.den == den and P.vec == tuple(dict(zip(atoms, parts)).get(x, 0) for x in ATOMS)
    assert [e["atom"] for e in P.to_json_obj()["atoms"]] == [repr(a) for a, _ in ref]
    drawn = sorted({a for a, _ in pairs}, key=repr)
    for k in range(len(drawn) + 1):
        for subset in itertools.combinations(drawn, k):
            expected = sum((w for a, w in ref if a in subset), F(0))
            assert P.measure_of(X.mask_of(subset)) == expected
    Q = ProbMeasure(shuffled, base=X)
    assert Q == P and hash(Q) == hash(P)


@settings(max_examples=100, deadline=None)
@given(atom_weight_lists(), st.data())
def test_canceling_negative_entry_rejected(pairs, data):
    # split one positive entry (a, w) into (a, w + d) and (a, -d): the
    # merged weights are unchanged, yet the list has a negative weight
    k = data.draw(st.sampled_from([i for i, (_, w) in enumerate(pairs) if w > 0]))
    d = F(data.draw(st.integers(1, 20)), data.draw(st.integers(1, 9)))
    a, w = pairs[k]
    split = pairs[:k] + [(a, w + d), (a, -d)] + pairs[k + 1:]
    with pytest.raises(NotAMeasure, match="negative weight"):
        ProbMeasure(data.draw(st.permutations(split)))


# A sequence of terms may come as a 1-indexed list or as a callable on
# indices; the two forms of the same terms must give the same result.


def interior_values(size):
    return st.lists(st.builds(F, st.integers(1, 29), st.just(30)),
                    min_size=size, max_size=size)


@settings(max_examples=60, deadline=None)
@given(weight_lists(4).flatmap(lambda omega: st.tuples(
    st.just(omega),
    interior_values(len(omega)),
    interior_values(len(omega)),
    st.lists(weight_lists(4), min_size=len(omega), max_size=len(omega)),
    st.lists(components(), min_size=len(omega), max_size=len(omega)))))
def test_list_and_callable_terms_agree(case):
    weights, xs, ys, beta_weights, comps = case
    omega = PartitionOfOne.finite(weights)
    as_callable = lambda seq: (lambda i: seq[i - 1])
    values = [ExtReal(x) for x in xs]
    assert countable_combine(omega, values) == countable_combine(omega, as_callable(values))
    betas = [PartitionOfOne.finite(b) for b in beta_weights]
    assert compose_partitions(omega, betas) == compose_partitions(omega, as_callable(betas))
    measures = [ProbMeasure(c) for c in comps]
    assert mixture(omega, measures) == mixture(omega, as_callable(measures))
    closed = IntervalSpace("closed_unit")
    prod = ProductSpace([closed, closed])
    points = [(ExtReal(x), ExtReal(y)) for x, y in zip(xs, ys)]
    assert prod.combine(omega, points) == prod.combine(omega, as_callable(points))


@settings(max_examples=100, deadline=None)
@given(atom_weight_lists(), atom_weight_lists())
def test_a_cached_repr_is_a_fresh_repr(pairs, other):
    # the repr is made once, so it must be the one the measure would print
    def fresh(P):
        inner = " + ".join(f"{F(p, P.den)}*d[{a!r}]" for a, p in zip(P.points, P.vec))
        return f"ProbMeasure({inner})"

    P, Q = ProbMeasure(pairs), ProbMeasure(other)
    nested = ProbMeasure([(P, F(1, 3)), (Q, F(2, 3))])
    for M in (P, Q, nested):
        assert repr(M) == fresh(M) and repr(M) is repr(M)
    assert repr(nested) == fresh(ProbMeasure([(ProbMeasure(pairs), F(1, 3)),
                                              (ProbMeasure(other), F(2, 3))]))


# A measure on a base is an integer vector over the carrier.  The reference
# keeps a dict of Fractions per measure; labels x1..x12 in a shuffled
# carrier make the repr order of the atoms differ from carrier order
# ('x10' sorts before 'x2').


def ref_of(pairs, den):
    merged = {}
    for a, w in pairs:
        merged[a] = merged.get(a, F(0)) + F(w) / den
    return {a: w for a, w in merged.items() if w}


def ref_mix(weights, refs):
    mixed = {}
    for w, ref in zip(weights, refs):
        for a, m in ref.items():
            mixed[a] = mixed.get(a, F(0)) + w * m
    return {a: m for a, m in mixed.items() if m}


def ref_listing(ref):
    """den, to_json_obj and repr, as the measure must give them."""
    support = tuple((a, ref[a]) for a in sorted(ref, key=repr))
    _, _, den = ref_parts(support)
    inner = " + ".join(f"{w}*d[{a!r}]" for a, w in support)
    return (den,
            {"atoms": [{"atom": repr(a), "weight": str(w)} for a, w in support]},
            f"ProbMeasure({inner})")


def listing(P):
    return P.den, P.to_json_obj(), repr(P)


@st.composite
def shuffled_bases(draw, max_points=12):
    n = draw(st.integers(1, max_points))
    return FiniteMeasurableSpace.powerset(
        draw(st.permutations([f"x{i}" for i in range(1, n + 1)])))


@st.composite
def weighted_pairs(draw, X):
    """(pairs, den) summing to one over labels of X: int weights, zero
    weights, and atoms split into colliding Fraction weights."""
    raw = draw(st.lists(st.tuples(st.sampled_from(X.carrier), st.integers(0, 9)),
                        min_size=1, max_size=10).filter(lambda es: any(p for _, p in es)))
    scale = draw(st.integers(1, 3))
    pairs = []
    for a, p in raw:
        q = draw(st.integers(1, 4))
        if q == 1:
            pairs.append((a, p * scale))
        else:  # a Fraction part and its complement, either may be zero
            r = draw(st.integers(0, q))
            pairs += [(a, F(p * scale * r, q)), (a, F(p * scale * (q - r), q))]
    return draw(st.permutations(pairs)), scale * sum(p for _, p in raw)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vector_measure_matches_fraction_reference(data):
    X = data.draw(shuffled_bases())
    pairs, den = data.draw(weighted_pairs(X))
    ref = ref_of(pairs, den)
    P = ProbMeasure(pairs, base=X, den=den)
    assert listing(P) == ref_listing(ref)
    # the same atoms without a base, or on an equal base built apart
    twin = FiniteMeasurableSpace.powerset(X.carrier)
    for Q in (ProbMeasure(pairs, den=den), ProbMeasure(pairs[::-1], base=twin, den=den)):
        assert P == Q and Q == P and hash(P) == hash(Q) and listing(Q) == listing(P)
    mask = data.draw(st.integers(0, X.full_mask))
    assert P.measure_of(mask) == sum(
        (w for a, w in ref.items() if X.mask_of([a]) & mask), F(0))
    assert integrate(P, indicator(X, mask)) == P.measure_of(mask)
    other = data.draw(weighted_pairs(X))
    assert (P == ProbMeasure(other[0], base=X, den=other[1])) == (ref == ref_of(*other))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_vector_mixture_and_flatten_match_fraction_reference(data):
    X = data.draw(shuffled_bases())
    comps = data.draw(st.lists(weighted_pairs(X), min_size=1, max_size=4))
    omega = data.draw(weight_lists(len(comps)).filter(lambda ws: len(ws) == len(comps)))
    refs = [ref_of(*c) for c in comps]
    expected = ref_listing(ref_mix(omega, refs))
    based = [ProbMeasure(pairs, base=X, den=den) for pairs, den in comps]
    got = mixture(PartitionOfOne.finite(omega), based)
    assert got.base is X and listing(got) == expected
    # components without a base mix to the equal measure without a base;
    # one without a base beside one on X is refused, unless its weight is
    # zero and it is not read
    unbased = [ProbMeasure(pairs, den=den) for pairs, den in comps]
    got_unbased = mixture(PartitionOfOne.finite(omega), unbased)
    assert got_unbased.base is None and listing(got_unbased) == expected and got_unbased == got
    mixed = [data.draw(st.sampled_from(pair)) for pair in zip(based, unbased)]
    read = {m.base for w, m in zip(omega, mixed) if w}
    got_mixed = outcome(mixture, PartitionOfOne.finite(omega), mixed)
    if len(read) > 1:
        assert got_mixed == (CarrierViolation, "mixture components live on different bases")
    else:
        assert got_mixed.base is read.pop() and got_mixed == got
    Q = ProbMeasure(zip(based, omega))
    assert listing(monad_mu(Q)) == expected and monad_mu(Q) == got


def test_vector_measure_messages_are_the_atom_list_messages():
    # a measure on a base rejects what a measure without one rejects, in
    # the same words
    X = FiniteMeasurableSpace.powerset(["x2", "x10", "x1"])
    cases = [
        ([("x2", 3), ("x10", -1)], 4, NotAMeasure, "negative weight -1/4"),
        ([("x2", F(1, 2)), ("x10", F(1, 4))], 1, NotAMeasure, "weights must sum to 1"),
        ([("x10", F(1, 2)), ("x2", 0.5)], 1, TypeError,
         "atom 'x2': weight 0.5 is not an int or a Fraction"),
        ([("x10", None), ("x2", 1)], 1, TypeError,
         "atom 'x10': weight None is not an int or a Fraction"),
    ]
    for pairs, den, error, message in cases:
        expected = (error, message)
        assert outcome(ProbMeasure, pairs, None, den) == expected
        assert outcome(ProbMeasure, pairs, X, den) == expected
    half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
    Y = FiniteMeasurableSpace.powerset(["x2", "x1", "x10"])
    assert outcome(mixture, half, [dirac("x1", base=X), dirac("x1", base=Y)]) == (
        CarrierViolation, "mixture components live on different bases")


def test_an_atom_outside_the_base_is_rejected():
    X = FiniteMeasurableSpace.powerset(["a", "b"])
    with pytest.raises(NotAMeasure, match="atom 'z' is not a point of the base"):
        ProbMeasure([("a", 1), ("z", 1)], base=X, den=2)
    with pytest.raises(NotAMeasure, match="'z'"):
        dirac("z", base=X)
    # an atom without a base is not a point of G(X), inside X's carrier or not
    half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
    for stranger in (dirac("z"), dirac("b")):
        with pytest.raises(CarrierViolation, match="different bases"):
            GirySpace(X).combine(half, [dirac("a", base=X), stranger])


def test_giry_space_contains_exactly_what_it_combines():
    # a measure on another carrier order, or without a base, is not a point
    # of G(X): combine rejects it, alone or beside a point of G(X)
    X = FiniteMeasurableSpace.powerset(["a", "b"])
    GX = GirySpace(X)
    one, half = PartitionOfOne.finite([1]), PartitionOfOne.finite([F(1, 2), F(1, 2)])
    members = [dirac("a", base=X), dirac("a", base=FiniteMeasurableSpace.powerset(["a", "b"]))]
    strangers = [dirac("a", base=FiniteMeasurableSpace.powerset(["b", "a"])),
                 dirac("a", base=FiniteMeasurableSpace.trivial(["a", "b"])),
                 uniform(["a", "b"]), dirac("z")]
    for Q in members:
        assert GX.contains(Q)
        assert GX.combine(one, [Q]) == Q and GX.combine(half, [Q, dirac("b", base=X)]).base is X
    for Q in strangers:
        assert not GX.contains(Q)
        for omega, seq in [(one, [Q]), (half, [Q, dirac("b", base=X)])]:
            with pytest.raises(CarrierViolation):
                GX.combine(omega, seq)
    assert not GX.contains("a")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_measure_is_points_and_weights(data):
    # a measure on a shuffled base of ExtReals and the same measure without
    # a base: each integrates as the countable combination of its weights
    # over f of its points, and the two have one barycenter
    n = data.draw(st.integers(1, 10))
    carrier = data.draw(st.permutations([ExtReal(F(k, n)) for k in range(n + 1)]))
    parts = data.draw(st.lists(st.integers(0, 9), min_size=n + 1, max_size=n + 1)
                      .filter(any))
    pairs = list(zip(carrier, parts))
    X = FiniteMeasurableSpace.powerset(carrier)
    based, unbased = ProbMeasure(pairs, base=X, den=sum(parts)), ProbMeasure(pairs, den=sum(parts))
    closed = IntervalSpace("closed_unit")
    slope = data.draw(st.fractions(0, 1, max_denominator=16))
    f = affine_map(closed, closed, data.draw(st.fractions(0, 1 - slope, max_denominator=16)),
                   slope)
    for P in (based, unbased):
        want = countable_combine(P.weights, map_terms(f, P.points))
        got = integrate(P, f)
        assert (got.num, got.den, repr(got)) == (want.num, want.den, repr(want))
    assert barycenter(closed, based) == barycenter(closed, unbased) == integrate(based, as_ext)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trusted_measure_builders_build_what_the_constructor_builds(data):
    # the same int parts through of_atoms and the constructor without a
    # base, and through on_base and the constructor on a base; colliding
    # atoms, zero parts and a common factor included
    X = data.draw(shuffled_bases())
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(X.carrier), st.integers(0, 9)),
                               min_size=1, max_size=10).filter(lambda es: any(p for _, p in es)))
    c = data.draw(st.integers(1, 4))
    pairs = [(a, c * p) for a, p in pairs]
    den = sum(p for _, p in pairs)
    vec = [0] * len(X.carrier)
    for a, p in pairs:
        vec[X.index[a]] += p
    for built, checked in [(ProbMeasure.of_atoms(pairs), ProbMeasure(pairs, den=den)),
                           (ProbMeasure.on_base(X, vec), ProbMeasure(pairs, base=X, den=den))]:
        assert built.base is checked.base
        assert (built.points, built.vec, built.den) == (checked.points, checked.vec, checked.den)
        assert hash(built) == hash(checked) and repr(built) == repr(checked)
        # the weights, built from the parts, are the checked partition
        weights = PartitionOfOne(dict(enumerate(checked.vec, start=1)), checked.den)
        assert (built.weights.parts, built.weights.den) == (weights.parts, weights.den)
        assert repr(built.weights) == repr(weights)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_trusted_builders_parts_sum_to_den(data):
    # den is the reduced sum of the parts a builder is given, so a wrong
    # den cannot be built; the pairs list each atom twice, to be merged
    X = data.draw(shuffled_bases())
    n = len(X.carrier)
    vec = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
    vec = [data.draw(st.integers(1, 4)) * p for p in vec]
    pairs = data.draw(st.permutations(list(zip(X.carrier, vec)) * 2))
    mass = {a: F(p, sum(vec)) for a, p in zip(X.carrier, vec) if p}
    for P in (ProbMeasure.on_base(X, vec), ProbMeasure.of_atoms(pairs)):
        assert P.den == sum(P.vec) == sum(vec) // math.gcd(*vec)
        assert {a: F(p, P.den) for a, p in zip(P.points, P.vec) if p} == mass
        assert (P.weights.den, sum(P.weights.parts.values())) == (P.den, P.den)


def old_giry_sample(X, rng):
    """GirySpace.sample as it drew a measure before measures on a base
    were vectors: sampled atoms and a random partition of one."""
    k = draw_int(rng, 1, len(X.carrier))
    atoms = rng.sample(X.carrier, k)
    part = random_partition(rng, k)
    return ProbMeasure(zip(atoms, part.parts.values()), base=X, den=part.den)


@settings(max_examples=60, deadline=None)
@given(shuffled_bases(max_points=21), st.integers(0, 2**32))
def test_giry_sample_draws_as_the_atom_list_sampler_drew(X, seed):
    # up to 21 points, the indices drawn are random.sample's
    GX = GirySpace(X)
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(5):
        P, Q = GX.sample(new), old_giry_sample(X, old)
        assert P == Q and listing(P) == listing(Q) and P.vec == Q.vec
    assert new.getstate() == old.getstate()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integrate_matches_fraction_reference(data):
    # a measure on a shuffled base, summed from its vector, and the same
    # atoms without a base, summed as a countable combination, against a
    # dict-of-Fraction sum over the drawn pairs
    X = data.draw(shuffled_bases(max_points=8))
    pairs, den = data.draw(weighted_pairs(X))
    q = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
    term = st.one_of(st.integers(-40, 40), q, q.map(ExtReal),
                     q.map(lambda v: ExtReal(v, Enclosure(v - 1, v + 1))),
                     st.just(INF))
    values = {x: data.draw(term) for x in X.carrier}
    mass: dict = {}
    for a, w in pairs:
        mass[a] = mass.get(a, F(0)) + F(w) / den
    terms = {a: as_ext(values[a]) for a, w in mass.items() if w}
    if INF in terms.values():
        want = INF
    else:
        want = ExtReal(sum((mass[a] * v.value for a, v in terms.items()), F(0)))
    seen = []
    f = lambda x: seen.append(x) or values[x]
    for P in (ProbMeasure(pairs, base=X, den=den), ProbMeasure(pairs, den=den)):
        seen.clear()
        got = integrate(P, f)
        assert (got.num, got.den) == (want.num, want.den) and got.enclosure is None
        # f is read only at the points of positive mass
        assert set(seen) == {x for x, p in zip(P.points, P.vec) if p}
