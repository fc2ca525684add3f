import ast
import itertools
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.giry import (
    BaseMismatch,
    EvInconsistency,
    GeneralizedPoint,
    GirySpace,
    LazyMeasure,
    NotAMeasure,
    ProbMeasure,
    barycenter,
    dirac,
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
    ExtReal,
    PartitionOfOne,
    UnsupportedRepresentation,
    compose_partitions,
    countable_combine,
)
from girycheck.reports import run_per_seed
from girycheck.scvx import (
    IntervalSpace,
    ProductSpace,
    affine_map,
    check_axiom1,
    check_axiom2,
    identity_map,
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
        with pytest.raises(TypeError, match="weight 1 is 0.5"):
            ProbMeasure([("a", 0.5), ("b", 0.5)])

    def test_negative_entry_rejected_before_merging(self):
        # merged, "a" would weigh 1/2 and the measure would be valid
        with pytest.raises(NotAMeasure, match="negative weight -1/2"):
            ProbMeasure([("a", F(1)), ("a", F(-1, 2)), ("b", F(1, 2))])

    def test_weights_over_den(self):
        P = ProbMeasure([("b", 2), ("a", 1), ("b", 3)], den=6)
        assert P.support == (("a", F(1, 6)), ("b", F(5, 6)))
        assert P == ProbMeasure([("a", F(1, 6)), ("b", F(5, 6))])
        assert P.atoms == ("a", "b")
        assert (P.weights.parts, P.weights.den) == ({1: 1, 2: 5}, 6)
        with pytest.raises(ValueError, match="den must be a positive integer"):
            ProbMeasure([("a", 0)], den=0)

    def test_collisions_merge_exactly(self):
        P = ProbMeasure([("a", F(1, 3)), ("a", F(1, 3)), ("b", F(1, 3))])
        assert P.measure_of(["a"]) == F(2, 3)
        assert len(P.support) == 2

    def test_measure_of_regions(self, X):
        P = uniform(["a", "b"], base=X)
        assert P.measure_of(X.mask_of(["a"])) == F(1, 2)
        assert P.measure_of(["a", "b", "c"]) == 1
        assert P.measure_of(["b"]) == F(1, 2)
        assert P.measure_of([]) == 0


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

    def test_geometric_mixture_of_diracs_is_lazy(self):
        geo = PartitionOfOne.geometric()
        got = mixture(geo, lambda i: dirac(F(1, i + 1)))
        assert isinstance(got, LazyMeasure)
        assert got.weights.weight(3) == F(1, 8)
        assert got.atoms(3) == F(1, 4)

    def test_base_mismatch(self):
        X1 = FiniteMeasurableSpace.powerset(["a"])
        X2 = FiniteMeasurableSpace.powerset(["b"])
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        with pytest.raises(BaseMismatch):
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
        geo = PartitionOfOne.geometric()
        with pytest.raises(UnsupportedRepresentation):
            mixture(geo, lambda i: uniform(["a", "b"])).atoms(1)


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
        evens = sum(w for a, w in P.support if a % 2 == 0)
        odds = sum(w for a, w in P.support if a % 2 == 1)
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
        geo = PartitionOfOne.geometric()
        P = LazyMeasure(geo, lambda i: ExtReal(i * 2**i))
        assert integrate(P, lambda x: x, divergence_witness=True) == INF


class TestBarycenter:
    def test_uniform_on_unit_interval(self, closed):
        P = uniform([ExtReal(0), ExtReal(1)])
        got = barycenter(closed, P, generating_maps=[identity_map(closed)])
        assert got == ExtReal(F(1, 2))

    def test_dirac_on_measures_recovers_measure(self, X):
        Q = uniform(["a", "b"], base=X)
        got = barycenter(GirySpace(X), dirac(Q))
        assert got == Q

    def test_open_interval_geometric(self):
        open_unit = IntervalSpace("open_unit")
        geo = PartitionOfOne.geometric()
        P = LazyMeasure(geo, lambda i: F(1, i + 1))
        got = barycenter(open_unit, P, n_max=50, bound=1)
        assert open_unit.contains(got)
        target = F(3862943, 10**7)
        assert got.enclosure.lower >= target - F(1, 10**6)
        assert got.enclosure.upper <= target + F(1, 10**6)

    def test_product_of_geometric_mixture_of_diracs(self, closed):
        prod = ProductSpace([closed, closed])
        geo = PartitionOfOne.geometric()
        point = lambda i: (ExtReal(F(1, i + 1)), ExtReal(F(1, 2)))
        got = barycenter(prod, mixture(geo, lambda i: dirac(point(i))), n_max=30, bound=1)
        for k in (0, 1):
            want = closed.combine(geo, lambda i: point(i)[k], n_max=30, bound=1)
            assert got[k].value == want.value
            assert got[k].enclosure.lower == want.enclosure.lower
            assert got[k].enclosure.upper == want.enclosure.upper

    def test_ev_consistency_enforced(self, closed):
        # a non-affine map in the generating family breaks the defining
        # property: (1/2)^2 != 1/2
        P = uniform([ExtReal(0), ExtReal(1)])
        from girycheck.scvx import CountablyAffineMap
        square = CountablyAffineMap(
            closed, closed, lambda x: ExtReal(x.value**2), name="square"
        )
        with pytest.raises(EvInconsistency):
            barycenter(closed, P, generating_maps=[square])

    def test_ev_consistency_for_affine_family(self, closed):
        P = ProbMeasure([(ExtReal(F(1, 4)), F(1, 3)), (ExtReal(F(3, 4)), F(2, 3))])
        fam = [identity_map(closed), affine_map(closed, closed, F(1, 2), F(1, 2))]
        got = barycenter(closed, P, generating_maps=fam)
        assert got == ExtReal(F(1, 4) * F(1, 3) + F(3, 4) * F(2, 3))


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
        with pytest.raises(BaseMismatch):
            monad_mu(uniform(["a", "b"]))

    def test_atom_measures_on_different_bases_are_rejected(self):
        Q = uniform([dirac("a", base=FiniteMeasurableSpace.powerset(["a"])),
                     dirac("b", base=FiniteMeasurableSpace.powerset(["b"]))])
        with pytest.raises(BaseMismatch):
            monad_mu(Q)


class TestGirySpace:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_axioms_hold(self, n):
        X = FiniteMeasurableSpace.powerset([f"x{i}" for i in range(n)])
        GX = GirySpace(X)
        assert run_per_seed("axiom1", GX.name, SEEDS, partial(check_axiom1, GX)).ok
        assert run_per_seed("axiom2", GX.name, SEEDS, partial(check_axiom2, GX)).ok

    def test_membership(self, X):
        GX = GirySpace(X)
        assert GX.contains(uniform(["a", "b"]))
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
        assert J.apply(indicator(X, u)) == ExtReal(F(1, 4))
        assert J.apply(indicator(X, X.full_mask)) == ExtReal(1)
        assert J.apply(indicator(X, 0)) == ExtReal(0)

    def test_phi_of_dirac_is_membership(self, X):
        J = phi(dirac("a", base=X))
        u = X.mask_of(["a", "c"])
        v = X.mask_of(["b"])
        assert J.apply(indicator(X, u)) == ExtReal(1)
        assert J.apply(indicator(X, v)) == ExtReal(0)

    def test_roundtrip_exact(self, X):
        P = ProbMeasure(
            [("a", F(1, 7)), ("b", F(2, 7)), ("d", F(4, 7))], base=X
        )
        assert phi_inverse(phi(P), X) == P

    def test_point_backed_functional_recovers_dirac(self, X):
        J = GeneralizedPoint.from_point("c")
        # evaluation at a point applies the map directly
        got = phi_inverse(phi(dirac("c", base=X)), X)
        assert got == dirac("c", base=X)
        assert J.apply(indicator(X, X.mask_of(["c"]))) == ExtReal(1)

    def test_nonadditive_functional_rejected(self, X):
        from girycheck.laws import nonadditive_functional
        with pytest.raises(NotAMeasure):
            phi_inverse(nonadditive_functional(X), X)

    def test_unnormalized_functional_rejected(self, X):
        J = GeneralizedPoint(lambda m: ExtReal(F(1, 2)))
        with pytest.raises(NotAMeasure, match="weakly averaging"):
            phi_inverse(J, X)

    @staticmethod
    def set_function(X, table):
        """A raw functional whose value on chi_U is table[frozenset(U)]."""
        def fn(m):
            return ExtReal(table[frozenset(x for x in X.carrier if m(x) == 1)])
        return GeneralizedPoint(fn)

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


# Plain-Fraction reference for mixture weights: omega_i times each
# component weight, merged per atom.


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
    assert got.support == ref_mixture_support(omega, comps)
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
    assert P.support == ref
    assert P.atoms == tuple(a for a, _ in ref)
    drawn = sorted({a for a, _ in pairs}, key=repr)
    for k in range(len(drawn) + 1):
        for subset in itertools.combinations(drawn, k):
            expected = sum((w for a, w in ref if a in subset), F(0))
            assert P.measure_of(list(subset)) == expected
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
        inner = " + ".join(f"{w}*d[{a!r}]" for a, w in P.support)
        return f"ProbMeasure({inner})"

    P, Q = ProbMeasure(pairs), ProbMeasure(other)
    nested = ProbMeasure([(P, F(1, 3)), (Q, F(2, 3))])
    for M in (P, Q, nested):
        assert repr(M) == fresh(M) and repr(M) is repr(M)
    assert repr(nested) == fresh(ProbMeasure([(ProbMeasure(pairs), F(1, 3)),
                                              (ProbMeasure(other), F(2, 3))]))
