import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.numerics import (
    DEFAULT_TOLERANCE,
    INF,
    Enclosure,
    ExtReal,
    LazyPartition,
    PartitionOfOne,
    Undecided,
    UnsupportedRepresentation,
    as_ext,
    compose_partitions,
    countable_combine,
    dirac_partition,
    draw_indices,
    draw_int,
    draw_parts,
    ext_eq,
    random_partition,
    scale,
    weighted_sum,
)
from girycheck.scvx import IntervalSpace, affine_map, constant_map

F = Fraction


def rationals_01():
    return st.integers(0, 24).flatmap(
        lambda p: st.integers(max(p, 1), 24).map(lambda q: F(p, q))
    )


class TestExtReal:
    def test_infinity_has_no_payload(self):
        assert INF.value is None
        assert INF.is_inf

    def test_json_forms(self):
        assert ExtReal(F(1, 3)).to_json() == "1/3"
        assert INF.to_json() == "inf"

    @pytest.mark.parametrize("v", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_nan_and_minus_infinity_are_not_points(self, v):
        # they compare unequal, like any other non-number, and a
        # coercion or a comparison that must decide says which value
        assert not ExtReal(1) == v and ExtReal(1) != v and not INF == v
        for make in (ExtReal, as_ext):
            with pytest.raises(TypeError, match=f"^{v!r} is not an int or a Fraction"):
                make(v)
        for u, w in [(v, 1), (1, v)]:
            with pytest.raises(TypeError, match=f"^{v!r} is not an int or a Fraction"):
                ext_eq(u, w)

    def test_eq_with_tolerance_only_for_enclosures(self):
        exact = ExtReal(F(1, 3))
        near = ExtReal(F(1, 3) + F(1, 10**15))
        assert not ext_eq(exact, near)
        enclosed = ExtReal(near.value, Enclosure(near.value - F(1, 2**50),
                                                 near.value + F(1, 2**50)))
        # the midpoints are within the tolerance, but 1/3 lies below the
        # enclosure, whose lower end is 1/3 + 1.1e-16
        assert not ext_eq(exact, enclosed)
        around = ExtReal(near.value, Enclosure(exact.value, near.value + F(1, 10**15)))
        assert ext_eq(exact, around)
        # overlapping enclosures compare at the one DEFAULT_TOLERANCE
        wide = Enclosure(0, F(1, 10**6))
        assert ext_eq(ExtReal(0, wide), ExtReal(DEFAULT_TOLERANCE, wide))
        assert not ext_eq(ExtReal(0, wide), ExtReal(2 * DEFAULT_TOLERANCE, wide))

    def test_an_exact_value_outside_an_enclosure_is_unequal(self):
        third = F(1, 3)
        lower = third + F(11, 10**17)
        enclosed = ExtReal(lower + F(1, 10**16), Enclosure(lower, lower + F(2, 10**16)))
        assert not ext_eq(ExtReal(third), enclosed)
        assert not ext_eq(enclosed, third)
        assert ext_eq(lower, enclosed)

    def test_disjoint_enclosures_are_unequal(self):
        # midpoints 10^-14 and 4*10^-14 lie within the default tolerance,
        # but no value lies in both enclosures
        u = ExtReal(F(1, 10**14), Enclosure(0, F(2, 10**14)))
        v = ExtReal(F(4, 10**14), Enclosure(F(3, 10**14), F(5, 10**14)))
        assert not ext_eq(u, v)
        assert not ext_eq(v, u)
        overlapping = ExtReal(F(3, 10**14), Enclosure(F(1, 10**14), F(5, 10**14)))
        assert ext_eq(u, overlapping)

    def test_hash_agrees_with_equality(self):
        assert ExtReal(1) == 1 and len({ExtReal(1), 1}) == 1
        assert len({ExtReal(F(1, 2)), F(1, 2)}) == 1
        # a float is no extended real, whatever its value
        assert ExtReal(F(1, 2)) != 0.5 and INF != float("inf")
        assert hash(ExtReal(F(2, 3), Enclosure(0, 1))) == hash(ExtReal(F(2, 3)))

    def test_order_against_a_foreign_type_is_a_type_error(self):
        with pytest.raises(TypeError):
            ExtReal(1) < "a"
        with pytest.raises(TypeError):
            ExtReal(1) <= "a"
        with pytest.raises(TypeError):
            ExtReal(1) > "a"
        with pytest.raises(TypeError):
            ExtReal(1) >= "a"

    @pytest.mark.parametrize("below, above", [
        (0, ExtReal(1)),
        (F(1, 2), ExtReal(1)),
        (ExtReal(1), 2),
        (ExtReal(1), F(3, 2)),
        (ExtReal(1), INF),
        (ExtReal(1), float("inf")),
        (10**30, INF),
    ])
    def test_strict_and_reflected_order_against_numbers(self, below, above):
        # the extended reals carry no order: a verdict compares by ext_eq,
        # which reads enclosures, and an order would not
        for lhs, rhs in [(below, above), (above, below)]:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(lhs, rhs)
        assert below != above

    @pytest.mark.parametrize("other", [1, F(1), ExtReal(1)])
    def test_order_of_equal_values(self, other):
        # equal values are equal, and still unordered
        x = ExtReal(1)
        assert x == other and other == x and hash(x) == hash(other)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)

    def test_repr_prints_the_enclosure_radius(self):
        # the value is the enclosure's midpoint, 0 here, and the enclosure
        # is [-2^-50, 2^-50]: the printed radius is 2^-50, not its width
        got = countable_combine(LazyPartition.geometric(), lambda i: 0,
                                n_max=50, bound=1)
        assert repr(got) == "ExtReal(0 ± 1/1125899906842624)"
        assert repr(ExtReal(F(1, 3))) == "ExtReal(1/3)"

    def test_infinity_against_itself(self):
        assert INF == ExtReal(None) and ext_eq(INF, INF) and INF != float("inf")
        with pytest.raises(TypeError):
            INF <= INF
        with pytest.raises(TypeError):
            ext_eq(INF, float("inf"))


CLOSED = IntervalSpace("closed_unit")
HALVES = PartitionOfOne.finite([F(1, 2), F(1, 2)])


@pytest.mark.parametrize("call, value", [
    (lambda: ExtReal(0.1), 0.1),
    (lambda: ExtReal("1/3"), "1/3"),
    (lambda: ExtReal(True), True),
    (lambda: as_ext(0.5), 0.5),
    (lambda: as_ext(float("inf")), math.inf),
    (lambda: ext_eq(0.1, F(1, 10)), 0.1),
    (lambda: affine_map(CLOSED, CLOSED, 0.1, 0.9), 0.1),
    (lambda: affine_map(CLOSED, CLOSED, "a", 1), "a"),
    (lambda: constant_map(CLOSED, CLOSED, 0.5), 0.5),
    (lambda: countable_combine(HALVES, [0, 0.5]), 0.5),
    (lambda: scale(0.1, ExtReal(1)), 0.1),
    (lambda: Enclosure(0.1, 1), 0.1),
    (lambda: Enclosure("1/3", 1), "1/3"),
    (lambda: LazyPartition(lambda i: 0.1, lambda n: F(0)).weight(1), 0.1),
    (lambda: LazyPartition(lambda i: F(0), lambda n: 0.1).tail_mass(1), 0.1),
    (lambda: countable_combine(LazyPartition.geometric(), [0], n_max=1, bound=0.1), 0.1),
    (lambda: countable_combine(LazyPartition.geometric(), [0], n_max=1, bound=1,
                               within=(0.1, 1)), 0.1),
    (lambda: PartitionOfOne({1: True}), True),
], ids=["ExtReal-float", "ExtReal-str", "ExtReal-bool", "as_ext-float", "as_ext-inf",
        "ext_eq", "affine_map-float", "affine_map-str", "constant_map", "combine-term",
        "scale-float", "Enclosure-float", "Enclosure-str", "lazy-weight", "lazy-tail",
        "combine-bound", "combine-within", "PartitionOfOne-bool"])
def test_a_float_or_a_non_number_is_refused(call, value):
    # an exact value is built from an int or a Fraction: a float is read as
    # no binary rational, and nothing ends in an AttributeError
    with pytest.raises(TypeError, match=f"^{re.escape(repr(value))} is not an int or a Fraction"):
        call()


class TestBinaryCombine:
    """(1-r)u + rv is countable_combine over the two-part partition (1-r, r)."""

    @staticmethod
    def combine(r, u, v):
        return countable_combine(PartitionOfOne.finite([1 - r, r]), [u, v])

    def test_midpoint(self):
        assert self.combine(F(1, 2), 1, 3) == ExtReal(2)

    def test_positive_weight_on_infinity(self):
        assert self.combine(F(1, 4), 8, INF) == INF

    def test_zero_weight_on_infinity_drops_it(self):
        assert self.combine(0, 5, INF) == ExtReal(5)

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            self.combine(F(3, 2), 0, 1)


class TestPartitionOfOne:
    def test_finite_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PartitionOfOne.finite([F(1, 2), F(1, 4)])

    def test_weight_range(self):
        with pytest.raises(ValueError):
            PartitionOfOne.finite([F(3, 2), F(-1, 2)])

    def test_geometric_tail_is_exact(self):
        geo = LazyPartition.geometric()
        for n in range(1, 12):
            partial = sum(geo.weight(i) for i in range(1, n + 1))
            assert 1 - partial == geo.tail_mass(n)
        assert geo.tail_mass(10) < geo.tail_mass(5)

    def test_zero_weights_are_dropped(self):
        p = PartitionOfOne({1: F(1), 5: F(0)})
        assert p.items() == [(1, F(1))]

    def test_canonical_form(self):
        a = PartitionOfOne.finite([F(2, 4), F(1, 2)])
        b = PartitionOfOne({1: F(1, 2), 2: F(1, 2)})
        c = PartitionOfOne({2: 3, 1: 3}, den=6)
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert (c.parts, c.den) == ({1: 1, 2: 1}, 2)

    def test_weights_over_den(self):
        p = PartitionOfOne({4: F(1, 2), 1: 1, 3: F(3, 2)}, den=3)
        assert (p.parts, p.den) == ({1: 2, 3: 3, 4: 1}, 6)
        assert p.items() == [(1, F(1, 3)), (3, F(1, 2)), (4, F(1, 6))]
        assert 2 not in p.parts and sum(w for i, w in p.items() if i > 1) == F(2, 3)

    @pytest.mark.parametrize("weights, den, match", [
        ({0: 1}, 1, "indices start at 1"),
        ({1: 2, 2: -1}, 1, r"weight -1 outside \[0, 1\]"),
        ({1: 1, 2: 1}, 3, "weights must sum to 1"),
        ({}, 1, "weights must sum to 1"),
        ({}, 0, "den must be a positive integer"),
    ])
    def test_finite_validation(self, weights, den, match):
        with pytest.raises(ValueError, match=match):
            PartitionOfOne(weights, den=den)

    @pytest.mark.parametrize("weights, match", [
        ([0.5, 0.5], r"^0.5 is not an int or a Fraction \(weight 1\)"),
        ([F(1, 2), "1/2"], r"^'1/2' is not an int or a Fraction \(weight 2\)"),
        ([None, 1], r"^None is not an int or a Fraction \(weight 1\)"),
    ])
    def test_a_weight_that_is_not_rational_is_a_type_error(self, weights, match):
        with pytest.raises(TypeError, match=match):
            PartitionOfOne.finite(weights)


class TestCountableCombine:
    def test_singleton(self):
        assert countable_combine(dirac_partition(1), [5, 7]) == ExtReal(5)

    def test_dirac_projects(self):
        u = [F(1, 3), F(1, 7), F(2, 5)]
        for j in (1, 2, 3):
            assert countable_combine(dirac_partition(j), u) == ExtReal(u[j - 1])

    def test_divergent_geometric_series(self):
        # the partial sums (n-1)2^(n+1) + 2 grow without bound; unbounded
        # terms admit no certificate, so the sum stays undecided
        geo = LazyPartition.geometric()
        with pytest.raises(Undecided, match="bound B and a depth n_max"):
            countable_combine(geo, lambda i: i * 4**i, n_max=100)
        with pytest.raises(ValueError, match="exceeds the bound"):
            countable_combine(geo, lambda i: i * 4**i, n_max=100, bound=10**12)

    def test_geometric_constant_one_enclosure(self):
        geo = LazyPartition.geometric()
        got = countable_combine(geo, lambda i: 1, n_max=30, bound=1)
        assert got.enclosure.width <= 2 * F(1, 2**30)
        assert got.enclosure.lower <= 1 <= got.enclosure.upper

    def test_positively_weighted_infinity_forces_infinity(self):
        omega = PartitionOfOne.finite([F(3, 4), F(1, 4)])
        assert countable_combine(omega, [1, INF]) == INF

    def test_undecided_without_certificates(self):
        # a lazy sum is decided by a bound B at a depth n_max or not at all;
        # without both it reads no weight and no term
        def unread(i):
            raise AssertionError(f"read index {i}")

        geo, untouched = LazyPartition.geometric(), LazyPartition(unread, unread)
        rows = [
            (geo, lambda i: 1, {"n_max": 100}),
            (geo, lambda i: 1, {"bound": 1}),
            (untouched, unread, {}),
            (untouched, unread, {"n_max": 100}),
            (untouched, unread, {"bound": 1}),
        ]
        for omega, u, certificate in rows:
            with pytest.raises(Undecided, match="bound B and a depth n_max"):
                countable_combine(omega, u, **certificate)

    def test_uncertified_threshold_crossing_is_infinity(self):
        # exactly 10^13, with partial sums past 10^12: a large partial sum
        # is not a proof of inf, so without a certificate it is undecided,
        # and with one the enclosure holds the true sum
        geo = LazyPartition.geometric()
        with pytest.raises(Undecided, match="bound B and a depth n_max"):
            countable_combine(geo, lambda i: 10**13, n_max=100)
        got = countable_combine(geo, lambda i: 10**13, n_max=100, bound=10**13)
        assert not got.is_inf
        assert got.enclosure.lower <= 10**13 <= got.enclosure.upper

    def test_negative_divergence_is_undecided(self):
        geo = LazyPartition.geometric()
        with pytest.raises(Undecided, match="bound B and a depth n_max"):
            countable_combine(geo, lambda i: -i * 4**i, n_max=100)

    def test_bound_is_checked_on_every_scanned_term(self):
        # 10*i breaks |u_i| <= 1 at the first term; an enclosure built on
        # that bound would exclude the true sum, 20
        geo = LazyPartition.geometric()
        with pytest.raises(ValueError, match="u_1 = 10"):
            countable_combine(geo, lambda i: 10 * i, n_max=20, bound=1)
        with pytest.raises(ValueError, match="u_7 = 2"):
            countable_combine(geo, lambda i: 1 if i < 7 else 2, n_max=20, bound=1)
        got = countable_combine(geo, lambda i: -1, n_max=20, bound=1)
        assert got.enclosure.lower <= -1 <= got.enclosure.upper

    def test_within_narrows_the_tail_enclosure(self):
        geo = LazyPartition.geometric()
        got = countable_combine(geo, lambda i: 0, n_max=20, bound=1, within=(0, 1))
        assert (got.enclosure.lower, got.enclosure.upper) == (0, F(1, 2**20))
        assert got.value == F(1, 2**21)
        # tail(N) = 2^-(N-1) only bounds the true mass 2^-N, so terms in
        # [1/2, 1] still let the tail add anything from 0 upward
        loose = LazyPartition(lambda i: F(1, 2**i), lambda n: F(1, 2**(n - 1)))
        got = countable_combine(loose, lambda i: F(1, 2) if i <= 20 else 1,
                                n_max=20, bound=1, within=(F(1, 2), 1))
        partial = F(1, 2) * (1 - F(1, 2**20))
        assert (got.enclosure.lower, got.enclosure.upper) == (partial, partial + F(1, 2**19))
        assert got.enclosure.lower <= partial + F(1, 2**20) <= got.enclosure.upper

    def test_monotone_in_values(self):
        omega = random_partition(random.Random(7), 5)
        u = [F(k, 10) for k in range(5)]
        v = [x + F(1, 3) for x in u]
        lo, hi = countable_combine(omega, u), countable_combine(omega, v)
        assert not lo.is_inf and not hi.is_inf and lo.value < hi.value
        # infinity at a positive weight lies above every finite combination
        assert countable_combine(omega, v[:-1] + [INF]).is_inf

    def test_a_finite_combination_keeps_the_enclosures_of_its_terms(self):
        # x is a certified truncation; half of x plus half of x is x, so it
        # must equal what x equals, a deeper truncation of the same sum
        closed, geo = IntervalSpace("closed_unit"), LazyPartition.geometric()
        u = lambda i: F(i + 1, i + 2)
        x = closed.combine(geo, u, bound=1, n_max=50)
        rhs = closed.combine(geo, u, bound=1, n_max=60)
        lhs = closed.combine(PartitionOfOne.finite([F(1, 2)] * 2), [x, x])
        assert x.enclosure.width < DEFAULT_TOLERANCE and ext_eq(x, rhs)
        assert ext_eq(lhs, rhs) and lhs.enclosure is not None
        assert (lhs.value, lhs.enclosure.lower, lhs.enclosure.upper) == (
            x.value, x.enclosure.lower, x.enclosure.upper)

    def test_a_lazy_combination_keeps_the_enclosures_of_its_terms(self):
        # each term may be anywhere in [0, 1], so the sum may be anywhere
        # in [0, 1] up to the tail; a term without an enclosure adds none
        geo = LazyPartition.geometric()
        got = countable_combine(geo, lambda i: ExtReal(F(1, 2), enclosure=Enclosure(0, 1)),
                                n_max=40, bound=1)
        assert (got.enclosure.lower, got.enclosure.upper) == (-F(1, 2**40), 1)
        exact = countable_combine(geo, lambda i: F(1, 2), n_max=40, bound=1)
        partial = F(1, 2) - F(1, 2**41)
        assert (exact.value, exact.enclosure.lower, exact.enclosure.upper) == (
            partial, partial - F(1, 2**40), partial + F(1, 2**40))

    def test_weighted_sum_adds_enclosures_exact_terms_as_points(self):
        # 1/4 of [0, 1] (value 1/2) + 3/4 of the exact 2; a zero part
        # drops its term's enclosure
        wide = ExtReal(F(1, 2), enclosure=Enclosure(0, 1))
        far = ExtReal(F(5), enclosure=Enclosure(0, 10))
        got = weighted_sum([(1, wide), (3, 2), (0, far)], 4)
        assert got.value == F(13, 8)
        assert (got.enclosure.lower, got.enclosure.upper) == (F(3, 2), F(7, 4))
        assert weighted_sum([(1, 2), (0, far)], 1).enclosure is None


class TestComposePartitions:
    def test_dirac_projects_to_component(self):
        betas = [random_partition(random.Random(s), 4) for s in (11, 12, 13)]
        assert compose_partitions(dirac_partition(2), betas) == betas[1]

    def test_even_split_of_diracs(self):
        alpha = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        got = compose_partitions(alpha, [dirac_partition(1), dirac_partition(2)])
        assert got == PartitionOfOne.finite([F(1, 2), F(1, 2)])

    def test_direct_rational_evaluation(self):
        alpha = PartitionOfOne.finite([F(1, 3), F(2, 3)])
        b1 = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        b2 = PartitionOfOne.finite([F(1, 4), F(3, 4)])
        got = compose_partitions(alpha, [b1, b2])
        # expected entries computed directly: 1/3*1/2 + 2/3*1/4 and
        # 1/3*1/2 + 2/3*3/4
        assert got == PartitionOfOne.finite([F(1, 3), F(2, 3)])

    def test_lazy_inputs_rejected(self):
        with pytest.raises(UnsupportedRepresentation):
            compose_partitions(LazyPartition.geometric(), [])


class TestRandomPartition:
    def test_size_one_is_certain(self):
        assert random_partition(random.Random(0), 1) == PartitionOfOne.finite([F(1)])

    def test_weights_sum_exactly(self):
        p = random_partition(random.Random(42), 3)
        assert sum(w for _, w in p.items()) == 1
        assert len(p.items()) <= 3

    def test_deterministic_per_seed(self):
        assert random_partition(random.Random(42), 6) == random_partition(random.Random(42), 6)
        assert random_partition(random.Random(42), 6) != random_partition(random.Random(43), 6)


class TestScale:
    def test_scaling(self):
        assert scale(F(3, 2), ExtReal(F(2, 3))) == ExtReal(1)
        assert scale(2, INF) == INF
        assert scale(0, ExtReal(7)) == ExtReal(0)
        with pytest.raises(ValueError):
            scale(0, INF)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_random_partition_always_sums_to_one(seed, size):
    p = random_partition(random.Random(seed), size)
    assert sum(w for _, w in p.items()) == 1
    assert all(0 < w <= 1 for _, w in p.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32),
       st.lists(rationals_01(), min_size=6, max_size=6))
def test_associativity_identity_on_rationals(seed_a, seed_b, values):
    # composing partitions commutes with evaluating against values
    rngs = [seed_b + i for i in range(4)]
    alpha = random_partition(random.Random(seed_a), 4)
    betas = [random_partition(random.Random(s), 6) for s in rngs]
    lhs = countable_combine(
        alpha, [countable_combine(b, values) for b in betas]
    )
    rhs = countable_combine(compose_partitions(alpha, betas), values)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6))
def test_dirac_projection_through_combine(seed, j):
    values = [ExtReal(F(seed % 97 + i, 13)) for i in range(6)]
    assert countable_combine(dirac_partition(j), values) == values[j - 1]


# Plain-Fraction references for the integer-parts kernel: one Fraction per
# weight, summed term by term.


def ref_combine(weights, values):
    total = F(0)
    for w, v in zip(weights, values):
        if w == 0:
            continue
        if isinstance(v, ExtReal):
            if v.is_inf:
                return INF
            v = v.value
        total += w * F(v)
    return ExtReal(total)


def ref_compose(alpha, betas):
    gamma = {}
    for ai, beta in zip(alpha, betas):
        for j, bij in enumerate(beta, start=1):
            gamma[j] = gamma.get(j, F(0)) + ai * bij
    return sorted((j, g) for j, g in gamma.items() if g != 0)


def fraction_partitions(min_size=1, max_size=6):
    """Weight lists with mixed denominators and some zeros, summing to 1."""
    ratios = st.lists(
        st.tuples(st.integers(0, 12), st.integers(1, 12)),
        min_size=min_size, max_size=max_size,
    ).filter(lambda rs: any(a for a, _ in rs))
    def normalize(rs):
        ws = [F(a, b) for a, b in rs]
        total = sum(ws)
        return [w / total for w in ws]
    return ratios.map(normalize)


def ext_values(size):
    """Terms of every kind a combination reads: ints, Fractions, exact and
    enclosed ExtReals, and INF.  A float is refused, as
    test_a_float_or_a_non_number_is_refused checks."""
    fraction = st.builds(F, st.integers(-50, 50), st.integers(1, 30))
    value = st.one_of(
        fraction,
        st.integers(-50, 50),
        fraction.map(ExtReal),
        fraction.map(lambda q: ExtReal(q, Enclosure(q - F(1, 64), q + F(1, 64)))),
        st.just(INF),
    )
    return st.lists(value, min_size=size, max_size=size)


@settings(max_examples=120, deadline=None)
@given(fraction_partitions().flatmap(
    lambda ws: st.tuples(st.just(ws), ext_values(len(ws)), st.booleans())))
def test_finite_combine_matches_fraction_reference(case):
    weights, values, lazy = case
    terms = (lambda i: values[i - 1]) if lazy else values
    got = countable_combine(PartitionOfOne.finite(weights), terms)
    want = ref_combine(weights, values)
    assert got.is_inf == want.is_inf and got.value == want.value


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    fraction_partitions(k, k),
    st.lists(fraction_partitions(max_size=5), min_size=k, max_size=k))))
def test_compose_matches_fraction_reference(case):
    alpha, betas = case
    got = compose_partitions(PartitionOfOne.finite(alpha),
                             [PartitionOfOne.finite(b) for b in betas])
    assert got.items() == ref_compose(alpha, betas)


@settings(max_examples=60, deadline=None)
@given(fraction_partitions(), st.integers(1, 50))
def test_equal_partitions_have_equal_parts_and_hashes(weights, c):
    # the same partition as Fractions, and as unreduced integer parts
    a = PartitionOfOne.finite(weights)
    common = 1
    for w in weights:
        common = common * w.denominator
    b = PartitionOfOne({i: int(w * common) * c for i, w in enumerate(weights, start=1)},
                       den=common * c)
    assert a == b and hash(a) == hash(b) and (a.parts, a.den) == (b.parts, b.den)
    assert a.items() == [(i, w) for i, w in enumerate(weights, start=1) if w != 0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_random_partition_draws_as_randint_does(seed, size):
    # the reference draws each part with randint, as the kernel once did
    twin = random.Random(seed)
    drawn = [twin.randint(1, 1000) for _ in range(size)]
    g = math.gcd(*drawn)
    rng = random.Random(seed)
    p = random_partition(rng, size)
    assert p.parts == {i: d // g for i, d in enumerate(drawn, start=1)}
    assert p.den == sum(drawn) // g
    # and it consumes exactly the bits of those randint calls
    assert rng.getstate() == twin.getstate()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(-2**40, 2**40),
       st.one_of(st.integers(0, 40), st.integers(0, 2**60)),
       st.sampled_from(["randint", "randrange", "choice"]))
def test_draw_int_draws_as_random_does(seed, lo, width, how):
    # width 0 is a range of one value, which still takes one bit
    hi = lo + width
    rng, twin = random.Random(seed), random.Random(seed)
    if how == "randint":
        got, expected = draw_int(rng, lo, hi), twin.randint(lo, hi)
    elif how == "randrange":
        got, expected = draw_int(rng, 0, width), twin.randrange(width + 1)
    else:
        seq = range(lo, hi + 1)
        got, expected = seq[draw_int(rng, 0, len(seq) - 1)], twin.choice(seq)
    assert got == expected
    assert rng.getstate() == twin.getstate()


def test_draw_int_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        draw_int(random.Random(0), 1, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 12))
def test_draw_parts_draws_as_randint_does(seed, k):
    # one loop for the k parts of a sampler: the values and the generator
    # state of k calls of randint(1, 1000)
    rng, twin = random.Random(seed), random.Random(seed)
    assert draw_parts(rng, k) == [twin.randint(1, 1000) for _ in range(k)]
    assert rng.getstate() == twin.getstate()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 21).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_draw_indices_draws_as_sample_does(seed, nk):
    # up to 21 indices, random.sample draws from a pool of the indices
    # left, as draw_indices always does
    n, k = nk
    rng, twin = random.Random(seed), random.Random(seed)
    assert draw_indices(rng, n, k) == twin.sample(range(n), k)
    assert rng.getstate() == twin.getstate()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_draw_indices_are_k_distinct_indices_in_range(seed, nk):
    n, k = nk
    drawn = draw_indices(random.Random(seed), n, k)
    assert len(drawn) == len(set(drawn)) == k
    assert all(0 <= i < n for i in drawn)


def test_draw_indices_rejects_a_sample_larger_than_the_population():
    with pytest.raises(ValueError, match="larger than population"):
        draw_indices(random.Random(0), 3, 4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=10).filter(any), st.data())
def test_of_parts_builds_what_the_constructor_builds(parts, data):
    # int parts in index order, zero parts and gaps in the indices included
    indices = sorted(data.draw(st.sets(st.integers(1, 40), min_size=len(parts),
                                       max_size=len(parts))))
    given_parts = dict(zip(indices, parts))
    built = PartitionOfOne.of_parts(given_parts)
    checked = PartitionOfOne(given_parts, den=sum(parts))
    assert (built.parts, built.den) == (checked.parts, checked.den)
    assert hash(built) == hash(checked) and repr(built) == repr(checked)
    assert built == checked and list(built.parts) == sorted(built.parts)


def test_compose_keeps_its_sum_check():
    # a beta whose parts do not sum to its den; the composition would not
    # be a partition of one
    alpha = PartitionOfOne.finite([F(1, 2), F(1, 2)])
    beta = PartitionOfOne.finite([F(1, 3), F(2, 3)])
    broken = PartitionOfOne.finite([F(1, 3), F(2, 3)])
    broken.parts = {1: 1, 2: 1}
    with pytest.raises(ValueError, match="weights must sum to 1"):
        compose_partitions(alpha, [beta, broken])


# The int-pair ExtReal against Fraction, the type that held its value.

HASH_MODULUS = sys.hash_info.modulus  # a den it divides has no inverse mod it

reference_fractions = st.one_of(
    st.builds(F, st.integers(-10**20, 10**20), st.integers(1, 10**6)),
    st.builds(F, st.integers(-50, 50), st.sampled_from([HASH_MODULUS, 2 * HASH_MODULUS])),
)


def ext_of(q):
    """q as an ExtReal: INF for None, else exact or carrying an enclosure."""
    kind, q = q
    if q is None:
        return INF
    if kind == "enclosed":
        return ExtReal(q, Enclosure(q - F(1, 7), q + F(1, 7)))
    return ExtReal(q)


ext_cases = st.tuples(st.sampled_from(["exact", "enclosed"]),
                      st.none() | reference_fractions)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(1, 10**6), st.integers(1, 10**4))
def test_ratio_reduces_as_fraction_does(n, d, k):
    x = ExtReal.ratio(n * k, d * k)
    q = F(n, d)
    assert x == ExtReal(q) and (x.num, x.den) == (q.numerator, q.denominator)
    assert x.value == q and x.enclosure is None


@settings(max_examples=400, deadline=None)
@given(ext_cases, ext_cases)
def test_int_pair_ext_real_matches_fraction(a, b):
    x, y = ext_of(a), ext_of(b)
    p, q = a[1], b[1]
    assert (x == y) == (p == q)
    if p is None:
        assert float(x) == math.inf and x.to_json() == "inf" and x.value is None
        assert hash(x) == hash(math.inf)
        return
    assert float(x) == float(p)
    assert x.to_json() == str(p) and x.value == p
    assert hash(x) == hash(p) and hash(ExtReal(p)) == hash(p)
    # against the plain number, on either side
    assert x == p and p == x


# weighted_sum and the finite countable_combine against a dict-of-Fraction
# sum: weight i is parts[i] / den, and a zero weight drops its term, INF
# included.

def fraction_sum(weights, values):
    """The combination of a {i: Fraction weight} dict with terms by index,
    and the same combination of the ends of their enclosures when a term
    of positive weight has one, an exact term u counting as [u, u]."""
    total, lower, upper, enclosed = F(0), F(0), F(0), False
    for i, w in weights.items():
        if w == 0:
            continue
        v = values[i]
        if v == INF:
            return INF
        q = v.value if isinstance(v, ExtReal) else F(v)
        enc = v.enclosure if isinstance(v, ExtReal) else None
        enclosed |= enc is not None
        total += w * q
        lower += w * (q if enc is None else enc.lower)
        upper += w * (q if enc is None else enc.upper)
    return ExtReal(total, Enclosure(lower, upper) if enclosed else None)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=8).filter(any)
       .flatmap(lambda ps: st.tuples(st.just(ps), ext_values(len(ps)))))
def test_weighted_sum_matches_fraction_reference(case):
    parts, values = case
    den = sum(parts)
    weights = {i: F(p, den) for i, p in enumerate(parts)}
    got = weighted_sum(zip(parts, values), den)
    want = fraction_sum(weights, dict(enumerate(values)))
    assert got.is_inf == want.is_inf and got.value == want.value
    assert (got.num, got.den) == (want.num, want.den)
    if want.enclosure is None:
        assert got.enclosure is None
    else:
        assert (got.enclosure.lower, got.enclosure.upper) == (
            want.enclosure.lower, want.enclosure.upper)
    # the same sum as a countable combination, zero parts dropped
    omega = PartitionOfOne(dict(enumerate(parts, start=1)), den=den)
    via_combine = countable_combine(omega, values)
    assert (via_combine.num, via_combine.den) == (want.num, want.den)
