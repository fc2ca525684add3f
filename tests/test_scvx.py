import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.numerics import (
    INF,
    Enclosure,
    ExtReal,
    LazyPartition,
    PartitionOfOne,
    Undecided,
    dirac_partition,
)
from girycheck.scvx import (
    CarrierViolation,
    CountablyAffineMap,
    IntervalSpace,
    ProductSpace,
    affine_map,
    check_axiom1,
    check_axiom2,
    check_morphism,
    constant_map,
    identity_map,
)
from girycheck.laws import (
    BrokenProjectionSpace,
    ReversedWeightsSpace,
    shipped_maps,
    shipped_spaces,
)
from girycheck.reports import run_per_seed

F = Fraction
SEEDS = list(range(40))


def run(check, instance, seeds=SEEDS):
    """The report of a per-case checker on ``instance``, one case per seed."""
    return run_per_seed(check.__name__, repr(instance), seeds, partial(check, instance))


@pytest.fixture
def closed():
    return IntervalSpace("closed_unit")


@pytest.fixture
def open_unit():
    return IntervalSpace("open_unit")


@pytest.fixture
def ext():
    return IntervalSpace("ext_real_line")


class TestIntervalSpaces:
    @pytest.mark.parametrize("kind", IntervalSpace.KINDS)
    def test_nan_and_minus_infinity_are_not_members(self, kind):
        space = IntervalSpace(kind)
        # as for any other non-number, membership is False, not an error
        assert not space.contains(float("nan")) and not space.contains(float("-inf"))
        assert not space.contains("1/2") and not space.contains(0.5)
        assert not space.contains(0.3)

    def test_closed_unit_midpoint(self, closed):
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        assert closed.combine(half, [0, 1]) == ExtReal(F(1, 2))

    def test_open_unit_geometric_enclosure(self, open_unit):
        geo = LazyPartition.geometric()
        got = open_unit.combine(
            geo, lambda i: F(1, i + 1), n_max=50, bound=1
        )
        # limit is 2 ln 2 - 1 = 0.38629436...; enclosure within 1e-6 of it
        target = F(3862943, 10**7)
        assert got.enclosure.lower >= target - F(1, 10**6)
        assert got.enclosure.upper <= target + F(1, 10**6)
        assert open_unit.contains(got)

    def test_closed_unit_countable_combination_of_zeros(self, closed):
        # a bound enclosure of +-B*tail around 0 dipped below [0,1]; the
        # unscanned terms are points of [0,1], so the tail adds at least 0
        got = closed.combine(LazyPartition.geometric(), lambda i: ExtReal(0),
                             n_max=50, bound=1)
        assert got.enclosure.lower == 0
        assert got.enclosure.upper == F(1, 2**50)
        assert closed.contains(got)

    def test_closed_unit_countable_combination_of_one(self, closed):
        got = closed.combine(LazyPartition.geometric(), lambda i: ExtReal(1),
                             n_max=50, bound=1)
        assert got.enclosure.upper == 1
        assert closed.contains(got)

    def test_open_unit_countable_combination_near_zero(self, open_unit):
        # the true value 2^-60 lies in (0,1), but -B*tail reached below 0
        got = open_unit.combine(LazyPartition.geometric(),
                                lambda i: ExtReal(F(1, 2**60)), n_max=50, bound=1)
        assert got.enclosure.lower > 0
        assert got.enclosure.lower <= F(1, 2**60) <= got.enclosure.upper
        assert open_unit.contains(got)

    def test_open_unit_countable_combination_near_one(self, open_unit):
        near_one = 1 - F(1, 2**60)
        got = open_unit.combine(LazyPartition.geometric(),
                                lambda i: ExtReal(near_one), n_max=50, bound=1)
        assert got.enclosure.upper < 1
        assert got.enclosure.lower <= near_one <= got.enclosure.upper
        assert open_unit.contains(got)

    def test_closed_unit_still_rejects_negative_terms(self, closed):
        with pytest.raises(CarrierViolation):
            closed.combine(LazyPartition.geometric(), lambda i: ExtReal(F(-1, 2)),
                           n_max=50, bound=1)

    def test_ext_real_absorbs_infinity(self, ext):
        quarter = PartitionOfOne.finite([F(1, 4), F(3, 4)])
        assert ext.combine(quarter, [8, INF]) == INF

    def test_open_unit_excludes_endpoints(self, open_unit, closed):
        assert not open_unit.contains(ExtReal(0))
        assert not open_unit.contains(ExtReal(1))
        assert closed.contains(ExtReal(0))

    def test_carrier_violation_on_foreign_inputs(self, open_unit):
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        with pytest.raises(CarrierViolation):
            open_unit.combine(half, [0, 0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            IntervalSpace("half_line")

    def test_samples_stay_in_carrier(self, closed, open_unit, ext):
        rng = random.Random(5)
        for space in (closed, open_unit, ext):
            for _ in range(50):
                assert space.contains(space.sample(rng))


class TestProductSpace:
    def test_componentwise_combine(self, closed):
        prod = ProductSpace([closed, closed])
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        got = prod.combine(half, [(ExtReal(0), ExtReal(1)),
                                  (ExtReal(1), ExtReal(0))])
        assert prod.eq(got, (ExtReal(F(1, 2)), ExtReal(F(1, 2))))

    def test_single_factor_behaves_like_factor(self, closed):
        prod = ProductSpace([closed])
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        got = prod.combine(half, [(ExtReal(0),), (ExtReal(1),)])
        assert closed.eq(got[0], closed.combine(half, [0, 1]))

    def test_arity_mismatch(self, closed):
        prod = ProductSpace([closed, closed])
        with pytest.raises(CarrierViolation):
            prod.combine(dirac_partition(1), [(ExtReal(0),)])
        with pytest.raises(CarrierViolation):
            prod.combine(LazyPartition.geometric(), lambda i: (ExtReal(0),),
                         n_max=5, bound=1)

    def test_projections_are_morphisms(self, closed):
        prod = ProductSpace([closed, closed])
        proj = CountablyAffineMap(prod, closed, lambda t: t[1], name="proj2")
        assert run(check_morphism, proj).ok

    def test_countable_combine_is_componentwise(self, closed):
        prod = ProductSpace([closed, closed])
        geo = LazyPartition.geometric()
        seq = lambda i: (ExtReal(F(1, i + 1)), ExtReal(F(1, 2)))
        got = prod.combine(geo, seq, n_max=30, bound=1)
        for k in (0, 1):
            want = closed.combine(geo, lambda i: seq(i)[k], n_max=30, bound=1)
            assert got[k].value == want.value
            assert got[k].enclosure.lower == want.enclosure.lower
            assert got[k].enclosure.upper == want.enclosure.upper

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            ProductSpace([])


class TestAxiomCheckers:
    @pytest.mark.parametrize("kind", ["closed_unit", "open_unit", "ext_real_line"])
    def test_interval_instances_pass_both_axioms(self, kind):
        space = IntervalSpace(kind)
        assert run(check_axiom1, space).ok
        assert run(check_axiom2, space).ok

    def test_product_passes_both_axioms(self, closed):
        prod = ProductSpace([closed, closed])
        assert run(check_axiom1, prod).ok
        assert run(check_axiom2, prod).ok

    def test_axiom1_holds_at_infinity(self, ext):
        a = [ExtReal(1), INF, ExtReal(-3)]
        assert ext.combine(dirac_partition(2), a) == INF

    def test_broken_space_fails_axiom1_with_witness(self):
        report = run(check_axiom1, BrokenProjectionSpace())
        assert not report.ok
        witness = report.failures[0]
        assert witness["j"] != 1
        assert witness["got"] != witness["expected"]

    def test_reversed_weights_fails_axiom2(self):
        report = run(check_axiom2, ReversedWeightsSpace())
        assert not report.ok
        assert "alpha" in report.failures[0]

    def test_report_serializes(self):
        report = run(check_axiom1, BrokenProjectionSpace(), SEEDS[:5])
        obj = report.to_json_obj()
        assert obj["pass"] is False
        assert "counterexample" in obj

    def test_signed_extended_line_is_not_closed_under_countable_combination(self, ext):
        # axiom 2 over alpha = geometric and beta^i = 1/2 at 2i-1 and at 2i,
        # on u_{2i-1} = 2^i and u_{2i} = -2^i: every inner combination is
        # exactly 0, so the left side is 0; the right side, over
        # gamma_{2i-1} = gamma_{2i} = 2^-(i+1), has partial sums 1/2, 0,
        # 1/2, ... and no limit, so no certificate decides it
        u = lambda j: (1 if j % 2 else -1) * 2 ** ((j + 1) // 2)
        for i in range(1, 33):
            inner = ext.combine(PartitionOfOne.of_parts({2 * i - 1: 1, 2 * i: 1}), u)
            assert (inner.num, inner.den, inner.enclosure) == (0, 1, None)
        lhs = ext.combine(LazyPartition.geometric(), lambda i: 0, bound=0, n_max=64)
        assert lhs.value == 0 and lhs.enclosure.width == 0
        gamma = LazyPartition(
            lambda j: F(1, 2 ** ((j + 1) // 2 + 1)),
            # the mass after 2k is 2^-k, after 2k-1 it is 3 * 2^-(k+1)
            lambda n: F(1, 2 ** (n // 2)) if n % 2 == 0 else F(3, 2 ** ((n + 1) // 2 + 1)))
        assert sum(gamma.weight(j) for j in range(1, 21)) == 1 - gamma.tail_mass(20)
        with pytest.raises(Undecided, match="certificate"):
            ext.combine(gamma, u, n_max=10_000)
        # no bound holds: |u_j| = 2^ceil(j/2) outgrows every B
        with pytest.raises(ValueError, match="u_21 = 2048 exceeds the bound 1024"):
            ext.combine(gamma, u, bound=2**10, n_max=100)


class TestMorphismChecker:
    def test_identity_passes(self, closed):
        assert run(check_morphism, identity_map(closed)).ok

    def test_affine_passes(self, closed):
        m = affine_map(closed, closed, F(1, 2), F(1, 2))
        assert run(check_morphism, m).ok

    def test_constant_passes(self, closed):
        m = constant_map(closed, closed, F(1, 3))
        assert run(check_morphism, m).ok

    def test_square_fails_on_the_classic_witness(self, closed):
        # the defining counterexample: (1/2*0 + 1/2*1)^2 != 1/2*0 + 1/2*1
        m = CountablyAffineMap(
            closed, closed, lambda x: ExtReal(x.value**2), name="square"
        )
        half = PartitionOfOne.finite([F(1, 2), F(1, 2)])
        lhs = m(closed.combine(half, [0, 1]))
        rhs = closed.combine(half, [m(ExtReal(0)), m(ExtReal(1))])
        assert not closed.eq(lhs, rhs)
        assert not run(check_morphism, m).ok

    def test_negative_slope_rejected(self, ext):
        with pytest.raises(ValueError):
            affine_map(ext, ext, 0, -1)

    def test_a_map_needs_both_spaces(self, closed):
        # without one, repr failed on the missing space's name
        for source, target in [(None, closed), (closed, None), (None, None)]:
            with pytest.raises(TypeError, match="'ev'.*plain callable"):
                CountablyAffineMap(source, target, lambda x: x, name="ev")

    def test_shipped_maps_print(self):
        maps = shipped_maps(shipped_spaces())
        assert repr(maps["proj1"]) == "<map proj1: [0,1] x [0,1] -> [0,1]>"
        assert all(repr(m).startswith(f"<map {m.name}: ") for m in maps.values())


@settings(max_examples=300, deadline=None)
@given(st.fractions(-20, 20, max_denominator=60), st.fractions(0, 20, max_denominator=60),
       st.none() | st.fractions(-10**6, 10**6, max_denominator=10**4), st.booleans())
def test_affine_map_matches_the_fraction_formula(offset, slope, x, enclosed):
    ext = IntervalSpace("ext_real_line")
    m = affine_map(ext, ext, offset, slope)
    assert m.name == f"affine({offset}+{slope}x)"
    if x is None:
        want = ExtReal(offset) if slope == 0 else INF
        assert m(INF) == want
        return
    point = ExtReal(x, Enclosure(x - 1, x + 1)) if enclosed else ExtReal(x)
    got = m(point)
    assert got.value == offset + slope * x and got.enclosure is None
    assert m(x) == got
