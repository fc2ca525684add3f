import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from girycheck.meas import (
    FiniteMeasurableSpace,
    InfiniteCarrier,
    generate_sigma_algebra,
    indicator,
    is_measurable,
    sigma_functor,
)
from girycheck.numerics import as_ext

F = Fraction


def brute_force_closure(carrier, generators):
    """Oracle by a different route: on a finite carrier the generated
    sigma-algebra is exactly the set of unions of the generator-signature
    equivalence classes.  Enumerates all unions; carriers <= 6."""
    classes = {}
    for x in carrier:
        signature = tuple(x in g for g in generators)
        classes.setdefault(signature, []).append(x)
    blocks = list(classes.values())
    index = {x: i for i, x in enumerate(carrier)}
    masks = set()
    for chosen in itertools.product([False, True], repeat=len(blocks)):
        m = 0
        for pick, block in zip(chosen, blocks):
            if pick:
                for x in block:
                    m |= 1 << index[x]
        masks.add(m)
    return frozenset(masks)


class TestGenerateSigmaAlgebra:
    def test_single_generator_two_points(self):
        space = generate_sigma_algebra(["a", "b"], [["a"]])
        assert space.sigma == frozenset({0b00, 0b01, 0b10, 0b11})

    def test_no_generators_gives_trivial(self):
        space = generate_sigma_algebra(["a", "b", "c"], [])
        assert space.sigma == frozenset({0, 0b111})

    def test_two_generators_give_full_powerset(self):
        space = generate_sigma_algebra([1, 2, 3], [[1], [1, 2]])
        assert space.sigma == frozenset(range(8))

    def test_matches_brute_force_oracle(self):
        carrier = ["a", "b", "c"]
        for generators in ([["a"]], [["a", "b"]], [["a"], ["b"]], []):
            got = generate_sigma_algebra(carrier, generators)
            assert got.sigma == brute_force_closure(carrier, generators)

    def test_idempotent(self):
        space = generate_sigma_algebra(["a", "b", "c"], [["a"]])
        again = generate_sigma_algebra(space.carrier, list(space.sigma))
        assert again.sigma == space.sigma

    def test_monotone_in_generators(self):
        small = generate_sigma_algebra(list("abcd"), [["a"]])
        large = generate_sigma_algebra(list("abcd"), [["a"], ["b", "c"]])
        assert small.sigma <= large.sigma


class TestFiniteMeasurableSpace:
    @pytest.mark.parametrize("atoms, message", [
        ([0b000, 0b111], "nonempty"),
        ([0b011, 0b110], "disjoint"),
        ([0b001, 0b010], "cover"),
        ([0b011, 0b100, 0b1000], "outside"),
    ], ids=["empty-atom", "overlapping", "missed-point", "bit-outside"])
    def test_invalid_family_rejected(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            FiniteMeasurableSpace(["a", "b", "c"], atoms)

    def test_atoms_are_stored_sorted(self):
        space = FiniteMeasurableSpace(["a", "b", "c"], [0b110, 0b001])
        assert space.atoms_of_sigma() == (0b001, 0b110)
        assert space == FiniteMeasurableSpace(["a", "b", "c"], [0b001, 0b110])
        assert repr(space) == "<FiniteMeasurableSpace |X|=3 |sigma|=4>"

    def test_powerset_and_trivial(self):
        assert len(FiniteMeasurableSpace.powerset("abc").sigma) == 8
        assert len(FiniteMeasurableSpace.trivial("abc").sigma) == 2

    def test_sigma_atoms_partition_carrier(self):
        space = generate_sigma_algebra(list("abcd"), [["a", "b"]])
        atoms = space.atoms_of_sigma()
        assert sorted(space.set_of(a) for a in atoms) == [["a", "b"], ["c", "d"]]


class TestSigmaFunctor:
    def test_injective_map_gives_powerset(self):
        space = sigma_functor(["p", "q"], [lambda x: F(1) if x == "p" else F(0)])
        assert space.sigma == frozenset(range(4))

    def test_constant_map_gives_trivial(self):
        space = sigma_functor(list("abc"), [lambda x: F(1, 2)])
        assert len(space.sigma) == 2

    def test_crossing_fibers_join(self):
        # two maps on 4 points whose fiber partitions cross
        carrier = [0, 1, 2, 3]
        m1 = lambda x: F(x // 2)   # fibers {0,1} {2,3}
        m2 = lambda x: F(x % 2)    # fibers {0,2} {1,3}
        space = sigma_functor(carrier, [m1, m2])
        oracle = generate_sigma_algebra(carrier, [[0, 1], [2, 3], [0, 2], [1, 3]])
        assert space.sigma == oracle.sigma

    def test_generating_maps_become_measurable(self):
        carrier = list("abcde")
        m = lambda x: F(ord(x) % 3)
        space = sigma_functor(carrier, [m])
        assert is_measurable(m, space)

    def test_minimality_against_other_admitting_algebras(self):
        carrier = list("abcd")
        m = lambda x: F(1) if x in "ab" else F(0)
        space = sigma_functor(carrier, [m])
        # any sigma-algebra making m measurable must contain this one
        finer = generate_sigma_algebra(carrier, [["a", "b"], ["a"]])
        assert space.sigma <= finer.sigma

    def test_infinite_carrier_rejected(self):
        with pytest.raises(InfiniteCarrier):
            sigma_functor(itertools.count(), [lambda x: F(0)])

    def test_carrier_without_len_rejected_with_the_rule(self):
        # a finite generator cannot be told from an endless one without
        # consuming it, so the message names the type and the way out
        with pytest.raises(InfiniteCarrier, match="generator") as exc:
            sigma_functor((x for x in "ab"), [lambda x: F(0)])
        assert "list" in str(exc.value)


class TestIsMeasurable:
    def test_identity_measurable(self):
        space = generate_sigma_algebra(list("abc"), [["a"]])
        assert is_measurable(lambda x: x, space, space)

    def test_indicator_of_measurable_set(self):
        space = generate_sigma_algebra(list("abc"), [["a"]])
        chi = indicator(space, space.mask_of(["a"]))
        assert is_measurable(chi, space)

    def test_indicator_of_non_measurable_set(self):
        space = FiniteMeasurableSpace.trivial(list("abc"))
        chi = indicator(space, space.mask_of(["a"]))
        assert not is_measurable(chi, space)

    def test_coarsening_map_to_finer_target_fails(self):
        src = FiniteMeasurableSpace.trivial(["a", "b"])
        tgt = FiniteMeasurableSpace.powerset(["a", "b"])
        assert not is_measurable(lambda x: x, src, tgt)


@st.composite
def generated_spaces(draw):
    """A carrier of at most 6 points and generators, each given either as
    a mask or as a list of labels."""
    n = draw(st.integers(0, 6))
    carrier = [f"p{i}" for i in range(n)]
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    as_labels = draw(st.lists(st.booleans(), min_size=len(masks),
                              max_size=len(masks)))
    labels = [[x for i, x in enumerate(carrier) if m >> i & 1] for m in masks]
    generators = [g if lab else m for g, m, lab in zip(labels, masks, as_labels)]
    return carrier, generators, labels


@given(generated_spaces())
def test_generated_sigma_matches_brute_force_closure(case):
    carrier, generators, labels = case
    space = generate_sigma_algebra(carrier, generators)
    assert space.sigma == brute_force_closure(carrier, labels)


def measurable_by_definition(f, src, tgt) -> bool:
    """Oracle by the definition: the preimage of every measurable target
    set (of every fiber, for the extended-real target None) is a
    measurable source set."""

    def preimage(member):
        return src.mask_of([x for x in src.carrier if member(f(x))])

    if tgt is None:
        fibers = {as_ext(f(x)) for x in src.carrier}
        tests = [lambda y, v=v: as_ext(y) == v for v in fibers]
    else:
        tests = [lambda y, v=v: v >> tgt.index[y] & 1 for v in tgt.sigma]
    return all(preimage(member) in src.sigma for member in tests)


@st.composite
def spaces(draw, labels):
    """A random sigma-algebra on ``labels``: each point draws one of k
    blocks, so coarse and fine partitions are both common."""
    k = draw(st.integers(1, len(labels)))
    blocks = draw(st.lists(st.integers(0, k - 1),
                           min_size=len(labels), max_size=len(labels)))
    atoms: dict = {}
    for i, b in enumerate(blocks):
        atoms[b] = atoms.get(b, 0) | 1 << i
    return FiniteMeasurableSpace(labels, atoms.values())


@st.composite
def random_maps(draw):
    src = draw(spaces([f"s{i}" for i in range(draw(st.integers(1, 5)))]))
    if draw(st.booleans()):
        tgt = None
        values = st.sampled_from([F(0), F(1, 2), F(1), F(7, 3)])
    else:
        tgt = draw(spaces([f"t{i}" for i in range(draw(st.integers(1, 5)))]))
        values = st.sampled_from(tgt.carrier)
    table = {x: draw(values) for x in src.carrier}
    return table.__getitem__, src, tgt


@given(random_maps())
def test_is_measurable_matches_preimage_definition(case):
    assert is_measurable(*case) == measurable_by_definition(*case)
