import itertools

import pytest
from hypothesis import given, strategies as st

from girycheck.meas import FiniteMeasurableSpace, generate_sigma_algebra


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
