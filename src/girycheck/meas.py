"""Finite measurable spaces stored as the atoms of their sigma-algebras,
sigma-algebra generation by splitting the carrier on generators,
measurable maps, and the sigma-algebra a finite-carrier super convex space
inherits from a generating family of affine maps into the extended reals.

On a finite carrier a sigma-algebra is exactly a partition of the carrier
into atoms; its measurable sets are the unions of atoms.  Subsets are
encoded as membership bitmasks over the indexed carrier, so all set
algebra is exact.
"""

from __future__ import annotations

from functools import cached_property

from .numerics import as_ext


class InfiniteCarrier(Exception):
    pass


class FiniteMeasurableSpace:
    """A finite carrier with the atoms of its sigma-algebra.

    ``carrier`` is a list of hashable labels; ``atoms`` nonempty, disjoint
    bitmasks over carrier positions that cover the carrier.  Any such
    partition is a sigma-algebra, so the partition check is the only
    validation.
    """

    def __init__(self, carrier, atoms):
        self.carrier = list(carrier)
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier labels must be distinct")
        self.index = {x: i for i, x in enumerate(self.carrier)}
        self.full_mask = (1 << len(self.carrier)) - 1
        self.atoms = tuple(sorted(atoms))
        covered = 0
        for a in self.atoms:
            if a <= 0:
                raise ValueError("atoms must be nonempty")
            if a & ~self.full_mask:
                raise ValueError("atom outside the carrier")
            if a & covered:
                raise ValueError("atoms must be disjoint")
            covered |= a
        if covered != self.full_mask:
            raise ValueError("atoms must cover the carrier")

    @classmethod
    def powerset(cls, carrier) -> "FiniteMeasurableSpace":
        carrier = list(carrier)
        return cls(carrier, [1 << i for i in range(len(carrier))])

    @classmethod
    def trivial(cls, carrier) -> "FiniteMeasurableSpace":
        carrier = list(carrier)
        return cls(carrier, [(1 << len(carrier)) - 1] if carrier else [])

    @property
    def sigma(self) -> frozenset[int]:
        """Every measurable set: the 2**len(atoms) unions of atoms."""
        unions = [0]
        for a in self.atoms:
            unions += [u | a for u in unions]
        return frozenset(unions)

    def mask_of(self, subset) -> int:
        m = 0
        for x in subset:
            m |= 1 << self.index[x]
        return m

    def set_of(self, mask: int) -> list:
        return [x for i, x in enumerate(self.carrier) if mask >> i & 1]

    @cached_property
    def repr_order(self) -> tuple[int, ...]:
        """The carrier positions in the ``repr`` order of their labels: the
        order in which a measure on this space lists its atoms."""
        carrier = self.carrier
        return tuple(sorted(range(len(carrier)), key=lambda i: repr(carrier[i])))

    def atoms_of_sigma(self) -> tuple[int, ...]:
        """The minimal nonempty measurable sets; they partition the carrier."""
        return self.atoms

    def __eq__(self, other):
        if not isinstance(other, FiniteMeasurableSpace):
            return NotImplemented
        return self.carrier == other.carrier and self.atoms == other.atoms

    def __hash__(self):
        return hash((tuple(self.carrier), self.atoms))

    def __repr__(self):
        return (f"<FiniteMeasurableSpace |X|={len(self.carrier)} "
                f"|sigma|={2 ** len(self.atoms)}>")


def generate_sigma_algebra(carrier, generators) -> FiniteMeasurableSpace:
    """The smallest sigma-algebra on ``carrier`` containing ``generators``
    (given as label subsets or masks).  Its atoms group the points that
    lie in exactly the same generators: each generator splits every block
    into the part inside it and the part outside."""
    space = FiniteMeasurableSpace.trivial(carrier)
    atoms = space.atoms
    for g in generators:
        m = g if isinstance(g, int) else space.mask_of(g)
        if m & ~space.full_mask:
            raise ValueError("generator outside the carrier")
        atoms = [part for a in atoms for part in (a & m, a & ~m) if part]
    return FiniteMeasurableSpace(space.carrier, atoms)


def sigma_functor(carrier, generating_maps) -> FiniteMeasurableSpace:
    """The measurable space a finite carrier inherits from maps into the
    extended reals: the sigma-algebra generated by the maps' fiber
    partitions (equivalent, on a finite carrier, to generating by
    preimages of Borel sets).  The carrier must have a ``len()``: an
    iterator without one, finite or not, raises InfiniteCarrier, so pass
    ``list(...)`` of a finite one."""
    if not hasattr(carrier, "__len__"):
        raise InfiniteCarrier(
            f"sigma_functor needs a finite carrier with a len(), got a "
            f"{type(carrier).__name__}; pass list(...) of a finite one"
        )
    carrier = list(carrier)
    generators = []
    for m in generating_maps:
        fibers: dict = {}
        for x in carrier:
            v = as_ext(m(x))
            fibers.setdefault(v, []).append(x)
        generators.extend(fibers.values())
    return generate_sigma_algebra(carrier, generators)


def is_measurable(f, source: FiniteMeasurableSpace, target=None) -> bool:
    """True iff ``f`` sends each atom of ``source`` into one atom of
    ``target``, so every preimage of a measurable set is measurable.  A
    ``target`` of None is the extended real line, whose Borel sets
    separate points: f must be constant on each source atom."""
    if target is None:
        block = as_ext
    else:
        block = lambda y: next(a for a in target.atoms if a >> target.index[y] & 1)
    return all(len({block(f(x)) for x in source.set_of(a)}) == 1 for a in source.atoms)


def indicator(space: FiniteMeasurableSpace, mask: int):
    """The characteristic function of a subset, into the extended reals,
    as the ints 0 and 1."""
    index = space.index
    return lambda x: mask >> index[x] & 1
