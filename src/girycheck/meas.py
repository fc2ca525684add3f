"""Finite measurable spaces stored as the atoms of their sigma-algebras,
sigma-algebra generation by splitting the carrier on generators, and the
indicator of a subset.

On a finite carrier a sigma-algebra is exactly a partition of the carrier
into atoms; its measurable sets are the unions of atoms.  Subsets are
encoded as membership bitmasks over the indexed carrier, so all set
algebra is exact.
"""

from __future__ import annotations


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


def indicator(space: FiniteMeasurableSpace, mask: int):
    """The characteristic function of a subset, into the extended reals,
    as the ints 0 and 1."""
    index = space.index
    return lambda x: mask >> index[x] & 1
