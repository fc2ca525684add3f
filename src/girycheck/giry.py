"""Probability measures at desk scale: Dirac unit, mixtures, pushforward,
integration, the barycenter counit, monad multiplication, and the
isomorphism between measures and the generalized points they induce.

Measures are atomic with exact rational weights; a lazy geometric variant
covers the countably supported demos.  The space of measures on a fixed
finite measurable space is itself a super convex space and is checked
against the same axioms as every other instance.  The checkers of the
triangle identities and of the measure/functional roundtrip live here,
next to what they check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .meas import FiniteMeasurableSpace, indicator
from .numerics import (
    ExtReal,
    PartitionOfOne,
    UnsupportedRepresentation,
    as_ext,
    countable_combine,
    draw_int,
    map_terms,
    random_partition,
    terms,
)
from .scvx import SuperConvexSpace, describe


class BaseMismatch(Exception):
    pass


class NotAMeasure(Exception):
    """A functional's induced set function is not a probability measure."""


class ProbMeasure:
    """A finitely supported probability measure: the convex combination
    of the point masses at ``atoms`` with the weights of ``weights``.

    Built from ``(atom, weight)`` pairs, where the mass of an atom is
    ``weight / den``.  Every weight must be nonnegative; colliding atoms
    are merged, zero weights dropped and the atoms sorted.  ``weights`` is
    one finite partition of one with weight i on ``atoms[i-1]``, so
    equality and hashing are exact.  Its ``repr``, the sort key of a
    measure on measures, is made once.
    """

    _repr = None

    def __init__(self, support, base=None, den=1):
        if den < 1:
            raise ValueError("den must be a positive integer")
        merged: dict = {}
        for atom, w in support:
            try:
                if w < 0:
                    raise NotAMeasure(f"negative weight {Fraction(w, den)}")
            except TypeError:
                raise TypeError(f"atom {atom!r}: weight {w!r} is not an int "
                                f"or a Fraction") from None
            if w:
                merged[atom] = merged.get(atom, 0) + w
        if len(merged) > 1:
            merged = {a: merged[a] for a in sorted(merged, key=repr)}
        self.atoms = tuple(merged)
        try:
            self.weights = PartitionOfOne(dict(enumerate(merged.values(), start=1)),
                                          den=den)
        except ValueError as exc:
            raise NotAMeasure(str(exc)) from None
        except TypeError as exc:  # it names the weight by index, not by atom
            atom = next(a for a, w in merged.items() if not isinstance(w, (int, Fraction)))
            raise TypeError(f"atom {atom!r}: {exc}") from None
        self.base = base

    @property
    def support(self) -> tuple:
        """The ``(atom, Fraction)`` pairs, in atom order."""
        return tuple(zip(self.atoms, (w for _, w in self.weights.items())))

    def measure_of(self, mask: int) -> Fraction:
        """Probability of a measurable set of the base, given as its
        bitmask: ``base.mask_of(labels)`` makes one from labels."""
        if not isinstance(mask, int) or self.base is None:
            raise TypeError("measure_of takes a bitmask over the measure's base; "
                            "make one with base.mask_of(labels)")
        index = self.base.index
        parts = zip(self.atoms, self.weights.parts.values())
        return Fraction(sum(p for a, p in parts if mask >> index[a] & 1),
                        self.weights.den)

    def __eq__(self, other):
        if not isinstance(other, ProbMeasure):
            return NotImplemented
        return self.atoms == other.atoms and self.weights == other.weights

    def __hash__(self):
        return hash((self.atoms, self.weights))

    def to_json_obj(self) -> dict:
        return {
            "atoms": [{"atom": describe(a), "weight": str(w)} for a, w in self.support]
        }

    def __repr__(self):
        if self._repr is None:
            inner = " + ".join(f"{w}*d[{a!r}]" for a, w in self.support)
            self._repr = f"ProbMeasure({inner})"
        return self._repr


class LazyMeasure:
    """A countably supported measure given by a lazy partition of one and
    an atom generator ``atoms(i)``; used where a finite list cannot
    represent the support (geometric mixtures)."""

    def __init__(self, weights: PartitionOfOne, atoms, base=None):
        if weights.is_finite:
            raise ValueError("use ProbMeasure for finite support")
        self.weights = weights
        self.atoms = atoms
        self.base = base

    def __repr__(self):
        return "LazyMeasure(lazy weights)"


def dirac(x, base=None) -> ProbMeasure:
    """The unit: the point mass at x."""
    return ProbMeasure([(x, Fraction(1))], base=base)


def mixture(omega: PartitionOfOne, measures, base=None):
    """The convex mixture of measures with weights from a partition of
    one.  Finite support is merged exactly; a lazy partition over Dirac
    measures yields a lazy countably supported measure."""
    if omega.is_finite:
        picked = list(zip(omega.parts, terms(measures, omega.parts)))
        # equal spaces are one base, even when each was built on its own
        bases = [m.base for _, m in picked if m.base is not None]
        if any(b is not bases[0] and b != bases[0] for b in bases):
            raise BaseMismatch("mixture components live on different bases")
        if not all(m.weights.is_finite for _, m in picked):
            raise UnsupportedRepresentation(
                "finite mixture of lazy measures is not represented"
            )
        # omega_i * m_i(a) as integer parts over omega.den * lcm(m_i totals)
        scale = math.lcm(*[m.weights.den for _, m in picked])
        support = []
        for i, m in picked:
            f = omega.parts[i] * (scale // m.weights.den)
            for a, p in zip(m.atoms, m.weights.parts.values()):
                support.append((a, f * p))
        return ProbMeasure(support, base=bases[0] if bases else base,
                           den=omega.den * scale)

    def atom(m):
        if not isinstance(m, ProbMeasure) or len(m.atoms) != 1:
            raise UnsupportedRepresentation(
                "lazy mixtures are represented only over Dirac measures"
            )
        return m.atoms[0]

    return LazyMeasure(omega, map_terms(atom, measures), base=base)


def pushforward(P: ProbMeasure, m) -> ProbMeasure:
    """Transport atom weights through a map, merging collisions exactly."""
    return ProbMeasure(zip(map(m, P.atoms), P.weights.parts.values()),
                       den=P.weights.den)


def integrate(P, f, **certificates) -> ExtReal:
    """The integral of an extended-real-valued map against a measure:
    exact on finite support, certified enclosure or infinity on lazy
    support."""
    return countable_combine(P.weights, map_terms(f, P.atoms), **certificates)


def barycenter(A: SuperConvexSpace, P, **certificates):
    """The counit at A: A's combine of P's atoms with P's weights.  The
    ``naturality-epsilon`` law checks that affine maps carry it to the
    barycenter of the pushforward."""
    return A.combine(P.weights, P.atoms, **certificates)


class GirySpace(SuperConvexSpace):
    """The measures on a fixed finite measurable space, as a super convex
    space under mixtures."""

    def __init__(self, X: FiniteMeasurableSpace):
        self.X = X
        self.name = f"G({{{','.join(str(x) for x in X.carrier)}}})"

    def contains(self, P) -> bool:
        if not isinstance(P, ProbMeasure):
            return False
        return all(a in self.X.index for a in P.atoms)

    def eq(self, P, Q) -> bool:
        return P == Q

    def combine(self, omega, seq, **certificates):
        return mixture(omega, seq, base=self.X)

    def sample(self, rng: random.Random) -> ProbMeasure:
        n = len(self.X.carrier)
        k = draw_int(rng, 1, n)
        atoms = rng.sample(self.X.carrier, k)
        part = random_partition(rng, k)
        return ProbMeasure(zip(atoms, part.parts.values()), base=self.X, den=part.den)


def monad_mu(Q: ProbMeasure) -> ProbMeasure:
    """Flatten a measure on measures: the barycenter of Q inside the space
    of measures, i.e. the weighted mixture of its atom measures, which
    must share one base."""
    for m in Q.atoms:
        if not isinstance(m, ProbMeasure):
            raise BaseMismatch("monad_mu needs a measure whose atoms are measures")
    return mixture(Q.weights, Q.atoms)


class GeneralizedPoint:
    """A functional on affine maps: evaluation at a point, integration
    against a measure, or a raw functional (for mutants)."""

    def __init__(self, fn):
        self.fn = fn

    @classmethod
    def from_point(cls, a) -> "GeneralizedPoint":
        return cls(lambda m: m(a))

    def apply(self, m) -> ExtReal:
        return as_ext(self.fn(m))


def phi(P: ProbMeasure) -> GeneralizedPoint:
    """A measure as a generalized point: the functional m -> integral of m
    against P; on indicators it returns the measure of the set."""
    return GeneralizedPoint(lambda m: integrate(P, m))


def phi_inverse(J: GeneralizedPoint, X: FiniteMeasurableSpace) -> ProbMeasure:
    """Recover a measure from a generalized point via indicators: the set
    function U -> J(chi_U).  Raises NotAMeasure when the induced set
    function fails normalization, range, or additivity; the measure is
    returned supported on representatives of the sigma-algebra's minimal
    blocks."""
    values: dict[int, Fraction] = {}
    for u in sorted(X.sigma):
        v = J.apply(indicator(X, u)).value
        if v is None:
            raise NotAMeasure(f"J(chi_U) infinite on U={X.set_of(u)}")
        values[u] = v
    # the checks run on integer numerators over one common denominator
    den = math.lcm(*[v.denominator for v in values.values()])
    nums = {u: v.numerator * (den // v.denominator) for u, v in values.items()}
    if nums[0] != 0:
        raise NotAMeasure("J(chi_empty) != 0: not weakly averaging")
    if nums[X.full_mask] != den:
        raise NotAMeasure("J(chi_X) != 1: not weakly averaging")
    # the atom holding the lowest point of a union of atoms has the same
    # lowest point; splitting that atom off every set and checking the sum
    # is, by induction on the number of atoms, full additivity
    atoms = X.atoms_of_sigma()
    first_atom = {a & -a: a for a in atoms}
    for u, nu in nums.items():
        if not 0 <= nu <= den:
            raise NotAMeasure(f"J(chi_U)={values[u]} outside [0,1]")
        a = first_atom.get(u & -u, u)
        if a != u and nu != nums[a] + nums[u & ~a]:
            raise NotAMeasure(
                f"additivity fails on {X.set_of(a)} and {X.set_of(u & ~a)}"
            )
    support = [(X.set_of(a)[0], nums[a]) for a in atoms if nums[a]]
    return ProbMeasure(support, base=X, den=den)


# ---------------------------------------------------------------------------
# law checks on measures: each returns None when the law holds, or a witness


def check_triangle(P: ProbMeasure, A=None, a=None) -> dict | None:
    """The triangle identities: flattening the point mass at the measure P
    returns P, and, when a point a of the space A is given, the barycenter
    of the point mass at a is a."""
    back = monad_mu(dirac(P))
    recovered = None if A is None else barycenter(A, dirac(a))
    if back == P and (A is None or A.eq(recovered, a)):
        return None
    witness = {"measure": P.to_json_obj(), "flattened": back.to_json_obj()}
    if A is not None:
        witness.update(point=describe(a), recovered=describe(recovered))
    return witness


def check_phi_roundtrip(P: ProbMeasure) -> dict | None:
    """phi_inverse(phi(P)) is P, for P on a finite measurable space.  The
    two measures are compared by their mass on each atom of the
    sigma-algebra: phi_inverse may put an atom's mass on another label of
    the same atom."""
    X = P.base
    back = phi_inverse(phi(P), X)
    if all(back.measure_of(u) == P.measure_of(u) for u in X.atoms_of_sigma()):
        return None
    return {"measure": P.to_json_obj(), "roundtrip": back.to_json_obj()}
