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
from operator import mul

from .meas import FiniteMeasurableSpace, indicator
from .numerics import (
    ExtReal,
    PartitionOfOne,
    UnsupportedRepresentation,
    as_ext,
    countable_combine,
    draw_int,
    map_terms,
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
    are merged and zero weights dropped.  The masses are the integer
    ``parts`` over one reduced ``den``, listed with the ``atoms`` in the
    ``repr`` order of the labels.  A measure on a finite measurable space
    ``base`` stores only ``vec``, the part of each carrier position, and
    derives the rest from it on first use; an atom outside the carrier is
    rejected.  A measure without a base stores its atoms and ``weights``,
    one finite partition of one with weight i on ``atoms[i-1]``.
    Equality and hashing are exact; the hash and the ``repr``, the sort
    key of a measure on measures, are made once.
    """

    _atoms = _weights = _repr = _hash = None

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
        try:
            weights = PartitionOfOne(dict(enumerate(merged.values(), start=1)),
                                     den=den)
        except ValueError as exc:
            raise NotAMeasure(str(exc)) from None
        except TypeError as exc:  # it names the weight by index, not by atom
            atom = next(a for a, w in merged.items() if not isinstance(w, (int, Fraction)))
            raise TypeError(f"atom {atom!r}: {exc}") from None
        self.base = base
        self.den = weights.den
        if base is None:
            self._atoms, self._weights = tuple(merged), weights
            return
        vec = [0] * len(base.carrier)
        for atom, p in zip(merged, weights.parts.values()):
            i = base.index.get(atom)
            if i is None:
                raise NotAMeasure(f"atom {atom!r} is not a point of the base")
            vec[i] = p
        self.vec = tuple(vec)

    @classmethod
    def on_base(cls, base, vec, den) -> "ProbMeasure":
        """The measure on ``base`` with mass ``vec[i] / den`` at
        ``base.carrier[i]``.  The caller guarantees nonnegative int parts
        that sum to ``den``; they are reduced by their gcd."""
        P = cls.__new__(cls)
        g = math.gcd(den, *vec)
        if g > 1:
            vec = [p // g for p in vec]
            den //= g
        P.base, P.den, P.vec = base, den, tuple(vec)
        return P

    @property
    def atoms(self) -> tuple:
        """The points of positive mass, in the ``repr`` order of their labels."""
        if self._atoms is None:
            vec, carrier = self.vec, self.base.carrier
            self._atoms = tuple(carrier[i] for i in self.base.repr_order if vec[i])
        return self._atoms

    @property
    def parts(self) -> tuple:
        """The integer parts of the atoms over ``den``, in atom order."""
        if self.base is None:
            return tuple(self._weights.parts.values())
        vec = self.vec
        return tuple(vec[i] for i in self.base.repr_order if vec[i])

    @property
    def weights(self) -> PartitionOfOne:
        """The masses as one finite partition of one, weight i on ``atoms[i-1]``."""
        if self._weights is None:
            self._weights = PartitionOfOne(dict(enumerate(self.parts, start=1)),
                                           den=self.den)
        return self._weights

    @property
    def support(self) -> tuple:
        """The ``(atom, Fraction)`` pairs, in atom order."""
        den = self.den
        return tuple(zip(self.atoms, (Fraction(p, den) for p in self.parts)))

    def measure_of(self, mask: int) -> Fraction:
        """Probability of a measurable set of the base, given as its
        bitmask: ``base.mask_of(labels)`` makes one from labels."""
        if not isinstance(mask, int) or self.base is None:
            raise TypeError("measure_of takes a bitmask over the measure's base; "
                            "make one with base.mask_of(labels)")
        return Fraction(sum(p for i, p in enumerate(self.vec) if mask >> i & 1),
                        self.den)

    def __eq__(self, other):
        if not isinstance(other, ProbMeasure):
            return NotImplemented
        if self.den != other.den:
            return False
        a, b = self.base, other.base
        if a is not None and b is not None and (a is b or a.carrier == b.carrier):
            return self.vec == other.vec
        return self.atoms == other.atoms and self.parts == other.parts

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.atoms, self.parts))
        return self._hash

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
    return ProbMeasure([(x, 1)], base=base)


def mixture(omega: PartitionOfOne, measures, base=None):
    """The convex mixture of measures with weights from a partition of
    one.  Measures on one base mix as an integer matrix-vector product of
    their vectors, other finite supports are merged exactly, and a lazy
    partition over Dirac measures yields a lazy countably supported
    measure."""
    if omega.is_finite:
        ms = list(terms(measures, omega.parts))
        bases = [m.base for m in ms if m.base is not None]
        X = bases[0] if bases else base
        for b in bases:  # equal spaces are one base, even when built apart
            if b is not X and b != X:
                raise BaseMismatch("mixture components live on different bases")
        try:
            dens = [m.den for m in ms]
        except AttributeError:  # a LazyMeasure has no den
            raise UnsupportedRepresentation(
                "finite mixture of lazy measures is not represented"
            ) from None
        # omega_i * m_i(a) as integer parts over omega.den * lcm(m_i dens)
        scale = math.lcm(*dens)
        factors = [w * (scale // d) for w, d in zip(omega.parts.values(), dens)]
        den = omega.den * scale
        if len(bases) == len(ms):
            # one base: an integer matrix-vector product
            vec = [sum(map(mul, factors, column)) for column in zip(*[m.vec for m in ms])]
            return ProbMeasure.on_base(X, vec, den)
        support = [(a, f * p) for f, m in zip(factors, ms)
                   for a, p in zip(m.atoms, m.parts)]
        return ProbMeasure(support, base=X, den=den)

    def atom(m):
        if not isinstance(m, ProbMeasure) or len(m.atoms) != 1:
            raise UnsupportedRepresentation(
                "lazy mixtures are represented only over Dirac measures"
            )
        return m.atoms[0]

    return LazyMeasure(omega, map_terms(atom, measures), base=base)


def pushforward(P: ProbMeasure, m) -> ProbMeasure:
    """Transport atom weights through a map, merging collisions exactly."""
    return ProbMeasure(zip(map(m, P.atoms), P.parts), den=P.den)


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
        # the draws of rng.sample(carrier, k), then of random_partition(rng, k)
        n = len(self.X.carrier)
        vec = [0] * n
        for i in rng.sample(range(n), draw_int(rng, 1, n)):
            vec[i] = draw_int(rng, 1, 1000)
        return ProbMeasure.on_base(self.X, vec, sum(vec))


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
