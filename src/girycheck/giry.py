"""Probability measures at desk scale: Dirac unit, mixtures, pushforward,
integration, the barycenter counit, monad multiplication, and the
isomorphism between measures and the generalized points they induce.

Measures are finitely supported with exact rational weights; a countable
combination of points is a space's ``combine`` over a lazy partition, not
a measure.  The space of measures on a fixed finite measurable space is
itself a super convex space and is checked against the same axioms as
every other instance.  A generalized point
is any callable J(m) that returns an ``ExtReal`` for a map m into the
extended reals: ``evaluation(a)`` and ``phi(P)``.  The checkers of the
triangle identities and of the measure/functional roundtrip live here,
next to what they check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from operator import mul

from .meas import FiniteMeasurableSpace, indicator
from .numerics import (
    ExtReal,
    PartitionOfOne,
    UnsupportedRepresentation,
    as_ext,
    draw_indices,
    draw_int,
    draw_parts,
    ext_eq,
    terms,
    weighted_sum,
)
from .scvx import CarrierViolation, SuperConvexSpace, describe


class NotAMeasure(Exception):
    """A functional's induced set function is not a probability measure."""


class ProbMeasure:
    """A finitely supported probability measure: mass ``vec[i] / den`` at
    ``points[i]``, for int parts that sum to the reduced ``den``.

    Built from ``(atom, weight)`` pairs, an int or Fraction weight >= 0
    giving the atom mass ``weight / den``; colliding atoms are merged.  On
    a finite measurable space ``base``, ``points`` is its carrier, and an
    atom outside it is rejected; without a base, ``points`` are the atoms
    of positive mass in the order first given.  ``weights`` puts weight i
    on ``points[i-1]``.  Equality and hashing read the atom -> part map,
    which has no order, and the hash is made once; only ``to_json_obj``
    and ``repr`` list the atoms, in the ``repr`` order of their labels.
    The constructor checks outside input; ``on_base`` and ``of_atoms``
    build from int parts that are valid by construction, ``den`` being
    their sum, and the constructor ends in the build of one of them.
    """

    _weights = _hash = None

    def __init__(self, support, base=None, den=1):
        if den < 1:
            raise ValueError("den must be a positive integer")
        merged: dict = {}
        for atom, w in support:
            if not isinstance(w, (int, Fraction)):
                raise TypeError(f"atom {atom!r}: weight {w!r} is not an int or a Fraction")
            if w < 0:
                raise NotAMeasure(f"negative weight {Fraction(w, den)}")
            if w:
                merged[atom] = merged.get(atom, 0) + w
        try:
            weights = PartitionOfOne(dict(enumerate(merged.values(), start=1)), den)
        except ValueError as exc:
            raise NotAMeasure(str(exc)) from None
        parts = weights.parts.values()
        if base is None:
            self._store_atoms(zip(merged, parts))
            return
        vec = [0] * len(base.carrier)
        for atom, p in zip(merged, parts):
            i = base.index.get(atom)
            if i is None:
                raise NotAMeasure(f"atom {atom!r} is not a point of the base")
            vec[i] = p
        self._store_vec(base, vec)

    @classmethod
    def on_base(cls, base, vec) -> "ProbMeasure":
        """The measure on ``base`` with mass ``vec[i] / sum(vec)`` at
        ``base.carrier[i]``.  The caller guarantees nonnegative int parts,
        not all zero; they are reduced by their gcd."""
        P = cls.__new__(cls)
        P._store_vec(base, vec)
        return P

    @classmethod
    def of_atoms(cls, pairs) -> "ProbMeasure":
        """The measure without a base with mass ``p / den`` at the atom of
        each ``(atom, p)`` pair, ``den`` being the sum of the p.  The caller
        guarantees int parts p >= 0, not all zero; colliding atoms are
        merged, the atoms of positive mass kept in the order first given,
        and the parts reduced by their gcd."""
        P = cls.__new__(cls)
        P._store_atoms(pairs)
        return P

    def _store_vec(self, base, vec):
        g = math.gcd(*vec)
        if g > 1:
            vec = [p // g for p in vec]
        self.base, self.points, self.den, self.vec = base, base.carrier, sum(vec), tuple(vec)

    def _store_atoms(self, pairs):
        merged: dict = {}
        for atom, p in pairs:
            if p:
                merged[atom] = merged.get(atom, 0) + p
        parts = merged.values()
        g = math.gcd(*parts)
        if g > 1:
            parts = [p // g for p in parts]
        self.base, self.points, self.den, self.vec = None, tuple(merged), sum(parts), tuple(parts)

    def _listing(self) -> dict:
        """``{atom: part}`` over the points of positive mass."""
        return {a: p for a, p in zip(self.points, self.vec) if p}

    @property
    def weights(self) -> PartitionOfOne:
        """The masses as one finite partition of one, weight i on ``points[i-1]``."""
        if self._weights is None:
            self._weights = PartitionOfOne.of_parts(dict(enumerate(self.vec, start=1)))
        return self._weights

    def measure_of(self, mask: int) -> ExtReal:
        """Probability of a measurable set of the base, given as its
        bitmask: ``base.mask_of(labels)`` makes one from labels."""
        if not isinstance(mask, int) or self.base is None:
            raise TypeError("measure_of takes a bitmask over the measure's base; "
                            "make one with base.mask_of(labels)")
        return ExtReal.ratio(sum(p for i, p in enumerate(self.vec) if mask >> i & 1),
                             self.den)

    def __eq__(self, other):
        if not isinstance(other, ProbMeasure):
            return NotImplemented
        # over one list of distinct points, the parts are the measure
        if self.points is other.points or self.points == other.points:
            return self.vec == other.vec
        return self.den == other.den and self._listing() == other._listing()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._listing().items()))
        return self._hash

    def _masses(self) -> list:
        """``(atom, mass)`` pairs in the ``repr`` order of the atoms, each
        mass as printed."""
        listing = sorted(self._listing().items(), key=lambda item: repr(item[0]))
        return [(a, ExtReal.ratio(p, self.den).to_json()) for a, p in listing]

    def to_json_obj(self) -> dict:
        return {"atoms": [{"atom": describe(a), "weight": w} for a, w in self._masses()]}

    def __repr__(self):
        inner = " + ".join(f"{w}*d[{a!r}]" for a, w in self._masses())
        return f"ProbMeasure({inner})"


def dirac(x, base=None) -> ProbMeasure:
    """The unit: the point mass at x, which must be a point of ``base``
    when one is given."""
    if base is None:
        return ProbMeasure.of_atoms([(x, 1)])
    i = base.index.get(x)
    if i is None:
        raise NotAMeasure(f"atom {x!r} is not a point of the base")
    vec = [0] * len(base.carrier)
    vec[i] = 1
    return ProbMeasure.on_base(base, vec)


def mixture(omega: PartitionOfOne, measures, base=None) -> ProbMeasure:
    """The convex mixture of measures with weights from a finite partition
    of one.  The measures share one base, ``base`` if given, and mix as an
    integer matrix-vector product of their vectors; or none has a base,
    and their supports are merged exactly.  Any other mix raises
    ``CarrierViolation``.  A lazy partition raises ``UnsupportedRepresentation``:
    a countable mixture of measures is not a finite measure."""
    if not omega.is_finite:
        raise UnsupportedRepresentation("a mixture of measures needs a finite partition of one")
    ms = list(terms(measures, omega.parts))
    X = ms[0].base if base is None else base
    for m in ms:  # equal spaces are one base, even when built apart
        if m.base is not X and m.base != X:
            raise CarrierViolation("mixture components live on different bases")
    # omega_i * m_i(a) as integer parts over omega.den * lcm(m_i dens)
    dens = [m.den for m in ms]
    scale = math.lcm(*dens)
    factors = [w * (scale // d) for w, d in zip(omega.parts.values(), dens)]
    if X is None:
        return ProbMeasure.of_atoms([(a, f * p) for f, m in zip(factors, ms)
                                     for a, p in zip(m.points, m.vec)])
    vec = [sum(map(mul, factors, column)) for column in zip(*[m.vec for m in ms])]
    return ProbMeasure.on_base(X, vec)


def pushforward(P: ProbMeasure, m) -> ProbMeasure:
    """Transport atom weights through a map, merging collisions exactly."""
    return ProbMeasure.of_atoms([(m(x), p) for x, p in zip(P.points, P.vec) if p])


def integrate(P: ProbMeasure, f) -> ExtReal:
    """The integral of an extended-real-valued map against a measure, exact:
    f is read at the points of positive mass."""
    return weighted_sum([(p, f(x)) for p, x in zip(P.vec, P.points) if p], P.den)


def barycenter(A: SuperConvexSpace, P: ProbMeasure):
    """The counit at A: A's combine of P's points with P's weights.  The
    ``naturality-epsilon`` law checks that affine maps carry it to the
    barycenter of the pushforward."""
    return A.combine(P.weights, P.points)


class GirySpace(SuperConvexSpace):
    """The measures on a fixed finite measurable space, as a super convex
    space under mixtures."""

    def __init__(self, X: FiniteMeasurableSpace):
        self.X = X
        self.name = f"G({{{','.join(str(x) for x in X.carrier)}}})"

    def contains(self, P) -> bool:
        """Exactly what ``combine`` takes: a measure on X or on a space equal
        to X."""
        return isinstance(P, ProbMeasure) and (P.base is self.X or P.base == self.X)

    def eq(self, P, Q) -> bool:
        """Agreement on every atom of the sigma-algebra, whichever label of
        an atom carries its mass: structural equality on a powerset, which
        answers first; a value that is not a member equals no other."""
        return P == Q or (self.contains(P) and self.contains(Q) and all(
            ext_eq(P.measure_of(a), Q.measure_of(a)) for a in self.X.atoms))

    def combine(self, omega, seq, **certificates):
        return mixture(omega, seq, base=self.X)

    def sample(self, rng: random.Random) -> ProbMeasure:
        # the draws of rng.sample(carrier, k), then of random_partition(rng, k)
        n = len(self.X.carrier)
        vec = [0] * n
        k = draw_int(rng, 1, n)
        for i, p in zip(draw_indices(rng, n, k), draw_parts(rng, k)):
            vec[i] = p
        return ProbMeasure.on_base(self.X, vec)


def monad_mu(Q: ProbMeasure) -> ProbMeasure:
    """Flatten a measure on measures: the barycenter of Q inside the space
    of measures, i.e. the weighted mixture of its atom measures, which
    must share one base."""
    for m in Q.points:
        if not isinstance(m, ProbMeasure):
            raise CarrierViolation("monad_mu needs a measure whose atoms are measures")
    return mixture(Q.weights, Q.points)


def evaluation(a):
    """A point as a generalized point: the functional m -> m(a)."""
    return lambda m: as_ext(m(a))


def phi(P: ProbMeasure):
    """A measure as a generalized point: the functional m -> integral of m
    against P; on indicators it returns the measure of the set."""
    return partial(integrate, P)


def phi_inverse(J, X: FiniteMeasurableSpace) -> ProbMeasure:
    """Recover a measure from a generalized point J via indicators: the set
    function U -> J(chi_U).  Raises NotAMeasure when the induced set
    function fails normalization, range, or additivity; the measure is
    returned supported on representatives of the sigma-algebra's minimal
    blocks."""
    values: dict[int, ExtReal] = {}
    for u in sorted(X.sigma):
        v = J(indicator(X, u))
        if v.num is None:
            raise NotAMeasure(f"J(chi_U) infinite on U={X.set_of(u)}")
        values[u] = v
    # the checks run on integer numerators over one common denominator
    den = math.lcm(*[v.den for v in values.values()])
    nums = {u: v.num * (den // v.den) for u, v in values.items()}
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
            raise NotAMeasure(f"J(chi_U)={values[u].value} outside [0,1]")
        a = first_atom.get(u & -u, u)
        if a != u and nu != nums[a] + nums[u & ~a]:
            raise NotAMeasure(
                f"additivity fails on {X.set_of(a)} and {X.set_of(u & ~a)}"
            )
    support = [(X.set_of(a)[0], nums[a]) for a in atoms if nums[a]]
    return ProbMeasure(support, base=X, den=den)


# ---------------------------------------------------------------------------
# law checks on measures: each returns None when the law holds, or a witness


def check_triangle(GX: GirySpace, P: ProbMeasure, A=None, a=None) -> dict | None:
    """The triangle identities: flattening the point mass at P, a member
    of GX, returns P in GX, and, when a point a of the space A is given,
    the barycenter of the point mass at a is a."""
    back = monad_mu(dirac(P))
    recovered = None if A is None else barycenter(A, dirac(a))
    if GX.eq(back, P) and (A is None or A.eq(recovered, a)):
        return None
    witness = {"measure": P.to_json_obj(), "flattened": back.to_json_obj()}
    if A is not None:
        witness.update(point=describe(a), recovered=describe(recovered))
    return witness


def check_phi_roundtrip(GX: GirySpace, P: ProbMeasure) -> dict | None:
    """phi_inverse(phi(P)) is P in GX = G(X), for P a member of GX:
    phi_inverse may put an atom's mass on another label of the atom."""
    back = phi_inverse(phi(P), GX.X)
    if GX.eq(back, P):
        return None
    return {"measure": P.to_json_obj(), "roundtrip": back.to_json_obj()}
