"""Super convex spaces: the combine interface, interval and product
instances, countably affine maps, and checkers for the two structure
axioms and the morphism law.  Each checker takes an instance and a seeded
generator, checks one sampled case and returns None or a witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import itemgetter

from .numerics import (
    DEFAULT_TOLERANCE,
    ExtReal,
    INF,
    PartitionOfOne,
    as_ext,
    compose_partitions,
    countable_combine,
    dirac_partition,
    draw_int,
    ext_eq,
    map_terms,
    random_partition,
)

DEFAULT_DEPTH = 8  # length of the sampled sequences the checkers combine


class CarrierViolation(Exception):
    """A combine result left the carrier (the input was not from the space)."""


class ArityMismatch(Exception):
    pass


class SuperConvexSpace:
    """A set with one operation: combine a countable partition of one with
    a sequence of elements.  Instances supply membership, equality and
    sampling from a seeded generator; the axioms are checked, not assumed."""

    name = "abstract"

    def contains(self, x) -> bool:
        raise NotImplementedError

    def eq(self, x, y) -> bool:
        raise NotImplementedError

    def combine(self, omega: PartitionOfOne, seq, **certificates):
        raise NotImplementedError

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class IntervalSpace(SuperConvexSpace):
    """[0,1], (0,1), or the extended real line, with combine delegated to
    the certified countable combination.  Elements are ExtReal."""

    KINDS = ("closed_unit", "open_unit", "ext_real_line")

    def __init__(self, kind: str, tolerance: Fraction = DEFAULT_TOLERANCE):
        if kind not in self.KINDS:
            raise ValueError(f"unknown interval kind {kind!r}")
        self.kind = kind
        self.tolerance = Fraction(tolerance)
        self.name = {"closed_unit": "[0,1]", "open_unit": "(0,1)",
                     "ext_real_line": "R-inf"}[kind]

    def contains(self, x) -> bool:
        x = as_ext(x)
        if x is NotImplemented:
            return False
        if self.kind == "ext_real_line":
            return True
        if x.is_inf:
            return False
        # every value the enclosure, if any, leaves possible
        enc = x.enclosure
        lo, hi = (x.value, x.value) if enc is None else (enc.lower, enc.upper)
        if self.kind == "closed_unit":
            return 0 <= lo and hi <= 1
        return 0 < lo and hi < 1

    def eq(self, x, y) -> bool:
        return ext_eq(x, y, self.tolerance)

    def combine(self, omega, seq, **certificates):
        if self.kind != "ext_real_line":
            # the terms lie in [0,1], so the unscanned tail does too
            certificates.setdefault("within", (0, 1))
        result = countable_combine(omega, seq, **certificates)
        if not self.contains(result):
            raise CarrierViolation(
                f"combine result {result!r} is not a point of {self.name}"
            )
        return result

    def sample(self, rng: random.Random) -> ExtReal:
        if self.kind == "closed_unit":
            d = draw_int(rng, 1, 32)
            return ExtReal(Fraction(draw_int(rng, 0, d), d))
        if self.kind == "open_unit":
            d = draw_int(rng, 3, 33)
            return ExtReal(Fraction(draw_int(rng, 1, d - 1), d))
        if rng.random() < 0.15:
            return INF
        return ExtReal(Fraction(draw_int(rng, -160, 160), draw_int(rng, 1, 16)))


class ProductSpace(SuperConvexSpace):
    """Finite product of super convex spaces; elements are tuples and the
    combine acts componentwise."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        self.factors = factors
        self.name = " x ".join(f.name for f in factors)

    def _check_arity(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise ArityMismatch(f"expected {len(self.factors)}-tuple, got {x!r}")
        return x

    def contains(self, x) -> bool:
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            return False
        return all(f.contains(c) for f, c in zip(self.factors, x))

    def eq(self, x, y) -> bool:
        self._check_arity(x)
        self._check_arity(y)
        return all(f.eq(a, b) for f, a, b in zip(self.factors, x, y))

    def combine(self, omega, seq, **certificates):
        seq = map_terms(self._check_arity, seq)
        return tuple(
            f.combine(omega, map_terms(itemgetter(k), seq), **certificates)
            for k, f in enumerate(self.factors)
        )

    def sample(self, rng: random.Random):
        return tuple(f.sample(rng) for f in self.factors)


class CountablyAffineMap:
    """A map between super convex spaces expected to preserve countable
    convex combinations; check_morphism tests the claim."""

    def __init__(self, source: SuperConvexSpace, target: SuperConvexSpace,
                 fn, name: str = "map"):
        if source is None or target is None:
            raise TypeError(f"map {name!r}: a map between no spaces is a plain callable")
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"<map {self.name}: {self.source.name} -> {self.target.name}>"


def identity_map(space: SuperConvexSpace) -> CountablyAffineMap:
    return CountablyAffineMap(space, space, lambda x: x, name="id")


def constant_map(source: SuperConvexSpace, target: SuperConvexSpace,
                 c) -> CountablyAffineMap:
    c = as_ext(c) if not isinstance(c, tuple) else c
    return CountablyAffineMap(source, target, lambda _x: c, name=f"const_{c!r}")


def affine_map(source: SuperConvexSpace, target: SuperConvexSpace,
               offset, slope, name: str | None = None) -> CountablyAffineMap:
    """x |-> offset + slope * x on extended-real carriers, slope >= 0.
    Infinity maps to infinity whenever the slope is strictly positive."""
    offset = Fraction(offset)
    slope = Fraction(slope)
    if slope < 0:
        raise ValueError("slope must be nonnegative to respect the added point")

    def fn(x):
        x = as_ext(x)
        if x.is_inf:
            return ExtReal(offset) if slope == 0 else INF
        return ExtReal(offset + slope * x.value)

    return CountablyAffineMap(
        source, target, fn, name=name or f"affine({offset}+{slope}x)"
    )


class FunctionSpace:
    """A finite generating family of countably affine maps into the
    extended reals, standing in for the full function space, with the
    pointwise combine."""

    def __init__(self, base: SuperConvexSpace, maps):
        self.base = base
        self.maps = list(maps)
        self.target = next(
            (m.target for m in self.maps), IntervalSpace("ext_real_line")
        )

    def combine(self, omega: PartitionOfOne, maps=None) -> CountablyAffineMap:
        maps = self.maps if maps is None else list(maps)

        def fn(x):
            return countable_combine(omega, [as_ext(m(x)) for m in maps])

        return CountablyAffineMap(self.base, self.target, fn, name="pointwise-combine")


def describe(x):
    """Serialize an element for a counterexample witness."""
    if isinstance(x, ExtReal):
        return x.to_json()
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, tuple):
        return [describe(c) for c in x]
    if hasattr(x, "to_json_obj"):
        return x.to_json_obj()
    return repr(x)


def check_axiom1(space: SuperConvexSpace, rng: random.Random) -> dict | None:
    """Projection axiom: combining a sampled sequence with a point mass at
    j returns the j-th element."""
    a = [space.sample(rng) for _ in range(DEFAULT_DEPTH)]
    j = draw_int(rng, 1, DEFAULT_DEPTH)
    got = space.combine(dirac_partition(j), a)
    if space.eq(got, a[j - 1]):
        return None
    return {"j": j, "sequence": [describe(x) for x in a],
            "got": describe(got), "expected": describe(a[j - 1])}


def check_axiom2(space: SuperConvexSpace, rng: random.Random) -> dict | None:
    """Associativity axiom: combining combinations equals combining with
    the composed partition, for random finite-support partitions."""
    a = [space.sample(rng) for _ in range(DEFAULT_DEPTH)]
    k = draw_int(rng, 1, DEFAULT_DEPTH)
    alpha = random_partition(rng, k)
    betas = [random_partition(rng, DEFAULT_DEPTH) for _ in range(k)]
    inner = [space.combine(betas[i], a) for i in range(k)]
    lhs = space.combine(alpha, inner)
    rhs = space.combine(compose_partitions(alpha, betas), a)
    if space.eq(lhs, rhs):
        return None
    return {"alpha": {i: str(w) for i, w in alpha.items()},
            "lhs": describe(lhs), "rhs": describe(rhs)}


def check_morphism(m: CountablyAffineMap, rng: random.Random) -> dict | None:
    """Morphism law: the map commutes with a sampled countable convex
    combination."""
    a = [m.source.sample(rng) for _ in range(DEFAULT_DEPTH)]
    k = draw_int(rng, 1, DEFAULT_DEPTH)
    omega = random_partition(rng, k)
    lhs = m(m.source.combine(omega, a[:k]))
    rhs = m.target.combine(omega, [m(x) for x in a[:k]])
    if m.target.eq(lhs, rhs):
        return None
    return {"omega": {i: str(w) for i, w in omega.items()},
            "sequence": [describe(x) for x in a[:k]],
            "lhs": describe(lhs), "rhs": describe(rhs)}
