"""Exact and certified arithmetic on the extended real line and on
countable partitions of one.

Finite values are exact rationals held as reduced pairs of ints; the
single added point ``inf`` is ``ExtReal(None)``.  An ``ExtReal`` is built
from an int or a Fraction only, and has no order.  A finite
partition of one is a ``PartitionOfOne``: integer parts over one
denominator.  A countable one is a ``LazyPartition``: a weight generator
with a tail bound.  Countable convex combinations follow
limit-or-infinity semantics; a lazy sum is decided by a tail bound B (a
rational enclosure) or by scanning partial sums past a threshold (``inf``
by heuristic); anything else raises ``Undecided``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Union

Rational = Union[int, Fraction]

DEFAULT_N_MAX = 10**6
DEFAULT_DIVERGENCE_THRESHOLD = Fraction(10**12)


class Undecided(Exception):
    """A countable combination could not be certified to converge or diverge."""


class UnsupportedRepresentation(Exception):
    """Operation requires finite-support partitions."""


class Enclosure:
    """A bounded rational interval [lower, upper] that contains a value."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Rational, upper: Rational):
        self.lower = Fraction(lower)
        self.upper = Fraction(upper)
        if self.lower > self.upper:
            raise ValueError("enclosure has lower > upper")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __repr__(self):
        return f"Enclosure[{self.lower}, {self.upper}]"


class ExtReal:
    """A point of the real line extended by a single point at infinity.

    A finite point is the exact rational ``num / den``, kept reduced with
    ``den > 0``; infinity has ``num`` None.  A finite point produced by a
    certified truncation additionally carries the enclosure that contains
    the true limit (its value is the enclosure midpoint).
    """

    __slots__ = ("num", "den", "enclosure")

    def __init__(self, value: Rational | None, enclosure: Enclosure | None = None):
        if value is None or type(value) is int:
            self.num, self.den = value, 1
        elif isinstance(value, Fraction):
            self.num, self.den = value.numerator, value.denominator
        else:
            raise TypeError(f"{value!r} is not an int or a Fraction; inf is ExtReal(None)")
        self.enclosure = enclosure

    @classmethod
    def ratio(cls, n: int, d: int) -> "ExtReal":
        """The exact value n / d of ints n and d > 0, reduced by one gcd."""
        x = cls.__new__(cls)
        g = math.gcd(n, d)
        x.num, x.den, x.enclosure = n // g, d // g, None
        return x

    @property
    def value(self) -> Fraction | None:
        """The exact value as a Fraction; None for infinity."""
        return None if self.num is None else Fraction(self.num, self.den)

    @property
    def is_inf(self) -> bool:
        return self.num is None

    def __float__(self) -> float:
        return math.inf if self.num is None else self.num / self.den

    def __eq__(self, other) -> bool:
        try:
            other = as_ext(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal to the hash of the int or Fraction it compares equal to, by
        # Fraction's rule: |num| / den modulo the hash modulus
        n = self.num
        if n is None:
            return hash(math.inf)
        try:
            h = hash(hash(abs(n)) * pow(self.den, -1, sys.hash_info.modulus))
        except ValueError:  # den is a multiple of the modulus
            h = sys.hash_info.inf
        return hash(h if n >= 0 else -h)

    def __repr__(self):
        if self.enclosure is not None:
            return f"ExtReal({self.value} ± {self.enclosure.width / 2})"
        return f"ExtReal({self.to_json()})"

    def to_json(self) -> str:
        n, d = self.num, self.den
        return "inf" if n is None else str(n) if d == 1 else f"{n}/{d}"


INF = ExtReal(None)


def as_ext(x) -> ExtReal:
    """The one coercion to ExtReal: an ExtReal as it is, an int or a
    Fraction exactly; anything else, a float or a bool included, raises
    TypeError naming it."""
    if isinstance(x, ExtReal):
        return x
    return ExtReal(x)


# the one tolerance for values that carry a nondegenerate enclosure
DEFAULT_TOLERANCE = Fraction(1, 10**12)


def ext_eq(u, v) -> bool:
    """The one equality of every verdict on extended reals; a value that
    ``as_ext`` refuses is its TypeError.  Values without an enclosure are
    equal when their int pairs are; else an exact value is the enclosure
    [v, v], disjoint enclosures differ however close, and overlapping ones
    agree within the tolerance."""
    x, y = as_ext(u), as_ext(v)
    if x.enclosure is None and y.enclosure is None:
        return x.num == y.num and x.den == y.den
    if x.num is None or y.num is None:
        return x.num is None and y.num is None
    a, b = (w.enclosure or Enclosure(w.value, w.value) for w in (x, y))
    if a.upper < b.lower or b.upper < a.lower:
        return False
    return abs(x.value - y.value) <= DEFAULT_TOLERANCE


def scale(s: Rational, u: ExtReal) -> ExtReal:
    """Positive-scalar multiple on the extended reals; 0 * finite = 0."""
    a, b = s.as_integer_ratio()
    if a < 0:
        raise ValueError("scale factor must be nonnegative")
    u = as_ext(u)
    if u.is_inf:
        if a == 0:
            raise ValueError("0 * inf is undefined")
        return INF
    return ExtReal.ratio(a * u.num, b * u.den)


class PartitionOfOne:
    """A finite sequence of weights in [0,1] summing to one.

    Stores nonnegative integer ``parts`` indexed from 1, in increasing
    index order, over one total ``den``: weight i is ``parts[i] / den``.
    Zero parts are dropped and the parts are reduced by their gcd with
    ``den``, so equal partitions have equal parts.  The constructor checks
    outside input; ``of_parts`` builds from int parts that are valid by
    construction, and both end in the same reduction.
    """

    __slots__ = ("parts", "den")
    is_finite = True

    def __init__(self, weights: dict[int, Rational], den: int = 1):
        """Weight i is ``weights[i] / den``, each weight an int or a Fraction."""
        if den < 1:
            raise ValueError("den must be a positive integer")
        items = sorted(weights.items())
        if items and items[0][0] < 1:
            raise ValueError("indices start at 1")
        for i, w in items:
            if not isinstance(w, (int, Fraction)):
                raise TypeError(f"weight {i} is {w!r}, not an int or a Fraction")
        # rescale by the lcm of the denominators, 1 when all are ints
        scale = math.lcm(*[w.denominator for _, w in items])
        parts = {i: w.numerator * (scale // w.denominator) for i, w in items}
        den *= scale
        values = parts.values()
        if parts and (low := min(values)) < 0:
            raise ValueError(f"weight {Fraction(low, den)} outside [0, 1]")
        if sum(values) != den:
            raise ValueError("weights must sum to 1")
        self._store(parts, den, math.gcd(den, *values))

    @classmethod
    def of_parts(cls, parts: dict[int, int]) -> "PartitionOfOne":
        """Weight i is ``parts[i]`` over the sum of the parts.  The caller
        guarantees int parts >= 0 with a positive sum, at indices >= 1 in
        increasing order; zero parts are dropped and the parts reduced by
        their gcd."""
        omega = cls.__new__(cls)
        den = sum(parts.values())
        omega._store(parts, den, math.gcd(den, *parts.values()))
        return omega

    def _store(self, parts: dict[int, int], den: int, g: int):
        if g > 1 or 0 in parts.values():
            parts = {i: p // g for i, p in parts.items() if p}
            den //= g
        self.parts = parts
        self.den = den

    @classmethod
    def finite(cls, weights: Iterable[Rational]) -> "PartitionOfOne":
        """The partition with the given weights, indexed from 1."""
        return cls(dict(enumerate(weights, start=1)))

    def items(self):
        return [(i, Fraction(p, self.den)) for i, p in self.parts.items()]

    def __eq__(self, other):
        if not isinstance(other, PartitionOfOne):
            return NotImplemented
        return self.den == other.den and self.parts == other.parts

    def __hash__(self):
        return hash((tuple(self.parts.items()), self.den))

    def __repr__(self):
        inner = ", ".join(f"{i}: {w}" for i, w in self.items())
        return f"PartitionOfOne({{{inner}}})"


class LazyPartition:
    """A countable sequence of weights in [0,1] summing to one, given by a
    generator ``weight_fn(i)`` together with ``tail_fn(n)``, a certified
    bound on the mass beyond index n.  Two lazy partitions are equal only
    when they are the same object."""

    __slots__ = ("weight_fn", "tail_fn")
    is_finite = False

    def __init__(self, weight_fn: Callable[[int], Fraction],
                 tail_fn: Callable[[int], Fraction]):
        self.weight_fn = weight_fn
        self.tail_fn = tail_fn

    @classmethod
    def geometric(cls) -> "LazyPartition":
        """Weights 1/2^i with exact tail mass 1/2^N after depth N."""
        return cls(lambda i: Fraction(1, 2**i), lambda n: Fraction(1, 2**n))

    def weight(self, i: int) -> Fraction:
        return Fraction(self.weight_fn(i))

    def tail_mass(self, n: int) -> Fraction:
        """Certified bound on the mass beyond index n."""
        return Fraction(self.tail_fn(n))


def dirac_partition(j: int) -> PartitionOfOne:
    """The partition with all weight at index j."""
    if j < 1:
        raise ValueError("index must be >= 1")
    return PartitionOfOne.of_parts({j: 1})


def term(seq, i: int):
    """Term i of a sequence of terms: ``seq(i)`` for a callable on indices,
    else ``seq[i - 1]`` for a sequence indexed from 1."""
    if callable(seq):
        return seq(i)
    return seq[i - 1]


def terms(seq, indices):
    """Terms ``indices`` of ``seq``, read lazily and in order, with the
    list-or-callable test made once."""
    if callable(seq):
        return map(seq, indices)
    return (seq[i - 1] for i in indices)


def map_terms(fn, seq):
    """``fn`` applied to every term of ``seq``, kept in the form ``seq``
    came in: a callable on indices stays lazy, anything else becomes a
    list."""
    if callable(seq):
        return lambda i: fn(seq(i))
    return [fn(x) for x in seq]


def countable_combine(
    omega: PartitionOfOne | LazyPartition,
    u,
    n_max: int = DEFAULT_N_MAX,
    bound: Rational | None = None,
    within: tuple[Rational, Rational] | None = None,
) -> ExtReal:
    """The countable convex combination sum_i omega_i * u_i in the extended
    reals.

    ``u`` is a sequence (1-indexed via position) or a callable on indices.
    A finite ``PartitionOfOne`` is summed exactly, in one pass of integer products
    over a running common denominator; any strictly positive weight on an
    infinite value forces the result to infinity.  A ``LazyPartition``
    needs a certificate: ``bound`` B (all tail values satisfy |u_i| <= B) yields a
    value with enclosure width <= 2*B*tail(N), and every scanned term is
    checked against B (ValueError if one exceeds it).  ``within`` (lo, hi)
    adds that every term lies in [lo, hi], as the combine contract of a
    carrier such as [0,1] promises; the tail then adds a value in
    [max(lo, -B), min(hi, B)] times a mass in [0, tail(N)], not
    +-B*tail(N).  The value is the enclosure's midpoint.  Without a
    certificate the partial sums are scanned to ``n_max``; crossing
    ``DEFAULT_DIVERGENCE_THRESHOLD`` upward returns infinity, else Undecided.
    """
    if omega.is_finite:
        return weighted_sum(zip(omega.parts.values(), terms(u, omega.parts)), omega.den)

    b = None if bound is None else Fraction(bound)
    partial = Fraction(0)
    for n in range(1, n_max + 1):
        w = omega.weight(n)
        if w != 0:
            un = as_ext(term(u, n))
            if un.is_inf:
                return INF
            if b is not None and abs(un.value) > b:
                raise ValueError(f"term u_{n} = {un.value} exceeds the bound {b}")
            partial += w * un.value
        if bound is None and partial > DEFAULT_DIVERGENCE_THRESHOLD:
            return INF
    if b is not None:
        lo, hi = -b, b
        if within is not None:
            # tail(N) bounds the tail mass from above; the mass itself may
            # be anything in [0, tail(N)], so each end keeps 0 in reach
            lo = min(max(lo, Fraction(within[0])), 0)
            hi = max(min(hi, Fraction(within[1])), 0)
        tail = omega.tail_mass(n_max)
        enc = Enclosure(partial + lo * tail, partial + hi * tail)
        return ExtReal((enc.lower + enc.upper) / 2, enclosure=enc)
    if partial < -DEFAULT_DIVERGENCE_THRESHOLD:
        raise Undecided(
            "partial sums diverge below every bound; the carrier has no -inf point"
        )
    raise Undecided(
        f"no certificate supplied and partial sums neither stabilized nor "
        f"crossed {DEFAULT_DIVERGENCE_THRESHOLD} by depth {n_max}"
    )


def weighted_sum(pairs, den: int) -> ExtReal:
    """The sum of p * u / den over the ``(p, u)`` pairs, for int parts
    p >= 0 and extended-real terms u: the finite convex combination.  One
    pass of integer products over a running common denominator d, ints
    needing none; a positive part on an infinite term gives infinity."""
    num, d = 0, 1
    for p, u in pairs:
        if type(u) is int:
            num += p * u * d
            continue
        if type(u) is not ExtReal:
            u = as_ext(u)
        n, q = u.num, u.den
        if n is None:
            if p:
                return INF
            continue
        if d % q:
            f = q // math.gcd(d, q)
            num, d = num * f, d * f
        num += p * n * (d // q)
    return ExtReal.ratio(num, den * d)


def compose_partitions(alpha: PartitionOfOne, betas) -> PartitionOfOne:
    """The partition gamma with gamma_j = sum_i alpha_i * beta^i_j.

    ``betas`` is a sequence (1-indexed via position) or callable of
    finite-support partitions.  Exact composition is only defined for
    finite supports; it is an integer matrix-vector product over the lcm
    of the betas' totals, and its parts must sum to that total times
    alpha's.
    """
    if not alpha.is_finite:
        raise UnsupportedRepresentation("compose_partitions needs finite support")
    picked = []
    for ai, beta_i in zip(alpha.parts.values(), terms(betas, alpha.parts)):
        if not beta_i.is_finite:
            raise UnsupportedRepresentation("compose_partitions needs finite support")
        picked.append((ai, beta_i))
    scale = math.lcm(*[beta_i.den for _, beta_i in picked])
    gamma: dict[int, int] = {}
    for ai, beta_i in picked:
        f = ai * (scale // beta_i.den)
        for j, bij in beta_i.parts.items():
            gamma[j] = gamma.get(j, 0) + f * bij
    if sum(gamma.values()) != alpha.den * scale:
        raise ValueError("weights must sum to 1")
    return PartitionOfOne.of_parts(dict(sorted(gamma.items())))


def draw_int(rng, lo: int, hi: int) -> int:
    """``randint(lo, hi)`` of the ``random.Random`` ``rng``, drawn as it
    draws: for n = hi - lo + 1, ``n.bit_length()`` bits from
    ``rng.getrandbits`` until they are < n.  The one draw rule of the
    samplers: ``seq[draw_int(rng, 0, len(seq) - 1)]`` is a ``choice``."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def draw_parts(rng, k: int) -> list[int]:
    """k draws of ``draw_int(rng, 1, 1000)`` in one loop, with the same
    bits: the parts of a sampled partition or measure."""
    bits, parts = rng.getrandbits, []
    for _ in range(k):
        r = bits(10)
        while r >= 1000:
            r = bits(10)
        parts.append(r + 1)
    return parts


def draw_indices(rng, n: int, k: int) -> list[int]:
    """k distinct indices of ``range(n)``, by ``draw_int``: k swaps in a pool
    of the indices not yet drawn.  For n <= 21, the draws and the bits of
    ``rng.sample(range(n), k)`` of the ``random.Random`` ``rng``."""
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    pool, drawn = list(range(n)), []
    for last in range(n - 1, n - k - 1, -1):
        j = draw_int(rng, 0, last)
        drawn.append(pool[j])
        pool[j] = pool[last]
    return drawn


def random_partition(rng, support_size: int) -> PartitionOfOne:
    """A random finite-support partition drawn from the generator ``rng``
    (a ``random.Random``): a random integer composition of
    ``support_size`` parts drawn by ``draw_parts``, normalized exactly."""
    if support_size < 1:
        raise ValueError("support_size must be >= 1")
    return PartitionOfOne.of_parts(dict(enumerate(draw_parts(rng, support_size), start=1)))
