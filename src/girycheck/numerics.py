"""Exact and certified arithmetic on the extended real line and on
countable partitions of one.

Finite values are exact ``fractions.Fraction``s; the single added point
``inf`` compares above every finite value.  Countable convex combinations
follow limit-or-infinity semantics.  A lazy sum is decided by a tail
bound B (a rational enclosure), by a divergence witness (``inf``, taken on
the caller's word), or by scanning partial sums past a threshold (``inf``
by heuristic); anything else raises ``Undecided``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
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


@total_ordering
class ExtReal:
    """A point of the real line extended by a single point at infinity.

    Finite points carry an exact rational; a finite point produced by a
    certified truncation additionally carries the enclosure that contains
    the true limit (its value is the enclosure midpoint).
    """

    __slots__ = ("value", "enclosure")

    def __init__(self, value: Rational | None, enclosure: Enclosure | None = None):
        if value is not None and not isinstance(value, Fraction):
            value = Fraction(value)
        self.value = value
        self.enclosure = enclosure

    @property
    def is_inf(self) -> bool:
        return self.value is None

    @property
    def is_exact(self) -> bool:
        return self.enclosure is None or self.enclosure.width == 0

    def __float__(self) -> float:
        return float("inf") if self.is_inf else float(self.value)

    def __eq__(self, other) -> bool:
        other = as_ext(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        # equal to the hash of the int, Fraction or float it compares equal to
        return hash(float("inf") if self.is_inf else self.value)

    def __lt__(self, other) -> bool:
        other = as_ext(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_inf:
            return False
        if other.is_inf:
            return True
        return self.value < other.value

    def __repr__(self):
        if self.is_inf:
            return "ExtReal(inf)"
        if self.enclosure is not None:
            return f"ExtReal({self.value} ± {self.enclosure.width / 2})"
        return f"ExtReal({self.value})"

    def to_json(self) -> str:
        return "inf" if self.is_inf else str(self.value)


INF = ExtReal(None)


def as_ext(x) -> ExtReal:
    """Coerce ints, Fractions and float('inf') to ExtReal."""
    if isinstance(x, ExtReal):
        return x
    if isinstance(x, (int, Fraction)):
        return ExtReal(x)
    if isinstance(x, float):
        if x == float("inf"):
            return INF
        return ExtReal(Fraction(x))
    return NotImplemented


# the default tolerance for values that carry a nondegenerate enclosure
DEFAULT_TOLERANCE = Fraction(1, 10**12)


def ext_eq(u, v, tolerance: Rational = 0) -> bool:
    """Equality on extended reals; exact values compare exactly, values
    carrying a nondegenerate enclosure compare within ``tolerance``, and
    two disjoint enclosures hold different values, however close."""
    u, v = as_ext(u), as_ext(v)
    if u.is_inf or v.is_inf:
        return u.is_inf and v.is_inf
    if u.is_exact and v.is_exact:
        return u.value == v.value
    if not (u.is_exact or v.is_exact):
        a, b = u.enclosure, v.enclosure
        if a.upper < b.lower or b.upper < a.lower:
            return False
    return abs(u.value - v.value) <= Fraction(tolerance)


def scale(s: Rational, u: ExtReal) -> ExtReal:
    """Positive-scalar multiple on the extended reals; 0 * finite = 0."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("scale factor must be nonnegative")
    u = as_ext(u)
    if u.is_inf:
        if s == 0:
            raise ValueError("0 * inf is undefined")
        return INF
    return ExtReal(s * u.value)


class PartitionOfOne:
    """A countable sequence of weights in [0,1] summing to one.

    Finite support stores nonnegative integer ``parts`` indexed from 1, in
    increasing index order, over one total ``den``: weight i is
    ``parts[i] / den``.  Zero parts are dropped and the parts are reduced
    by their gcd with ``den``, so equal partitions have equal parts.  Lazy
    support stores a weight generator together with a certified tail-mass
    bound per truncation depth.
    """

    __slots__ = ("parts", "den", "weight_fn", "tail_fn")

    def __init__(
        self,
        weights: dict[int, Rational] | None = None,
        den: int = 1,
        weight_fn: Callable[[int], Fraction] | None = None,
        tail_fn: Callable[[int], Fraction] | None = None,
    ):
        """Finite support: weight i is ``weights[i] / den``, each weight an
        int or a Fraction.  Lazy support: ``weight_fn`` and ``tail_fn``."""
        if weights is not None:
            if den < 1:
                raise ValueError("den must be a positive integer")
            items = sorted(weights.items())
            if items and items[0][0] < 1:
                raise ValueError("indices start at 1")
            parts = dict(items)
            try:
                g = math.gcd(den, *parts.values())
            except TypeError:
                # not all ints: rescale by the lcm of the denominators
                for i, w in items:
                    if not isinstance(w, (int, Fraction)):
                        raise TypeError(f"weight {i} is {w!r}, not an int or a Fraction")
                scale = math.lcm(*[w.denominator for _, w in items])
                parts = {i: w.numerator * (scale // w.denominator) for i, w in items}
                den *= scale
                g = math.gcd(den, *parts.values())
            values = parts.values()
            if parts and (low := min(values)) < 0:
                raise ValueError(f"weight {Fraction(low, den)} outside [0, 1]")
            if sum(values) != den:
                raise ValueError("weights must sum to 1")
            if g > 1 or 0 in values:
                parts = {i: p // g for i, p in parts.items() if p}
                den //= g
            self.parts = parts
            self.den = den
            self.weight_fn = None
            self.tail_fn = None
        else:
            if weight_fn is None or tail_fn is None:
                raise ValueError("lazy partition needs weight_fn and tail_fn")
            self.parts = None
            self.den = None
            self.weight_fn = weight_fn
            self.tail_fn = tail_fn

    @classmethod
    def finite(cls, weights: Iterable[Rational] | dict[int, Rational]) -> "PartitionOfOne":
        """The finite partition with the given weights, as a dict by index
        or a sequence indexed from 1."""
        if not isinstance(weights, dict):
            weights = dict(enumerate(weights, start=1))
        return cls(weights)

    @classmethod
    def geometric(cls) -> "PartitionOfOne":
        """Weights 1/2^i with exact tail mass 1/2^N after depth N."""
        return cls(
            weight_fn=lambda i: Fraction(1, 2**i),
            tail_fn=lambda n: Fraction(1, 2**n),
        )

    @property
    def is_finite(self) -> bool:
        return self.parts is not None

    def weight(self, i: int) -> Fraction:
        if self.is_finite:
            return Fraction(self.parts.get(i, 0), self.den)
        return Fraction(self.weight_fn(i))

    def tail_mass(self, n: int) -> Fraction:
        """Certified bound on the mass beyond index n."""
        if self.is_finite:
            return Fraction(sum(p for i, p in self.parts.items() if i > n), self.den)
        return Fraction(self.tail_fn(n))

    def items(self):
        if not self.is_finite:
            raise UnsupportedRepresentation("lazy partition has no finite item list")
        return [(i, Fraction(p, self.den)) for i, p in self.parts.items()]

    def __eq__(self, other):
        if not isinstance(other, PartitionOfOne):
            return NotImplemented
        if self.is_finite and other.is_finite:
            return self.den == other.den and self.parts == other.parts
        return self is other

    def __hash__(self):
        if self.is_finite:
            return hash((tuple(self.parts.items()), self.den))
        return id(self)

    def __repr__(self):
        if self.is_finite:
            inner = ", ".join(f"{i}: {w}" for i, w in self.items())
            return f"PartitionOfOne({{{inner}}})"
        return "PartitionOfOne(lazy)"


def dirac_partition(j: int) -> PartitionOfOne:
    """The partition with all weight at index j."""
    if j < 1:
        raise ValueError("index must be >= 1")
    return PartitionOfOne({j: 1})


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
    omega: PartitionOfOne,
    u,
    n_max: int = DEFAULT_N_MAX,
    bound: Rational | None = None,
    divergence_witness: bool = False,
    threshold: Rational = DEFAULT_DIVERGENCE_THRESHOLD,
    within: tuple[Rational, Rational] | None = None,
) -> ExtReal:
    """The countable convex combination sum_i omega_i * u_i in the extended
    reals.

    ``u`` is a sequence (1-indexed via position) or a callable on indices.
    Finite support is summed exactly, in one pass of integer products
    over a running common denominator; any strictly positive weight on an
    infinite value forces the result to infinity.  Lazy support needs a
    certificate: ``bound`` B (all tail values satisfy |u_i| <= B) yields a
    value with enclosure width <= 2*B*tail(N), and every scanned term is
    checked against B (ValueError if one exceeds it).  ``within`` (lo, hi)
    adds that every term lies in [lo, hi], as the combine contract of a
    carrier such as [0,1] promises; the tail then adds a value in
    [max(lo, -B), min(hi, B)] times a mass in [0, tail(N)], not
    +-B*tail(N).  The value is the enclosure's midpoint.  ``divergence_witness``
    asserts the partial sums exceed any threshold and yields infinity
    without checking the claim.  Without a certificate the partial sums are scanned to
    ``n_max``; crossing ``threshold`` upward returns infinity, anything
    else raises Undecided.
    """
    if omega.is_finite:
        # one pass over a running common denominator d; ints need none
        num, d = 0, 1
        for p, ui in zip(omega.parts.values(), terms(u, omega.parts)):
            if type(ui) is int:
                num += p * ui * d
                continue
            if type(ui) is not Fraction:
                ui = as_ext(ui).value
                if ui is None:
                    return INF
            q = ui.denominator
            if d % q:
                f = q // math.gcd(d, q)
                num, d = num * f, d * f
            num += p * ui.numerator * (d // q)
        return ExtReal(Fraction(num, omega.den * d))

    if bound is not None and divergence_witness:
        raise ValueError("bound and divergence witness are exclusive")
    if divergence_witness:
        return INF
    threshold = Fraction(threshold)
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
        if bound is None and partial > threshold:
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
    if partial < -threshold:
        raise Undecided(
            "partial sums diverge below every bound; the carrier has no -inf point"
        )
    raise Undecided(
        f"no certificate supplied and partial sums neither stabilized nor "
        f"crossed {threshold} by depth {n_max}"
    )


def compose_partitions(alpha: PartitionOfOne, betas) -> PartitionOfOne:
    """The partition gamma with gamma_j = sum_i alpha_i * beta^i_j.

    ``betas`` is a sequence (1-indexed via position) or callable of
    finite-support partitions.  Exact composition is only defined for
    finite supports; it is an integer matrix-vector product over the lcm
    of the betas' totals.
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
    return PartitionOfOne(gamma, den=alpha.den * scale)


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


def random_partition(rng, support_size: int) -> PartitionOfOne:
    """A random finite-support partition drawn from the generator ``rng``
    (a ``random.Random``): a random integer composition of
    ``support_size`` parts, each ``draw_int(rng, 1, 1000)``, normalized
    exactly."""
    if support_size < 1:
        raise ValueError("support_size must be >= 1")
    parts = {i: draw_int(rng, 1, 1000) for i in range(1, support_size + 1)}
    return PartitionOfOne(parts, den=sum(parts.values()))
