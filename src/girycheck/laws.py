"""The law harness: seeded, deterministic suites for the structure
axioms, the morphism law, barycenter naturality, the triangle identities,
the measure/functional isomorphism, the monad laws, image and recovery
properties, plus the closed-form divergence demos.

Each law has one checker, and it checks one case.  A seeded suite runs
it through ``reports.run_per_seed`` once per seed, on a case drawn from
that seed; ``scenario`` runs the same checker on a user's instance.  The
checkers that ``scenario`` runs live in ``scvx`` and ``giry``, beside the
objects they check, so ``scenario`` does not load this module.  Every
verdict compares extended reals by ``numerics.ext_eq`` and members of a
space by its ``eq``.  Failures carry serialized witnesses, and exact-path
suites use no tolerance at all.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import signal
import time
from fractions import Fraction
from functools import partial
from typing import Callable

from .giry import (
    GirySpace,
    NotAMeasure,
    ProbMeasure,
    barycenter,
    check_phi_roundtrip,
    check_triangle,
    dirac,
    evaluation,
    integrate,
    mixture,
    monad_mu,
    phi,
    phi_inverse,
    pushforward,
)
from .meas import FiniteMeasurableSpace, indicator
from .numerics import (
    ExtReal,
    INF,
    LazyPartition,
    PartitionOfOne,
    as_ext,
    countable_combine,
    draw_int,
    draw_parts,
    ext_eq,
    random_partition,
    scale,
    term,
    weighted_sum,
)
from .reports import HarnessConfig, LawReport, run_per_seed, suite_seeds
from .scvx import (
    CountablyAffineMap,
    IntervalSpace,
    ProductSpace,
    affine_map,
    check_axiom1,
    check_axiom2,
    check_morphism,
    constant_map,
    describe,
    identity_map,
)


class NoPoint(Exception):
    """No carrier point evaluates like the functional did."""


class Ambiguous(Exception):
    """The generating maps fail to separate carrier points."""


# ---------------------------------------------------------------------------
# shipped instances


def shipped_spaces() -> dict:
    closed = IntervalSpace("closed_unit")
    return {
        "closed-unit": closed,
        "open-unit": IntervalSpace("open_unit"),
        "ext-real": IntervalSpace("ext_real_line"),
        "product": ProductSpace([closed, closed]),
        "giry2": GirySpace(FiniteMeasurableSpace.powerset(["x1", "x2"])),
        "giry3": GirySpace(FiniteMeasurableSpace.powerset(["x1", "x2", "x3"])),
        "giry4": GirySpace(FiniteMeasurableSpace.powerset(["x1", "x2", "x3", "x4"])),
    }


def shipped_maps(spaces: dict) -> dict:
    closed, ext = spaces["closed-unit"], spaces["ext-real"]
    return {
        "id": identity_map(closed),
        "affine-half": affine_map(closed, closed, Fraction(1, 2), Fraction(1, 2)),
        "const-third": constant_map(closed, closed, Fraction(1, 3)),
        "proj1": CountablyAffineMap(spaces["product"], closed, lambda t: t[0],
                                    name="proj1"),
        "ext-affine": affine_map(ext, ext, Fraction(-3), Fraction(2)),
    }


# ---------------------------------------------------------------------------
# mutants (deliberately broken; every suite must catch its mutant)


class BrokenProjectionSpace(IntervalSpace):
    """Mutant: combine ignores the weights and returns the first element."""

    def __init__(self):
        super().__init__("closed_unit")
        self.name = "mutant-first-element"

    def combine(self, omega, seq, **certificates):
        return as_ext(term(seq, 1))


class ReversedWeightsSpace(IntervalSpace):
    """Mutant: combine pairs the weights with the elements in reverse."""

    def __init__(self):
        super().__init__("closed_unit")
        self.name = "mutant-reversed-weights"

    def combine(self, omega, seq, **certificates):
        reversed_parts = dict(zip(omega.parts, reversed(omega.parts.values())))
        return countable_combine(PartitionOfOne(reversed_parts, omega.den), seq)


def square_map(closed: IntervalSpace) -> CountablyAffineMap:
    """Mutant morphism on [0,1]: squaring is convex but not affine."""
    return CountablyAffineMap(
        closed, closed, lambda x: ExtReal.ratio(as_ext(x).num ** 2, as_ext(x).den ** 2),
        name="square")


def nonadditive_functional(X: FiniteMeasurableSpace):
    """Mutant generalized point: U -> P(U)^2 for a fixed non-Dirac measure;
    weakly averaging but not additive."""
    n = len(X.carrier)
    P = ProbMeasure([(x, Fraction(1, n)) for x in X.carrier], base=X)

    def fn(m):
        v = integrate(P, m)
        return ExtReal(v.value ** 2) if not v.is_inf else INF

    return fn


# ---------------------------------------------------------------------------
# law checks: each returns None when the law holds on its instance, or a
# witness


def check_image_property(J, m: CountablyAffineMap) -> dict | None:
    """J(m) must land in the image of m, a map of [0,1], (0,1) or R-inf:
    the one value of a constant map (m(0) = m(1)), else the values whose
    preimage a under the line through m(0) and m(1), infinity for
    infinity, is a point of the source.  A map off that line at 1/4, 1/2,
    3/4 (inside every carrier) or at a is not affine: ValueError."""
    source, val = m.source, J(m)
    at0, at1 = as_ext(m(ExtReal(0))), as_ext(m(ExtReal(1)))
    quarters = [Fraction(k, 4) for k in (1, 2, 3)]
    if ext_eq(at0, at1):
        expect, inside = [(x, at0) for x in quarters], ext_eq(val, at0)
    elif at0.is_inf or at1.is_inf:
        expect, inside = None, False
    else:
        v0, v1 = at0.value, at1.value
        slope = v1 - v0
        expect = [(x, v0 + slope * x) for x in quarters]
        a = INF if val.is_inf else (val.value - v0) / slope
        if inside := source.contains(a):
            expect.append((a, val))
    if expect is None or any(not ext_eq(m(as_ext(x)), y) for x, y in expect):
        raise ValueError(f"{m.name} is not an affine map of {source.name}")
    if inside:
        return None
    if ext_eq(at0, at1):
        image = f"{{{describe(at0)}}}"
    else:  # a carrier that misses a is [0,1] or (0,1): m(0) and m(1) are the ends
        lo, hi = sorted([v0, v1])
        image = f"[{lo}, {hi}]" if source.contains(0) else f"({lo}, {hi})"
    return {"map": m.name, "value": describe(val), "image": image}


def check_generalized_point_naturality(J, m, g_family) -> dict | None:
    """Postcomposition naturality: J(g o m) = g(J(m)) for each affine
    endomap g of the extended reals in the family; the witness names the
    first g that breaks it."""
    jm = J(m)
    for g in g_family:
        lhs = J(lambda x, g=g: g(m(x)))
        rhs = as_ext(g(jm))
        if not ext_eq(lhs, rhs):
            return {"g": g.name, "lhs": describe(lhs), "rhs": describe(rhs)}
    return None


def check_naturality_epsilon(m: CountablyAffineMap, P: ProbMeasure) -> dict | None:
    """Barycenter naturality: mapping the barycenter equals the barycenter
    of the pushforward."""
    lhs = m(barycenter(m.source, P))
    rhs = barycenter(m.target, pushforward(P, m))
    if m.target.eq(lhs, rhs):
        return None
    return {"map": m.name, "lhs": describe(lhs), "rhs": describe(rhs),
            "measure": P.to_json_obj()}


def check_evaluation_point_recovery(J, carrier, generating_maps):
    """The unique carrier point whose evaluations under every generating
    map agree with the functional.  Raises NoPoint when none matches and
    Ambiguous when the maps fail to separate candidates."""
    pairs = [(m, J(m)) for m in generating_maps]
    candidates = [a for a in carrier if all(ext_eq(jm, m(a)) for m, jm in pairs)]
    if not candidates:
        raise NoPoint("no carrier point matches the functional's evaluations")
    if len(candidates) > 1:
        raise Ambiguous(
            f"generating maps do not separate {len(candidates)} candidates"
        )
    return candidates[0]


def check_sigma_agreement(GX: GirySpace, rng: random.Random) -> dict | None:
    """Set evaluation is affine on mixtures: the mass a sampled mixture of
    members of GX = G(X) puts on a sampled measurable set of X is the
    weighted sum of the masses its components put there."""
    X = GX.X
    sigma = sorted(X.sigma)
    u = sigma[draw_int(rng, 0, len(sigma) - 1)]
    k = draw_int(rng, 1, 4)
    parts = random_partition(rng, k)
    components = [GX.sample(rng) for _ in range(k)]
    mixed = mixture(parts, components, base=X)
    mass = mixed.measure_of(u)
    masses = [c.measure_of(u) for c in components]
    weighted = weighted_sum(zip(parts.parts.values(), masses), parts.den)
    if ext_eq(mass, weighted):
        return None
    return {"set": [str(x) for x in X.set_of(u)], "mixture_mass": mass.to_json(),
            "weighted_mass": weighted.to_json(), "mixture": mixed.to_json_obj()}


# ---------------------------------------------------------------------------
# demos


def demo_divergent_sum(n: int) -> Fraction:
    """The exact partial sum of the geometric-weights / exploding-values
    series: sum_{i<=n} (1/2^i)(i*2^i); grows without bound, witnessing
    that the nonnegative half-line is not closed under countable
    combinations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # each term (1/2^i)(i*2^i) is exactly the integer i: the sum is n(n+1)/2
    return Fraction(n * (n + 1) // 2)


def half_cauchy_partial_expectation(n: float) -> float:
    """Closed form of the truncated half-Cauchy expectation on [0, n]."""
    return math.log(1 + n * n) / math.pi


def half_cauchy_lower_bound(n: int) -> Fraction:
    """7 floor(log2 n)/44, an exact lower bound on the truncated half-Cauchy
    expectation E_n = int_0^n x (2/pi)/(1+x^2) dx for an int n >= 1.

    x/(1+x^2) decreases on [1, inf), so on [k, k+1] with k >= 1 it is at
    least (k+1)/(1+(k+1)^2) >= 1/(2(k+1)), and the integrand at least
    1/(pi(k+1)) > (7/22)/(k+1), as pi < 22/7.  So E_n >= (7/22)(H_n - 1).
    Each block (2^j, 2^(j+1)] of the harmonic series adds at least 1/2,
    so H_n - 1 >= floor(log2 n)/2.  The bound, and with it E_n, grows
    without bound."""
    return Fraction(7 * (n.bit_length() - 1), 44)


def demo_half_cauchy(n_values) -> list[dict]:
    """Truncated expectations of the half-Cauchy density at each N: the
    float closed form, and the exact lower bound that grows without
    bound."""
    return [{"N": n, "closed_form": half_cauchy_partial_expectation(n),
             "lower_bound": half_cauchy_lower_bound(n)} for n in n_values]


def demo_open_interval(depth: int = 50) -> ExtReal:
    """Certified enclosure of the geometric mixture of the points 1/(i+1)
    inside the open unit interval: sum_i 2^-i/(i+1) = 2 ln 2 - 1."""
    omega = LazyPartition.geometric()
    return countable_combine(
        omega, lambda i: Fraction(1, i + 1), n_max=depth, bound=1
    )


def affine_endomap_family(ext: IntervalSpace):
    """Affine endomaps of the extended reals ``ext`` used as the
    postcomposition test family: the identity, constants, and convex
    interpolations with constants."""
    fam = [identity_map(ext), constant_map(ext, ext, Fraction(2, 7))]
    for r, c in [(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4), Fraction(-2))]:
        fam.append(affine_map(ext, ext, (1 - r) * c, r, name=f"interp(r={r},c={c})"))
    return fam


# ---------------------------------------------------------------------------
# suites: per-case bodies (rng) -> witness | None that draw an instance
# and hand it to the law's checker


def _sample_unit_measure(rng: random.Random, space) -> ProbMeasure:
    k = draw_int(rng, 1, 6)
    atoms: dict = {}  # k distinct points, in the order drawn
    while len(atoms) < k:
        atoms[space.sample(rng)] = None
    parts = draw_parts(rng, k)  # the draws of random_partition(rng, k)
    return ProbMeasure.of_atoms(zip(atoms, parts))


def _random_giry(rng: random.Random, girys: list, max_points: int) -> GirySpace:
    return girys[draw_int(rng, 2, max_points)]


def _random_affine_map(rng, source, target, max_eighths: int):
    """offset + slope * x with slope in eighths up to max_eighths/8 and an
    offset that keeps [0,1] inside [0,1]."""
    s, o = draw_int(rng, 0, max_eighths), draw_int(rng, 0, max_eighths)
    return affine_map(source, target, ExtReal.ratio(o * (8 - s), 64), ExtReal.ratio(s, 8))


def _triangle_case(closed, girys, rng):
    GX = _random_giry(rng, girys, 4)
    return check_triangle(GX, GX.sample(rng), closed, closed.sample(rng))


def _naturality_epsilon_case(closed, rng):
    m = _random_affine_map(rng, closed, closed, 8)
    return check_naturality_epsilon(m, _sample_unit_measure(rng, closed))


def _phi_roundtrip_case(girys, rng):
    GX = _random_giry(rng, girys, 8)
    return check_phi_roundtrip(GX, GX.sample(rng))


def _countable_additivity_case(girys, rng):
    GX = _random_giry(rng, girys, 8)
    X = GX.X
    P = GX.sample(rng)
    J = phi(P)
    n = len(X.carrier)
    # random disjoint family: each point assigned to one of k blocks or
    # left out entirely
    k = draw_int(rng, 2, min(8, n))
    blocks = [0] * k
    for i in range(n):
        slot = draw_int(rng, 0, k)
        if slot > 0:
            blocks[slot - 1] |= 1 << i
    union = 0
    for b in blocks:
        union |= b
    # geometric-style finite partition 1/2, 1/4, ..., with the last
    # weight doubled so the weights sum to one
    weights = [Fraction(1, 2**i) for i in range(1, k)] + [Fraction(1, 2**(k - 1))]
    lhs = J(indicator(X, union))
    rescaled_terms = []
    for w, b in zip(weights, blocks):
        chi = indicator(X, b)
        rescaled_terms.append(J(lambda x, r=1 / w, chi=chi: scale(r, chi(x))))
    via_rescaling = countable_combine(
        PartitionOfOne.finite(weights), rescaled_terms
    )
    direct = weighted_sum(((1, J(indicator(X, b))) for b in blocks), 1)
    if ext_eq(lhs, via_rescaling) and ext_eq(lhs, direct):
        return None
    return {"lhs": describe(lhs), "via_rescaling": describe(via_rescaling),
            "direct_sum": direct.to_json(), "blocks": [X.set_of(b) for b in blocks]}


def _monad_laws_case(girys, rng):
    GX = _random_giry(rng, girys, 4)
    X = GX.X
    P = GX.sample(rng)
    left_unit = GX.eq(monad_mu(dirac(P)), P)
    right_unit = GX.eq(monad_mu(pushforward(P, lambda x: dirac(x, base=X))), P)

    # a measure on measures on measures, flattened both ways
    def rand_measure(sample):
        parts = draw_parts(rng, draw_int(rng, 1, 3))
        return ProbMeasure.of_atoms([(sample(), p) for p in parts])

    T = rand_measure(lambda: rand_measure(partial(GX.sample, rng)))
    assoc = GX.eq(monad_mu(pushforward(T, monad_mu)), monad_mu(monad_mu(T)))
    if left_unit and right_unit and assoc:
        return None
    return {"left_unit": left_unit, "right_unit": right_unit, "assoc": assoc,
            "measure": P.to_json_obj()}


def _image_property_case(spaces, rng):
    space = spaces[("closed-unit", "open-unit", "ext-real")[draw_int(rng, 0, 2)]]
    m = _random_affine_map(rng, space, space, 4)
    witness = check_image_property(phi(_sample_unit_measure(rng, space)), m)
    if witness is None:
        return None
    return {"space": space.name, **witness}


def _gp_naturality_case(closed, ext, family, rng):
    m = _random_affine_map(rng, closed, ext, 8)
    if rng.random() < 0.5:
        J = evaluation(closed.sample(rng))
    else:
        J = phi(_sample_unit_measure(rng, closed))
    return check_generalized_point_naturality(J, m, family)


def _recovery_case(girys, rng):
    GX = _random_giry(rng, girys, 6)
    X = GX.X
    maps = [lambda P, u=u: P.measure_of(u) for u in X.atoms]
    a = X.carrier[draw_int(rng, 0, len(X.carrier) - 1)]
    carrier_points = [dirac(x, base=X) for x in X.carrier]
    expected = dirac(a, base=X)
    for J in (evaluation(expected), phi(dirac(expected))):
        try:
            got = check_evaluation_point_recovery(J, carrier_points, maps)
        except (NoPoint, Ambiguous) as exc:
            return {"error": type(exc).__name__, "detail": str(exc)}
        if not GX.eq(got, expected):
            return {"expected": expected.to_json_obj(),
                    "got": got.to_json_obj()}
    return None


def _mutant_phi() -> LawReport:
    X = FiniteMeasurableSpace.powerset(["x1", "x2"])
    J = nonadditive_functional(X)
    try:
        phi_inverse(J, X)
    except NotAMeasure as exc:
        witness = {"rejected": type(exc).__name__, "detail": str(exc)}
    else:
        witness = None
    return LawReport.single("mutant-phi-nonadditive", repr(X), witness)


def build_suites(cfg: HarnessConfig,
                 include_mutants: bool = False) -> dict[str, Callable[[], LawReport]]:
    """Every suite of a run, by name, as a run that returns its report;
    over shipped instances built once, with cfg's seed and cases."""
    spaces = shipped_spaces()
    closed, ext = spaces["closed-unit"], spaces["ext-real"]
    # G(X) of the powerset X on x1..xn at index n, for 2 <= n <= 8: the
    # spaces a seeded case draws from by size, the shipped ones where built
    girys = [None, None] + [spaces.get(f"giry{n}") or GirySpace(
        FiniteMeasurableSpace.powerset([f"x{i}" for i in range(1, n + 1)]))
        for n in range(2, 9)]
    suites: dict[str, Callable[[], LawReport]] = {}

    def seeded(name, instance, case):
        suites[name] = lambda: run_per_seed(name, instance, suite_seeds(cfg, name), case)

    for key, space in spaces.items():
        seeded(f"axiom1-{key}", space.name, partial(check_axiom1, space))
        seeded(f"axiom2-{key}", space.name, partial(check_axiom2, space))
    for key, m in shipped_maps(spaces).items():
        seeded(f"morphism-{key}", m.name, partial(check_morphism, m))

    seeded("triangle", "G(X) and [0,1]", partial(_triangle_case, closed, girys))
    seeded("naturality-epsilon", "[0,1] affine maps",
           partial(_naturality_epsilon_case, closed))
    seeded("phi-roundtrip", "finite X <= 8 points", partial(_phi_roundtrip_case, girys))
    seeded("countable-additivity", "disjoint families <= 8",
           partial(_countable_additivity_case, girys))
    seeded("monad-laws", "finite X <= 4 points", partial(_monad_laws_case, girys))
    seeded("image-property", "shipped instances", partial(_image_property_case, spaces))
    seeded("gp-naturality", "point- and measure-backed J",
           partial(_gp_naturality_case, closed, ext, affine_endomap_family(ext)))
    seeded("recovery", "Dirac simplex vertices, |X| <= 6", partial(_recovery_case, girys))
    G4 = spaces["giry4"]
    seeded("sigma-agreement", repr(G4.X), partial(check_sigma_agreement, G4))

    if include_mutants:
        broken = BrokenProjectionSpace()
        reversed_weights = ReversedWeightsSpace()
        square = square_map(closed)
        seeded("mutant-axiom1", broken.name, partial(check_axiom1, broken))
        seeded("mutant-axiom2", reversed_weights.name,
               partial(check_axiom2, reversed_weights))
        seeded("mutant-morphism-square", square.name, partial(check_morphism, square))
        suites["mutant-phi-nonadditive"] = _mutant_phi
    return suites


def pool_size(jobs: int, suites: int) -> int:
    """The worker processes ``run_suites`` forks for ``suites`` suites:
    ``jobs`` capped at ``suites``; 1 means none, the suites run in-process,
    as they do wherever the platform cannot fork."""
    return max(1, min(jobs, suites)) if hasattr(os, "fork") else 1


def _run_timed(run: Callable[[], LawReport]) -> LawReport:
    start = time.perf_counter()
    report = run()
    report.wall_time = time.perf_counter() - start
    return report


class WorkerDied(Exception):
    """A forked worker of ``run_suites`` ended without sending a result."""


def _work(runs: list, tasks: int, out: int):
    """A forked worker's whole life: run the suites whose indices it reads
    from the ``tasks`` pipe until that is empty, write their reports, or
    the exception that stopped it, pickled to ``out``, and exit."""
    try:
        try:
            result = [runs[int.from_bytes(index, "big")]()
                      for index in iter(partial(os.read, tasks, 4), b"")]
        except BaseException as exc:
            import traceback

            if hasattr(exc, "add_note"):
                exc.add_note("raised in a worker:\n" + traceback.format_exc())
            result = exc
        with os.fdopen(out, "wb") as fh:
            fh.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _fork_pool(runs: list, jobs: int) -> list[LawReport]:
    """The reports of ``runs``, in no set order, from ``jobs`` forked
    workers that take suite indices from one pipe whenever they are idle.
    Every worker is reaped before this returns or raises."""
    tasks, feed = os.pipe()
    # one write, far below a pipe's atomic size, so each read of 4 bytes
    # takes exactly one index
    os.write(feed, b"".join(i.to_bytes(4, "big") for i in range(len(runs))))
    os.close(feed)
    workers, reports = [], []
    try:
        for _ in range(jobs):
            back, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(runs, tasks, out)
            os.close(out)
            workers.append((pid, os.fdopen(back, "rb")))
        for pid, back in workers:
            payload = back.read()
            if not payload:
                raise WorkerDied(f"worker {pid} ended without a result")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            reports += result
    finally:
        os.close(tasks)
        for pid, back in workers:
            back.close()
            os.kill(pid, signal.SIGKILL)  # a no-op for one that has finished
            os.waitpid(pid, 0)
    return reports


def run_suites(cfg: HarnessConfig, name_filter: Callable[[str], bool] | None = None,
               include_mutants: bool = False, jobs: int = 1) -> list[LawReport]:
    """Run all (filtered) suites and return reports sorted by suite name.

    With ``jobs`` > 1 the suites run in up to ``jobs`` forked worker
    processes.  A worker inherits the suites built here and sends back
    their reports, so the reports equal the in-process ones; an exception
    that stops a worker is raised here.  The workers fork rather than
    spawn because the suites close over lambdas that cannot be pickled,
    and a forked worker needs no fresh import; so call this with ``jobs``
    > 1 only from a process that runs no other thread.
    """
    runs = [partial(_run_timed, run)
            for name, run in build_suites(cfg, include_mutants=include_mutants).items()
            if name_filter is None or name_filter(name)]
    jobs = pool_size(jobs, len(runs))
    reports = [run() for run in runs] if jobs == 1 else _fork_pool(runs, jobs)
    reports.sort(key=lambda r: r.law)
    return reports
