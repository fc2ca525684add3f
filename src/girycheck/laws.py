"""The law harness: seeded, deterministic suites for the structure
axioms, the morphism law, barycenter naturality, the triangle identities,
the measure/functional isomorphism, the monad laws, image and recovery
properties, plus the closed-form divergence demos.

Each law has one checker, and it checks one case.  A seeded suite runs
it through ``reports.run_per_seed`` once per seed, on a case drawn from
that seed; ``scenario`` runs the same checker on a user's instance.  The
checkers that ``scenario`` runs live in ``scvx`` and ``giry``, beside the
objects they check, so ``scenario`` does not load this module; this one
re-exports them.
Failures carry serialized witnesses, and exact-path suites use no
tolerance at all.
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
    GeneralizedPoint,
    GirySpace,
    ProbMeasure,
    barycenter,
    check_phi_roundtrip,
    check_triangle,
    dirac,
    integrate,
    mixture,
    monad_mu,
    phi,
    phi_inverse,
    pushforward,
)
from .meas import FiniteMeasurableSpace, indicator
from .numerics import (
    DEFAULT_TOLERANCE,
    ExtReal,
    INF,
    PartitionOfOne,
    as_ext,
    countable_combine,
    random_partition,
    scale,
    term,
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


def shipped_spaces(cfg: HarnessConfig) -> dict:
    closed = IntervalSpace("closed_unit", cfg.tolerance)
    return {
        "closed-unit": closed,
        "open-unit": IntervalSpace("open_unit", cfg.tolerance),
        "ext-real": IntervalSpace("ext_real_line", cfg.tolerance),
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

    def __init__(self, tolerance=DEFAULT_TOLERANCE):
        super().__init__("closed_unit", tolerance)
        self.name = "mutant-first-element"

    def combine(self, omega, seq, **certificates):
        return as_ext(term(seq, 1))


class ReversedWeightsSpace(IntervalSpace):
    """Mutant: combine pairs the weights with the elements in reverse."""

    def __init__(self, tolerance=DEFAULT_TOLERANCE):
        super().__init__("closed_unit", tolerance)
        self.name = "mutant-reversed-weights"

    def combine(self, omega, seq, **certificates):
        items = omega.items()
        weights = [w for _, w in items]
        values = [as_ext(term(seq, i)) for i, _ in items]
        omega_rev = PartitionOfOne.finite(list(reversed(weights)))
        return countable_combine(omega_rev, values)


def square_map(closed: IntervalSpace) -> CountablyAffineMap:
    """Mutant morphism on [0,1]: squaring is convex but not affine."""
    return CountablyAffineMap(
        closed, closed, lambda x: ExtReal(as_ext(x).value ** 2), name="square"
    )


def nonadditive_functional(X: FiniteMeasurableSpace) -> GeneralizedPoint:
    """Mutant generalized point: U -> P(U)^2 for a fixed non-Dirac measure;
    weakly averaging but not additive."""
    n = len(X.carrier)
    P = ProbMeasure([(x, Fraction(1, n)) for x in X.carrier], base=X)

    def fn(m):
        v = integrate(P, m)
        return ExtReal(v.value ** 2) if not v.is_inf else INF

    return GeneralizedPoint(fn)


def half_cauchy_generalized_point() -> GeneralizedPoint:
    """The half-Cauchy expectation functional on the nonnegative reals:
    integration against it sends the inclusion map to infinity, so it is
    not backed by any point of the carrier.  Documentation mutant for the
    image property."""
    return GeneralizedPoint(lambda m: INF)


# ---------------------------------------------------------------------------
# law checks: each returns None when the law holds on its instance, or a
# witness


def check_image_property(J: GeneralizedPoint, m: CountablyAffineMap,
                         probe_grid=None) -> dict | None:
    """J(m) must land in the image of m.  Interval carriers use the
    image's interval classification with the endpoint openness of the
    carrier; any other source needs a probe grid.  A map whose image it
    cannot classify, such as a map of R-inf that is not affine, raises
    ValueError."""
    val = J.apply(m)
    ok, image_desc = _image_contains(m, val, probe_grid)
    if ok:
        return None
    return {"map": m.name, "value": describe(val), "image": image_desc}


def _image_contains(m, val: ExtReal, probe_grid=None):
    source = m.source
    if isinstance(source, IntervalSpace):
        if source.kind == "ext_real_line":
            # an affine map of R-inf is either constant or onto; a map that
            # leaves its interpolant through m(0) and m(1) is neither
            at0, at1 = as_ext(m(ExtReal(0))), as_ext(m(ExtReal(1)))
            if at0 == at1:
                return _interval_hull_contains({at0}, val, closed=True)
            if at0.is_inf or at1.is_inf or not as_ext(m(INF)).is_inf or any(
                    as_ext(m(ExtReal(x))) != at0.value + (at1.value - at0.value) * x
                    for x in (-2, Fraction(1, 2), 3)):
                raise ValueError(f"{m.name} is not an affine map of R-inf")
            return True, "R-inf"
        probes = probe_grid
        if probes is None:
            probes = [ExtReal(Fraction(k, 8)) for k in range(9)]
        vals = [as_ext(m(p)) for p in probes]
        closed = source.kind == "closed_unit"
        return _interval_hull_contains(set(vals), val, closed=closed)
    if probe_grid is not None:
        vals = {as_ext(m(p)) for p in probe_grid}
        return _interval_hull_contains(vals, val, closed=True)
    raise ValueError("cannot classify the image without a probe grid")


def _interval_hull_contains(vals: set, val: ExtReal, closed: bool):
    finite = sorted(v.value for v in vals if not v.is_inf)
    has_inf = any(v.is_inf for v in vals)
    if not finite:
        return (val.is_inf, "{inf}")
    lo, hi = finite[0], finite[-1]
    if lo == hi and not has_inf:
        return (not val.is_inf and val.value == lo, f"{{{lo}}}")
    desc = f"[{lo}, {'inf' if has_inf else hi}{']' if closed else ')'}"
    if val.is_inf:
        return (has_inf, desc)
    if closed:
        ok = lo <= val.value and (has_inf or val.value <= hi)
    else:
        ok = lo < val.value and (has_inf or val.value < hi)
    return (ok, desc)


def check_generalized_point_naturality(J: GeneralizedPoint, m,
                                       g_family) -> dict | None:
    """Postcomposition naturality: J(g o m) = g(J(m)) for each affine
    endomap g of the extended reals in the family; the witness names the
    first g that breaks it."""
    jm = J.apply(m)
    for g in g_family:
        lhs = J.apply(lambda x, g=g: g(m(x)))
        rhs = as_ext(g(jm))
        if lhs != rhs:
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


def check_evaluation_point_recovery(J: GeneralizedPoint, carrier,
                                    generating_maps):
    """The unique carrier point whose evaluations under every generating
    map agree with the functional.  Raises NoPoint when none matches and
    Ambiguous when the maps fail to separate candidates."""
    candidates = []
    for a in carrier:
        if all(J.apply(m) == as_ext(m(a)) for m in generating_maps):
            candidates.append(a)
    if not candidates:
        raise NoPoint("no carrier point matches the functional's evaluations")
    if len(candidates) > 1:
        raise Ambiguous(
            f"generating maps do not separate {len(candidates)} candidates"
        )
    return candidates[0]


def check_sigma_agreement(X: FiniteMeasurableSpace, rng: random.Random) -> dict | None:
    """Set evaluation is affine on mixtures: the mass a sampled mixture
    puts on a sampled measurable set is the weighted sum of the masses its
    components put there."""
    GX = GirySpace(X)
    sigma = sorted(X.sigma)
    u = sigma[rng.randrange(len(sigma))]
    k = rng.randint(1, 4)
    parts = random_partition(rng.getrandbits(32), k)
    components = [GX.sample(rng) for _ in range(k)]
    mixed = mixture(parts, components, base=X)
    mass = mixed.measure_of(u)
    weighted = sum(p * c.measure_of(u)
                   for p, c in zip(parts.parts.values(), components)) / parts.den
    if mass == weighted:
        return None
    return {"set": [str(x) for x in X.set_of(u)], "mixture_mass": str(mass),
            "weighted_mass": str(weighted), "mixture": mixed.to_json_obj()}


# ---------------------------------------------------------------------------
# demos


def demo_divergent_sum(n: int) -> Fraction:
    """The exact partial sum of the geometric-weights / exploding-values
    series: sum_{i<=n} (1/2^i)(i*2^i); grows without bound, witnessing
    that the nonnegative half-line is not closed under countable
    combinations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # each term (1/2^i)(i*2^i) is exactly the integer i
    return Fraction(sum(range(1, n + 1)))


def half_cauchy_partial_expectation(n: float) -> float:
    """Closed form of the truncated half-Cauchy expectation on [0, n]."""
    return math.log(1 + n * n) / math.pi


def demo_half_cauchy(n_values) -> list[dict]:
    """Truncated expectations of the half-Cauchy density, by closed form
    and by adaptive quadrature; the column grows without bound."""
    from scipy.integrate import quad

    rows = []
    for n in n_values:
        closed = half_cauchy_partial_expectation(n)
        numeric, _err = quad(
            lambda x: x * (2 / math.pi) / (1 + x * x), 0, n, limit=400
        )
        rows.append({"N": n, "closed_form": closed, "quadrature": numeric})
    return rows


def demo_open_interval(depth: int = 50) -> ExtReal:
    """Certified enclosure of the geometric mixture of the points 1/(i+1)
    inside the open unit interval: sum_i 2^-i/(i+1) = 2 ln 2 - 1."""
    omega = PartitionOfOne.geometric()
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
    k = rng.randint(1, 6)
    atoms = []
    seen = set()
    while len(atoms) < k:
        a = space.sample(rng)
        if a not in seen:
            seen.add(a)
            atoms.append(a)
    part = random_partition(rng.getrandbits(32), len(atoms))
    return ProbMeasure(zip(atoms, part.parts.values()), den=part.den)


def _random_powerset_space(rng: random.Random, max_points: int) -> FiniteMeasurableSpace:
    n = rng.randint(2, max_points)
    return FiniteMeasurableSpace.powerset([f"x{i}" for i in range(1, n + 1)])


def _random_affine_map(rng, source, target, max_eighths: int):
    """offset + slope * x with slope in eighths up to max_eighths/8 and an
    offset that keeps [0,1] inside [0,1]."""
    slope = Fraction(rng.randint(0, max_eighths), 8)
    offset = Fraction(rng.randint(0, max_eighths), 8) * (1 - slope)
    return affine_map(source, target, offset, slope)


def _triangle_case(closed, rng):
    GX = GirySpace(_random_powerset_space(rng, 4))
    return check_triangle(GX.sample(rng), closed, closed.sample(rng))


def _naturality_epsilon_case(closed, rng):
    m = _random_affine_map(rng, closed, closed, 8)
    return check_naturality_epsilon(m, _sample_unit_measure(rng, closed))


def _phi_roundtrip_case(rng):
    return check_phi_roundtrip(GirySpace(_random_powerset_space(rng, 8)).sample(rng))


def _countable_additivity_case(rng):
    X = _random_powerset_space(rng, 8)
    GX = GirySpace(X)
    P = GX.sample(rng)
    J = phi(P)
    n = len(X.carrier)
    # random disjoint family: each point assigned to one of k blocks or
    # left out entirely
    k = rng.randint(2, min(8, n))
    blocks = [0] * k
    for i in range(n):
        slot = rng.randint(0, k)
        if slot > 0:
            blocks[slot - 1] |= 1 << i
    union = 0
    for b in blocks:
        union |= b
    # geometric-style finite partition 1/2, 1/4, ..., with the last
    # weight doubled so the weights sum to one
    weights = [Fraction(1, 2**i) for i in range(1, k)] + [Fraction(1, 2**(k - 1))]
    lhs = J.apply(indicator(X, union))
    rescaled_terms = []
    for w, b in zip(weights, blocks):
        chi = indicator(X, b)
        rescaled_terms.append(J.apply(lambda x, w=w, chi=chi: scale(1 / w, chi(x))))
    via_rescaling = countable_combine(
        PartitionOfOne.finite(weights), rescaled_terms
    )
    direct = sum(
        (J.apply(indicator(X, b)).value for b in blocks), Fraction(0)
    )
    if lhs == via_rescaling and lhs.value == direct:
        return None
    return {"lhs": describe(lhs), "via_rescaling": describe(via_rescaling),
            "direct_sum": str(direct), "blocks": [X.set_of(b) for b in blocks]}


def _monad_laws_case(rng):
    X = _random_powerset_space(rng, 4)
    GX = GirySpace(X)
    P = GX.sample(rng)
    left_unit = monad_mu(dirac(P)) == P
    right_unit = monad_mu(pushforward(P, lambda x: dirac(x, base=X))) == P

    # a measure on measures on measures, flattened both ways
    def rand_measure(sample):
        k = rng.randint(1, 3)
        part = random_partition(rng.getrandbits(32), k)
        return ProbMeasure([(sample(), p) for p in part.parts.values()], den=part.den)

    T = rand_measure(lambda: rand_measure(partial(GX.sample, rng)))
    assoc = monad_mu(pushforward(T, monad_mu)) == monad_mu(monad_mu(T))
    if left_unit and right_unit and assoc:
        return None
    return {"left_unit": left_unit, "right_unit": right_unit, "assoc": assoc,
            "measure": P.to_json_obj()}


def _image_property_case(spaces, rng):
    space = spaces[rng.choice(["closed-unit", "open-unit", "ext-real"])]
    m = _random_affine_map(rng, space, space, 4)
    witness = check_image_property(phi(_sample_unit_measure(rng, space)), m)
    if witness is None:
        return None
    return {"space": space.name, **witness}


def _gp_naturality_case(closed, ext, family, rng):
    m = _random_affine_map(rng, closed, ext, 8)
    if rng.random() < 0.5:
        J = GeneralizedPoint.from_point(closed.sample(rng))
    else:
        J = phi(_sample_unit_measure(rng, closed))
    return check_generalized_point_naturality(J, m, family)


def _recovery_case(rng):
    X = _random_powerset_space(rng, 6)
    maps = [lambda P, x=x: ExtReal(P.measure_of([x])) for x in X.carrier]
    a = rng.choice(X.carrier)
    carrier_points = [dirac(x, base=X) for x in X.carrier]
    expected = dirac(a, base=X)
    for J in (GeneralizedPoint.from_point(expected), phi(dirac(expected))):
        try:
            got = check_evaluation_point_recovery(J, carrier_points, maps)
        except (NoPoint, Ambiguous) as exc:
            return {"error": type(exc).__name__, "detail": str(exc)}
        if got != expected:
            return {"expected": expected.to_json_obj(),
                    "got": got.to_json_obj()}
    return None


def _mutant_phi() -> LawReport:
    X = FiniteMeasurableSpace.powerset(["x1", "x2"])
    J = nonadditive_functional(X)
    try:
        phi_inverse(J, X)
    except Exception as exc:
        witness = {"rejected": type(exc).__name__, "detail": str(exc)}
    else:
        witness = None
    return LawReport.single("mutant-phi-nonadditive", repr(X), witness)


def _mutant_image() -> LawReport:
    """The half-line documentation case: an infinite 'expectation' cannot
    be the evaluation of any point of the nonnegative reals."""
    val = half_cauchy_generalized_point().apply(as_ext)  # the inclusion
    probes = [ExtReal(Fraction(k, 2)) for k in range(9)]
    ok, image_desc = _interval_hull_contains(set(probes), val, closed=True)
    witness = None if ok else {"value": describe(val), "image": image_desc}
    return LawReport.single("mutant-image-halfcauchy", "R+ inclusion", witness)


def build_suites(cfg: HarnessConfig,
                 include_mutants: bool = False) -> dict[str, Callable[[], LawReport]]:
    """Every suite of a run, by name, as a run that returns its report;
    over shipped instances built once from cfg."""
    spaces = shipped_spaces(cfg)
    closed, ext = spaces["closed-unit"], spaces["ext-real"]
    X4 = FiniteMeasurableSpace.powerset(["x1", "x2", "x3", "x4"])
    suites: dict[str, Callable[[], LawReport]] = {}

    def seeded(name, instance, case):
        suites[name] = lambda: run_per_seed(name, instance, suite_seeds(cfg, name), case)

    for key, space in spaces.items():
        seeded(f"axiom1-{key}", space.name, partial(check_axiom1, space))
        seeded(f"axiom2-{key}", space.name, partial(check_axiom2, space))
    for key, m in shipped_maps(spaces).items():
        seeded(f"morphism-{key}", m.name, partial(check_morphism, m))

    seeded("triangle", "G(X) and [0,1]", partial(_triangle_case, closed))
    seeded("naturality-epsilon", "[0,1] affine maps",
           partial(_naturality_epsilon_case, closed))
    seeded("phi-roundtrip", "finite X <= 8 points", _phi_roundtrip_case)
    seeded("countable-additivity", "disjoint families <= 8", _countable_additivity_case)
    seeded("monad-laws", "finite X <= 4 points", _monad_laws_case)
    seeded("image-property", "shipped instances", partial(_image_property_case, spaces))
    seeded("gp-naturality", "point- and measure-backed J",
           partial(_gp_naturality_case, closed, ext, affine_endomap_family(ext)))
    seeded("recovery", "Dirac simplex vertices, |X| <= 6", _recovery_case)
    seeded("sigma-agreement", repr(X4), partial(check_sigma_agreement, X4))

    if include_mutants:
        broken = BrokenProjectionSpace(cfg.tolerance)
        reversed_weights = ReversedWeightsSpace(cfg.tolerance)
        square = square_map(closed)
        seeded("mutant-axiom1", broken.name, partial(check_axiom1, broken))
        seeded("mutant-axiom2", reversed_weights.name,
               partial(check_axiom2, reversed_weights))
        seeded("mutant-morphism-square", square.name, partial(check_morphism, square))
        suites["mutant-phi-nonadditive"] = _mutant_phi
        suites["mutant-image-halfcauchy"] = _mutant_image
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
