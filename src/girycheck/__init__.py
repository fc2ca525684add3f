"""Executable mathematics for super convex spaces and the probability
monad at desk scale: exact-rational carriers, certified countable sums,
finite measurable spaces, barycenters, and a seeded law harness.
"""

from .numerics import (
    Enclosure,
    ExtReal,
    INF,
    LazyPartition,
    PartitionOfOne,
    Undecided,
    UnsupportedRepresentation,
    compose_partitions,
    countable_combine,
    dirac_partition,
    ext_eq,
    random_partition,
)
from .scvx import (
    ArityMismatch,
    CarrierViolation,
    CountablyAffineMap,
    IntervalSpace,
    ProductSpace,
    SuperConvexSpace,
    affine_map,
    check_axiom1,
    check_axiom2,
    check_morphism,
    constant_map,
    identity_map,
)
from .meas import (
    FiniteMeasurableSpace,
    generate_sigma_algebra,
    indicator,
)
from .giry import (
    BaseMismatch,
    GirySpace,
    NotAMeasure,
    ProbMeasure,
    barycenter,
    dirac,
    evaluation,
    integrate,
    mixture,
    monad_mu,
    phi,
    phi_inverse,
    pushforward,
)
from .reports import LawReport

__version__ = "0.1.0"
