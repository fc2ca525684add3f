"""Machine-readable results for law checks, the harness configuration,
and the one loop that runs a seeded check.

A report is deterministic for a given seed list; wall time is kept for the
text summary but deliberately excluded from the JSON form so identical
runs serialize byte-identically.
"""

from __future__ import annotations

import json
import random
from _blake2 import blake2s
from fractions import Fraction


class LawReport:
    """The outcome of one law on one instance: its seeds, the cases run
    and passed, and a witness per failed case."""

    def __init__(self, law: str, instance: str, seeds: list[int] | None = None,
                 cases: int = 0, passed: int = 0, failures: list[dict] | None = None,
                 wall_time: float = 0.0, tolerance_policy: str = "exact"):
        self.law = law
        self.instance = instance
        self.seeds = [] if seeds is None else seeds
        self.cases = cases
        self.passed = passed
        self.failures = [] if failures is None else failures
        self.wall_time = wall_time
        self.tolerance_policy = tolerance_policy

    @classmethod
    def single(cls, law: str, instance: str, witness: dict | None) -> "LawReport":
        """The report of one unseeded case: a pass, or a failure with
        ``witness``."""
        report = cls(law=law, instance=instance)
        report.record(witness)
        return report

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, witness: dict | None):
        self.cases += 1
        if witness is None:
            self.passed += 1
        else:
            self.failures.append(witness)

    def to_json_obj(self) -> dict:
        obj = {
            "law": self.law,
            "instance": self.instance,
            "seeds": self.seeds,
            "cases": self.cases,
            "passed": self.passed,
            "pass": self.ok,
            "tolerance_policy": self.tolerance_policy,
        }
        if self.failures:
            obj["counterexample"] = self.failures[0]
            obj["failures"] = self.failures
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def summary_line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        line = f"[{status}] {self.law} on {self.instance}: {self.passed}/{self.cases}"
        if self.failures:
            line += f"  witness={json.dumps(self.failures[0], sort_keys=True)}"
        return line


class HarnessConfig:
    """The master seed, the cases per seeded suite, and the tolerance for
    values that carry a nondegenerate enclosure."""

    def __init__(self, seed: int = 0, cases: int = 200,
                 tolerance: Fraction = Fraction(1, 10**12)):
        if cases <= 0:
            raise ValueError("--cases must be positive")
        if tolerance <= 0:
            raise ValueError("--tolerance must be positive")
        self.seed = seed
        self.cases = cases
        self.tolerance = tolerance


def suite_seeds(cfg: HarnessConfig, name: str) -> list[int]:
    """``cfg.cases`` seeds for the check called ``name``, derived from the
    master seed."""
    digest = blake2s(f"{cfg.seed}:{name}".encode(), digest_size=8).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    return [rng.getrandbits(48) for _ in range(cfg.cases)]


def run_per_seed(law: str, instance: str, seeds, case) -> LawReport:
    """Run ``case(rng) -> witness | None`` once per seed, each time on a
    fresh ``random.Random(seed)``; a witness gets its seed attached."""
    seeds = list(seeds)
    report = LawReport(law=law, instance=instance, seeds=seeds)
    for seed in seeds:
        witness = case(random.Random(seed))
        if witness is not None:
            witness["seed"] = seed
        report.record(witness)
    return report
