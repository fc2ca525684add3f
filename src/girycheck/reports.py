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


class LawReport:
    """The outcome of one law on one instance: its seeds, the cases run
    and passed, and a witness per failed case."""

    def __init__(self, law: str, instance: str, seeds: list[int] | None = None):
        self.law = law
        self.instance = instance
        self.seeds = [] if seeds is None else seeds
        self.cases = 0
        self.passed = 0
        self.failures: list[dict] = []
        self.wall_time = 0.0

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
            "tolerance_policy": "exact",
        }
        if self.failures:
            obj["counterexample"] = self.failures[0]
            obj["failures"] = self.failures
        return obj

    def summary_line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        line = f"[{status}] {self.law} on {self.instance}: {self.passed}/{self.cases}"
        if self.failures:
            line += f"  witness={json.dumps(self.failures[0], sort_keys=True)}"
        return line


class HarnessConfig:
    """The master seed and the cases per seeded suite."""

    def __init__(self, seed: int = 0, cases: int = 200):
        if cases <= 0:
            raise ValueError("--cases must be positive")
        self.seed = seed
        self.cases = cases


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
