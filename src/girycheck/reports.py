"""Machine-readable results for law checks, and the one loop that runs a
seeded check.

A report is deterministic for a given seed list; wall time is kept for the
text summary but deliberately excluded from the JSON form so identical
runs serialize byte-identically.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


@dataclass
class LawReport:
    law: str
    instance: str
    seeds: list[int] = field(default_factory=list)
    cases: int = 0
    passed: int = 0
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    tolerance_policy: str = "exact"

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
