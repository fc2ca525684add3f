"""Steadiness check: run the benchmark in two sets of runs of the same code
and report, per workload and end-to-end metric, whether each set's spread
and the shift between the sets' medians stay within the metric's bound.

    python3 bench/steady.py

Run it from the repository root.  Each set runs every workload of
``BENCHMARK.json`` once per seed 1..10, for ``run_seconds`` each.  The spread of a set is the distance
between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
spread of ``setup_s`` is shown but not gated.  The shift is how much worse
the second set's median is than the first's, as a share of the first.
Every run's result line is kept in ``.bench_run/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, RUNS + 1)

    out = Path(".bench_run")
    out.mkdir(exist_ok=True)
    results: dict = {}
    for set_no in range(SETS):
        for w in workloads:
            for seed in seeds:
                res = run_once(w, seed, spec["run_seconds"])
                results.setdefault(w, [[] for _ in range(SETS)])[set_no].append(res)
                (out / "steady.json").write_text(json.dumps(results, indent=1))
                print(f"set {set_no + 1} {w} seed {seed}: correct {res['correct']} "
                      f"failed {res['failed']}/{res['attempted']}", flush=True)

    ok = True
    print(f"{'workload':<15} {'metric':<19} {'median1':>11} {'spread1':>8} "
          f"{'median2':>11} {'spread2':>8} {'worse':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            gated = name != "setup_s"
            good = all(s <= bound for s in spreads) if gated else True
            worse = worse_by(medians[0], medians[1], m["better"])
            good = good and worse <= bound
            steady = all(s <= bound / 3 for s in spreads) or not gated
            ok = ok and good
            cols = [f"{medians[0]:>11.5g}", f"{spreads[0]:>8.4f}",
                    f"{medians[1]:>11.5g}", f"{spreads[1]:>8.4f}", f"{worse:>7.4f}"]
            verdict = ("ok" if good else "FAIL") + ("" if steady else " (spread > bound/3)")
            print(f"{w:<15} {name:<19} {' '.join(cols)} {bound:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
