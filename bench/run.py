"""The girycheck benchmark: run the real CLI, check every verdict, report
the end-to-end metrics or, with ``--trace 1``, the per-layer metrics.

    python3 bench/run.py --workload laws-default --seed 1 --seconds 55 --trace 0

Run it from the repository root.  Each call is ``python3 -m girycheck.cli``
with ``PYTHONPATH=src``, started only after the previous call has exited
(a closed loop with one client), until ``--seconds`` have passed.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.

A check is one suite report of ``laws`` or one check of a scenario.  It
fails when its call crashes (a traceback, or an exit code outside 0..2),
times out, exits with a code that disagrees with its own reports, or
returns a verdict that differs from the known answer.  A call whose
arguments, input file and ``src/`` repeat a call made earlier, in this run
or in an earlier run in the same directory, must write a JSON report
byte-identical to the earlier one, or all its checks fail.  The report
digests are kept in ``.bench_run/digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import scenarios  # noqa: E402

SETUP_SAMPLES = 20
TIMEOUT_S = {"laws-default": 60.0, "scenario-sweep": 30.0}
RUN_LIMIT_S = 170.0

SUITES = sorted([
    "axiom1-closed-unit", "axiom2-closed-unit", "axiom1-open-unit",
    "axiom2-open-unit", "axiom1-ext-real", "axiom2-ext-real",
    "axiom1-product", "axiom2-product", "axiom1-giry2", "axiom2-giry2",
    "axiom1-giry3", "axiom2-giry3", "axiom1-giry4", "axiom2-giry4",
    "morphism-id", "morphism-affine-half", "morphism-const-third",
    "morphism-proj1", "morphism-ext-affine", "triangle",
    "naturality-epsilon", "phi-roundtrip", "countable-additivity",
    "monad-laws", "image-property", "gp-naturality", "recovery",
    "sigma-agreement",
])

CARRIER_SIZES = range(2, 13)
LAYER_CALLS = [
    "numerics.PartitionOfOne", "numerics.countable_combine",
    "numerics.compose_partitions", "numerics.random_partition",
    "meas.FiniteMeasurableSpace", "meas.generate_sigma_algebra",
    "meas.atoms_of_sigma",
    "giry.phi_inverse", "giry.integrate", "giry.ProbMeasure", "giry.mixture",
]
SIZED = ["giry.phi_inverse", "meas.FiniteMeasurableSpace", "meas.generate_sigma_algebra"]

# Wrappers that must record calls on each workload; a zero would mean a
# missed binding, not a free layer.
_ALWAYS = ["numerics.PartitionOfOne", "numerics.countable_combine",
           "numerics.random_partition", "scvx.combine", "scvx.check",
           "meas.FiniteMeasurableSpace", "meas.atoms_of_sigma", "giry.phi_inverse",
           "giry.integrate", "giry.ProbMeasure", "giry.mixture", "cli.main"]
EXPECTED_SPANS = {
    "laws-default": _ALWAYS + ["numerics.compose_partitions", "laws"],
    "scenario-sweep": _ALWAYS + ["meas.generate_sigma_algebra"],
}


@dataclass
class Call:
    """One girycheck invocation and the answers its checks must give.

    ``expect`` lists (report name, must pass) in report order; a wrong
    verdict is tolerated only on the reports named in ``allowed_wrong``."""

    args: list
    expect: list
    allowed_wrong: tuple = ()
    input_sha256: str = ""


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    cases: int = 0
    problem: str | None = None
    unexpected_wrong: int = 0
    digest: str | None = None


def _laws_blocks(seed: int):
    """``laws`` with default flags, one call per block and a new girycheck
    seed per call; every suite must pass."""
    rng = random.Random(f"laws-default:{seed}")
    expect = [(s, True) for s in SUITES]
    while True:
        yield [Call(["laws", "--seed", str(rng.randrange(10**6))], expect)]


def _scenario_blocks(seed: int, work: Path):
    """Blocks of scenario files, each drawn afresh from the seed's
    generator; a call's identity key includes the digest of its file."""
    rng = random.Random(f"scenario-sweep:{seed}")
    scn_dir = work.relative_to(Path.cwd()) / "scenarios"
    scn_dir.mkdir(parents=True, exist_ok=True)
    for block in itertools.count():
        calls = []
        for i, item in enumerate(scenarios.make_block(rng)):
            path = scn_dir / f"seed{seed}-{block}-{i:03d}-n{item['n']}-{item['sigma']}.json"
            text = json.dumps(item["doc"], indent=1)
            path.write_text(text)
            checks = item["doc"]["checks"]
            expect = [(c["suite"], ok) for c, ok in zip(checks, item["expect"])]
            allowed = (scenarios.KNOWN_DEFECT,) if item["off_first"] else ()
            calls.append(Call(["scenario", str(path)], expect, allowed,
                              hashlib.sha256(text.encode()).hexdigest()))
        yield calls


def make_blocks(workload: str, seed: int, work: Path):
    """The workload's calls, in whole blocks that each time the same mix."""
    if workload == "scenario-sweep":
        return _scenario_blocks(seed, work)
    return _laws_blocks(seed)


def spawn(argv, env, timeout, stderr_path) -> tuple[int | None, float, float, bool]:
    """Run ``argv`` to completion; return exit code (None if killed by a
    signal), wall seconds, peak RSS in MB from ``os.wait4`` and whether it
    timed out."""
    expired = threading.Event()
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def expire():
            expired.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if proc.returncode >= 0 else None
    return code, wall, usage.ru_maxrss / 1024.0, expired.is_set()


def judge(call: Call, code, report: bytes | None, stderr: str, timed_out: bool,
          out: Outcome) -> Outcome:
    """Score one call's checks against their known answers."""
    out.attempted += len(call.expect)
    if timed_out:
        out.problem = "timeout"
    elif code not in (0, 1, 2) or "Traceback (most recent call last)" in stderr:
        out.problem = f"crash (exit {code})"
    elif report is None:
        out.problem = f"no report (exit {code})"
    if out.problem is None:
        try:
            reports = json.loads(report)
            names = [r["law"] for r in reports]
        except (ValueError, TypeError, KeyError):
            reports, names = [], None
        if names is None:
            out.problem = "unreadable report"
        elif names != [name for name, _ in call.expect]:
            out.problem = f"reports {names} do not match the checks asked for"
        elif code != (0 if all(r["pass"] for r in reports) else 1):
            out.problem = f"exit {code} disagrees with the reports"
    if out.problem is not None:
        out.failed += len(call.expect)
        return out
    out.digest = hashlib.sha256(report).hexdigest()
    for r, (name, must_pass) in zip(reports, call.expect):
        out.cases += r["cases"]
        if r["pass"] != must_pass:
            out.failed += 1
            out.wrong += 1
            if name not in call.allowed_wrong:
                out.unexpected_wrong += 1
    return out


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Outcomes of a run plus the byte-identity oracle; ``digests`` maps
    call arguments to the report digest of an earlier call."""

    def __init__(self, digests: dict[str, str]):
        self.outcomes: list[Outcome] = []
        self.digests = digests
        self.identity_checks = 0
        self.problems: list[str] = []
        self.lines: list[str] = []

    def not_reproduced(self, out: Outcome, why: str):
        """A report that differs from an earlier one fails all its checks."""
        out.failed = out.attempted
        self.problems.append(why)

    def add(self, call: Call, out: Outcome):
        self.outcomes.append(out)
        label = " ".join(call.args)
        if out.problem is not None:
            self.problems.append(f"{label}: {out.problem}")
        if out.digest is None:
            return
        self.lines.append(f"report sha256 {out.digest}  {label}")
        key = f"{label} {call.input_sha256}".rstrip()
        if key in self.digests:
            self.identity_checks += 1
            if self.digests[key] != out.digest:
                self.not_reproduced(out, f"{label}: report differs from an earlier run")
        else:
            self.digests[key] = out.digest

    @property
    def attempted(self):
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self):
        return sum(o.failed for o in self.outcomes)

    @property
    def wrong(self):
        return sum(o.wrong for o in self.outcomes)

    @property
    def correct(self):
        return not self.problems and not any(o.unexpected_wrong for o in self.outcomes)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def setup_sample(root: Path, work: Path) -> float:
    """Wall time of interpreter start plus ``import girycheck.cli``."""
    argv = [sys.executable, "-c", "import girycheck.cli"]
    code, wall, _, timed_out = spawn(argv, child_env(root), 60, work / "stderr.txt")
    if code != 0 or timed_out:
        raise SystemExit("benchmark: cannot import girycheck.cli from src/: "
                         + (work / "stderr.txt").read_text(errors="replace")[-500:])
    return wall


def run_untraced(root: Path, work: Path, workload: str, blocks,
                 seconds: float, tally: Tally) -> list[float]:
    """The closed loop.  It issues whole blocks, and starts another only
    while the time left is at least what the last block took, so a run
    ends within ``seconds`` unless its first block alone is longer.  A
    partial block would change the mix.  Set-up samples are spread over
    the run so that their median sees the same machine as the calls.
    Returns them."""
    report_path = work / "report.json"
    stderr_path = work / "stderr.txt"
    setup = [setup_sample(root, work)]
    last_setup = start = time.perf_counter()
    for block in blocks:
        block_start = time.perf_counter()
        for call in block:
            if time.perf_counter() - last_setup >= seconds / SETUP_SAMPLES:
                setup.append(setup_sample(root, work))
                last_setup = time.perf_counter()
            report_path.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "girycheck.cli", *call.args,
                    "--json", str(report_path)]
            code, wall, rss, timed_out = spawn(argv, child_env(root), TIMEOUT_S[workload],
                                               stderr_path)
            report = report_path.read_bytes() if report_path.exists() else None
            stderr = stderr_path.read_text(errors="replace")
            tally.add(call, judge(call, code, report, stderr, timed_out, Outcome(wall, rss)))
        now = time.perf_counter()
        if start + seconds - now < now - block_start:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(root, work))
    return setup


def end_to_end_metrics(tally: Tally, setup: list[float]) -> dict:
    walls = [o.wall_s for o in tally.outcomes]
    checks = tally.attempted
    return {
        "setup_s": statistics.median(setup),
        "verdict_p50_s": statistics.median(walls),
        "verdict_p90_s": nearest_rank(walls, 0.9),
        "cases_per_s": sum(o.cases for o in tally.outcomes) / sum(walls),
        "peak_rss_mb": max(o.rss_mb for o in tally.outcomes),
        "check_ok_rate": 1 - tally.failed / checks,
        "right_verdict_rate": 1 - tally.wrong / checks,
    }


def run_traced(root: Path, work: Path, workload: str, blocks,
               tally: Tally, started: float) -> dict:
    """The first block, untraced and traced, in one process."""
    plan = next(blocks)
    dirs = {kind: work / kind for kind in ("untraced", "traced")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    argvs = {kind: [[*c.args, "--json", str(d / f"{i:03d}.json")]
                    for i, c in enumerate(plan)] for kind, d in dirs.items()}
    (work / "plan.json").write_text(json.dumps(argvs))
    out_path = work / "trace.json"
    argv = [sys.executable, str(Path(__file__).resolve().parent / "tracer.py"),
            str(work / "plan.json"), str(out_path), str(work / "spans.tsv")]
    code, _, _, timed_out = spawn(argv, child_env(root), RUN_LIMIT_S - (time.perf_counter()
                                  - started), work / "stderr.txt")
    if code != 0 or timed_out:
        raise SystemExit("benchmark: traced run failed: "
                         + (work / "stderr.txt").read_text(errors="replace")[-2000:])
    result = json.loads(out_path.read_text())
    if result["unpatched"]:
        raise SystemExit(f"benchmark: bindings left unwrapped: {result['unpatched']}")
    for i, (call, res) in enumerate(zip(plan, result["calls"])):
        traced = dirs["traced"] / f"{i:03d}.json"
        report = traced.read_bytes() if traced.exists() else None
        out = judge(call, res["exit"], report, res["crash"] or "", False, Outcome(0.0, 0.0))
        tally.add(call, out)
        untraced = dirs["untraced"] / f"{i:03d}.json"
        if out.digest is not None:
            tally.identity_checks += 1
            if not untraced.exists() or untraced.read_bytes() != report:
                tally.not_reproduced(out, f"{' '.join(call.args)}: tracing changed the report")
    totals = result["totals"]
    missing = [n for n in EXPECTED_SPANS[workload] if totals.get(n, {}).get("calls", 0) == 0]
    if missing:
        raise SystemExit(f"benchmark: wrappers recorded no calls on {workload}: {missing}")
    return layer_metrics(result)


def layer_metrics(result: dict) -> dict:
    empty = {"calls": 0, "self_s": 0.0, "by_size": {}, "size_sum": 0}
    totals = result["totals"]
    get = lambda name: totals.get(name, empty)  # noqa: E731
    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    m["scvx.combine.calls"] = get("scvx.combine")["calls"]
    m["scvx.combine.self_s"] = get("scvx.combine")["self_s"]
    m["scvx.check.self_s"] = get("scvx.check")["self_s"]
    m["meas.carrier_points"] = get("meas.FiniteMeasurableSpace")["size_sum"]
    for name in SIZED:
        for n in CARRIER_SIZES:
            m[f"{name}.self_s.n{n}"] = get(name)["by_size"].get(str(n), 0.0)
    for suite in SUITES:
        m[f"laws.suite.{suite}.s"] = result["suite_times"].get(suite, 0.0)
    m["laws.self_s"] = get("laws")["self_s"]
    m["cli.main.self_s"] = get("cli.main")["self_s"]
    m["trace.overhead_s"] = result["traced_s"] - result["untraced_s"]
    return m


def metadata(root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
        commit = commit.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in src:
        data = p.read_bytes()
        digest.update(p.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "git_commit": commit, "src_lines": lines, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TIMEOUT_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "girycheck" / "cli.py").is_file():
        print("benchmark: src/girycheck/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    meta = metadata(root)
    store_path = root / ".bench_run" / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    tally = Tally(store.setdefault(meta["src_sha256"], {}))
    blocks = make_blocks(args.workload, args.seed, work)
    if args.trace:
        metrics = run_traced(root, work, args.workload, blocks, tally, started)
        declared = spec["per_layer"]
    else:
        setup = run_untraced(root, work, args.workload, blocks, args.seconds, tally)
        metrics = end_to_end_metrics(tally, setup)
        declared = spec["end_to_end"]
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"benchmark: metrics {sorted(set(units) ^ set(metrics))} "
                         "differ from BENCHMARK.json")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in tally.lines:
        print(line)
    for problem in tally.problems:
        print(f"PROBLEM {problem}")
    walls = [o.wall_s for o in tally.outcomes]
    print(f"calls {len(tally.outcomes)}  checks {tally.attempted}  failed {tally.failed}  "
          f"error_rate {tally.failed / tally.attempted:.6f}  "
          f"wrong_verdict_rate {tally.wrong / tally.attempted:.6f}  "
          f"identity checks {tally.identity_checks}")
    if not args.trace and len(walls) < 100:
        print(f"note: verdict_p90_s is the nearest-rank 90th percentile of only "
              f"{len(walls)} calls" + (", so the slowest of them" if len(walls) < 10 else ""))
    for name in (m["name"] for m in declared):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in (m["name"] for m in declared)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
