"""End-to-end benchmark of the debruijn-sft CLI.

Runs `debruijn_sft.cli.main(argv)` in-process, one job after another (a
closed loop with one client), captures stdout and checks every output.
With --trace 1 it alternates untraced and traced passes and reports
per-layer metrics instead. The last line of stdout is one JSON object.

    python3 bench/run.py --workload span-ladder --seed 1 --seconds 24 --trace 0

Job times are scaled by the machine's speed at that moment, read from a
calibration loop; bench/README.md says why.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer, median_metrics, pass_metrics  # noqa: E402

MIN_PASSES = 3
TAIL_BEYOND = 10
SETUP_RUNS = 21
CALIBRATE_EVERY = 0.02     # seconds of jobs between calibrations
LONG_JOB = 0.005           # calibrate again after a job this long
# Fastest time of _reference_loop on the machine the baseline was recorded
# on (2-core Xeon VM at 2.1 GHz, CPython 3.11). Timings are reported in
# seconds of a machine whose loop takes this long.
REFERENCE_S = 0.00105

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import debruijn_sft.cli; print(time.perf_counter() - t)"
)


def _reference_loop() -> None:
    table: dict = {}
    for i in range(6000):
        key = (i % 101, i % 7)
        table[key] = table.get(key, 0) + i


def speed_factor() -> float:
    """REFERENCE_S over one timing of the reference loop: how much faster
    than this moment the reference machine runs."""
    t0 = time.perf_counter()
    _reference_loop()
    return REFERENCE_S / (time.perf_counter() - t0)


@dataclass
class Outcome:
    seconds: float
    stdout: str
    code: int | None
    error: str | None       # uncaught exception type, None when main returned


def run_job(cli, argv: tuple[str, ...]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a job that crashes is counted, not fatal
            error = type(exc).__name__
        t1 = time.perf_counter()
    return Outcome(t1 - t0, out.getvalue(), code, error)


def measure_setup() -> tuple[float, float]:
    """Median time to import debruijn_sft.cli in a fresh interpreter,
    scaled and raw."""
    cmd = [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)]
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        before = speed_factor()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first import may compile bytecode; users pay that once
            raw.append(float(done.stdout))
            scaled.append(raw[-1] * (before + speed_factor()) / 2)
    return median(scaled), median(raw)


class Runner:
    def __init__(self, cli, jobs: list, golden: dict) -> None:
        self.cli = cli
        self.jobs = jobs
        self.expected = golden["jobs"]
        self.passes: list[list[float]] = []   # job latencies, one list per pass
        self.factors: list[list[float]] = []  # speed factor for each latency
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []             # completed with a wrong answer
        self.crashed: dict[str, str] = {}
        self.checked: set[str] = set()

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, int]:
        """Run every job once; return the pass wall time and stdout bytes."""
        gc.collect()
        outcomes, factors = [], []
        calibrated = float("-inf")
        t0 = time.perf_counter()
        for job in self.jobs:
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY:
                factor = speed_factor()
                calibrated = time.perf_counter()
            if tracer is not None:
                tracer.job = len(tracer.jobs)
                tracer.jobs.append(job.key)
            outcome = run_job(self.cli, job.argv)
            outcomes.append(outcome)
            if outcome.seconds < LONG_JOB:
                factors.append(factor)
                continue
            # A long job may span a change of speed: average both ends.
            after = speed_factor()
            calibrated = time.perf_counter()
            factors.append((factor + after) / 2)
            factor = after
        wall = time.perf_counter() - t0
        self.passes.append([o.seconds for o in outcomes])
        self.factors.append(factors)
        self._check(outcomes)
        return wall, sum(len(o.stdout.encode()) for o in outcomes)

    def scaled(self) -> list[list[float]]:
        return [[t * f for t, f in zip(ts, fs)] for ts, fs in zip(self.passes, self.factors)]

    def _check(self, outcomes: list[Outcome]) -> None:
        by_key = {job.key: o for job, o in zip(self.jobs, outcomes)}
        for job, o in zip(self.jobs, outcomes):
            self.attempted += 1
            if o.error is not None:
                self.failed += 1
                self.crashed[job.key] = o.error
                continue
            problem = self._problem(job, o, by_key)
            if problem is not None:
                self.failed += 1
                self.wrong.append(f"{job.key}: {problem}")

    def _problem(self, job, o: Outcome, by_key: dict) -> str | None:
        if o.code != 0:
            return f"exit code {o.code}"
        want = self.expected[job.key]
        if want is not None and checks.digest(o.stdout) != want:
            return "stdout differs from the seed commit's"
        if job.key in self.checked:
            return None
        self.checked.add(job.key)
        try:
            return check_output(job, o.stdout, by_key)
        except (KeyError, ValueError, IndexError) as exc:  # output in another shape
            return f"unreadable stdout ({type(exc).__name__}: {exc})"


def _sibling(job, command: str, by_key: dict) -> str | None:
    other = workloads.job(command, job.lang, job.span, workloads.EXTRA.get(command))
    hit = by_key.get(other.key)
    return None if hit is None or hit.code != 0 else hit.stdout


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)


def check_output(job, stdout: str, by_key: dict) -> str | None:
    """Independent checks of one job's stdout, plus cross-checks against
    other jobs of the same pass on the same language and span."""
    lang, n = job.lang, job.span
    lines = stdout.splitlines()
    fields = _fields(stdout)
    full = not lang.forbid
    arcs = checks.circular_word_count(lang.alphabet, lang.forbid, n + 1) - lang.outside
    if job.command == "words":
        words = checks.circular_word_count(lang.alphabet, lang.forbid, n)
        return None if lines == [str(words)] else f"count {lines} != {words}"
    if job.command == "seq":
        return checks.covers_every_word_once(lines[0], lang.forbid, n + 1, arcs)
    if job.command == "minimal":
        if full and lines != [checks.fkm_sequence(lang.alphabet, n + 1), "eulerian true"]:
            return "label is not the FKM sequence"
        if lines[-1] == "eulerian true":
            return checks.covers_every_word_once(lines[0], lang.forbid, n + 1, arcs)
        return None
    if job.command == "count":
        if full and int(stdout) != checks.best_count_full(len(lang.alphabet), n):
            return "count differs from the BEST closed form"
        return None if int(stdout) > 0 else "count is not positive"
    if job.command == "check":
        walk = _sibling(job, "minimal", by_key)
        if walk is not None and fields["minimal-eulerian"] != walk.split()[-1]:
            return "decision disagrees with the minimal walk"
        return None
    if job.command == "verify":
        bad = [line for line in lines if not line.startswith("ok ")]
        return f"verifier failed: {bad}" if bad else None
    if job.command == "oracle":
        if fields.get("pass") != "true":
            return "certification did not pass"
        if full and fields["greedy-label"] != checks.fkm_sequence(lang.alphabet, n + 1):
            return "greedy label is not the FKM sequence"
        walk = _sibling(job, "minimal", by_key)
        if walk is not None:
            label, _, covers = walk.split()
            if covers == "true" and label != fields["oracle-label"]:
                return "oracle label differs from the covering greedy walk"
        return None
    if job.command == "oracle-global":
        if len(fields["label"]) != arcs:
            return "global label does not spell every arc"
        local = _sibling(job, "oracle", by_key)
        if local is not None and fields["label"] > _fields(local)["oracle-label"]:
            return "global minimum is above the minimum from the maximal vertex"
        return None
    return f"no check for {job.command}"


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def report_failures(runner: Runner) -> None:
    for key, error in sorted(runner.crashed.items()):
        print(f"crashed ({error}): {key}")
    for line in runner.wrong[:20]:
        print(f"WRONG {line}")
    print(f"fail_ratio {runner.failed}/{runner.attempted}")


def untraced(runner: Runner, seconds: float) -> dict:
    setup, setup_raw = measure_setup()
    start = time.perf_counter()
    walls: list[float] = []
    while len(walls) < MIN_PASSES or time.perf_counter() - start + median(walls) <= seconds:
        walls.append(runner.one_pass()[0])
    scaled = runner.scaled()
    latency = [median(runs) for runs in zip(*scaled)]
    tail_s, pct = tail(latency)
    report_failures(runner)
    print(f"passes {len(walls)}, jobs per pass {len(runner.jobs)}; "
          f"tail = p{pct:.1f} of {len(latency)} jobs ({TAIL_BEYOND} beyond)")
    print(f"raw: median pass {median(walls):.4f} s, setup {setup_raw:.6f} s; "
          f"median speed factor "
          f"{median(f for fs in runner.factors for f in fs):.4f}")
    values = {
        "setup_s": (setup, "s"),
        "wall_s": (median(sum(p) for p in scaled), "s"),
        "job_p50_ms": (median(latency) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1 - runner.failed / runner.attempted, "ratio"),
    }
    for name, (value, unit) in values.items():
        print(f"{name:12} {value:14.6f} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def traced(runner: Runner, tracer: Tracer, seconds: float, out: Path) -> dict:
    plain, walls, per_pass = [], [], []
    start = time.perf_counter()
    while len(walls) < 2 or (
            time.perf_counter() - start + median(plain) + median(walls) <= seconds):
        plain.append(runner.one_pass()[0])
        first, first_job = len(tracer.spans), len(tracer.jobs)
        with tracer.installed():
            wall, stdout_bytes = runner.one_pass(tracer)
        walls.append(wall)
        job_factor = dict(enumerate(runner.factors[-1], start=first_job))
        per_pass.append(pass_metrics(tracer.spans[first:], first, job_factor, stdout_bytes))
    tracer.write(out)
    metrics = median_metrics(per_pass)
    scaled = [sum(p) for p in runner.scaled()]   # passes alternate: untraced, traced
    metrics["trace.overhead_ratio"] = median(scaled[1::2]) / median(scaled[0::2])
    report_failures(runner)
    print(f"traced passes {len(walls)}, spans {len(tracer.spans)} written to {out}")
    for layer in LAYERS:
        print(f"share {layer:10} {metrics[layer + '.share']:7.1%}")
    return {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "debruijn_sft" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from debruijn_sft import cli

    golden = workloads.load_golden()
    jobs = workloads.build(args.workload, args.seed, golden)
    unknown = [job.key for job in jobs if job.key not in golden["jobs"]]
    if unknown:
        print(f"error: no seed-commit digest for {unknown[0]}; rerun bench/record.py",
              file=sys.stderr)
        return 2
    runner = Runner(cli, jobs, golden)
    for job in workloads.PROBE:   # warm-up: imports and first-call costs
        run_job(cli, job.argv)
    if args.trace:
        out = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        metrics = traced(runner, Tracer("debruijn_sft"), args.seconds, out)
    else:
        metrics = untraced(runner, args.seconds)
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
