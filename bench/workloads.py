"""The benchmark's workloads: job lists for one pass, built from the seed.

A job is one CLI invocation, `debruijn_sft.cli.main(argv)`. Every pass
opens with the same seven-job probe on a small language, so every layer
function the trace lists runs on every workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Lang:
    alphabet: str
    forbid: tuple[str, ...]
    # Circular words of length span+1 outside the main component. For
    # 01 forbid 01111 the all-ones word is a self-loop nothing returns to
    # (coming back would need 0 followed by four 1s).
    outside: int = 0

    def flags(self, span: int) -> list[str]:
        out = ["--alphabet", self.alphabet]
        for f in self.forbid:
            out += ["--forbid", f]
        return out + ["--span", str(span)]


@dataclass(frozen=True)
class Job:
    command: str          # subcommand name, "oracle-global" for oracle --global
    lang: Lang
    span: int
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


GOLDEN_MEAN = Lang("01", ("11",))
FULL_BINARY = Lang("01", ())
TERNARY_22 = Lang("012", ("22",))
BINARY_01111 = Lang("01", ("01111",), outside=1)

EXTRA = {"oracle": ["--max-arcs", "40"], "oracle-global": ["--global", "--max-arcs", "40"]}


def job(command: str, lang: Lang, span: int, extra: list[str] | None = None) -> Job:
    sub = "oracle" if command == "oracle-global" else command
    return Job(command, lang, span, tuple([sub] + lang.flags(span) + (extra or [])))


PROBE = [job(c, GOLDEN_MEAN, 5, EXTRA.get(c)) for c in
         ("seq", "minimal", "check", "count", "verify", "oracle", "oracle-global")]

DESK_COMMANDS = ("minimal", "check", "count", "verify", "oracle", "oracle-global")
DESK_LANGUAGES = 150

# Known defects at the seed: both raise RecursionError. They stay in the
# workload so the defect shows in ok_ratio until it is fixed.
CRASHERS = [
    job("words", Lang("01", ("0",)), 1200, ["--count-only"]),
    job("oracle", FULL_BINARY, 10, ["--max-arcs", "5000"]),
]


def _ladder(commands: tuple[str, ...], rungs: list) -> list[Job]:
    return [job(c, lang, n) for lang, spans in rungs for n in spans for c in commands]


def load_golden() -> dict:
    """Seed-commit stdout digests by job key (None: the job crashed there),
    and the pool desk-certify draws its languages from."""
    golden = json.loads(GOLDEN.read_text())
    for entry in golden["desk_pool"]:
        for j, digest in zip(desk_jobs([entry]), entry[3]):
            golden["jobs"][j.key] = digest
    return golden


def desk_jobs(pool: list) -> list[Job]:
    out = []
    for alphabet, forbid, span, _ in pool:
        lang = Lang(alphabet, tuple(forbid))
        out += [job(c, lang, span, EXTRA.get(c)) for c in DESK_COMMANDS]
    return out


def build(workload: str, seed: int, golden: dict) -> list[Job]:
    """The job list of one pass. Only desk-certify draws from the seed."""
    if workload == "span-ladder":
        body = _ladder(("seq", "minimal"), [
            (GOLDEN_MEAN, range(8, 17, 2)), (FULL_BINARY, range(7, 12)),
            (TERNARY_22, range(3, 8)), (BINARY_01111, range(7, 12))])
    elif workload == "decide-verify":
        body = _ladder(("check",), [
            (GOLDEN_MEAN, (10, 12, 14)), (FULL_BINARY, (8, 9, 10)),
            (TERNARY_22, (5, 6, 7)), (BINARY_01111, (8, 9, 10))])
        body += _ladder(("verify",), [
            (GOLDEN_MEAN, range(6, 12)), (FULL_BINARY, (6, 7, 8)),
            (TERNARY_22, (3, 4, 5)), (BINARY_01111, (6, 7, 8))])
    elif workload == "count-ladder":
        body = _ladder(("count",), [
            (GOLDEN_MEAN, range(4, 11)), (FULL_BINARY, range(3, 8)),
            (TERNARY_22, range(2, 6)), (BINARY_01111, range(4, 8))])
    elif workload == "desk-certify":
        pool = golden["desk_pool"]
        picks = random.Random(seed).sample(range(len(pool)), DESK_LANGUAGES)
        body = desk_jobs([pool[i] for i in picks]) + CRASHERS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return PROBE + body


WORKLOADS = ("span-ladder", "decide-verify", "count-ladder", "desk-certify")
