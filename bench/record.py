"""Regenerate bench/golden.json from the current source tree.

Records the stdout digest of every fixed job, and builds the pool of
desk-scale languages that desk-certify samples from: random irreducible
languages over 01 or 012 with 1-3 forbidden words of length 2-4, span 3-6
and at most 24 arcs. Every job of every pooled language must exit 0, or
the recording stops.

Past 24 arcs (the CLI's default exhaustive bound) the global oracle's
backtracking is factorial: one 39-arc language took 1.7 s against a 10 ms
pool median, so whether a seed drew it would move wall_s by more than any
bound. Run this only on a commit whose outputs are trusted; the digests
become the reference.

    python3 bench/record.py
"""

from __future__ import annotations

import json
import random
import sys

import workloads
from checks import digest
from run import SRC, run_job

POOL_SEED = 20071695
POOL_SIZE = 200
MAX_ARCS = 24


def main() -> int:
    sys.path.insert(0, str(SRC))
    from debruijn_sft import Language, build_graph, check_irreducible, cli

    fixed = {}
    for name in ("span-ladder", "decide-verify", "count-ladder"):
        for job in workloads.build(name, 0, {"desk_pool": []}):
            fixed[job.key] = job
    for job in workloads.CRASHERS:
        fixed[job.key] = job
    jobs = {}
    for key, job in fixed.items():
        o = run_job(cli, job.argv)
        jobs[key] = digest(o.stdout) if o.error is None else None
        print(f"{o.seconds:8.3f}s {o.error or o.code} {key}", file=sys.stderr)

    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        alphabet = rng.choice(["01", "012"])
        forbid = sorted({"".join(rng.choice(alphabet) for _ in range(rng.randint(2, 4)))
                         for _ in range(rng.randint(1, 3))})
        span = rng.randint(3, 6)
        if (alphabet, tuple(forbid), span) in seen:
            continue
        seen.add((alphabet, tuple(forbid), span))
        lang = Language.from_text(alphabet, forbid)
        if not check_irreducible(lang, span).irreducible:
            continue
        if len(build_graph(lang, span).arcs) > MAX_ARCS:
            continue
        entry = [alphabet, forbid, span, None]
        outcomes = [run_job(cli, j.argv) for j in workloads.desk_jobs([entry])]
        failed = [j.key for j, o in zip(workloads.desk_jobs([entry]), outcomes)
                  if o.code != 0 or o.error]
        if failed:  # never drop a language quietly: a failure here is a defect
            raise SystemExit(f"not recording, job failed: {failed[0]}")
        entry[3] = [digest(o.stdout) for o in outcomes]
        pool.append(entry)
    workloads.GOLDEN.write_text(json.dumps({"jobs": jobs, "desk_pool": pool}) + "\n")
    print(f"{len(jobs)} fixed jobs, {len(pool)} pool languages", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
