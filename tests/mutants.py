"""Mutant gate: each entry is a one-line fault in the library that its
tests must catch.

Each mutant names a file under src/debruijn_sft, a text that occurs in it
exactly once, the text that replaces it, and the tests that must then
fail. src/ and tests/ are copied to a temporary directory; first every
named test must pass there unmutated, then each mutant in turn is written
into the copy and its tests run with `pytest -x`, under a 512 MiB
address-space limit and a 60 s time limit. A mutant is killed only when a
test fails. The script prints one line per run and exits 1 when the
control fails, or a mutant survives, times out, cannot run its tests, or
finds its text other than exactly once. A change to a mutated line
updates its mutant in the same change; a mutant is never dropped to get
a pass.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py parity     # the mutants whose name has "parity"

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# A mutant can make a loop run forever; in the tests' process it then
# fails on this address-space limit within seconds, or on the time limit.
MEMORY = 1 << 29
SECONDS = 60


class Mutant(NamedTuple):
    name: str
    file: str   # under src/debruijn_sft
    old: str
    new: str
    tests: tuple[str, ...]   # pytest node ids, from the repository root


MUTANTS = (
    Mutant(
        "word-letter-bound", "language.py",
        "max(w) < k", "max(w) <= k",
        ("tests/test_language.py::test_is_circular_rejects_letters_outside_the_alphabet",),
    ),
    Mutant(
        "label-monotonicity-strict", "structure.py",
        "if label[v] > label[u]:", "if label[v] >= label[u]:",
        ("tests/test_structure.py::test_verifiers_match_tuple_references_with_violations",),
    ),
    Mutant(
        "one-component-shortcut-always", "graph.py",
        "if len(comp) == len(order):", "if True:",
        ("tests/test_properties.py::test_graph_keeps_the_main_component",),
    ),
    Mutant(
        "euler-arc-count-loosened", "walks.py",
        "if len(tour) != len(heads):", "if len(tour) > len(heads):",
        ("tests/test_walks.py::test_eulerian_cycle_disconnected_raises",),
    ),
    Mutant(
        "parity-always-even", "counting.py",
        "if (size - len(_functional_cycles(order))) % 2:", "if False:",
        ("tests/test_counting.py::test_integer_determinant",),
    ),
    Mutant(
        "parity-inverted", "counting.py",
        "if (size - len(_functional_cycles(order))) % 2:",
        "if not (size - len(_functional_cycles(order))) % 2:",
        ("tests/test_counting.py::test_integer_determinant",),
    ),
    Mutant(
        "overlap-bounds-low-label-off", "structure.py",
        "if x < cap and state[h]:", "if False:",
        ("tests/test_structure.py::test_verifiers_match_tuple_references_with_violations",),
    ),
    Mutant(
        "global-bound-not-strict", "oracle.py",
        "if labels[i] > bound[depth]:", "if labels[i] >= bound[depth]:",
        ("tests/test_oracle.py::test_global_minimum_matches_tuple_reference",),
    ),
    Mutant(
        "labels-joined-reversed", "graph.py",
        "heads = list(chain.from_iterable(by_label))",
        "heads = list(chain.from_iterable(reversed(by_label)))",
        ("tests/test_properties.py::test_span_digraph_numbers_heads_by_rotation",),
    ),
    Mutant(
        "twin-root-mergeable", "counting.py",
        "for v in range(size) if v != r]", "for v in range(size)]",
        ("tests/test_counting.py::test_twin_quotient_values",),
    ),
    Mutant(
        "twin-keys-not-remapped", "counting.py",
        "tuple(sorted(map(survivor, key)))", "tuple(sorted(key))",
        ("tests/test_counting.py::test_twin_quotient_merges_over_several_rounds",),
    ),
    Mutant(
        "twin-keys-unsorted", "counting.py",
        "tuple(sorted(map(survivor, key)))", "tuple(map(survivor, key))",
        ("tests/test_counting.py::test_twin_quotient_merges_over_several_rounds",),
    ),
    Mutant(
        "count-rows-eliminated-in-place", "counting.py",
        "rows = [dict(row) for row in sparse]", "rows = sparse",
        ("tests/test_counting.py::test_integer_determinant_retries_when_a_pivot_shares_a_prime",),
    ),
    Mutant(
        "exhaustion-cycles-emptied", "structure.py",
        "for cyc in _functional_cycles(succ):\n        for v in cyc:\n            on_cycle[v] = True",
        "for cyc in []:\n        for v in cyc:\n            on_cycle[v] = True",
        ("tests/test_structure.py::test_exhaustion_order_violations_match_reference",),
    ),
)


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _pytest(copy: Path, tests: list[str]) -> tuple[str, float]:
    """How the tests end on the copy: passed, failed, timeout or broken
    (pytest could not run them), and the seconds they took."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=SECONDS, preexec_fn=_limit,
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    fate = {0: "passed", 1: "failed"}.get(done.returncode, "broken")
    return fate, time.perf_counter() - start


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    if not chosen:
        print(f"no mutant matches {argv}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        # The control: unmutated, every chosen test passes under the limits.
        control = list(dict.fromkeys(t for m in chosen for t in m.tests))
        fate, seconds = _pytest(copy, control)
        print(f"{fate:8} {seconds:5.1f}s  control (no mutant)", flush=True)
        if fate != "passed":
            return 1
        unkilled = 0
        for m in chosen:
            path = copy / "src" / "debruijn_sft" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                fate, seconds = "missing", 0.0
            else:
                path.write_text(text.replace(m.old, m.new))
                try:
                    fate, seconds = _pytest(copy, list(m.tests))
                finally:
                    path.write_text(text)
                fate = {"failed": "killed", "passed": "survived"}.get(fate, fate)
            print(f"{fate:8} {seconds:5.1f}s  {m.name}  ({m.file})", flush=True)
            unkilled += fate != "killed"
    print(f"{len(chosen) - unkilled} of {len(chosen)} mutants killed")
    return 1 if unkilled else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
