"""Brute-force ground truth at desk scale.

Exhaustive backtracking over Eulerian circuits, true minimal circuit
labels, the global minimum over all start vertices, and a certification
verdict tying the greedy walk, the decision procedure, and the oracle
together. Everything here is factorial-time and guarded by an arc bound,
checked first. One backtracker, on the graph's vertex and arc ids,
serves every search; the global one bounds each start by the least label
found before it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import NotEulerianError, TooLargeError
from .graph import DeBruijnGraph
from .language import Word
from .structure import decide_minimal_is_eulerian
from .walks import Walk, minimal_walk

DEFAULT_MAX_ARCS = 24


def _guard(g: DeBruijnGraph, max_arcs: int) -> None:
    # Counted on the id tables, so a refusal builds no `Arc`.
    if type(max_arcs) is not int:
        raise ValueError(f"max_arcs must be an integer, got {max_arcs!r}")
    if len(g.heads) > max_arcs:
        raise TooLargeError(
            f"{len(g.heads)} arcs exceeds the exhaustive bound of {max_arcs}"
        )


class EnumerationResult(NamedTuple):
    walks: tuple[Walk, ...]
    truncated: bool


def _circuits(g: DeBruijnGraph, at: int, bound: Word | None = None) -> Iterator[list[int]]:
    """The Eulerian circuits from vertex id `at`, as lists of arc ids, in
    label order.

    Backtracking tries arcs in ascending label order, so circuits come out
    sorted by label. With `bound`, a circuit label, only circuits labelled
    below it are yielded, and the search ends at the first path whose
    label is above the bound's at the same depth: every later path from
    `at` is larger still.
    """
    first, heads, labels = g.first, g.heads, g.labels
    total = len(heads)
    used = bytearray(total)
    path: list[int] = []
    # The depth at which the path's label fell below the bound; `total`
    # while the path spells a prefix of the bound, and -1 with no bound.
    below = total if bound is not None else -1
    # One iterator over the out-arc ids of the current vertex per depth,
    # so circuits of any length need no recursion.
    frames = [iter(range(first[at], first[at + 1]))]
    while frames:
        for i in frames[-1]:
            if not used[i]:
                break
        else:
            frames.pop()
            if path:
                used[path.pop()] = 0
                if len(path) == below:
                    below = total
            continue
        depth = len(path)
        if depth < below:
            if labels[i] > bound[depth]:
                return
            if labels[i] < bound[depth]:
                below = depth
        used[i] = 1
        path.append(i)
        h = heads[i]
        if depth + 1 < total:
            frames.append(iter(range(first[h], first[h + 1])))
            continue
        if h == at:
            if below == total:   # the bound itself: nothing smaller follows
                return
            yield path.copy()
        used[path.pop()] = 0
        if depth == below:
            below = total


def enumerate_eulerian_cycles(
    g: DeBruijnGraph, start: Word, cap: int | None = None,
    max_arcs: int = DEFAULT_MAX_ARCS,
) -> EnumerationResult:
    """Every Eulerian circuit from `start`, in lexicographic label order.

    Backtracking tries arcs in ascending label order, so circuits come out
    sorted by label; `cap` (at least 1) stops the search early and flags
    truncation.
    """
    _guard(g, max_arcs)
    at = g._vertex_id(start)
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValueError(f"cap must be at least 1 and an int, got {cap!r}")
    start = g.word_of(at)
    found: list[Walk] = []
    for ids in _circuits(g, at):
        found.append(Walk._of_ids(g, start, ids))
        if cap is not None and len(found) >= cap:
            return EnumerationResult(tuple(found), truncated=True)
    return EnumerationResult(tuple(found), truncated=False)


def minimal_eulerian_label(
    g: DeBruijnGraph, start: Word, max_arcs: int = DEFAULT_MAX_ARCS
) -> Word:
    """Lexicographically smallest Eulerian-circuit label from `start`.

    Circuits are enumerated in label order, so the first one is minimal.
    """
    walks = enumerate_eulerian_cycles(g, start, cap=1, max_arcs=max_arcs).walks
    if not walks:
        raise NotEulerianError(f"no Eulerian circuit from {start}")
    return walks[0].label


class GlobalMinimum(NamedTuple):
    start: Word
    label: Word


def global_minimal_label(g: DeBruijnGraph, max_arcs: int = DEFAULT_MAX_ARCS) -> GlobalMinimum:
    """Smallest Eulerian-circuit label over every start vertex.

    The winner can differ from the maximal vertex, in which case the
    greedy-from-maximal answer is not the global optimum. A branch and
    bound over the starts: each one's search is bounded by the least label
    found so far, so it ends once its paths pass that label, and yields a
    circuit only when it beats it."""
    _guard(g, max_arcs)
    labels = g.labels
    best: Word | None = None
    # Over vertex ids, and only a strictly smaller label replaces the
    # best, so the first id, in word order, wins a tie.
    for v in range(len(g.ranks)):
        ids = next(_circuits(g, v, best), None)
        if ids is not None:
            best, winner = tuple([labels[i] for i in ids]), v
        elif best is None:
            raise NotEulerianError(f"no Eulerian circuit from {g.word_of(v)}")
    return GlobalMinimum(start=g.word_of(winner), label=best)


class Verdict(NamedTuple):
    greedy_label: Word
    greedy_eulerian: bool
    oracle_label: Word
    decision: bool
    passed: bool


def certify_minimal_walk(g: DeBruijnGraph, max_arcs: int = DEFAULT_MAX_ARCS) -> Verdict:
    """Cross-check the greedy walk against the oracle.

    Passes when the decision procedure agrees with the walk actually
    covering the graph, and, whenever it does cover, its label equals the
    oracle's minimal circuit label from the maximal vertex."""
    _guard(g, max_arcs)
    greedy = minimal_walk(g)
    greedy_eulerian = greedy.is_eulerian(g)
    decision = decide_minimal_is_eulerian(g)
    oracle_label = minimal_eulerian_label(g, g.max_vertex, max_arcs=max_arcs)
    passed = (greedy_eulerian == decision.answer) and (
        not greedy_eulerian or greedy.label == oracle_label
    )
    return Verdict(
        greedy_label=greedy.label,
        greedy_eulerian=greedy_eulerian,
        oracle_label=oracle_label,
        decision=decision.answer,
        passed=passed,
    )


def verdict_to_json(v: Verdict, g: DeBruijnGraph) -> dict:
    return {
        "greedyLabel": g.alphabet.text(v.greedy_label),
        "greedyEulerian": v.greedy_eulerian,
        "oracleLabel": g.alphabet.text(v.oracle_label),
        "decision": v.decision,
        "pass": v.passed,
    }
