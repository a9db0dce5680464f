"""Walks over the graph: Eulerian circuits, walks avoiding an arc set,
the greedy minimal walk, and exhaustion bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import NotEulerianError
from .graph import Arc, DeBruijnGraph
from .language import Word


@dataclass(frozen=True)
class Walk:
    start: Word
    steps: tuple[Arc, ...]

    @property
    def label(self) -> Word:
        return tuple(a.label for a in self.steps)

    @property
    def end(self) -> Word:
        return self.steps[-1].head if self.steps else self.start

    @property
    def is_closed(self) -> bool:
        return self.end == self.start

    def is_eulerian(self, g: DeBruijnGraph) -> bool:
        return (
            self.is_closed
            and len(self.steps) == len(g.arcs)
            and len(set(self.steps)) == len(self.steps)
        )


@dataclass(frozen=True, eq=False)
class AvoidSet:
    """One reserved out-arc per non-root vertex; the root reserves none."""

    root: Word
    arc_by_vertex: Mapping[Word, Arc]


def check_avoid_set(g: DeBruijnGraph, avoid: AvoidSet) -> None:
    if avoid.root not in g.out:
        raise ValueError(f"root {avoid.root} is not in the graph")
    expected = set(g.vertices) - {avoid.root}
    if set(avoid.arc_by_vertex) != expected:
        raise ValueError("avoid set must reserve exactly one arc per non-root vertex")
    for v, a in avoid.arc_by_vertex.items():
        if a.tail != v or a not in g:
            raise ValueError(f"reserved arc for {v} is not an out-arc of {v} in the graph")


def walk_to_json(walk: Walk, g: DeBruijnGraph) -> dict:
    return {
        "start": g.alphabet.text(walk.start),
        "label": g.alphabet.text(walk.label),
        "arcCount": len(walk.steps),
        "eulerian": walk.is_eulerian(g),
    }


def check_balanced(g: DeBruijnGraph) -> None:
    """Raise NotEulerianError at the first vertex whose in- and out-degree differ."""
    indeg: dict[Word, int] = {v: 0 for v in g.vertices}
    for a in g.arcs:
        indeg[a.head] += 1
    for v in g.vertices:
        if indeg[v] != len(g.out_arcs(v)):
            raise NotEulerianError(
                f"vertex {v}: in-degree {indeg[v]} != out-degree {len(g.out_arcs(v))}"
            )


def _spend(
    order: Mapping[Word, Sequence[Arc]], spent: dict[Word, int], start: Word
) -> list[Arc]:
    """Greedy walk from `start` that leaves each vertex v by the next arc of
    order[v] not yet spent, and stops at a vertex with none left.

    A greedy walk only ever takes the first unspent arc in its order, so the
    arcs spent at v are always a prefix of order[v] and `spent` keeps just
    that prefix length. It is updated in place and can carry across calls.
    """
    steps: list[Arc] = []
    cur = start
    while True:
        arcs = order[cur]
        k = spent.get(cur, 0)
        if k == len(arcs):
            return steps
        spent[cur] = k + 1
        arc = arcs[k]
        steps.append(arc)
        cur = arc.head


def eulerian_cycle(g: DeBruijnGraph, start: Word) -> Walk:
    """One Eulerian circuit from `start`, by cycle splicing.

    Subcycles are grown by minimum-label arcs and spliced at the first
    position that still has unused arcs, so the output is deterministic
    (but not label-minimal in general).
    """
    if start not in g.out:
        raise ValueError(f"vertex {start} is not in the graph")
    check_balanced(g)
    # On a balanced graph each subcycle returns to where it started.
    spent: dict[Word, int] = {}
    tour = _spend(g.out, spent, start)
    i = 0
    while i <= len(tour):
        v = start if i == 0 else tour[i - 1].head
        tour[i:i] = _spend(g.out, spent, v)
        i += 1
    if len(tour) != len(g.arcs):
        raise NotEulerianError(
            f"only {len(tour)} of {len(g.arcs)} arcs reachable from {start}"
        )
    return Walk(start, tuple(tour))


def walk_avoiding(g: DeBruijnGraph, avoid: AvoidSet) -> Walk:
    """Greedy walk from the root that spends each reserved arc last.

    At each vertex, follow the minimum-label unvisited arc that is not
    reserved; take the reserved arc only when nothing else is left; stop
    when no unvisited arc leaves the current vertex. The walk may end
    before covering the graph; that outcome is returned, not raised.
    """
    check_avoid_set(g, avoid)
    order = dict(g.out)
    for v, reserved in avoid.arc_by_vertex.items():
        order[v] = [a for a in order[v] if a != reserved] + [reserved]
    return Walk(avoid.root, tuple(_spend(order, {}, avoid.root)))


def minimal_walk(g: DeBruijnGraph) -> Walk:
    """Greedy walk from the maximal vertex, always taking the minimum-label
    unvisited arc; no walk from there of equal length has a smaller label."""
    return Walk(g.max_vertex, tuple(_spend(g.out, {}, g.max_vertex)))


def exhaustion_order(walk: Walk, g: DeBruijnGraph) -> dict[Word, int]:
    """Earliest prefix length (in arcs) at which each vertex is exhausted.

    A vertex is exhausted once every arc touching it (as head or tail)
    has been used; vertices never exhausted are absent from the map.
    """
    remaining: dict[Word, int] = {v: 0 for v in g.vertices}
    for a in g.arcs:
        remaining[a.tail] += 1
        if a.head != a.tail:
            remaining[a.head] += 1
    order = {v: 0 for v in g.vertices if remaining[v] == 0}
    seen: set[Arc] = set()
    cur = walk.start
    for k, a in enumerate(walk.steps, start=1):
        if a not in g or a.tail != cur:
            raise ValueError("walk does not chain through arcs of this graph")
        cur = a.head
        if a in seen:
            continue
        seen.add(a)
        for v in {a.tail, a.head}:
            remaining[v] -= 1
            if remaining[v] == 0:
                order[v] = k
    return order
