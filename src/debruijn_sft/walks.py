"""Walks over the graph: Eulerian circuits, walks avoiding an arc set,
the greedy minimal walk, and exhaustion bookkeeping.

The walkers and the exhaustion bookkeeping run on the graph's vertex and
arc ids; a hand-made walk or a word-keyed avoid set is turned into them by
the graph's arc lookup.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from operator import sub
from typing import Iterable, Mapping, Sequence

from .errors import NotEulerianError
from .graph import Arc, DeBruijnGraph, _arc
from .language import Word, _Frozen, _word, decode_ranks


class Walk(_Frozen):
    """A walk: its start vertex and its arcs in order.

    `Walk(start, steps)` takes the arcs themselves: the start is read as a
    word and each step as an arc, so any sequence of letters and any
    3-sequence (tail, label, head) will do, and ValueError names anything
    else. It keeps the start as a tuple and the steps as `Arc`s of tuples.
    The walkers of this module make walks from a graph's ids instead:
    such a walk holds the graph and its arc ids, and makes `steps`,
    `label` and `end` from them when each is first read. Either way each
    is made once, two walks are equal when their starts and steps are,
    and a walk cannot be changed.
    """

    def __init__(self, start: Word, steps: Sequence[Arc]) -> None:
        word = _word(start)
        if word is None:
            raise ValueError(f"walk start {start!r} is not a word")
        if not isinstance(steps, Iterable):
            raise ValueError(f"walk steps {steps!r} are not a sequence of arcs")
        steps = tuple(map(_arc, steps))
        vars(self).update(
            start=word, steps=steps, label=tuple([a.label for a in steps]),
            end=steps[-1].head if steps else word, _graph=None,
        )

    @classmethod
    def _of_ids(cls, g: DeBruijnGraph, start: Word, ids: list[int]) -> Walk:
        """The walk from vertex `start` along the arc ids `ids` of g."""
        walk = object.__new__(cls)
        vars(walk).update(start=start, _graph=g, _ids=ids)
        return walk

    @cached_property
    def steps(self) -> tuple[Arc, ...]:
        arcs = self._graph.arcs
        return tuple([arcs[i] for i in self._ids])

    @cached_property
    def label(self) -> Word:
        labels = self._graph.labels
        return tuple([labels[i] for i in self._ids])

    @cached_property
    def end(self) -> Word:
        g, ids = self._graph, self._ids
        return g.word_of(g.heads[ids[-1]]) if ids else self.start

    @property
    def is_closed(self) -> bool:
        return self.end == self.start

    def is_eulerian(self, g: DeBruijnGraph) -> bool:
        try:
            ids = _arc_ids(self, g)
        except ValueError:   # the steps do not chain through arcs of g
            return False
        # The walkers spend each arc of their own graph at most once.
        return (self.is_closed and len(ids) == len(g.heads)
                and (self._graph is g or len(set(ids)) == len(ids)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.steps) == (other.start, other.steps)

    def __hash__(self) -> int:
        return hash((self.start, self.steps))

    def __repr__(self) -> str:
        return f"Walk(start={self.start!r}, steps={self.steps!r})"

    def __reduce__(self) -> tuple:
        # Copies and pickles are remade from the arcs, through the
        # constructor, so they do not carry a walker's graph along.
        return Walk, (self.start, self.steps)


class AvoidSet(_Frozen):
    """One reserved out-arc per non-root vertex; the root reserves none.

    `AvoidSet(root, arc_by_vertex)` keeps the reserved arcs keyed by
    vertex words, as given. `MaxArcAnalysis.avoid_set()` makes one from a
    graph's ids instead: it holds the graph and, per vertex id, the id of
    the reserved arc, -1 at the root, and its `arc_by_vertex` is a view
    of those ids made once, when first read. An avoid set cannot be
    changed, and is equal only to itself.
    """

    def __init__(self, root: Word, arc_by_vertex: Mapping[Word, Arc]) -> None:
        if not isinstance(arc_by_vertex, Mapping):
            raise ValueError(f"arc_by_vertex {arc_by_vertex!r} does not map vertices to arcs")
        vars(self).update(root=root, arc_by_vertex=arc_by_vertex, _graph=None)

    @classmethod
    def _of_ids(cls, g: DeBruijnGraph, root: Word, arc: list[int]) -> AvoidSet:
        """The avoid set of g reserving arc id arc[v] at each vertex id v."""
        avoid = object.__new__(cls)
        vars(avoid).update(root=root, _graph=g, _arc=arc)
        return avoid

    @cached_property
    def arc_by_vertex(self) -> Mapping[Word, Arc]:
        vertices, arcs = self._graph.vertices, self._graph.arcs
        return {vertices[v]: arcs[a] for v, a in enumerate(self._arc) if a >= 0}

    def __repr__(self) -> str:
        return f"AvoidSet(root={self.root!r}, arc_by_vertex={self.arc_by_vertex!r})"

    def __reduce__(self) -> tuple:
        return AvoidSet, (self.root, self.arc_by_vertex)


def check_avoid_set(g: DeBruijnGraph, avoid: AvoidSet) -> None:
    _reserved_ids(g, avoid)


def _reserved_ids(g: DeBruijnGraph, avoid: AvoidSet) -> tuple[int, list[int]]:
    """The id of the avoid set's root and, per vertex id, the id of its
    reserved arc, -1 at the root; ValueError when the set is not one of
    g's avoid sets. A set made from g's ids is one already."""
    if avoid._graph is g:
        return g.id_of(avoid.root), avoid._arc
    root = g._vertex_id(avoid.root, "root")
    reserved = avoid.arc_by_vertex
    ids = [g.id_of(v) for v in reserved]
    # Distinct keys that are vertices have distinct ids.
    if len(ids) != len(g.ranks) - 1 or None in ids or root in ids:
        raise ValueError("avoid set must reserve exactly one arc per non-root vertex")
    first = g.first
    arc = [-1] * len(g.ranks)
    for i, (v, a) in zip(ids, reserved.items()):
        j = g._id_of_arc(a)
        if not first[i] <= j < first[i + 1]:
            raise ValueError(f"reserved arc for {v} is not an out-arc of {v} in the graph")
        arc[i] = j
    return root, arc


def walk_to_json(walk: Walk, g: DeBruijnGraph) -> dict:
    label = walk.label
    return {
        "start": g.alphabet.text(walk.start),
        "label": g.alphabet.text(label),
        "arcCount": len(label),
        "eulerian": walk.is_eulerian(g),
    }


def check_balanced(g: DeBruijnGraph) -> None:
    """Raise NotEulerianError at the first vertex whose in- and out-degree differ."""
    indeg = [0] * len(g.ranks)
    for h in g.heads:
        indeg[h] += 1
    outdeg = list(map(sub, g.first[1:], g.first))
    if indeg != outdeg:
        v = next(v for v, (i, o) in enumerate(zip(indeg, outdeg)) if i != o)
        raise NotEulerianError(
            f"vertex {g.word_of(v)}: in-degree {indeg[v]} != out-degree {outdeg[v]}"
        )


def _spend(heads: Sequence[int], first: Sequence[int], cursor: list[int], start: int) -> list[int]:
    """Greedy walk from vertex id `start` that leaves each vertex by its
    next unspent arc, and stops at a vertex with none left.

    The arcs of vertex v sit at positions first[v] to first[v + 1] - 1 in
    the order the walk spends them, and heads[p] is the head id of the arc
    at position p. A greedy walk only ever takes the first unspent arc in
    its order, so the spent arcs of v are a prefix of its positions, and
    cursor[v] (first[v] at the outset) is where that prefix ends. The
    cursor is updated in place and can carry across calls. Returns the
    positions taken, in order.
    """
    steps: list[int] = []
    take = steps.append
    cur = start
    while True:
        p = cursor[cur]
        if p == first[cur + 1]:
            return steps
        cursor[cur] = p + 1
        take(p)
        cur = heads[p]


def eulerian_cycle(g: DeBruijnGraph, start: Word) -> Walk:
    """One Eulerian circuit from `start`, by cycle splicing.

    Subcycles are grown by minimum-label arcs. Each one is spliced in at
    the first position of the tour that still has unused arcs, so the
    output is deterministic (but not label-minimal in general). One stack
    of iterators does the splicing in O(E): after each arc it reads, it
    goes into the subcycle from that arc's head, if that head has arcs
    left, and returns to the arc after it once that subcycle is read.
    """
    at = g._vertex_id(start)
    check_balanced(g)
    # On a balanced graph each subcycle returns to where it started.
    heads, first = g.heads, g.first
    cursor = list(first)
    tour: list[int] = []
    stack = [iter(_spend(heads, first, cursor, at))]
    while stack:
        for i in stack[-1]:
            tour.append(i)
            h = heads[i]
            if cursor[h] != first[h + 1]:
                stack.append(iter(_spend(heads, first, cursor, h)))
                break
        else:
            stack.pop()
    if len(tour) != len(heads):
        raise NotEulerianError(
            f"only {len(tour)} of {len(heads)} arcs reachable from {start}"
        )
    return Walk._of_ids(g, g.word_of(at), tour)


def walk_avoiding(g: DeBruijnGraph, avoid: AvoidSet) -> Walk:
    """Greedy walk from the root that spends each reserved arc last.

    At each vertex, follow the minimum-label unvisited arc that is not
    reserved; take the reserved arc only when nothing else is left; stop
    when no unvisited arc leaves the current vertex. The walk may end
    before covering the graph; that outcome is returned, not raised.
    """
    root, arc = _reserved_ids(g, avoid)
    return Walk._of_ids(g, g.word_of(root), _avoiding_ids(g, root, arc))


def _avoiding_ids(g: DeBruijnGraph, root: int, arc: list[int]) -> list[int]:
    """The arc ids of the walk that avoids the arc ids `arc`, from vertex
    id `root`."""
    first, heads = g.first, g.heads
    # order[p]: the arc at position p of the walk's order. A reserved arc
    # that is not its vertex's last moves to the end of its vertex's run;
    # the max-arc set reserves last arcs only, so it moves none.
    order = None
    for v, r in enumerate(arc):
        end = first[v + 1]
        if 0 <= r < end - 1:
            if order is None:
                order = list(range(len(heads)))
            order[r:end] = [*range(r + 1, end), r]
    if order is None:
        return _spend(heads, first, list(first), root)
    steps = _spend([heads[i] for i in order], first, list(first), root)
    return [order[p] for p in steps]


def minimal_walk(g: DeBruijnGraph) -> Walk:
    """Greedy walk from the maximal vertex, always taking the minimum-label
    unvisited arc; no walk from there of equal length has a smaller label."""
    steps = _spend(g.heads, g.first, list(g.first), len(g.ranks) - 1)
    return Walk._of_ids(g, g.max_vertex, steps)


def _arc_ids(walk: Walk, g: DeBruijnGraph) -> list[int]:
    """The arc ids of g along the walk; ValueError when it does not chain
    through arcs of g."""
    if walk._graph is g:
        return walk._ids
    first, heads = g.first, g.heads
    ids = []
    cur = g._vertex_id(walk.start, "walk start")
    for a in walk.steps:
        i = g._id_of_arc(a)
        if not first[cur] <= i < first[cur + 1]:
            raise ValueError("walk does not chain through arcs of this graph")
        ids.append(i)
        cur = heads[i]
    return ids


def exhaustion_order(walk: Walk, g: DeBruijnGraph) -> dict[Word, int]:
    """Earliest prefix length (in arcs) at which each vertex is exhausted.

    A vertex is exhausted once every arc touching it (as head or tail)
    has been used; vertices never exhausted are absent from the map. The
    map lists vertices by time, and by word among equal times.
    """
    times = _exhaustion_times(g, _arc_ids(walk, g))
    done = sorted((v for v, t in enumerate(times) if t >= 0), key=times.__getitem__)
    words = decode_ranks([g.ranks[v] for v in done], g.alphabet.size, g.span)
    return dict(zip(words, map(times.__getitem__, done)))


def _exhaustion_times(g: DeBruijnGraph, ids: list[int]) -> list[int]:
    """The exhaustion time of each vertex id along the walk on arc ids
    `ids`, as `exhaustion_order` gives it; -1 when never exhausted."""
    heads, first = g.heads, g.first
    remaining = list(map(sub, first[1:], first))   # unused arcs touching each vertex
    tails = list(chain.from_iterable(map(repeat, range(len(remaining)), remaining)))
    for t, h in zip(tails, heads):
        if h != t:
            remaining[h] += 1
    times = [-1 if left else 0 for left in remaining]
    used = bytearray(len(heads))
    for k, i in enumerate(ids, start=1):
        if used[i]:
            continue
        used[i] = 1
        t, h = tails[i], heads[i]
        remaining[t] -= 1
        if not remaining[t]:
            times[t] = k
        if h != t:
            remaining[h] -= 1
            if not remaining[h]:
                times[h] = k
    return times
