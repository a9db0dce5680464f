"""Strongly connected components (iterative Tarjan)."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence, TypeVar

V = TypeVar("V", bound=Hashable)


def strongly_connected_components(
    vertices: Sequence[V], successors: Callable[[V], Iterable[V]]
) -> list[list[V]]:
    """Return the SCCs of the digraph as lists of vertices.

    Deterministic for a fixed vertex order and successor order; components
    are emitted in Tarjan completion order (reverse topological).
    """
    index: dict[V, int] = {}
    lowlink: dict[V, int] = {}
    on_stack: set[V] = set()
    stack: list[V] = []
    components: list[list[V]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        # Explicit call stack: (vertex, iterator over its successors).
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components


def largest_components(arcs: Sequence[tuple[V, V]]) -> tuple[list[bool], int, int]:
    """Choose the main strongly connected component of the arcs (tail, head).

    The main component is the first one (in Tarjan completion order)
    holding the most internal arcs. Returns, for each arc in input order,
    whether it lies inside that component, then the number of components
    tied at that arc count (0 when no arc is internal), then the count.
    """
    succ: dict[V, list[V]] = {}
    verts: set[V] = set()
    for tail, head in arcs:
        verts.update((tail, head))
        succ.setdefault(tail, []).append(head)
    comps = strongly_connected_components(sorted(verts), lambda v: succ.get(v, ()))
    comp_id = {v: i for i, comp in enumerate(comps) for v in comp}
    # Component of each arc, -1 for an arc between components.
    arc_comp = [comp_id[t] if comp_id[t] == comp_id[h] else -1 for t, h in arcs]
    arc_count = [0] * len(comps)
    for c in arc_comp:
        if c >= 0:
            arc_count[c] += 1
    best = max(arc_count, default=0)
    if best == 0:
        return [False] * len(arcs), 0, 0
    keep = arc_count.index(best)
    return [c == keep for c in arc_comp], arc_count.count(best), best
