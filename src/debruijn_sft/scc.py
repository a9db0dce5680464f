"""Strongly connected components of general digraphs (iterative Tarjan on
dense vertex ids); the span-n graph finds its own by reachability."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence, TypeVar

V = TypeVar("V", bound=Hashable)


def tarjan(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """The SCCs of the digraph on vertices 0..len(succ)-1, where succ[v]
    lists the heads of v's arcs.

    Roots are tried in id order and successors in list order; components
    come in Tarjan completion order (reverse topological), each listed in
    the order its vertices leave the stack.
    """
    done = len(succ) + 1          # index of a vertex whose component is out
    index = [0] * len(succ)       # preorder number from 1; 0 = unvisited
    low = [0] * len(succ)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(len(succ)):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        # Explicit call stack: (vertex, iterator over its successors).
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                iw = index[w]
                if not iw:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                # A vertex whose component is out reads `done`, above every
                # preorder number, so only the stack can lower low[v].
                if iw < low[v]:
                    low[v] = iw
            else:
                work.pop()
                lv = low[v]
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                if lv == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
    return components


def strongly_connected_components(
    vertices: Sequence[V], successors: Callable[[V], Iterable[V]]
) -> list[list[V]]:
    """Return the SCCs of the digraph as lists of vertices.

    Deterministic for a fixed vertex order and successor order; components
    are emitted in Tarjan completion order (reverse topological). Vertices
    reached from `vertices` count too. The vertices get dense ids in the
    order they are met, and `tarjan` runs on those.
    """
    ids: dict[V, int] = {}
    names: list[V] = []
    for v in vertices:
        if v not in ids:
            ids[v] = len(names)
            names.append(v)
    succ: list[list[int]] = []
    for v in names:   # grows while it is read: new heads join the end
        heads = []
        for w in successors(v):
            if w not in ids:
                ids[w] = len(names)
                names.append(w)
            heads.append(ids[w])
        succ.append(heads)
    return [[names[i] for i in comp] for comp in tarjan(succ)]
