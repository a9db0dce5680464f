"""Exact Eulerian-circuit counting.

The circuit count factors as (number of spanning trees converging to a
root) times the product over vertices of (out-degree - 1) factorial; the
tree count is a determinant of the out-degree Laplacian with the root row
and column removed. Everything is exact integer arithmetic; counts grow
doubly exponentially and must never pass through floats.
"""

from __future__ import annotations

from math import factorial

from .errors import NotEulerianError
from .graph import DeBruijnGraph
from .language import Word
from .walks import check_balanced


def integer_determinant(matrix: list[list[int]]) -> int:
    """Determinant over the integers by fraction-free elimination.

    Every division is exact by construction, so the result is bit-exact
    for arbitrarily large entries.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def count_converging_spanning_trees(g: DeBruijnGraph, root: Word) -> int:
    """Number of spanning trees in which every vertex can reach the root.

    Self-loops contribute to no spanning tree and cancel out of the
    Laplacian; parallel arcs count with multiplicity.
    """
    if root not in g.out:
        raise ValueError(f"vertex {root} is not in the graph")
    others = [v for v in g.vertices if v != root]
    index = {v: i for i, v in enumerate(others)}
    size = len(others)
    lap = [[0] * size for _ in range(size)]
    for a in g.arcs:
        if a.tail == a.head:
            continue
        if a.tail != root:
            i = index[a.tail]
            lap[i][i] += 1
            if a.head != root:
                lap[i][index[a.head]] -= 1
    return integer_determinant(lap)


def out_degree_factorials(g: DeBruijnGraph) -> int:
    """Product over vertices of (out-degree - 1)!: the circuits per
    converging spanning tree."""
    product = 1
    for v in g.vertices:
        product *= factorial(len(g.out_arcs(v)) - 1)
    return product


def count_eulerian_cycles(g: DeBruijnGraph, root: Word) -> int:
    """Exact number of Eulerian circuits through a fixed starting arc at
    the root (the count is the same whichever out-arc of the root is
    fixed, and the root itself only matters up to that convention)."""
    check_balanced(g)
    # On a balanced graph some spanning tree converges to the root exactly
    # when the graph is strongly connected.
    trees = count_converging_spanning_trees(g, root)
    if trees == 0:
        raise NotEulerianError("graph is not strongly connected")
    return trees * out_degree_factorials(g)


def lower_bound_report(g: DeBruijnGraph) -> dict:
    """Ingredients of the crude circuit-count lower bound, next to the
    exact values, for side-by-side reading."""
    mean_out = len(g.arcs) / len(g.vertices)
    factorial_term = out_degree_factorials(g)
    base = factorial(max(int(mean_out) - 1, 0))
    trees = count_converging_spanning_trees(g, g.max_vertex)
    report = {
        "vertices": len(g.vertices),
        "arcs": len(g.arcs),
        "mean_out_degree": mean_out,
        "factorial_term": factorial_term,
        "bound_base_factorial": base,
        "bound_value": base ** len(g.vertices),
        "spanning_trees": trees,
        "eulerian_cycles": trees * factorial_term,
    }
    if (
        g.alphabet.size == 2
        and g.language is not None
        and not g.language.forbidden
    ):
        # Reference power for the unrestricted binary system; the exact
        # tree count is printed beside it rather than assumed equal.
        report["binary_tree_count_reference"] = 2 ** (2 ** (g.span - 1))
    return report
