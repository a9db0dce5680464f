import pytest

from debruijn_sft import (
    Arc,
    Language,
    NotEulerianError,
    build_graph,
    count_converging_spanning_trees,
    count_eulerian_cycles,
    enumerate_eulerian_cycles,
    graph_from_arcs,
    integer_determinant,
    lower_bound_report,
)
from debruijn_sft.language import Alphabet

from corpus import IRREDUCIBLE_INSTANCES, graph_of, oracle_converging_trees

BINARY = Alphabet.from_text("01")


def two_cycle():
    return graph_from_arcs(1, BINARY, [Arc((0,), 1, (1,)), Arc((1,), 0, (0,))])


def loops():
    return graph_from_arcs(1, BINARY, [Arc((0,), 0, (0,)), Arc((0,), 1, (0,))])


def test_integer_determinant():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[1, 2], [3, 4]]) == -2
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert integer_determinant([[1, 2], [2, 4]]) == 0
    # Exactness at sizes where floats would drift.
    big = [[(i * j + 1) ** 3 for j in range(8)] for i in range(8)]
    perm = [big[i] for i in (3, 1, 0, 7, 6, 2, 5, 4)]
    got = integer_determinant(perm)
    assert got == -integer_determinant(big) or got == integer_determinant(big)


def test_tree_count_trivial_graphs():
    assert count_converging_spanning_trees(loops(), (0,)) == 1
    g = two_cycle()
    assert count_converging_spanning_trees(g, (0,)) == 1
    assert count_converging_spanning_trees(g, (1,)) == 1


def test_tree_count_matches_brute_force():
    specs = [("01", (), 2), ("01", ("11",), 3), ("01", ("11",), 4), ("012", ("22",), 2)]
    for spec in specs:
        g = graph_of(spec)
        for root in g.vertices:
            assert count_converging_spanning_trees(g, root) == oracle_converging_trees(g, root), spec


def test_tree_count_root_independent_on_balanced_graphs():
    for spec in IRREDUCIBLE_INSTANCES[:10]:
        g = graph_of(spec)
        counts = {count_converging_spanning_trees(g, root) for root in g.vertices}
        assert len(counts) == 1, spec


def test_tree_count_invariant_under_vertex_permutation():
    import random

    g = graph_of(("01", ("11",), 5))
    root = g.max_vertex
    baseline = count_converging_spanning_trees(g, root)
    rng = random.Random(3)
    for _ in range(5):
        others = [v for v in g.vertices if v != root]
        rng.shuffle(others)
        index = {v: i for i, v in enumerate(others)}
        lap = [[0] * len(others) for _ in others]
        for a in g.arcs:
            if a.tail == a.head or a.tail == root:
                continue
            lap[index[a.tail]][index[a.tail]] += 1
            if a.head != root:
                lap[index[a.tail]][index[a.head]] -= 1
        assert integer_determinant(lap) == baseline


def test_eulerian_count_trivial():
    assert count_eulerian_cycles(two_cycle(), (0,)) == 1


def test_eulerian_count_not_eulerian():
    g = graph_from_arcs(1, Alphabet.from_text("012"), [
        Arc((0,), 1, (1,)),
        Arc((0,), 2, (2,)),
        Arc((1,), 2, (2,)),
        Arc((2,), 0, (0,)),
    ])
    with pytest.raises(NotEulerianError, match="in-degree"):
        count_eulerian_cycles(g, (0,))


def test_eulerian_count_disconnected_raises():
    # Two disjoint 2-cycles: balanced, but no spanning tree converges.
    g = graph_from_arcs(1, Alphabet.from_text("0123"), [
        Arc((0,), 1, (1,)),
        Arc((1,), 0, (0,)),
        Arc((2,), 3, (3,)),
        Arc((3,), 2, (2,)),
    ])
    with pytest.raises(NotEulerianError, match="graph is not strongly connected"):
        count_eulerian_cycles(g, (0,))


def count_from_fixed_first_arc(g, root):
    result = enumerate_eulerian_cycles(g, root, max_arcs=24)
    assert not result.truncated
    first = g.out_arcs(root)[0]
    return sum(1 for w in result.walks if w.steps[0] == first)


def test_best_count_matches_backtracking():
    specs = [
        ("01", (), 2),
        ("01", (), 3),
        ("01", ("11",), 4),
        ("01", ("11",), 5),
        ("01", ("111",), 3),
        ("012", ("22",), 2),
    ]
    for spec in specs:
        g = graph_of(spec)
        assert len(g.arcs) <= 20, spec
        best = count_eulerian_cycles(g, g.max_vertex)
        assert best == count_from_fixed_first_arc(g, g.max_vertex), spec


def test_total_enumeration_is_outdegree_times_best():
    g = graph_of(("01", ("11",), 5))
    best = count_eulerian_cycles(g, g.max_vertex)
    result = enumerate_eulerian_cycles(g, g.max_vertex)
    assert len(result.walks) == best * len(g.out_arcs(g.max_vertex))


def test_lower_bound_report():
    rep = lower_bound_report(graph_of(("01", ("11",), 5)))
    # All out-degrees at most 2, so the factorial term collapses to 1.
    assert rep["factorial_term"] == 1
    assert rep["eulerian_cycles"] == 2
    assert rep["spanning_trees"] == 2

    ternary = lower_bound_report(graph_of(("012", (), 2)))
    assert ternary["factorial_term"] == 2 ** 9

    binary3 = lower_bound_report(graph_of(("01", (), 3)))
    assert binary3["binary_tree_count_reference"] == 2 ** (2 ** 2)
    assert binary3["spanning_trees"] == 16  # agrees with the power here

    binary2 = lower_bound_report(graph_of(("01", (), 2)))
    # The power formula does not pin its span convention; at span 2 the
    # exact count differs from it, and the report carries both.
    assert binary2["spanning_trees"] == 2
    assert binary2["binary_tree_count_reference"] == 4
