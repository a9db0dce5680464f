import random
import tracemalloc
from math import factorial, isqrt, prod

import pytest

from debruijn_sft import (
    Arc,
    Language,
    NotEulerianError,
    build_graph,
    count_converging_spanning_trees,
    count_eulerian_cycles,
    counting,
    enumerate_eulerian_cycles,
    graph_from_arcs,
    integer_determinant,
    lower_bound_report,
)
from debruijn_sft.language import Alphabet

from corpus import (
    ALL_INSTANCES,
    IRREDUCIBLE_INSTANCES,
    MERSENNE_61,
    graph_of,
    modular_tree_count,
    oracle_converging_trees,
    oracle_determinant,
    random_hand_built_graphs,
    random_instances,
    reduced_laplacian,
)

BINARY = Alphabet.from_text("01")


def two_cycle():
    return graph_from_arcs(1, BINARY, [Arc((0,), 1, (1,)), Arc((1,), 0, (0,))])


def loops():
    return graph_from_arcs(1, BINARY, [Arc((0,), 0, (0,)), Arc((0,), 1, (0,))])


def graph_laplacian(g):
    return reduced_laplacian(g, [v for v in g.vertices if v != g.max_vertex])


def test_integer_determinant():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[1, 2], [3, 4]]) == -2
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert integer_determinant([[1, 2], [2, 4]]) == 0
    # Updates that cancel to exactly 0: one entry, then all of column 1.
    for m, det in (([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1), ([[1, 1, 1], [1, 1, 2], [1, 1, 3]], 0)):
        assert integer_determinant(m) == oracle_determinant(m) == det
    # Exactness at sizes where floats would drift.
    big = [[(i * j + 1) ** 3 for j in range(8)] for i in range(8)]
    perm = [big[i] for i in (3, 1, 0, 7, 6, 2, 5, 4)]
    got = integer_determinant(perm)
    assert got == -integer_determinant(big) or got == integer_determinant(big)


def test_integer_determinant_takes_dict_rows():
    rng = random.Random(5)
    for n in range(10):
        for high in (3, 2 ** 70):
            m = [[rng.randint(-high, high) if rng.random() < 0.4 else 0 for _ in range(n)]
                 for _ in range(n)]
            rows = [{j: a for j, a in enumerate(row) if a} for row in m]
            assert integer_determinant(rows) == integer_determinant(m) == oracle_determinant(m)
    # Explicit zeros and mixed row kinds read the same; the input is not changed.
    rows = [{0: 2, 1: 0}, [1, 3]]
    assert integer_determinant(rows) == 6
    assert rows == [{0: 2, 1: 0}, [1, 3]]


def test_integer_determinant_keeps_the_hadamard_bound_off_m_matrices():
    # The product of the diagonal bounds only M-matrices; here it is 1.
    assert integer_determinant([[1, 2 ** 40], [2 ** 40, 1]]) == 1 - 2 ** 80
    assert integer_determinant([[1, -2 ** 40], [-2 ** 40, 1]]) == 1 - 2 ** 80


def test_determinant_bound_of_a_reduced_laplacian_is_its_diagonal(monkeypatch):
    # The count path skips the row checks and the bound, and passes the
    # product of the diagonal instead: the bound they would find.
    passed = []
    determinant = counting.integer_determinant

    def recording(rows, **kwargs):
        passed.append((rows, kwargs["_bound"]))
        return determinant(rows, **kwargs)

    monkeypatch.setattr(counting, "integer_determinant", recording)
    graphs = [graph_of(spec) for spec in ALL_INSTANCES + random_instances(60)]
    for g in graphs + random_hand_built_graphs(100, seed=23):
        rows = [{j: a for j, a in enumerate(row) if a} for row in graph_laplacian(g)]
        diagonal = prod(row.get(i, 0) for i, row in enumerate(rows))
        hadamard = isqrt(prod(sum(a * a for a in row.values()) for row in rows))
        assert counting._determinant_bound(rows) == diagonal <= hadamard, g.arcs
        for root in (g.max_vertex,) + g.vertices[:3]:
            passed.clear()
            trees = count_converging_spanning_trees(g, root)
            [(built, bound)] = passed
            assert bound == counting._determinant_bound(counting._sparse_rows(built)), (g.arcs, root)
            assert trees == determinant(built), (g.arcs, root)
            if root == g.max_vertex:
                assert bound == diagonal, g.arcs


def test_integer_determinant_on_diagonally_dominant_z_matrices():
    # M-matrices, where the product of the diagonal is the bound used.
    rng = random.Random(9)
    for n in range(1, 12):
        for _ in range(4):
            m = [[-rng.randint(0, 2 ** 30) if rng.random() < 0.5 else 0 for _ in range(n)]
                 for _ in range(n)]
            for i, row in enumerate(m):
                row[i] = -sum(row) + row[i] + rng.choice((0, 0, 1, 2 ** 20))
            det = integer_determinant(m)
            assert det == oracle_determinant(m), m
            assert 0 <= det <= prod(row[i] for i, row in enumerate(m))


@pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]], [[1, 2], [3]],
                                    [{0: 1, 2: 1}, {1: 1}], [{-1: 1}], [{0: 1}, [0, 1, 0]]])
def test_integer_determinant_rejects_non_square(matrix):
    with pytest.raises(ValueError, match="not square"):
        integer_determinant(matrix)


def test_integer_determinant_matches_bareiss_reference():
    rng = random.Random(11)
    for n in range(13):
        for density in (0.2, 1.0):
            for high in (5, 2 ** 70):
                m = [[rng.randint(-high, high) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)]
                assert integer_determinant(m) == oracle_determinant(m), m


def small_primes():
    p = 2
    while True:
        if all(p % q for q in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def test_integer_determinant_retries_when_a_pivot_shares_a_prime(monkeypatch):
    # With 2, 3, 5, ... as the moduli, pivots often share a factor with
    # the modulus; the elimination must retire those primes and restart.
    attempts = []

    def source():
        attempts.append(1)
        return small_primes()

    monkeypatch.setattr(counting, "_primes", source)
    assert integer_determinant([[2, 1], [1, 3]]) == 5
    assert len(attempts) > 1
    rng = random.Random(7)
    matrices = [graph_laplacian(graph_of(spec)) for spec in IRREDUCIBLE_INSTANCES[:12]]
    matrices += [[[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
                 for n in range(1, 9) for _ in range(5)]
    # Sparse Z-matrices shaped like reduced Laplacians: row i has 1 or 2
    # arcs, each to another row or to the root (column n). The product of
    # the diagonal is tiny, so M is a product of a few small primes and
    # unreduced entries that are 0 mod M, whole columns of them, are common.
    for n in range(1, 9):
        for _ in range(5):
            m = [[0] * n for _ in range(n)]
            for i, row in enumerate(m):
                row[i] = rng.choice((1, 1, 2))
                for j in rng.choices(range(n + 1), k=row[i]):
                    if j != i and j < n:
                        row[j] -= 1
            matrices.append(m)
    attempts.clear()
    for m in matrices:
        assert integer_determinant(m) == oracle_determinant(m), m
    assert len(attempts) > len(matrices)
    # The count path hands over its own rows and bound; a restart must
    # begin from its rows as they were built, not from half-eliminated ones.
    attempts.clear()
    roots = 0
    graphs = [graph_of(spec) for spec in IRREDUCIBLE_INSTANCES[:12] + random_instances(30)]
    for g in graphs:
        if len(g.vertices) > 100:   # past the Bareiss oracle's reach
            continue
        for root in g.vertices[:3]:
            roots += 1
            others = [v for v in g.vertices if v != root]
            expected = oracle_determinant(reduced_laplacian(g, others))
            assert count_converging_spanning_trees(g, root) == expected, (g.arcs, root)
    assert len(attempts) > roots


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


def test_tree_count_equals_the_uncontracted_laplacian_determinant():
    # Past 100 vertices the Bareiss oracle is slow: there the uncontracted
    # matrix of one root goes to integer_determinant, which the oracle
    # tests check.
    graphs = [graph_of(spec) for spec in ALL_INSTANCES + random_instances(60)]
    graphs += random_hand_built_graphs(300, seed=17)
    for g in graphs:
        small = len(g.vertices) <= 100
        det = oracle_determinant if small else integer_determinant
        for root in g.vertices[:6] if small else (g.max_vertex,):
            others = [v for v in g.vertices if v != root]
            trees = count_converging_spanning_trees(g, root)
            assert trees == det(reduced_laplacian(g, others)), (g.arcs, root)
            if prod(len(g.out_arcs(v)) for v in others) <= 4096:
                assert trees == oracle_converging_trees(g, root), (g.arcs, root)


def test_tree_count_on_forced_chains_and_cycles():
    ternary = Alphabet.from_text("012")
    # 0 -> 1 -> 2 is forced all the way into the root 2: one tree.
    chain = graph_from_arcs(1, ternary, [
        Arc((0,), 1, (1,)), Arc((1,), 2, (2,)), Arc((2,), 0, (0,)), Arc((2,), 1, (1,)),
    ])
    assert count_converging_spanning_trees(chain, (2,)) == 1
    # 1 and 2 are forced into each other and never reach the root 0.
    cycle = graph_from_arcs(1, ternary, [
        Arc((0,), 1, (1,)), Arc((1,), 2, (2,)), Arc((2,), 1, (1,)),
    ])
    assert count_converging_spanning_trees(cycle, (0,)) == 0
    # A forced chain ending at a free vertex: 2 -> 1, and 1 chooses 0 or 2.
    merged = graph_from_arcs(1, ternary, [
        Arc((0,), 1, (1,)), Arc((1,), 0, (0,)), Arc((1,), 2, (2,)), Arc((2,), 1, (1,)),
    ])
    assert count_converging_spanning_trees(merged, (0,)) == 1
    # The only arc of 1 is a self-loop: 1 reaches nothing.
    stuck = graph_from_arcs(1, BINARY, [Arc((0,), 1, (1,)), Arc((1,), 1, (1,))])
    assert count_converging_spanning_trees(stuck, (0,)) == 0
    assert count_converging_spanning_trees(stuck, (1,)) == 1
    for g, root in ((chain, (2,)), (cycle, (0,)), (merged, (0,)), (stuck, (0,))):
        assert count_converging_spanning_trees(g, root) == oracle_converging_trees(g, root)


def test_tree_count_agrees_mod_p_with_a_separate_elimination_at_two_roots():
    # Independent of counting past the reach of the Bareiss oracle: a
    # GF(2**61 - 1) elimination at two roots against the exact count.
    for spec in (("01", ("11",), 16), ("01", (), 11), ("01", ("01111",), 12)):
        g = graph_of(spec)
        trees = count_converging_spanning_trees(g, g.max_vertex) % MERSENNE_61
        for root in (g.max_vertex, g.vertices[0]):
            assert modular_tree_count(g, root) == trees, (spec, root)
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        for root in g.vertices[:3]:
            others = [v for v in g.vertices if v != root]
            det = oracle_determinant(reduced_laplacian(g, others))
            assert modular_tree_count(g, root) == det % MERSENNE_61, (spec, root)


def test_tree_count_memory_stays_sparse():
    # Full binary span 10 (V=1,024): a dense V x V Laplacian alone peaks
    # at about 10 MB.
    full = graph_of(("01", (), 10))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trees = count_converging_spanning_trees(full, full.max_vertex)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert trees == 2 ** 1013
    assert peak < 5_000_000


def test_tree_count_root_independent_on_balanced_graphs():
    for spec in IRREDUCIBLE_INSTANCES[:10]:
        g = graph_of(spec)
        counts = {count_converging_spanning_trees(g, root) for root in g.vertices}
        assert len(counts) == 1, spec


def test_tree_count_root_independent_at_scale():
    # Golden mean span 14 (V=987): the same count at the first, middle and
    # last vertex.
    g = graph_of(("01", ("11",), 14))
    assert len(g.vertices) == 987
    roots = (g.vertices[0], g.vertices[len(g.vertices) // 2], g.vertices[-1])
    assert len({count_converging_spanning_trees(g, root) for root in roots}) == 1
    # Full binary span 10 (V=1,024): a non-maximal root gives the closed
    # form k^(k^n - n - 1).
    full = graph_of(("01", (), 10))
    assert len(full.vertices) == 1024
    assert count_converging_spanning_trees(full, full.vertices[1]) == 2 ** 1013


def test_tree_count_invariant_under_vertex_permutation():
    import random

    g = graph_of(("01", ("11",), 5))
    root = g.max_vertex
    baseline = count_converging_spanning_trees(g, root)
    rng = random.Random(3)
    for _ in range(5):
        others = [v for v in g.vertices if v != root]
        rng.shuffle(others)
        assert integer_determinant(reduced_laplacian(g, others)) == baseline


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


@pytest.mark.parametrize("alphabet, span", [("01", n) for n in range(1, 11)]
                         + [("012", n) for n in range(1, 7)])
def test_eulerian_count_full_language_closed_form(alphabet, span):
    # BEST: (k!)^(k^n) / k^(n+1) circuits through a fixed first arc,
    # far past the reach of the exhaustive oracle.
    k = len(alphabet)
    g = graph_of((alphabet, (), span))
    expected = factorial(k) ** (k ** span) // k ** (span + 1)
    assert count_eulerian_cycles(g, g.max_vertex) == expected


def test_lower_bound_report():
    rep = lower_bound_report(graph_of(("01", ("11",), 5)))
    # All out-degrees at most 2, so the factorial term collapses to 1.
    assert rep["factorial_term"] == 1
    assert rep["eulerian_cycles"] == 2
    assert rep["spanning_trees"] == 2

    ternary = lower_bound_report(graph_of(("012", (), 2)))
    assert ternary["factorial_term"] == 2 ** 9

    assert "full_language_tree_count" not in rep


def test_lower_bound_report_full_language_closed_form():
    # k^(k^n - n - 1) trees converge to a root in the full k-ary graph.
    for alphabet, spans in (("01", range(1, 7)), ("012", range(1, 4))):
        k = len(alphabet)
        for span in spans:
            rep = lower_bound_report(graph_of((alphabet, (), span)))
            assert rep["full_language_tree_count"] == k ** (k ** span - span - 1)
            assert rep["full_language_tree_count"] == rep["spanning_trees"], (alphabet, span)
    assert lower_bound_report(graph_of(("01", (), 2)))["full_language_tree_count"] == 2
    assert lower_bound_report(graph_of(("01", (), 3)))["full_language_tree_count"] == 16
