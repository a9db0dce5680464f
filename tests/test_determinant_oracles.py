"""integer_determinant against independent oracles: sympy's determinant on
seeded random matrices and on the corpus Laplacians, and the Bareiss
reference on hypothesis-drawn matrices."""

import random

import pytest

from debruijn_sft import integer_determinant

from corpus import ALL_INSTANCES, graph_of, oracle_determinant, reduced_laplacian

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def dense(rng, n, low=-9, high=9):
    return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]


def sparse(rng, n):
    return [[rng.randint(-3, 3) if rng.random() < 0.15 else 0 for _ in range(n)]
            for _ in range(n)]


def huge(rng, n):
    return dense(rng, n, -(2 ** 70), 2 ** 70)


def singular(rng, n):
    """The last row is 2 * row 0 - 3 * row 1 (row 0 at order 2), then the
    rows are shuffled; order 1 is [[0]]."""
    m = dense(rng, n) if n != 1 else [[0]]
    if n >= 2:
        m[-1] = [2 * x - 3 * y for x, y in zip(m[0], m[min(1, n - 2)])]
    rng.shuffle(m)
    return m


def zero_leading_pivot(rng, n):
    m = dense(rng, n)
    if n:
        m[0][0] = 0
    return m


KINDS = (dense, sparse, huge, singular, zero_leading_pivot)


def sympy_det(m):
    # Gaussian elimination over sympy's own integer domain.
    flat = [x for row in m for x in row]
    return int(sympy.Matrix(len(m), len(m), flat).det(method="domain-ge"))


def test_matches_sympy_on_random_matrices():
    rng = random.Random(20261018)
    for n in range(31):
        for kind in KINDS:
            m = kind(rng, n)
            det = integer_determinant(m)
            assert det == sympy_det(m), (n, kind.__name__)
            assert det == oracle_determinant(m), (n, kind.__name__)
            if kind is singular and n:
                assert det == 0


def test_matches_sympy_on_corpus_laplacians():
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        lap = reduced_laplacian(g, [v for v in g.vertices if v != g.max_vertex])
        assert integer_determinant(lap) == sympy_det(lap), spec


matrices = st.integers(0, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-(2 ** 66), 2 ** 66) | st.integers(-2, 2), min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_matches_bareiss_on_drawn_matrices(m):
    assert integer_determinant(m) == oracle_determinant(m)
