"""Exact Eulerian-circuit counting.

The circuit count factors as (number of spanning trees converging to a
root) times the product over vertices of (out-degree - 1) factorial; the
tree count is the determinant of the out-degree Laplacian with the root
row and column removed. Before the determinant is taken, twins (non-root
vertices with the same multiset of heads) are merged, round after round,
and each merge of a twin of out-degree d takes an exact factor d out of
the determinant. What is left is one sparse elimination modulo a product
of 61-bit primes large enough to pin the integer down. Everything is exact
integer arithmetic; counts must never pass through floats.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import factorial, gcd, isqrt, prod
from operator import sub

from .errors import NotEulerianError
from .graph import DeBruijnGraph
from .language import Word
from .walks import check_balanced


# Deterministic Miller-Rabin bases: proven for every n below 3.3e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES: list[int] = []   # primes below 2**61, largest first, found on demand


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n above 37 and below 3.3e24."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The primes below 2**61 in decreasing order. Each is found on first
    use and cached for later calls."""
    i = 0
    while True:
        if i == len(_PRIMES):
            p = _PRIMES[-1] - 2 if _PRIMES else 2**61 - 1
            while not _is_prime(p):
                p -= 2
            _PRIMES.append(p)
        yield _PRIMES[i]
        i += 1


def _sparse_rows(matrix: list[list[int]] | list[dict[int, int]]) -> list[dict[int, int]]:
    """Each row as a {column: value} dict of its nonzero entries. A list
    row must be as long as the matrix, a dict row may only name columns
    inside it, and every entry must be an int."""
    size = len(matrix)
    rows = []
    for row in matrix:
        if isinstance(row, dict):
            if not all(isinstance(j, int) and 0 <= j < size for j in row):
                raise ValueError("matrix is not square")
        elif len(row) != size:
            raise ValueError("matrix is not square")
        else:
            row = dict(enumerate(row))
        if not all(isinstance(a, int) for a in row.values()):
            raise ValueError("matrix entries must be integers")
        rows.append({j: a for j, a in row.items() if a})
    return rows


def _determinant_bound(rows: list[dict[int, int]]) -> int:
    """An upper bound on |det|: the product of the diagonal for an
    M-matrix, else the Hadamard bound.

    A Z-matrix (no positive entry off the diagonal) whose diagonal
    dominates each row is an M-matrix, possibly singular, and for those
    0 <= det <= the product of the diagonal (Hadamard-Fischer). Every
    reduced Laplacian is one. Each row's norm is at least its diagonal
    entry, so that product never exceeds the Hadamard bound.
    """
    diagonal = 1
    for i, row in enumerate(rows):
        values = row.values()
        d = row.get(i, 0)
        total = sum(values)
        # The absolute values sum to 2d - total exactly when d >= 0 and
        # no entry off the diagonal is positive.
        if total >= 0 and sum(map(abs, values)) == 2 * d - total:
            diagonal *= d
        else:
            # |det| <= sqrt(product of squared row norms), and det is an integer.
            return isqrt(prod(sum([a * a for a in row.values()]) for row in rows))
    return diagonal


def _is_odd(order: list[int]) -> bool:
    """Whether the permutation k -> order[k] is odd: whether its size
    less its number of cycles is."""
    seen = bytearray(len(order))
    cycles = 0
    for start in range(len(order)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = 1
                i = order[i]
    return (len(order) - cycles) % 2 == 1


def integer_determinant(
    matrix: list[list[int]] | list[dict[int, int]], *, _bound: int | None = None,
) -> int:
    """Determinant over the integers by sparse elimination modulo M.

    Rows are lists or {column: value} dicts. M is a product of primes
    above twice a bound on |det|, so the residue read in (-M/2, M/2] is
    the determinant itself, bit-exact for arbitrarily large entries. The
    bound is `_determinant_bound` of the rows, after `_sparse_rows` has
    checked them. `count_converging_spanning_trees` instead passes its own
    dict rows with `_bound`, the product of their diagonal, which it takes
    while building them; that is what `_determinant_bound` returns for
    every reduced Laplacian, and both steps are skipped.

    Columns are eliminated in order, with the sparsest row holding each as
    pivot; updates are stored unreduced and reduced when their column is.
    The sign is the parity of the pivot order. A pivot that shares a
    factor with M retires those primes and restarts the elimination. A list row of the wrong length, a dict key
    outside range(size), or an entry that is not an int raises ValueError.
    """
    size = len(matrix)
    if _bound is None:
        sparse = _sparse_rows(matrix)
        bound = 2 * _determinant_bound(sparse)
    else:
        sparse, bound = matrix, 2 * _bound
    if not bound:
        return 0
    retired: set[int] = set()
    while True:
        primes: list[int] = []
        modulus = 1
        for p in _primes():
            if p not in retired:
                primes.append(p)
                modulus *= p
                if modulus > bound:
                    break
        least = min(primes)   # a pivot below it shares no factor with M
        rows = [dict(row) for row in sparse]
        # holders[j]: the rows not yet used as pivots with an entry in column j.
        holders: list[set[int]] = [set() for _ in range(size)]
        for i, row in enumerate(rows):
            for j in row:
                holders[j].add(i)
        order = []   # order[k]: the pivot row of column k
        det = 1
        for k, column in enumerate(holders):
            pick, fewest = -1, size + 1
            for i in list(column):
                row = rows[i]
                x = row[k] % modulus
                if x:
                    row[k] = x
                    # The sparsest row makes the least fill-in as pivot.
                    if len(row) < fewest:
                        pick, fewest = i, len(row)
                else:
                    del row[k]
                    column.discard(i)
            if pick < 0:
                return 0
            pivot_row = rows[pick]
            pivot = pivot_row.pop(k)
            if pivot >= least and gcd(pivot, modulus) != 1:
                retired.update(p for p in primes if pivot % p == 0)
                break
            order.append(pick)
            det = det * pivot % modulus
            rows[pick] = {}   # a used pivot row is never read again
            column.discard(pick)
            for j in pivot_row:
                holders[j].discard(pick)
            if not column:   # no other row to update
                continue
            inverse = 1 if pivot == 1 else pow(pivot, -1, modulus)
            scaled = [(j, s) for j, v in pivot_row.items() if (s := v * inverse % modulus)]
            for i in column:
                row = rows[i]
                f = row.pop(k)
                for j, v in scaled:
                    x = row.get(j)
                    if x is None:
                        row[j] = -f * v
                        holders[j].add(i)
                    else:
                        row[j] = x - f * v
            column.clear()
        else:
            if _is_odd(order):
                det = modulus - det
            return det - modulus if det > modulus // 2 else det


def _twin_quotient(
    heads: list[int], first: list[int], r: int,
) -> tuple[dict[tuple[int, ...], int], int]:
    """Merge twins until none are left: the quotient's vertices, and the
    factor the merges take out of the tree count.

    Twins are non-root vertices with the same multiset of heads. Each
    group of twins keeps its first member, and the arcs into the others
    go to it; merging a twin of out-degree d (self-loops included) takes
    a factor d out of the determinant, so a group of t twins gives
    d**(t - 1). Merges can make new twins, so rounds repeat until one
    finds none. The first round keys each vertex on its slice of `heads`
    as it stands (ascending ids in a span-n graph), so a graph without
    twins costs one pass; later rounds key on the sorted classes of the
    heads. Returns {head classes: survivor}, survivors ascending.
    """
    size = len(first) - 1
    to = list(range(size))   # to[v]: the survivor v merged into, or v
    keyed = [(tuple(heads[first[v] : first[v + 1]]), v) for v in range(size) if v != r]
    factor = 1
    while True:
        classes: dict[tuple[int, ...], int] = {}
        for key, v in keyed:
            u = classes.setdefault(key, v)
            if u != v:
                to[v] = u
                factor *= len(key)
        if len(classes) == len(keyed):
            return classes, factor
        survivor = to.__getitem__
        keyed = [(tuple(sorted(map(survivor, key))), u) for key, u in classes.items()]


def count_converging_spanning_trees(g: DeBruijnGraph, root: Word) -> int:
    """Number of spanning trees in which every vertex can reach the root.

    The count is the determinant of the reduced Laplacian (out-degrees
    on the diagonal, the root's row and column removed), taken on the
    graph's twin quotient. Twins, two non-root vertices u and w with the
    same multiset of heads, have rows that differ only on the diagonal:
    with d their out-degree, row w less row u is d(e_w - e_u), and adding
    column w to column u then leaves row w equal to d e_w. So the
    determinant is d times that of the Laplacian of the graph with w
    merged into u, which `_twin_quotient` repeats while twins remain; the
    root never merges. The quotient's rows are sparse, in vertex order;
    self-loops lie in no spanning tree and are left out, and parallel
    arcs count with multiplicity. The quotient is again a Laplacian, so
    an M-matrix, and the product of its diagonal, taken as the rows are
    built, is the bound the determinant needs. The count is the merges'
    factor times that one determinant.
    """
    r = g._vertex_id(root)
    classes, factor = _twin_quotient(g.heads, g.first, r)
    column = [-1] * len(g.ranks)   # column[v]: v's row and column, -1 at the root
    for i, v in enumerate(classes.values()):
        column[v] = i
    rows = []
    diagonal = 1
    for i, key in enumerate(classes):
        row = {i: 0}
        for h in key:
            j = column[h]
            if j != i:
                row[i] += 1
                if j >= 0:
                    row[j] = row.get(j, 0) - 1
        diagonal *= row[i]
        rows.append(row)
    return factor * integer_determinant(rows, _bound=diagonal)


def out_degree_factorials(g: DeBruijnGraph) -> int:
    """Product over vertices of (out-degree - 1)!: the circuits per
    converging spanning tree."""
    return prod(factorial(d - 1) for d in map(sub, g.first[1:], g.first))


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
    mean_out = len(g.heads) / len(g.ranks)
    factorial_term = out_degree_factorials(g)
    base = factorial(max(int(mean_out) - 1, 0))
    trees = count_converging_spanning_trees(g, g.max_vertex)
    report = {
        "vertices": len(g.ranks),
        "arcs": len(g.heads),
        "mean_out_degree": mean_out,
        "factorial_term": factorial_term,
        "bound_base_factorial": base,
        "bound_value": base ** len(g.ranks),
        "spanning_trees": trees,
        "eulerian_cycles": trees * factorial_term,
    }
    if g.language is not None and not g.language.forbidden:
        # BEST closed form for the unrestricted k-ary language (van
        # Aardenne-Ehrenfest & de Bruijn 1951); the exact tree count is
        # printed beside it rather than assumed equal.
        k = g.alphabet.size
        report["full_language_tree_count"] = k ** (k ** g.span - g.span - 1)
    return report
