"""Exact Eulerian-circuit counting.

The circuit count factors as (number of spanning trees converging to a
root) times the product over vertices of (out-degree - 1) factorial; the
tree count is a determinant of the out-degree Laplacian with the root row
and column removed. The determinant is one sparse elimination modulo a
product of 61-bit primes large enough to pin the integer down (the Hadamard
bound). Everything is exact integer arithmetic; counts grow doubly
exponentially and must never pass through floats.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import factorial, gcd, isqrt, prod

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


def integer_determinant(matrix: list[list[int]]) -> int:
    """Determinant over the integers by sparse elimination modulo M.

    M is a product of primes above twice the Hadamard bound H, so the
    residue read in (-M/2, M/2] is the determinant itself, bit-exact for
    arbitrarily large entries. Rows are kept as {column: value} dicts, and
    rows with nothing in the pivot column are skipped. A pivot that shares
    a factor with M (a chance of about one in 2**61 per prime and step)
    retires those primes and restarts the elimination. A matrix that is
    not square raises ValueError.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    sparse = [{j: a for j, a in enumerate(row) if a} for row in matrix]
    norms = prod(sum(a * a for a in row.values()) for row in sparse)
    if not norms:
        return 0
    # |det| <= sqrt(norms), and the determinant is an integer.
    bound = 2 * isqrt(norms)
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
        rows = [{j: a % modulus for j, a in row.items() if a % modulus} for row in sparse]
        det = 1
        for k in range(size):
            # The sparsest row with an entry in column k makes the least
            # fill-in as pivot.
            pick = min((i for i in range(k, size) if k in rows[i]),
                       key=lambda i: len(rows[i]), default=None)
            if pick is None:
                return 0
            if pick != k:
                rows[k], rows[pick] = rows[pick], rows[k]
                det = -det
            pivot_row = rows[k]
            pivot = pivot_row.pop(k)
            if gcd(pivot, modulus) != 1:
                retired.update(p for p in primes if pivot % p == 0)
                break
            det = det * pivot % modulus
            inverse = pow(pivot, -1, modulus)
            scaled = [(j, v * inverse % modulus) for j, v in pivot_row.items()]
            for i in range(k + 1, size):
                row = rows[i]
                f = row.pop(k, 0)
                if f:
                    for j, v in scaled:
                        x = (row.get(j, 0) - f * v) % modulus
                        if x:
                            row[j] = x
                        else:
                            row.pop(j, None)
        else:
            return det - modulus if det > modulus // 2 else det


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
    if g.language is not None and not g.language.forbidden:
        # BEST closed form for the unrestricted k-ary language (van
        # Aardenne-Ehrenfest & de Bruijn 1951); the exact tree count is
        # printed beside it rather than assumed equal.
        k = g.alphabet.size
        report["full_language_tree_count"] = k ** (k ** g.span - g.span - 1)
    return report
