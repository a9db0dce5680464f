"""Shared test corpus and independent brute-force oracles.

The oracles here deliberately avoid the library's own shortcuts: circular
membership scans genuinely cyclic windows, word enumeration filters the
full |A|^n cube, and tree counting enumerates arc-choice functions.
"""

from __future__ import annotations

import itertools
import random
import warnings
from collections import Counter
from typing import Mapping

from debruijn_sft import (
    Alphabet,
    AmbiguousComponentError,
    Arc,
    AvoidSet,
    DeBruijnGraph,
    EmptyGraphError,
    Language,
    NotEulerianError,
    Obstruction,
    VerificationReport,
    Walk,
    Word,
    analyze_max_arcs,
    build_graph,
    check_irreducible,
    classify_vertex,
    exhaustion_order,
    graph_from_arcs,
    minimal_walk,
    walk_avoiding,
)
from debruijn_sft import structure
from debruijn_sft.language import _automaton, decode_ranks
from debruijn_sft.walks import check_balanced

# Instances where the span-level irreducibility check passes; safe for
# coverage and counting arguments that need every word to be an arc.
IRREDUCIBLE_INSTANCES: list[tuple[str, tuple[str, ...], int]] = [
    ("01", (), 2),
    ("01", (), 3),
    ("01", (), 4),
    ("01", ("11",), 2),
    ("01", ("11",), 3),
    ("01", ("11",), 4),
    ("01", ("11",), 5),
    ("01", ("11",), 6),
    ("01", ("11",), 7),
    ("01", ("11",), 8),
    ("01", ("111",), 3),
    ("01", ("111",), 4),
    ("01", ("111",), 5),
    ("01", ("111",), 6),
    ("01", ("0011",), 4),
    ("01", ("0011",), 5),
    ("01", ("11", "000"), 4),
    ("012", (), 2),
    ("012", (), 3),
    ("012", ("22",), 2),
    ("012", ("22",), 3),
    ("012", ("22",), 4),
    ("012", ("002",), 2),
    ("012", ("002",), 3),
    ("012", ("12", "21"), 3),
    ("012", ("22", "012"), 3),
]

# Buildable but not irreducible at the chosen span: the construction drops
# a stray component. Valid for graph-level theorems, not for full-language
# coverage claims.
EXTRA_INSTANCES: list[tuple[str, tuple[str, ...], int]] = [
    ("01", ("01111",), 4),
    ("01", ("01111",), 5),
]

ALL_INSTANCES = IRREDUCIBLE_INSTANCES + EXTRA_INSTANCES

RANDOM_SEED = 20260808


def language_of(spec: tuple[str, tuple[str, ...], int]) -> Language:
    alphabet, forbidden, _ = spec
    return Language.from_text(alphabet, forbidden)


def graph_of(spec: tuple[str, tuple[str, ...], int]) -> DeBruijnGraph:
    return build_graph(language_of(spec), spec[2])


def random_instances(count: int, seed: int = RANDOM_SEED) -> list[tuple[str, tuple[str, ...], int]]:
    """Deterministic pseudo-random irreducible instances."""
    rng = random.Random(seed)
    seen: set[tuple] = set()
    out: list[tuple[str, tuple[str, ...], int]] = []
    while len(out) < count:
        alphabet = rng.choice(["01", "012"])
        n_forbidden = rng.randint(1, 3)
        forbidden = tuple(sorted({
            "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 4)))
            for _ in range(n_forbidden)
        }))
        span = rng.randint(3, 6)
        key = (alphabet, forbidden, span)
        if key in seen:
            continue
        seen.add(key)
        if check_irreducible(Language.from_text(alphabet, forbidden), span).irreducible:
            out.append(key)
    return out


def random_hand_built_graphs(count: int, seed: int) -> list[DeBruijnGraph]:
    """Graphs assembled arc by arc: spans 1-3, alphabets 01 or 012, 1-6
    vertices, distinct labels per tail and arbitrary heads. Unlike language
    graphs, their arc words need not be closed under rotation."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        alphabet = Alphabet.from_text(rng.choice(["01", "012"]))
        span = rng.randint(1, 3)
        cube = list(itertools.product(range(alphabet.size), repeat=span))
        vertices = rng.sample(cube, rng.randint(1, min(6, len(cube))))
        arcs = [
            Arc(v, label, rng.choice(vertices))
            for v in vertices
            for label in rng.sample(range(alphabet.size), rng.randint(0, alphabet.size))
        ]
        if arcs:
            graphs.append(graph_from_arcs(span, alphabet, arcs))
    return graphs


def random_balanced_graphs(count: int, seed: int) -> list[DeBruijnGraph]:
    """Graphs assembled from random closed walks, so every vertex is
    balanced: spans 1-3, 2-4 letters, random labels and arbitrary heads.
    A closed walk may revisit a vertex or stay on it, which gives nested
    subcycles and self-loops. Every fourth graph gets a second, separate
    set of closed walks, so it is balanced but not connected."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        alphabet = Alphabet.from_text("0123"[: rng.randint(2, 4)])
        span = rng.randint(1, 3)
        cube = list(itertools.product(range(alphabet.size), repeat=span))
        vertices = rng.sample(cube, min(len(cube), rng.randint(1, 8)))
        parts = [vertices]
        if len(graphs) % 4 == 3 and len(vertices) > 1:
            cut = rng.randint(1, len(vertices) - 1)
            parts = [vertices[:cut], vertices[cut:]]
        free = {v: list(range(alphabet.size)) for v in vertices}
        arcs = []
        for part in parts:
            for _ in range(rng.randint(1, 6)):
                walk = [rng.choice(part) for _ in range(rng.randint(1, 7))]
                steps = list(zip(walk, walk[1:] + walk[:1]))
                tails = [t for t, _ in steps]
                if any(tails.count(t) > len(free[t]) for t in tails):
                    continue
                for t, h in steps:
                    label = free[t].pop(rng.randrange(len(free[t])))
                    arcs.append(Arc(t, label, h))
        if arcs:
            graphs.append(graph_from_arcs(span, alphabet, arcs))
    return graphs


def nested_cycles_graph(depth: int) -> DeBruijnGraph:
    """A path of depth+1 binary vertices of span 11, each joined to the
    next by an arc labeled 1 and back by an arc labeled 0. From the first
    vertex the greedy walk goes one step and back; the subcycle spliced
    in after that step goes one step further and back, and so on, so the
    subcycles nest `depth` deep."""
    alphabet = Alphabet.from_text("01")
    path = list(itertools.product(range(2), repeat=11))[: depth + 1]
    arcs = [Arc(a, 1, b) for a, b in zip(path, path[1:])]
    arcs += [Arc(b, 0, a) for a, b in zip(path, path[1:])]
    return graph_from_arcs(11, alphabet, arcs)


def avoid_sets(g: DeBruijnGraph, rng: random.Random) -> list[AvoidSet]:
    """The max-arc avoid set, plus random ones with random roots on graphs
    small enough for the quadratic reference."""
    sets = [analyze_max_arcs(g).avoid_set()]
    if len(g.vertices) <= 80:
        for _ in range(7):
            root = rng.choice(g.vertices)
            reserved = {v: rng.choice(g.out_arcs(v)) for v in g.vertices if v != root}
            sets.append(AvoidSet(root=root, arc_by_vertex=reserved))
    return sets


# ---------------------------------------------------------------------------
# Independent oracles.

def oracle_is_circular(lang: Language, w: Word) -> bool:
    """Cyclic-window scan: every forbidden word against every rotation."""
    n = len(w)
    for f in lang.forbidden:
        for start in range(n):
            if all(w[(start + i) % n] == f[i] for i in range(len(f))):
                return False
    return True


def oracle_words(lang: Language, n: int) -> list[Word]:
    """Filter the full cube of length-n tuples."""
    return [
        w for w in itertools.product(range(lang.alphabet.size), repeat=n)
        if oracle_is_circular(lang, w)
    ]


def oracle_enumerate_ranks(lang: Language, n: int) -> list[int]:
    """The ranks of the circular words of length n, ascending, grown letter
    by letter through the automaton: prefixes in the same state grow as one
    list, the seam is read on through the first max_forbidden_len - 1
    letters, taken periodically, and the output is sorted at the end."""
    k = lang.alphabet.size
    goto = _automaton(lang)
    pad = max(lang.max_forbidden_len - 1, 0)
    fixed = min(pad, n)
    prefixes: list[tuple[int, int, Word]] = [(0, 0, ())]
    for _ in range(fixed):
        prefixes = [
            (r * k + a, t, w + (a,))
            for r, s, w in prefixes for a, t in enumerate(goto[s]) if t >= 0
        ]
    out: list[int] = []
    for prefix, state, letters in prefixes:
        groups = {state: [prefix]}
        for _ in range(n - fixed):
            grown: dict[int, list[int]] = {}
            for s, ranks in groups.items():
                for a, t in enumerate(goto[s]):
                    if t >= 0:
                        grown.setdefault(t, []).extend(r * k + a for r in ranks)
            groups = grown
        seam = letters if pad <= n else (letters * (pad // n + 1))[:pad]
        for s, ranks in groups.items():
            for a in seam:
                s = goto[s][a]
                if s < 0:
                    break
            else:
                out += ranks
    out.sort()
    return out


def oracle_span_tables(lang: Language, n: int) -> tuple[list[int], ...] | None:
    """The vertex ranks and the tables `first`, `heads` and `labels` of the
    raw span-n digraph, or None when there are no words of length n+1.
    The ranks come from `oracle_enumerate_ranks`; a `Counter` of tails
    numbers the vertices and gives their out-degrees, and each head,
    c % k**n, is looked up in a dict from vertex rank to id."""
    ranks = oracle_enumerate_ranks(lang, n + 1)
    if not ranks:
        return None
    k = lang.alphabet.size
    degree = Counter(c // k for c in ranks)   # by tail, ascending
    order = list(degree)
    ids = dict(zip(order, range(len(order))))
    heads = [ids[c % k ** n] for c in ranks]
    labels = [c % k for c in ranks]
    return order, [0, *itertools.accumulate(degree.values())], heads, labels


def oracle_main_component(words: list[Word], n: int) -> set[Word]:
    """The words whose arcs w[:n] -> w[1:] lie in the strongly connected
    component with the most internal arcs, by plain reachability: the
    component of v is what v reaches forward and backward. Raises
    EmptyGraphError when no arc is internal and AmbiguousComponentError
    when two components tie."""
    succ: dict[Word, set[Word]] = {}
    pred: dict[Word, set[Word]] = {}
    for w in words:
        succ.setdefault(w[:n], set()).add(w[1:])
        pred.setdefault(w[1:], set()).add(w[:n])

    def reach(v: Word, step: dict[Word, set[Word]]) -> set[Word]:
        seen, todo = {v}, [v]
        while todo:
            for u in step.get(todo.pop(), ()):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return seen

    component: dict[Word, frozenset[Word]] = {}
    for v in {*succ, *pred}:
        if v not in component:
            comp = frozenset(reach(v, succ) & reach(v, pred))
            component.update(dict.fromkeys(comp, comp))
    inside: dict[frozenset[Word], set[Word]] = {}
    for w in words:
        if component[w[:n]] is component[w[1:]]:
            inside.setdefault(component[w[:n]], set()).add(w)
    sizes = sorted((len(ws) for ws in inside.values()), reverse=True)
    if not sizes:
        raise EmptyGraphError("no arc inside a component")
    if len(sizes) > 1 and sizes[0] == sizes[1]:
        raise AmbiguousComponentError(f"components tie at {sizes[0]} arcs")
    return max(inside.values(), key=len)


def oracle_tarjan(vertices, successors) -> list[list]:
    """Dict-based iterative Tarjan on hashable vertices: the reference for
    `scc.strongly_connected_components`, components in completion order,
    each in the order its vertices leave the stack."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[list] = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
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


def oracle_suffix_words(lang: Language, n: int) -> list[Word]:
    """Tuple-prefix enumeration with a forbidden-suffix test at every
    letter, the seam covered by max_forbidden_len - 1 more periodic
    letters; depth-first, so words come out in lexicographic order."""
    forbidden = sorted(lang.forbidden, key=len)
    full = n + max(lang.max_forbidden_len - 1, 0)
    letters = range(lang.alphabet.size - 1, -1, -1)
    out: list[Word] = []
    stack: list[Word] = [()]
    while stack:
        prefix = stack.pop()
        depth = len(prefix)
        if depth == full:
            out.append(prefix[:n])
            continue
        for s in letters if depth < n else (prefix[depth - n],):
            child = prefix + (s,)
            if not any(child[-len(f):] == f for f in forbidden):
                stack.append(child)
    return out


def oracle_build_graph(lang: Language, n: int) -> DeBruijnGraph:
    """Reference for `build_graph` on tuples: suffix-test enumeration, the
    main component by the dict-based Tarjan over sorted vertex tuples, and
    the kept arcs handed to `graph_from_arcs`, which sorts them as tuples.
    Raises and warns as `build_graph` does."""
    if n < 1:
        raise ValueError("span must be >= 1")
    if n + 1 < lang.max_forbidden_len:
        warnings.warn(
            f"span {n} is shorter than the longest forbidden word minus one; "
            "arcs cannot see every constraint", stacklevel=2,
        )
    words = oracle_suffix_words(lang, n + 1)
    if not words:
        raise EmptyGraphError(f"no words of length {n + 1}")
    succ: dict[Word, list[Word]] = {}
    for w in words:
        succ.setdefault(w[:n], []).append(w[1:])
    comps = oracle_tarjan(sorted(succ), lambda v: succ.get(v, ()))
    comp_id = {v: i for i, comp in enumerate(comps) for v in comp}
    arc_count = [0] * len(comps)
    for w in words:
        if comp_id[w[:n]] == comp_id[w[1:]]:
            arc_count[comp_id[w[:n]]] += 1
    best = max(arc_count)
    if arc_count.count(best) > 1:
        raise AmbiguousComponentError(
            f"{arc_count.count(best)} strongly connected components tie at {best} arcs")
    keep = arc_count.index(best)
    arcs = [
        Arc(w[:n], w[n], w[1:]) for w in words
        if comp_id[w[:n]] == keep and comp_id[w[1:]] == keep
    ]
    return graph_from_arcs(n, lang.alphabet, arcs, language=lang)


def oracle_converging_trees(g: DeBruijnGraph, root: Word) -> int:
    """Count arc-choice functions (one out-arc per non-root vertex) whose
    arcs all lead to the root."""
    others = [v for v in g.vertices if v != root]
    count = 0
    for choice in itertools.product(*(g.out_arcs(v) for v in others)):
        succ = {arc.tail: arc.head for arc in choice}
        ok = True
        for v in others:
            cur = v
            hops = 0
            while cur != root:
                cur = succ.get(cur)
                hops += 1
                if cur is None or hops > len(g.vertices):
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def reduced_laplacian(g: DeBruijnGraph, others: list[Word]) -> list[list[int]]:
    """Out-degree Laplacian with the root's row and column removed; rows
    and columns follow `others`, every vertex but the root."""
    index = {v: i for i, v in enumerate(others)}
    lap = [[0] * len(others) for _ in others]
    for a in g.arcs:
        if a.tail == a.head or a.tail not in index:
            continue
        lap[index[a.tail]][index[a.tail]] += 1
        if a.head in index:
            lap[index[a.tail]][index[a.head]] -= 1
    return lap


MERSENNE_61 = 2 ** 61 - 1


def modular_tree_count(g: DeBruijnGraph, root: Word, p: int = MERSENNE_61) -> int:
    """The number of spanning trees converging to the root, mod the prime
    p: Gaussian elimination over GF(p) on the sparse reduced Laplacian
    (every vertex but the root, in `g.vertices` order). Column k takes as
    pivot the sparsest unused row with an entry there; rows stay in place,
    and the product of the pivots is signed by the parity of the
    permutation taking each column to its pivot row. Sparse enough for
    thousands of vertices, and it shares no code with `counting`."""
    others = [v for v in g.vertices if v != root]
    index = {v: i for i, v in enumerate(others)}
    rows: list[dict[int, int]] = [{} for _ in others]
    for a in g.arcs:
        i = index.get(a.tail)
        if i is None or a.tail == a.head:
            continue
        rows[i][i] = rows[i].get(i, 0) + 1
        j = index.get(a.head)
        if j is not None:
            rows[i][j] = rows[i].get(j, 0) - 1
    # Every entry is a nonzero out-degree or arc multiplicity, below p.
    holders: list[set[int]] = [set() for _ in others]
    for i, row in enumerate(rows):
        for j in row:
            row[j] %= p
            holders[j].add(i)
    pivot_row_of: list[int] = []
    det = 1
    for k, column in enumerate(holders):
        if not column:
            return 0
        r = min(column, key=lambda i: len(rows[i]))
        pivot_row_of.append(r)
        prow = rows[r]
        for j in prow:
            holders[j].discard(r)
        det = det * prow[k] % p
        inverse = pow(prow[k], p - 2, p)
        for i in column:
            row = rows[i]
            f = row.pop(k) * inverse % p
            for j, v in prow.items():
                if j == k:
                    continue
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                    holders[j].add(i)
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
        column.clear()
    # A permutation of n items with c cycles has parity n - c.
    seen = [False] * len(others)
    cycles = 0
    for k in range(len(others)):
        if not seen[k]:
            cycles += 1
            while not seen[k]:
                seen[k] = True
                k = pivot_row_of[k]
    return det if (len(others) - cycles) % 2 == 0 else -det % p


def oracle_determinant(matrix: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination over all entries: every division
    is exact, so the result is exact for any integer matrix."""
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


def cyclic_windows(label: Word, width: int) -> list[Word]:
    doubled = label + label
    return sorted(doubled[i : i + width] for i in range(len(label)))


def oracle_longest_overlap(u: Word, m: Word) -> Word:
    """Slice-search reference for the overlaps of structure.analyze_max_arcs."""
    # Longest proper borrowing: suffix of u that is a prefix of m, length < n.
    n = len(m)
    for k in range(n - 1, 0, -1):
        if u[n - k :] == m[:k]:
            return m[:k]
    return ()


def oracle_functional_cycles(
    vertices: tuple[Word, ...], exit_arc: Mapping[Word, Arc]
) -> list[list[Word]]:
    """Reference for structure._functional_cycles: a position dict per start
    and a set of finished vertices."""
    done: set[Word] = set()
    cycles: list[list[Word]] = []
    for v in vertices:
        path: list[Word] = []
        pos: dict[Word, int] = {}
        cur: Word | None = v
        while cur is not None and cur not in done and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            arc = exit_arc.get(cur)
            cur = None if arc is None else arc.head
        if cur is not None and cur in pos:
            cycles.append(path[pos[cur] :])
        done.update(path)
    return cycles


def oracle_analyze_max_arcs(g: DeBruijnGraph) -> dict:
    """Tuple reference for structure.analyze_max_arcs: its word-keyed
    fields by name, from each vertex's out-arcs, the slice-search overlap
    and the dict-based cycle search. Raises the same ValueError for a
    vertex with no out-arc."""
    root = g.max_vertex
    max_arc: dict[Word, Arc] = {}
    overlap: dict[Word, Word] = {}
    for v in g.vertices:
        if v == root:
            continue
        arcs = g.out_arcs(v)
        if not arcs:
            raise ValueError(f"vertex {v} has no out-arc; graph is not analyzable")
        max_arc[v] = arcs[-1]
        overlap[v] = oracle_longest_overlap(v, root)
    max_label = {v: a.label for v, a in max_arc.items()}
    overlap_next = {v: root[len(ov)] for v, ov in overlap.items()}
    cycles = []
    for cyc in oracle_functional_cycles(g.vertices, max_arc):
        k = cyc.index(min(cyc))
        cycles.append(tuple(cyc[k:] + cyc[:k]))
    cycles.sort()
    return {
        "root": root,
        "max_arc": max_arc,
        "overlap": overlap,
        "overlap_next": overlap_next,
        "max_label": max_label,
        "floor": frozenset(v for v, ov in overlap.items() if not ov),
        "restricted": frozenset(v for v in max_arc if max_label[v] < overlap_next[v]),
        "cycles": tuple(cycles),
        "is_tree": not cycles,
    }


def oracle_max_arc_labels(t, start: Word, k: int) -> Word:
    """Labels of the first k max arcs on the walk from start; fewer when
    the walk reaches the root first."""
    max_arc = t.avoid_set().arc_by_vertex
    labels = []
    cur = start
    for _ in range(k):
        arc = max_arc.get(cur)
        if arc is None:
            break
        labels.append(arc.label)
        cur = arc.head
    return tuple(labels)


def oracle_ahead(t, steps: int) -> list[int]:
    """The vertex each vertex reaches by `steps` max arcs, by id; -1 when
    its walk reaches the root in fewer steps.

    One pass down from the root and from each cycle vertex, keeping the
    path back up, so the answer is read off that path; past a cycle
    vertex the walk goes on around its cycle.
    """
    g = t.graph
    heads = g.heads
    on_cycle = [False] * len(t._arc)
    bases = [(len(t._arc) - 1, (), 0)]   # (vertex, its cycle, its place there)
    for cyc in t._cycles:
        for j, v in enumerate(cyc):
            on_cycle[v] = True
            bases.append((v, cyc, j))
    below: list[list[int]] = [[] for _ in t._arc]
    for v, a in enumerate(t._arc[:-1]):
        if not on_cycle[v]:
            below[heads[a]].append(v)
    out = [-1] * len(t._arc)
    for base, cyc, j in bases:
        path: list[int] = []
        todo = [(base, 0)]
        while todo:
            v, depth = todo.pop()
            del path[depth:]
            path.append(v)
            if depth >= steps:
                out[v] = path[depth - steps]
            elif cyc:
                out[v] = cyc[(j + steps - depth) % len(cyc)]
            todo.extend((u, depth + 1) for u in below[v])
    return out


# Tuple references for the verifiers that read a MaxArcAnalysis. They read
# its max arcs by word through its avoid set, each vertex's data through
# `classify_vertex`, and walk each path afresh.

def oracle_label_monotonicity(t) -> VerificationReport:
    g = t.graph
    length = g.span + 2
    checks = 0
    violations = []
    for v in g.vertices:
        labels = oracle_max_arc_labels(t, v, length)
        if len(labels) < length:
            continue
        checks += 1
        if labels[0] > labels[-1]:
            violations.append(
                f"walk from {v}: first label {labels[0]} > label {labels[-1]} "
                f"at step {length}"
            )
    return VerificationReport("label-monotonicity", checks, tuple(violations))


def oracle_cycle_structure(t) -> VerificationReport:
    n = t.graph.span
    checks = 0
    violations = []
    for cyc in t.cycles:
        checks += 1
        if (n + 1) % len(cyc) != 0:
            violations.append(f"cycle {cyc}: length {len(cyc)} does not divide {n + 1}")
            continue
        reps = (n + 1) // len(cyc)
        for u in cyc:
            succ = t.avoid_set().arc_by_vertex[u].head
            expected = oracle_max_arc_labels(t, succ, len(cyc)) * reps
            label = classify_vertex(t, u).max_label
            if u + (label,) != expected:
                violations.append(
                    f"cycle {cyc}: vertex {u} with label {label} "
                    f"is not the repeated loop label {expected}"
                )
        n_restricted = sum(1 for u in cyc if classify_vertex(t, u).is_restricted)
        n_floor = sum(1 for u in cyc if classify_vertex(t, u).is_floor)
        if n_restricted != n_floor:
            violations.append(
                f"cycle {cyc}: {n_restricted} restricted but {n_floor} floor vertices"
            )
    return VerificationReport("cycle-structure", checks, tuple(violations))


def oracle_overlap_bounds(t) -> VerificationReport:
    g = t.graph
    root = t.root
    checks = 0
    violations = []
    for a in g.arcs:
        if a.tail == root:
            continue
        checks += 1
        tail = classify_vertex(t, a.tail)
        cap = tail.overlap_next
        if a.label > cap:
            violations.append(f"arc {a}: label exceeds bound {cap}")
            continue
        if a.head == root:
            continue
        head = classify_vertex(t, a.head)
        if a.label < cap and head.overlap != ():
            violations.append(f"arc {a}: low label but head overlap is nonempty")
        if a.label == cap and head.overlap != tail.overlap + (a.label,):
            violations.append(f"arc {a}: head overlap does not extend tail overlap")
    return VerificationReport("overlap-bounds", checks, tuple(violations))


def oracle_floor_paths(t) -> VerificationReport:
    max_arc = t.avoid_set().arc_by_vertex
    checks = 0
    violations = []
    for f in sorted(v for v in max_arc if classify_vertex(t, v).is_floor):
        labels: list[int] = []
        visited = {f}
        cur = f
        while True:
            if cur != t.root and tuple(labels) != classify_vertex(t, cur).overlap:
                violations.append(
                    f"path from {f} to {cur}: label {tuple(labels)} != overlap "
                    f"{classify_vertex(t, cur).overlap}"
                )
            checks += 1
            if cur == t.root or classify_vertex(t, cur).is_restricted:
                break
            arc = max_arc[cur]
            labels.append(arc.label)
            cur = arc.head
            if cur in visited:
                break
            visited.add(cur)
    return VerificationReport("floor-paths", checks, tuple(violations))


def oracle_cycle_label_blocks(t, cycle: tuple[Word, ...]) -> VerificationReport:
    n = t.graph.span
    rest = [u for u in cycle if classify_vertex(t, u).is_restricted]
    if not rest:
        return VerificationReport(
            "cycle-label-blocks", 1, (f"cycle {cycle} has no restricted vertex",)
        )
    reps = (n + 1) // len(cycle)
    k = len(rest)
    checks = 0
    violations = []
    for i, u in enumerate(rest):
        checks += 1
        loop: list[int] = []
        for j in range(1, k + 1):
            w = classify_vertex(t, rest[(i + j) % k])
            loop.extend(w.overlap + (w.max_label,))
        if len(loop) != len(cycle):
            violations.append(
                f"cycle {cycle}: blocks after {u} spell {len(loop)} letters, "
                f"cycle has {len(cycle)}"
            )
            continue
        if tuple(loop) * reps != u + (classify_vertex(t, u).max_label,):
            violations.append(f"cycle {cycle}: block spelling mismatch at {u}")
    return VerificationReport("cycle-label-blocks", checks, tuple(violations))


def oracle_greedy_decision(decision) -> VerificationReport:
    t = decision.analysis
    g = t.graph
    checks = 1
    violations = []
    walk = minimal_walk(g)
    if walk.is_eulerian(g) != decision.answer:
        violations.append(
            f"decision {decision.answer} but greedy walk eulerian={walk.is_eulerian(g)}"
        )
    obstruction_words = {o.word for o in decision.obstructions}
    for cyc in t.cycles:
        divides = (g.span + 1) % len(cyc) == 0
        for u in cyc:
            checks += 1
            if not divides or u + (classify_vertex(t, u).max_label,) not in obstruction_words:
                violations.append(f"cycle word for {u} missing from obstructions")
    for o in decision.obstructions:
        w = o.word
        for r in range(len(w)):
            rot = w[r:] + w[:r]
            checks += 1
            if t.avoid_set().arc_by_vertex.get(rot[:-1]) != (rot[:-1], rot[-1], rot[1:]):
                violations.append(
                    f"obstruction {w}: rotation {rot} is not a max-arc of the graph"
                )
    return VerificationReport("greedy-decision", checks, tuple(violations))


def oracle_exhaustion_order(g: DeBruijnGraph, avoid: AvoidSet) -> VerificationReport:
    """Quadratic reference for verify_exhaustion_order: finds the vertices
    draining into each v by walking the reserved arcs from every vertex."""
    walk = walk_avoiding(g, avoid)
    order = exhaustion_order(walk, g)

    on_cycle: set[Word] = set()
    state: dict[Word, int] = {}
    for v in g.vertices:
        if v in state:
            continue
        path: list[Word] = []
        pos: dict[Word, int] = {}
        cur: Word | None = v
        while cur is not None and cur not in state and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            arc = avoid.arc_by_vertex.get(cur)
            cur = None if arc is None else arc.head
        if cur is not None and cur in pos:
            on_cycle.update(path[pos[cur] :])
        for w in path:
            state[w] = 2

    checks = 0
    violations = []
    for v in g.vertices:
        if v in on_cycle or v not in order:
            continue
        for u in g.vertices:
            if u == v:
                continue
            cur2: Word | None = u
            hops = 0
            while cur2 is not None and cur2 != v and hops <= len(g.vertices):
                arc = avoid.arc_by_vertex.get(cur2)
                cur2 = None if arc is None else arc.head
                hops += 1
            if cur2 != v:
                continue
            checks += 1
            if u not in order or order[u] > order[v]:
                violations.append(
                    f"{v} exhausted at {order[v]} but upstream {u} at "
                    f"{order.get(u)}"
                )
    return VerificationReport("exhaustion-order", checks, tuple(violations))


def oracle_exhaustion_order_upward(g: DeBruijnGraph, avoid: AvoidSet) -> VerificationReport:
    """Reference for verify_exhaustion_order that walks up the reserved
    forest from every vertex and checks each exhausted vertex it meets, so
    its work is the sum of all depths."""
    walk = walk_avoiding(g, avoid)
    order = exhaustion_order(walk, g)
    reserved = avoid.arc_by_vertex
    on_cycle = {v for cyc in oracle_functional_cycles(g.vertices, reserved) for v in cyc}
    parent = {
        v: a.head for v, a in reserved.items()
        if v not in on_cycle and a.head not in on_cycle
    }
    checks = 0
    late = []
    for u in g.vertices:
        t = order.get(u)
        v = parent.get(u)
        while v is not None:
            tv = order.get(v)
            if tv is not None:
                checks += 1
                if t is None or t > tv:
                    late.append((v, u))
            v = parent.get(v)
    violations = [
        f"{v} exhausted at {order[v]} but upstream {u} at {order.get(u)}"
        for v, u in sorted(late)
    ]
    return VerificationReport("exhaustion-order", checks, tuple(violations))


def oracle_parse_blocks(w: Word, g: DeBruijnGraph) -> tuple[tuple[Word, int], ...] | None:
    """Tuple reference for structure._split_blocks: parses w left to
    right, each block ending at the first letter where w departs from the
    maximal vertex m, and looks up the out-arcs of the vertex each block's
    letter leaves."""
    m = g.max_vertex
    n = len(m)
    blocks: list[tuple[Word, int]] = []
    i = 0
    while i < len(w):
        k = 0
        while k < n and i + k < len(w) and w[i + k] == m[k]:
            k += 1
        p = i + k
        if k == n or p == len(w) or w[p] > m[k]:
            return None
        # The rotation of w ending at this block's letter spells an arc out
        # of `rest`; a larger letter is in the language exactly when `rest`
        # has an out-arc with a larger label.
        rest = w[p + 1 :] + w[:p]
        arcs = g.out_arcs(rest)
        if arcs and arcs[-1].label > w[p]:
            return None
        blocks.append((w[i:p], w[p]))
        i = p + 1
    return tuple(blocks)


def oracle_obstructions(g: DeBruijnGraph) -> tuple[Obstruction, ...]:
    """Reference for structure.enumerate_obstructions: keys each rotation
    class by its least rotation and builds every arc word's rotations."""
    cache: dict[Word, tuple[Word, tuple[tuple[Word, int], ...]] | None] = {}
    out: list[Obstruction] = []
    for a in g.arcs:   # sorted by (tail, label), so words come out in order
        w = a.tail + (a.label,)
        rots = [w[r:] + w[:r] for r in range(len(w))]
        key = min(rots)
        if key not in cache:
            hit = None
            for cand in sorted(set(rots)):
                blocks = oracle_parse_blocks(cand, g)
                if blocks is not None:
                    hit = (cand, blocks)
                    break
            cache[key] = hit
        hit = cache[key]
        if hit is not None:
            rotated, blocks = hit
            out.append(Obstruction(word=w, rotation=rots.index(rotated), blocks=blocks))
    return tuple(out)


def oracle_rotation_table_obstructions(g: DeBruijnGraph) -> tuple[Obstruction, ...]:
    """Tuple reference for structure.enumerate_obstructions with its
    rotation table: one dict from every rotation tuple of each class seen
    to the class's witness, or to None."""
    witness: dict[Word, tuple[Word, tuple[tuple[Word, int], ...]] | None] = {}
    out: list[Obstruction] = []
    for a in g.arcs:
        w = a.tail + (a.label,)
        if w not in witness:
            rots = [w[r:] + w[:r] for r in range(len(w))]
            hit = None
            for cand in sorted(set(rots)):
                blocks = oracle_parse_blocks(cand, g)
                if blocks is not None:
                    hit = (cand, blocks)
                    break
            witness.update(dict.fromkeys(rots, hit))
        hit = witness[w]
        if hit is not None:
            rotated, blocks = hit
            r = next(r for r in range(len(w)) if w[r:] + w[:r] == rotated)
            out.append(Obstruction(word=w, rotation=r, blocks=blocks))
    return tuple(out)


def oracle_candidate_parse_obstructions(g: DeBruijnGraph) -> tuple[Obstruction, ...]:
    """Reference for structure.enumerate_obstructions with its rank-keyed
    rotation table, that tries a class's rotations one by one in rank
    order and parses each from the class's block lengths, until one
    splits into blocks."""
    k, n = g.alphabet.size, g.span
    size = k ** n
    m = g.max_vertex
    first, labels = g.first, g.labels
    top = {r: labels[f - 1] for r, e, f in zip(g.ranks, first, first[1:]) if e < f}

    def parse(w: Word, j: int, block: list[int]) -> tuple[tuple[Word, int], ...] | None:
        p, end = j, j + len(w)
        while p < end:
            if not block[p % len(w)]:
                return None
            p += block[p % len(w)]
        if p != end:
            return None
        blocks = []
        p = j
        while p < end:
            b = block[p % len(w)]
            blocks.append((m[: b - 1], w[(p + b - 1) % len(w)]))
            p += b
        return tuple(blocks)

    witness: dict[int, tuple[int, tuple[tuple[Word, int], ...]] | None] = {}
    found: list[tuple[int, int, tuple[tuple[Word, int], ...]]] = []
    for v, r in enumerate(g.ranks):
        for i in range(first[v], first[v + 1]):
            c = r * k + labels[i]
            if c not in witness:
                rots = [c]
                for _ in range(n):
                    d = rots[-1]
                    rots.append((d % size) * k + d // size)
                w = tuple([d // size for d in rots])
                may_end = [top.get(d // k, -1) <= d % k for d in rots[1:] + rots[:1]]
                block = oracle_block_lengths(w, may_end, m)
                hit = None
                for cand in sorted(set(rots)):
                    blocks = parse(w, rots.index(cand), block)
                    if blocks is not None:
                        hit = (cand, blocks)
                        break
                witness.update(dict.fromkeys(rots, hit))
            hit = witness[c]
            if hit is not None:
                rotation, d = 0, c
                while d != hit[0]:
                    rotation += 1
                    d = (d % size) * k + d // size
                found.append((c, rotation, hit[1]))
    words = decode_ranks([c for c, _, _ in found], k, n + 1)
    return tuple(
        Obstruction(word=w, rotation=rotation, blocks=blocks)
        for w, (_, rotation, blocks) in zip(words, found)
    )


def oracle_enumerate_eulerian_cycles(
    g: DeBruijnGraph, start: Word, cap: int | None = None,
) -> tuple[list[Walk], bool]:
    """Reference for oracle.enumerate_eulerian_cycles: backtracking over the
    tuple graph's `Arc`s, with a used set, in ascending label order. Returns
    the circuits and whether `cap` of them ended the search."""
    total = len(g.arcs)
    used: set = set()
    path: list = []
    found: list[Walk] = []
    frames = [iter(g.out_arcs(start))]
    while frames:
        for arc in frames[-1]:
            if arc not in used:
                break
        else:
            frames.pop()
            if path:
                used.discard(path.pop())
            continue
        used.add(arc)
        path.append(arc)
        if len(path) < total:
            frames.append(iter(g.out_arcs(arc.head)))
            continue
        if arc.head == start:
            found.append(Walk(start, tuple(path)))
            if cap is not None and len(found) >= cap:
                return found, True
        used.discard(path.pop())
    return found, False


def oracle_block_lengths(w: Word, may_end: list[bool], m: Word) -> list[int]:
    """For each letter q of the circular word w, the length of the one
    block that can start there, or 0 when none can.

    A block is a proper prefix of the maximal vertex m followed by a letter
    below m's next letter, so the only candidate block ends at the first
    letter where w departs from m. may_end[q] says whether a block may end
    at letter q, that is whether no larger letter there stays in the
    language.
    """
    n, size = len(m), len(w)
    ww = w + w   # a block is shorter than w
    out = []
    for q in range(size):
        s = 0
        while s < n and ww[q + s] == m[s]:
            s += 1
        p = q + s
        out.append(s + 1 if s < n and ww[p] < m[s] and may_end[p % size] else 0)
    return out


def oracle_parse_starts(block: list[int]) -> list[int]:
    """The places of a circular word at which a rotation starts that splits
    into blocks, read from the word's block lengths.

    A parse from place j goes to (q + block[q]) mod L from each place q,
    L being the word's length, and stops where no block starts. It splits
    the rotation at j exactly when it comes back to j after block lengths
    that sum to L: so j lies on a cycle of that functional graph whose
    block lengths sum to L, and not to a larger multiple of L.
    """
    size = len(block)
    if not any(block):
        return []
    succ = [(q + b) % size if b else -1 for q, b in enumerate(block)]
    return [
        q for cyc in structure._functional_cycles(succ) if sum([block[q] for q in cyc]) == size
        for q in cyc
    ]


def oracle_block_split(
    w: Word, j: int, block: list[int], m: Word,
) -> tuple[tuple[Word, int], ...]:
    """The block decomposition of the rotation of w by j places, read from
    its block lengths; j is one of `oracle_parse_starts(block)`."""
    size = len(w)
    blocks = []
    p, end = j, j + size
    while p < end:
        b = block[p % size]
        blocks.append((m[: b - 1], w[(p + b - 1) % size]))
        p += b
    return tuple(blocks)


def oracle_class_parse_obstructions(g: DeBruijnGraph) -> tuple[Obstruction, ...]:
    """Reference for structure.enumerate_obstructions that visits every
    arc and parses each rotation class once, from its letters.

    The outcome depends only on a word's rotation class, so one table maps
    the rank of every rotation of each class seen to the class's witness,
    or to None. Rotating the word of rank c by one place gives rank
    (c % k**n) * k + c // k**n, whose first letter is c // k**n. So a
    class's letters, and one flag per letter for whether a block may end
    there, come from its rotations' ranks; the obstruction words found are
    the only words decoded. A class is parsed once: the cycles of its
    block lengths give every rotation that splits, the witness is the
    least of their ranks, and only its blocks are read. A class in which
    no block may end anywhere has no witness.
    """
    k, n = g.alphabet.size, g.span
    size = k ** n
    m = g.max_vertex
    first, labels = g.first, g.labels
    # The label of each vertex's maximum out-arc, by vertex rank.
    top = {r: labels[f - 1] for r, e, f in zip(g.ranks, first, first[1:]) if e < f}
    witness: dict[int, tuple[int, tuple[tuple[Word, int], ...]] | None] = {}
    found: list[tuple[int, int, tuple[tuple[Word, int], ...]]] = []
    for v, r in enumerate(g.ranks):   # arc order, so words come out in order
        for i in range(first[v], first[v + 1]):
            c = r * k + labels[i]
            if c not in witness:
                rots = [c]
                for _ in range(n):
                    d = rots[-1]
                    rots.append((d % size) * k + d // size)
                # Letter q ends the arc word of the rotation after it: its tail
                # is that rotation's first n letters.
                may_end = [top.get(d // k, -1) <= d % k for d in rots[1:] + rots[:1]]
                hit = None
                if True in may_end:
                    w = tuple([d // size for d in rots])
                    block = oracle_block_lengths(w, may_end, m)
                    starts = oracle_parse_starts(block)
                    if starts:
                        j = min(starts, key=rots.__getitem__)
                        hit = (rots[j], oracle_block_split(w, j, block, m))
                witness.update(dict.fromkeys(rots, hit))
            hit = witness[c]
            if hit is not None:
                rotation, d = 0, c
                while d != hit[0]:
                    rotation += 1
                    d = (d % size) * k + d // size
                found.append((c, rotation, hit[1]))
    words = decode_ranks([c for c, _, _ in found], k, n + 1)
    return tuple(
        Obstruction(word=w, rotation=rotation, blocks=blocks)
        for w, (_, rotation, blocks) in zip(words, found)
    )


def oracle_split_blocks(
    w: Word, m: Word, words: frozenset[Word], size: int
) -> tuple[tuple[Word, int], ...] | None:
    """Backtracking reference for the block parsers: tries every
    block length at every position and checks the raised-letter condition
    only on complete decompositions."""
    n = len(m)

    def conditions_3(blocks: list[tuple[Word, int]]) -> bool:
        flat = [h + (b,) for h, b in blocks]
        for i, (_, b) in enumerate(blocks):
            rotated: Word = ()
            for chunk in flat[i + 1 :] + flat[: i + 1]:
                rotated += chunk
            for b2 in range(b + 1, size):
                if rotated[:-1] + (b2,) in words:
                    return False
        return True

    def rec(rest: Word, acc: list[tuple[Word, int]]):
        if not rest:
            return list(acc) if conditions_3(acc) else None
        for length in range(1, min(n, len(rest)) + 1):
            h, b = rest[: length - 1], rest[length - 1]
            if h != m[: length - 1]:
                continue
            if b >= m[length - 1]:
                continue
            acc.append((h, b))
            found = rec(rest[length:], acc)
            acc.pop()
            if found is not None:
                return found
        return None

    found = rec(w, [])
    return None if found is None else tuple(found)


def oracle_greedy_walk(
    g: DeBruijnGraph, start: Word, used: set[Arc],
    reserved: dict[Word, Arc] | None = None,
) -> list[Arc]:
    """Used-set reference for the greedy walks: at each vertex rescan the
    out-arcs for the minimum-label one not in `used` and not reserved, take
    the reserved arc only when nothing else is left, and stop when no
    unused arc leaves. `used` is updated in place."""
    reserved = reserved or {}
    steps: list[Arc] = []
    cur = start
    while True:
        keep = reserved.get(cur)
        arc = next((a for a in g.out_arcs(cur) if a not in used and a != keep), None)
        if arc is None and keep is not None and keep not in used:
            arc = keep
        if arc is None:
            return steps
        used.add(arc)
        steps.append(arc)
        cur = arc.head


def oracle_eulerian_cycle(g: DeBruijnGraph, start: Word) -> Walk:
    """Reference for walks.eulerian_cycle: the same splice-at-first-position
    loop over used-set greedy subcycles."""
    check_balanced(g)
    used: set[Arc] = set()
    tour = oracle_greedy_walk(g, start, used)
    i = 0
    while i <= len(tour):
        v = start if i == 0 else tour[i - 1].head
        tour[i:i] = oracle_greedy_walk(g, v, used)
        i += 1
    if len(tour) != len(g.arcs):
        raise NotEulerianError(
            f"only {len(tour)} of {len(g.arcs)} arcs reachable from {start}"
        )
    return Walk(start, tuple(tour))
