"""Structure of the maximum-label arc subgraph and the greedy-walk decision.

For each non-root vertex keep its maximum-label out-arc; those arcs form a
functional subgraph (every vertex one exit, the root none). The greedy
minimal walk from the maximal vertex is exactly the walk avoiding this
subgraph, so it covers the whole graph precisely when the subgraph is a
tree converging to the root. A second, independent criterion looks only at
words: a word of full span+1 length is an obstruction when some rotation
splits into blocks, each a prefix of the maximal vertex followed by a
letter strictly below the next letter of that prefix, such that raising
the trailing letter of any block always leaves the language. The decision
procedure computes both criteria and insists they agree.

Per-vertex data, with m the maximal vertex:
  overlap(u)      longest suffix of u that is a proper prefix of m; its length
                  is the state of the package's automaton of the word m after u
  overlap_next(u) the letter of m right after that prefix
  max_label(u)    label of u's maximum out-arc
  floor           overlap(u) is empty
  restricted      max_label(u) < overlap_next(u)

Everything here runs on the graph's vertex and arc ids and on integer
word ranks; words are made only for what is returned or printed. An
analysis is its graph, with each table made on first read and kept. The
max-arc cycles and the obstruction search share one cycle-finder on
functional graphs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import cached_property
from operator import sub
from typing import NamedTuple

from .errors import TheoremViolationError
from .graph import Arc, DeBruijnGraph
from .language import Language, Word, _automaton, _Frozen, decode_ranks, encode_word
from .walks import AvoidSet, _avoiding_ids, _exhaustion_times, _reserved_ids, minimal_walk


class MaxArcAnalysis(_Frozen):
    """The max-arc subgraph of a graph and each vertex's overlap data.

    The analysis is its graph, with each table on its vertex ids made on
    first read and kept: `_arc[v]`, the id of v's maximum out-arc, and
    `_state[v]`, the length of v's overlap, both -1 at the root, the last
    id; `_succ` and `_label`, the head and the label of v's max arc (-1 at
    the root); `_cycles`, the cycles of those arcs on ids, `cycles`, the
    same cycles as words, and the avoid set of the max arcs. A graph with
    a non-root vertex without out-arcs is refused at construction.
    `classify_vertex` reads one vertex's data by its word. An analysis
    cannot be changed, and is equal only to itself.
    """

    def __init__(self, graph: DeBruijnGraph) -> None:
        degrees = list(map(sub, graph.first[1:], graph.first))
        if 0 in degrees[:-1]:   # the root, the last id, may have none
            v = graph.word_of(degrees.index(0))
            raise ValueError(f"vertex {v} has no out-arc; graph is not analyzable")
        vars(self)["graph"] = graph

    def __repr__(self) -> str:
        return f"MaxArcAnalysis(graph={self.graph!r})"

    @cached_property
    def _arc(self) -> list[int]:
        return [f - 1 for f in self.graph.first[1:-1]] + [-1]

    @cached_property
    def _state(self) -> list[int]:
        return _overlap_states(self.graph)

    @property
    def root(self) -> Word:
        return self.graph.max_vertex

    @property
    def is_tree(self) -> bool:
        return not self._cycles

    @cached_property
    def cycles(self) -> tuple[tuple[Word, ...], ...]:   # each starts at its minimal vertex
        g = self.graph
        words = iter(decode_ranks([g.ranks[v] for cyc in self._cycles for v in cyc], g.alphabet.size, g.span))
        return tuple(tuple(next(words) for _ in cyc) for cyc in self._cycles)

    @cached_property
    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        # The root has no exit, so paths either reach it or wind into a
        # cycle. Ids follow word order, so the least id starts each cycle
        # and id tuples sort as the word tuples do. The successor map made
        # here is not kept: `check` reads only `_arc` and the cycles.
        cycles = []
        for cyc in _functional_cycles(_by_max_arc(self._arc, self.graph.heads)):
            i = cyc.index(min(cyc))
            cycles.append(tuple(cyc[i:] + cyc[:i]))
        return tuple(sorted(cycles))

    @cached_property
    def _succ(self) -> list[int]:
        return _by_max_arc(self._arc, self.graph.heads)

    @cached_property
    def _label(self) -> list[int]:
        return _by_max_arc(self._arc, self.graph.labels)

    @cached_property
    def _avoid(self) -> AvoidSet:
        return AvoidSet._of_ids(self.graph, self.root, self._arc, self)

    def avoid_set(self) -> AvoidSet:
        """The max arcs as an avoid set; the same one on every call."""
        return self._avoid


def _by_max_arc(arc: list[int], table: list[int]) -> list[int]:
    """The entry of an arc table at each vertex's max arc, by vertex id;
    -1 at the root."""
    out = [table[a] for a in arc]
    out[-1] = -1
    return out


class VertexClass(NamedTuple):
    overlap: Word
    overlap_next: int
    max_label: int
    is_floor: bool
    is_restricted: bool


class Obstruction(NamedTuple):
    """A word certifying the greedy walk cannot cover the graph.

    ``blocks`` concatenate to the rotation of ``word`` by ``rotation``
    places; each block is (prefix of the maximal vertex, letter)."""

    word: Word
    rotation: int
    blocks: tuple[tuple[Word, int], ...]


class Decision(NamedTuple):
    """The decision and both criteria. `analysis` is carried along for the
    verifiers and exports, but left out of equality, hashing and repr."""

    answer: bool
    via_tree: bool
    via_obstructions: bool
    cycles: tuple[tuple[Word, ...], ...]
    obstructions: tuple[Obstruction, ...]
    analysis: MaxArcAnalysis

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:5] != other[:5]

    def __hash__(self) -> int:
        return hash(self[:5])

    def __repr__(self) -> str:
        return (
            f"Decision(answer={self.answer!r}, via_tree={self.via_tree!r}, "
            f"via_obstructions={self.via_obstructions!r}, cycles={self.cycles!r}, "
            f"obstructions={self.obstructions!r})"
        )


class VerificationReport(NamedTuple):
    name: str
    checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _functional_cycles(succ: list[int]) -> list[list[int]]:
    """Cycles of the functional graph v -> succ[v] on ids, each in walk
    order; a negative successor ends a path. A walk that stops on a vertex
    it stamped itself has closed a cycle."""
    start = [-1] * len(succ)
    cycles: list[list[int]] = []
    for i in range(len(succ)):
        if start[i] >= 0:
            continue
        path: list[int] = []
        cur = i
        while cur >= 0 and start[cur] < 0:
            start[cur] = i
            path.append(cur)
            cur = succ[cur]
        if cur >= 0 and start[cur] == i:
            cycles.append(path[path.index(cur) :])
    return cycles


def _overlap_states(g: DeBruijnGraph) -> list[int]:
    """The state of the automaton of the maximal vertex m after each
    vertex's own letters, read from the start state, by id.

    On one word the automaton is the Knuth-Morris-Pratt matcher of m; only
    u == m reaches its dead state, -1, so the root's state is -1. A
    vertex's word is its high half then its low half, read as base-k
    digits of its rank. Each distinct high half is read once, and each
    distinct (state after the high half, low half) pair once, so vertices
    that share halves share the reading.
    """
    goto = _automaton(Language(g.alphabet, frozenset({g.max_vertex})))
    k, n = g.alphabet.size, g.span
    low = n // 2
    step = k ** low
    hi_places = [k ** i for i in range(n - low - 1, -1, -1)]
    lo_places = [k ** i for i in range(low - 1, -1, -1)]
    after_hi: dict[int, int] = {}
    after: dict[int, int] = {}   # by (state after the high half) * step + low half
    states = []
    for r in g.ranks:
        hi, lo = divmod(r, step)
        s = after_hi.get(hi)
        if s is None:
            s = 0
            for p in hi_places:
                s = goto[s][hi // p % k]
            after_hi[hi] = s
        key = s * step + lo
        t = after.get(key)
        if t is None:
            t = s
            for p in lo_places:
                t = goto[t][lo // p % k]
            after[key] = t
        states.append(t)
    return states


def analyze_max_arcs(g: DeBruijnGraph) -> MaxArcAnalysis:
    return MaxArcAnalysis(g)


def classify_vertex(t: MaxArcAnalysis, v: Word) -> VertexClass:
    i = t.graph._vertex_id(v)
    if i == len(t._arc) - 1:
        raise ValueError("the root has no classification")
    s, label = t._state[i], t.graph.labels[t._arc[i]]
    return VertexClass(
        overlap=t.root[:s],
        overlap_next=t.root[s],
        max_label=label,
        is_floor=not s,
        is_restricted=label < t.root[s],
    )


# ---------------------------------------------------------------------------
# Lemma-level verifiers. Each replays one structural fact over the whole
# graph and reports violations; all must come back empty.

def _ahead(t: MaxArcAnalysis, steps: int) -> list[int]:
    """The vertex each vertex reaches by `steps` max arcs, by id; -1 when
    its walk reaches the root in fewer steps.

    The `steps`-th power of the map v -> `t._succ[v]`, by repeated
    squaring. Index -1 reads the root's own entry, which is -1 in every
    power, so a walk that reaches the root early stays at -1.
    """
    out, power = list(range(len(t._succ))), t._succ
    while steps:
        if steps & 1:
            out = [power[v] for v in out]
        steps >>= 1
        if steps:
            power = [power[v] for v in power]
    return out


def verify_label_monotonicity(t: MaxArcAnalysis) -> VerificationReport:
    """Along any max-arc walk of span+2 steps, the first label never
    exceeds the label taken span+1 steps later."""
    g = t.graph
    length = g.span + 2
    label = t._label
    checks = 0
    violations = []
    # A walk that ends at the root within span+1 steps makes no check.
    for v, u in enumerate(_ahead(t, length - 1)):
        if u < 0 or label[u] < 0:
            continue
        checks += 1
        if label[v] > label[u]:
            violations.append(
                f"walk from {g.word_of(v)}: first label {label[v]} > label {label[u]} "
                f"at step {length}"
            )
    return VerificationReport("label-monotonicity", checks, tuple(violations))


def verify_cycle_structure(t: MaxArcAnalysis) -> VerificationReport:
    """Cycle facts: length divides span+1; for every cycle vertex u the
    word u plus its max label equals the loop label read from u's
    successor, repeated; restricted and floor counts agree per cycle."""
    n = t.graph.span
    label = t._label
    checks = 0
    violations = []
    for cyc, ids in zip(t.cycles, t._cycles):
        checks += 1
        if (n + 1) % len(cyc) != 0:
            violations.append(f"cycle {cyc}: length {len(cyc)} does not divide {n + 1}")
            continue
        reps = (n + 1) // len(cyc)
        loop = tuple(label[v] for v in ids)   # read from the cycle's first vertex
        for i, u in enumerate(cyc):
            expected = (loop[i + 1 :] + loop[: i + 1]) * reps
            if u + (loop[i],) != expected:
                violations.append(
                    f"cycle {cyc}: vertex {u} with label {loop[i]} "
                    f"is not the repeated loop label {expected}"
                )
        n_restricted = sum(1 for v in ids if label[v] < t.root[t._state[v]])
        n_floor = sum(1 for v in ids if not t._state[v])
        if n_restricted != n_floor:
            violations.append(
                f"cycle {cyc}: {n_restricted} restricted but {n_floor} floor vertices"
            )
    return VerificationReport("cycle-structure", checks, tuple(violations))


def verify_overlap_bounds(t: MaxArcAnalysis) -> VerificationReport:
    """Arc labels never exceed overlap_next of the tail; strictly smaller
    labels land on floor vertices, equal labels extend the overlap.

    overlap(u) is m[:state(u)], so the head's overlap extends the tail's
    by a label equal to overlap_next exactly when the head's state is one
    more than the tail's."""
    g = t.graph
    m, state = t.root, t._state
    first, heads, labels = g.first, g.heads, g.labels
    top = len(state) - 1   # the root, whose arcs come last
    checks = 0
    violations = []
    for v in range(top):
        s = state[v]
        cap = m[s]
        for i in range(first[v], first[v + 1]):
            checks += 1
            x, h = labels[i], heads[i]
            if x > cap:
                violations.append(f"arc {_arc_at(g, v, i)}: label exceeds bound {cap}")
                continue
            if h == top:
                continue
            if x < cap and state[h]:
                violations.append(f"arc {_arc_at(g, v, i)}: low label but head overlap is nonempty")
            if x == cap and state[h] != s + 1:
                violations.append(f"arc {_arc_at(g, v, i)}: head overlap does not extend tail overlap")
    return VerificationReport("overlap-bounds", checks, tuple(violations))


def _arc_at(g: DeBruijnGraph, v: int, i: int) -> Arc:
    """Arc id i, out of vertex id v, as an `Arc`."""
    return Arc(g.word_of(v), g.labels[i], g.word_of(g.heads[i]))


def verify_floor_paths(t: MaxArcAnalysis) -> VerificationReport:
    """Max-arc paths from a floor vertex through unrestricted interior
    vertices spell exactly the overlap of their endpoint.

    overlap(u) is m[:state(u)], so a path's label equals it exactly when
    the label is still a prefix of m and its length is u's state: one
    comparison per step."""
    g = t.graph
    m, state, succ, label = t.root, t._state, t._succ, t._label
    n = len(m)
    top = len(state) - 1   # the root
    seen = [-1] * len(state)   # the floor vertex whose path last met each vertex
    checks = 0
    violations = []
    for f in range(top):   # ids follow word order
        if state[f]:
            continue
        seen[f] = f
        spelled: list[int] = []
        prefix = True   # spelled == m[:len(spelled)]
        cur = f
        while True:
            if cur != top and not (prefix and state[cur] == len(spelled)):
                violations.append(
                    f"path from {g.word_of(f)} to {g.word_of(cur)}: label {tuple(spelled)} "
                    f"!= overlap {m[: state[cur]]}"
                )
            checks += 1
            # The endpoint becomes an interior vertex on the next step, so
            # stop extending at the root or at a restricted vertex.
            x = label[cur]
            if cur == top or x < m[state[cur]]:
                break
            prefix = prefix and len(spelled) < n and x == m[len(spelled)]
            spelled.append(x)
            cur = succ[cur]
            if seen[cur] == f:
                break
            seen[cur] = f
    return VerificationReport("floor-paths", checks, tuple(violations))


def check_cycle_label_blocks(t: MaxArcAnalysis, cycle: tuple[Word, ...]) -> VerificationReport:
    """Restricted vertices of a cycle are spelled by each other's data:
    going around from a restricted vertex, the overlap/max-label pairs of
    the following restricted vertices concatenate to one loop label, and
    its repetitions reproduce the vertex itself."""
    ids = tuple(map(t.graph.id_of, cycle)) if isinstance(cycle, Sequence) else None
    if ids not in t._cycles:
        raise ValueError("not a cycle of this analysis")
    cycle = t.cycles[t._cycles.index(ids)]
    n = t.graph.span
    m, state = t.root, t._state
    label = t._label
    rest = [(u, v) for u, v in zip(cycle, ids) if label[v] < m[state[v]]]
    if not rest:
        return VerificationReport(
            "cycle-label-blocks", 1, (f"cycle {cycle} has no restricted vertex",)
        )
    reps = (n + 1) // len(cycle)
    k = len(rest)
    checks = 0
    violations = []
    for i, (u, v) in enumerate(rest):
        checks += 1
        loop: list[int] = []
        for j in range(1, k + 1):
            w = rest[(i + j) % k][1]
            loop.extend(m[: state[w]] + (label[w],))
        if len(loop) != len(cycle):
            violations.append(
                f"cycle {cycle}: blocks after {u} spell {len(loop)} letters, "
                f"cycle has {len(cycle)}"
            )
            continue
        if tuple(loop) * reps != u + (label[v],):
            violations.append(f"cycle {cycle}: block spelling mismatch at {u}")
    return VerificationReport("cycle-label-blocks", checks, tuple(violations))


def verify_exhaustion_order(g: DeBruijnGraph, avoid: AvoidSet) -> VerificationReport:
    """When the avoiding walk exhausts a vertex v that is not on a reserved
    cycle, everything that drains into v through reserved arcs is already
    exhausted.

    Off the cycles the reserved arcs form a forest, and u drains into the
    vertices above it. One pass down the forest keeps, per vertex, how
    many vertices at or above it are exhausted and the earliest of their
    times, so each vertex is visited once. A vertex makes one check per
    exhausted vertex above it, and a violation when it is exhausted later
    than the earliest of them, or never. An analysis's avoid set is read
    through that analysis's max-arc map and cycles.
    """
    root, arc = _reserved_ids(g, avoid)
    never = len(g.heads) + 1   # later than any exhaustion time
    time = [t if t >= 0 else never for t in _exhaustion_times(g, _avoiding_ids(g, root, arc))]
    analysis = avoid._analysis if avoid._graph is g else None
    if analysis is None:
        heads = g.heads
        succ = [heads[a] if a >= 0 else -1 for a in arc]
        cycles = _functional_cycles(succ)
    else:   # the max arcs, whose map and cycles the analysis has
        succ, cycles = analysis._succ, analysis._cycles
    on_cycle = [False] * len(arc)
    for cyc in cycles:
        for v in cyc:
            on_cycle[v] = True
    parent = [
        -1 if h < 0 or on_cycle[v] or on_cycle[h] else h for v, h in enumerate(succ)
    ]
    # count[v]: exhausted vertices among v and the vertices above it, -1
    # until v is passed; earliest[v]: the earliest time among them.
    count = [-1] * len(arc)
    earliest = [never] * len(arc)
    checks = 0
    late_vertices = []
    for u in range(len(arc)):
        if count[u] >= 0:
            continue
        path = []
        v = u
        while v >= 0 and count[v] < 0:
            path.append(v)
            v = parent[v]
        c, e = (0, never) if v < 0 else (count[v], earliest[v])
        for w in reversed(path):   # down from the top
            t = time[w]
            checks += c
            if c and t > e:
                late_vertices.append(w)
            if t < never:
                c += 1
                e = min(e, t)
            count[w] = c
            earliest[w] = e
    late = []
    for u in late_vertices:
        t = time[u]
        v = parent[u]
        while v >= 0:
            if time[v] < never and t > time[v]:
                late.append((v, u))
            v = parent[v]
    late.sort()   # ids follow word order
    violations = [
        f"{g.word_of(v)} exhausted at {time[v]} but upstream {g.word_of(u)} at "
        f"{time[u] if time[u] < never else None}"
        for v, u in late
    ]
    return VerificationReport("exhaustion-order", checks, tuple(violations))


# ---------------------------------------------------------------------------
# Independent criterion: obstruction words.

def enumerate_obstructions(g: DeBruijnGraph) -> tuple[Obstruction, ...]:
    """All arc words admitting an obstruction decomposition on some
    rotation, with one witness each.

    Splits rotations into blocks on word ranks, independent of the max-arc
    subgraph. With L = span+1, a block may end at letter p of a circular
    word when no larger letter there stays in the language: when the
    rotation that starts at letter p+1, whose label is letter p, is its
    tail's top out-arc or has a larger label (a block-end word). Its tail
    is the L-1 letters after the block, so it is the rotation that starts
    the next block, and every split starts at a block-end word. From one,
    c, whose tail t is below the maximal vertex m, the only block is
    b = lcp(t, m) + 1 letters long, the number of thresholds
    `m // k**(n-s) * k**(n-s)` at or below t, and the next block end is c
    rotated by b places. So the search is one functional graph: node v is
    vertex v's top out-arc, and a graph whose arc words are not closed
    under rotation adds, as later nodes, the rotations of its arc words
    that are no arc word and may end a block. A rotation splits exactly
    when its node lies on a cycle whose block lengths sum to a divisor of
    L (the word repeats with that period); the witness of a class is its
    least rank on such cycles, and only obstructed classes are expanded
    into their arc words.

    Nodes come in ascending rank, so b is fixed on n runs of them. On the
    b = 1 run the successor is the head of the top arc, searched for by
    rank only when it is not the shift; the other runs and the extra nodes
    take one rank search per node.
    """
    k, n = g.alphabet.size, g.span
    ranks, first, labels = g.ranks, g.first, g.labels
    vertices, m = len(ranks), ranks[-1]
    floors = [m // k ** (n - s) * k ** (n - s) for s in range(n)]
    # Rotating c by b places gives c % low[b] * high[b] + c // low[b].
    low = [k ** (n + 1 - b) for b in range(n + 1)]
    high = [k ** b for b in range(n + 1)]
    size = k ** n

    def out_labels(t: int) -> list[int]:
        """The out-labels of the vertex of rank t; none when t is no vertex."""
        v = bisect_left(ranks, t)
        return labels[first[v] : first[v + 1]] if v < vertices and ranks[v] == t else []

    ends = [r * k + labels[f - 1] if e < f else -1 for r, e, f in zip(ranks, first, first[1:])]
    extra: list[int] = []   # ascending; node vertices + j is extra[j]
    if not g.rotation_closed:
        for v, r in enumerate(ranks):
            for x in labels[first[v] : first[v + 1]]:
                d = r * k + x
                for _ in range(n):
                    d = d % size * k + d // size
                    out = out_labels(d // k)
                    if not out or out[-1] < d % k:
                        extra.append(d)
        extra = sorted(set(extra))
        ends += extra
    succ = [-1] * len(ends)

    def extra_node(d: int) -> int:
        """The extra node of word d, or -1."""
        j = bisect_left(extra, d)
        return vertices + j if j < len(extra) and extra[j] == d else -1

    # Run b holds the tails from floors[b - 1] up to the next floor, or up
    # to m: the vertices from cut[b - 1] to cut[b], and likewise the extra
    # nodes. The vertices' b = 1 run goes by heads, below.
    cut = [0, *[bisect_left(ranks, f) for f in floors[1:]], vertices - 1]
    runs = [(b, range(cut[b - 1], cut[b])) for b in range(2, n + 1)]
    if extra:
        cut_extra = [bisect_left(extra, f * k) + vertices for f in [*floors, m]]
        runs += [(b, range(cut_extra[b - 1], cut_extra[b])) for b in range(1, n + 1)]
    heads = g.heads
    for v in range(cut[1]):
        c = ends[v]
        if c < 0:
            continue
        d = c % size * k + c // size
        h = heads[first[v + 1] - 1]
        if ends[h] == d:
            succ[v] = h
            continue
        if ranks[h] != d // k:
            h = bisect_left(ranks, d // k)
            if h < vertices and ends[h] == d:
                succ[v] = h
                continue
        if extra:
            succ[v] = extra_node(d)
    for b, nodes in runs:
        lo, hi = low[b], high[b]
        for i in nodes:
            c = ends[i]
            if c < 0:
                continue
            d = c % lo * hi + c // lo
            v = bisect_left(ranks, d // k)
            if v < vertices and ends[v] == d:
                succ[i] = v
            elif extra:
                succ[i] = extra_node(d)
    word = g.max_vertex
    classes = []   # (least rank of the class, rotations from its witness on, blocks)
    for cyc in _functional_cycles(succ):
        lengths = [bisect_right(floors, ends[i] // k) for i in cyc]
        if (n + 1) % sum(lengths):
            continue
        j = cyc.index(min(cyc, key=ends.__getitem__))
        blocks = tuple(
            (word[: b - 1], ends[i] // low[b] % k)
            for i, b in zip(cyc[j:] + cyc[:j], lengths[j:] + lengths[:j])
        ) * ((n + 1) // sum(lengths))
        rots = [ends[cyc[j]]]
        for _ in range(n):
            rots.append(rots[-1] % size * k + rots[-1] // size)
        classes.append((min(rots), rots, blocks))
    classes.sort()
    found = []
    for i, (least, rots, blocks) in enumerate(classes):
        if i and classes[i - 1][0] == least:
            continue   # another cycle of the class, with a larger witness
        period = (rots + rots[:1]).index(rots[0], 1)   # the witness's first repeat
        found += [
            (c, -r % period, blocks) for r, c in enumerate(rots[:period])
            if c % k in out_labels(c // k)
        ]
    found.sort()
    words = decode_ranks([c for c, _, _ in found], k, n + 1)
    return tuple(
        Obstruction(word=w, rotation=rotation, blocks=blocks)
        for w, (_, rotation, blocks) in zip(words, found)
    )


def decide_minimal_is_eulerian(g: DeBruijnGraph) -> Decision:
    """Decide whether the greedy minimal walk covers the graph, by the two
    independent criteria; a disagreement is raised, never masked."""
    t = analyze_max_arcs(g)
    obstructions = enumerate_obstructions(g)
    via_tree = t.is_tree
    via_obstructions = not obstructions
    if via_tree != via_obstructions:
        raise TheoremViolationError(
            f"criteria disagree: tree={via_tree} obstructions={not via_obstructions} "
            f"(cycles={t.cycles}, words={[o.word for o in obstructions]})"
        )
    return Decision(
        answer=via_tree,
        via_tree=via_tree,
        via_obstructions=via_obstructions,
        cycles=t.cycles,
        obstructions=obstructions,
        analysis=t,
    )


def verify_greedy_decision(decision: Decision) -> VerificationReport:
    """Three-way agreement: subgraph cycles, obstruction words, and the
    greedy walk itself, plus the cross-identifications between cycles and
    obstruction words."""
    t = decision.analysis
    g = t.graph
    checks = 1
    violations = []
    walk = minimal_walk(g)
    if walk.is_eulerian(g) != decision.answer:
        violations.append(
            f"decision {decision.answer} but greedy walk eulerian={walk.is_eulerian(g)}"
        )
    label = t._label
    obstruction_words = {o.word for o in decision.obstructions}
    for cyc, ids in zip(t.cycles, t._cycles):
        divides = (g.span + 1) % len(cyc) == 0
        for u, v in zip(cyc, ids):
            checks += 1
            if not divides or u + (label[v],) not in obstruction_words:
                violations.append(f"cycle word for {u} missing from obstructions")
    # Each rotation, as a rank c, must be the max arc of its tail c // k,
    # with label c % k and head c % k**n; the root's label is -1.
    k = g.alphabet.size
    size = k ** g.span
    ranks, succ = g.ranks, t._succ
    for o in decision.obstructions:
        w = o.word
        c = encode_word(w, k)
        for r in range(len(w)):
            checks += 1
            v = bisect_left(ranks, c // k)
            if (
                v == len(ranks) or ranks[v] != c // k
                or label[v] != c % k or ranks[succ[v]] != c % size
            ):
                violations.append(
                    f"obstruction {w}: rotation {w[r:] + w[:r]} is not a max-arc of the graph"
                )
            c = (c % size) * k + c // size
    return VerificationReport("greedy-decision", checks, tuple(violations))


def analysis_to_json(decision: Decision) -> dict:
    """Full analysis record: per-vertex table, cycles, obstructions and the
    decision with both criteria."""
    t = decision.analysis
    g = t.graph
    alpha, root, label = g.alphabet, t.root, t._label
    names = [alpha.text(v) for v in decode_ranks(g.ranks, alpha.size, g.span)]
    overlaps = [alpha.text(root[:s]) for s in range(len(root))]
    return {
        "root": alpha.text(root),
        "vertices": [   # the root, the last id, is left out
            {
                "label": name,
                "overlap": overlaps[s],
                "overlapNext": alpha.symbols[root[s]],
                "maxLabel": alpha.symbols[x],
                "floor": not s,
                "restricted": x < root[s],
            }
            for name, s, x in zip(names[:-1], t._state, label)
        ],
        "cycles": [
            {
                "vertices": [names[v] for v in cyc],
                "label": alpha.text([label[v] for v in cyc]),
            }
            for cyc in t._cycles
        ],
        "obstructions": [
            {
                "word": alpha.text(o.word),
                "rotation": o.rotation,
                "blocks": [
                    {"prefix": alpha.text(h), "letter": alpha.symbols[b]}
                    for h, b in o.blocks
                ],
            }
            for o in decision.obstructions
        ],
        "decision": {
            "answer": decision.answer,
            "viaTree": decision.via_tree,
            "viaObstructions": decision.via_obstructions,
        },
    }
