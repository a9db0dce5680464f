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

The max-arc cycles come from one pass that stamps each vertex with the walk
that first reached it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import TheoremViolationError
from .graph import Arc, DeBruijnGraph
from .language import Language, Word, _automaton
from .walks import AvoidSet, exhaustion_order, minimal_walk, walk_avoiding


@dataclass(frozen=True, eq=False)
class MaxArcAnalysis:
    graph: DeBruijnGraph
    root: Word
    max_arc: dict[Word, Arc]        # v != root -> maximum-label out-arc
    overlap: dict[Word, Word]
    overlap_next: dict[Word, int]
    max_label: dict[Word, int]
    floor: frozenset[Word]
    restricted: frozenset[Word]
    cycles: tuple[tuple[Word, ...], ...]   # each starts at its minimal vertex
    is_tree: bool

    def avoid_set(self) -> AvoidSet:
        return AvoidSet(root=self.root, arc_by_vertex=self.max_arc)


@dataclass(frozen=True)
class VertexClass:
    overlap: Word
    overlap_next: int
    max_label: int
    is_floor: bool
    is_restricted: bool


@dataclass(frozen=True)
class Obstruction:
    """A word certifying the greedy walk cannot cover the graph.

    ``blocks`` concatenate to the rotation of ``word`` by ``rotation``
    places; each block is (prefix of the maximal vertex, letter)."""

    word: Word
    rotation: int
    blocks: tuple[tuple[Word, int], ...]


@dataclass(frozen=True)
class Decision:
    answer: bool
    via_tree: bool
    via_obstructions: bool
    cycles: tuple[tuple[Word, ...], ...]
    obstructions: tuple[Obstruction, ...]
    analysis: MaxArcAnalysis = field(compare=False, repr=False)


@dataclass(frozen=True)
class VerificationReport:
    name: str
    checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _functional_cycles(
    vertices: tuple[Word, ...], exit_arc: Mapping[Word, Arc]
) -> list[list[Word]]:
    """Cycles of the functional graph v -> exit_arc[v].head, each in walk
    order; vertices without an exit arc end their paths. A walk that stops
    on a vertex it stamped itself has closed a cycle."""
    start: dict[Word, int] = {}
    cycles: list[list[Word]] = []
    for i, v in enumerate(vertices):
        path: list[Word] = []
        cur: Word | None = v
        while cur is not None and cur not in start:
            start[cur] = i
            path.append(cur)
            arc = exit_arc.get(cur)
            cur = None if arc is None else arc.head
        if cur is not None and start[cur] == i:
            cycles.append(path[path.index(cur) :])
    return cycles


def analyze_max_arcs(g: DeBruijnGraph) -> MaxArcAnalysis:
    root = g.max_vertex
    # On one word the automaton is the Knuth-Morris-Pratt matcher of m; only
    # u == m would reach its dead state.
    goto = _automaton(Language(g.alphabet, frozenset({root})))
    prefixes = [root[:s] for s in range(len(root))]
    max_arc: dict[Word, Arc] = {}
    overlap: dict[Word, Word] = {}
    overlap_next: dict[Word, int] = {}
    max_label: dict[Word, int] = {}
    for v in g.vertices:
        if v == root:
            continue
        arcs = g.out_arcs(v)
        if not arcs:
            raise ValueError(f"vertex {v} has no out-arc; graph is not analyzable")
        max_arc[v] = arcs[-1]
        max_label[v] = arcs[-1].label
        s = 0
        for a in v:
            s = goto[s][a]
        overlap[v] = prefixes[s]
        overlap_next[v] = root[s]
    floor = frozenset(v for v, ov in overlap.items() if not ov)
    restricted = frozenset(v for v in max_arc if max_label[v] < overlap_next[v])

    # The root has no exit, so paths either reach it or wind into a cycle.
    cycles = []
    for cyc in _functional_cycles(g.vertices, max_arc):
        k = cyc.index(min(cyc))
        cycles.append(tuple(cyc[k:] + cyc[:k]))
    cycles.sort()
    return MaxArcAnalysis(
        graph=g,
        root=root,
        max_arc=max_arc,
        overlap=overlap,
        overlap_next=overlap_next,
        max_label=max_label,
        floor=floor,
        restricted=restricted,
        cycles=tuple(cycles),
        is_tree=not cycles,
    )


def classify_vertex(t: MaxArcAnalysis, v: Word) -> VertexClass:
    if v == t.root:
        raise ValueError("the root has no classification")
    if v not in t.max_arc:
        raise ValueError(f"vertex {v} is not in the graph")
    return VertexClass(
        overlap=t.overlap[v],
        overlap_next=t.overlap_next[v],
        max_label=t.max_label[v],
        is_floor=v in t.floor,
        is_restricted=v in t.restricted,
    )


# ---------------------------------------------------------------------------
# Lemma-level verifiers. Each replays one structural fact over the whole
# graph and reports violations; all must come back empty.

def _max_arc_labels(t: MaxArcAnalysis, start: Word, k: int) -> Word:
    """Labels of the first k max arcs on the walk from start; fewer when
    the walk reaches the root first."""
    labels = []
    cur = start
    for _ in range(k):
        arc = t.max_arc.get(cur)
        if arc is None:
            break
        labels.append(arc.label)
        cur = arc.head
    return tuple(labels)


def verify_label_monotonicity(t: MaxArcAnalysis) -> VerificationReport:
    """Along any max-arc walk of span+2 steps, the first label never
    exceeds the label taken span+1 steps later."""
    g = t.graph
    length = g.span + 2
    checks = 0
    violations = []
    for v in g.vertices:
        labels = _max_arc_labels(t, v, length)
        if len(labels) < length:
            continue
        checks += 1
        if labels[0] > labels[-1]:
            violations.append(
                f"walk from {v}: first label {labels[0]} > label {labels[-1]} "
                f"at step {length}"
            )
    return VerificationReport("label-monotonicity", checks, tuple(violations))


def verify_cycle_structure(t: MaxArcAnalysis) -> VerificationReport:
    """Cycle facts: length divides span+1; for every cycle vertex u the
    word u plus its max label equals the loop label read from u's
    successor, repeated; restricted and floor counts agree per cycle."""
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
            succ = t.max_arc[u].head
            expected = _max_arc_labels(t, succ, len(cyc)) * reps
            if u + (t.max_label[u],) != expected:
                violations.append(
                    f"cycle {cyc}: vertex {u} with label {t.max_label[u]} "
                    f"is not the repeated loop label {expected}"
                )
        n_restricted = sum(1 for u in cyc if u in t.restricted)
        n_floor = sum(1 for u in cyc if u in t.floor)
        if n_restricted != n_floor:
            violations.append(
                f"cycle {cyc}: {n_restricted} restricted but {n_floor} floor vertices"
            )
    return VerificationReport("cycle-structure", checks, tuple(violations))


def verify_overlap_bounds(t: MaxArcAnalysis) -> VerificationReport:
    """Arc labels never exceed overlap_next of the tail; strictly smaller
    labels land on floor vertices, equal labels extend the overlap."""
    g = t.graph
    root = t.root
    checks = 0
    violations = []
    for a in g.arcs:
        if a.tail == root:
            continue
        checks += 1
        cap = t.overlap_next[a.tail]
        if a.label > cap:
            violations.append(f"arc {a}: label exceeds bound {cap}")
            continue
        if a.head == root:
            continue
        if a.label < cap and t.overlap[a.head] != ():
            violations.append(f"arc {a}: low label but head overlap is nonempty")
        if a.label == cap and t.overlap[a.head] != t.overlap[a.tail] + (a.label,):
            violations.append(f"arc {a}: head overlap does not extend tail overlap")
    return VerificationReport("overlap-bounds", checks, tuple(violations))


def verify_floor_paths(t: MaxArcAnalysis) -> VerificationReport:
    """Max-arc paths from a floor vertex through unrestricted interior
    vertices spell exactly the overlap of their endpoint."""
    checks = 0
    violations = []
    for f in sorted(t.floor):
        labels: list[int] = []
        visited = {f}
        cur = f
        while True:
            if cur != t.root and tuple(labels) != t.overlap[cur]:
                violations.append(
                    f"path from {f} to {cur}: label {tuple(labels)} != overlap "
                    f"{t.overlap[cur]}"
                )
            checks += 1
            # The endpoint becomes an interior vertex on the next step, so
            # stop extending at the root or at a restricted vertex.
            if cur == t.root or cur in t.restricted:
                break
            arc = t.max_arc[cur]
            labels.append(arc.label)
            cur = arc.head
            if cur in visited:
                break
            visited.add(cur)
    return VerificationReport("floor-paths", checks, tuple(violations))


def check_cycle_label_blocks(t: MaxArcAnalysis, cycle: tuple[Word, ...]) -> VerificationReport:
    """Restricted vertices of a cycle are spelled by each other's data:
    going around from a restricted vertex, the overlap/max-label pairs of
    the following restricted vertices concatenate to one loop label, and
    its repetitions reproduce the vertex itself."""
    if cycle not in t.cycles:
        raise ValueError("not a cycle of this analysis")
    n = t.graph.span
    rest = [u for u in cycle if u in t.restricted]
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
            w = rest[(i + j) % k]
            loop.extend(t.overlap[w] + (t.max_label[w],))
        if len(loop) != len(cycle):
            violations.append(
                f"cycle {cycle}: blocks after {u} spell {len(loop)} letters, "
                f"cycle has {len(cycle)}"
            )
            continue
        if tuple(loop) * reps != u + (t.max_label[u],):
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
    than the earliest of them, or never. Only for such a vertex is its
    path up walked again, to name the vertices it is late for.
    """
    walk = walk_avoiding(g, avoid)
    order = exhaustion_order(walk, g)
    reserved = avoid.arc_by_vertex
    on_cycle = {v for cyc in _functional_cycles(g.vertices, reserved) for v in cyc}
    parent = {
        v: a.head for v, a in reserved.items()
        if v not in on_cycle and a.head not in on_cycle
    }
    never = len(g.arcs) + 1   # later than any exhaustion time
    # above[v]: (exhausted vertices among v and the vertices above it,
    # the earliest time among them)
    above: dict[Word, tuple[int, int]] = {}
    checks = 0
    late_vertices = []
    for u in g.vertices:
        path = []
        v: Word | None = u
        while v is not None and v not in above:
            path.append(v)
            v = parent.get(v)
        count, earliest = (0, never) if v is None else above[v]
        for w in reversed(path):   # down from the top
            t = order.get(w)
            checks += count
            if count and (t is None or t > earliest):
                late_vertices.append(w)
            if t is not None:
                count += 1
                earliest = min(earliest, t)
            above[w] = (count, earliest)
    late = []
    for u in late_vertices:
        t = order.get(u)
        v = parent.get(u)
        while v is not None:
            tv = order.get(v)
            if tv is not None and (t is None or t > tv):
                late.append((v, u))
            v = parent.get(v)
    violations = [
        f"{v} exhausted at {order[v]} but upstream {u} at {order.get(u)}"
        for v, u in sorted(late)
    ]
    return VerificationReport("exhaustion-order", checks, tuple(violations))


# ---------------------------------------------------------------------------
# Independent criterion: obstruction words.

def _split_blocks(w: Word, g: DeBruijnGraph) -> tuple[tuple[Word, int], ...] | None:
    """The block decomposition of w, or None when w has none or a block's
    letter can be raised without leaving the language.

    A block is a proper prefix of the maximal vertex m followed by a letter
    below m's next letter, so from each position the only candidate block
    ends at the first letter where w departs from m: the decomposition is
    a parse.
    """
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


def enumerate_obstructions(g: DeBruijnGraph) -> tuple[Obstruction, ...]:
    """All arc words admitting an obstruction decomposition on some
    rotation, with one witness each.

    Parses each rotation into blocks, independent of the max-arc subgraph.
    The outcome depends only on a word's rotation class, so one table maps
    every rotation of each class seen to the class's witness, or to None.
    """
    witness: dict[Word, tuple[Word, tuple[tuple[Word, int], ...]] | None] = {}
    out: list[Obstruction] = []
    for a in g.arcs:   # sorted by (tail, label), so words come out in order
        w = a.tail + (a.label,)
        if w not in witness:
            rots = [w[r:] + w[:r] for r in range(len(w))]
            hit = None
            for cand in sorted(set(rots)):
                blocks = _split_blocks(cand, g)
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
    obstruction_words = {o.word for o in decision.obstructions}
    for cyc in t.cycles:
        divides = (g.span + 1) % len(cyc) == 0
        for u in cyc:
            checks += 1
            if not divides or u + (t.max_label[u],) not in obstruction_words:
                violations.append(f"cycle word for {u} missing from obstructions")
    for o in decision.obstructions:
        w = o.word
        for r in range(len(w)):
            rot = w[r:] + w[:r]
            checks += 1
            if t.max_arc.get(rot[:-1]) != (rot[:-1], rot[-1], rot[1:]):
                violations.append(
                    f"obstruction {w}: rotation {rot} is not a max-arc of the graph"
                )
    return VerificationReport("greedy-decision", checks, tuple(violations))


def analysis_to_json(decision: Decision) -> dict:
    """Full analysis record: per-vertex table, cycles, obstructions and the
    decision with both criteria."""
    t = decision.analysis
    g = t.graph
    alpha = g.alphabet
    return {
        "root": alpha.text(t.root),
        "vertices": [
            {
                "label": alpha.text(v),
                "overlap": alpha.text(t.overlap[v]),
                "overlapNext": alpha.symbols[t.overlap_next[v]],
                "maxLabel": alpha.symbols[t.max_label[v]],
                "floor": v in t.floor,
                "restricted": v in t.restricted,
            }
            for v in g.vertices
            if v != t.root
        ],
        "cycles": [
            {
                "vertices": [alpha.text(v) for v in cyc],
                "label": alpha.text(_max_arc_labels(t, cyc[0], len(cyc))),
            }
            for cyc in t.cycles
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
