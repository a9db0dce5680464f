import copy
import pickle
import random
import re
from collections import Counter

import pytest

from debruijn_sft import (
    AmbiguousComponentError,
    Arc,
    AvoidSet,
    DeBruijnGraph,
    EmptyGraphError,
    Language,
    NotEulerianError,
    Walk,
    analyze_max_arcs,
    arc_to_word,
    build_graph,
    check_avoid_set,
    count_eulerian_cycles,
    decide_minimal_is_eulerian,
    enumerate_words,
    eulerian_cycle,
    exhaustion_order,
    graph_from_arcs,
    graph_from_json,
    graph_to_json,
    minimal_walk,
    verify_exhaustion_order,
    walk_avoiding,
    walk_label_target,
    walk_to_json,
    word_to_arc,
)
from debruijn_sft.cli import main
from debruijn_sft.language import Alphabet

from corpus import (
    ALL_INSTANCES,
    IRREDUCIBLE_INSTANCES,
    avoid_sets,
    cyclic_windows,
    graph_of,
    language_of,
    nested_cycles_graph,
    oracle_eulerian_cycle,
    oracle_greedy_walk,
    random_balanced_graphs,
    random_hand_built_graphs,
    random_instances,
)

BINARY = Alphabet.from_text("01")
TERNARY = Alphabet.from_text("012")


def loops_graph():
    # One vertex, two self-loops labeled 0 and 1 (plain labeled digraph,
    # no suffix law).
    return graph_from_arcs(1, BINARY, [Arc((0,), 0, (0,)), Arc((0,), 1, (0,))])


def unbalanced_graph():
    # Two vertices, two arcs one way and one back.
    return graph_from_arcs(1, BINARY, [
        Arc((0,), 0, (1,)),
        Arc((0,), 1, (1,)),
        Arc((1,), 0, (0,)),
    ])


def test_eulerian_cycle_covers_golden5():
    lang = Language.from_text("01", ("11",))
    g = build_graph(lang, 5)
    walk = eulerian_cycle(g, g.max_vertex)
    assert walk.is_eulerian(g)
    assert len(walk.steps) == 18
    assert cyclic_windows(walk.label, 6) == sorted(enumerate_words(lang, 6))


def test_eulerian_cycle_on_corpus_covers_all_words():
    for spec in IRREDUCIBLE_INSTANCES:
        g = graph_of(spec)
        walk = eulerian_cycle(g, g.max_vertex)
        assert walk.is_eulerian(g), spec
        words = enumerate_words(language_of(spec), spec[2] + 1)
        assert cyclic_windows(walk.label, spec[2] + 1) == sorted(words), spec


def test_eulerian_cycle_start_choice():
    g = build_graph(Language.from_text("01"), 3)
    for start in g.vertices:
        walk = eulerian_cycle(g, start)
        assert walk.start == start
        assert walk.is_eulerian(g)


def test_eulerian_cycle_self_loops():
    g = loops_graph()
    walk = eulerian_cycle(g, (0,))
    assert walk.label == (0, 1)


def test_eulerian_cycle_unbalanced_raises():
    with pytest.raises(NotEulerianError):
        eulerian_cycle(unbalanced_graph(), (0,))


def test_eulerian_cycle_disconnected_raises():
    # Two separate balanced loops: balance holds, connectivity fails.
    g = graph_from_arcs(1, TERNARY, [
        Arc((0,), 1, (1,)),
        Arc((1,), 0, (0,)),
        Arc((2,), 2, (2,)),
    ])
    with pytest.raises(NotEulerianError):
        eulerian_cycle(g, (0,))


def same_circuit_as_oracle(g, start):
    """eulerian_cycle from `start` equals the reference splice, or raises
    the reference's error with the same message."""
    try:
        want = oracle_eulerian_cycle(g, start)
    except NotEulerianError as exc:
        with pytest.raises(NotEulerianError, match=f"^{re.escape(str(exc))}$"):
            eulerian_cycle(g, start)
        return str(exc).split()[0]
    got = eulerian_cycle(g, start)
    assert got == want
    assert got.label == want.label and got.end == want.end == start
    assert got.is_eulerian(g)
    return "circuit"


def test_eulerian_cycle_matches_reference_on_hand_built_graphs():
    # Random labels and heads that are not shifts, self-loops, closed walks
    # that revisit vertices, and disconnected graphs; then random arcs,
    # which are mostly unbalanced.
    seen = Counter()
    balanced = random_balanced_graphs(400, seed=3)
    for g in balanced:
        for start in g.vertices:
            seen[same_circuit_as_oracle(g, start)] += 1
    for g in random_hand_built_graphs(300, seed=4):
        seen[same_circuit_as_oracle(g, g.vertices[0])] += 1
    assert len(balanced) >= 300
    assert sum(any(a.tail == a.head for a in g.arcs) for g in balanced) > 100
    assert seen["circuit"] > 500 and seen["only"] > 100 and seen["vertex"] > 100, seen


def test_eulerian_cycle_splices_deeply_nested_subcycles():
    # Each subcycle is spliced inside the one before it, 2,000 deep, past
    # the default recursion limit.
    g = nested_cycles_graph(2000)
    walk = eulerian_cycle(g, g.vertices[0])
    assert walk.label == (1,) * 2000 + (0,) * 2000
    assert walk == oracle_eulerian_cycle(g, g.vertices[0])


def test_eulerian_cycle_rejects_a_start_outside_the_graph():
    g = build_graph(Language.from_text("01", ("11",)), 3)
    for start in [(1, 1, 1), (0, 0), (0, 0, 0, 0), (0, 2, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"vertex {start} is not in the graph")):
            eulerian_cycle(g, start)


def test_walks_are_immutable_values():
    g = build_graph(Language.from_text("01", ("11",)), 4)
    walks = [minimal_walk(g), eulerian_cycle(g, g.max_vertex), Walk(g.max_vertex, g.out_arcs(g.max_vertex))]
    for walk in walks:
        for twin in (copy.copy(walk), copy.deepcopy(walk), pickle.loads(pickle.dumps(walk))):
            assert twin == walk and hash(twin) == hash(walk)
            assert (twin.label, twin.end, twin.is_eulerian(g)) == (walk.label, walk.end, walk.is_eulerian(g))
        assert repr(walk) == f"Walk(start={walk.start!r}, steps={walk.steps!r})"
        with pytest.raises(AttributeError):
            walk.start = (0, 0, 0, 0)
        # Each value is made once: a second read gives the same object.
        for name in ("steps", "label", "end"):
            assert getattr(walk, name) is getattr(walk, name), name
    assert walks[0] != walks[2] and walks[0] != (walks[0].start, walks[0].steps)
    # Steps given as plain (tail, label, head) tuples make the same walk.
    plain = Walk(walks[1].start, [tuple(a) for a in walks[1].steps])
    assert plain == walks[1] and (plain.label, plain.end) == (walks[1].label, walks[1].end)


def test_hand_made_walk_is_eulerian_only_when_it_chains_through_the_graph():
    g = build_graph(Language.from_text("01", ("11",)), 3)
    other = build_graph(Language.from_text("01", ("00",)), 3)
    assert len(g.arcs) == len(other.arcs) == 7
    # Every arc of g once, and closed, but the arcs do not chain.
    assert not Walk(g.arcs[-1].head, g.arcs).is_eulerian(g)
    # A circuit of another graph with as many arcs, hand-made or not.
    circuit = eulerian_cycle(other, other.max_vertex)
    assert Walk(circuit.start, circuit.steps).is_eulerian(other)
    assert not Walk(circuit.start, circuit.steps).is_eulerian(g)
    assert not circuit.is_eulerian(g)
    own = eulerian_cycle(g, g.max_vertex)
    assert Walk(own.start, own.steps).is_eulerian(g)


def test_plain_tuple_arcs_read_like_arcs():
    # Golden mean span 4: membership, the arc's word and a hand-made
    # circuit give plain (tail, label, head) tuples the answers Arcs get.
    g = graph_of(("01", ("11",), 4))
    for arc in g.arcs:
        plain = tuple(arc)
        assert type(plain) is tuple
        assert plain in g
        assert arc_to_word(g, plain) == arc_to_word(g, arc)
        looped = (arc.tail, arc.label, arc.tail)   # in g only when arc is a loop
        assert (looped in g) == (Arc(*looped) in g) == (arc.head == arc.tail)
    circuit = eulerian_cycle(g, g.max_vertex)
    plain_steps = [tuple(a) for a in circuit.steps]
    assert Walk(circuit.start, plain_steps).is_eulerian(g)
    assert not Walk(circuit.start, plain_steps[1:] + plain_steps[:1]).is_eulerian(g)


def test_what_is_not_a_3_sequence_is_no_arc():
    # Golden mean span 4: no such value is in g, arc_to_word refuses it
    # with its own ValueError, and a walk cannot step through one. None of
    # them raises from the unpacking.
    g = graph_of(("01", ("11",), 4))
    arc = g.arcs[0]
    for bad in (5, None, (1, 2), (arc.tail, arc.label), (*arc, arc.head), {0: 1, 1: 0, 2: 1}):
        assert bad not in g
        with pytest.raises(ValueError, match="does not belong to this graph"):
            arc_to_word(g, bad)
    assert [list(arc.tail), arc.label, list(arc.head)] in g   # a 3-sequence of lists
    steps = list(eulerian_cycle(g, g.max_vertex).steps)
    for bad in ((*steps[0], 0), {1: steps[0].label, 2: steps[0].head}):
        with pytest.raises(ValueError, match="is not a 3-sequence"):
            Walk(steps[0].tail, [bad, *steps[1:]])


def forbid_tuple_views(monkeypatch):
    """Make any read of a graph's tuple views, or of a walk's Arcs, fail."""
    def built(self):
        raise AssertionError("a tuple view was built")

    for name in ("vertices", "arcs", "out"):
        monkeypatch.setattr(DeBruijnGraph, name, property(built))
    monkeypatch.setattr(Walk, "steps", property(built))


@pytest.mark.parametrize("spec", [
    ("01", ("11",), 12), ("01", (), 6), ("012", ("22",), 4), ("01", ("01111",), 7),
], ids=str)
def test_walks_and_counts_read_only_the_id_tables(monkeypatch, spec):
    g = graph_of(spec)
    forbid_tuple_views(monkeypatch)
    walk = minimal_walk(g)
    assert walk.start == g.max_vertex and walk.label and walk.end
    walk.is_eulerian(g)
    cycle = eulerian_cycle(g, g.max_vertex)
    assert cycle.is_eulerian(g) and cycle.end == g.max_vertex
    assert count_eulerian_cycles(g, g.max_vertex) > 0


def test_word_lookups_build_no_tuple_graph():
    g, twin = graph_of(("01", ("11",), 5)), graph_of(("01", ("11",), 5))
    a = g.alphabet
    word = a.word("001010")
    arc = word_to_arc(g, word)
    assert arc == Arc(a.word("00101"), 0, a.word("01010"))
    assert arc_to_word(g, arc) == word and arc in g
    assert walk_label_target(g, a.word("00000"), a.word("10010")) == a.word("10010")
    steps = eulerian_cycle(twin, twin.max_vertex).steps
    assert Walk(twin.max_vertex, steps).is_eulerian(g)
    avoid = AvoidSet(twin.max_vertex, dict(analyze_max_arcs(twin).avoid_set().arc_by_vertex))
    assert walk_avoiding(g, avoid).label == minimal_walk(g).label
    loaded = graph_from_json(graph_to_json(twin))
    assert not {"vertices", "arcs", "out"} & (set(g.__dict__) | set(loaded.__dict__))


def test_walks_start_at_the_graphs_own_word():
    # A start given as a list is read as the vertex it names; the walk
    # keeps the graph's word, so it is closed.
    g = graph_of(("01", ("11",), 4))
    start = list(g.max_vertex)
    cycle = eulerian_cycle(g, start)
    assert cycle.start == g.max_vertex and cycle.is_closed and cycle.is_eulerian(g)
    avoid = AvoidSet(start, dict(analyze_max_arcs(g).avoid_set().arc_by_vertex))
    walk = walk_avoiding(g, avoid)
    assert walk.start == g.max_vertex and walk.is_closed and walk.is_eulerian(g)
    assert walk == minimal_walk(g)
    # A hand-made walk keeps its start as a tuple too, and its steps.
    walk = Walk(start, cycle.steps)
    assert walk.start == g.max_vertex and walk.is_closed and walk.is_eulerian(g)
    assert walk == cycle and hash(walk) == hash(cycle)
    walk = Walk(cycle.start, list(cycle.steps))
    assert walk.steps == cycle.steps and walk.is_eulerian(g)
    assert walk == cycle and hash(walk) == hash(cycle)


@pytest.mark.parametrize("argv", [
    ["seq"], ["seq", "--json"], ["seq", "--start", "00000"], ["minimal"], ["minimal", "--json"],
    ["count"], ["count", "--json"],
], ids=" ".join)
def test_seq_minimal_and_count_build_no_tuples(monkeypatch, capsys, argv):
    forbid_tuple_views(monkeypatch)
    code = main(argv[:1] + ["--alphabet", "01", "--forbid", "11", "--span", "5"] + argv[1:])
    assert code == 0, capsys.readouterr().err


def test_minimal_walk_full_binary():
    g = build_graph(Language.from_text("01"), 3)
    walk = minimal_walk(g)
    assert g.alphabet.text(walk.label) == "0000100110101111"
    assert walk.is_eulerian(g)


def lyndon_words(k, n):
    """Lyndon words over k letters of length at most n, in lexicographic
    order (Duval's algorithm)."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()


@pytest.mark.parametrize("alphabet, spans", [("01", range(1, 13)), ("012", range(1, 7))])
def test_minimal_walk_full_language_is_fkm_sequence(alphabet, spans):
    # The least de Bruijn sequence of order n+1 concatenates the Lyndon
    # words whose length divides n+1 (Fredricksen-Kessler-Maiorana).
    k = len(alphabet)
    for n in spans:
        g = build_graph(Language.from_text(alphabet), n)
        fkm = tuple(x for w in lyndon_words(k, n + 1) if (n + 1) % len(w) == 0 for x in w)
        assert minimal_walk(g).label == fkm, n


def lyndon_circuit(g):
    """The Lyndon roots of the arc-word classes of g, concatenated in
    lexicographic order: the FKM sequence, for the full language."""
    roots = set()
    for a in g.arcs:
        w = a.tail + (a.label,)
        least = min(w[r:] + w[:r] for r in range(len(w)))
        p = next(p for p in range(1, len(w) + 1) if least[:p] * (len(w) // p) == least)
        roots.add(least[:p])
    return tuple(x for root in sorted(roots) for x in root)


def test_lyndon_circuit_is_the_greedy_label_when_it_is_a_circuit():
    # Observed, not proved: once span+1 reaches the longest forbidden
    # word, a Lyndon concatenation that is an Eulerian circuit (every arc
    # word once, cyclically) is the greedy label, read from just after
    # the first place where it spells the maximal vertex m.
    rng = random.Random(20261019)
    held = 0
    for _ in range(700):
        alphabet = rng.choice(["01", "012"])
        forbid = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 5)))
            for _ in range(rng.randint(1, 4))
        ]
        lang = Language.from_text(alphabet, forbid)
        n = rng.randint(lang.max_forbidden_len - 1, 10 if alphabet == "01" else 5)
        try:
            g = build_graph(lang, n)
        except (EmptyGraphError, AmbiguousComponentError):
            continue
        circuit = lyndon_circuit(g)
        words = {a.tail + (a.label,) for a in g.arcs}
        if len(circuit) != len(words) or set(cyclic_windows(circuit, n + 1)) != words:
            continue
        held += 1
        assert decide_minimal_is_eulerian(g).answer, (alphabet, forbid, n)
        size = len(circuit)
        p = next(
            p for p in range(size)
            if tuple(circuit[(p - n + i) % size] for i in range(n)) == g.max_vertex
        )
        assert minimal_walk(g).label == circuit[p:] + circuit[:p], (alphabet, forbid, n)
    assert held > 150, held


def test_greedy_walks_match_used_set_reference():
    rng = random.Random(5)
    for spec in ALL_INSTANCES + random_instances(40):
        g = graph_of(spec)
        want = oracle_greedy_walk(g, g.max_vertex, set())
        assert minimal_walk(g) == Walk(g.max_vertex, tuple(want)), spec
        for avoid in avoid_sets(g, rng):
            want = oracle_greedy_walk(g, avoid.root, set(), avoid.arc_by_vertex)
            assert walk_avoiding(g, avoid) == Walk(avoid.root, tuple(want)), spec
        # The used-set reference is slow; above 300 vertices, sample starts.
        starts = g.vertices if len(g.vertices) <= 300 else rng.sample(g.vertices, 60)
        for v in starts:
            try:
                want = oracle_eulerian_cycle(g, v)
            except NotEulerianError as exc:
                with pytest.raises(NotEulerianError, match=re.escape(str(exc))):
                    eulerian_cycle(g, v)
            else:
                assert eulerian_cycle(g, v) == want, (spec, v)


def test_minimal_walk_truncates_on_blocked_instance():
    g = build_graph(Language.from_text("01", ("01111",)), 4)
    walk = minimal_walk(g)
    assert not walk.is_eulerian(g)
    assert len(walk.steps) < len(g.arcs)


def test_minimal_walk_agrees_with_decision_on_golden5():
    from debruijn_sft import decide_minimal_is_eulerian

    g = build_graph(Language.from_text("01", ("11",)), 5)
    walk = minimal_walk(g)
    assert walk.is_eulerian(g) == decide_minimal_is_eulerian(g).answer


def test_minimal_walk_is_pointwise_minimal_small():
    # Exhaustively compare against every arc-distinct walk of the same
    # length from the maximal vertex.
    for spec in [("01", ("11",), 2), ("01", ("11",), 3), ("01", (), 2)]:
        g = graph_of(spec)
        greedy = minimal_walk(g)
        length = len(greedy.steps)
        stack = [((), frozenset())]
        labels = []
        while stack:
            path, used = stack.pop()
            if len(path) == length:
                labels.append(tuple(a.label for a in path))
                continue
            cur = path[-1].head if path else g.max_vertex
            for a in g.out_arcs(cur):
                if a not in used:
                    stack.append((path + (a,), used | {a}))
        assert min(labels) == greedy.label, spec


def test_minimal_walk_is_pointwise_minimal_golden5_pruned():
    # On the 18-arc instance, check that no same-length walk goes lower,
    # pruning branches as soon as they exceed the greedy label.
    g = graph_of(("01", ("11",), 5))
    greedy = minimal_walk(g)
    length = len(greedy.steps)

    def explore(cur, depth, used):
        if depth == length:
            return
        for a in g.out_arcs(cur):
            if a in used:
                continue
            assert a.label >= greedy.label[depth], "walk below greedy label"
            if a.label == greedy.label[depth]:
                explore(a.head, depth + 1, used | {a})

    explore(g.max_vertex, 0, frozenset())


def test_walk_avoiding_tree_reproduces_minimal_walk():
    for spec in IRREDUCIBLE_INSTANCES:
        g = graph_of(spec)
        t = analyze_max_arcs(g)
        assert walk_avoiding(g, t.avoid_set()).steps == minimal_walk(g).steps, spec


def test_walk_avoiding_unrestricted_binary_is_eulerian():
    g = build_graph(Language.from_text("01"), 3)
    t = analyze_max_arcs(g)
    walk = walk_avoiding(g, t.avoid_set())
    assert walk.is_eulerian(g)
    assert len(walk.steps) == 16


def test_walk_avoiding_with_unreached_two_cycle_truncates():
    g = build_graph(Language.from_text("01"), 3)
    a = g.alphabet
    t = analyze_max_arcs(g)
    reserved = dict(t.avoid_set().arc_by_vertex)
    # Reserve a 2-cycle 010 <-> 101: the avoiding walk cannot exhaust it.
    from debruijn_sft import word_to_arc

    reserved[a.word("010")] = word_to_arc(g, a.word("0101"))
    reserved[a.word("101")] = word_to_arc(g, a.word("1010"))
    walk = walk_avoiding(g, AvoidSet(root=g.max_vertex, arc_by_vertex=reserved))
    assert not walk.is_eulerian(g)
    assert len(walk.steps) < len(g.arcs)


def test_walk_avoiding_single_vertex_empty_reservation():
    g = loops_graph()
    walk = walk_avoiding(g, AvoidSet(root=(0,), arc_by_vertex={}))
    assert walk.label == (0, 1)


def test_walk_avoiding_validation():
    g = build_graph(Language.from_text("01"), 2)
    with pytest.raises(ValueError):
        walk_avoiding(g, AvoidSet(root=g.max_vertex, arc_by_vertex={}))


def test_avoid_set_errors_name_the_broken_rule():
    # A word-keyed set is checked rule by rule, each with its own text; a
    # root or key that is no word at all breaks the same rules.
    g = build_graph(Language.from_text("01"), 2)
    a = g.alphabet
    reserved = dict(analyze_max_arcs(g).avoid_set().arc_by_vertex)
    v = a.word("01")
    cases = [
        (AvoidSet(None, reserved), "root None is not in the graph"),
        (AvoidSet(a.word("1"), reserved), r"root \(1,\) is not in the graph"),
        (AvoidSet(g.max_vertex, {**reserved, 5: reserved[v]}), "exactly one arc"),
        (AvoidSet(g.max_vertex, {**reserved, g.max_vertex: reserved[v]}), "exactly one arc"),
        (AvoidSet(g.max_vertex, {u: x for u, x in reserved.items() if u != v}), "exactly one arc"),
        (AvoidSet(g.max_vertex, {**reserved, v: reserved[a.word("00")]}), r"reserved arc for \(0, 1\)"),
        (AvoidSet(g.max_vertex, {**reserved, v: Arc(v, 1, v)}), r"reserved arc for \(0, 1\)"),
    ]
    for avoid, message in cases:
        for check in (check_avoid_set, walk_avoiding, verify_exhaustion_order):
            with pytest.raises(ValueError, match=message):
                check(g, avoid)


def test_exhaustion_order_eulerian_covers_every_vertex():
    g = build_graph(Language.from_text("01", ("11",)), 5)
    walk = eulerian_cycle(g, g.max_vertex)
    order = exhaustion_order(walk, g)
    assert set(order) == set(g.vertices)


def test_exhaustion_order_rejects_broken_walks():
    g = build_graph(Language.from_text("01", ("11",)), 5)
    steps = eulerian_cycle(g, g.max_vertex).steps
    foreign = Arc(steps[-1].head, 1, steps[-1].head)   # label 1 after ...1 is forbidden
    broken = [
        Walk(steps[1].tail, steps),                 # first arc leaves another vertex
        Walk(g.max_vertex, steps[:1] + steps[2:]),  # a gap after the first arc
        Walk(g.max_vertex, steps + (foreign,)),     # last arc is not in the graph
    ]
    for walk in broken:
        with pytest.raises(ValueError, match="does not chain"):
            exhaustion_order(walk, g)


def test_exhaustion_order_empty_walk():
    g = build_graph(Language.from_text("01"), 2)
    assert exhaustion_order(Walk(g.max_vertex, ()), g) == {}


def test_exhaustion_order_matches_last_incident_use():
    g = build_graph(Language.from_text("01"), 3)
    walk = minimal_walk(g)
    order = exhaustion_order(walk, g)
    v = g.alphabet.word("000")
    incident = {a for a in g.arcs if v in (a.tail, a.head)}
    last_use = max(k for k, a in enumerate(walk.steps, start=1) if a in incident)
    assert order[v] == last_use


def test_exhaustion_lemma_on_corpus_avoid_sets():
    import random

    rng = random.Random(99)
    for spec in IRREDUCIBLE_INSTANCES[:12]:
        g = graph_of(spec)
        t = analyze_max_arcs(g)
        assert verify_exhaustion_order(g, t.avoid_set()).ok, spec
        # Random reservations keep the lemma valid as well.
        for _ in range(3):
            reserved = {
                v: rng.choice(g.out_arcs(v)) for v in g.vertices if v != g.max_vertex
            }
            avoid = AvoidSet(root=g.max_vertex, arc_by_vertex=reserved)
            assert verify_exhaustion_order(g, avoid).ok, spec


def test_walk_json():
    g = build_graph(Language.from_text("01"), 3)
    walk = minimal_walk(g)
    assert walk_to_json(walk, g) == {
        "start": "111",
        "label": "0000100110101111",
        "arcCount": 16,
        "eulerian": True,
    }
