import random
from collections import Counter

import pytest

from debruijn_sft import (
    Alphabet,
    AmbiguousComponentError,
    Arc,
    AvoidSet,
    DeBruijnGraph,
    Decision,
    EmptyGraphError,
    Language,
    MaxArcAnalysis,
    Obstruction,
    analysis_to_json,
    analyze_max_arcs,
    build_graph,
    check_cycle_label_blocks,
    classify_vertex,
    decide_minimal_is_eulerian,
    enumerate_obstructions,
    exhaustion_order,
    graph_from_arcs,
    minimal_walk,
    verify_cycle_structure,
    verify_exhaustion_order,
    verify_floor_paths,
    verify_greedy_decision,
    verify_label_monotonicity,
    verify_overlap_bounds,
    walk_avoiding,
)
from debruijn_sft import structure, walks
from debruijn_sft.cli import main

import corpus
from corpus import (
    ALL_INSTANCES,
    avoid_sets,
    graph_of,
    oracle_ahead,
    oracle_analyze_max_arcs,
    oracle_block_lengths,
    oracle_block_split,
    oracle_candidate_parse_obstructions,
    oracle_class_parse_obstructions,
    oracle_cycle_label_blocks,
    oracle_cycle_structure,
    oracle_exhaustion_order,
    oracle_exhaustion_order_upward,
    oracle_floor_paths,
    oracle_functional_cycles,
    oracle_greedy_decision,
    oracle_label_monotonicity,
    oracle_longest_overlap,
    oracle_obstructions,
    oracle_overlap_bounds,
    oracle_parse_blocks,
    oracle_parse_starts,
    oracle_rotation_table_obstructions,
    oracle_split_blocks,
    random_hand_built_graphs,
    random_instances,
)

GOLDEN5 = ("01", ("11",), 5)
BLOCKED4 = ("01", ("01111",), 4)


def test_unrestricted_analysis_is_tree():
    for alphabet, n in [("01", 3), ("01", 4), ("012", 2)]:
        g = graph_of((alphabet, (), n))
        t = analyze_max_arcs(g)
        assert t.is_tree
        assert t.cycles == ()
        assert g.alphabet.text(t.root) == alphabet[-1] * n
        assert len(t.avoid_set().arc_by_vertex) == len(g.vertices) - 1


def test_golden5_vertex_classification():
    g = graph_of(GOLDEN5)
    t = analyze_max_arcs(g)
    a = g.alphabet
    rec = classify_vertex(t, a.word("01010"))
    assert a.text(rec.overlap) == "1010"
    assert a.symbols[rec.overlap_next] == "1"
    assert a.symbols[rec.max_label] == "1"
    assert not rec.is_floor and not rec.is_restricted
    zero = classify_vertex(t, a.word("00000"))
    assert zero.overlap == ()
    assert zero.is_floor
    assert a.symbols[zero.overlap_next] == "1"
    # The root is refused by its id, so also when given as a list.
    for root in (t.root, list(t.root)):
        with pytest.raises(ValueError, match="the root has no classification"):
            classify_vertex(t, root)


def test_full_binary_overlap_example():
    g = graph_of(("01", (), 3))
    t = analyze_max_arcs(g)
    a = g.alphabet
    rec = classify_vertex(t, a.word("011"))
    assert a.text(rec.overlap) == "11"
    assert a.symbols[rec.overlap_next] == "1"
    # Arc 011 -> 110 has label 0 < overlap_next, so 110 must be floor.
    assert classify_vertex(t, a.word("110")).is_floor


def test_golden5_cycle():
    g = graph_of(GOLDEN5)
    t = analyze_max_arcs(g)
    assert not t.is_tree
    a = g.alphabet
    assert [[a.text(v) for v in c] for c in t.cycles] == [["00100", "01001", "10010"]]


def test_blocked4_cycles_divide_span_plus_one():
    g = graph_of(BLOCKED4)
    t = analyze_max_arcs(g)
    assert not t.is_tree
    for cyc in t.cycles:
        assert len(cyc) in (1, 5)
        assert 5 % len(cyc) == 0


def test_restricted_vertices_feed_floor_vertices():
    for spec in ALL_INSTANCES:
        t = analyze_max_arcs(graph_of(spec))
        for v, arc in t.avoid_set().arc_by_vertex.items():
            if classify_vertex(t, v).is_restricted and arc.head != t.root:
                assert classify_vertex(t, arc.head).is_floor, spec


def test_tree_arc_count_invariant():
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        max_arc = analyze_max_arcs(g).avoid_set().arc_by_vertex
        assert len(max_arc) == len(g.vertices) - 1
        for v, arc in max_arc.items():
            assert arc.tail == v
            assert arc == g.out_arcs(v)[-1]


def all_reports(decision):
    """The reports `verify` prints, for a decided graph."""
    t = decision.analysis
    g = t.graph
    reports = [
        verify_exhaustion_order(g, t.avoid_set()),
        verify_label_monotonicity(t),
        verify_cycle_structure(t),
        verify_overlap_bounds(t),
        verify_floor_paths(t),
        verify_greedy_decision(decision),
    ]
    reports.extend(check_cycle_label_blocks(t, c) for c in t.cycles)
    return reports


def test_verifiers_zero_violations_on_corpus():
    for spec in ALL_INSTANCES:
        for report in all_reports(decide_minimal_is_eulerian(graph_of(spec))):
            assert report.ok, (spec, report)


def test_verifiers_zero_violations_on_random_corpus():
    for spec in random_instances(20):
        for report in all_reports(decide_minimal_is_eulerian(graph_of(spec))):
            assert report.ok, (spec, report)


def random_languages(rng, alphabet, count):
    """`count` languages over `alphabet`, each forbidding 1-4 random words
    of length 2-5."""
    return [
        Language.from_text(alphabet, [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 5)))
            for _ in range(rng.randint(1, 4))
        ])
        for _ in range(count)
    ]


def test_decision_and_verifiers_at_scale():
    # Past the spans of the other random corpora: binary spans 13-16 and
    # ternary spans 8-10, up to tens of thousands of vertices.
    rng = random.Random(20261018)
    cases = [(lang, rng.randint(13, 16)) for lang in random_languages(rng, "01", 16)]
    cases += [(lang, rng.randint(8, 10)) for lang in random_languages(rng, "012", 8)]
    decided = 0
    for lang, n in cases:
        try:
            g = build_graph(lang, n)
        except (EmptyGraphError, AmbiguousComponentError):
            continue
        decision = decide_minimal_is_eulerian(g)
        assert decision.answer == minimal_walk(g).is_eulerian(g), (lang, n)
        for report in all_reports(decision):
            assert report.ok, (lang, n, report)
        decided += 1
    assert decided >= len(cases) // 2


def analyzable(g):
    return all(g.out_arcs(v) for v in g.vertices if v != g.max_vertex)


def graphs_for_overlaps_and_cycles():
    graphs = [graph_of(spec) for spec in ALL_INSTANCES + random_instances(200)]
    return graphs + [g for g in random_hand_built_graphs(3000, seed=7) if analyzable(g)]


def test_overlaps_match_reference():
    for g in graphs_for_overlaps_and_cycles():
        t = analyze_max_arcs(g)
        m = g.max_vertex
        want = {v: oracle_longest_overlap(v, m) for v in g.vertices if v != m}
        got = {v: classify_vertex(t, v) for v in g.vertices if v != m}
        assert {v: c.overlap for v, c in got.items()} == want, g.arcs
        assert {v: c.overlap_next for v, c in got.items()} == {
            v: m[len(ov)] for v, ov in want.items()
        }, g.arcs
        assert {v for v, c in got.items() if c.is_floor} == {
            v for v, ov in want.items() if not ov
        }, g.arcs
        assert {v for v, c in got.items() if c.is_restricted} == {
            v for v, ov in want.items() if g.out_arcs(v)[-1].label < m[len(ov)]
        }, g.arcs


def test_functional_cycles_match_reference():
    rng = random.Random(7)
    cycles = 0
    for g in graphs_for_overlaps_and_cycles():
        # Random roots need every vertex to have an out-arc to reserve.
        if all(g.out_arcs(v) for v in g.vertices):
            exit_maps = avoid_sets(g, rng)
        else:
            exit_maps = [analyze_max_arcs(g).avoid_set()]
        ids = {v: i for i, v in enumerate(g.vertices)}
        for avoid in exit_maps:
            succ = [-1] * len(g.vertices)
            for v, a in avoid.arc_by_vertex.items():
                succ[ids[v]] = ids[a.head]
            got = [[g.vertices[v] for v in cyc] for cyc in structure._functional_cycles(succ)]
            assert got == oracle_functional_cycles(g.vertices, avoid.arc_by_vertex), g.arcs
            cycles += len(got)
    assert cycles > 1000


def test_analysis_matches_tuple_reference():
    # Field by field against the tuple analysis, which also refuses a
    # vertex with no out-arc in the same words.
    graphs = [graph_of(spec) for spec in ALL_INSTANCES + random_instances(200)]
    graphs += random_hand_built_graphs(3000, seed=7)
    refused = 0
    for g in graphs:
        try:
            want = oracle_analyze_max_arcs(g)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                analyze_max_arcs(g)
            assert str(got.value) == str(e)
            refused += 1
            continue
        t = analyze_max_arcs(g)
        for name in ("root", "cycles", "is_tree"):
            assert getattr(t, name) == want[name], (name, g.arcs)
        avoid = t.avoid_set()
        assert (avoid.root, avoid.arc_by_vertex) == (want["root"], want["max_arc"])
        for v in want["max_arc"]:
            assert classify_vertex(t, v) == structure.VertexClass(
                overlap=want["overlap"][v],
                overlap_next=want["overlap_next"][v],
                max_label=want["max_label"][v],
                is_floor=v in want["floor"],
                is_restricted=v in want["restricted"],
            ), g.arcs
    assert refused > 100


def analyses_with_random_tables(g, rng):
    """The graph's analysis, then analyses on random out-arcs and random
    overlap lengths, which break the facts the verifiers check."""
    t = analyze_max_arcs(g)
    top = len(g.ranks) - 1
    random_arcs = [rng.randrange(g.first[v], g.first[v + 1]) for v in range(top)] + [-1]
    random_states = [rng.randrange(g.span) for _ in range(top)] + [-1]
    fakes = []
    for arc, state in [(random_arcs, t._state), (t._arc, random_states), (random_arcs, random_states)]:
        fake = MaxArcAnalysis(g)
        vars(fake).update(_arc=arc, _state=state)   # as if the cached tables were read
        fakes.append(fake)
    return [t, *fakes]


def test_look_ahead_matches_path_reference():
    # The power of the max-arc map against a walk down from the root and
    # from each cycle, for every step count up to span+2, on true analyses
    # and on random max arcs, whose tails run long, whose cycles have any
    # length, and whose walks may reach the root in exactly `steps`.
    rng = random.Random(31)
    seen = dict.fromkeys(["stopped", "root", "wrapped", "tail", "long cycle"], 0)
    for spec in ALL_INSTANCES + random_instances(40):
        g = graph_of(spec)
        top = len(g.ranks) - 1
        for t in analyses_with_random_tables(g, rng):
            on_cycle = {v for cyc in t._cycles for v in cyc}
            seen["long cycle"] += sum(len(cyc) > g.span + 2 for cyc in t._cycles)
            for steps in range(g.span + 3):
                got = structure._ahead(t, steps)
                assert got == oracle_ahead(t, steps), (spec, steps, t._arc)
                for v, u in enumerate(got):
                    if u < 0:
                        seen["stopped"] += 1
                    elif u == top:
                        seen["root"] += v != top
                    elif u in on_cycle:
                        seen["wrapped"] += v not in on_cycle
                    else:
                        seen["tail"] += steps == g.span + 2
    assert all(count > 10 for count in seen.values()), seen


def test_max_arc_tables_are_made_once_and_only_when_read(monkeypatch, capsys):
    # The successor and label tables are made once per analysis, however
    # many verifiers and cycles read them, and `check` makes neither.
    made = []
    by_max_arc = structure._by_max_arc
    monkeypatch.setattr(
        structure, "_by_max_arc", lambda arc, table: made.append(table) or by_max_arc(arc, table)
    )
    assert main(["check", "--alphabet", "01", "--forbid", "11", "--span", "11"]) == 0
    assert "cycle " in capsys.readouterr().out and len(made) == 1   # the analysis's own map
    decision = decide_minimal_is_eulerian(graph_of(("01", ("11",), 11)))
    t = decision.analysis
    assert len(t.cycles) == 3 and len(made) == 2
    for _ in range(2):
        verify_label_monotonicity(t)
        verify_cycle_structure(t)
        verify_floor_paths(t)
        verify_greedy_decision(decision)
        for cyc in t.cycles:
            check_cycle_label_blocks(t, cyc)
        analysis_to_json(decision)
    assert len(made) == 4


def test_verifiers_match_tuple_references_with_violations():
    # Same checks= counts and the same violation texts, in the same order,
    # as the tuple verifiers, on true and on broken analyses.
    rng = random.Random(23)
    graphs = [graph_of(spec) for spec in ALL_INSTANCES + random_instances(40)]
    graphs += [graph_of(spec) for spec in [("01", ("11",), 10), ("01", ("01111",), 8)]]
    graphs += [g for g in random_hand_built_graphs(400, seed=23) if analyzable(g)]
    flagged = dict.fromkeys(["label", "structure", "bounds", "floor", "blocks", "greedy"], 0)
    for g in graphs:
        obstructions = enumerate_obstructions(g)
        for t in analyses_with_random_tables(g, rng):
            pairs = [
                ("label", verify_label_monotonicity(t), oracle_label_monotonicity(t)),
                ("structure", verify_cycle_structure(t), oracle_cycle_structure(t)),
                ("bounds", verify_overlap_bounds(t), oracle_overlap_bounds(t)),
                ("floor", verify_floor_paths(t), oracle_floor_paths(t)),
            ]
            pairs += [
                ("blocks", check_cycle_label_blocks(t, form), oracle_cycle_label_blocks(t, c))
                for c in t.cycles
                for form in (c, list(c), [list(v) for v in c])   # lists name the same cycle
            ]
            for other in [c[1:] + c[:1] for c in t.cycles if len(c) > 1] + [(), [[9]], 5, None]:
                with pytest.raises(ValueError, match="^not a cycle of this analysis$"):
                    check_cycle_label_blocks(t, other)
            decision = Decision(
                answer=t.is_tree, via_tree=t.is_tree, via_obstructions=not obstructions,
                cycles=t.cycles, obstructions=obstructions, analysis=t,
            )
            pairs.append(("greedy", verify_greedy_decision(decision), oracle_greedy_decision(decision)))
            for name, got, want in pairs:
                assert got == want, (name, g.arcs)
                flagged[name] += not got.ok
    assert all(count > 20 for count in flagged.values()), flagged


def test_exhaustion_order_matches_reference():
    rng = random.Random(7)
    for spec in ALL_INSTANCES + random_instances(40):
        g = graph_of(spec)
        for avoid in avoid_sets(g, rng):
            report = verify_exhaustion_order(g, avoid)
            assert report == oracle_exhaustion_order(g, avoid), spec
            assert report == oracle_exhaustion_order_upward(g, avoid), spec


def test_exhaustion_order_matches_reference_on_hand_built_graphs():
    rng = random.Random(13)
    compared = 0
    for g in random_hand_built_graphs(600, seed=13):
        for root in g.vertices:
            others = [v for v in g.vertices if v != root]
            if not all(g.out_arcs(v) for v in others):
                continue
            reserved = {v: rng.choice(g.out_arcs(v)) for v in others}
            avoid = AvoidSet(root=root, arc_by_vertex=reserved)
            report = verify_exhaustion_order(g, avoid)
            assert report == oracle_exhaustion_order(g, avoid), g.arcs
            assert report == oracle_exhaustion_order_upward(g, avoid), g.arcs
            compared += 1
    assert compared > 500


def test_id_and_word_keyed_avoid_sets_agree():
    # The max-arc set an analysis makes holds arc ids; the same set keyed
    # by words is checked and turned into ids. Both must walk and verify
    # alike. An analysis makes its set once.
    for g in graphs_for_overlaps_and_cycles():
        t = analyze_max_arcs(g)
        max_arc = {v: g.out_arcs(v)[-1] for v in g.vertices[:-1]}
        by_ids, by_words = t.avoid_set(), AvoidSet(t.root, max_arc)
        assert t.avoid_set() is by_ids
        walk = walk_avoiding(g, by_ids)
        assert walk == walk_avoiding(g, by_words), g.arcs
        assert exhaustion_order(walk, g) == exhaustion_order(walk_avoiding(g, by_words), g)
        assert verify_exhaustion_order(g, by_ids) == verify_exhaustion_order(g, by_words)
        assert by_ids.arc_by_vertex == max_arc
        assert list(by_ids.arc_by_vertex) == list(max_arc)


def shuffled_exhaustion_times(g, ids):
    """Exhaustion times shuffled among the exhausted vertices: they break
    the ordering fact."""
    times = walks._exhaustion_times(g, ids)
    done = [v for v, t in enumerate(times) if t >= 0]
    shuffled = [times[v] for v in done]
    random.Random(len(ids)).shuffle(shuffled)
    for v, t in zip(done, shuffled):
        times[v] = t
    return times


def shuffled_exhaustion_order(walk, g):
    """The same shuffled times, keyed by vertex words, for the references."""
    times = shuffled_exhaustion_times(g, walks._arc_ids(walk, g))
    return {g.word_of(v): t for v, t in enumerate(times) if t >= 0}


def shuffle_exhaustion_times(monkeypatch):
    monkeypatch.setattr(structure, "_exhaustion_times", shuffled_exhaustion_times)
    monkeypatch.setattr(corpus, "exhaustion_order", shuffled_exhaustion_order)


def test_exhaustion_order_violations_match_reference(monkeypatch):
    # Both verifiers must report the same violations in the same order.
    shuffle_exhaustion_times(monkeypatch)
    rng = random.Random(11)
    flagged = 0
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        for avoid in avoid_sets(g, rng):
            report = verify_exhaustion_order(g, avoid)
            assert report == oracle_exhaustion_order(g, avoid), spec
            assert report == oracle_exhaustion_order_upward(g, avoid), spec
            flagged += not report.ok
    assert flagged


def test_exhaustion_order_matches_upward_reference_at_scale(monkeypatch):
    # The upward walk costs the sum of all depths, so it reaches spans the
    # quadratic reference cannot, with random reservations as well.
    rng = random.Random(17)

    def reservations(g):
        root = rng.choice(g.vertices)
        reserved = {v: rng.choice(g.out_arcs(v)) for v in g.vertices if v != root}
        return [analyze_max_arcs(g).avoid_set(), AvoidSet(root=root, arc_by_vertex=reserved)]

    graphs = [graph_of(spec) for spec in [
        ("01", ("11",), 16), ("01", ("00000",), 12), ("01", (), 11),
        ("012", ("22",), 7), ("01", ("01111",), 11),
    ]]
    checks = 0
    for g in graphs:
        for avoid in reservations(g):
            report = verify_exhaustion_order(g, avoid)
            assert report == oracle_exhaustion_order_upward(g, avoid), g.vertices[-1]
            checks += report.checks
    assert checks > 100_000
    shuffle_exhaustion_times(monkeypatch)
    for g in graphs[:2]:
        for avoid in reservations(g):
            report = verify_exhaustion_order(g, avoid)
            assert not report.ok
            assert report == oracle_exhaustion_order_upward(g, avoid), g.vertices[-1]


@pytest.mark.parametrize("spec", [GOLDEN5, BLOCKED4, ("012", ("22",), 4), ("01", (), 5)], ids=str)
def test_decision_and_verifiers_build_no_tuple_views(spec):
    g = graph_of(spec)
    decision = decide_minimal_is_eulerian(g)
    t = decision.analysis
    reports = [
        verify_label_monotonicity(t),
        verify_cycle_structure(t),
        verify_overlap_bounds(t),
        verify_floor_paths(t),
        verify_greedy_decision(decision),
    ]
    reports += [check_cycle_label_blocks(t, c) for c in t.cycles]
    assert all(r.ok for r in reports)
    for v in t.cycles[0] if t.cycles else ():
        classify_vertex(t, v)
    assert not {"vertices", "arcs", "out"} & set(g.__dict__)


def test_floor_path_verifier_handles_restricted_floor_start():
    # With 002 forbidden the vertex 00 is floor yet restricted: its only
    # extension would immediately break the spelled-overlap equality, so
    # paths must stop there rather than flag a violation.
    g = graph_of(("012", ("002",), 2))
    t = analyze_max_arcs(g)
    c = classify_vertex(t, g.alphabet.word("00"))
    assert c.is_floor and c.is_restricted
    assert verify_floor_paths(t).ok


def test_obstructions_empty_without_restrictions():
    for alphabet, n in [("01", 2), ("01", 4), ("01", 6), ("012", 3)]:
        g = graph_of((alphabet, (), n))
        assert enumerate_obstructions(g) == ()


def test_obstructions_blocked4_nonempty():
    g = graph_of(BLOCKED4)
    obs = enumerate_obstructions(g)
    assert obs
    words = {g.alphabet.text(o.word) for o in obs}
    assert words == {"01011", "01101", "10101", "10110", "11010"}


def test_obstructions_golden5_match_cycle_construction():
    g = graph_of(GOLDEN5)
    t = analyze_max_arcs(g)
    expected = {
        u + (classify_vertex(t, u).max_label,) for cyc in t.cycles for u in cyc
    }
    assert {o.word for o in enumerate_obstructions(g)} == expected


def test_obstruction_cross_construction_on_corpus():
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        t = analyze_max_arcs(g)
        expected = {u + (classify_vertex(t, u).max_label,) for cyc in t.cycles for u in cyc}
        assert {o.word for o in enumerate_obstructions(g)} == expected, spec


def test_obstructions_match_reference():
    for spec in ALL_INSTANCES + random_instances(200):
        g = graph_of(spec)
        got = enumerate_obstructions(g)
        assert got == oracle_obstructions(g), spec
        assert got == oracle_rotation_table_obstructions(g), spec
        assert got == oracle_candidate_parse_obstructions(g), spec
        assert got == oracle_class_parse_obstructions(g), spec


def test_obstructions_match_reference_on_hand_built_graphs():
    # Arc words of hand-built graphs are not closed under rotation, so a
    # class's witness can be a rotation that is no arc word at all.
    found = 0
    for g in random_hand_built_graphs(3000, seed=5):
        want = oracle_obstructions(g)
        assert enumerate_obstructions(g) == want, g.arcs
        assert oracle_rotation_table_obstructions(g) == want, g.arcs
        assert oracle_candidate_parse_obstructions(g) == want, g.arcs
        assert oracle_class_parse_obstructions(g) == want, g.arcs
        found += bool(want)
    assert found > 100


def successor_branches(g: DeBruijnGraph) -> Counter:
    """How `enumerate_obstructions` finds each node's successor, read from
    the graph by words: a vertex with out-arcs whose tail is below the
    maximal vertex m and whose first letter is below m's (one-letter
    block) goes by its top arc's head when that head is the rotation's
    tail, and by search otherwise; a longer block always searches. A graph
    that is not rotation-closed adds the rotations of its arc words that
    are no arc word, may end a block and have a tail below m."""
    m = g.max_vertex
    branches = Counter()
    for v in g.vertices[:-1]:
        arcs = g.out_arcs(v)
        if not arcs:
            continue
        top = arcs[-1]
        if v[0] < m[0]:
            branches["head" if top.head == v[1:] + (top.label,) else "fallback"] += 1
        else:
            branches["longer"] += 1
    if not g.rotation_closed:
        words = {a.tail + (a.label,) for a in g.arcs}
        extra = set()
        for w in words:
            for r in range(1, len(w)):
                d = w[r:] + w[:r]
                out = g.out_arcs(d[:-1])
                if d not in words and d[:-1] < m and (not out or out[-1].label < d[-1]):
                    extra.add(d)
        branches["extra"] = len(extra)
    return branches


def test_obstructions_match_reference_on_every_successor_branch():
    # The successor map has four branches: a one-letter block by its top
    # arc's head, the same block searched for by rank when the head is not
    # the shift (hand-built graphs, some with a non-root vertex that has no
    # out-arc), a longer block, and the extra nodes of a graph that is not
    # rotation-closed. Each runs often, and the result is the reference's.
    graphs = [graph_of(spec) for spec in ALL_INSTANCES + random_instances(60)]
    graphs += random_hand_built_graphs(600, seed=47)
    branches = Counter()
    dead_ends = 0
    for g in graphs:
        assert enumerate_obstructions(g) == oracle_obstructions(g), g.arcs
        branches += successor_branches(g)
        dead_ends += any(not g.out_arcs(v) for v in g.vertices[:-1])
    assert all(branches[b] >= 50 for b in ("head", "fallback", "longer", "extra")), branches
    assert dead_ends >= 50


def test_a_top_arc_head_that_is_not_the_shift_is_searched():
    # Vertex 0's top arc 0 -1-> 2 has head 2, but the next block end of
    # its word 01 is 10, the top arc of vertex 1. Trusting the head, whose
    # rank is not the rotation's tail, finds no successor and misses the
    # obstruction 01 | 10.
    g = graph_from_arcs(1, Alphabet.from_text("012"), [Arc((0,), 1, (2,)), Arc((1,), 0, (0,))])
    blocks = (((), 0), ((), 1))
    want = (Obstruction((0, 1), 0, blocks), Obstruction((1, 0), 1, blocks))
    assert enumerate_obstructions(g) == want == oracle_obstructions(g)


# The rank searches of one obstruction search: a measure of work that does
# not drift with the host. Each is an upper bound; with one search per
# vertex they were 2,685, 2,047, 1,231 and 805.
RANK_SEARCHES = [
    (("01", ("11",), 16), 1103),
    (("01", (), 11), 1033),
    (("012", ("22",), 7), 341),
    (("01", ("01111",), 10), 413),
]


@pytest.mark.parametrize("spec, most", RANK_SEARCHES, ids=lambda x: str(x))
def test_rank_searches_of_an_obstruction_search(monkeypatch, spec, most):
    g = graph_of(spec)
    searches = []
    search = structure.bisect_left
    monkeypatch.setattr(structure, "bisect_left", lambda *args: searches.append(1) or search(*args))
    enumerate_obstructions(g)
    assert len(searches) <= most, (spec, len(searches))


def test_periodic_class_rotation_is_below_its_period():
    # At golden mean span 5 the class of 100100 has period 3: its witness
    # 100100 splits as 100 | 100, a block cycle that sums to 3, a proper
    # divisor of 6. Each word's rotation is the least that reaches it.
    g = graph_of(GOLDEN5)
    obs = enumerate_obstructions(g)
    assert obs == oracle_class_parse_obstructions(g) == oracle_obstructions(g)
    assert [(g.alphabet.text(o.word), o.rotation) for o in obs] == [
        ("001001", 2), ("010010", 1), ("100100", 0),
    ]
    assert {o.blocks for o in obs} == {(((1, 0), 0),) * 2}


def test_open_class_witness_need_not_be_an_arc_word():
    # One arc 10 -0-> 11: its word 100 is the only arc word of its class,
    # and the witness 010 splits as 0 | 10, where 010's tail 01 is no
    # vertex, so a block may end before it.
    g = graph_from_arcs(2, Alphabet.from_text("01"), [Arc((1, 0), 0, (1, 1))])
    assert not g.rotation_closed
    want = (Obstruction(word=(1, 0, 0), rotation=2, blocks=(((), 0), ((1,), 0))),)
    assert enumerate_obstructions(g) == want == oracle_class_parse_obstructions(g)
    assert oracle_obstructions(g) == want


def test_word_splitting_from_two_disjoint_sets_of_places():
    # 0000 splits into blocks 00 below the maximal vertex 011 from places
    # 0, 2 and from places 1, 3; as a rank it is one node whose block
    # cycle sums to 2, a divisor of 4.
    g = graph_from_arcs(3, Alphabet.from_text("01"), [
        Arc((0, 0, 0), 0, (0, 0, 0)), Arc((0, 1, 1), 0, (0, 0, 0)),
    ])
    w = (0, 0, 0, 0)
    block = oracle_block_lengths(w, [True] * 4, g.max_vertex)
    assert block == [2, 2, 2, 2] and sorted(oracle_parse_starts(block)) == [0, 1, 2, 3]
    want = (Obstruction(word=w, rotation=0, blocks=(((0,), 0), ((0,), 0))),)
    assert enumerate_obstructions(g) == want == oracle_class_parse_obstructions(g)
    assert oracle_obstructions(g) == want


def test_obstructions_match_reference_at_scale():
    # Binary spans 12-15 and ternary spans 7-8, with golden mean span 18
    # and 01111 span 14 (thousands of vertices, hundreds of obstructions).
    rng = random.Random(20261019)
    cases = [(lang, rng.randint(12, 15)) for lang in random_languages(rng, "01", 8)]
    cases += [(lang, rng.randint(7, 8)) for lang in random_languages(rng, "012", 4)]
    cases += [(Language.from_text("01", ("11",)), 18), (Language.from_text("01", ("01111",)), 14)]
    found = compared = 0
    for lang, n in cases:
        try:
            g = build_graph(lang, n)
        except (EmptyGraphError, AmbiguousComponentError):
            continue
        want = oracle_class_parse_obstructions(g)
        assert enumerate_obstructions(g) == want, (lang, n)
        found += len(want)
        compared += 1
    assert compared >= len(cases) // 2 and found > 500


def test_obstruction_search_reads_no_max_arc_analysis(monkeypatch):
    # The two criteria stay independent: the search reads the graph alone.
    def refuse(*args):
        raise AssertionError("the obstruction search read the max-arc analysis")

    monkeypatch.setattr(structure, "analyze_max_arcs", refuse)
    monkeypatch.setattr(structure, "MaxArcAnalysis", refuse)
    for spec in ALL_INSTANCES + random_instances(40):
        g = graph_of(spec)
        assert enumerate_obstructions(g) == oracle_obstructions(g), spec
    with pytest.raises(AssertionError):
        structure.decide_minimal_is_eulerian(graph_of(GOLDEN5))


def test_obstructions_do_not_depend_on_the_closure_flag():
    # rotation_closed only spares the scan for rotations that are no arc
    # word; a graph that claims nothing takes the same path to the same
    # result.
    graphs = [graph_of(spec) for spec in ALL_INSTANCES]
    graphs += random_hand_built_graphs(300, seed=41)
    for g in graphs:
        plain = DeBruijnGraph(g.span, g.alphabet, g.language, g.ranks, g.first, g.heads, g.labels)
        assert not plain.rotation_closed
        assert enumerate_obstructions(plain) == enumerate_obstructions(g), g.arcs


def test_split_blocks_matches_backtracking_reference():
    # Each rotation is parsed from the block lengths of its word, which
    # read one flag per letter for whether a block may end there; the
    # cycles of those lengths say which rotations split.
    decomposed = 0
    graphs = [graph_of(spec) for spec in ALL_INSTANCES + random_instances(40)]
    # In hand-built graphs a word can split from two disjoint sets of
    # places, such as 0000 into blocks 00 below the maximal vertex 01x.
    graphs += random_hand_built_graphs(1000, seed=31)
    for g in graphs:
        words = frozenset(a.tail + (a.label,) for a in g.arcs)
        for w in words:
            may_end = []
            for q in range(len(w)):
                arcs = g.out_arcs(w[q + 1 :] + w[:q])
                may_end.append(not arcs or arcs[-1].label <= w[q])
            block = oracle_block_lengths(w, may_end, g.max_vertex)
            starts = oracle_parse_starts(block)
            for r in range(len(w)):
                rot = w[r:] + w[:r]
                got = oracle_block_split(w, r, block, g.max_vertex) if r in starts else None
                want = oracle_split_blocks(rot, g.max_vertex, words, g.alphabet.size)
                assert got == want, (g.arcs, rot)
                assert oracle_parse_blocks(rot, g) == want, (g.arcs, rot)
                decomposed += got is not None
    assert decomposed


def test_obstruction_witnesses_are_valid_decompositions():
    for spec in [GOLDEN5, BLOCKED4, ("01", ("111",), 5)]:
        g = graph_of(spec)
        m = g.max_vertex
        arc_words = {a.tail + (a.label,) for a in g.arcs}
        for o in enumerate_obstructions(g):
            rotated = o.word[o.rotation :] + o.word[: o.rotation]
            flat = tuple(s for h, b in o.blocks for s in h + (b,))
            assert flat == rotated
            for h, b in o.blocks:
                assert h == m[: len(h)]
                assert b < m[len(h)]
            # Raising any block letter must leave the arc-word set.
            chunks = [h + (b,) for h, b in o.blocks]
            for i, (h, b) in enumerate(o.blocks):
                ending_here = ()
                for c in chunks[i + 1 :] + chunks[: i + 1]:
                    ending_here += c
                for b2 in range(b + 1, g.alphabet.size):
                    assert ending_here[:-1] + (b2,) not in arc_words


def test_decide_examples():
    assert decide_minimal_is_eulerian(graph_of(("01", (), 4))).answer is True
    decision = decide_minimal_is_eulerian(graph_of(BLOCKED4))
    assert decision.answer is False
    assert decision.via_tree is False and decision.via_obstructions is False
    assert decision.cycles and decision.obstructions


def test_main_theorem_three_ways_on_everything():
    for spec in ALL_INSTANCES + random_instances(30):
        g = graph_of(spec)
        decision = decide_minimal_is_eulerian(g)
        walk = minimal_walk(g)
        assert decision.via_tree == decision.via_obstructions == decision.answer
        assert walk.is_eulerian(g) == decision.answer, spec


def test_analysis_json_shape():
    data = analysis_to_json(decide_minimal_is_eulerian(graph_of(GOLDEN5)))
    assert data["root"] == "10101"
    assert len(data["vertices"]) == 12  # root reported separately
    assert data["decision"] == {
        "answer": False,
        "viaTree": False,
        "viaObstructions": False,
    }
    assert data["cycles"][0]["vertices"] == ["00100", "01001", "10010"]
    assert data["cycles"][0]["label"] == "100"
    assert {o["word"] for o in data["obstructions"]} == {"001001", "010010", "100100"}
    by_label = {v["label"]: v for v in data["vertices"]}
    assert by_label["01010"] == {
        "label": "01010",
        "overlap": "1010",
        "overlapNext": "1",
        "maxLabel": "1",
        "floor": False,
        "restricted": False,
    }
