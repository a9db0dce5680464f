import gc
import json
import random
import tracemalloc

import pytest

from debruijn_sft import (
    AmbiguousComponentError,
    Arc,
    EmptyGraphError,
    Language,
    arc_to_word,
    build_graph,
    export_dot,
    graph_from_arcs,
    graph_from_json,
    graph_to_json,
    walk_label_target,
    word_to_arc,
)

from debruijn_sft.language import enumerate_ranks

from corpus import ALL_INSTANCES, IRREDUCIBLE_INSTANCES, graph_of, language_of

GOLDEN = Language.from_text("01", ("11",))

# Span-5 golden-mean adjacency, arc by arc (tail, label, head).
GOLDEN5_ARCS = [
    ("00000", "0", "00000"),
    ("00000", "1", "00001"),
    ("00001", "0", "00010"),
    ("00010", "0", "00100"),
    ("00010", "1", "00101"),
    ("00100", "0", "01000"),
    ("00100", "1", "01001"),
    ("00101", "0", "01010"),
    ("01000", "0", "10000"),
    ("01000", "1", "10001"),
    ("01001", "0", "10010"),
    ("01010", "0", "10100"),
    ("01010", "1", "10101"),
    ("10000", "0", "00000"),
    ("10001", "0", "00010"),
    ("10010", "0", "00100"),
    ("10100", "0", "01000"),
    ("10101", "0", "01010"),
]


def golden5():
    return build_graph(GOLDEN, 5)


def test_golden_span5_matches_known_adjacency():
    g = golden5()
    assert len(g.vertices) == 13
    assert len(g.arcs) == 18
    assert g.alphabet.text(g.max_vertex) == "10101"
    a = g.alphabet
    expected = sorted(
        (Arc(a.word(t), a.rank(l), a.word(h)) for t, l, h in GOLDEN5_ARCS),
        key=lambda arc: (arc.tail, arc.label),
    )
    assert list(g.arcs) == expected


def test_full_binary_span3():
    g = build_graph(Language.from_text("01"), 3)
    assert len(g.vertices) == 8
    assert len(g.arcs) == 16


def test_unrestricted_sizes():
    for alphabet, k in [("01", 2), ("012", 3)]:
        lang = Language.from_text(alphabet)
        for n in (2, 3):
            g = build_graph(lang, n)
            assert len(g.vertices) == k ** n
            assert len(g.arcs) == k ** (n + 1)


def test_blocked_instance_has_15_vertices():
    g = build_graph(Language.from_text("01", ("01111",)), 4)
    assert len(g.vertices) == 15
    labels = {g.alphabet.text(v) for v in g.vertices}
    assert "1111" not in labels
    assert g.alphabet.text(g.max_vertex) == "1110"


def test_vertex_labels_need_not_be_circular():
    # 10001 wraps 1..1 yet serves as a vertex of the span-5 graph.
    g = golden5()
    assert g.alphabet.word("10001") in g.out


def test_balance_and_suffix_law_on_corpus():
    for spec in IRREDUCIBLE_INSTANCES:
        g = graph_of(spec)
        indeg = {v: 0 for v in g.vertices}
        for a in g.arcs:
            assert a.head == a.tail[1:] + (a.label,)
            indeg[a.head] += 1
        for v in g.vertices:
            assert indeg[v] == len(g.out_arcs(v)), spec


def test_arc_count_equals_word_count_when_irreducible():
    from debruijn_sft import enumerate_words

    for spec in IRREDUCIBLE_INSTANCES:
        g = graph_of(spec)
        assert len(g.arcs) == len(enumerate_words(language_of(spec), spec[2] + 1))


def test_out_adjacency_sorted_with_distinct_labels():
    for spec in IRREDUCIBLE_INSTANCES[:8]:
        g = graph_of(spec)
        for v in g.vertices:
            labels = [a.label for a in g.out_arcs(v)]
            assert labels == sorted(labels)
            assert len(set(labels)) == len(labels)


def test_deterministic_rebuild():
    g1 = golden5()
    g2 = golden5()
    assert g1.vertices == g2.vertices
    assert g1.arcs == g2.arcs


def test_build_errors():
    with pytest.raises(AmbiguousComponentError):
        build_graph(Language.from_text("01", ("01", "10")), 2)
    # Words exist only at even lengths: no length-3 words means no arcs at span 2.
    with pytest.raises(EmptyGraphError):
        build_graph(Language.from_text("01", ("00", "11")), 2)
    with pytest.raises(ValueError):
        build_graph(GOLDEN, 0)


def test_short_span_warns():
    with pytest.warns(UserWarning):
        build_graph(Language.from_text("01", ("01111",)), 3)


def test_arc_word_bijection():
    g = golden5()
    a = g.alphabet
    arc = word_to_arc(g, a.word("010101"))
    assert (arc.tail, arc.label, arc.head) == (a.word("01010"), 1, a.word("10101"))
    loop = word_to_arc(g, a.word("000000"))
    assert loop.tail == loop.head == a.word("00000")
    for arc in g.arcs:
        assert word_to_arc(g, arc_to_word(g, arc)) == arc
        # An arc given with list ends names the same arc, and gets the graph's word.
        listed = Arc(list(arc.tail), arc.label, list(arc.head))
        assert listed in g and arc_to_word(g, listed) == arc_to_word(g, arc)
    from debruijn_sft import enumerate_words

    for w in enumerate_words(GOLDEN, 6):
        assert arc_to_word(g, word_to_arc(g, w)) == w
    with pytest.raises(ValueError):
        word_to_arc(g, a.word("110000"))
    with pytest.raises(ValueError):
        word_to_arc(g, a.word("01010"))
    for w in ((0, 0, 0, 0, 0, 7), (0, 0, 0, 0, 0, -1)):
        with pytest.raises(ValueError, match="outside the alphabet"):
            word_to_arc(g, w)
    foreign = Arc(a.word("11111"), 0, a.word("11110"))
    with pytest.raises(ValueError):
        arc_to_word(g, foreign)


def test_membership_compares_the_whole_arc():
    g = golden5()
    for v in g.vertices:
        labels = {a.label for a in g.out_arcs(v)}
        for s in range(g.alphabet.size):
            if s not in labels:
                assert Arc(v, s, v[1:] + (s,)) not in g
    for a in g.arcs:
        assert a in g
        if a.head != a.tail:
            assert Arc(a.tail, a.label, a.tail) not in g


def test_walk_label_target():
    g = golden5()
    a = g.alphabet
    assert walk_label_target(g, a.word("10101"), a.word("0")) == a.word("01010")
    assert walk_label_target(g, a.word("00000"), ()) == a.word("00000")
    assert walk_label_target(g, a.word("00000"), a.word("10010")) == a.word("10010")
    with pytest.raises(ValueError):
        walk_label_target(g, a.word("00000"), a.word("11"))


def test_export_dot():
    g = golden5()
    dot = export_dot(g)
    assert dot.count("->") == 18
    assert '"00000" -> "00000" [label="0"];' in dot
    assert '"01010" -> "10101" [label="1"];' in dot
    assert "style=bold" not in dot
    highlighted = export_dot(g, frozenset({g.arcs[0]}))
    assert highlighted.count("style=bold") == 1
    assert export_dot(g) == dot  # deterministic
    full = build_graph(Language.from_text("01"), 1)
    assert export_dot(full) == (
        'digraph span1 {\n  "0";\n  "1";\n'
        '  "0" -> "0" [label="0"];\n  "0" -> "1" [label="1"];\n'
        '  "1" -> "0" [label="0"];\n  "1" -> "1" [label="1"];\n}\n'
    )


@pytest.mark.parametrize("symbol, quoted", [('"', '"\\""'), ("\\", '"\\\\"')])
def test_export_dot_escapes_quotes_and_backslashes(symbol, quoted):
    dot = export_dot(build_graph(Language.from_text(symbol + "0"), 1))
    assert f"  {quoted};" in dot
    assert f"  {quoted} -> {quoted} [label={quoted}];" in dot
    assert '  "0" -> "0" [label="0"];' in dot
    # Every quoted string closes on its own line.
    for line in dot.splitlines()[1:-1]:
        assert len(line.replace("\\\\", "").replace('\\"', "").split('"')) % 2 == 1, line


def test_json_round_trip():
    g = golden5()
    data = graph_to_json(g)
    assert data["span"] == 5
    assert len(data["vertices"]) == 13
    assert len(data["arcs"]) == 18
    rebuilt = graph_from_json(json.loads(json.dumps(data)))
    assert graph_to_json(rebuilt) == data


def test_graph_from_json_rejects_malformed_data():
    data = graph_to_json(golden5())
    with pytest.raises(ValueError, match="'alphabet'"):
        graph_from_json({})
    for field in ("span", "arcs"):
        with pytest.raises(ValueError, match=f"'{field}'"):
            graph_from_json({k: v for k, v in data.items() if k != field})
    for field in ("tail", "label", "head"):
        arcs = [{k: v for k, v in d.items() if k != field} for d in data["arcs"]]
        with pytest.raises(ValueError, match=f"'{field}'"):
            graph_from_json({**data, "arcs": arcs})
    for bad in (None, {**data, "arcs": ["0"]}, {**data, "alphabet": None}, {**data, "vertices": 5}):
        with pytest.raises(ValueError, match="malformed graph JSON"):
            graph_from_json(bad)


@pytest.mark.parametrize("span", [3.7, 5.0, "5", True, None])
def test_graph_from_json_rejects_a_span_that_is_not_an_integer(span):
    data = graph_to_json(golden5())
    with pytest.raises(ValueError, match="is not an integer"):
        graph_from_json({**data, "span": span})


def test_graph_from_json_checks_the_vertex_list():
    data = graph_to_json(golden5())
    with pytest.raises(ValueError, match="symbol 'z' not in alphabet"):
        graph_from_json({**data, "vertices": ["zzz"]})
    for vertices in ([], data["vertices"][1:], data["vertices"] + ["00000"],
                     data["vertices"] + data["vertices"][:1]):
        with pytest.raises(ValueError, match="vertices are not exactly the arcs' endpoints"):
            graph_from_json({**data, "vertices": vertices})
    # The list may come in any order, or not at all.
    shuffled = graph_from_json({**data, "vertices": data["vertices"][::-1]})
    assert graph_to_json(shuffled) == data
    without = graph_from_json({k: v for k, v in data.items() if k != "vertices"})
    assert graph_to_json(without) == data


def test_single_vertex_self_loop_language_is_accepted():
    # Forbidding the symbol 1 outright leaves only 0...0; the graph
    # degenerates to one vertex with a self-loop and still works.
    g = build_graph(Language.from_text("01", ("1",)), 1)
    assert len(g.vertices) == 1
    assert len(g.arcs) == 1
    assert g.arcs[0].tail == g.arcs[0].head == (0,)
    from debruijn_sft import decide_minimal_is_eulerian, minimal_walk

    assert decide_minimal_is_eulerian(g).answer
    assert minimal_walk(g).is_eulerian(g)


def test_graph_from_arcs_rejects_duplicate_labels():
    a = Language.from_text("01").alphabet
    with pytest.raises(ValueError):
        graph_from_arcs(1, a, [Arc((0,), 0, (0,)), Arc((0,), 0, (1,))])
    # Unsorted input with two offending vertices names the first one.
    arcs = [Arc((1,), 1, (1,)), Arc((1,), 1, (0,)), Arc((0,), 0, (0,)), Arc((0,), 0, (1,))]
    with pytest.raises(ValueError, match=r"^vertex \(0,\) has two out-arcs with the same label$"):
        graph_from_arcs(1, a, arcs)


@pytest.mark.parametrize("arc, message", [
    (Arc((0, 1), 1, (1, 1)), r"\(0, 1\) is not a word of length 1"),
    (Arc((0,), 1, ()), r"\(\) is not a word of length 1"),
    (Arc((2,), 1, (1,)), r"\(2,\) is not a word of length 1 over the alphabet"),
    (Arc((0,), 1, (-1,)), r"\(-1,\) is not a word of length 1 over the alphabet"),
    (Arc((0,), 2, (1,)), "label 2 is not a letter of the alphabet"),
])
def test_graph_from_arcs_rejects_malformed_arcs(arc, message):
    binary = Language.from_text("01").alphabet
    with pytest.raises(ValueError, match=message):
        graph_from_arcs(1, binary, [Arc((1,), 0, (0,)), arc])


def test_graph_from_arcs_checks_lengths_not_the_shift_rule():
    binary = Language.from_text("01").alphabet
    with pytest.raises(ValueError, match="span must be >= 1"):
        graph_from_arcs(0, binary, [Arc((), 0, ())])
    g = graph_from_arcs(2, binary, [Arc((0, 0), 1, (1, 0)), Arc((1, 0), 0, (0, 0))])
    assert g.out[(0, 0)] == (Arc((0, 0), 1, (1, 0)),)


def test_graph_from_json_rejects_a_wrong_span():
    data = graph_to_json(golden5())
    with pytest.raises(ValueError, match="is not a word of length 2"):
        graph_from_json({**data, "span": 2})
    with pytest.raises(ValueError, match="is not a word of length 5"):
        graph_from_json({**data, "arcs": data["arcs"] + [{"tail": "10101", "label": "1", "head": "001"}]})
    # The shift rule is not checked: a head may be any vertex-length word.
    loaded = graph_from_json({**data, "arcs": data["arcs"] + [{"tail": "10101", "label": "1", "head": "00000"}]})
    assert len(loaded.arcs) == len(data["arcs"]) + 1


@pytest.mark.parametrize("spec", ALL_INSTANCES, ids=str)
def test_graph_from_arcs_sorts_any_arc_order(spec):
    g = graph_of(spec)
    shuffled = list(g.arcs)
    random.Random(len(shuffled)).shuffle(shuffled)
    for arcs in (shuffled, g.arcs[::-1]):
        h = graph_from_arcs(g.span, g.alphabet, arcs, language=g.language)
        assert h.vertices == g.vertices
        assert h.arcs == g.arcs
        assert h.out == g.out
        assert h.max_vertex == g.max_vertex


@pytest.mark.parametrize("spec", ALL_INSTANCES, ids=str)
def test_build_graph_keeps_one_tuple_per_vertex(spec):
    g = graph_of(spec)
    vertex = {v: v for v in g.vertices}
    for a in g.arcs:
        assert a.tail is vertex[a.tail]
        assert a.head is vertex[a.head]


def test_arc_is_an_immutable_record():
    arc = Arc(tail=(0, 1), label=1, head=(1, 1))
    assert (arc.tail, arc.label, arc.head) == ((0, 1), 1, (1, 1))
    assert repr(arc) == "Arc(tail=(0, 1), label=1, head=(1, 1))"
    twin = Arc((0, 1), 1, (1, 1))
    assert arc == twin and hash(arc) == hash(twin)
    assert arc != Arc((0, 1), 0, (1, 0))
    assert len({arc, twin, Arc((0, 1), 0, (1, 0))}) == 2
    with pytest.raises(AttributeError):
        arc.label = 0


def test_rotation_closure_is_recorded_with_the_arcs():
    # Every rotation of a language graph's arc word is an arc word;
    # graph_from_arcs finds out from the arcs themselves, so a language
    # passed along with arbitrary arcs does not make them closed.
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        assert g.rotation_closed
        assert graph_from_json(graph_to_json(g)).rotation_closed, spec
        # Without one arc of a class of several words, the class is open.
        for drop in [a for a in g.arcs if len(set(a.tail + (a.label,))) > 1][:1]:
            rest = [a for a in g.arcs if a != drop]
            assert not graph_from_arcs(g.span, g.alphabet, rest, g.language).rotation_closed
    one_loop = graph_from_arcs(2, GOLDEN.alphabet, [Arc((0, 0), 0, (0, 0))], GOLDEN)
    assert one_loop.rotation_closed
    open_arc = graph_from_arcs(2, GOLDEN.alphabet, [Arc((1, 0), 0, (1, 1))], GOLDEN)
    assert not open_arc.rotation_closed


def test_enumeration_and_build_leave_no_reference_cycles():
    # With the collector off, a memo that holds itself (a recursive
    # closure, say) would keep every intermediate list alive until the
    # next collection; plain reference counting must free everything.
    langs = [("01", ("11",)), ("01", ()), ("012", ("22",)), ("01", ("01111",))]
    gc.collect()
    gc.disable()
    try:
        for alphabet, forbidden in langs:
            lang = Language.from_text(alphabet, forbidden)
            enumerate_ranks(lang, 10)
            build_graph(lang, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_graph_memory_peak_is_pinned():
    # Golden mean span 20 (17,711 vertices, 24,476 arcs). The peak read
    # 3,262,464 and 3,262,520 bytes on CPython 3.11 and 3,100,740 on 3.10;
    # the pin is 3,262,464 plus 5%. Numbering heads through a rank -> id
    # dict peaked at 3,863,969. A pin may be tightened, never loosened.
    lang = Language.from_text("01", ("11",))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = build_graph(lang, 20)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (len(g.ranks), len(g.heads)) == (17711, 24476)
    assert peak <= 3_425_587
