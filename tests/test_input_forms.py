"""One input boundary: any sequence of letters is a word, and any
3-sequence (tail, label, head) is an arc.

Every public function that takes a word, an arc, a walk, a cycle or an
avoid set is driven with tuple, list, `Arc`, plain-tuple and nested-list
forms of the same input, and every form must give the same answer. A
malformed input (a str of letters, an int, a 2-sequence) is refused with
ValueError, or, by a predicate or a lookup, answered no; never with
TypeError or AttributeError. The module skips without hypothesis.
"""

import pytest

from debruijn_sft import (
    Arc,
    AvoidSet,
    Language,
    Walk,
    analyze_max_arcs,
    arc_to_word,
    build_graph,
    check_cycle_label_blocks,
    check_irreducible,
    classify_vertex,
    count_converging_spanning_trees,
    count_eulerian_cycles,
    enumerate_eulerian_cycles,
    enumerate_words,
    estimate_growth_rate,
    eulerian_cycle,
    exhaustion_order,
    export_dot,
    graph_from_arcs,
    integer_determinant,
    is_circular_word,
    minimal_eulerian_label,
    minimal_walk,
    verify_exhaustion_order,
    walk_avoiding,
    walk_label_target,
    walk_to_json,
    word_to_arc,
)
from debruijn_sft.language import Alphabet

from corpus import graph_of

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GOLDEN4 = graph_of(("01", ("11",), 4))   # 8 vertices, 13 arcs, Eulerian greedy walk
BLOCKED = graph_of(("01", ("01111",), 4))   # its max arcs have a cycle
BAD_WORDS = ["0101", 5, [0, "1", 0, 1]]
BAD_ARCS = ["010", 5, ((0, 0, 0, 0), 0)]   # the last one is a 2-sequence


def word_forms(w):
    return [tuple(w), list(w)]


def arc_forms(a):
    return [Arc(*a), tuple(a), [list(a[0]), a[1], list(a[2])], Arc(list(a[0]), a[1], list(a[2]))]


def answer(fn, *args):
    """What fn gives: its value, or ValueError, whose text may name the
    input as given. Any other exception fails the test."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def same_for_every_form(forms, fn):
    answers = [answer(fn, f) for f in forms]
    assert all(a == answers[0] for a in answers), answers
    return answers[0]


vertices = st.sampled_from(GOLDEN4.vertices)
arcs = st.sampled_from(GOLDEN4.arcs)


@settings(max_examples=15)
@given(vertices, arcs)
def test_every_form_of_a_word_or_an_arc_gives_one_answer(v, a):
    g = GOLDEN4
    word = a.tail + (a.label,)
    for fn in (g.id_of, g.out_arcs, lambda u: eulerian_cycle(g, u), lambda u: walk_label_target(g, u, u),
               lambda u: count_converging_spanning_trees(g, u), lambda u: count_eulerian_cycles(g, u),
               lambda u: enumerate_eulerian_cycles(g, u, cap=2), lambda u: minimal_eulerian_label(g, u),
               lambda u: classify_vertex(analyze_max_arcs(g), u)):
        same_for_every_form(word_forms(v), fn)
    same_for_every_form(word_forms(word), lambda w: word_to_arc(g, w))
    same_for_every_form(word_forms(word), lambda w: is_circular_word(g.language, w))
    same_for_every_form(word_forms(word), lambda w: Language(g.alphabet, [w, (1, 1)]))
    assert same_for_every_form(arc_forms(a), lambda x: x in g)
    same_for_every_form(arc_forms(a), lambda x: arc_to_word(g, x))
    same_for_every_form(arc_forms(a), lambda x: export_dot(g, [x]))
    same_for_every_form(arc_forms(a), lambda x: Walk(x[0], [x]))
    same_for_every_form(
        [[f(b) for b in g.arcs] for f in (lambda b: b, tuple, lambda b: [list(b[0]), b[1], list(b[2])])],
        lambda xs: graph_from_arcs(g.span, g.alphabet, xs).out,
    )


@settings(max_examples=10)
@given(vertices, st.sampled_from(BAD_WORDS), st.sampled_from(BAD_ARCS))
def test_malformed_input_is_a_value_error_or_a_no(v, bad, bad_arc):
    g = GOLDEN4
    assert g.id_of(bad) is None and g.out_arcs(bad) == () and bad_arc not in g
    for fn in (lambda: eulerian_cycle(g, bad), lambda: walk_label_target(g, bad, v),
               lambda: walk_label_target(g, v, bad), lambda: count_converging_spanning_trees(g, bad),
               lambda: enumerate_eulerian_cycles(g, bad), lambda: minimal_eulerian_label(g, bad),
               lambda: classify_vertex(analyze_max_arcs(g), bad), lambda: word_to_arc(g, bad),
               lambda: is_circular_word(g.language, bad), lambda: Language(g.alphabet, [bad]),
               lambda: Walk(bad, ()), lambda: walk_avoiding(g, AvoidSet(bad, {})),
               lambda: check_cycle_label_blocks(analyze_max_arcs(BLOCKED), bad),
               lambda: arc_to_word(g, bad_arc), lambda: export_dot(g, [bad_arc]),
               lambda: Walk(v, [bad_arc]), lambda: Walk(v, 5), lambda: AvoidSet(v, 5),
               lambda: graph_from_arcs(g.span, g.alphabet, [bad_arc]), lambda: Language(g.alphabet, 5)):
        with pytest.raises(ValueError):
            fn()


def test_walks_and_avoid_sets_read_every_form_alike():
    g = GOLDEN4
    greedy = minimal_walk(g)
    # The greedy walk of golden mean span 4 is Eulerian, and a hand-made
    # copy with list words is too, and prints so.
    for steps in ([tuple(a) for a in greedy.steps], [[list(a[0]), a[1], list(a[2])] for a in greedy.steps]):
        walk = Walk(list(greedy.start), steps)
        assert walk == greedy and walk.is_eulerian(g)
        assert walk_to_json(walk, g) == walk_to_json(greedy, g) and walk_to_json(walk, g)["eulerian"]
        assert exhaustion_order(walk, g) == exhaustion_order(greedy, g)
    t = analyze_max_arcs(BLOCKED)
    reserved = t.avoid_set().arc_by_vertex
    for root, by_vertex in ((t.root, reserved), (list(t.root), {v: list(a) for v, a in reserved.items()})):
        avoid = AvoidSet(root, by_vertex)
        assert walk_avoiding(BLOCKED, avoid) == walk_avoiding(BLOCKED, t.avoid_set())
        assert verify_exhaustion_order(BLOCKED, avoid) == verify_exhaustion_order(BLOCKED, t.avoid_set())
    cycle = t.cycles[0]
    want = check_cycle_label_blocks(t, cycle)
    assert check_cycle_label_blocks(t, [list(u) for u in cycle]) == want


def test_alphabet_keeps_its_symbols_as_a_tuple():
    listed = Alphabet(["0", "1"])
    assert listed == Alphabet(("0", "1")) == Alphabet.from_text("01")
    assert listed.symbols == ("0", "1")
    assert hash(listed) == hash(Alphabet(("0", "1")))
    assert hash(Language(listed, [[1, 1]])) == hash(Language.from_text("01", ["11"]))


@pytest.mark.parametrize("matrix", [[[0.5, 0], [0, 4]], [[1.5, 1], [1, 1]], [{0: 2.0}], [["1"]]])
def test_integer_determinant_refuses_entries_that_are_not_ints(matrix):
    with pytest.raises(ValueError, match="must be integers"):
        integer_determinant(matrix)


def test_cap_and_max_arcs_must_be_ints():
    g = GOLDEN4
    with pytest.raises(ValueError, match="cap must be at least 1"):
        enumerate_eulerian_cycles(g, g.max_vertex, cap=1.5)
    with pytest.raises(ValueError, match="max_arcs must be an integer"):
        minimal_eulerian_label(g, g.max_vertex, max_arcs="40")


@pytest.mark.parametrize("span", [2.0, 2.5, 3.0, 5.0, True, "3", None])
def test_a_span_or_word_length_must_be_an_int(span):
    # One rule for every length: an int, not a float or a bool, and >= 1.
    lang = Language.from_text("01", ["11"])
    calls = [
        lambda: build_graph(lang, span), lambda: check_irreducible(lang, span),
        lambda: enumerate_words(lang, span), lambda: estimate_growth_rate(lang, span),
        lambda: graph_from_arcs(span, lang.alphabet, [Arc((0,), 0, (0,))]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer"):
            call()
