"""Property tests over random languages and random command lines.

Enumeration, the main-component choice and the irreducibility check are
compared with the brute-force oracles of `corpus`, the components of the
raw span-n digraph with its dict-based Tarjan, its id tables with the
rank -> id numbering of `corpus.oracle_span_tables`, and the whole graph
with the tuple-based build of `corpus.oracle_build_graph`; the
greedy-walk decision is compared with the greedy walk itself at spans
past the oracles' reach; the tree count on hand-built graphs full of
twins with the Bareiss determinant of the uncontracted Laplacian at
every root; the CLI is fed random flags and must answer every one with
exit 0, 1 or 2.
The module skips without hypothesis.
"""

import contextlib
import io
import warnings

import pytest

from debruijn_sft import (
    AmbiguousComponentError,
    Arc,
    EmptyGraphError,
    Language,
    build_graph,
    check_irreducible,
    count_converging_spanning_trees,
    decide_minimal_is_eulerian,
    enumerate_words,
    graph_from_arcs,
    minimal_walk,
)
from debruijn_sft.cli import main
from debruijn_sft.graph import _span_digraph
from debruijn_sft.language import Alphabet, enumerate_ranks

from corpus import (
    oracle_build_graph, oracle_determinant, oracle_main_component, oracle_span_tables,
    oracle_suffix_words, oracle_tarjan, oracle_words, reduced_laplacian,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


@st.composite
def languages(draw):
    alphabet = draw(st.sampled_from(["01", "012"]))
    forbidden = draw(st.lists(st.text(alphabet, min_size=1, max_size=6), max_size=3))
    return Language.from_text(alphabet, forbidden)


spans = st.integers(1, 7)


def kept_words(lang: Language, n: int) -> set:
    """The words carried by the arcs of build_graph(lang, n)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # spans shorter than a forbidden word
        g = build_graph(lang, n)
    return {a.tail + (a.label,) for a in g.arcs}


def outcome(fn, *args):
    """What fn returns, or the class of the component error it raises."""
    try:
        return fn(*args)
    except (EmptyGraphError, AmbiguousComponentError) as exc:
        return type(exc)


# A forbidden word longer than the span: its test wraps round the seam
# more than once.
@example(Language.from_text("01", ["010101"]), 2)
@example(Language.from_text("012", ["000000", "12"]), 1)
@given(languages(), spans)
def test_enumeration_matches_cube_filter(lang, n):
    assert enumerate_words(lang, n) == oracle_words(lang, n)


@example(Language.from_text("01", ["01111"]), 4)   # a stray self-loop component
@example(Language.from_text("01", ["01", "10"]), 2)   # two tied loops
@given(languages(), spans)
def test_graph_keeps_the_main_component(lang, n):
    words = enumerate_words(lang, n + 1)
    if not words:
        return
    assert outcome(kept_words, lang, n) == outcome(oracle_main_component, words, n)


@example(Language.from_text("01", ["01111"]), 4)
@given(languages(), spans)
def test_irreducible_exactly_when_every_word_is_kept(lang, n):
    words = enumerate_words(lang, n + 1)
    report = check_irreducible(lang, n)
    kept = outcome(kept_words, lang, n) if words else EmptyGraphError
    assert report.irreducible == (kept == set(words))
    if isinstance(kept, set):
        assert set(report.excluded) == set(words) - kept


@st.composite
def instances(draw):
    """A language over 2-4 letters with a span, forbidden words up to 9
    letters long, so some are longer than span + 1."""
    alphabet, top = draw(st.sampled_from([("01", 8), ("012", 5), ("0123", 4)]))
    forbidden = draw(st.lists(st.text(alphabet, min_size=1, max_size=9), max_size=4))
    return Language.from_text(alphabet, forbidden), draw(st.integers(1, top))


def build_outcome(build, lang, n):
    """Every field of the graph, the out-arc table in order, or the error
    raised; then the warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = build(lang, n)
        except (EmptyGraphError, AmbiguousComponentError) as exc:
            result = (type(exc), str(exc))
        else:
            result = (g.span, g.alphabet, g.language, g.vertices, g.arcs,
                      list(g.out.items()), g.max_vertex)
    return result, [str(w.message) for w in caught]


# Only a failure link shows that 100 ends with the forbidden 00.
@example((Language.from_text("01", ["1001", "00"]), 4))
@example((Language.from_text("01", ["01111"]), 4))        # a stray component
@example((Language.from_text("01", ["01", "10"]), 2))      # two tied loops
@example((Language.from_text("012", ["0120120"]), 2))     # longer than n + 1
@example((Language.from_text("0123", ["0", "1", "2", "3"]), 1))   # no words
@settings(max_examples=300, deadline=None)
@given(instances())
def test_build_graph_matches_tuple_oracle(instance):
    lang, n = instance
    assert build_outcome(build_graph, lang, n) == build_outcome(oracle_build_graph, lang, n)


@example((Language.from_text("01", ["01111"]), 4))        # a stray component
@example((Language.from_text("01", ["01", "10"]), 2))      # two tied loops
@settings(max_examples=300, deadline=None)
@given(instances())
def test_span_digraph_components_are_closed_and_the_first_largest_wins(instance):
    # The reachability pass in _span_digraph is right only because no arc
    # of a language graph joins two components; Tarjan checks that here.
    lang, n = instance
    found = _span_digraph(lang, n)
    if found is None:
        return
    _, first, heads, _, inside, ties, best = found
    succ = [heads[first[v] : first[v + 1]] for v in range(len(inside))]
    comps = oracle_tarjan(range(len(succ)), lambda v: succ[v])
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    assert all(comp_of[t] == comp_of[h] for t, heads in enumerate(succ) for h in heads)
    arcs = [0] * len(comps)
    for t, heads in enumerate(succ):
        arcs[comp_of[t]] += sum(comp_of[h] == comp_of[t] for h in heads)
    most = max(arcs)
    keep = arcs.index(most)   # the first completed of the largest
    assert inside == [comp_of[v] == keep for v in range(len(succ))]
    assert (ties, best) == (arcs.count(most), most)


@example((Language.from_text("01", ["01111"]), 4))        # a stray component
@example((Language.from_text("01", ["01", "10"]), 2))      # two tied loops
@example((Language.from_text("0123", ["0", "1", "2", "3"]), 1))   # no words
@settings(max_examples=300, deadline=None)
@given(instances())
def test_span_digraph_numbers_heads_by_rotation(instance):
    # The heads of the words that start with a are the tails of the arcs
    # labeled a; the oracle numbers them through a rank -> id dict.
    lang, n = instance
    found = _span_digraph(lang, n)
    tables = oracle_span_tables(lang, n)
    if found is None:
        assert tables is None
        return
    ranks, first, heads, labels = found[:4]
    assert (ranks, first, heads, labels) == tables
    k = lang.alphabet.size
    assert [ranks[h] for h in heads] == [c % k ** n for c in enumerate_ranks(lang, n + 1)]


@example((Language.from_text("01", ["1001", "00"]), 6))
@settings(max_examples=200, deadline=None)
@given(instances())
def test_enumeration_matches_suffix_test_oracle(instance):
    lang, n = instance
    assert enumerate_words(lang, n + 1) == oracle_suffix_words(lang, n + 1)


@st.composite
def wide_instances(draw):
    """A language with a span: binary up to 12, ternary up to 7."""
    alphabet, top = draw(st.sampled_from([("01", 12), ("012", 7)]))
    forbidden = draw(st.lists(st.text(alphabet, min_size=1, max_size=6), max_size=3))
    return Language.from_text(alphabet, forbidden), draw(st.integers(1, top))


@settings(max_examples=120, deadline=None)
@given(wide_instances())
def test_decision_matches_greedy_walk_coverage(instance):
    lang, n = instance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # spans shorter than a forbidden word
        g = outcome(build_graph, lang, n)
    if isinstance(g, type):
        return
    assert decide_minimal_is_eulerian(g).answer == minimal_walk(g).is_eulerian(g)


@st.composite
def hand_built_graphs(draw):
    """Graphs assembled arc by arc, as `corpus.random_hand_built_graphs`
    makes them: spans 1-3, alphabets 01 or 012, 2-6 vertices, distinct
    labels per tail and arbitrary heads. Each vertex takes its heads from
    one of at most three lists, in some order, so twins are common, and
    parallel arcs and self-loops come up too."""
    alphabet = Alphabet.from_text(draw(st.sampled_from(["01", "012"])))
    span = draw(st.integers(1, 3))
    word = st.tuples(*[st.integers(0, alphabet.size - 1)] * span)
    vertices = draw(st.lists(word, min_size=2, max_size=6, unique=True))
    vertex = st.sampled_from(vertices)
    heads = st.lists(vertex, max_size=alphabet.size)
    lists = [draw(st.lists(vertex, min_size=1, max_size=alphabet.size))]
    lists += draw(st.lists(heads, max_size=2))
    shared = st.sampled_from(lists).flatmap(st.permutations)
    # The first vertex takes the first list, so the graph has an arc.
    arcs = [Arc(v, label, h)
            for i, v in enumerate(vertices)
            for label, h in enumerate(lists[0] if i == 0 else draw(shared))]
    return graph_from_arcs(span, alphabet, arcs)


@settings(max_examples=200, deadline=None)
@given(hand_built_graphs())
def test_tree_count_on_the_twin_quotient_matches_the_full_laplacian(g):
    for root in g.vertices:
        others = [v for v in g.vertices if v != root]
        expected = oracle_determinant(reduced_laplacian(g, others))
        assert count_converging_spanning_trees(g, root) == expected, (g.arcs, root)


COMMANDS = ("words", "graph", "seq", "minimal", "check", "count", "oracle", "verify")
TAKES_JSON_FLAG = {"words", "seq", "minimal", "check", "count", "oracle"}


@st.composite
def command_lines(draw):
    """Mostly well-formed command lines, with a bad value now and then:
    no or an invalid alphabet, empty or out-of-alphabet forbidden words,
    span 0, a start vertex outside the graph, a negative arc bound."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    alphabet = draw(st.sampled_from(["01", "012", "ba"] * 3 + ["0", "00", "", None]))
    if alphabet is not None:
        argv += ["--alphabet", alphabet]
    letters = alphabet or "01"
    for word in draw(st.lists(st.text(letters, min_size=1, max_size=4), max_size=3)):
        argv += ["--forbid", word]
    bad_word = draw(st.sampled_from([None] * 8 + ["", "3"]))
    if bad_word is not None:
        argv += ["--forbid", bad_word]
    span = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 0]))
    argv += ["--span", str(span)]
    if command == "seq" and draw(st.booleans()):
        vertex = st.text(letters, min_size=span, max_size=span)
        argv += ["--start", draw(vertex | st.text(letters + "3", max_size=7))]
    if command == "oracle":
        if draw(st.booleans()):
            argv += ["--max-arcs", str(draw(st.integers(-1, 30)))]
        if draw(st.booleans()):
            argv.append("--global")
    if command in TAKES_JSON_FLAG and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200)
@given(command_lines())
def test_cli_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejected the flags
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
