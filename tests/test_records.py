"""The public classes behave as records: they copy and pickle, refuse
assignment, print as `Name(field=...)`, and compare by value, or by
identity for the graph, its analysis and its avoid set."""

import copy
import pickle

import pytest

from debruijn_sft import (
    Alphabet,
    Arc,
    Language,
    analyze_max_arcs,
    build_graph,
    certify_minimal_walk,
    check_irreducible,
    classify_vertex,
    decide_minimal_is_eulerian,
    enumerate_eulerian_cycles,
    enumerate_obstructions,
    global_minimal_label,
    minimal_walk,
    verify_cycle_structure,
)

GOLDEN = Language.from_text("01", ("11",))
G = build_graph(GOLDEN, 5)
BLOCKED = build_graph(Language.from_text("01", ("01111",)), 4)

# (class name, first field, factory); each call of a factory makes a new,
# equal record.
VALUE_RECORDS = [
    ("Alphabet", "symbols", lambda: Alphabet.from_text("01")),
    ("Language", "alphabet", lambda: Language.from_text("01", ("11",))),
    ("Arc", "tail", lambda: Arc((0, 1), 1, (1, 1))),
    ("IrreducibilityReport", "irreducible", lambda: check_irreducible(GOLDEN, 5)),
    ("Walk", "start", lambda: minimal_walk(G)),
    ("VertexClass", "overlap", lambda: classify_vertex(analyze_max_arcs(G), G.vertices[0])),
    ("Obstruction", "word", lambda: enumerate_obstructions(BLOCKED)[0]),
    ("Decision", "answer", lambda: decide_minimal_is_eulerian(BLOCKED)),
    ("VerificationReport", "name", lambda: verify_cycle_structure(analyze_max_arcs(BLOCKED))),
    ("EnumerationResult", "walks", lambda: enumerate_eulerian_cycles(G, G.max_vertex, cap=2)),
    ("GlobalMinimum", "start", lambda: global_minimal_label(G)),
    ("Verdict", "greedy_label", lambda: certify_minimal_walk(G)),
]

# (class name, first field, factory, a table made on first read).
IDENTITY_RECORDS = [
    ("DeBruijnGraph", "span", lambda: build_graph(GOLDEN, 5), "arcs"),
    ("MaxArcAnalysis", "graph", lambda: analyze_max_arcs(BLOCKED), "cycles"),
    ("AvoidSet", "root", lambda: analyze_max_arcs(G).avoid_set(), "arc_by_vertex"),
]


def copies(x):
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


def assert_frozen_with_repr(x, name, field):
    assert type(x).__name__ == name
    assert repr(x).startswith(f"{name}({field}=")
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(x, field))
    with pytest.raises(AttributeError):
        delattr(x, field)


@pytest.mark.parametrize("name, field, make", VALUE_RECORDS, ids=[c[0] for c in VALUE_RECORDS])
def test_value_record_semantics(name, field, make):
    x, twin = make(), make()
    assert x is not twin
    assert x == twin and hash(x) == hash(twin)
    assert not x != twin
    for c in copies(x):
        assert type(c) is type(x)
        assert c == x and hash(c) == hash(x)
    assert_frozen_with_repr(x, name, field)


@pytest.mark.parametrize(
    "name, field, make, table", IDENTITY_RECORDS, ids=[c[0] for c in IDENTITY_RECORDS],
)
def test_identity_record_semantics(name, field, make, table):
    x = make()
    assert x == x and x != make()
    for c in copies(x):
        assert type(c) is type(x)
        assert c != x
        assert getattr(c, table) == getattr(x, table)
    # A table made on first read is kept, and cannot be assigned either.
    assert getattr(x, table) is getattr(x, table)
    assert_frozen_with_repr(x, name, field)
    with pytest.raises(AttributeError):
        setattr(x, table, None)


def test_decision_leaves_its_analysis_out_of_equality_and_repr():
    first, second = decide_minimal_is_eulerian(BLOCKED), decide_minimal_is_eulerian(BLOCKED)
    assert first.analysis is not second.analysis
    assert first == second and hash(first) == hash(second)
    assert "analysis" not in repr(first)
    assert first.analysis.graph is BLOCKED
    assert first != decide_minimal_is_eulerian(G)


@pytest.mark.parametrize("make, message", [
    (lambda: Alphabet(("0",)), "alphabet needs at least 2 symbols"),
    (lambda: Alphabet(("0", "1", "0")), "alphabet symbols must be distinct"),
    (lambda: Language(Alphabet.from_text("01"), frozenset({()})), "forbidden words must be nonempty"),
    (lambda: Language(Alphabet.from_text("01"), frozenset({(0, 2)})),
     r"forbidden word \(0, 2\) uses symbols outside the alphabet"),
], ids=["one-symbol", "repeated-symbol", "empty-word", "foreign-symbol"])
def test_alphabet_and_language_refuse_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()
