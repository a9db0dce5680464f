import re

import pytest

from debruijn_sft import (
    Arc,
    DeBruijnGraph,
    Language,
    NotEulerianError,
    TooLargeError,
    build_graph,
    certify_minimal_walk,
    count_eulerian_cycles,
    decide_minimal_is_eulerian,
    enumerate_eulerian_cycles,
    global_minimal_label,
    graph_from_arcs,
    minimal_eulerian_label,
    minimal_walk,
    verdict_to_json,
)
from debruijn_sft import oracle
from debruijn_sft.language import Alphabet

from corpus import (
    ALL_INSTANCES, graph_of, oracle_enumerate_eulerian_cycles, random_balanced_graphs,
    random_hand_built_graphs,
)

BINARY = Alphabet.from_text("01")


def test_enumeration_complete_and_sorted():
    g = graph_of(("01", (), 2))
    result = enumerate_eulerian_cycles(g, g.max_vertex)
    assert not result.truncated
    labels = [w.label for w in result.walks]
    assert labels == sorted(labels)
    assert len(set(w.steps for w in result.walks)) == len(result.walks)
    for w in result.walks:
        assert w.is_eulerian(g)
    best = count_eulerian_cycles(g, g.max_vertex)
    assert len(result.walks) == best * len(g.out_arcs(g.max_vertex))


def reference_graphs() -> list[DeBruijnGraph]:
    # The hand-built graphs have at most 18 arcs; most have no circuit,
    # and in a few two starts share the least label.
    graphs = [graph_of(spec) for spec in ALL_INSTANCES]
    return (
        [g for g in graphs if len(g.heads) <= 24]
        + random_balanced_graphs(100, seed=11)
        + random_hand_built_graphs(200, seed=3)
    )


def test_enumeration_matches_tuple_reference():
    # Every circuit from the maximal vertex, and the first few from every
    # vertex; the random graphs have self-loops, arbitrary heads, and some
    # are not connected.
    for g in reference_graphs():
        runs = [(g.max_vertex, None)] + [(v, cap) for v in g.vertices for cap in (1, 2, 3)]
        for start, cap in runs:
            want, truncated = oracle_enumerate_eulerian_cycles(g, start, cap)
            got = enumerate_eulerian_cycles(g, start, cap=cap, max_arcs=len(g.heads))
            assert got.truncated == truncated, (g.arcs, start, cap)
            assert [(w.start, w.steps, w.label) for w in got.walks] == [
                (w.start, w.steps, w.label) for w in want
            ], (g.arcs, start, cap)


def test_global_minimum_matches_tuple_reference():
    # Each start's search is bounded by the best label before it, so the
    # inputs must include graphs with no circuit and graphs whose least
    # label is shared by two starts, where the first start must win.
    seen = {"no circuit": 0, "tie": 0}
    for g in reference_graphs():
        firsts = [oracle_enumerate_eulerian_cycles(g, v, 1)[0] for v in g.vertices]
        if not all(firsts):
            seen["no circuit"] += 1
            with pytest.raises(NotEulerianError, match=re.escape(f"from {g.vertices[0]}")):
                global_minimal_label(g)
            continue
        label, start = min((walks[0].label, walks[0].start) for walks in firsts)
        seen["tie"] += [walks[0].label for walks in firsts].count(label) > 1
        best = global_minimal_label(g)
        assert (best.label, best.start) == (label, start), g.arcs
    assert all(seen.values()), seen


def test_enumeration_two_cycle():
    g = graph_from_arcs(1, BINARY, [Arc((0,), 1, (1,)), Arc((1,), 0, (0,))])
    result = enumerate_eulerian_cycles(g, (0,))
    assert len(result.walks) == 1 and not result.truncated


def test_enumeration_cap_truncates():
    g = graph_of(("01", (), 3))
    result = enumerate_eulerian_cycles(g, g.max_vertex, cap=3)
    assert result.truncated
    assert len(result.walks) == 3


@pytest.mark.parametrize("cap", [0, -3])
def test_enumeration_rejects_cap_below_one(cap):
    g = graph_of(("01", (), 3))
    with pytest.raises(ValueError, match="cap must be at least 1"):
        enumerate_eulerian_cycles(g, g.max_vertex, cap=cap)


def test_size_guard():
    g = graph_of(("01", (), 4))  # 32 arcs
    with pytest.raises(TooLargeError):
        enumerate_eulerian_cycles(g, g.max_vertex)
    with pytest.raises(TooLargeError):
        minimal_eulerian_label(g, g.max_vertex)
    with pytest.raises(TooLargeError):
        global_minimal_label(g)


def test_refused_certification_neither_walks_nor_decides(monkeypatch):
    def unreachable(g):
        raise AssertionError("ran before the arc bound was checked")

    monkeypatch.setattr(oracle, "minimal_walk", unreachable)
    monkeypatch.setattr(oracle, "decide_minimal_is_eulerian", unreachable)
    with pytest.raises(TooLargeError):
        certify_minimal_walk(graph_of(("01", ("11",), 5)), max_arcs=17)   # 18 arcs


def test_minimal_label_full_binary_span3():
    g = graph_of(("01", (), 3))
    label = minimal_eulerian_label(g, g.max_vertex)
    assert g.alphabet.text(label) == "0000100110101111"


def test_minimal_label_self_loops():
    g = graph_from_arcs(1, BINARY, [Arc((0,), 0, (0,)), Arc((0,), 1, (0,))])
    assert minimal_eulerian_label(g, (0,)) == (0, 1)


def test_minimal_label_without_circuit_raises():
    g = graph_from_arcs(1, BINARY, [Arc((0,), 1, (1,)), Arc((1,), 1, (1,))])
    with pytest.raises(NotEulerianError):
        minimal_eulerian_label(g, (0,))


def test_minimal_label_lower_bounds_enumeration():
    g = graph_of(("01", ("11",), 5))
    best = minimal_eulerian_label(g, g.max_vertex)
    result = enumerate_eulerian_cycles(g, g.max_vertex)
    assert best == min(w.label for w in result.walks)


def test_greedy_equals_oracle_when_decision_true():
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        if len(g.arcs) > 24:
            continue
        decision = decide_minimal_is_eulerian(g)
        if decision.answer:
            greedy = minimal_walk(g)
            assert greedy.label == minimal_eulerian_label(g, g.max_vertex), spec


def test_global_minimum_examples():
    g = graph_of(("01", (), 2))
    best = global_minimal_label(g)
    assert g.alphabet.text(best.label).startswith("0001")

    # Witness that the maximal vertex is not always the best start.
    g2 = graph_of(("01", ("11",), 2))
    best2 = global_minimal_label(g2)
    assert g2.alphabet.text(best2.start) == "01"
    assert g2.alphabet.text(best2.label) == "0001"
    assert best2.start != g2.max_vertex
    assert g2.alphabet.text(minimal_eulerian_label(g2, g2.max_vertex)) == "0010"

    g3 = graph_from_arcs(1, BINARY, [Arc((0,), 1, (1,)), Arc((1,), 0, (0,))])
    best3 = global_minimal_label(g3)
    assert best3.label == (0, 1) and best3.start == (1,)


def test_global_minimum_never_exceeds_start_at_max_vertex():
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        if len(g.arcs) > 20:
            continue
        best = global_minimal_label(g)
        assert best.label <= minimal_eulerian_label(g, g.max_vertex), spec


def test_certify_corpus():
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        if len(g.arcs) > 26:
            continue
        verdict = certify_minimal_walk(g, max_arcs=26)
        assert verdict.passed, spec


def test_certify_blocked_instance_fields():
    g = graph_of(("01", ("01111",), 4))
    verdict = certify_minimal_walk(g, max_arcs=26)
    assert verdict.passed
    assert not verdict.greedy_eulerian
    assert not verdict.decision
    assert verdict.oracle_label != verdict.greedy_label
    data = verdict_to_json(verdict, g)
    assert set(data) == {"greedyLabel", "greedyEulerian", "oracleLabel", "decision", "pass"}
    assert data["pass"] is True
