"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; any assertion failure prints its FAIL line first.
"""

import time

from debruijn_sft import (
    Arc,
    Language,
    build_graph,
    certify_minimal_walk,
    count_eulerian_cycles,
    decide_minimal_is_eulerian,
    check_cycle_label_blocks,
    enumerate_eulerian_cycles,
    enumerate_words,
    estimate_growth_rate,
    eulerian_cycle,
    global_minimal_label,
    minimal_eulerian_label,
    minimal_walk,
    verify_cycle_structure,
    verify_exhaustion_order,
    verify_floor_paths,
    verify_greedy_decision,
    verify_label_monotonicity,
    verify_overlap_bounds,
)
from debruijn_sft.cli import main

from corpus import (
    ALL_INSTANCES,
    IRREDUCIBLE_INSTANCES,
    cyclic_windows,
    graph_of,
    language_of,
    random_instances,
)

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


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_golden_mean_span5_graph(capsys):
    t0 = time.perf_counter()
    code = main(["graph", "--alphabet", "01", "--forbid", "11", "--span", "5"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    g = build_graph(Language.from_text("01", ("11",)), 5)
    a = g.alphabet
    expected = {Arc(a.word(t), a.rank(l), a.word(h)) for t, l, h in GOLDEN5_ARCS}
    ok = (
        code == 0
        and "vertices 13" in out
        and "arcs 18" in out
        and set(g.arcs) == expected
        and Arc(a.word("00000"), 0, a.word("00000")) in expected
        and Arc(a.word("01010"), 1, a.word("10101")) in expected
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, "span-5 golden-mean graph matches arc-for-arc", ok,
               f"{elapsed:.3f}s")


def test_criterion_2_every_instance_yields_full_sequence():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for spec in IRREDUCIBLE_INSTANCES:
        g = graph_of(spec)
        walk = eulerian_cycle(g, g.max_vertex)
        words = sorted(enumerate_words(language_of(spec), spec[2] + 1))
        if not (walk.is_eulerian(g) and cyclic_windows(walk.label, spec[2] + 1) == words):
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    report(2, "sequence covers every word exactly once on the corpus",
           ok and elapsed < 10.0, f"{checked} instances, {elapsed:.2f}s")


def test_criterion_3_decision_criteria_agree_three_ways():
    instances = ALL_INSTANCES + random_instances(50)
    failures = []
    for spec in instances:
        g = graph_of(spec)
        decision = decide_minimal_is_eulerian(g)  # raises if criteria split
        walking = minimal_walk(g).is_eulerian(g)
        if not (decision.via_tree == decision.via_obstructions == walking):
            failures.append(spec)
    report(3, "cycles, obstruction words and the walk agree everywhere",
           not failures, f"{len(instances)} instances")


def test_criterion_4_unrestricted_greedy_is_minimal():
    ok = True
    for n in (2, 3, 4):
        g = graph_of(("01", (), n))
        greedy = minimal_walk(g)
        oracle = minimal_eulerian_label(g, g.max_vertex, max_arcs=32)
        if not (greedy.is_eulerian(g) and greedy.label == oracle):
            ok = False
        if n == 3 and g.alphabet.text(greedy.label) != "0000100110101111":
            ok = False
    report(4, "greedy equals oracle minimum on unrestricted binary spans 2-4", ok)


def test_criterion_5_blocked_greedy_instance():
    g = graph_of(("01", ("01111",), 4))
    decision = decide_minimal_is_eulerian(g)
    greedy = minimal_walk(g)
    circuit = eulerian_cycle(g, g.max_vertex)
    verdict = certify_minimal_walk(g, max_arcs=26)
    ok = (
        len(g.vertices) == 15
        and decision.answer is False
        and decision.via_tree is False
        and decision.via_obstructions is False
        and not greedy.is_eulerian(g)
        and circuit.is_eulerian(g)
        and verdict.passed
    )
    report(5, "restricted instance: decision false, circuit still exists", ok)


def test_criterion_6_lemma_suite_zero_violations():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for spec in ALL_INSTANCES + random_instances(20):
        g = graph_of(spec)
        decision = decide_minimal_is_eulerian(g)
        t = decision.analysis
        reports = [
            verify_exhaustion_order(g, t.avoid_set()),
            verify_label_monotonicity(t),
            verify_cycle_structure(t),
            verify_overlap_bounds(t),
            verify_floor_paths(t),
            verify_greedy_decision(decision),
        ]
        reports.extend(check_cycle_label_blocks(t, c) for c in t.cycles)
        checked += sum(r.checks for r in reports)
        bad.extend((spec, r.name, r.violations) for r in reports if not r.ok)
    elapsed = time.perf_counter() - t0
    report(6, "every structural verifier reports zero violations",
           not bad and elapsed < 30.0, f"{checked} checks, {elapsed:.2f}s")


def test_criterion_7_exact_count_matches_backtracking():
    specs = [spec for spec in ALL_INSTANCES if len(graph_of(spec).arcs) <= 20]
    assert ("01", ("11",), 5) in specs        # 18-arc instance
    assert ("01", (), 2) in specs and ("01", (), 3) in specs
    ok = True
    for spec in specs:
        g = graph_of(spec)
        result = enumerate_eulerian_cycles(g, g.max_vertex, max_arcs=20)
        first = g.out_arcs(g.max_vertex)[0]
        fixed = sum(1 for w in result.walks if w.steps[0] == first)
        if result.truncated or fixed != count_eulerian_cycles(g, g.max_vertex):
            ok = False
            break
    report(7, "determinant count equals exhaustive count (fixed first arc)",
           ok, f"{len(specs)} graphs")


def test_criterion_8_growth_rate_estimate():
    estimate = estimate_growth_rate(Language.from_text("01", ("11",)), 12)
    report(8, "growth-rate estimate within 0.05 of 1.6180", abs(estimate - 1.6180) <= 0.05,
           f"{estimate:.5f}")


def test_criterion_9_global_minimum_witness():
    witnesses = []
    agree = True
    for spec in ALL_INSTANCES:
        g = graph_of(spec)
        if len(g.arcs) > 20:
            continue
        best = global_minimal_label(g)
        from_max = minimal_eulerian_label(g, g.max_vertex)
        if best.label > from_max:
            agree = False
        if best.label < from_max:
            witnesses.append((spec, g.alphabet.text(best.start), g.alphabet.text(best.label)))
    g2 = graph_of(("01", ("11",), 2))
    best2 = global_minimal_label(g2)
    golden_witness = (
        g2.alphabet.text(best2.start) == "01"
        and g2.alphabet.text(best2.label) == "0001"
        and best2.start != g2.max_vertex
    )
    report(9, "a global minimum starts away from the maximal vertex",
           agree and golden_witness and bool(witnesses),
           f"witnesses: {witnesses[:3]}")
