from debruijn_sft.scc import largest_components, strongly_connected_components


def components(vertices, edges):
    succ = {v: [] for v in vertices}
    for a, b in edges:
        succ[a].append(b)
    comps = strongly_connected_components(vertices, lambda v: succ[v])
    return sorted(sorted(c) for c in comps)


def test_single_cycle():
    assert components([0, 1, 2], [(0, 1), (1, 2), (2, 0)]) == [[0, 1, 2]]


def test_chain_is_singletons():
    assert components([0, 1, 2], [(0, 1), (1, 2)]) == [[0], [1], [2]]


def test_two_cycles_with_bridge():
    edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
    assert components([0, 1, 2, 3], edges) == [[0, 1], [2, 3]]


def test_self_loop_is_its_own_component():
    assert components([0, 1], [(0, 0), (0, 1)]) == [[0], [1]]


def test_every_vertex_appears_exactly_once():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (5, 5)]
    comps = components(range(7), edges)
    flat = sorted(v for c in comps for v in c)
    assert flat == list(range(7))


def test_deep_chain_does_not_recurse():
    n = 5000
    vertices = list(range(n))
    succ = {v: ([v + 1] if v + 1 < n else []) for v in vertices}
    comps = strongly_connected_components(vertices, lambda v: succ[v])
    assert len(comps) == n


def test_long_cycle():
    n = 5000
    vertices = list(range(n))
    succ = {v: [(v + 1) % n] for v in vertices}
    comps = strongly_connected_components(vertices, lambda v: succ[v])
    assert len(comps) == 1
    assert len(comps[0]) == n


def test_largest_components_marks_the_arcs_of_the_main_component():
    # A 3-cycle, an arc out of it, and a self-loop beyond.
    arcs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)]
    assert largest_components(arcs) == ([True, True, True, False, False], 1, 3)


def test_largest_components_tie_keeps_the_first_completed():
    # Two 2-cycles joined by an arc; Tarjan completes {2, 3} first.
    arcs = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
    assert largest_components(arcs) == ([False, False, False, True, True], 2, 2)


def test_largest_components_without_internal_arcs():
    assert largest_components([(0, 1), (1, 2)]) == ([False, False], 0, 0)
