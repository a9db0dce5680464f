import random

import pytest

from debruijn_sft.scc import strongly_connected_components, tarjan

from corpus import oracle_tarjan


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


def random_digraphs(count, seed=7):
    """(vertex list, successor dict) pairs: string vertices, up to 25 of
    them, any arcs including loops and repeats. The vertex list may repeat
    a vertex or leave one out, so some are only reached through arcs."""
    rng = random.Random(seed)
    for _ in range(count):
        names = [f"v{i}" for i in range(rng.randint(1, 25))]
        succ = {v: [rng.choice(names) for _ in range(rng.randint(0, 3))] for v in names}
        listed = rng.sample(names, rng.randint(1, len(names)))
        yield listed + rng.choices(listed, k=rng.randint(0, 2)), succ


def test_components_and_completion_order_match_dict_tarjan():
    for vertices, succ in random_digraphs(300):
        assert (strongly_connected_components(vertices, lambda v: succ[v])
                == oracle_tarjan(vertices, lambda v: succ[v]))


def test_tarjan_on_dense_ids_matches_dict_tarjan():
    for _, succ in random_digraphs(300, seed=8):
        ids = {v: i for i, v in enumerate(succ)}
        dense = [[ids[w] for w in heads] for heads in succ.values()]
        assert tarjan(dense) == oracle_tarjan(range(len(dense)), lambda v: dense[v])


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    for vertices, succ in random_digraphs(300, seed=9):
        reached, todo = set(vertices), list(vertices)
        while todo:
            for w in succ[todo.pop()]:
                if w not in reached:
                    reached.add(w)
                    todo.append(w)
        g = nx.DiGraph()
        g.add_nodes_from(reached)
        g.add_edges_from((v, w) for v in reached for w in succ[v])
        ours = {frozenset(c) for c in strongly_connected_components(vertices, lambda v: succ[v])}
        assert ours == {frozenset(c) for c in nx.strongly_connected_components(g)}
