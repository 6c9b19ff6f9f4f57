import itertools

import numpy as np
import pytest

from tradeflow.community import (
    WeightedGraph,
    _Partitioner,
    detect_communities,
    map_equation_codelength,
    project_weighted,
)
from tradeflow.ingest import classify_states, filter_active
from tradeflow.svn import FdrConfig, LinkCandidate, ValidatedNetwork, build_svn
from tradeflow.synth import MarketSpec, generate_market


def _net(edge_specs):
    edges = [
        LinkCandidate(i=i, j=j, state_i=si, state_j=sj, co_count=1, n_i=1, n_j=1, T=100, p_value=0.0)
        for i, j, si, sj in edge_specs
    ]
    nodes = sorted({e.i for e in edges} | {e.j for e in edges})
    return ValidatedNetwork(nodes=nodes, edges=edges, threshold=1.0, n_tests=1, p0=0.05, T=100)


def test_projection_weight_counts_multiedges():
    g = project_weighted(_net([("a", "b", 1, 1), ("a", "b", -1, -1)]))
    assert g.nodes == ["a", "b"]
    assert g.adj[0] == {1: 2}


def test_projection_excludes_buy_sell_pairs():
    g = project_weighted(_net([("a", "b", 1, -1), ("a", "b", -1, 1)]))
    assert g.n_nodes == 0
    g = project_weighted(_net([("a", "b", 1, -1), ("a", "b", 1, 1)]))
    assert g.adj[0] == {1: 1}


def _clique_pair(size, bridges=1):
    n = 2 * size
    adj = [dict() for _ in range(n)]

    def add(i, j):
        adj[i][j] = 1
        adj[j][i] = 1

    for a, b in itertools.combinations(range(size), 2):
        add(a, b)
    for a, b in itertools.combinations(range(size, n), 2):
        add(a, b)
    for k in range(bridges):
        add(k, size + k)
    return WeightedGraph(nodes=list(range(n)), adj=adj)


def test_codelength_two_node_one_module():
    g = WeightedGraph(nodes=[0, 1], adj=[{1: 1}, {0: 1}])
    assert map_equation_codelength(g, [0, 0]) == pytest.approx(1.0)


def test_codelength_single_node_zero_bits():
    g = WeightedGraph(nodes=[0], adj=[{}])
    assert map_equation_codelength(g, [0]) == 0.0


def test_codelength_prefers_planted_split():
    g = _clique_pair(4)
    two = map_equation_codelength(g, [0] * 4 + [1] * 4)
    one = map_equation_codelength(g, [0] * 8)
    assert two < one


def test_codelength_relabel_invariant():
    g = _clique_pair(4)
    a = map_equation_codelength(g, [0, 0, 0, 0, 1, 1, 1, 1])
    b = map_equation_codelength(g, [7, 7, 7, 7, 3, 3, 3, 3])
    assert a == pytest.approx(b, rel=0, abs=0)


def test_codelength_pinned_value():
    # computed with the former numpy implementation; partition_meta.json
    # reports this arithmetic, so it must not move by a bit
    assert map_equation_codelength(_clique_pair(4), [0] * 4 + [1] * 4) == 2.4644851078704657


def test_move_score_is_exact_codelength_difference():
    # path 0-1-2-3 split {0,1}|{2,3}: node 1's link to 0 becomes a boundary
    # link of {1,2,3}, so the move costs bits
    g = WeightedGraph(nodes=[0, 1, 2, 3], adj=[{1: 1}, {0: 1, 2: 1}, {1: 1, 3: 1}, {2: 1}])
    part = _Partitioner(g.adj, [g.strength(k) for k in range(4)], 6)
    part._load([0, 0, 1, 1])
    score = part._delta(part._moved(1, 1, part._weights_to(1)))
    exact = map_equation_codelength(g, [0, 1, 1, 1]) - map_equation_codelength(g, [0, 0, 1, 1])
    assert exact == pytest.approx(0.2516, abs=1e-4)
    assert score == pytest.approx(exact, rel=0, abs=1e-12)


def _graph(edges):
    n = 1 + max(max(e) for e in edges)
    adj = [dict() for _ in range(n)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = 1
    return WeightedGraph(nodes=list(range(n)), adj=adj)


@pytest.mark.parametrize(
    "g",
    [
        _graph([(k, (k + 1) % 8) for k in range(8)]),
        _graph([(i, j) for i in range(3) for j in range(3, 6)]),
        _clique_pair(4, bridges=2),
    ],
    ids=["ring8", "k33", "two-k4-two-bridges"],
)
def test_symmetric_equal_cost_graphs_terminate(g, monkeypatch):
    # every accepted move or merge lowers L by more than 1e-12, so a run
    # commits finitely many changes; cycling between equal-cost states would not
    commits = []
    commit = _Partitioner._commit

    def counted(self, changed):
        commits.append(changed)
        assert len(commits) < 10_000, "move/merge cycle"
        commit(self, changed)

    monkeypatch.setattr(_Partitioner, "_commit", counted)
    part = detect_communities(g, seed=0, n_restarts=10)
    assert sorted(part) == g.nodes
    one = map_equation_codelength(g, [0] * g.n_nodes)
    assert map_equation_codelength(g, part) <= one + 1e-9


def _random_graph(n=40, links=300, seed=3):
    """Four planted blocks of ten, integer weights 1-3, sparse links between blocks."""
    rng = np.random.default_rng(seed)
    adj = [dict() for _ in range(n)]
    for _ in range(links):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        if i // 10 != j // 10 and rng.random() < 0.7:
            continue
        if i != j:
            adj[i][j] = adj[j][i] = adj[i].get(j, 0) + int(rng.integers(1, 4))
    return WeightedGraph(nodes=list(range(n)), adj=adj)


def test_move_and_merge_scores_are_exact():
    g = _random_graph()
    strengths = [g.strength(k) for k in range(g.n_nodes)]
    part = _Partitioner(g.adj, strengths, sum(strengths))
    rng = np.random.default_rng(0)
    for _ in range(5):
        labels = [int(x) for x in rng.integers(0, 6, size=g.n_nodes)]
        part._load(list(labels))
        base = map_equation_codelength(g, labels)
        for k in range(g.n_nodes):
            w_to = part._weights_to(k)
            for b in set(w_to) - {labels[k]}:
                moved = labels[:k] + [b] + labels[k + 1:]
                exact = map_equation_codelength(g, moved) - base
                assert part._delta(part._moved(k, b, w_to)) == pytest.approx(exact, rel=0, abs=1e-12)
        for a, b in itertools.combinations(sorted(set(labels)), 2):
            link = sum(w for k in range(g.n_nodes) if labels[k] == a for n, w in g.adj[k].items() if labels[n] == b)
            exact = map_equation_codelength(g, [a if m == b else m for m in labels]) - base
            assert part._delta(part._merged(a, b, link)) == pytest.approx(exact, rel=0, abs=1e-12)


def test_detect_pinned_partition():
    # computed with the former partitioner (full codelength re-check per move)
    expected = [1, 2, 1, 2, 1, 2, 1, 1, 3, 2, 4, 4, 4, 5, 1, 4, 4, 4, 3, 5,
                5, 5, 5, 3, 5, 3, 3, 1, 5, 4, 1, 4, 2, 4, 1, 4, 4, 4, 2, 4]
    part = detect_communities(_random_graph(), seed=11)
    assert [part[k] for k in range(40)] == expected


def test_detect_pinned_stability_window():
    # first 20-day window of the seed-7 stability benchmark market (250
    # traders): the one partition among the benchmark inputs that the exact
    # move score changed.  The former score kept noise00130 alone (14 groups,
    # 4.53399844808208 bits); now it joins planted group 5, 4.07e-6 bits higher
    spec = MarketSpec(group_sizes=(20,) * 12, n_noise_traders=400, alpha=1.5, sync_fidelity=0.9,
                      member_rate=1.0, n_weekdays=25, seed=7)
    trades, truth = generate_market(spec)
    matrix = classify_states(trades, truth.grid)
    days = matrix.grid.day_slices()
    window = matrix.slice_window(int(days[0][0]), int(days[19][-1]) + 1)
    g = project_weighted(build_svn(filter_active(window, 500, 100), FdrConfig(0.05)))
    part = detect_communities(g, seed=7)
    assert g.n_nodes == 250
    assert len(set(part.values())) == 13
    assert part["noise00130"] == part["g05m001"]
    assert map_equation_codelength(g, part) == pytest.approx(4.534002520463363, rel=0, abs=1e-12)


def test_codelength_empty_graph_errors():
    with pytest.raises(ValueError):
        map_equation_codelength(WeightedGraph(nodes=[], adj=[]), [])


def test_detect_recovers_planted_cliques():
    g = _clique_pair(10)
    part = detect_communities(g, seed=0)
    left = {part[k] for k in range(10)}
    right = {part[k] for k in range(10, 20)}
    assert len(left) == 1 and len(right) == 1 and left != right


def test_detect_deterministic_per_seed():
    g = _clique_pair(6)
    assert detect_communities(g, seed=5) == detect_communities(g, seed=5)


def test_detect_never_beats_itself_with_one_module():
    rng = np.random.default_rng(8)
    n = 15
    adj = [dict() for _ in range(n)]
    for _ in range(40):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            adj[i][j] = adj[j][i] = adj[i].get(j, 0) + 1
    nodes = list(range(n))
    g = WeightedGraph(nodes=nodes, adj=adj)
    part = detect_communities(g, seed=0)
    # compare on the full graph: detected vs everything-in-one-module
    labels = [part.get(k, -1 - k) for k in nodes]
    one = [0 if g.adj[k] else -1 - k for k in nodes]
    assert map_equation_codelength(g, labels) <= map_equation_codelength(g, one) + 1e-9


def test_detect_handles_disconnected_components():
    adj = [{1: 1}, {0: 1}, {3: 1}, {2: 1}]
    g = WeightedGraph(nodes=["a", "b", "c", "d"], adj=adj)
    part = detect_communities(g, seed=0)
    assert part["a"] == part["b"]
    assert part["c"] == part["d"]
    assert part["a"] != part["c"]
    assert sorted(set(part.values())) == [1, 2]


def test_detect_empty_graph():
    assert detect_communities(WeightedGraph(nodes=[], adj=[]), seed=0) == {}
