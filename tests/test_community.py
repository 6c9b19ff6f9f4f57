import itertools

import numpy as np
import pytest

from tradeflow.community import (
    WeightedGraph,
    _canonical,
    _codelength,
    _links,
    _Partitioner,
    _plogp,
    _plp,
    detect_communities,
    map_equation_codelength,
    project_weighted,
)
from tradeflow.ingest import classify_states, filter_active
from tradeflow.svn import SVN_EDGE, FdrConfig, ValidatedNetwork, build_svn
from tradeflow.synth import MarketSpec, generate_market


# The partitioner and codelength loop that the cached-term search replaced,
# kept as the reference: every move is scored from scratch through
# ``_moved``/``_delta``, and ``_aggregate_pass`` rebuilds the module links
# each sweep and relabels the nodes after each merge.


def _reference_codelength(adj, strengths, w2, labels) -> float:
    p = np.asarray(strengths) / w2
    modules = np.unique(labels)
    cut = np.zeros(len(modules))
    pm = np.zeros(len(modules))
    mod_index = {m: k for k, m in enumerate(modules)}
    for k in range(len(adj)):
        mk = mod_index[labels[k]]
        pm[mk] += p[k]
        for nbr, w in adj[k].items():
            if labels[nbr] != labels[k]:
                cut[mk] += w
    q = cut / w2
    sum_q = q.sum()
    L = (
        _plogp(np.array([sum_q])).item()
        - 2.0 * _plogp(q).sum()
        - _plogp(p).sum()
        + _plogp(q + pm).sum()
    )
    return float(L)


class _ReferencePartitioner:
    def __init__(self, adj, strengths, w2):
        self.adj = adj
        self.s = strengths
        self.w2 = w2
        self.n = len(adj)

    def optimize(self, rng):
        self._load(list(range(self.n)))
        improved = True
        while improved:
            improved = self._move_pass(rng)
            merged = self._aggregate_pass()
            improved = improved or merged
        return self.labels

    def _load(self, labels):
        self.labels = labels
        self.vol, self.cut = {}, {}
        for k, m in enumerate(labels):
            self.vol[m] = self.vol.get(m, 0) + self.s[k]
            self.cut[m] = self.cut.get(m, 0) + sum(w for nbr, w in self.adj[k].items() if labels[nbr] != m)
        self.total = sum(self.cut.values())

    def _weights_to(self, k) -> dict:
        w_to = {}
        for nbr, w in self.adj[k].items():
            m = self.labels[nbr]
            w_to[m] = w_to.get(m, 0) + w
        return w_to

    def _moved(self, k, b, w_to) -> dict:
        a, s_k = self.labels[k], self.s[k]
        return {
            a: (self.cut[a] + 2 * w_to.get(a, 0) - s_k, self.vol[a] - s_k),
            b: (self.cut[b] + s_k - 2 * w_to[b], self.vol[b] + s_k),
        }

    def _merged(self, a, b, link_ab) -> dict:
        return {a: (self.cut[a] + self.cut[b] - 2 * link_ab, self.vol[a] + self.vol[b]), b: (0, 0)}

    def _delta(self, changed) -> float:
        total, delta = self.total, 0.0
        for m, (c, v) in changed.items():
            total += c - self.cut[m]
            delta += self._term(c, v) - self._term(self.cut[m], self.vol[m])
        return delta + _plp(total / self.w2) - _plp(self.total / self.w2)

    def _term(self, cut, vol) -> float:
        return -2.0 * _plp(cut / self.w2) + _plp((cut + vol) / self.w2)

    def _commit(self, changed):
        for m, (c, v) in changed.items():
            self.total += c - self.cut[m]
            self.cut[m], self.vol[m] = c, v

    def _move_pass(self, rng):
        any_gain = False
        order = np.arange(self.n)
        improving = True
        while improving:
            improving = False
            rng.shuffle(order)
            for k in order:
                a = self.labels[k]
                w_to = self._weights_to(k)
                best_delta, best = 0.0, None
                for b in sorted(m for m in w_to if m != a):
                    changed = self._moved(k, b, w_to)
                    delta = self._delta(changed)
                    if delta < best_delta - 1e-12:
                        best_delta, best = delta, (b, changed)
                if best is not None:
                    self.labels[k] = best[0]
                    self._commit(best[1])
                    improving = any_gain = True
        return any_gain

    def _aggregate_pass(self):
        any_gain = False
        improving = True
        while improving:
            improving = False
            link = {m: {} for m in self.vol}
            for k, a in enumerate(self.labels):
                for b, w in self._weights_to(k).items():
                    if b != a:
                        link[a][b] = link[a].get(b, 0) + w
            for a, b in sorted((a, b) for a in link for b in link[a] if a < b):
                if b not in link.get(a, ()):
                    continue
                changed = self._merged(a, b, link[a][b])
                if self._delta(changed) < -1e-12:
                    self._commit(changed)
                    del link[a][b]
                    for c, w in link.pop(b).items():
                        if c != a:
                            del link[c][b]
                            link[c][a] = link[a][c] = link[a].get(c, 0) + w
                    self.labels[:] = [a if m == b else m for m in self.labels]
                    improving = any_gain = True
        return any_gain


def _net(edge_specs):
    edges = np.array([(i, j, si, sj, 1, 0.0) for i, j, si, sj in edge_specs], dtype=SVN_EDGE)
    nodes = sorted({*edges["i"].tolist(), *edges["j"].tolist()})
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
    [(score, target)] = part._move_deltas(1, part._weights_to(1))
    assert target == 1
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


def _stale_exit_term(self, changed):
    for m, (c, v) in changed.items():
        self.total += c - self.cut[m]
        self.cut[m], self.vol[m] = c, v
        self.term[m] = self._term(c, v)


def _stale_module_terms(self, changed):
    for m, (c, v) in changed.items():
        self.total += c - self.cut[m]
        self.cut[m], self.vol[m] = c, v
    self.exit_term = _plp(self.total / self.w2)


@pytest.mark.parametrize("stale_commit", [_stale_exit_term, _stale_module_terms])
def test_stale_score_cache_fails_instead_of_hanging(stale_commit, monkeypatch):
    # with a cache that no longer matches the partition, accepted moves stop
    # lowering the true codelength and the sweeps looped forever
    commits = []

    def counted(self, changed):
        commits.append(changed)
        assert len(commits) < 100_000, "the search did not stop"
        stale_commit(self, changed)

    monkeypatch.setattr(_Partitioner, "_commit", counted)
    with pytest.raises(RuntimeError, match="stale"):
        detect_communities(_planted_graph(0), seed=0)


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
            scores = part._move_deltas(k, w_to)
            assert [b for _, b in scores] == sorted(set(w_to) - {labels[k]})
            for score, b in scores:
                moved = labels[:k] + [b] + labels[k + 1:]
                exact = map_equation_codelength(g, moved) - base
                assert score == pytest.approx(exact, rel=0, abs=1e-12)
        for a, b in itertools.combinations(sorted(set(labels)), 2):
            link = sum(w for k in range(g.n_nodes) if labels[k] == a for n, w in g.adj[k].items() if labels[n] == b)
            exact = map_equation_codelength(g, [a if m == b else m for m in labels]) - base
            assert part._delta(part._merged(a, b, link)) == pytest.approx(exact, rel=0, abs=1e-12)


def _planted_graph(seed):
    """30-250 nodes in planted blocks of 8-30, integer weights 1-5; 15 % of link draws ignore the blocks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 251))
    block = np.sort(rng.integers(0, max(2, n // int(rng.integers(8, 31))), size=n))
    adj = [dict() for _ in range(n)]
    for _ in range(int(n * rng.uniform(2, 10))):
        i = int(rng.integers(0, n))
        j = int(rng.choice(np.flatnonzero(block == block[i]))) if rng.random() < 0.85 else int(rng.integers(0, n))
        if i != j:
            adj[i][j] = adj[j][i] = adj[i].get(j, 0) + int(rng.integers(1, 6))
    return WeightedGraph(nodes=list(range(n)), adj=adj)


@pytest.mark.parametrize(
    "g",
    [_random_graph(), _clique_pair(4), _clique_pair(10), _clique_pair(4, bridges=2),
     _graph([(k, (k + 1) % 8) for k in range(8)]), _graph([(i, j) for i in range(3) for j in range(3, 6)])]
    + [_planted_graph(seed) for seed in range(24)],
    ids=["random40", "two-k4", "two-k10", "two-k4-two-bridges", "ring8", "k33"] + [f"planted{s}" for s in range(24)],
)
def test_partitioner_equals_reference_to_the_bit(g):
    strengths = [g.strength(k) for k in range(g.n_nodes)]
    w2 = sum(strengths)
    part, ref = _Partitioner(g.adj, strengths, w2), _ReferencePartitioner(g.adj, strengths, w2)
    links, p = _links(g.adj), np.asarray(strengths) / w2
    for r in range(10):
        labels = part.optimize(np.random.default_rng([5, r]))
        assert labels == ref.optimize(np.random.default_rng([5, r]))
        assert part.cut == ref.cut and part.vol == ref.vol and part.total == ref.total
        assert part.term == {m: ref._term(c, ref.vol[m]) for m, c in ref.cut.items()}
        assert part.exit_term == _plp(ref.total / w2)
        assert _codelength(links, p, w2, labels) == _reference_codelength(g.adj, strengths, w2, labels)
        assert part.L == _codelength(links, p, w2, _canonical(labels))  # detect_communities ranks restarts by it


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


def _disjoint(*graphs):
    """The union of ``graphs``, each one's nodes numbered after the previous ones'."""
    adj, offset = [], 0
    for g in graphs:
        adj += [{nbr + offset: w for nbr, w in row.items()} for row in g.adj]
        offset += g.n_nodes
    return WeightedGraph(nodes=list(range(offset)), adj=adj)


def _ten_restart_reference(g, seed):
    """detect_communities as it searched every component with 10 restarts."""
    strengths = [g.strength(k) for k in range(g.n_nodes)]
    w2 = sum(strengths)
    out, next_label = {}, 0
    for comp in g.components():
        local = {n: k for k, n in enumerate(comp)}
        best = [0] * len(comp)
        if len(comp) > 1:
            part = _Partitioner([{local[nbr]: w for nbr, w in g.adj[n].items()} for n in comp],
                                [strengths[n] for n in comp], w2)
            runs = []
            for r in range(10):
                labels = _canonical(part.optimize(np.random.default_rng([seed, r])))
                runs.append((round(part.L, 12), labels))
            best = min(runs)[1]
        out.update((n, next_label + best[k] + 1) for k, n in enumerate(comp))
        next_label += max(best) + 1
    return out


def test_two_node_components_are_searched_once(monkeypatch):
    # three pairs of equal strength, one pair whose self-loop makes the strengths differ, and larger components
    pairs = [WeightedGraph(nodes=[0, 1], adj=[{1: w}, {0: w}]) for w in (1, 3, 2)]
    looped = WeightedGraph(nodes=[0, 1], adj=[{0: 2, 1: 1}, {0: 1}])
    g = _disjoint(pairs[0], _clique_pair(4, bridges=2), pairs[1], _random_graph(), looped, pairs[2],
                  _planted_graph(3))
    assert [len(c) for c in g.components()].count(2) == 4
    searches = []
    optimize = _Partitioner.optimize

    def counted(self, rng):
        searches.append(self.n)
        return optimize(self, rng)

    monkeypatch.setattr(_Partitioner, "optimize", counted)
    for seed in (0, 11):
        searches.clear()
        part = detect_communities(g, seed=seed)
        assert searches.count(2) == 3 + 10  # the equal pairs once each, the looped pair 10 times
        assert len(searches) == 3 + 10 + 3 * 10
        assert part == _ten_restart_reference(g, seed)


def test_detect_empty_graph():
    assert detect_communities(WeightedGraph(nodes=[], adj=[]), seed=0) == {}


def test_detect_isolated_nodes_each_form_a_group():
    # no node has a link, so every component is one node and gets its own label
    g = WeightedGraph(nodes=["c", "a", "b"], adj=[{}, {}, {}])
    assert detect_communities(g, seed=0) == {"c": 1, "a": 2, "b": 3}
    # an isolated node among linked ones still gets its own label, in node order
    g = WeightedGraph(nodes=["x", "y", "z"], adj=[{}, {2: 1}, {1: 1}])
    assert detect_communities(g, seed=0) == {"x": 1, "y": 2, "z": 2}


@pytest.mark.parametrize(
    "adj",
    [[{1: 2}, {}, {0: 1}], [{1: 2}, {0: 3}], [{1: 2}, {0: 2, 2: 1}, {}], [{3: 1}, {}],
     [{1: -2}, {0: -2}], [{1: 0}, {0: 0}], [{1: float("nan")}, {0: float("nan")}], [{1: float("inf")}, {0: float("inf")}],
     [{1: "2"}, {0: "2"}]],
    ids=["one-sided", "unequal", "one-sided-second", "unknown-node", "negative", "zero", "nan", "inf", "string"],
)
def test_detect_refuses_malformed_links(adj):
    with pytest.raises(ValueError, match="symmetric|positive finite"):
        detect_communities(WeightedGraph(nodes=list(range(len(adj))), adj=adj), seed=0)
