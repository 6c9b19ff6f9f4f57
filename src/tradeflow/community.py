"""Trader group detection on the projected weighted network.

The validated multi-edge network is collapsed to a weighted graph (buy-sell
labelled links excluded), then partitioned by greedily minimizing the
two-level map equation of an undirected random walk (Rosvall & Bergstrom
2008): seeded node moves and module merges, each accepted when it lowers
the codelength by more than 1e-12 bits.  The search keeps every module's
codelength term and the exit term in its state, so a candidate move costs
the terms of the module it joins alone; each score is summed in one fixed
order, so the search makes the same moves, to the bit, as scoring every
move from scratch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ingest import STATE_BUY, STATE_SELL
from .svn import ValidatedNetwork, edge_nodes

# from this many sweeps that moved a node on, a move pass confirms each sweep's gain at once
_LONG_PASS = 8


@dataclass
class WeightedGraph:
    nodes: list
    # adjacency: node index -> {neighbour index: weight}
    adj: list

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def strength(self, k: int):
        return sum(self.adj[k].values())

    def components(self) -> list:
        """Connected components as lists of node indices, deterministic order."""
        seen = [False] * self.n_nodes
        comps = []
        for start in range(self.n_nodes):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                k = stack.pop()
                comp.append(k)
                for nbr in self.adj[k]:
                    if not seen[nbr]:
                        seen[nbr] = True
                        stack.append(nbr)
            comps.append(sorted(comp))
        return comps


def project_weighted(network: ValidatedNetwork) -> WeightedGraph:
    """Collapse validated multi-edges to integer weights.

    The weight of (i, j) is the number of validated links whose state pair is
    not buy-sell; pairs left with zero weight are omitted entirely.  Nodes sort
    by ``str``; a node's neighbours are in the order of their pair's first link.
    """
    e = network.edges
    e = e[e["state_i"] * e["state_j"] != STATE_BUY * STATE_SELL]  # drops (1, -1) and (-1, 1) alone
    nodes = edge_nodes(e)
    index = dict(zip(nodes, range(len(nodes))))
    a = np.fromiter(map(index.__getitem__, e["i"].tolist()), np.int64, len(e))
    b = np.fromiter(map(index.__getitem__, e["j"].tolist()), np.int64, len(e))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, first, weights = np.unique(lo * len(nodes) + hi, return_index=True, return_counts=True)
    order = np.argsort(first)
    adj = [dict() for _ in nodes]
    for i, j, w in zip(lo[first[order]].tolist(), hi[first[order]].tolist(), weights[order].tolist()):
        adj[i][j] = adj[j][i] = w
    return WeightedGraph(nodes=nodes, adj=adj)


def _plogp(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log2(x[pos])
    return out


def _plp(x: float) -> float:
    return x * math.log2(x) if x > 0 else 0.0


def map_equation_codelength(graph: WeightedGraph, assignment) -> float:
    """Two-level description length L(M) in bits.

    ``assignment`` maps node (id or index position) to a module label.  Visit
    rates are proportional to node strength; module exit rates to the cut.
    """
    if graph.n_nodes == 0:
        raise ValueError("empty graph")
    # dicts are keyed by node id; sequences are positional
    if isinstance(assignment, dict):
        assignment = [assignment[n] for n in graph.nodes]
    strengths = np.array([graph.strength(k) for k in range(graph.n_nodes)])
    w2 = strengths.sum()
    if w2 == 0:
        return 0.0
    return _codelength(_links(graph.adj), strengths / w2, w2, assignment)


def _links(adj) -> tuple:
    """Every directed link (k, nbr, weight) as three arrays, in node then adjacency order."""
    src = np.repeat(np.arange(len(adj)), [len(row) for row in adj])
    dst = np.fromiter((nbr for row in adj for nbr in row), dtype=np.int64, count=len(src))
    w = np.fromiter((w for row in adj for w in row.values()), dtype=np.float64, count=len(src))
    return src, dst, w


def _codelength(links, p, w2, labels) -> float:
    """L(M) of a graph given as ``_links`` with visit rates ``p``.

    ``bincount`` adds in index order, so each module's visit rate and cut are
    summed node by node in the order a Python loop over the nodes would use.
    """
    src, dst, w = links
    modules, mod = np.unique(np.asarray(labels), return_inverse=True)
    pm = np.bincount(mod, weights=p, minlength=len(modules))
    boundary = mod[src] != mod[dst]
    cut = np.bincount(mod[src[boundary]], weights=w[boundary], minlength=len(modules))
    q = cut / w2
    sum_q = q.sum()
    # expanded entropy form: the exit rate q_i is coded both in the index
    # codebook and inside module i, hence the factor 2
    L = (
        _plogp(np.array([sum_q])).item()
        - 2.0 * _plogp(q).sum()
        - _plogp(p).sum()
        + _plogp(q + pm).sum()
    )
    return float(L)


class _Partitioner:
    """Greedy map-equation minimization on one graph (node indices only).

    Each module is summarised by its volume (summed strength) and its cut.
    With integer link weights both are ints, so the state is exact: a move
    or a merge is scored from the modules it touches alone, and undoing a
    change scores its negative up to ``plogp`` round-off, far below the
    ``1e-12`` a change must gain.  Node visit rates cancel in every score.

    Each module's codelength term (``_term`` of its cut and volume) and the
    index codebook's exit term (``plogp`` of the total cut over ``w2``) are
    cached and change only in ``_commit``, so a score computes the new side
    alone.  A score is always summed in one order: the term change of each
    module in ``changed`` order (for a move, the module left, then the
    module joined), then plus the new exit term, then minus the old one.  A
    cached term is the value ``_term`` would compute afresh, so every score,
    and with it every accepted move and merge, keeps its bits.

    A node whose links all lie inside its module has no candidate move.  A
    visit that finds one marks it ``interior``, and the move passes skip it
    until a neighbour moves; a merge never splits a module, so aggregation
    keeps the marks.  A skipped visit is one that would score nothing, so
    the moves and the generator's draws are those of visiting every node.

    After each round of ``optimize`` that changed the partition, and after
    each sweep of a long move pass (``_LONG_PASS``), the codelength of the
    canonical labels is recomputed from scratch into ``L`` and must have gone
    down: a stale cache would otherwise accept moves forever.  After
    ``optimize``, ``L`` is the codelength of the labels it returned.
    """

    def __init__(self, adj, strengths, w2):
        self.adj = [tuple(row.items()) for row in adj]
        self.s = strengths
        self.w2 = w2
        self.n = len(adj)
        self.links, self.p = _links(adj), np.asarray(strengths) / w2

    def optimize(self, rng):
        self._load(list(range(self.n)))
        self.L = math.inf
        improved = True
        while improved:
            sweeps = self._move_pass(rng)
            merged = self._aggregate_pass()
            if merged or 0 < sweeps < _LONG_PASS:  # a long pass confirmed its last sweep itself
                self._confirm_gain()
            improved = sweeps > 0 or merged
        if self.L == math.inf:  # no change was accepted
            self._confirm_gain()
        return self.labels

    def _confirm_gain(self):
        L = _codelength(self.links, self.p, self.w2, _canonical(self.labels))
        if not L < self.L:
            raise RuntimeError(f"map-equation search accepted changes that took L from {self.L!r} to {L!r} bits; "
                               "its cached module terms are stale")
        self.L = L

    def _load(self, labels):
        self.labels = labels
        self.interior = [False] * self.n
        self.vol, self.cut = {}, {}
        for k, m in enumerate(labels):
            self.vol[m] = self.vol.get(m, 0) + self.s[k]
            self.cut[m] = self.cut.get(m, 0) + sum(w for nbr, w in self.adj[k] if labels[nbr] != m)
        self.total = sum(self.cut.values())
        self.term = {m: self._term(c, self.vol[m]) for m, c in self.cut.items()}
        self.exit_term = _plp(self.total / self.w2)

    def _weights_to(self, k) -> dict:
        """Summed weight of node k's links into each module."""
        labels, w_to = self.labels, {}
        for nbr, w in self.adj[k]:
            m = labels[nbr]
            w_to[m] = w_to.get(m, 0) + w
        return w_to

    def _moved(self, k, b, w_to) -> dict:
        """Module (cut, volume) after moving node k into module b.

        k's links into its own module a become boundary links of a and stay
        boundary links of b; its links into b become internal.
        """
        a, s_k = self.labels[k], self.s[k]
        return {
            a: (self.cut[a] + 2 * w_to.get(a, 0) - s_k, self.vol[a] - s_k),
            b: (self.cut[b] + s_k - 2 * w_to[b], self.vol[b] + s_k),
        }

    def _move_deltas(self, k, w_to) -> list:
        """(codelength change, b) of moving node k into each other module b it links to, b ascending.

        The ``_moved`` arithmetic with the side of k's own module a, which
        does not depend on b, computed once: each b costs one module term
        and one exit term.
        """
        a, s_k, w2 = self.labels[k], self.s[k], self.w2
        cut, vol, term, log2 = self.cut, self.vol, self.term, math.log2
        c = cut[a] + 2 * w_to.get(a, 0) - s_k
        d_a = self._term(c, vol[a] - s_k) - term[a]
        total_a = self.total + (c - cut[a])
        out = []
        for b in sorted(w_to):
            if b == a:
                continue
            c = cut[b] + s_k - 2 * w_to[b]
            # _term(c, vol[b] + s_k) and _plp(t) inlined, in the same operations: the calls cost more
            x, y, t = c / w2, (c + (vol[b] + s_k)) / w2, (total_a + (c - cut[b])) / w2
            t_b = -2.0 * (x * log2(x) if x > 0 else 0.0) + (y * log2(y) if y > 0 else 0.0)
            out.append((d_a + (t_b - term[b]) + (t * log2(t) if t > 0 else 0.0) - self.exit_term, b))
        return out

    def _merged(self, a, b, link_ab) -> dict:
        """Module (cut, volume) after merging module b into a; their shared links become internal."""
        return {a: (self.cut[a] + self.cut[b] - 2 * link_ab, self.vol[a] + self.vol[b]), b: (0, 0)}

    def _delta(self, changed) -> float:
        """Codelength change in bits if modules take the (cut, volume) in ``changed``."""
        total, delta = self.total, 0.0
        for m, (c, v) in changed.items():
            total += c - self.cut[m]
            delta += self._term(c, v) - self.term[m]
        return delta + _plp(total / self.w2) - self.exit_term

    def _term(self, cut, vol) -> float:
        return -2.0 * _plp(cut / self.w2) + _plp((cut + vol) / self.w2)

    def _commit(self, changed):
        for m, (c, v) in changed.items():
            self.total += c - self.cut[m]
            self.cut[m], self.vol[m] = c, v
            self.term[m] = self._term(c, v)
        self.exit_term = _plp(self.total / self.w2)

    def _move_pass(self, rng):
        """Node-level local moves until no single move improves L; returns
        the number of sweeps that moved a node."""
        sweeps = 0
        order = np.arange(self.n)
        improving = True
        while improving:
            improving = False
            rng.shuffle(order)
            for k in order.tolist():
                if self.interior[k]:
                    continue
                w_to = self._weights_to(k)
                if len(w_to) == 1 and self.labels[k] in w_to:
                    self.interior[k] = True
                    continue
                best_delta, best = 0.0, None
                for delta, b in self._move_deltas(k, w_to):
                    if delta < best_delta - 1e-12:
                        best_delta, best = delta, b
                if best is not None:
                    self._commit(self._moved(k, best, w_to))
                    self.labels[k] = best
                    for nbr, _ in self.adj[k]:
                        self.interior[nbr] = False
                    improving = True
            sweeps += improving
            if improving and sweeps >= _LONG_PASS:
                self._confirm_gain()
        return sweeps

    def _aggregate_pass(self):
        """Merge whole modules along inter-module links while that lowers L.

        The summed links between modules are built once and carried through
        each merge; node labels follow the merges at the end of the pass.
        """
        labels, link = self.labels, {m: {} for m in self.vol}
        for k, a in enumerate(labels):
            for nbr, w in self.adj[k]:
                b = labels[nbr]
                if b != a:
                    link[a][b] = link[a].get(b, 0) + w
        into = {}
        improving = True
        while improving:
            improving = False
            for a, b in sorted((a, b) for a in link for b in link[a] if a < b):
                if b not in link.get(a, ()):
                    continue  # a or b was merged away in this sweep
                changed = self._merged(a, b, link[a][b])
                if self._delta(changed) < -1e-12:
                    self._commit(changed)
                    del link[a][b]
                    for c, w in link.pop(b).items():
                        if c != a:
                            del link[c][b]
                            link[c][a] = link[a][c] = link[a].get(c, 0) + w
                    into[b] = a
                    improving = True
        for b in into:
            a = into[b]
            while a in into:
                a = into[a]
            into[b] = a
        labels[:] = [into.get(m, m) for m in labels]
        return bool(into)


def detect_communities(graph: WeightedGraph, seed: int = 0, n_restarts: int = 10) -> dict:
    """Detect trader groups by greedy map-equation minimization.

    Runs ``n_restarts`` seeded restarts per connected component, keeps the
    minimal-codelength result (ties broken by lexicographically smallest
    assignment), and returns a mapping node -> contiguous positive label.
    A component of two nodes of equal strength is searched once: its two
    nodes score the same move, so every restart returns the same result.
    """
    _check_links(graph)
    strengths = [graph.strength(k) for k in range(graph.n_nodes)]
    w2 = sum(strengths)
    assignment_idx = [None] * graph.n_nodes
    next_label = 0
    for comp in graph.components():
        local = {g: k for k, g in enumerate(comp)}
        adj = [{local[nbr]: w for nbr, w in graph.adj[g].items()} for g in comp]
        if len(comp) == 1:
            best = [0] * len(comp)
        else:
            comp_strengths = [strengths[g] for g in comp]
            part = _Partitioner(adj, comp_strengths, w2)
            symmetric = len(comp) == 2 and comp_strengths[0] == comp_strengths[1]
            best, best_L = None, None
            for r in range(min(n_restarts, 1) if symmetric else n_restarts):
                rng = np.random.default_rng([seed, r])
                labels, L = _canonical(part.optimize(rng)), part.L
                key = (round(L, 12), labels)
                if best is None or key < (round(best_L, 12), best):
                    best, best_L = labels, L
        n_mods = max(best) + 1
        for k, g in enumerate(comp):
            assignment_idx[g] = next_label + best[k] + 1
        next_label += n_mods
    return {graph.nodes[k]: assignment_idx[k] for k in range(graph.n_nodes)}


def _check_links(graph: WeightedGraph):
    """Refuse links the map equation cannot score: one-sided, unequal or not positive finite."""
    for k, row in enumerate(graph.adj):
        for nbr, w in row.items():
            if not (isinstance(w, numbers.Real) and 0 < w < math.inf):
                raise ValueError(f"link {k} -> {nbr} has weight {w!r}; weights must be positive finite numbers")
            if nbr not in range(graph.n_nodes) or graph.adj[nbr].get(k) != w:
                raise ValueError(f"link {k} -> {nbr} of weight {w!r} has no link {nbr} -> {k} of equal weight; "
                                 "the adjacency must be symmetric")


def _canonical(labels) -> list:
    """Relabel modules by first appearance so equal partitions compare equal."""
    seen = {}
    out = []
    for l in labels:
        if l not in seen:
            seen[l] = len(seen)
        out.append(seen[l])
    return out
