"""Group-level state aggregation and validated lead-lag networks.

Group states follow the same imbalance-ratio rule as trader states.  A
directed edge (g, s) -> (g', s') means group g in state s at slice t
systematically precedes group g' in state s' at slice t+1; self-loops are
allowed and the hypothesis family counts all 9 * N_groups^2 ordered tests.
The validated edges are one array of ``LEADLAG_EDGE``, whose field names are
the header of ``leadlag_edges.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import ACTIVE_STATES, StateMatrix, states_from_volumes
from .svn import FdrConfig, _cooccurrence_tests, validated_edges

# one validated edge: group from_group in state_from precedes group to_group in state_to
LEADLAG_EDGE = np.dtype([("from_group", np.int64), ("to_group", np.int64), ("state_from", np.int64),
                         ("state_to", np.int64), ("co_count", np.int64), ("p_value", np.float64)])


@dataclass
class GroupStateSeries:
    """Per-group aggregated volumes and states over a common grid."""

    labels: list
    grid: object
    V: np.ndarray  # (n_groups, n_slices)
    G: np.ndarray
    sigma: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.labels)


@dataclass
class LeadLagNetwork:
    groups: list
    edges: np.ndarray  # LEADLAG_EDGE
    threshold: float
    n_tests: int
    p0: float
    n_pairs: int  # aligned (t, t+1) slice pairs actually tested


@dataclass
class TraderLeadLagAdjacency:
    traders: list
    matrix: np.ndarray  # boolean (n, n); [i, j] means i's group leads j's group


def aggregate_groups(matrix: StateMatrix, partition: dict, rho0: float = 0.01) -> GroupStateSeries:
    """Aggregate trader volumes to group level and classify group states.

    Traders absent from the partition are excluded; empty partitions are an
    error.  Gross volumes add: G_g = sum of member G.
    """
    if not partition:
        raise ValueError("empty partition")
    labels = sorted(set(partition.values()))
    lab_index = {g: k for k, g in enumerate(labels)}
    n_groups, T = len(labels), matrix.n_slices
    V = np.zeros((n_groups, T))
    G = np.zeros((n_groups, T))
    for k, trader in enumerate(matrix.traders):
        g = partition.get(trader)
        if g is None:
            continue
        V[lab_index[g]] += matrix.V[k]
        G[lab_index[g]] += matrix.G[k]
    sigma = states_from_volumes(V, G, rho0)
    return GroupStateSeries(labels=labels, grid=matrix.grid, V=V, G=G, sigma=sigma)


def _lag_pairs(grid) -> np.ndarray:
    """Indices t such that (t, t+1) does not straddle a session gap."""
    return np.flatnonzero(grid.contiguous_with_previous()[1:])


def build_leadlag(series: GroupStateSeries, config: FdrConfig = FdrConfig()) -> LeadLagNetwork:
    """Validate lag-1 co-occurrences between group states.

    Only (t, t+1) pairs within a session are aligned (no pairing across
    overnight or weekend gaps).  BH is applied with the full family size
    m = 9 * N_groups^2; untestable combinations contribute p = 1 implicitly.
    """
    n_groups = series.n_groups
    t_lead = _lag_pairs(series.grid)
    m = 9 * n_groups * n_groups
    lead = {s: (series.sigma[:, t_lead] == s) for s in ACTIVE_STATES}
    lag = {s: (series.sigma[:, t_lead + 1] == s) for s in ACTIVE_STATES}
    gi, gj = np.divmod(np.arange(n_groups * n_groups), n_groups)
    threshold, _, rejected = _cooccurrence_tests(lead, lag, gi, gj, len(t_lead), config.p0, n_tests=m)
    return LeadLagNetwork(
        groups=list(series.labels),
        # the labels are sorted, so a group's index is its rank
        edges=validated_edges(LEADLAG_EDGE, np.asarray(series.labels), np.arange(n_groups), rejected),
        threshold=threshold,
        n_tests=m,
        p0=config.p0,
        n_pairs=len(t_lead),
    )


def expand_trader_leadlag(network: LeadLagNetwork, partition: dict) -> TraderLeadLagAdjacency:
    """Expand validated group edges to the trader-level adjacency Lambda.

    Lambda[i, j] = 1 iff some validated edge leads from trader i's group to
    trader j's group (any state pair).
    """
    traders = sorted(partition, key=str)
    index = {t: k for k, t in enumerate(traders)}
    group_leads = set(zip(network.edges["from_group"].tolist(), network.edges["to_group"].tolist()))
    members = {}
    for t, g in partition.items():
        members.setdefault(g, []).append(index[t])
    lam = np.zeros((len(traders), len(traders)), dtype=bool)
    for g, g2 in group_leads:
        # np.ix_ casts an empty list to intp, so a group no trader belongs to sets nothing
        lam[np.ix_(members.get(g, []), members.get(g2, []))] = True
    return TraderLeadLagAdjacency(traders=traders, matrix=lam)
