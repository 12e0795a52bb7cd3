"""The per-user ``rng.choice`` loop that synthesised the Twitter follower graph.

:func:`repro.datasets.twitter.build_twitter_follower_graph` now draws
every user's targets from one shared CDF and builds the graph with a
single ``add_edges_from``.  This is the original loop it must match
draw for draw: same node order, same edge order.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError
from repro.stats.distributions import sample_power_law


def build_twitter_follower_graph(
    n_users: int = 5_000,
    mean_out_degree: float = 12.0,
    seed: int = 2011,
) -> nx.DiGraph:
    """The reference follower graph."""
    if n_users < 10:
        raise ConfigurationError("the Twitter baseline needs at least 10 users")
    if mean_out_degree <= 0:
        raise ConfigurationError("mean out-degree must be positive")
    rng = np.random.default_rng(seed)
    graph = nx.DiGraph()
    nodes = [f"twitter_user_{i}" for i in range(n_users)]
    graph.add_nodes_from(nodes)

    attractiveness = sample_power_law(
        rng, n_users, exponent=2.0, minimum=1.0, maximum=float(n_users) / 4.0
    )
    probabilities = attractiveness / attractiveness.sum()
    out_degrees = sample_power_law(
        rng, n_users, exponent=2.2, minimum=1.0, maximum=float(min(1000, n_users - 1))
    )
    out_degrees = np.maximum(
        1, np.round(out_degrees * (mean_out_degree / out_degrees.mean()))
    ).astype(int)

    lurkers = set(int(i) for i in rng.choice(n_users, size=max(1, n_users // 20), replace=False))

    for index in range(n_users):
        if index in lurkers:
            continue
        k = int(min(out_degrees[index], n_users - 1))
        targets = rng.choice(n_users, size=k, replace=False, p=probabilities)
        for target in targets:
            target = int(target)
            if target != index and target not in lurkers:
                graph.add_edge(nodes[index], nodes[target])
    return graph
