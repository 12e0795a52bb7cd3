"""Twitter baselines: the comparison datasets used by the paper.

Two Twitter artefacts appear in the evaluation:

* 2007 pingdom uptime probes, used in Fig. 8 to compare Mastodon's
  downtime against Twitter at a similar age (average downtime 1.25%,
  famously poor — the "Fail Whale" era);
* the 2011 follower graph, used in Fig. 11 (degree CDF) and Fig. 12
  (sensitivity to removing the most-followed accounts: the LCC holds
  ~95% of users, and removing the top 10% still leaves ~80% connected).

Neither artefact is redistributable here, so this module synthesises
equivalents calibrated to those published summary statistics.  The
downstream analysis only consumes the distributions, so the calibrated
synthetic stand-ins preserve every comparison the paper draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError
from repro.stats.distributions import sample_power_law

#: Average daily downtime fraction of Twitter in 2007 (Fig. 8 reference).
TWITTER_2007_MEAN_DOWNTIME = 0.0125


def twitter_daily_downtime(
    days: int,
    seed: int = 2007,
    mean_downtime: float = TWITTER_2007_MEAN_DOWNTIME,
) -> list[float]:
    """Synthesise per-day downtime fractions matching Twitter-2007 statistics.

    Most days have little or no downtime with occasional multi-hour
    outages, reproducing the bursty profile of the pingdom data while
    keeping the published mean.
    """
    if days <= 0:
        raise ConfigurationError("the number of days must be positive")
    if not 0.0 <= mean_downtime < 1.0:
        raise ConfigurationError("mean downtime must be a fraction below 1")
    rng = np.random.default_rng(seed)
    # ~70% of days are clean; the remainder carry exponential outage time.
    clean = rng.random(days) < 0.7
    raw = np.where(clean, 0.0, rng.exponential(scale=1.0, size=days))
    if raw.sum() == 0:
        raw[rng.integers(0, days)] = 1.0
    fractions = raw / raw.sum() * mean_downtime * days
    return [float(min(f, 0.95)) for f in fractions]


def build_twitter_follower_graph(
    n_users: int = 5_000,
    mean_out_degree: float = 12.0,
    seed: int = 2011,
) -> nx.DiGraph:
    """Synthesise a Twitter-like follower graph.

    The generator uses preferential attachment over a random arrival
    order, yielding the heavy-tailed in-degree distribution of Fig. 11 and
    the robust LCC behaviour of Fig. 12 (about 95% of accounts in the LCC,
    and most of the graph still connected after removing the top 10% of
    accounts by degree).
    """
    if n_users < 10:
        raise ConfigurationError("the Twitter baseline needs at least 10 users")
    if mean_out_degree <= 0:
        raise ConfigurationError("mean out-degree must be positive")
    rng = np.random.default_rng(seed)
    graph = nx.DiGraph()
    nodes = [f"twitter_user_{i}" for i in range(n_users)]
    graph.add_nodes_from(nodes)

    # In-degree attractiveness with a bounded heavy tail.
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

    # ~5% of accounts are isolated lurkers (the paper's Twitter LCC is ~95%).
    lurkers = rng.choice(n_users, size=max(1, n_users // 20), replace=False)
    is_lurker = np.zeros(n_users, dtype=bool)
    is_lurker[lurkers] = True

    followers = np.flatnonzero(~is_lurker)
    sizes = np.minimum(out_degrees[followers], n_users - 1)
    targets = np.concatenate(_choice_rows(rng, probabilities, sizes.tolist()))
    sources = np.repeat(followers, sizes)
    keep = (targets != sources) & ~is_lurker[targets]
    graph.add_edges_from(
        zip(
            map(nodes.__getitem__, sources[keep].tolist()),
            map(nodes.__getitem__, targets[keep].tolist()),
        )
    )
    return graph


def _choice_rows(
    rng: np.random.Generator, probabilities: np.ndarray, sizes: list[int]
) -> list[np.ndarray]:
    """``[rng.choice(n, k, replace=False, p=probabilities) for k in sizes]``, draw for draw.

    ``Generator.choice`` copies ``p`` and rebuilds its CDF over all ``n``
    entries on every call.  Here every row's first round searches one
    shared CDF; only a row whose first round repeats an index runs
    numpy's re-draw loop (found entries zeroed, CDF rebuilt, first
    occurrences kept in order).  The uniforms are drawn exactly as
    ``choice`` draws them, so the generator ends in the same state.
    """
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    rows = []
    for k in sizes:
        row = cdf.searchsorted(rng.random(k), side="right")
        if len(set(row.tolist())) == k:
            rows.append(row)
            continue
        found = np.empty(k, dtype=np.int64)
        n_found = 0
        weights = probabilities.copy()
        while True:
            _, first = np.unique(row, return_index=True)
            first.sort()
            found[n_found : n_found + first.size] = row.take(first)
            n_found += first.size
            if n_found == k:
                break
            weights[found[:n_found]] = 0
            redraw_cdf = np.cumsum(weights)
            redraw_cdf /= redraw_cdf[-1]
            row = redraw_cdf.searchsorted(rng.random(k - n_found), side="right")
        rows.append(found)
    return rows


@dataclass
class TwitterBaselines:
    """Bundle of the two Twitter comparison datasets."""

    daily_downtime: list[float]
    follower_graph: nx.DiGraph

    @classmethod
    def generate(
        cls,
        days: int = 300,
        n_users: int = 5_000,
        seed: int = 2007,
    ) -> "TwitterBaselines":
        """Generate both baselines with a single seed."""
        return cls(
            daily_downtime=twitter_daily_downtime(days, seed=seed),
            follower_graph=build_twitter_follower_graph(n_users=n_users, seed=seed + 4),
        )

    @property
    def mean_downtime(self) -> float:
        """Average daily downtime fraction of the synthetic uptime series."""
        if not self.daily_downtime:
            return 0.0
        return float(np.mean(self.daily_downtime))
