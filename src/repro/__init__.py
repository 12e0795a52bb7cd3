"""repro — a reproduction toolkit for "Challenges in the Decentralised Web:
The Mastodon Case" (Raman et al., IMC 2019).

The package is organised in layers:

* :mod:`repro.fediverse` — a self-contained Mastodon/Pleroma simulator
  (instances, users, toots, federation, hosting, certificates, outages)
  standing in for the live network the paper measured;
* :mod:`repro.crawler` — the measurement tooling (instance monitor, toot
  crawler, follower-graph crawler) speaking to instances over a simulated
  HTTP transport;
* :mod:`repro.datasets` — the paper's three datasets plus the Twitter
  baselines, built from crawler output;
* :mod:`repro.core` — the analyses behind every figure and table;
* :mod:`repro.engine` — the sparse-matrix failure-simulation engine the
  resilience/replication hot paths (Figs. 11-16) dispatch through;
* :mod:`repro.reporting` — table/figure rendering and the experiment index.

Quick start::

    from repro import build_scenario, collect_datasets

    network = build_scenario("small", seed=7)
    datasets = collect_datasets(network)
    print(datasets.instances.total_users(), "users on", len(datasets.instances), "instances")
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro._lazy import attach
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus import CorpusStore, GraphStore
    from repro.crawler import CircuitBreaker, FaultRates, RetryPolicy
    from repro.datasets import GraphDataset, InstancesDataset, TootsDataset
    from repro.fediverse import FediverseNetwork

__version__ = "1.0.0"

__getattr__, __dir__, _exports = attach(
    __name__,
    {
        ".fediverse": ("FediverseNetwork", "ScenarioConfig", "ScenarioGenerator", "build_scenario"),
        ".crawler": (
            "CircuitBreaker",
            "FaultInjector",
            "FaultRates",
            "FaultyTransport",
            "FollowerGraphCrawler",
            "InstanceMonitor",
            "ResilientTransport",
            "RetryPolicy",
            "SimulatedTransport",
            "TootCrawler",
        ),
        ".datasets": ("GraphDataset", "InstancesDataset", "TootsDataset", "TwitterBaselines"),
    },
)

__all__ = sorted(
    ["CollectedDatasets", "ReproError", "__version__", "collect_datasets", *_exports]
)


@dataclass
class CollectedDatasets:
    """The three paper datasets collected from one simulated fediverse."""

    instances: InstancesDataset
    toots: TootsDataset
    graphs: GraphDataset
    network: FediverseNetwork
    #: The columnar corpus behind ``toots`` when the crawl streamed to
    #: disk (``collect_datasets(..., corpus_dir=...)``); ``None`` on the
    #: in-memory record path.
    corpus: "CorpusStore | None" = None
    #: The on-disk edge-shard store behind ``graphs`` when the follower
    #: crawl streamed to disk (``collect_datasets(..., graph_dir=...)``);
    #: ``None`` on the in-memory record path.
    graph_store: "GraphStore | None" = None
    #: Fetched-versus-attempted accounting of the toot crawl
    #: (:meth:`CrawlCoverage.as_dict
    #: <repro.crawler.toot_crawler.CrawlCoverage.as_dict>`); ``None``
    #: only when an existing corpus without coverage was reused.
    coverage: "dict | None" = None
    #: The follower crawl's coverage accounting, same shape.
    graph_coverage: "dict | None" = None


def collect_datasets(
    network: FediverseNetwork,
    monitor_interval_minutes: int = 24 * 60,
    crawl_threads: int = 8,
    corpus_dir: "str | Path | None" = None,
    corpus_shard_size: int | None = None,
    graph_dir: "str | Path | None" = None,
    graph_shard_size: int | None = None,
    fault_rates: "FaultRates | float | None" = None,
    fault_seed: int = 0,
    retry_policy: "RetryPolicy | int | None" = None,
    breaker: "CircuitBreaker | None" = None,
    resume: bool = False,
    politeness_delay: float = 0.0,
) -> CollectedDatasets:
    """Run the full measurement pipeline against a simulated fediverse.

    This is the one-call equivalent of the paper's data collection: poll
    every instance's API across the observation window, crawl every
    federated timeline, scrape every follower list, and assemble the
    datasets the analyses consume.

    ``monitor_interval_minutes`` defaults to daily probes (the paper used
    five minutes over fifteen months; the analyses only need the relative
    resolution, and daily probing keeps the default pipeline fast).

    With ``corpus_dir``, the toot crawl streams page by page into a
    columnar corpus at that directory (:mod:`repro.corpus`) instead of
    building ``TootRecord`` lists: the returned ``toots`` dataset is
    corpus-backed (aggregates from columns, records only on demand) and
    ``corpus`` carries the opened store, so placement construction and
    availability sweeps run straight from the on-disk columns.  A
    directory that already holds a corpus manifest (a previous
    ``collect``) is **reused** instead of re-crawled, after checking its
    crawled instances belong to this scenario — collect once, run many.
    ``corpus_shard_size`` overrides the default toots-per-shard split.

    ``graph_dir`` gives the follower crawl the same treatment: edges
    stream into integer-coded shards (:mod:`repro.corpus.graph`) as each
    ego network is paged, ``graph_store`` carries the opened store, and
    the networkx-backed ``graphs`` dataset is rebuilt from the store's
    decoded edges (identical graph, since the store preserves crawl
    order).  An existing graph manifest is reused the same way a corpus
    one is.  ``graph_shard_size`` overrides the edges-per-shard split.

    Resilience knobs: ``fault_rates`` (a
    :class:`~repro.crawler.faults.FaultRates`, or a float total rate
    split uniformly across the failure modes) wraps the transport in a
    seeded chaos layer (``fault_seed``); ``retry_policy`` (a
    :class:`~repro.crawler.resilient.RetryPolicy`, or an int
    ``max_attempts``) plus an optional per-instance circuit ``breaker``
    wrap it in retries with backoff.  The monitor and both crawlers all
    route through the same wrapped transport.  ``resume=True`` reopens
    interrupted corpus/graph writers from their crawl journals — sealed
    instances are never re-crawled; ``politeness_delay`` spaces
    per-instance requests (useful to widen the crash window in tests).
    """
    from repro.crawler import (
        FaultInjector,
        FaultRates,
        FaultyTransport,
        FollowerGraphCrawler,
        InstanceMonitor,
        ResilientTransport,
        RetryPolicy,
        SimulatedTransport,
        TootCrawler,
    )
    from repro.datasets import GraphDataset, InstancesDataset, TootsDataset

    transport = SimulatedTransport(network)
    if fault_rates is not None:
        rates = (
            fault_rates
            if isinstance(fault_rates, FaultRates)
            else FaultRates.uniform(float(fault_rates))
        )
        transport = FaultyTransport(transport, FaultInjector(seed=fault_seed, rates=rates))
    if retry_policy is not None:
        policy = (
            retry_policy
            if isinstance(retry_policy, RetryPolicy)
            else RetryPolicy(max_attempts=int(retry_policy))
        )
        transport = ResilientTransport(transport, policy=policy, breaker=breaker)
    monitor = InstanceMonitor(transport, network.domains(), monitor_interval_minutes)
    log = monitor.run()
    instances = InstancesDataset.build(network, log)

    toot_crawler = TootCrawler(
        transport, threads=crawl_threads, politeness_delay=politeness_delay
    )
    corpus = None
    coverage = None
    if corpus_dir is None:
        crawl = toot_crawler.crawl()
        toots = TootsDataset.from_crawl(crawl)
        coverage = crawl.coverage().as_dict()
    else:
        from repro.corpus import DEFAULT_CORPUS_SHARD_SIZE, CorpusStore, CorpusWriter

        if (Path(corpus_dir) / "manifest.json").exists():
            corpus = CorpusStore(corpus_dir)
            unknown = set(corpus.observations) - set(network.domains())
            if unknown:
                from repro.errors import DatasetError

                raise DatasetError(
                    f"the corpus at {corpus_dir} was crawled from a different "
                    f"scenario ({len(unknown)} unknown instance domain(s), e.g. "
                    f"{sorted(unknown)[0]!r}); point --corpus at a fresh directory"
                )
            coverage = corpus.coverage
        else:
            writer = CorpusWriter(
                corpus_dir,
                shard_size=corpus_shard_size or DEFAULT_CORPUS_SHARD_SIZE,
                resume=resume,
            )
            crawl = toot_crawler.crawl(sink=writer)
            coverage = crawl.coverage().as_dict()
            corpus = writer.finalise(crawl_minute=crawl.crawl_minute, coverage=coverage)
        toots = TootsDataset.from_corpus(corpus)

    graph_crawler = FollowerGraphCrawler(
        transport, threads=crawl_threads, politeness_delay=politeness_delay
    )
    graph_store = None
    graph_coverage = None
    if graph_dir is None:
        graph_crawl = graph_crawler.crawl()
        graphs = GraphDataset.from_crawl(graph_crawl)
        graph_coverage = graph_crawl.coverage().as_dict()
    else:
        from repro.corpus import DEFAULT_GRAPH_SHARD_SIZE, GraphStore, GraphWriter

        if (Path(graph_dir) / "manifest.json").exists():
            graph_store = GraphStore(graph_dir)
            unknown = set(graph_store.edges_collected) - set(network.domains())
            if unknown:
                from repro.errors import DatasetError

                raise DatasetError(
                    f"the graph store at {graph_dir} was crawled from a different "
                    f"scenario ({len(unknown)} unknown instance domain(s), e.g. "
                    f"{sorted(unknown)[0]!r}); point --graph at a fresh directory"
                )
            graph_coverage = graph_store.coverage
        else:
            writer = GraphWriter(
                graph_dir,
                shard_size=graph_shard_size or DEFAULT_GRAPH_SHARD_SIZE,
                resume=resume,
            )
            graph_crawl = graph_crawler.crawl(sink=writer)
            graph_coverage = graph_crawl.coverage().as_dict()
            graph_store = writer.finalise(
                crawl_minute=graph_crawl.crawl_minute, coverage=graph_coverage
            )
        graphs = GraphDataset.from_edges(graph_store.iter_edge_handles())

    return CollectedDatasets(
        instances=instances,
        toots=toots,
        graphs=graphs,
        network=network,
        corpus=corpus,
        graph_store=graph_store,
        coverage=coverage,
        graph_coverage=graph_coverage,
    )
