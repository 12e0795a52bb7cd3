"""The follower-graph crawler.

The paper built the follower graph ``G(V, E)`` by iterating over the
public users of every instance and paging through each user's follower
list.  :class:`FollowerGraphCrawler` performs the same ego-network
collection over the simulated transport: it discovers accounts through
the public directory endpoint, pages their follower lists, and emits
directed edges ``follower -> followed``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.crawler.faults import classify_error
from repro.crawler.http import SimulatedTransport
from repro.crawler.scheduler import CrawlScheduler, RateLimiter
from repro.handles import split_handle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.corpus.graph import GraphWriter

_log = logging.getLogger("repro.crawler.graph")


@dataclass(frozen=True, slots=True)
class FollowEdgeRecord:
    """A directed follower edge observed by the crawler."""

    follower: str
    followed: str

    @property
    def follower_domain(self) -> str:
        """Domain part of the follower handle."""
        return split_handle(self.follower)[1]

    @property
    def followed_domain(self) -> str:
        """Domain part of the followed handle."""
        return split_handle(self.followed)[1]

    @property
    def is_remote(self) -> bool:
        """Whether the edge crosses instances (a federated subscription)."""
        return self.follower_domain != self.followed_domain


@dataclass
class GraphCrawlResult:
    """The outcome of a follower-graph crawl.

    In sink mode (``crawl(sink=...)``) the edges stream into a
    :class:`~repro.corpus.graph.GraphWriter` instead of accumulating
    here; ``edges`` stays empty and ``edge_counts`` records how many
    edges each instance contributed.
    """

    crawl_minute: int
    edges: list[FollowEdgeRecord] = field(default_factory=list)
    accounts_seen: set[str] = field(default_factory=set)
    failures: dict[str, str] = field(default_factory=dict)
    edge_counts: dict[str, int] = field(default_factory=dict)
    #: Per-domain reachability-probe outcome (``"ok"`` or failure class).
    probe_outcomes: dict[str, str] = field(default_factory=dict)
    #: Failure class per failed instance (the taxonomy of ``failures``).
    failure_classes: dict[str, str] = field(default_factory=dict)
    #: Instances skipped because a resumed sink already sealed them.
    resumed: list[str] = field(default_factory=list)

    def unique_edges(self) -> set[tuple[str, str]]:
        """Return the de-duplicated set of (follower, followed) pairs."""
        return {(edge.follower, edge.followed) for edge in self.edges}

    def coverage(self) -> "CrawlCoverage":
        """Fetched-versus-attempted accounting for the follower crawl.

        Same shape as the toot crawl's coverage;
        ``toots_observed`` counts follower *edges* here.  Record-path
        crawls (no sink) report edge volume via ``edges`` length.
        """
        from repro.crawler.toot_crawler import CrawlCoverage

        failure_counts: dict[str, int] = {}
        for label in self.failure_classes.values():
            failure_counts[label] = failure_counts.get(label, 0) + 1
        blocked = failure_counts.get("blocked", 0)
        probed_ok = sum(1 for label in self.probe_outcomes.values() if label == "ok")
        offline = len(self.probe_outcomes) - probed_ok
        crawled = probed_ok - len(self.failures) + len(self.resumed)
        observed = (
            sum(self.edge_counts.values()) if self.edge_counts else len(self.edges)
        )
        return CrawlCoverage(
            instances_attempted=len(self.probe_outcomes) + len(self.resumed),
            instances_crawled=crawled,
            instances_resumed=len(self.resumed),
            instances_offline=offline,
            instances_blocked=blocked,
            instances_failed=len(self.failures) - blocked,
            toots_observed=observed,
            failure_classes=failure_counts,
        )


class FollowerGraphCrawler:
    """Scrapes follower lists to reconstruct the social graph."""

    def __init__(
        self,
        transport: SimulatedTransport,
        threads: int = 10,
        politeness_delay: float = 0.0,
        directory_page_size: int = 80,
    ) -> None:
        self._transport = transport
        self._scheduler = CrawlScheduler(threads=threads)
        self._rate_limiter = RateLimiter(delay_seconds=politeness_delay)
        self.directory_page_size = directory_page_size

    # -- account discovery ------------------------------------------------------

    def list_accounts(self, domain: str, at_minute: int, tooted_only: bool = True) -> list[str]:
        """Enumerate the public accounts of an instance via its directory.

        With ``tooted_only=True`` only accounts that have posted at least
        one toot are returned — the paper scraped followers only for the
        239K accounts observed tooting.
        """
        usernames: list[str] = []
        page = 1
        while True:
            self._rate_limiter.acquire(domain)
            url = (
                f"https://{domain}/api/v1/directory?page={page}"
                f"&per_page={self.directory_page_size}"
            )
            response = self._transport.get(url, at_minute=at_minute)
            entries = response.payload
            if not entries:
                break
            for entry in entries:
                if tooted_only and entry.get("statuses_count", 0) == 0:
                    continue
                usernames.append(str(entry["username"]))
            if len(entries) < self.directory_page_size:
                break
            page += 1
        return usernames

    # -- ego networks -------------------------------------------------------------

    def crawl_followers(self, domain: str, username: str, at_minute: int) -> list[FollowEdgeRecord]:
        """Page the follower list of one account, emitting edges."""
        edges: list[FollowEdgeRecord] = []
        handle = f"{username}@{domain}"
        page = 1
        while True:
            self._rate_limiter.acquire(domain)
            url = f"https://{domain}/users/{username}/followers?page={page}"
            response = self._transport.get(url, at_minute=at_minute)
            payload = response.payload
            for follower_handle in payload.get("followers", []):
                edges.append(FollowEdgeRecord(follower=str(follower_handle), followed=handle))
            if not payload.get("has_more", False):
                break
            page += 1
        return edges

    def crawl_instance(self, domain: str, at_minute: int) -> list[FollowEdgeRecord]:
        """Collect the ego networks of every tooting account on one instance."""
        edges: list[FollowEdgeRecord] = []
        for username in self.list_accounts(domain, at_minute):
            edges.extend(self.crawl_followers(domain, username, at_minute))
        return edges

    def _crawl_into(self, sink: "GraphWriter", domain: str, at_minute: int) -> int:
        """Stream one instance's ego networks straight into a graph sink."""
        added = 0
        for username in self.list_accounts(domain, at_minute):
            edges = self.crawl_followers(domain, username, at_minute)
            added += sink.add_edges(
                domain, ((edge.follower, edge.followed) for edge in edges)
            )
        sink.end_instance(domain)
        return added

    # -- full crawl -----------------------------------------------------------------

    def crawl(
        self,
        domains: Iterable[str] | None = None,
        at_minute: int | None = None,
        sink: "GraphWriter | None" = None,
    ) -> GraphCrawlResult:
        """Crawl follower lists across every reachable instance.

        With a ``sink`` (a :class:`~repro.corpus.graph.GraphWriter`)
        edges stream to per-instance spools as they are paged instead of
        accumulating as :class:`FollowEdgeRecord` lists; instances whose
        crawl fails midway are discarded from the sink, mirroring how a
        failed instance contributes nothing to the record path either.
        A sink opened with ``resume=True`` reports its journal-sealed
        instances, which are skipped without a single request.  The
        caller finalises the sink once the crawl returns.
        """
        network = self._transport.network
        if at_minute is None:
            at_minute = network.clock.window_minutes - 1
        if domains is None:
            domains = self._transport.known_domains()
        domains = sorted(set(domains))

        result = GraphCrawlResult(crawl_minute=at_minute)
        already_sealed: set[str] = set()
        if sink is not None and hasattr(sink, "sealed_domains"):
            already_sealed = set(sink.sealed_domains())
        result.resumed = [domain for domain in domains if domain in already_sealed]
        to_probe = [domain for domain in domains if domain not in already_sealed]

        def probe(domain: str) -> str:
            self._transport.get(
                f"https://{domain}/api/v1/instance", at_minute=at_minute
            )
            return "ok"

        with obs.span("crawl/graph-probe", domains=len(to_probe)):
            probe_report = self._scheduler.run(to_probe, probe)
        result.probe_outcomes = {
            outcome.key: "ok" if outcome.ok else classify_error(outcome.error)
            for outcome in probe_report.outcomes
        }
        reachable = [d for d in to_probe if result.probe_outcomes[d] == "ok"]

        if sink is None:
            worker = lambda domain: self.crawl_instance(domain, at_minute)  # noqa: E731
        else:
            worker = lambda domain: self._crawl_into(sink, domain, at_minute)  # noqa: E731
        with obs.span("crawl/graph", instances=len(reachable)):
            report = self._scheduler.run(reachable, worker)
        for outcome in report.outcomes:
            if outcome.ok:
                if sink is None:
                    edges: list[FollowEdgeRecord] = outcome.result  # type: ignore[assignment]
                    result.edges.extend(edges)
                    for edge in edges:
                        result.accounts_seen.add(edge.follower)
                        result.accounts_seen.add(edge.followed)
                else:
                    result.edge_counts[outcome.key] = int(outcome.result)  # type: ignore[arg-type]
            else:
                if sink is not None:
                    sink.discard_instance(outcome.key)
                result.failures[outcome.key] = str(outcome.error)
                result.failure_classes[outcome.key] = classify_error(outcome.error)
        resumed_rows: dict[str, int] = {}
        if result.resumed and hasattr(sink, "resumed_rows"):
            resumed_rows = sink.resumed_rows()
        for domain in result.resumed:
            result.edge_counts[domain] = int(resumed_rows.get(domain, 0))
        edges_observed = (
            len(result.edges) if sink is None else sum(result.edge_counts.values())
        )
        obs.count("repro_crawl_edges_total", edges_observed)
        _log.info(
            "graph crawl done: %d instances reachable, %d edges, %d failed",
            len(reachable),
            edges_observed,
            len(result.failures),
        )
        return result
