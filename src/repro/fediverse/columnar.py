"""The generated fediverse as whole-population numpy columns.

:class:`~repro.fediverse.workload.ScenarioGenerator` draws every user,
follow, toot, boost and login as one array per attribute across the
whole population and hands back a :class:`ColumnarScenario`.  It is the
one source of truth for the population: every entry point reads the
same columns.

The handle serves the crawler-facing surface without materialising
anything: :meth:`ColumnarScenario.timeline_page` serves
``Timeline.page``-shaped payload pages straight from the columns,
:meth:`ColumnarScenario.write_corpus` streams the federated-timeline
crawl of every online instance into a
:class:`~repro.corpus.writer.CorpusWriter` (never holding more than one
instance's render chunk), and :meth:`ColumnarScenario.write_graph`
streams the follower crawl into a
:class:`~repro.corpus.graph.GraphWriter`;
:meth:`ColumnarScenario.save_corpus` / :meth:`ColumnarScenario.save_graph`
wrap them into fresh on-disk stores.  Together with
:func:`~repro.crawler.monitor.monitor_scenario` (the instance monitor
over the same columns) they are the data plane of every fault-free
experiment run.  :meth:`ColumnarScenario.to_network` replays the *same*
columns into a real :class:`FediverseNetwork` for the simulated crawl
and the chaos harness, so the streamed stores are identical to what the
real crawlers collect from that view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SimulationError
from repro.fediverse.certificates import CertificateRegistry
from repro.fediverse.entities import InstanceDescriptor, UserRef, Visibility
from repro.fediverse.geo import GeoDatabase
from repro.fediverse.network import FediverseNetwork
from repro.fediverse.presets import ScenarioConfig
from repro.fediverse.timeline import DEFAULT_PAGE_SIZE, ColumnarTimeline
from repro.fediverse.uptime import AvailabilitySchedule
from repro.simtime import SimClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from pathlib import Path

    from repro.corpus.graph import GraphStore, GraphWriter
    from repro.corpus.store import CorpusStore
    from repro.corpus.writer import CorpusWriter

#: Rows rendered per ``write_corpus`` chunk: bounds the per-chunk string
#: working set while amortising the numpy slicing.
_RENDER_CHUNK_ROWS = 200_000


@dataclass
class ColumnarScenario:
    """A generated fediverse held as numpy columns.

    Users are numbered ``0..n_users-1`` contiguously per instance (user
    ``i`` is ``user{i}@<domain of their instance>``); toot ids are
    ``row + 1`` in posting order, matching the network's monotonic id
    allocator; ``toot_boost_of`` is the original's toot id or 0.
    """

    config: ScenarioConfig
    clock: SimClock
    descriptors: list[InstanceDescriptor]
    availability: AvailabilitySchedule
    certificates: CertificateRegistry
    #: Every instance IP registered the way
    #: :meth:`FediverseNetwork.add_instance` registers it.
    geo: GeoDatabase
    user_instance: np.ndarray
    user_created: np.ndarray
    follow_src: np.ndarray
    follow_dst: np.ndarray
    toot_author: np.ndarray
    toot_created: np.ndarray
    toot_private: np.ndarray
    toot_tag: np.ndarray
    toot_cw: np.ndarray
    toot_media: np.ndarray
    toot_boost_of: np.ndarray
    login_user: np.ndarray
    login_minute: np.ndarray
    _cache: dict[str, Any] = field(default_factory=dict, repr=False)

    # -- structure -------------------------------------------------------------

    @property
    def n_instances(self) -> int:
        return len(self.descriptors)

    @property
    def n_users(self) -> int:
        return int(self.user_instance.size)

    @property
    def n_toots(self) -> int:
        return int(self.toot_author.size)

    def domains(self) -> list[str]:
        """Every instance domain, sorted (like the network's)."""
        return sorted(d.domain for d in self.descriptors)

    def _domain_index(self) -> dict[str, int]:
        if "domain_index" not in self._cache:
            self._cache["domain_index"] = {
                d.domain: i for i, d in enumerate(self.descriptors)
            }
        return self._cache["domain_index"]

    def _user_segments(self) -> np.ndarray:
        if "user_seg" not in self._cache:
            seg = np.zeros(self.n_instances + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.user_instance, minlength=self.n_instances), out=seg[1:]
            )
            self._cache["user_seg"] = seg
        return self._cache["user_seg"]

    def _instance_domains(self) -> list[str]:
        if "instance_domains" not in self._cache:
            self._cache["instance_domains"] = [d.domain for d in self.descriptors]
        return self._cache["instance_domains"]

    # -- derived graph structure -----------------------------------------------

    def _delivery_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Author → subscribing remote instances (CSR over authors).

        Instance ``j`` subscribes to author ``a`` when at least one user
        on ``j`` follows ``a`` from another instance — exactly the set of
        delivery targets the federation router pushes ``a``'s public
        toots to.
        """
        if "delivery" not in self._cache:
            inst = self.user_instance
            src_inst = inst[self.follow_src].astype(np.int64)
            dst = self.follow_dst.astype(np.int64)
            cross = src_inst != inst[self.follow_dst]
            keys = np.unique(dst[cross] * self.n_instances + src_inst[cross])
            authors = keys // self.n_instances
            targets = (keys % self.n_instances).astype(np.int32)
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(np.bincount(authors, minlength=self.n_users), out=indptr[1:])
            self._cache["delivery"] = (indptr, targets)
        return self._cache["delivery"]

    def _receivers_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Instance → remote authors delivered to it (CSR over instances)."""
        if "receivers" not in self._cache:
            indptr, targets = self._delivery_csr()
            authors = np.repeat(
                np.arange(self.n_users, dtype=np.int64), np.diff(indptr)
            )
            order = np.argsort(targets, kind="stable")
            inst_indptr = np.zeros(self.n_instances + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(targets, minlength=self.n_instances), out=inst_indptr[1:]
            )
            self._cache["receivers"] = (inst_indptr, authors[order])
        return self._cache["receivers"]

    def _toots_by_author(self) -> tuple[np.ndarray, np.ndarray]:
        """All toot rows grouped by author (CSR over authors)."""
        if "toots_by_author" not in self._cache:
            order = np.argsort(self.toot_author, kind="stable").astype(np.int64)
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.toot_author, minlength=self.n_users), out=indptr[1:]
            )
            self._cache["toots_by_author"] = (indptr, order)
        return self._cache["toots_by_author"]

    def _public_toots_by_author(self) -> tuple[np.ndarray, np.ndarray]:
        """Public toot rows grouped by author (CSR over authors)."""
        if "public_by_author" not in self._cache:
            public_rows = np.flatnonzero(~self.toot_private)
            authors = self.toot_author[public_rows]
            order = np.argsort(authors, kind="stable")
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(np.bincount(authors, minlength=self.n_users), out=indptr[1:])
            self._cache["public_by_author"] = (indptr, public_rows[order])
        return self._cache["public_by_author"]

    def toot_counts_per_user(self) -> np.ndarray:
        """Locally-authored toots per user (boosts and private included)."""
        if "toot_counts" not in self._cache:
            self._cache["toot_counts"] = np.bincount(
                self.toot_author, minlength=self.n_users
            )
        return self._cache["toot_counts"]

    # -- timelines -------------------------------------------------------------

    def timeline_rows(self, domain: str) -> np.ndarray:
        """Row indices on ``domain``'s federated timeline, id-ascending.

        Local toots (public and private) plus the public toots of every
        remote author at least one local user follows — what federation
        delivery leaves on the real instance's federated timeline.
        """
        index = self._domain_index()[domain]
        seg = self._user_segments()
        lo, hi = int(seg[index]), int(seg[index + 1])
        all_indptr, all_rows = self._toots_by_author()
        local = all_rows[all_indptr[lo] : all_indptr[hi]]

        recv_indptr, recv_authors = self._receivers_csr()
        remote_authors = recv_authors[recv_indptr[index] : recv_indptr[index + 1]]
        pub_indptr, pub_rows = self._public_toots_by_author()
        pieces = [local]
        for author in remote_authors.tolist():
            pieces.append(pub_rows[pub_indptr[author] : pub_indptr[author + 1]])
        rows = np.concatenate(pieces) if len(pieces) > 1 else local
        rows.sort()
        return rows

    def instance_timeline(self, domain: str) -> ColumnarTimeline:
        """The federated timeline of ``domain`` as a :class:`ColumnarTimeline`."""
        rows = self.timeline_rows(domain)
        return ColumnarTimeline(rows + 1, ~self.toot_private[rows])

    def _user_handle_tables(self) -> tuple[list[str], list[str]]:
        """Per-user ``user{i}@domain`` handles and home domains (cached)."""
        if "handles" not in self._cache:
            domains = self._instance_domains()
            user_domains = [domains[i] for i in self.user_instance.tolist()]
            handles = [
                f"user{index}@{domain}" for index, domain in enumerate(user_domains)
            ]
            self._cache["handles"] = (handles, user_domains)
        return self._cache["handles"]

    def _tag_names(self) -> list[str]:
        if "tags" not in self._cache:
            self._cache["tags"] = [
                f"tag{i}" for i in range(self.config.hashtag_vocabulary)
            ]
        return self._cache["tags"]

    def render_rows(self, rows: np.ndarray, collected_from: str) -> list[dict[str, Any]]:
        """Render toot rows as timeline-API payload dicts (crawler shape)."""
        handles, user_domains = self._user_handle_tables()
        tag_names = self._tag_names()
        payloads: list[dict[str, Any]] = []
        for row in rows.tolist():
            author = int(self.toot_author[row])
            domain = user_domains[author]
            tag = int(self.toot_tag[row])
            boost_of = int(self.toot_boost_of[row])
            payloads.append(
                {
                    "id": row + 1,
                    "url": f"https://{domain}/@user{author}/{row + 1}",
                    "account": handles[author],
                    "account_domain": domain,
                    "created_at": int(self.toot_created[row]),
                    "visibility": (
                        Visibility.PRIVATE.value
                        if self.toot_private[row]
                        else Visibility.PUBLIC.value
                    ),
                    "sensitive": bool(self.toot_cw[row]),
                    "tags": [tag_names[tag]] if tag >= 0 else [],
                    "media_attachments": int(self.toot_media[row]),
                    "favourites_count": 0,
                    "reblog_of_id": boost_of if boost_of else None,
                    "collected_from": collected_from,
                }
            )
        return payloads

    def timeline_page(
        self,
        domain: str,
        max_id: int | None = None,
        limit: int = DEFAULT_PAGE_SIZE,
    ) -> list[dict[str, Any]]:
        """One public federated-timeline page, shaped like the API payload.

        Mirrors ``Timeline.page`` + ``toot_to_payload`` over the real
        network: the newest ``limit`` public toots strictly below
        ``max_id``, newest first.
        """
        timeline = self.instance_timeline(domain)
        rows = self.timeline_rows(domain)[timeline.page_positions(max_id, limit)]
        return self.render_rows(rows, collected_from=domain)

    # -- headline stats ----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Population counts matching :meth:`FediverseNetwork.stats`."""
        inst = self.user_instance
        src_inst = inst[self.follow_src].astype(np.int64)
        dst_inst = inst[self.follow_dst].astype(np.int64)
        cross = src_inst != dst_inst
        federation_edges = np.unique(
            src_inst[cross] * self.n_instances + dst_inst[cross]
        ).size
        return {
            "instances": self.n_instances,
            "users": self.n_users,
            "toots": self.n_toots,
            "public_toots": int((~self.toot_private).sum()),
            "follow_edges": int(self.follow_src.size),
            "federation_edges": int(federation_edges),
        }

    # -- gating (which instances a crawl can see) --------------------------------

    @property
    def crawl_minute(self) -> int:
        """The minute the stores are crawled at: the window's last."""
        return self.config.window_minutes - 1

    def reachable(self, descriptor: InstanceDescriptor, minute: int) -> bool:
        """Whether a crawler reaches ``descriptor`` at ``minute`` at all."""
        if descriptor.created_at > minute:
            return False
        if self.certificates.is_lapsed(descriptor.domain, minute):
            return False
        return self.availability.is_online(descriptor.domain, minute)

    # -- streaming: scenario → corpus ---------------------------------------------

    def write_corpus(
        self,
        writer: "CorpusWriter",
        at_minute: int | None = None,
        chunk_rows: int = _RENDER_CHUNK_ROWS,
    ) -> dict[str, int]:
        """Stream the federated-timeline crawl of every instance into ``writer``.

        Produces exactly what :class:`~repro.crawler.toot_crawler.TootCrawler`
        collects from :meth:`to_network`'s materialisation at the same
        minute: per reachable, non-blocked instance, the public federated
        timeline newest-first.  Rows render in bounded chunks, so peak
        memory is one instance's row indices plus one chunk of strings.
        Returns rows written per instance; the caller finalises.
        """
        minute = self.crawl_minute if at_minute is None else at_minute
        handles, user_domains = self._user_handle_tables()
        tag_names = self._tag_names()
        written: dict[str, int] = {}
        for descriptor in sorted(self.descriptors, key=lambda d: d.domain):
            if not self.reachable(descriptor, minute):
                continue
            if descriptor.crawl_blocked:
                continue
            domain = descriptor.domain
            rows = self.timeline_rows(domain)
            rows = rows[~self.toot_private[rows]][::-1]  # public, newest first
            total = int(rows.size)
            for start in range(0, total, chunk_rows):
                chunk = rows[start : start + chunk_rows]
                authors = self.toot_author[chunk].astype(np.int64)
                ids = chunk + 1
                tags = self.toot_tag[chunk]
                tagged = tags >= 0
                urls = [
                    f"https://{user_domains[author]}/@user{author}/{toot_id}"
                    for author, toot_id in zip(authors.tolist(), ids.tolist())
                ]
                accounts = [handles[author] for author in authors.tolist()]
                author_domains = [user_domains[author] for author in authors.tolist()]
                writer.add_columns(
                    domain,
                    urls=urls,
                    accounts=accounts,
                    author_domains=author_domains,
                    toot_id=ids,
                    created_minute=self.toot_created[chunk],
                    is_boost=self.toot_boost_of[chunk] > 0,
                    sensitive=self.toot_cw[chunk],
                    media_attachments=self.toot_media[chunk].astype(np.int32),
                    favourites=np.zeros(chunk.size, dtype=np.int32),
                    hashtag_flat=[tag_names[tag] for tag in tags[tagged].tolist()],
                    hashtag_lengths=tagged.astype(np.int64),
                )
            writer.end_instance(domain)
            written[domain] = total
        return written

    # -- streaming: scenario → follower graph -------------------------------------

    def write_graph(
        self, writer: "GraphWriter", at_minute: int | None = None
    ) -> dict[str, int]:
        """Stream the follower crawl of every instance into ``writer``.

        Produces exactly what :class:`FollowerGraphCrawler` collects in
        sink mode from the materialised network: per reachable instance
        (crawl blocking only affects timelines, not follower pages), the
        accounts that have tooted — in directory order, which sorts
        usernames as strings — each contributing its follower list sorted
        by ``(username, domain)``.  Returns edges written per instance.
        """
        minute = self.crawl_minute if at_minute is None else at_minute
        handles, _ = self._user_handle_tables()
        toot_counts = self.toot_counts_per_user()
        seg = self._user_segments()

        # Followers of each account, ordered the way followers_page sorts
        # UserRef objects: by (username, domain).  Usernames are globally
        # unique here, so ranking by username string alone is enough.
        if "followers_csr" not in self._cache:
            usernames = np.asarray([f"user{i}" for i in range(self.n_users)])
            rank = np.empty(self.n_users, dtype=np.int64)
            rank[np.argsort(usernames, kind="stable")] = np.arange(self.n_users)
            dst = self.follow_dst.astype(np.int64)
            order = np.lexsort((rank[self.follow_src.astype(np.int64)], dst))
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(np.bincount(dst, minlength=self.n_users), out=indptr[1:])
            self._cache["followers_csr"] = (indptr, self.follow_src[order])
        indptr, ordered_src = self._cache["followers_csr"]

        written: dict[str, int] = {}
        for descriptor in sorted(self.descriptors, key=lambda d: d.domain):
            if not self.reachable(descriptor, minute):
                continue
            domain = descriptor.domain
            index = self._domain_index()[domain]
            lo, hi = int(seg[index]), int(seg[index + 1])
            tooting = [u for u in range(lo, hi) if toot_counts[u] > 0]
            tooting.sort(key=lambda u: f"user{u}")  # directory string order
            added = 0
            for account in tooting:
                followers = ordered_src[indptr[account] : indptr[account + 1]]
                if not followers.size:
                    continue
                account_handle = handles[account]
                added += writer.add_edges(
                    domain,
                    (
                        (handles[int(follower)], account_handle)
                        for follower in followers
                    ),
                )
            writer.end_instance(domain)
            written[domain] = added
        return written

    # -- streaming into fresh stores -----------------------------------------------

    def save_corpus(self, path: "str | Path", shard_size: int | None = None) -> "CorpusStore":
        """Stream the toot crawl into a new corpus at ``path`` and open it."""
        from repro.corpus.writer import DEFAULT_CORPUS_SHARD_SIZE, CorpusWriter

        writer = CorpusWriter(path, shard_size=shard_size or DEFAULT_CORPUS_SHARD_SIZE)
        self.write_corpus(writer, at_minute=self.crawl_minute)
        return writer.finalise(crawl_minute=self.crawl_minute)

    def save_graph(self, path: "str | Path", shard_size: int | None = None) -> "GraphStore":
        """Stream the follower crawl into a new graph store at ``path`` and open it."""
        from repro.corpus.graph import DEFAULT_GRAPH_SHARD_SIZE, GraphWriter

        writer = GraphWriter(path, shard_size=shard_size or DEFAULT_GRAPH_SHARD_SIZE)
        self.write_graph(writer, at_minute=self.crawl_minute)
        return writer.finalise(crawl_minute=self.crawl_minute)

    # -- differential materialisation ---------------------------------------------

    def to_network(self) -> FediverseNetwork:
        """Materialise the columns into a real :class:`FediverseNetwork`.

        Every user, follow, toot, boost and login replays through the
        network in column order, with the scenario's availability
        schedule, certificate registry and geo database shared, so real
        crawlers over the result observe exactly what :meth:`write_corpus`
        / :meth:`write_graph` stream and what
        :func:`~repro.crawler.monitor.monitor_scenario` derives.  This is
        the object view :func:`~repro.fediverse.workload.build_scenario`
        returns: ``collect``, ``export`` and the chaos path of ``run``
        crawl it.  It holds every toot as an object, so fault-free
        experiment runs read the columns instead.
        """
        network = FediverseNetwork(
            clock=self.clock,
            geo=self.geo,
            certificates=self.certificates,
            availability=self.availability,
        )
        for descriptor in self.descriptors:
            network.add_instance(descriptor)

        domains = self._instance_domains()
        refs: list[UserRef] = []
        for index in range(self.n_users):
            domain = domains[int(self.user_instance[index])]
            network.register_user(
                domain, f"user{index}", int(self.user_created[index]), invited=True
            )
            refs.append(UserRef(username=f"user{index}", domain=domain))

        for src, dst in zip(self.follow_src.tolist(), self.follow_dst.tolist()):
            network.follow(refs[src], refs[dst], created_at=int(self.user_created[src]))

        tag_names = self._tag_names()
        for row in range(self.n_toots):
            author = refs[int(self.toot_author[row])]
            created_at = int(self.toot_created[row])
            boost_of = int(self.toot_boost_of[row])
            if boost_of:
                original_author = refs[int(self.toot_author[boost_of - 1])]
                original = network.get_instance(original_author.domain).toots[boost_of]
                boost = network.boost(author, original, created_at=created_at)
                if boost.toot_id != row + 1:  # pragma: no cover - invariant
                    raise SimulationError("columnar toot ids diverged from the network")
                continue
            tag = int(self.toot_tag[row])
            toot = network.post_toot(
                author=author,
                created_at=created_at,
                visibility=(
                    Visibility.PRIVATE if self.toot_private[row] else Visibility.PUBLIC
                ),
                hashtags=(tag_names[tag],) if tag >= 0 else (),
                content_warning=bool(self.toot_cw[row]),
                media_count=int(self.toot_media[row]),
            )
            if toot.toot_id != row + 1:  # pragma: no cover - invariant
                raise SimulationError("columnar toot ids diverged from the network")

        for user, minute in zip(self.login_user.tolist(), self.login_minute.tolist()):
            network.record_login(refs[user], minute=int(minute))
        return network
