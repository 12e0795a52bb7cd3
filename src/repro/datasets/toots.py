"""The toots dataset: the de-duplicated catalogue of crawled toots.

Wraps the output of :class:`~repro.crawler.toot_crawler.TootCrawler` with
the indexes used in Sections 4 and 5: per-author and per-home-instance
toot counts, boost counts, and the home/remote composition of each
instance's federated timeline (Fig. 14).

Two backends share this API:

* **records** — the legacy in-memory path (:meth:`TootsDataset.from_crawl`),
  which dedups and indexes ``TootRecord`` objects eagerly;
* **corpus** — :meth:`TootsDataset.from_corpus` over a columnar
  :class:`~repro.corpus.store.CorpusStore`.  Aggregate accessors
  (counts, compositions, per-instance/per-author totals) answer straight
  from the corpus manifest and columns; only the record-level accessors
  (``records()``, ``toots_by_author`` …) materialise ``TootRecord``
  objects, lazily and once, which keeps the scale paths object-free
  while the record API keeps working for small presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.errors import DatasetError
from repro.crawler.toot_crawler import TootCrawlResult, TootRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.store import CorpusStore


@dataclass
class TimelineComposition:
    """Home vs. remote toots observed on one instance's federated timeline."""

    domain: str
    home_toots: int = 0
    remote_toots: int = 0

    @property
    def total(self) -> int:
        """Total number of toots on the federated timeline."""
        return self.home_toots + self.remote_toots

    @property
    def home_fraction(self) -> float:
        """Fraction of the federated timeline generated locally."""
        if self.total == 0:
            return 0.0
        return self.home_toots / self.total

    @property
    def remote_fraction(self) -> float:
        """Fraction of the federated timeline replicated from elsewhere."""
        if self.total == 0:
            return 0.0
        return self.remote_toots / self.total


class TootsDataset:
    """The de-duplicated toot catalogue plus per-instance observations."""

    def __init__(
        self,
        records: Iterable[TootRecord] | None = None,
        observed_by_instance: Mapping[str, Iterable[TootRecord]] | None = None,
        crawl_minute: int = 0,
        *,
        corpus: "CorpusStore | None" = None,
    ) -> None:
        self.crawl_minute = crawl_minute
        self.corpus = corpus
        self._records: dict[str, TootRecord] | None = None
        self._by_author: dict[str, list[TootRecord]] | None = None
        self._by_home_instance: dict[str, list[TootRecord]] | None = None
        self._observed_by_instance: dict[str, list[TootRecord]] = {}
        if corpus is not None:
            if records is not None or observed_by_instance is not None:
                raise DatasetError("pass records or a corpus backend, not both")
            if corpus.n_toots == 0:
                raise DatasetError("cannot build a toots dataset with no records")
            return
        if records is None:
            raise DatasetError("a toots dataset needs records or a corpus backend")
        self._observed_by_instance = {
            domain: list(observations)
            for domain, observations in (observed_by_instance or {}).items()
        }
        self._index(records)

    def _index(self, records: Iterable[TootRecord]) -> None:
        unique: dict[str, TootRecord] = {}
        for record in records:
            unique.setdefault(record.url, record)
        if not unique:
            raise DatasetError("cannot build a toots dataset with no records")
        self._records = unique
        self._by_author = {}
        self._by_home_instance = {}
        for record in unique.values():
            self._by_author.setdefault(record.account, []).append(record)
            self._by_home_instance.setdefault(record.author_domain, []).append(record)

    def _materialise(self) -> None:
        """Build the record-level indexes from the corpus (lazily, once)."""
        if self._records is None:
            self._index(self.corpus.iter_records())

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_crawl(cls, result: TootCrawlResult) -> "TootsDataset":
        """Build the dataset from a :class:`TootCrawlResult`.

        Consumes :meth:`TootCrawlResult.iter_records` — the records
        stream straight into the dedup index without first being copied
        into one corpus-sized ``all_records()`` list.
        """
        return cls(
            records=result.iter_records(),
            observed_by_instance=result.records_by_instance,
            crawl_minute=result.crawl_minute,
        )

    @classmethod
    def from_corpus(cls, store: "CorpusStore") -> "TootsDataset":
        """Wrap a columnar corpus without materialising any records.

        Aggregates answer from the corpus columns/manifest; record-level
        accessors materialise lazily.  Note the columnar format stores
        every crawled field, so materialised records are identical to
        the ones :meth:`from_crawl` would have produced — only the
        per-instance *observation lists* (duplicate copies) are reduced
        to their home/remote counts.
        """
        return cls(corpus=store, crawl_minute=store.crawl_minute)

    # -- basic accessors -----------------------------------------------------------

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return self.corpus.n_toots

    def records(self) -> list[TootRecord]:
        """Every unique toot record."""
        self._materialise()
        return list(self._records.values())

    def authors(self) -> list[str]:
        """Every distinct author handle."""
        if self._by_author is None:
            return sorted(self.corpus.authors.tolist())
        return sorted(self._by_author)

    def author_count(self) -> int:
        """Number of distinct authors in the catalogue."""
        if self._by_author is None:
            return int(self.corpus.authors.shape[0])
        return len(self._by_author)

    def home_instances(self) -> list[str]:
        """Every instance that authored at least one crawled toot."""
        if self._by_home_instance is None:
            return sorted(self.corpus.home_toot_counts)
        return sorted(self._by_home_instance)

    def toots_by_author(self, account: str) -> list[TootRecord]:
        """Toots authored by ``account``."""
        self._materialise()
        return list(self._by_author.get(account, []))

    def toots_from_instance(self, domain: str) -> list[TootRecord]:
        """Toots authored on ``domain`` (its home toots)."""
        self._materialise()
        return list(self._by_home_instance.get(domain, []))

    def toots_per_instance(self) -> dict[str, int]:
        """Home-toot count per instance."""
        if self._by_home_instance is None:
            return self.corpus.home_toot_counts
        return {domain: len(records) for domain, records in self._by_home_instance.items()}

    def toots_per_author(self) -> dict[str, int]:
        """Toot count per author handle."""
        if self._by_author is None:
            counts = np.zeros(self.corpus.authors.shape[0], dtype=np.int64)
            for index in range(self.corpus.n_shards):
                codes = self.corpus.shard_column(index, "author_code")
                counts += np.bincount(codes, minlength=counts.size)
            return dict(zip(self.corpus.authors.tolist(), counts.tolist()))
        return {account: len(records) for account, records in self._by_author.items()}

    def boost_count(self) -> int:
        """Number of boosts in the catalogue."""
        if self._records is None:
            return self.corpus.n_boosts
        return sum(1 for record in self._records.values() if record.is_boost)

    def original_toots(self) -> list[TootRecord]:
        """Toots that are not boosts."""
        self._materialise()
        return [record for record in self._records.values() if not record.is_boost]

    def coverage(self, total_toots_reported: int) -> float:
        """Fraction of the instance-reported toot population we collected.

        The paper compares its crawl against the counts exposed by the
        instance API and reports 62% coverage.
        """
        if total_toots_reported <= 0:
            raise DatasetError("the reported toot population must be positive")
        return min(1.0, len(self) / total_toots_reported)

    # -- federated timeline composition (Fig. 14) ------------------------------------

    def observed_instances(self) -> list[str]:
        """Instances whose federated timeline was crawled."""
        if self.corpus is not None:
            return sorted(self.corpus.observations)
        return sorted(self._observed_by_instance)

    def timeline_composition(self, domain: str) -> TimelineComposition:
        """Home/remote composition of one instance's federated timeline."""
        if self.corpus is not None:
            counts = self.corpus.observations.get(domain)
            if counts is None:
                raise DatasetError(f"no federated-timeline observations for {domain!r}")
            return TimelineComposition(
                domain=domain, home_toots=counts[0], remote_toots=counts[1]
            )
        observations = self._observed_by_instance.get(domain)
        if observations is None:
            raise DatasetError(f"no federated-timeline observations for {domain!r}")
        composition = TimelineComposition(domain=domain)
        for record in observations:
            if record.author_domain == domain:
                composition.home_toots += 1
            else:
                composition.remote_toots += 1
        return composition

    def timeline_compositions(self) -> list[TimelineComposition]:
        """Home/remote composition for every observed instance."""
        return [self.timeline_composition(domain) for domain in self.observed_instances()]

    def replicated_per_instance(self) -> dict[str, int]:
        """Per instance, the remote copies of its home toots, summed.

        Keyed like :meth:`toots_per_instance`.  The corpus backend
        answers with one ``home_code`` bincount weighted by the
        per-toot replication counts, without materialising records.
        """
        if self._by_home_instance is None:
            home_counts = self.corpus.home_toot_counts
            sums = np.bincount(
                self.corpus.column("home_code"),
                weights=self.corpus.replication_counts(),
                minlength=self.corpus.domains.shape[0],
            )
            return {
                domain: int(total)
                for domain, total in zip(self.corpus.domains.tolist(), sums.tolist())
                if domain in home_counts
            }
        replication = self.replication_counts()
        return {
            domain: sum(replication.get(record.url, 0) for record in records)
            for domain, records in self._by_home_instance.items()
        }

    def replication_counts(self) -> dict[str, int]:
        """For each toot URL, how many *other* instances held a copy.

        This quantifies how widely each toot was already replicated onto
        federated timelines at crawl time (used to motivate Section 5.2).
        The corpus backend answers from the counters accumulated at
        write time (URL strings stream shard by shard).
        """
        if self.corpus is not None:
            counts = self.corpus.replication_counts().tolist()
            return dict(zip(self.corpus.urls(), counts))
        counts = {url: 0 for url in self._records}
        for domain, observations in self._observed_by_instance.items():
            for record in observations:
                if record.author_domain != domain and record.url in counts:
                    counts[record.url] += 1
        return counts
