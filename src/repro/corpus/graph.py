"""The on-disk columnar follower graph: edge shards + node intern tables.

:class:`GraphWriter` / :class:`GraphStore` give the social graph the
same ``.npz``-shard treatment :class:`~repro.corpus.writer.CorpusWriter`
/ :class:`~repro.corpus.store.CorpusStore` give the toot corpus: the
graph crawl (or the columnar scenario generator) streams each
instance's follower edges into a per-instance spool, sealed on clean
completion, and :meth:`GraphWriter.finalise` merges the spools —
instances in sorted-domain order, accounts and followers in crawl
order — into fixed-size edge shards plus a node intern table and a
JSON manifest.

Node codes are assigned in first-appearance order over the merged edge
stream (follower before followed within each edge, self-loops skipped),
which is exactly the node insertion order of
:func:`repro.datasets.graphs.build_follower_graph` over the same edges.
That makes :meth:`GraphMatrix.from_graph_store
<repro.engine.resilience.GraphMatrix.from_graph_store>` bit-compatible
with the networkx round-trip, and lets
:meth:`GraphStore.follower_domain_sets` feed
:func:`~repro.engine.placement.subscription_arrays_from_columns`
without a ``networkx`` graph (or a ``FollowEdgeRecord`` list) ever
existing.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.corpus.journal import JOURNAL_NAME, CrawlJournal
from repro.corpus.npzmap import open_npz
from repro.corpus.writer import (
    _PARTIAL_SUFFIX,
    _QUARANTINE_DIR,
    _Interner,
    _SpoolReader,
    _atomic_savez,
    _atomic_write_text,
    _quarantine,
    _string_array,
    _write_strings,
)
from repro.handles import split_handle

#: On-disk graph format version.
GRAPH_SCHEMA = "repro.graph/v1"

#: Default follower edges per shard.
DEFAULT_GRAPH_SHARD_SIZE = 1_000_000

#: Rows per merge chunk (decoded-handle working set bound).
_MERGE_CHUNK_ROWS = 200_000

_MANIFEST = "manifest.json"
_TABLES = "tables.npz"
_SPOOL_DIR = "spool"

#: The two integer columns every edge shard carries.
EDGE_COLUMNS = ("follower_code", "followed_code")

#: Manifest keys that must be present (and their JSON types).
_REQUIRED_KEYS = {
    "schema": str,
    "shard_size": int,
    "n_edges": int,
    "n_nodes": int,
    "n_self_loops": int,
    "crawl_minute": int,
    "columns": list,
    "tables": str,
    "shards": list,
    "edges_collected": dict,
}


class _EdgeSpool:
    """Edge buffers for one instance's follower crawl."""

    def __init__(self, domain: str) -> None:
        self.domain = domain
        self.follower: list[str] = []
        self.followed: list[str] = []

    def add_edges(self, edges: Iterable[tuple[str, str]]) -> int:
        added = 0
        for follower, followed in edges:
            self.follower.append(str(follower))
            self.followed.append(str(followed))
            added += 1
        return added

    def seal(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name in ("follower", "followed"):
            _write_strings(directory, name, getattr(self, name))
            setattr(self, name, [])


class GraphWriter:
    """Streams a follower-graph crawl into an integer-coded edge store.

    Use as the ``sink`` argument of :meth:`FollowerGraphCrawler.crawl
    <repro.crawler.graph_crawler.FollowerGraphCrawler.crawl>`; or feed
    it directly via :meth:`add_edges` + :meth:`end_instance`, then
    :meth:`finalise` once every instance is in.  Edge ingestion is
    thread-safe at instance granularity, mirroring
    :class:`~repro.corpus.writer.CorpusWriter`.
    """

    def __init__(
        self,
        path: str | Path,
        shard_size: int = DEFAULT_GRAPH_SHARD_SIZE,
        resume: bool = False,
    ) -> None:
        if shard_size < 1:
            raise DatasetError("graph shard_size must be a positive number of edges")
        self.path = Path(path)
        self.shard_size = shard_size
        self.path.mkdir(parents=True, exist_ok=True)
        self._spool_dir = self.path / _SPOOL_DIR
        self._lock = threading.Lock()
        self._spools: dict[str, _EdgeSpool] = {}
        self._sealed: dict[str, Path] = {}
        self._resumed: set[str] = set()
        self._resumed_rows: dict[str, int] = {}
        self._finalised = False
        self._journal = CrawlJournal(self.path / JOURNAL_NAME)
        if resume:
            self._recover()
        elif self._journal.path.exists():
            raise DatasetError(
                f"{self.path} holds an interrupted crawl journal; "
                f"open the writer with resume=True or clear the directory"
            )
        self._spool_dir.mkdir(exist_ok=True)

    def _recover(self) -> None:
        """Trust journal-sealed spools; quarantine every partial write."""
        replay = CrawlJournal.replay(self._journal.path)
        trusted = replay.sealed_domains()
        quarantine = self.path / _QUARANTINE_DIR
        if self._spool_dir.exists():
            for entry in sorted(self._spool_dir.iterdir()):
                if entry.is_dir() and entry.name in trusted:
                    self._sealed[entry.name] = entry
                    self._resumed.add(entry.name)
                    progress = replay.progress.get(entry.name)
                    self._resumed_rows[entry.name] = progress.rows if progress else 0
                else:
                    _quarantine(entry, quarantine)
        if not (self.path / _MANIFEST).exists():
            for pattern in ("edges-*.npz", _TABLES, f"*{_PARTIAL_SUFFIX}"):
                for entry in sorted(self.path.glob(pattern)):
                    _quarantine(entry, quarantine)
        if self._resumed:
            self._journal.note("resumed", trusted=sorted(self._resumed))

    def sealed_domains(self) -> set[str]:
        """Instances whose spools are sealed on disk (resumed ones included)."""
        with self._lock:
            return set(self._sealed)

    def resumed_domains(self) -> set[str]:
        """Sealed instances recovered from a previous run's journal."""
        with self._lock:
            return set(self._resumed)

    def resumed_rows(self) -> dict[str, int]:
        """Journal-recorded edge counts of the resumed instances."""
        with self._lock:
            return dict(self._resumed_rows)

    # -- streaming ingestion ---------------------------------------------------

    def _spool(self, domain: str) -> _EdgeSpool:
        if self._finalised:
            raise DatasetError("the graph writer has already been finalised")
        with self._lock:
            spool = self._spools.get(domain)
            if spool is None:
                if domain in self._sealed:
                    raise DatasetError(f"instance {domain!r} was already sealed")
                spool = self._spools[domain] = _EdgeSpool(domain)
            return spool

    def add_edges(self, domain: str, edges: Iterable[tuple[str, str]]) -> int:
        """Buffer ``(follower, followed)`` handle pairs observed on ``domain``."""
        added = self._spool(domain).add_edges(edges)
        self._journal.page(domain, added)
        return added

    def end_instance(self, domain: str) -> None:
        """Seal ``domain``'s spool (its crawl completed cleanly).

        An instance crawled without a single follower edge still seals
        (empty) so it appears in ``edges_collected`` with a zero count —
        the graph analogue of the corpus' ``(0, 0)`` observation.
        """
        if self._finalised:
            raise DatasetError("the graph writer has already been finalised")
        with self._lock:
            spool = self._spools.pop(domain, None)
            if spool is None:
                if domain in self._sealed:
                    return
                spool = _EdgeSpool(domain)
            target = self._spool_dir / domain
            self._sealed[domain] = target
        staging = target.with_name(target.name + _PARTIAL_SUFFIX)
        spool.seal(staging)
        os.replace(staging, target)
        self._journal.sealed(domain)

    def discard_instance(self, domain: str) -> None:
        """Drop everything buffered for ``domain`` (its crawl failed)."""
        with self._lock:
            self._spools.pop(domain, None)
            sealed = self._sealed.pop(domain, None)
            self._resumed.discard(domain)
        if sealed is not None:
            shutil.rmtree(sealed, ignore_errors=True)
        self._journal.discarded(domain)

    # -- the merge -------------------------------------------------------------

    def finalise(
        self,
        crawl_minute: int = 0,
        coverage: Mapping[str, Any] | None = None,
    ) -> "GraphStore":
        """Merge every sealed spool into edge shards + tables + manifest.

        Instances merge in sorted-domain order (the scheduler returns
        outcomes in that order too, so this reproduces the legacy
        ``GraphCrawlResult.edges`` stream); nodes intern first-seen,
        follower before followed, and self-loop edges are skipped with a
        count — exactly ``build_follower_graph``'s behaviour.  Returns
        the opened :class:`GraphStore`.
        """
        if self._finalised:
            raise DatasetError("the graph writer has already been finalised")
        with self._lock:
            if self._spools:
                unsealed = ", ".join(sorted(self._spools))
                raise DatasetError(
                    f"cannot finalise with open instance spools: {unsealed}"
                )
            self._finalised = True
        self._journal.note("finalise_started")

        nodes = _Interner()
        domains = _Interner()
        node_domains: list[int] = []

        def node_code(handle: str) -> int:
            known = nodes.code.get(handle)
            if known is None:
                known = nodes.intern_one(handle)
                node_domains.append(domains.intern_one(split_handle(handle)[1]))
            return known

        pending: dict[str, list[np.ndarray]] = {name: [] for name in EDGE_COLUMNS}
        pending_rows = 0
        shards: list[dict[str, object]] = []
        flushed_rows = 0

        def flush(everything: bool = False) -> None:
            nonlocal pending_rows, flushed_rows
            while pending_rows >= self.shard_size or (everything and pending_rows):
                take = min(self.shard_size, pending_rows)
                shard_arrays: dict[str, np.ndarray] = {}
                for name, chunks in pending.items():
                    merged = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                    shard_arrays[name] = merged[:take]
                    pending[name] = [merged[take:]]
                file_name = f"edges-{len(shards):05d}.npz"
                _atomic_savez(self.path / file_name, **shard_arrays)
                shards.append(
                    {"file": file_name, "start": flushed_rows, "stop": flushed_rows + take}
                )
                flushed_rows += take
                pending_rows -= take

        edges_collected: dict[str, int] = {}
        self_loops = 0
        for domain in sorted(self._sealed):
            spool = _SpoolReader(self._sealed[domain], length_column="follower")
            n_rows = spool.n_rows
            edges_collected[domain] = n_rows
            for start in range(0, n_rows, _MERGE_CHUNK_ROWS):
                stop = min(start + _MERGE_CHUNK_ROWS, n_rows)
                followers = spool.strings("follower", start, stop)
                followed = spool.strings("followed", start, stop)
                src: list[int] = []
                dst: list[int] = []
                for follower, target in zip(followers, followed):
                    if follower == target:
                        self_loops += 1
                        continue
                    src.append(node_code(follower))
                    dst.append(node_code(target))
                if not src:
                    continue
                pending["follower_code"].append(np.asarray(src, dtype=np.int32))
                pending["followed_code"].append(np.asarray(dst, dtype=np.int32))
                pending_rows += len(src)
                flush()
        flush(everything=True)

        _atomic_savez(
            self.path / _TABLES,
            handles=_string_array(nodes.values),
            node_domains=np.asarray(node_domains, dtype=np.int32),
            domains=_string_array(domains.values),
        )
        manifest = {
            "schema": GRAPH_SCHEMA,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "shard_size": self.shard_size,
            "n_edges": flushed_rows,
            "n_nodes": len(nodes),
            "n_self_loops": self_loops,
            "crawl_minute": crawl_minute,
            "columns": list(EDGE_COLUMNS),
            "tables": _TABLES,
            "shards": shards,
            "edges_collected": {
                domain: int(count) for domain, count in sorted(edges_collected.items())
            },
        }
        if coverage is not None:
            manifest["coverage"] = dict(coverage)
        _atomic_write_text(
            self.path / _MANIFEST, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        shutil.rmtree(self._spool_dir, ignore_errors=True)
        self._journal.remove()
        return GraphStore(self.path)


class GraphStore:
    """Read-side handle on a columnar follower-graph directory."""

    def __init__(self, path: str | Path, *, mmap: bool = False) -> None:
        self.path = Path(path)
        self.mmap = bool(mmap)
        manifest_path = self.path / _MANIFEST
        if not manifest_path.exists():
            raise DatasetError(f"no graph manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{manifest_path}: invalid JSON") from exc
        self.manifest = self._validated(manifest)
        self._tables: Any = None
        self._node_index: dict[str, int] | None = None

    # -- manifest validation ---------------------------------------------------

    def _validated(self, manifest: Any) -> dict[str, Any]:
        where = f"{self.path}: graph manifest"
        if not isinstance(manifest, dict):
            raise DatasetError(f"{where} must be a JSON object")
        for key, expected in _REQUIRED_KEYS.items():
            if key not in manifest:
                raise DatasetError(f"{where} is missing {key!r}")
            if not isinstance(manifest[key], expected):
                raise DatasetError(f"{where} field {key!r} has the wrong type")
        if manifest["schema"] != GRAPH_SCHEMA:
            raise DatasetError(
                f"{where} key 'schema': unsupported graph schema "
                f"{manifest['schema']!r} (expected {GRAPH_SCHEMA!r})"
            )
        if list(manifest["columns"]) != list(EDGE_COLUMNS):
            raise DatasetError(
                f"{where} key 'columns' declares an unexpected column set"
            )
        if not (self.path / manifest["tables"]).exists():
            raise DatasetError(
                f"{where} key 'tables': graph tables file "
                f"{manifest['tables']!r} is missing"
            )
        cursor = 0
        for entry in manifest["shards"]:
            if not isinstance(entry, dict) or {"file", "start", "stop"} - set(entry):
                raise DatasetError(
                    f"{where} key 'shards': graph shard entries need file/start/stop"
                )
            if entry["start"] != cursor or entry["stop"] <= entry["start"]:
                raise DatasetError(
                    f"{where} key 'shards': graph shard ranges must be "
                    f"contiguous from zero: "
                    f"[{entry['start']}, {entry['stop']}) after {cursor}"
                )
            if not (self.path / entry["file"]).exists():
                raise DatasetError(
                    f"{where} key 'shards': graph shard file "
                    f"{entry['file']!r} is missing"
                )
            cursor = entry["stop"]
        if cursor != manifest["n_edges"]:
            raise DatasetError(
                f"{where} key 'n_edges': graph shards cover {cursor} edges "
                f"but the manifest declares {manifest['n_edges']}"
            )
        return manifest

    # -- structure -------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return self.manifest["n_edges"]

    @property
    def n_nodes(self) -> int:
        return self.manifest["n_nodes"]

    @property
    def n_self_loops(self) -> int:
        return self.manifest["n_self_loops"]

    @property
    def crawl_minute(self) -> int:
        return self.manifest["crawl_minute"]

    @property
    def shard_size(self) -> int:
        return self.manifest["shard_size"]

    @property
    def n_shards(self) -> int:
        return len(self.manifest["shards"])

    def shard_bounds(self) -> list[tuple[int, int]]:
        """The ``[start, stop)`` edge range of every shard, in order."""
        return [(entry["start"], entry["stop"]) for entry in self.manifest["shards"]]

    def nbytes(self) -> int:
        """Total on-disk footprint (shards + tables + manifest)."""
        names = [entry["file"] for entry in self.manifest["shards"]]
        names += [self.manifest["tables"], _MANIFEST]
        return sum((self.path / name).stat().st_size for name in names)

    @property
    def coverage(self) -> dict[str, Any] | None:
        """The crawl-coverage accounting stamped at finalise (if any)."""
        return self.manifest.get("coverage")

    def content_digest(self) -> str:
        """SHA-256 over the graph *content*, independent of file bytes.

        The graph analogue of :meth:`CorpusStore.content_digest
        <repro.corpus.store.CorpusStore.content_digest>`: decompressed
        edge columns + node tables + the manifest minus volatile keys.
        """
        import hashlib

        from repro.corpus.store import digest_array, stable_manifest_digest

        digest = hashlib.sha256()
        for name in ("handles", "node_domains", "domains"):
            digest_array(digest, name, self._table(name))
        for index in range(self.n_shards):
            follower, followed = self.shard_edges(index)
            digest_array(digest, f"shard{index}:follower_code", follower)
            digest_array(digest, f"shard{index}:followed_code", followed)
        stable_manifest_digest(digest, self.manifest)
        return digest.hexdigest()

    @property
    def edges_collected(self) -> dict[str, int]:
        """Edges observed per cleanly-crawled instance (zeroes included)."""
        return {domain: int(n) for domain, n in self.manifest["edges_collected"].items()}

    # -- intern tables ---------------------------------------------------------

    def _table(self, name: str) -> np.ndarray:
        if self._tables is None:
            self._tables = open_npz(self.path / self.manifest["tables"], mmap=self.mmap)
        return self._tables[name]

    @property
    def handles(self) -> np.ndarray:
        """Every account handle in the graph (node intern order)."""
        return self._table("handles")

    @property
    def node_domain_codes(self) -> np.ndarray:
        """Per-node domain code into :attr:`domains` (node intern order)."""
        return self._table("node_domains")

    @property
    def domains(self) -> np.ndarray:
        """Every domain hosting at least one node (intern order)."""
        return self._table("domains")

    def node_index(self) -> dict[str, int]:
        """Handle → node code (built once, cached)."""
        if self._node_index is None:
            self._node_index = {
                handle: code for code, handle in enumerate(self.handles.tolist())
            }
        return self._node_index

    # -- shard access ----------------------------------------------------------

    def shard_edges(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """One shard's ``(follower_code, followed_code)`` columns."""
        entry = self.manifest["shards"][index]
        handle = open_npz(self.path / entry["file"], mmap=self.mmap)
        return handle["follower_code"], handle["followed_code"]

    def iter_edges(self) -> Iterator[tuple[tuple[int, int], np.ndarray, np.ndarray]]:
        """Stream ``((start, stop), follower_code, followed_code)`` per shard."""
        for index, bounds in enumerate(self.shard_bounds()):
            follower, followed = self.shard_edges(index)
            yield bounds, follower, followed

    def iter_edge_handles(self) -> Iterator[tuple[str, str]]:
        """Stream decoded ``(follower, followed)`` handle pairs, shard by shard.

        The compatibility escape hatch for networkx consumers
        (:meth:`GraphDataset.from_edges
        <repro.datasets.graphs.GraphDataset.from_edges>`); the scale
        paths use the integer columns directly.
        """
        handles = self.handles.tolist()
        for _, follower, followed in self.iter_edges():
            for src, dst in zip(follower.tolist(), followed.tolist()):
                yield handles[src], handles[dst]

    # -- columnar consumers ----------------------------------------------------

    def follower_domain_sets(self, authors: Sequence[str]) -> dict[str, set[str]]:
        """Author → follower-domain sets, straight from the edge columns.

        Equivalent to :func:`repro.engine.placement.follower_domain_sets`
        over the networkx graph of the same edges: keys keep
        first-appearance order over ``authors`` (duplicates collapse),
        authors absent from the graph get empty sets, and follower
        domains are *not* filtered against the author's own home (the
        subscription expansion drops those later).
        """
        result: dict[str, set[str]] = {author: set() for author in authors}
        if not result or self.n_nodes == 0:
            return result
        index = self.node_index()
        author_flag = np.zeros(self.n_nodes, dtype=bool)
        author_of_code: dict[int, str] = {}
        for author in result:
            code = index.get(author)
            if code is not None:
                author_flag[code] = True
                author_of_code[code] = author
        if not author_of_code:
            return result
        node_domains = self.node_domain_codes
        domain_values = self.domains.tolist()
        n_domains = max(1, len(domain_values))
        for _, follower, followed in self.iter_edges():
            mask = author_flag[followed]
            if not mask.any():
                continue
            keys = followed[mask].astype(np.int64) * n_domains + node_domains[
                follower[mask]
            ].astype(np.int64)
            for key in np.unique(keys).tolist():
                result[author_of_code[key // n_domains]].add(
                    domain_values[key % n_domains]
                )
        return result

    def users_per_instance(self) -> dict[str, int]:
        """Accounts observed in the graph per domain (node counts)."""
        counts = np.bincount(self.node_domain_codes, minlength=self.domains.shape[0])
        return {
            str(domain): int(count)
            for domain, count in zip(self.domains.tolist(), counts.tolist())
        }

    def federation_edge_counts(self) -> dict[tuple[str, str], int]:
        """Cross-instance follow counts ``(follower_domain, followed_domain)``.

        Same-domain edges are skipped, mirroring
        :func:`repro.datasets.graphs.build_federation_graph`.
        """
        domain_values = self.domains.tolist()
        n_domains = max(1, len(domain_values))
        node_domains = self.node_domain_codes
        totals: dict[int, int] = {}
        for _, follower, followed in self.iter_edges():
            src = node_domains[follower].astype(np.int64)
            dst = node_domains[followed].astype(np.int64)
            mask = src != dst
            if not mask.any():
                continue
            keys, counts = np.unique(src[mask] * n_domains + dst[mask], return_counts=True)
            for key, count in zip(keys.tolist(), counts.tolist()):
                totals[key] = totals.get(key, 0) + count
        return {
            (domain_values[key // n_domains], domain_values[key % n_domains]): count
            for key, count in totals.items()
        }
