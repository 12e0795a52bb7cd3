"""Vectorised placement builders: integer-coded placements for the engine.

The Figs. 15-16 experiments build a placement map per strategy before any
failure is simulated; with the availability kernels batched (PR 1), that
construction was the remaining per-toot Python loop in the pipeline.
This module replaces it with whole-array operations:

* :class:`PlacementArrays` — the integer-coded placement backend: one
  home-domain code per toot plus a CSR-style ``(replica_indices,
  replica_indptr)`` pair of replica codes.  The engine's
  :class:`~repro.engine.incidence.TootIncidence` consumes it directly,
  with no dict-of-frozensets round trip;
* :class:`PlacementMap` — a strategy's placements as the experiments
  and :mod:`repro.core.replication` hand them around: the arrays
  backend, or the legacy dict of toot URL → holder domains;
* :func:`build_no_replication` — the home array, nothing else;
* :func:`build_subscription_replication` — one pass over the follower
  graph to precompute the author→follower-domain table, then pure array
  expansion per toot;
* :func:`build_random_replication` — one batched draw for every toot,
  built on Gumbel top-k sampling: perturbing the log-weights with i.i.d.
  Gumbel noise and keeping the k largest keys per row samples without
  replacement with probabilities proportional to the weights — exactly
  the distribution of successive renormalised draws (Plackett-Luce),
  which is also what ``rng.choice(..., replace=False, p=...)``
  implements one toot at a time.  The hot path materialises that draw
  *lazily*: the descending order of Gumbel-perturbed keys is the arrival
  order of an i.i.d. categorical race, so drawing a few weighted rounds
  per row and keeping the first k distinct candidates yields the
  Gumbel top-k set with an ``n×O(k)`` footprint instead of ``n×m``;
  rows that do not resolve within the oversampled rounds fall back to
  the dense ``n_bad×m`` Gumbel key matrix (uniform keys in the
  unweighted case), which is exact for any weight skew.

Invariants every builder guarantees (and :meth:`PlacementArrays.validate`
checks): replica codes are distinct within a row and never equal the
row's home code, so ``holders(t) = {home[t]} ∪ replicas[t]`` has
``1 + replica_count`` members and the incidence matrix stays binary.

The pure-Python reference loops live on in
:mod:`repro.core.replication` as ``_*_python`` functions; the
differential suite (``tests/engine/test_placement.py``) holds these
builders to exact equality where the strategy is deterministic and to
equivalent replica-count distributions for the random draws.  Note the
batched draw consumes the RNG stream in a different order than the
legacy one-``rng.choice``-per-toot loop, so seeded *random* placements
legitimately differ from the legacy loop toot-by-toot while remaining
deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.graph import GraphStore
    from repro.corpus.store import CorpusStore

#: Row-chunk sizing for the batched draws: keep the per-chunk key matrix
#: around ~32 MB of float64 so 67M-toot runs stay memory-bounded.  The
#: chunk size is a pure function of the candidate count, never of the
#: machine, so a seed always yields the same placements.
_CHUNK_ELEMENTS = 4_000_000


@dataclass(eq=False)
class PlacementArrays:
    """Integer-coded placements: per-toot home codes plus replica CSR arrays.

    ``domains`` is the sorted domain universe (homes plus every possible
    replica target); ``home[t]`` indexes into it, and
    ``replica_indices[replica_indptr[t]:replica_indptr[t + 1]]`` are the
    codes of toot ``t``'s replicas beyond its home instance.

    ``toot_urls`` is any sequence — a tuple for the record-built
    backends, or the lazy :class:`~repro.corpus.store.CorpusUrls` view
    for corpus-built ones, so the scale paths (which only ever read
    codes) never materialise the URL strings.  ``source_bounds`` carries
    the corpus shard boundaries when the backend was built from a
    columnar store; the sweep's auto-sharding streams over exactly those
    shards (:func:`repro.engine.sweep._resolve_sharding`).
    """

    strategy: str
    toot_urls: Sequence[str]
    domains: tuple[str, ...]
    home: np.ndarray
    replica_indices: np.ndarray
    replica_indptr: np.ndarray
    source_bounds: tuple[tuple[int, int], ...] | None = None

    @property
    def n_toots(self) -> int:
        return len(self.toot_urls)

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def replica_counts(self) -> np.ndarray:
        """Replicas beyond the home instance, per toot (home never counted)."""
        return np.diff(self.replica_indptr)

    def domain_replica_load(self) -> np.ndarray:
        """How many replicas landed on each domain (aligned with ``domains``)."""
        return np.bincount(self.replica_indices, minlength=self.n_domains)

    def to_placement_dict(self) -> dict[str, frozenset[str]]:
        """The legacy dict-of-frozensets view (compatibility path only).

        This is the one remaining per-toot loop and exists solely so code
        that still wants ``PlacementMap.placements`` keeps working; the
        engine itself never calls it.
        """
        domains = self.domains
        indices = self.replica_indices
        indptr = self.replica_indptr
        out: dict[str, frozenset[str]] = {}
        for t, url in enumerate(self.toot_urls):
            holders = {domains[self.home[t]]}
            holders.update(domains[j] for j in indices[indptr[t] : indptr[t + 1]])
            out[url] = frozenset(holders)
        return out

    def rows_incidence(self, rows: np.ndarray) -> "sparse.csr_matrix":
        """The incidence CSR of a subset of toots, straight from the codes.

        Row ``i`` of the result interleaves toot ``rows[i]``'s home code
        with its replica codes — the exact structure
        :meth:`TootIncidence.from_arrays` builds for those rows, without
        ever assembling the full corpus matrix.  The serving layer's
        per-query construction: O(subset nnz) work and memory.
        """
        from scipy import sparse

        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or rows.size == 0:
            raise AnalysisError("rows must be a non-empty 1-D index array")
        if rows.min() < 0 or rows.max() >= self.n_toots:
            raise AnalysisError("row indices fall outside the placement arrays")
        replica_indptr = self.replica_indptr
        counts = (replica_indptr[rows + 1] - replica_indptr[rows]).astype(np.int64)
        lengths = counts + 1  # +1 for the home copy
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        home_slots = indptr[:-1]
        indices[home_slots] = self.home[rows]
        replica_slots = np.ones(total, dtype=bool)
        replica_slots[home_slots] = False
        replica_cum = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=replica_cum[1:])
        positions = (
            np.repeat(
                replica_indptr[rows].astype(np.int64) - replica_cum[:-1], counts
            )
            + np.arange(int(replica_cum[-1]), dtype=np.int64)
        )
        indices[replica_slots] = self.replica_indices[positions]
        matrix = sparse.csr_matrix(
            (np.ones(total, dtype=np.int8), indices, indptr),
            shape=(rows.size, self.n_domains),
        )
        matrix.sort_indices()
        return matrix

    def validate(self) -> "PlacementArrays":
        """Check the structural invariants; returns self for chaining."""
        n = self.n_toots
        if self.home.shape != (n,) or self.replica_indptr.shape != (n + 1,):
            raise AnalysisError("placement arrays have inconsistent shapes")
        if n and (self.home.min() < 0 or self.home.max() >= self.n_domains):
            raise AnalysisError("home codes fall outside the domain universe")
        if self.replica_indices.size and (
            self.replica_indices.min() < 0
            or self.replica_indices.max() >= self.n_domains
        ):
            raise AnalysisError("replica codes fall outside the domain universe")
        lengths = np.diff(self.replica_indptr)
        if lengths.size and lengths.min() < 0:
            raise AnalysisError("replica index pointers must be non-decreasing")
        if int(self.replica_indptr[-1]) != self.replica_indices.size:
            raise AnalysisError("replica index pointers do not cover the indices")
        row_ids = np.repeat(np.arange(n), lengths)
        if np.any(self.replica_indices == self.home[row_ids]):
            raise AnalysisError("replicas must not duplicate the home instance")
        if self.replica_indices.size:
            # distinct within a row: sort per row, adjacent equal values in
            # the same row are duplicates
            order = np.lexsort((self.replica_indices, row_ids))
            sorted_indices = self.replica_indices[order]
            sorted_rows = row_ids[order]
            duplicate = (sorted_rows[1:] == sorted_rows[:-1]) & (
                sorted_indices[1:] == sorted_indices[:-1]
            )
            if duplicate.any():
                raise AnalysisError("replica codes must be distinct within a row")
        return self

    @classmethod
    def from_corpus(
        cls,
        store: "CorpusStore",
        kind: str = "none",
        *,
        graphs: "GraphDataset | GraphStore | None" = None,
        candidate_domains: Sequence[str] | None = None,
        n_replicas: int = 0,
        seed: int = 0,
        weights: Mapping[str, float] | None = None,
    ) -> "PlacementArrays":
        """Build a placement backend straight from a columnar corpus.

        ``kind`` selects the strategy (``"none"`` / ``"subscription"`` /
        ``"random"``, mirroring :class:`~repro.engine.sweep.StrategySpec`).
        Home codes come from remapping the store's interned home column
        shard by shard; the random/subscription replica construction
        shares the exact batched cores of the record-list builders, so
        the output — draws included — is bit-identical to building from
        ``TootsDataset`` records.
        """
        from repro.corpus.placement import (
            build_no_replication_from_corpus,
            build_random_replication_from_corpus,
            build_subscription_replication_from_corpus,
        )

        if kind == "none":
            return build_no_replication_from_corpus(store)
        if kind == "subscription":
            if graphs is None:
                raise AnalysisError("subscription replication needs the graphs dataset")
            return build_subscription_replication_from_corpus(store, graphs)
        if kind == "random":
            if candidate_domains is None:
                raise AnalysisError("random replication needs candidate domains")
            return build_random_replication_from_corpus(
                store, candidate_domains, n_replicas, seed=seed, weights=weights
            )
        raise AnalysisError(f"unknown placement strategy kind: {kind!r}")


class PlacementMap:
    """For every toot (by URL), the set of instances holding a copy.

    Two interchangeable backends: the legacy dict-of-frozensets
    (``placements``) and the engine's integer-coded
    :class:`~repro.engine.placement.PlacementArrays` (``arrays``).  The
    vectorised builders hand over only the arrays; the dict view is
    materialised lazily on first access, so the fast paths (incidence
    construction, replica statistics) never pay for it.

    Maps hash by object identity — the engine memoises one incidence
    matrix per map — so treat a map as immutable once built.
    """

    def __init__(
        self,
        strategy: str,
        placements: Mapping[str, frozenset[str]] | None = None,
        *,
        arrays: PlacementArrays | None = None,
    ) -> None:
        if placements is None and arrays is None:
            raise AnalysisError(
                "a placement map needs a placements dict or an arrays backend"
            )
        self.strategy = strategy
        self.arrays = arrays
        self._placements = dict(placements) if placements is not None else None

    @property
    def placements(self) -> dict[str, frozenset[str]]:
        """The dict-of-frozensets view (materialised lazily from arrays)."""
        if self._placements is None:
            self._placements = self.arrays.to_placement_dict()
        return self._placements

    def __repr__(self) -> str:
        backend = "dict" if self.arrays is None else "arrays"
        return (
            f"PlacementMap(strategy={self.strategy!r}, toots={len(self)}, "
            f"backend={backend})"
        )

    def __len__(self) -> int:
        if self._placements is not None:
            return len(self._placements)
        return self.arrays.n_toots

    def replica_counts(self) -> list[int]:
        """Number of copies *beyond the home instance* for every toot."""
        return self._replica_count_array().tolist()

    def _replica_count_array(self) -> np.ndarray:
        if self.arrays is not None:
            return self.arrays.replica_counts()
        return np.asarray(
            [max(0, len(holders) - 1) for holders in self.placements.values()],
            dtype=np.int64,
        )

    def replication_summary(self) -> dict[str, float]:
        """Share of toots with no replica and with more than ten replicas.

        The paper reports that under subscription replication 9.7% of
        toots have no replica while 23% have more than ten.
        """
        counts = self._replica_count_array()
        if counts.size == 0:
            raise AnalysisError("the placement map is empty")
        return {
            "mean_replicas": float(np.mean(counts)),
            "share_without_replica": int((counts == 0).sum()) / counts.size,
            "share_with_more_than_10": int((counts > 10).sum()) / counts.size,
        }


# -- shared encoding helpers -----------------------------------------------------


def _encode(values: Sequence[str], code: Mapping[str, int]) -> np.ndarray:
    return np.fromiter(
        map(code.__getitem__, values), dtype=np.int64, count=len(values)
    )


def _toot_columns(toots: "TootsDataset") -> tuple[tuple[str, ...], list[str], list[str]]:
    """One pass over the records: urls, author handles, home domains."""
    records = toots.records()
    urls = tuple(record.url for record in records)
    accounts = [record.account for record in records]
    homes = [record.author_domain for record in records]
    return urls, accounts, homes


# -- builders --------------------------------------------------------------------


def build_no_replication(toots: "TootsDataset") -> PlacementArrays:
    """Each toot lives only on its author's home instance."""
    urls, _, homes = _toot_columns(toots)
    domains = tuple(sorted(set(homes)))
    code = {domain: j for j, domain in enumerate(domains)}
    return PlacementArrays(
        strategy="no-replication",
        toot_urls=urls,
        domains=domains,
        home=_encode(homes, code),
        replica_indices=np.empty(0, dtype=np.int64),
        replica_indptr=np.zeros(len(urls) + 1, dtype=np.int64),
    )


def follower_domain_sets(
    authors: "Iterable[str]", graphs: "GraphDataset | GraphStore"
) -> dict[str, set[str]]:
    """Author → follower-domain sets in **one pass over the graph's edges**.

    ``authors`` may contain duplicates (per-toot account columns); keys
    keep first-appearance order, which both the record and corpus
    subscription builders rely on for identical author coding.

    ``graphs`` is either the networkx-backed
    :class:`~repro.datasets.graphs.GraphDataset` or an on-disk
    :class:`~repro.corpus.graph.GraphStore`, whose integer edge shards
    answer the same question without a networkx graph in memory — the
    store computes the identical mapping itself.
    """
    columnar = getattr(graphs, "follower_domain_sets", None)
    if callable(columnar):
        return columnar(list(authors))
    follower_graph = graphs.follower_graph
    follower_domains: dict[str, set[str]] = {author: set() for author in authors}
    nodes = follower_graph.nodes
    for follower, followed in follower_graph.edges():
        target = follower_domains.get(followed)
        if target is not None:
            domain = nodes[follower].get("domain")
            if domain:
                target.add(domain)
    return follower_domains


def build_subscription_replication(
    toots: "TootsDataset", graphs: "GraphDataset"
) -> PlacementArrays:
    """Each toot is replicated to the instances hosting the author's followers.

    The author→follower-domain table is built in one pass over the
    follower graph's edges (the legacy loop re-walked ``in_edges`` per
    author); everything per-toot after that is array expansion, shared
    with the corpus path via :func:`subscription_arrays_from_columns`.
    """
    urls, accounts, homes = _toot_columns(toots)
    follower_domains = follower_domain_sets(accounts, graphs)
    domains = tuple(sorted(set(homes).union(*follower_domains.values())))
    code = {domain: j for j, domain in enumerate(domains)}
    author_code = {author: i for i, author in enumerate(follower_domains)}
    return subscription_arrays_from_columns(
        urls,
        _encode(homes, code),
        domains,
        _encode(accounts, author_code),
        follower_domains,
    )


def subscription_arrays_from_columns(
    urls: Sequence[str],
    home: np.ndarray,
    domains: tuple[str, ...],
    toot_author: np.ndarray,
    follower_domains: Mapping[str, set[str]],
    source_bounds: tuple[tuple[int, int], ...] | None = None,
) -> PlacementArrays:
    """The subscription expansion over integer columns.

    ``home`` indexes ``domains`` (the sorted universe of homes plus
    every follower domain); ``toot_author`` indexes the keys of
    ``follower_domains`` in iteration order.  Shared by the record-list
    builder and :func:`repro.corpus.placement.build_subscription_replication_from_corpus`.
    """
    code = {domain: j for j, domain in enumerate(domains)}

    # per-author replica arrays (CSR over the unique authors)
    authors = list(follower_domains)
    author_counts = np.fromiter(
        (len(follower_domains[author]) for author in authors),
        dtype=np.int64,
        count=len(authors),
    )
    author_indptr = np.zeros(len(authors) + 1, dtype=np.int64)
    np.cumsum(author_counts, out=author_indptr[1:])
    author_flat = np.fromiter(
        (
            code[domain]
            for author in authors
            for domain in sorted(follower_domains[author])
        ),
        dtype=np.int64,
        count=int(author_indptr[-1]),
    )

    # expand the per-author table to per-toot rows with pure array ops,
    # chunked over toot ranges so the transient expansion arrays stay
    # bounded (the xlarge corpus expands to 120M+ replica rows; row-wise
    # ops make chunking exact)
    n = len(urls)
    lengths = author_counts[toot_author]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    kept_lengths = np.zeros(n, dtype=np.int64)
    replica_chunks = []
    chunk_rows = 1_000_000
    for lo in range(0, n, chunk_rows):
        hi = min(n, lo + chunk_rows)
        seg_lengths = lengths[lo:hi]
        seg_total = int(indptr[hi] - indptr[lo])
        if seg_total == 0:
            continue
        starts = np.repeat(author_indptr[:-1][toot_author[lo:hi]], seg_lengths)
        seg_indptr = indptr[lo:hi] - indptr[lo]
        within = np.arange(seg_total, dtype=np.int64) - np.repeat(seg_indptr, seg_lengths)
        flat = author_flat[starts + within]
        # drop follower domains equal to the toot's home (the legacy
        # frozenset union collapsed them); bincount keeps empty rows safe
        row_ids = np.repeat(np.arange(hi - lo, dtype=np.int64), seg_lengths)
        keep = flat != home[lo:hi][row_ids]
        kept_lengths[lo:hi] = seg_lengths - np.bincount(
            row_ids[~keep], minlength=hi - lo
        )
        replica_chunks.append(flat[keep])
    replica_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kept_lengths, out=replica_indptr[1:])
    replica_indices = (
        np.concatenate(replica_chunks)
        if replica_chunks
        else np.empty(0, dtype=np.int64)
    )
    return PlacementArrays(
        strategy="subscription-replication",
        toot_urls=urls,
        domains=domains,
        home=home,
        replica_indices=replica_indices,
        replica_indptr=replica_indptr,
        source_bounds=source_bounds,
    )


def _normalised_log_weights(
    candidates: Sequence[str], weights: Mapping[str, float], k: int
) -> np.ndarray:
    """Validate ``weights`` over ``candidates`` and return log-probabilities.

    Negative weights are clamped to zero (they mean "never place here",
    same as the legacy loop); zero-weight candidates get ``-inf`` so the
    Gumbel keys can never select them.  Raises :class:`AnalysisError`
    when the total mass is zero or fewer than ``k`` candidates carry
    positive weight — the latter is the case where the legacy loop
    crashed with a raw ``ValueError`` from :meth:`rng.choice`.
    """
    raw = np.asarray(
        [max(0.0, float(weights.get(domain, 0.0))) for domain in candidates],
        dtype=np.float64,
    )
    if raw.sum() <= 0:
        raise AnalysisError("replication weights must contain positive mass")
    support = int(np.count_nonzero(raw))
    if support < k:
        raise AnalysisError(
            f"cannot place {k} replicas without replacement: only {support} of "
            f"{len(candidates)} candidate instances have positive weight"
        )
    with np.errstate(divide="ignore"):
        return np.log(raw / raw.sum())


def _dense_gumbel_top_k(
    rng: np.random.Generator,
    row_ids: np.ndarray,
    out: np.ndarray,
    m: int,
    k: int,
    log_weights: np.ndarray | None,
    partial_rows: np.ndarray | None = None,
    partial_picks: np.ndarray | None = None,
) -> None:
    """Exact Gumbel top-k for the given rows, written into ``out``.

    One dense key row per toot: i.i.d. uniform keys in the unweighted
    case, ``log w + Gumbel`` otherwise; the k largest keys are a sample
    without replacement proportional to the weights.  Chunked so the key
    matrix stays bounded.

    ``partial_rows``/``partial_picks`` (global row id repeated per pick,
    aligned pick codes) force already-found distinct picks of a
    truncated race into the top-k via ``+inf`` keys, so the remaining
    slots are filled by a fresh race over the other candidates — the
    exact conditional continuation.  ``row_ids`` must be sorted when
    they are given.
    """
    chunk_rows = max(1, _CHUNK_ELEMENTS // m)
    batch_rows = None
    if partial_rows is not None and partial_rows.size:
        # global row id -> position in this batch (row_ids is sorted)
        batch_rows = np.searchsorted(row_ids, partial_rows)
    for start in range(0, row_ids.size, chunk_rows):
        stop = min(start + chunk_rows, row_ids.size)
        rows = row_ids[start:stop]
        if log_weights is None:
            keys = rng.random((rows.size, m))
        else:
            keys = log_weights + rng.gumbel(size=(rows.size, m))
        if batch_rows is not None:
            in_chunk = (batch_rows >= start) & (batch_rows < stop)
            keys[batch_rows[in_chunk] - start, partial_picks[in_chunk]] = np.inf
        out[rows] = np.argpartition(keys, m - k, axis=1)[:, m - k :]


def _batch_distinct_draws(
    rng: np.random.Generator,
    n: int,
    m: int,
    k: int,
    log_weights: np.ndarray | None,
) -> np.ndarray:
    """``(n, k)`` distinct candidate indices per row, one batched pass.

    The lazy Gumbel top-k race: draw ``k + 5`` i.i.d. categorical
    rounds per row and keep the first k distinct candidates — the
    arrival order of an i.i.d. race is exactly the descending order of
    Gumbel-perturbed keys, so resolved rows already hold the Gumbel
    top-k sample.  Rows that fail to resolve (likelier under heavy
    weight skew) are *continued*, not redrawn: their partial distinct
    picks are kept and forced into a dense Gumbel top-k over the
    remaining candidates.  By memorylessness of the race, the
    continuation conditioned on any prefix is a fresh race on the
    not-yet-drawn candidates, so the combined draw is exact for any
    skew.  (A fresh redraw of stragglers would *not* be: keeping only
    rows that resolved within the truncated race conditions them on
    fast resolution and under-represents collision-prone heavy
    candidates.)
    """
    out = np.empty((n, k), dtype=np.int64)
    rounds = k + 5
    if 2 * rounds >= m:
        # the race would cost as much as the dense keys — go dense directly
        _dense_gumbel_top_k(rng, np.arange(n), out, m, k, log_weights)
        return out
    cumulative = None
    if log_weights is not None:
        cumulative = np.cumsum(np.exp(log_weights))
        # pin the tail to exactly 1.0 *from the last positive-weight
        # candidate on*, so cumsum float error can neither lose the final
        # mass nor hand it to a zero-weight candidate
        last_positive = int(np.nonzero(np.isfinite(log_weights))[0][-1])
        cumulative[last_positive:] = 1.0
    unresolved_rows: list[np.ndarray] = []
    partial_rows: list[np.ndarray] = []  # row id repeated per found pick
    partial_picks: list[np.ndarray] = []
    chunk_rows = max(1, _CHUNK_ELEMENTS // rounds)
    for start in range(0, n, chunk_rows):
        rows = min(chunk_rows, n - start)
        if cumulative is None:
            draws = rng.integers(0, m, size=(rows, rounds))
        else:
            draws = cumulative.searchsorted(rng.random((rows, rounds)), side="right")
        repeat = np.zeros((rows, rounds), dtype=bool)
        for j in range(1, rounds):
            repeat[:, j] = (draws[:, :j] == draws[:, j : j + 1]).any(axis=1)
        rank = np.cumsum(~repeat, axis=1)
        resolved = rank[:, -1] >= k
        first_k = (~repeat) & (rank <= k)
        out[start : start + rows][resolved] = draws[resolved][
            first_k[resolved]
        ].reshape(-1, k)
        bad = ~resolved
        if bad.any():
            bad_ids = np.nonzero(bad)[0] + start
            unresolved_rows.append(bad_ids)
            found = ~repeat[bad]  # every non-repeat pick of an unresolved row
            partial_rows.append(np.repeat(bad_ids, found.sum(axis=1)))
            partial_picks.append(draws[bad][found])
    stragglers = (
        np.concatenate(unresolved_rows) if unresolved_rows else np.empty(0, np.int64)
    )
    if stragglers.size:
        _dense_gumbel_top_k(
            rng,
            stragglers,
            out,
            m,
            k,
            log_weights,
            partial_rows=np.concatenate(partial_rows),
            partial_picks=np.concatenate(partial_picks),
        )
    return out


def validated_candidates(
    candidate_domains: Sequence[str], n_replicas: int
) -> list[str]:
    """The sorted, de-duplicated candidate set behind every random draw."""
    if n_replicas < 0:
        raise AnalysisError("the number of replicas cannot be negative")
    candidates = sorted(set(candidate_domains))
    if not candidates:
        raise AnalysisError("no candidate instances to replicate onto")
    return candidates


def build_random_replication(
    toots: "TootsDataset",
    candidate_domains: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
) -> PlacementArrays:
    """Each toot is replicated onto ``n_replicas`` random instances.

    All toots are drawn in one batched pass (chunked to bound memory)
    via Gumbel top-k sampling — see :func:`_batch_distinct_draws` for
    the lazy race formulation and :func:`_dense_gumbel_top_k` for the
    dense keys.  The draw is deterministic per seed but consumes the RNG
    stream in a different order than the legacy per-toot loop, so seeded
    placements differ toot-by-toot while following the same
    distribution.
    """
    candidates = validated_candidates(candidate_domains, n_replicas)
    urls, _, homes = _toot_columns(toots)
    domains = tuple(sorted(set(homes).union(candidates)))
    home = _encode(homes, {domain: j for j, domain in enumerate(domains)})
    return random_arrays_from_columns(
        urls, home, domains, candidates, n_replicas, seed, weights
    )


def random_arrays_from_columns(
    urls: Sequence[str],
    home: np.ndarray,
    domains: tuple[str, ...],
    candidates: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
    source_bounds: tuple[tuple[int, int], ...] | None = None,
) -> PlacementArrays:
    """The batched random draw over integer columns.

    ``home`` indexes ``domains`` (the sorted universe of homes plus
    ``candidates``); the draw depends only on ``(n, len(candidates),
    n_replicas, seed, weights)`` plus the home sequence, so any caller
    supplying the same columns — record lists or a columnar corpus —
    gets bit-identical placements.
    """
    code = {domain: j for j, domain in enumerate(domains)}
    n, m = len(urls), len(candidates)
    k = min(n_replicas, m)

    log_weights: np.ndarray | None = None
    if weights is not None:
        log_weights = _normalised_log_weights(candidates, weights, k)

    label = f"random-replication-n{n_replicas}"
    if weights is not None:
        label += "-weighted"

    if k == 0:
        return PlacementArrays(
            strategy=label,
            toot_urls=urls,
            domains=domains,
            home=home,
            replica_indices=np.empty(0, dtype=np.int64),
            replica_indptr=np.zeros(n + 1, dtype=np.int64),
            source_bounds=source_bounds,
        )

    candidate_codes = _encode(candidates, code)
    if k == m:
        # every candidate is picked for every toot; no draw needed
        picks = np.broadcast_to(candidate_codes, (n, m))
    else:
        rng = np.random.default_rng(seed)
        picks = candidate_codes[_batch_distinct_draws(rng, n, m, k, log_weights)]

    # collapse draws that hit the home instance (frozenset-union semantics)
    keep = picks != home[:, None]
    kept_lengths = keep.sum(axis=1).astype(np.int64)
    replica_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kept_lengths, out=replica_indptr[1:])
    return PlacementArrays(
        strategy=label,
        toot_urls=urls,
        domains=domains,
        home=home,
        replica_indices=picks[keep],
        replica_indptr=replica_indptr,
        source_bounds=source_bounds,
    )
