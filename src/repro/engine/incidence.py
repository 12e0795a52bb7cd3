"""Toot×instance incidence matrices: the engine's core data structure.

A :class:`TootIncidence` is a binary CSR matrix with one row per toot and
one column per instance domain; ``matrix[t, d] == 1`` iff instance ``d``
holds a copy of toot ``t``.  It is built **once** from a
:class:`~repro.engine.placement.PlacementMap` and then reduced many times
by the batch kernels in :mod:`repro.engine.kernels` — one availability
curve per removal schedule, with no per-toot Python loop.

Construction has two paths: :meth:`TootIncidence.from_arrays` assembles
the CSR structure directly from the integer-coded
:class:`~repro.engine.placement.PlacementArrays` backend (no
dict-of-frozensets round trip), and the legacy mapping path handles
dict-built placement maps.  :meth:`TootIncidence.from_placements` picks
the right one and **memoises the result per placement object** (a weak
cache, so the matrix lives exactly as long as its map): repeated
experiments on the same :class:`PlacementMap` rebuild nothing.  The
cache keys on object identity — treat a placement map as immutable once
it has been handed to the engine.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.errors import AnalysisError

#: Sentinel removal step for domains that never fail within a schedule.
NEVER_REMOVED = np.inf

#: Per-placement-object memo: placement map -> built incidence matrix.
#: Weak keys mean dropping the map also drops the cached matrix.
_INCIDENCE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class DomainLookup:
    """Vectorised name→column resolution over a fixed domain universe.

    Built once per incidence (or shard set) and reused by every
    :meth:`TootIncidence.removal_vector` / :meth:`as_assignment` call:
    the domain names live in one sorted numpy string array, so resolving
    a batch of names is a single :func:`numpy.searchsorted` plus fancy
    indexing instead of a per-name dict loop.  Names outside the
    universe resolve to ``-1`` (they cannot affect any toot).
    """

    def __init__(self, domains: Sequence[str]) -> None:
        self.n_domains = len(domains)
        names = np.asarray(domains, dtype=np.str_)
        order = np.argsort(names, kind="stable").astype(np.int64)
        self._sorted_names = names[order]
        self._order = order

    def codes(self, names: Sequence[str]) -> np.ndarray:
        """Column codes for ``names`` (``-1`` for unknown domains)."""
        if not len(names):
            return np.empty(0, dtype=np.int64)
        queries = np.asarray(names, dtype=np.str_)
        position = np.searchsorted(self._sorted_names, queries)
        clipped = np.minimum(position, max(self.n_domains - 1, 0))
        known = (
            (self._sorted_names[clipped] == queries)
            if self.n_domains
            else np.zeros(len(queries), dtype=bool)
        )
        codes = np.where(known, self._order[clipped], -1)
        return codes.astype(np.int64)

    def removal_vector(self, removal_index: Mapping[str, int], steps: int) -> np.ndarray:
        """Dense per-domain removal steps (see :meth:`TootIncidence.removal_vector`)."""
        vector = np.full(self.n_domains, NEVER_REMOVED, dtype=np.float64)
        if not removal_index:
            return vector
        codes = self.codes(list(removal_index.keys()))
        removal_steps = np.fromiter(
            removal_index.values(), dtype=np.float64, count=len(removal_index)
        )
        keep = (codes >= 0) & (removal_steps <= steps)
        vector[codes[keep]] = removal_steps[keep]
        return vector

    def as_assignment(self, asn_of_instance: Mapping[str, int]) -> np.ndarray:
        """Instance→AS vector (see :meth:`TootIncidence.as_assignment`)."""
        assignment = np.full(self.n_domains, -1, dtype=np.int64)
        if not asn_of_instance:
            return assignment
        codes = self.codes(list(asn_of_instance.keys()))
        asns = np.fromiter(
            asn_of_instance.values(), dtype=np.int64, count=len(asn_of_instance)
        )
        keep = codes >= 0
        assignment[codes[keep]] = asns[keep]
        return assignment


@dataclass
class TootIncidence:
    """Binary toot×instance incidence matrix plus its index maps."""

    matrix: sparse.csr_matrix
    toot_urls: tuple[str, ...]
    domains: tuple[str, ...]
    domain_index: dict[str, int]
    _lookup: DomainLookup | None = field(default=None, repr=False, compare=False)
    _columns: sparse.csc_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def n_toots(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_domains(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_placements(cls, placements: "PlacementMap") -> "TootIncidence":
        """Build (or fetch the memoised) incidence matrix for a placement map.

        Arrays-backed maps (the vectorised builders in
        :mod:`repro.engine.placement`) go through :meth:`from_arrays`;
        dict-built maps take the legacy mapping path.  Either way the
        result is cached per placement *object*, so repeated curves over
        the same map pay for the matrix exactly once.
        """
        try:
            cached = _INCIDENCE_CACHE.get(placements)
        except TypeError:  # unhashable / non-weakrefable placement container
            cached = None
        if cached is not None:
            return cached
        arrays = getattr(placements, "arrays", None)
        if arrays is not None:
            incidence = cls.from_arrays(arrays)
        else:
            incidence = cls._from_mapping(placements.placements)
        try:
            _INCIDENCE_CACHE[placements] = incidence
        except TypeError:
            pass
        return incidence

    @classmethod
    def from_arrays(cls, arrays: "PlacementArrays") -> "TootIncidence":
        """Assemble the CSR structure straight from integer-coded placements.

        Every row interleaves the home code with the replica codes of the
        backend's CSR arrays — no per-toot Python loop and no intermediate
        dict of frozensets.  Columns are the backend's (sorted) domain
        universe; domains that end up holding no toot simply have empty
        columns, which the kernels ignore.
        """
        n_toots = arrays.n_toots
        if n_toots == 0:
            raise AnalysisError("the placement map is empty")
        lengths = np.diff(arrays.replica_indptr) + 1  # +1 for the home copy
        indptr = np.zeros(n_toots + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        home_slots = indptr[:-1]
        indices[home_slots] = arrays.home
        replica_slots = np.ones(total, dtype=bool)
        replica_slots[home_slots] = False
        indices[replica_slots] = arrays.replica_indices
        data = np.ones(total, dtype=np.int8)
        matrix = sparse.csr_matrix(
            (data, indices, indptr), shape=(n_toots, arrays.n_domains)
        )
        matrix.sort_indices()
        domains = tuple(arrays.domains)
        return cls(
            matrix=matrix,
            toot_urls=tuple(arrays.toot_urls),
            domains=domains,
            domain_index={domain: j for j, domain in enumerate(domains)},
        )

    @classmethod
    def _from_mapping(cls, mapping: Mapping[str, frozenset[str]]) -> "TootIncidence":
        """The legacy dict-of-frozensets construction path.

        Rows follow the mapping's insertion order; columns are the
        sorted union of all holding domains, so the layout is
        deterministic for a given map.
        """
        if not mapping:
            raise AnalysisError("the placement map is empty")
        domains = tuple(sorted(set(chain.from_iterable(mapping.values()))))
        domain_index = {domain: j for j, domain in enumerate(domains)}

        n_toots = len(mapping)
        lengths = np.fromiter(map(len, mapping.values()), dtype=np.int64, count=n_toots)
        if n_toots and lengths.min() == 0:
            raise AnalysisError("every toot needs at least one holding instance")
        indptr = np.zeros(n_toots + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # chain + map stay in C; this is the only full pass over the holder sets
        flat_domains = chain.from_iterable(mapping.values())
        indices = np.fromiter(
            map(domain_index.__getitem__, flat_domains),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        data = np.ones(len(indices), dtype=np.int8)
        matrix = sparse.csr_matrix(
            (data, indices, indptr), shape=(n_toots, len(domains))
        )
        matrix.sort_indices()
        toot_urls = list(mapping)
        return cls(
            matrix=matrix,
            toot_urls=tuple(toot_urls),
            domains=domains,
            domain_index=domain_index,
        )

    @property
    def lookup(self) -> DomainLookup:
        """The vectorised domain resolver (built lazily, once per matrix)."""
        if self._lookup is None:
            self._lookup = DomainLookup(self.domains)
        return self._lookup

    def removal_vector(self, removal_index: Mapping[str, int], steps: int) -> np.ndarray:
        """Per-domain removal steps as a dense float vector.

        ``removal_index[d] = k`` means domain ``d`` disappears at step
        ``k`` (1-based).  Domains absent from the mapping — or removed
        after ``steps`` — get :data:`NEVER_REMOVED`, exactly mirroring the
        legacy per-toot loop's survival rule.  Removed domains unknown to
        the matrix are ignored: they cannot affect any toot.
        """
        return self.lookup.removal_vector(removal_index, steps)

    def as_assignment(self, asn_of_instance: Mapping[str, int]) -> np.ndarray:
        """Instance→AS assignment vector aligned with the matrix columns.

        Instances without a known AS get ``-1``.
        """
        return self.lookup.as_assignment(asn_of_instance)

    def rows_holding(self, domain: str) -> np.ndarray:
        """Row indices of every toot with a copy on ``domain`` (ascending).

        The per-instance column access of the serving layer: the CSC
        transpose is built lazily on first call and cached, so repeated
        instance queries are one indptr slice each.  Unknown domains get
        an empty index array.
        """
        code = int(self.lookup.codes([domain])[0])
        if code < 0:
            return np.empty(0, dtype=np.int64)
        if self._columns is None:
            columns = self.matrix.tocsc()
            columns.sort_indices()
            self._columns = columns
        start, stop = self._columns.indptr[code], self._columns.indptr[code + 1]
        return self._columns.indices[start:stop].astype(np.int64)
