"""Differential suite: corpus-built placements vs the record-list builders.

`PlacementArrays.from_corpus` must reproduce the record-path builders
bit for bit — same domain universe, same home codes, same replica CSR,
same seeded draws — and the corpus shard boundaries must flow through
the sweep without changing a single curve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import replication
from repro.datasets import TootsDataset
from repro.engine import (
    InstanceRemoval,
    PlacementArrays,
    ShardedIncidence,
    StrategySpec,
    TootIncidence,
    availability_curves,
)
from repro.engine.placement import (
    build_no_replication,
    build_random_replication,
    build_subscription_replication,
)
from repro.errors import AnalysisError, DatasetError
from repro.experiments import ExperimentContext


@pytest.fixture(scope="module")
def record_toots(tiny_crawl):
    return TootsDataset.from_crawl(tiny_crawl)


@pytest.fixture(scope="module")
def candidate_domains(tiny_network):
    return tiny_network.domains()


def assert_arrays_equal(expected: PlacementArrays, got: PlacementArrays) -> None:
    assert got.strategy == expected.strategy
    assert got.domains == expected.domains
    assert list(got.toot_urls) == list(expected.toot_urls)
    assert np.array_equal(got.home, expected.home)
    assert np.array_equal(got.replica_indices, expected.replica_indices)
    assert np.array_equal(got.replica_indptr, expected.replica_indptr)
    got.validate()


class TestBuilderEquivalence:
    def test_no_replication(self, record_toots, tiny_store):
        expected = build_no_replication(record_toots)
        got = PlacementArrays.from_corpus(tiny_store, "none")
        assert_arrays_equal(expected, got)
        assert got.source_bounds == tuple(tiny_store.shard_bounds())

    def test_random_replication_same_seeded_draw(
        self, record_toots, tiny_store, candidate_domains
    ):
        for seed in (0, 7):
            expected = build_random_replication(
                record_toots, candidate_domains, 3, seed=seed
            )
            got = PlacementArrays.from_corpus(
                tiny_store, "random", candidate_domains=candidate_domains,
                n_replicas=3, seed=seed,
            )
            assert_arrays_equal(expected, got)

    def test_weighted_random_replication(
        self, record_toots, tiny_store, candidate_domains
    ):
        rng = np.random.default_rng(5)
        weights = {
            domain: float(value)
            for domain, value in zip(
                candidate_domains, rng.random(len(candidate_domains)) + 0.05
            )
        }
        expected = build_random_replication(
            record_toots, candidate_domains, 2, seed=11, weights=weights
        )
        got = PlacementArrays.from_corpus(
            tiny_store, "random", candidate_domains=candidate_domains,
            n_replicas=2, seed=11, weights=weights,
        )
        assert_arrays_equal(expected, got)

    def test_subscription_replication(self, record_toots, tiny_store, datasets):
        expected = build_subscription_replication(record_toots, datasets.graphs)
        got = PlacementArrays.from_corpus(
            tiny_store, "subscription", graphs=datasets.graphs
        )
        assert_arrays_equal(expected, got)

    def test_invalid_requests(self, tiny_store, candidate_domains):
        with pytest.raises(AnalysisError, match="unknown placement strategy"):
            PlacementArrays.from_corpus(tiny_store, "mirror-everything")
        with pytest.raises(AnalysisError, match="graphs"):
            PlacementArrays.from_corpus(tiny_store, "subscription")
        with pytest.raises(AnalysisError, match="candidate"):
            PlacementArrays.from_corpus(tiny_store, "random", n_replicas=2)
        with pytest.raises(AnalysisError, match="negative"):
            PlacementArrays.from_corpus(
                tiny_store, "random", candidate_domains=candidate_domains, n_replicas=-1
            )

    def test_empty_corpus_refused(self, tmp_path):
        from repro.corpus import CorpusWriter

        store = CorpusWriter(tmp_path).finalise()
        with pytest.raises(DatasetError, match="no toots"):
            PlacementArrays.from_corpus(store, "none")


class TestSweepIdentity:
    @pytest.fixture(scope="class")
    def failure(self, candidate_domains):
        return InstanceRemoval(candidate_domains, steps=20, name="rank")

    def test_curves_identical_monolithic_and_corpus_sharded(
        self, record_toots, tiny_store, candidate_domains, failure
    ):
        legacy = replication.random_replication(record_toots, candidate_domains, 3, seed=2)
        corpus_arrays = PlacementArrays.from_corpus(
            tiny_store, "random", candidate_domains=candidate_domains,
            n_replicas=3, seed=2,
        )
        expected = availability_curves(legacy, [failure])
        # monolithic evaluation of the corpus backend (lazy URL view feeds
        # TootIncidence.from_arrays)
        monolithic = availability_curves(
            replication.PlacementMap(corpus_arrays.strategy, arrays=corpus_arrays),
            [failure],
        )
        assert monolithic == expected
        # corpus-aligned shards: crawl boundaries flow through unchanged
        sharded = ShardedIncidence.from_arrays(
            corpus_arrays, bounds=corpus_arrays.source_bounds
        )
        assert sharded.shard_bounds() == list(tiny_store.shard_bounds())
        assert availability_curves(sharded, [failure]) == expected

    def test_auto_sharding_streams_along_crawl_shards(
        self, tiny_store, candidate_domains, failure, monkeypatch
    ):
        corpus_arrays = PlacementArrays.from_corpus(
            tiny_store, "random", candidate_domains=candidate_domains,
            n_replicas=3, seed=2,
        )
        placements = replication.PlacementMap(corpus_arrays.strategy, arrays=corpus_arrays)
        expected = availability_curves(TootIncidence.from_arrays(corpus_arrays), [failure])
        assert len(corpus_arrays.source_bounds) > 1

        requested_bounds = []
        original = ShardedIncidence.from_arrays

        def spy(arrays, shard_size=None, *, bounds=None):
            requested_bounds.append(bounds)
            return original(arrays, shard_size, bounds=bounds)

        monkeypatch.setattr("repro.engine.sweep.AUTO_SHARD_THRESHOLD", 1)
        monkeypatch.setattr(ShardedIncidence, "from_arrays", spy)
        # the full matrix must never be built: from_placements would raise
        monkeypatch.setattr(TootIncidence, "from_placements", None)
        assert availability_curves(placements, [failure]) == expected
        assert requested_bounds == [corpus_arrays.source_bounds]

    def test_invalid_bounds_rejected(self, tiny_store, candidate_domains):
        arrays = PlacementArrays.from_corpus(
            tiny_store, "random", candidate_domains=candidate_domains, n_replicas=1
        )
        n = arrays.n_toots
        for bounds in ([(0, n - 1)], [(1, n)], [(0, 10), (11, n)], [(0, 0), (0, n)]):
            with pytest.raises(AnalysisError):
                ShardedIncidence.from_arrays(arrays, bounds=bounds)


class TestContextIntegration:
    def test_corpus_context_matches_record_context(
        self, tiny_network, datasets, tiny_store
    ):
        from repro import CollectedDatasets

        record_ctx = ExperimentContext.from_datasets(datasets, scenario=tiny_network)
        corpus_data = CollectedDatasets(
            instances=datasets.instances,
            toots=TootsDataset.from_corpus(tiny_store),
            graphs=datasets.graphs,
            network=tiny_network,
            corpus=tiny_store,
        )
        corpus_ctx = ExperimentContext.from_datasets(corpus_data, scenario=tiny_network)

        specs = [StrategySpec.none(), StrategySpec.subscription(), StrategySpec.random(2, seed=3)]
        failures = record_ctx.standard_failures()
        expected = record_ctx.sweep(specs, failures)
        got = corpus_ctx.sweep(specs, failures)
        assert got.curves == expected.curves
        # the corpus context built its placements from columns, not records
        for spec in specs:
            assert corpus_ctx.placements_for(spec).arrays.source_bounds is not None
