"""Differential suite for the sharded streaming engine.

Sharded evaluation must be **bit-identical** to the monolithic path for
every shard size — the composition law (per-step losses are additive
integer counts across toot ranges) admits no tolerance.  The grid here
crosses shard sizes {1, a prime, n_toots, n_toots + 7} (the prime forces
a ragged tail shard) with every placement backend — no-replication,
unweighted and weighted random, subscription, and dict-backed maps.
"""

from __future__ import annotations

import typing

import numpy as np
import pytest

from repro.core import replication
from repro.engine import (
    ASRemoval,
    InstanceRemoval,
    ShardedIncidence,
    TootIncidence,
    availability_curves,
    kill_steps_batch,
    losses_per_step,
    run_availability_sweep,
    streaming_losses,
)
from repro.core.replication import AvailabilityPoint
from repro.engine.placement import PlacementArrays
from repro.engine.sweep import StrategySpec
from repro.errors import AnalysisError

from tests.engine.test_equivalence import random_scenario
from tests.engine.test_placement import flat_toots

N_TOOTS = 97
PRIME_SHARD = 13  # 97 = 7 * 13 + 6: ragged tail shard of 6 toots
SHARD_SIZES = (1, PRIME_SHARD, N_TOOTS, N_TOOTS + 7)


@pytest.fixture(scope="module")
def corpus():
    """One small corpus shared by the grid: toots, domains, weights, failures."""
    domains = [f"d{i}.example" for i in range(17)]
    toots = flat_toots(N_TOOTS, domains, seed=5)
    rng = np.random.default_rng(5)
    weights = {domain: float(w) for domain, w in zip(domains, rng.random(len(domains)) + 0.05)}
    asn_of = {domain: int(asn) for domain, asn in zip(domains, rng.integers(1, 6, len(domains)))}
    failures = [
        InstanceRemoval(domains, steps=10, name="forward"),
        InstanceRemoval(domains[::-1], steps=17, name="reverse"),
        ASRemoval(asn_of, sorted(set(asn_of.values())), steps=4, name="ases"),
    ]
    return toots, domains, weights, failures


def shard_view(placements, shard_size):
    """A uniform shard view: straight from the arrays backend when there is one."""
    if placements.arrays is not None:
        return ShardedIncidence.from_arrays(placements.arrays, shard_size)
    return ShardedIncidence.from_incidence(TootIncidence.from_placements(placements), shard_size)


def backends(corpus):
    """Every placement backend the engine supports, freshly built."""
    toots, domains, weights, _ = corpus
    return {
        "no-rep": replication.no_replication(toots),
        "random": replication.random_replication(toots, domains, 3, seed=2),
        "weighted-random": replication.random_replication(
            toots, domains, 3, seed=2, weights=weights
        ),
    }


# -- shard geometry ---------------------------------------------------------------


class TestShardGeometry:
    def test_bounds_partition_the_corpus(self, corpus):
        toots, domains, _, _ = corpus
        arrays = replication.no_replication(toots).arrays
        for shard_size in SHARD_SIZES:
            sharded = ShardedIncidence.from_arrays(arrays, shard_size)
            bounds = sharded.shard_bounds()
            assert bounds[0][0] == 0 and bounds[-1][1] == N_TOOTS
            assert all(a < b for a, b in bounds)
            assert all(prev[1] == cur[0] for prev, cur in zip(bounds, bounds[1:]))
            assert sharded.n_shards == len(bounds) == -(-N_TOOTS // shard_size)

    def test_prime_shard_size_leaves_ragged_tail(self, corpus):
        toots, _, _, _ = corpus
        arrays = replication.no_replication(toots).arrays
        sharded = ShardedIncidence.from_arrays(arrays, PRIME_SHARD)
        *full, tail = [stop - start for start, stop in sharded.shard_bounds()]
        assert set(full) == {PRIME_SHARD}
        assert tail == N_TOOTS % PRIME_SHARD

    def test_shards_reassemble_the_full_matrix(self, corpus):
        toots, domains, _, _ = corpus
        placements = replication.random_replication(toots, domains, 2, seed=9)
        full = TootIncidence.from_placements(placements)
        sharded = ShardedIncidence.from_arrays(placements.arrays, PRIME_SHARD)
        from scipy import sparse

        stacked = sparse.vstack([shard.matrix for shard in sharded.shards()], format="csr")
        assert (stacked != full.matrix).nnz == 0

    def test_invalid_geometry_raises(self, corpus):
        toots, _, _, _ = corpus
        arrays = replication.no_replication(toots).arrays
        with pytest.raises(AnalysisError):
            ShardedIncidence.from_arrays(arrays, 0)
        sharded = ShardedIncidence.from_arrays(arrays, PRIME_SHARD)
        with pytest.raises(AnalysisError):
            sharded.shard(-1, 5)
        with pytest.raises(AnalysisError):
            sharded.shard(0, N_TOOTS + 1)


# -- differential grid: sharded == unsharded, bit for bit -------------------------


class TestShardedEquivalence:
    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_every_backend_matches_unsharded(self, corpus, shard_size):
        _, _, _, failures = corpus
        for label, placements in backends(corpus).items():
            expected = availability_curves(TootIncidence.from_placements(placements), failures)
            got = availability_curves(shard_view(placements, shard_size), failures)
            assert got == expected, (label, shard_size)

    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_subscription_backend_matches_unsharded(self, shard_size):
        toots, graphs, domains, asn_of = random_scenario(3)
        placements = replication.subscription_replication(toots, graphs)
        failures = [
            InstanceRemoval(domains, steps=min(10, len(domains)), name="rank"),
            ASRemoval(asn_of, sorted(set(asn_of.values())), steps=3, name="ases"),
        ]
        expected = availability_curves(TootIncidence.from_placements(placements), failures)
        got = availability_curves(shard_view(placements, shard_size), failures)
        assert got == expected

    def test_dict_backed_map_shards_via_row_views(self, corpus):
        _, _, _, failures = corpus
        arrays_backed = backends(corpus)["random"]
        dict_backed = replication.PlacementMap(
            strategy="dict", placements=dict(arrays_backed.placements)
        )
        expected = availability_curves(dict_backed, failures)
        got = availability_curves(shard_view(dict_backed, PRIME_SHARD), failures)
        assert got == expected

    def test_sweep_api_auto_shards(self, corpus, monkeypatch):
        toots, domains, _, failures = corpus
        strategies = [StrategySpec.none(), StrategySpec.random(2, seed=4)]
        baseline = run_availability_sweep(
            toots, strategies, failures, candidate_domains=domains
        )
        monkeypatch.setattr("repro.engine.sweep.AUTO_SHARD_THRESHOLD", 50)
        monkeypatch.setattr("repro.engine.sweep.DEFAULT_SHARD_SIZE", PRIME_SHARD)
        streamed = run_availability_sweep(
            toots, strategies, failures, candidate_domains=domains
        )
        assert streamed.curves == baseline.curves


# -- the input picks the path ----------------------------------------------------


class TestResolution:
    def test_auto_threshold_shards_without_full_incidence(self, corpus, monkeypatch):
        _, _, _, failures = corpus
        placements = backends(corpus)["random"]
        expected = availability_curves(TootIncidence.from_placements(placements), failures)
        monkeypatch.setattr("repro.engine.sweep.AUTO_SHARD_THRESHOLD", 50)
        monkeypatch.setattr("repro.engine.sweep.DEFAULT_SHARD_SIZE", PRIME_SHARD)

        def forbidden(cls, maps):
            raise AssertionError("auto-sharding must not build the full matrix")

        monkeypatch.setattr(TootIncidence, "from_placements", classmethod(forbidden))
        got = availability_curves(placements, failures)
        assert got == expected

    def test_below_threshold_stays_monolithic(self, corpus):
        _, _, _, failures = corpus
        placements = backends(corpus)["random"]
        # default threshold is far above 97 toots: the memoised incidence
        # cache must still be hit (object identity via from_placements)
        availability_curves(placements, failures)
        assert TootIncidence.from_placements(placements) is TootIncidence.from_placements(
            placements
        )

    def test_incidence_and_dict_maps_never_stream(self, corpus, monkeypatch):
        _, _, _, failures = corpus
        arrays_backed = backends(corpus)["random"]
        dict_backed = replication.PlacementMap(
            strategy="dict", placements=dict(arrays_backed.placements)
        )
        monkeypatch.setattr("repro.engine.sweep.AUTO_SHARD_THRESHOLD", 0)
        monkeypatch.setattr("repro.engine.sweep.streaming_losses", None)  # streaming would raise
        for placements in (TootIncidence.from_placements(arrays_backed), dict_backed):
            availability_curves(placements, failures)


# -- new failure models: correlated groups and temporal schedules -----------------


class TestNewModelSharding:
    """The additive loss fold covers the correlated/temporal models too.

    Temporal schedules are non-monotone — domains go down and come back —
    yet each tick is one single-step column of integer losses, so the
    sharded streaming path must stay bit-identical at every shard size.
    """

    def _models(self, corpus):
        from repro.engine import CountryRemoval, HosterRemoval, ScheduledDowntime, TemporalChurn

        toots, domains, _, _ = corpus
        rng = np.random.default_rng(7)
        asn_of = {d: int(a) for d, a in zip(domains, rng.integers(1, 6, len(domains)))}
        hoster_of = {d: f"H{a % 3}" for d, a in asn_of.items()}
        country_of = {d: ("JP", "US", "FR")[i % 3] for i, d in enumerate(domains)}
        return [
            HosterRemoval(hoster_of, sorted(set(hoster_of.values())), steps=3, name="hosters"),
            CountryRemoval(country_of, ("JP", "US", "FR"), steps=3, name="countries"),
            ScheduledDowntime(
                # non-monotone: overlapping outages with recoveries
                {
                    domains[0]: [(1, 4), (8, 11)],
                    domains[1]: [(2, 3)],
                    domains[5]: [(5, 12)],
                    domains[9]: [(3, 6), (7, 9)],
                },
                steps=12,
                name="scheduled",
            ),
            TemporalChurn(
                domains,
                (0.5, 1.0, 2.0, 4.0),
                {d: 0.1 + 0.04 * i for i, d in enumerate(domains)},
                steps=15,
                horizon_days=20.0,
                seed=4,
                name="churn",
            ),
        ]

    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_every_backend_matches_unsharded(self, corpus, shard_size):
        models = self._models(corpus)
        for label, placements in backends(corpus).items():
            expected = availability_curves(TootIncidence.from_placements(placements), models)
            got = availability_curves(shard_view(placements, shard_size), models)
            assert got == expected, (label, shard_size)

    def test_temporal_loss_table_matches_monolithic(self, corpus):
        """streaming_losses over tick columns == the monolithic batch, bit for bit."""
        from repro.engine import temporal_removal_matrix
        from repro.engine.kernels import losses_per_step_batch

        models = self._models(corpus)
        temporal = [m for m in models if m.temporal]
        placements = backends(corpus)["random"]
        incidence = TootIncidence.from_placements(placements)
        sharded = ShardedIncidence.from_arrays(placements.arrays, PRIME_SHARD)
        for model in temporal:
            removal_matrix = temporal_removal_matrix(model.down_matrix(incidence.lookup))
            steps = np.ones(removal_matrix.shape[1], dtype=np.int64)
            expected = losses_per_step_batch(incidence.matrix, removal_matrix, steps)
            got = streaming_losses(sharded, removal_matrix, steps)
            assert np.array_equal(got, expected), model.name


# -- streaming losses: the additive composition law -------------------------------


class TestStreamingLosses:
    def test_accumulated_losses_match_monolithic_kill_matrix(self, corpus):
        _, _, _, failures = corpus
        placements = backends(corpus)["weighted-random"]
        incidence = TootIncidence.from_placements(placements)
        steps = np.asarray([f.effective_steps() for f in failures], dtype=np.int64)
        removal_matrix = np.column_stack(
            [
                incidence.removal_vector(failure.removal_index(), int(steps[j]))
                for j, failure in enumerate(failures)
            ]
        )
        kill = kill_steps_batch(incidence.matrix, removal_matrix)
        sharded = ShardedIncidence.from_arrays(placements.arrays, PRIME_SHARD)
        losses = streaming_losses(sharded, removal_matrix, steps)
        assert losses.shape == (len(failures), int(steps.max()) + 1)
        for j in range(len(failures)):
            expected = losses_per_step(kill[:, j], int(steps[j]))
            assert np.array_equal(losses[j, : int(steps[j]) + 1], expected)
            assert not losses[j, int(steps[j]) + 1 :].any()

    def test_domain_vectors_match_the_unsharded_incidence(self, corpus):
        _, domains, _, _ = corpus
        placements = backends(corpus)["random"]
        incidence = TootIncidence.from_placements(placements)
        sharded = ShardedIncidence.from_arrays(placements.arrays, PRIME_SHARD)
        removal_index = {domains[0]: 1, domains[3]: 2, "unknown.example": 1, domains[5]: 99}
        assert np.array_equal(
            sharded.removal_vector(removal_index, steps=10),
            incidence.removal_vector(removal_index, steps=10),
        )
        asn_of = {domains[0]: 64512, domains[4]: 64513, "unknown.example": 7}
        assert np.array_equal(
            sharded.as_assignment(asn_of), incidence.as_assignment(asn_of)
        )


# -- annotations resolve ------------------------------------------------------------


@pytest.mark.parametrize(
    "function",
    [ShardedIncidence.__init__, ShardedIncidence.from_arrays,
     availability_curves, streaming_losses],
)
def test_type_hints_resolve(function):
    # supply the names imported only for type checkers; any other miss is a NameError
    typing.get_type_hints(
        function,
        localns={"PlacementArrays": PlacementArrays, "AvailabilityPoint": AvailabilityPoint},
    )
