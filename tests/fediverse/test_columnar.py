"""The columnar scenario: shape, identity with its own materialisation,
paging semantics, and the golden per-preset pin.

Every entry point draws the population from the one columnar
generator; :func:`build_scenario` is its :meth:`to_network` view.  The
pin at tiny/seed-11 guards both the columns every stream consumer reads
and the object network the in-memory crawl and the differential suite
materialise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crawler import SimulatedTransport
from repro.errors import ConfigurationError
from repro.fediverse import (
    ColumnarTimeline,
    FediverseNetwork,
    build_columnar_scenario,
    build_scenario,
    preset_names,
    scenario_config,
)
from repro.fediverse.timeline import DEFAULT_PAGE_SIZE, Timeline
from repro.fediverse.entities import Toot, UserRef, Visibility
from tests.conftest import TINY_SEED

#: Golden population pin at tiny/seed-11.  A change here means the
#: scenario itself changed: every golden number in the analysis suites
#: needs re-deriving, so bump deliberately.
GOLDEN_COLUMNAR_TINY = {
    "instances": 40,
    "users": 1200,
    "toots": 7613,
    "public_toots": 6200,
    "follow_edges": 6245,
    "federation_edges": 560,
}


@pytest.fixture(scope="module")
def tiny_columnar():
    """The columnar tiny scenario, generated once per module."""
    return build_columnar_scenario("tiny", seed=TINY_SEED)


class TestGoldenStats:
    def test_network_tiny_pin(self, tiny_network):
        assert tiny_network.stats() == GOLDEN_COLUMNAR_TINY

    def test_columnar_tiny_pin(self, tiny_columnar):
        assert tiny_columnar.stats() == GOLDEN_COLUMNAR_TINY

    def test_entry_points_draw_same_population(self, tiny_network, tiny_columnar):
        # build_scenario is the to_network() view of the same draw, so
        # the two agree instance by instance, not just in aggregate
        s = tiny_columnar
        domains = [d.domain for d in s.descriptors]
        assert tiny_network.domains() == sorted(domains)
        users = np.bincount(s.user_instance, minlength=len(domains))
        toots = np.bincount(s.user_instance[s.toot_author], minlength=len(domains))
        for index, domain in enumerate(domains):
            instance = tiny_network.get_instance(domain)
            assert len(instance.users) == int(users[index]), domain
            assert len(instance.toots) == int(toots[index]), domain


    def test_geo_matches_network_registration(self, tiny_columnar):
        # a fresh network registers hosts through add_instance
        network = FediverseNetwork(clock=tiny_columnar.clock)
        for descriptor in tiny_columnar.descriptors:
            network.add_instance(descriptor)
        geo = tiny_columnar.geo
        assert len(geo) == len(network.geo) > 0
        for descriptor in tiny_columnar.descriptors:
            ip = descriptor.ip_address
            assert (ip in geo) == (ip in network.geo)
            if ip in geo:
                assert geo.lookup(ip) == network.geo.lookup(ip)


class TestColumnShapes:
    def test_column_alignment(self, tiny_columnar):
        s = tiny_columnar
        assert s.user_instance.shape == s.user_created.shape == (s.n_users,)
        assert s.follow_src.shape == s.follow_dst.shape
        for column in (
            s.toot_author,
            s.toot_created,
            s.toot_private,
            s.toot_tag,
            s.toot_cw,
            s.toot_media,
            s.toot_boost_of,
        ):
            assert column.shape == (s.n_toots,)
        assert s.login_user.shape == s.login_minute.shape

    def test_users_contiguous_per_instance(self, tiny_columnar):
        inst = tiny_columnar.user_instance
        # non-decreasing: each instance's users form one contiguous block
        assert bool(np.all(inst[1:] >= inst[:-1]))

    def test_follows_deduplicated_and_ordered(self, tiny_columnar):
        s = tiny_columnar
        keys = s.follow_src.astype(np.int64) * s.n_users + s.follow_dst.astype(np.int64)
        assert bool(np.all(keys[1:] > keys[:-1]))  # owner-major, strictly sorted
        assert not bool(np.any(s.follow_src == s.follow_dst))

    def test_toots_sorted_and_in_window(self, tiny_columnar):
        s = tiny_columnar
        # originals are time-sorted (posting order); boosts are
        # allocated afterwards with their own later-than-original times
        originals = s.toot_created[s.toot_boost_of == 0]
        assert bool(np.all(originals[1:] >= originals[:-1]))
        assert 0 <= int(s.toot_created.min())
        assert int(s.toot_created.max()) < s.config.window_minutes

    def test_boosts_point_backwards_at_public_originals(self, tiny_columnar):
        s = tiny_columnar
        boosts = np.flatnonzero(s.toot_boost_of > 0)
        assert boosts.size > 0
        originals = s.toot_boost_of[boosts] - 1
        assert bool(np.all(originals < boosts))
        assert not bool(np.any(s.toot_private[originals]))


class TestMaterialisationIdentity:
    """to_network() replays the columns through the real network."""

    def test_stats_match(self, tiny_columnar):
        assert tiny_columnar.to_network().stats() == tiny_columnar.stats()

    def test_timeline_pages_match_the_crawled_api(self, tiny_columnar):
        transport = SimulatedTransport(tiny_columnar.to_network())
        minute = tiny_columnar.config.window_minutes - 1
        domain = next(
            d.domain
            for d in sorted(tiny_columnar.descriptors, key=lambda d: d.domain)
            if tiny_columnar.reachable(d, minute) and not d.crawl_blocked
        )
        max_id = None
        pages = 0
        while pages < 5:
            url = f"https://{domain}/api/v1/timelines/public?limit=40"
            if max_id is not None:
                url += f"&max_id={max_id}"
            payloads = transport.get(url, at_minute=minute).payload
            rendered = tiny_columnar.timeline_page(domain, max_id=max_id, limit=40)
            assert rendered == payloads
            if len(payloads) < 40:
                break
            max_id = payloads[-1]["id"]
            pages += 1
        assert pages > 0 or max_id is None


class TestDeterminism:
    def test_same_seed_same_columns(self):
        first = build_columnar_scenario("tiny", seed=3)
        second = build_columnar_scenario("tiny", seed=3)
        assert np.array_equal(first.user_instance, second.user_instance)
        assert np.array_equal(first.follow_src, second.follow_src)
        assert np.array_equal(first.toot_created, second.toot_created)
        assert np.array_equal(first.login_minute, second.login_minute)

    def test_different_seed_differs(self):
        first = build_columnar_scenario("tiny", seed=3)
        second = build_columnar_scenario("tiny", seed=4)
        assert first.stats() != second.stats()


class TestPresetRegistry:
    def test_names(self):
        assert preset_names() == ("tiny", "small", "medium", "large", "xlarge")

    def test_unknown_preset_lists_the_valid_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            scenario_config("bogus")
        message = str(excinfo.value)
        assert "'bogus'" in message
        for name in preset_names():
            assert name in message

    def test_xlarge_targets_ten_million_toots(self):
        config = scenario_config("xlarge")
        assert config.label == "xlarge"
        assert config.total_toots_target >= 10_000_000
        assert config.n_instances == 800


class TestColumnarTimeline:
    def _pair(self):
        """A Timeline and ColumnarTimeline over the same toots."""
        ids = [2, 5, 6, 9, 12, 17]
        public = [True, False, True, True, False, True]
        timeline = Timeline()
        for toot_id, is_public in zip(ids, public):
            timeline.add(
                Toot(
                    toot_id=toot_id,
                    author=UserRef(username="a", domain="x.example"),
                    created_at=toot_id,
                    visibility=Visibility.PUBLIC if is_public else Visibility.PRIVATE,
                )
            )
        return timeline, ColumnarTimeline(np.array(ids), np.array(public))

    @pytest.mark.parametrize("max_id", [None, 1, 2, 3, 6, 9, 12, 17, 18, 100])
    @pytest.mark.parametrize("limit", [1, 2, 3, 40])
    @pytest.mark.parametrize("public_only", [True, False])
    def test_page_boundaries_match_timeline(self, max_id, limit, public_only):
        timeline, columnar = self._pair()
        expected = [
            t.toot_id for t in timeline.page(max_id, limit, public_only=public_only)
        ]
        got = columnar.page_ids(max_id, limit, public_only=public_only).tolist()
        assert got == expected

    def test_counts_and_bounds(self):
        timeline, columnar = self._pair()
        assert len(columnar) == len(timeline)
        assert columnar.count(public_only=True) == timeline.count(public_only=True)
        assert columnar.newest_id() == timeline.newest_id()
        assert columnar.oldest_id() == timeline.oldest_id()
        assert columnar.page_positions(limit=0).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ColumnarTimeline(np.array([3, 2]), np.array([True, True]))
        with pytest.raises(ValueError):
            ColumnarTimeline(np.array([1, 2]), np.array([True]))

    def test_default_page_size(self):
        _, columnar = self._pair()
        assert columnar.page_ids().size <= DEFAULT_PAGE_SIZE
