"""Tests for the scenario generator: shape, calibration and reproducibility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fediverse import ScenarioConfig, ScenarioGenerator, build_scenario
from repro.fediverse.entities import RegistrationPolicy, Software
from repro.stats.distributions import pareto_share
from tests.conftest import TINY_SEED


class TestScenarioConfig:
    def test_presets(self):
        tiny = ScenarioConfig.tiny()
        small = ScenarioConfig.small()
        medium = ScenarioConfig.medium()
        assert tiny.n_instances < small.n_instances < medium.n_instances
        assert tiny.total_users < small.total_users < medium.total_users

    def test_large_preset_targets_a_million_toots(self):
        large = ScenarioConfig.large()
        medium = ScenarioConfig.medium()
        assert large.label == "large"
        assert large.total_users == 2 * medium.total_users
        assert large.total_toots_target >= 1_000_000
        # toots scale harder than instances: the crawl volume grows with
        # instances x federated-timeline length
        assert large.n_instances < 2 * medium.n_instances

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_instances=1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_instances=10, total_users=5)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(open_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(window_days=1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(mean_toots_per_user=0)

    def test_scaled(self):
        config = ScenarioConfig.tiny().scaled(0.5)
        assert config.n_instances == 20
        assert config.total_users == 600
        with pytest.raises(ConfigurationError):
            ScenarioConfig.tiny().scaled(0)

    def test_window_and_target_properties(self):
        config = ScenarioConfig.tiny()
        assert config.window_minutes == config.window_days * 24 * 60
        assert config.total_toots_target == int(
            config.total_users * config.mean_toots_per_user
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            build_scenario("gigantic")


class TestGeneratedPopulation(object):
    """Shape assertions on the session-scoped tiny scenario."""

    def test_sizes_match_config(self, tiny_network):
        config = ScenarioConfig.tiny(seed=TINY_SEED)
        assert len(tiny_network) == config.n_instances
        assert tiny_network.total_users() == config.total_users
        # toot volume lands near the target (boosts add a little on top)
        assert tiny_network.total_toots() == pytest.approx(
            config.total_toots_target, rel=0.35
        )

    def test_every_instance_has_a_user(self, tiny_network):
        assert all(len(instance.users) >= 1 for instance in tiny_network.instances())

    def test_user_population_is_skewed(self, tiny_network):
        users_per_instance = [len(i.users) for i in tiny_network.instances()]
        assert pareto_share(users_per_instance, 0.10) > 0.35
        assert max(users_per_instance) < tiny_network.total_users()

    def test_open_instances_hold_most_users(self, tiny_network):
        open_users = sum(
            len(i.users)
            for i in tiny_network.instances()
            if i.descriptor.registration is RegistrationPolicy.OPEN
        )
        assert open_users / tiny_network.total_users() > 0.5

    def test_software_mix_is_mostly_mastodon(self, tiny_network):
        pleroma = sum(
            1 for i in tiny_network.instances() if i.descriptor.software is Software.PLEROMA
        )
        assert pleroma / len(tiny_network) < 0.2

    def test_hosting_metadata_is_complete(self, tiny_network):
        for instance in tiny_network.instances():
            descriptor = instance.descriptor
            assert descriptor.asn > 0
            assert descriptor.ip_address
            assert descriptor.country
            assert tiny_network.geo.asn_of(descriptor.ip_address) == descriptor.asn

    def test_certificates_issued_for_every_instance(self, tiny_network):
        for instance in tiny_network.instances():
            assert instance.domain in tiny_network.certificates

    def test_follow_edges_and_federation_exist(self, tiny_network):
        stats = tiny_network.stats()
        assert stats["follow_edges"] > stats["users"]  # mean degree above one
        assert stats["federation_edges"] > len(tiny_network)

    def test_some_instances_blocked_and_some_tagged(self, tiny_network):
        blocked = sum(1 for i in tiny_network.instances() if i.descriptor.crawl_blocked)
        tagged = sum(1 for i in tiny_network.instances() if i.descriptor.is_tagged)
        assert blocked >= 1
        assert tagged >= 1

    def test_outages_generated(self, tiny_network):
        with_outages = sum(
            1
            for instance in tiny_network.instances()
            if tiny_network.availability.outages_for(instance.domain)
        )
        assert with_outages > len(tiny_network) * 0.5
        assert len(tiny_network.availability.as_events()) >= 1

    def test_toot_creation_times_inside_window(self, tiny_network):
        window = tiny_network.clock.window_minutes
        for instance in tiny_network.instances():
            for toot in instance.local_toots():
                assert 0 <= toot.created_at <= window

    def test_logins_recorded(self, tiny_network):
        total_logins = sum(i.counters.logins for i in tiny_network.instances())
        assert total_logins > 0


class TestReproducibility:
    def test_same_seed_same_population(self):
        config = ScenarioConfig(
            seed=99, label="repro", n_instances=20, total_users=300,
            mean_toots_per_user=3.0, window_days=30,
        )
        first = ScenarioGenerator(config).generate()
        second = ScenarioGenerator(config).generate()
        assert first.domains() == second.domains()
        assert first.stats() == second.stats()
        assert np.array_equal(first.user_instance, second.user_instance)

    def test_different_seed_differs(self):
        base = ScenarioConfig(
            seed=1, label="a", n_instances=20, total_users=300,
            mean_toots_per_user=3.0, window_days=30,
        )
        other = ScenarioConfig(
            seed=2, label="b", n_instances=20, total_users=300,
            mean_toots_per_user=3.0, window_days=30,
        )
        first = ScenarioGenerator(base).generate()
        second = ScenarioGenerator(other).generate()
        assert first.stats() != second.stats() or first.domains() != second.domains()
