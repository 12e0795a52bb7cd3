"""Tests for the instance monitor (the mnm.social re-implementation)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.crawler.http import SimulatedTransport
from repro.crawler.monitor import (
    InstanceMonitor,
    InstanceSnapshot,
    MonitoringLog,
    monitor_scenario,
)
from repro.fediverse import InstanceDescriptor, build_columnar_scenario
from repro.fediverse.uptime import Outage
from repro.simtime import MINUTES_PER_DAY, TimeWindow
from tests.conftest import build_mini_network, ref


@pytest.fixture()
def network():
    net = build_mini_network(window_days=2)
    net.post_toot(ref("alice@alpha.example"), created_at=10)
    net.availability.add_outage(Outage("beta.example", TimeWindow(0, MINUTES_PER_DAY)))
    return net


class TestProbe:
    def test_online_probe_captures_counts(self, network):
        monitor = InstanceMonitor(SimulatedTransport(network), network.domains())
        snapshot = monitor.probe("alpha.example", minute=100)
        assert snapshot.online
        assert snapshot.user_count == 2
        assert snapshot.toot_count == 1
        assert snapshot.registrations_open is True
        assert snapshot.software == "mastodon"
        assert snapshot.exists

    def test_offline_probe(self, network):
        monitor = InstanceMonitor(SimulatedTransport(network), network.domains())
        snapshot = monitor.probe("beta.example", minute=100)
        assert not snapshot.online
        assert snapshot.exists  # 503, not 404
        assert snapshot.user_count == 0

    def test_transient_failure_recorded_as_unreachable(self, network):
        # an injected fault that escapes the retry layer must become a
        # "down at this minute" snapshot, not a monitor crash
        from repro.crawler.faults import FaultInjector, FaultRates, FaultyTransport

        transport = FaultyTransport(
            SimulatedTransport(network),
            FaultInjector(seed=0, rates=FaultRates(timeout=1.0)),
        )
        monitor = InstanceMonitor(transport, network.domains())
        snapshot = monitor.probe("alpha.example", minute=100)
        assert not snapshot.online
        assert snapshot.exists

    def test_nonexistent_instance_probe(self, network):
        network.add_instance(InstanceDescriptor(domain="late.example", created_at=MINUTES_PER_DAY))
        monitor = InstanceMonitor(SimulatedTransport(network), ["late.example"])
        early = monitor.probe("late.example", minute=0)
        late = monitor.probe("late.example", minute=MINUTES_PER_DAY + 10)
        assert not early.online and not early.exists
        assert late.online and late.exists

    def test_snapshot_day_property(self):
        snapshot = InstanceSnapshot(domain="a", minute=MINUTES_PER_DAY + 5, online=True)
        assert snapshot.day == 1


class TestRun:
    def test_run_produces_snapshots_for_every_domain_and_tick(self, network):
        monitor = InstanceMonitor(
            SimulatedTransport(network), network.domains(), interval_minutes=12 * 60
        )
        log = monitor.run()
        # 2-day window, 12h interval -> 4 ticks x 3 domains
        assert len(log) == 12
        assert log.domains() == network.domains()
        assert len(log.probe_minutes()) == 4

    def test_run_respects_bounds(self, network):
        monitor = InstanceMonitor(
            SimulatedTransport(network), network.domains(), interval_minutes=60
        )
        log = monitor.run(start_minute=0, end_minute=120)
        assert len(log.probe_minutes()) == 2

    def test_run_invalid_bounds(self, network):
        monitor = InstanceMonitor(SimulatedTransport(network), network.domains())
        with pytest.raises(ConfigurationError):
            monitor.run(start_minute=100, end_minute=100)

    def test_outage_visible_in_snapshots(self, network):
        monitor = InstanceMonitor(
            SimulatedTransport(network), ["beta.example"], interval_minutes=6 * 60
        )
        log = monitor.run()
        beta = log.for_domain("beta.example")
        assert not beta[0].online          # first day: down
        assert beta[-1].online             # second day: back up

    def test_monitor_requires_domains_and_interval(self, network):
        transport = SimulatedTransport(network)
        with pytest.raises(ConfigurationError):
            InstanceMonitor(transport, [])
        with pytest.raises(ConfigurationError):
            InstanceMonitor(transport, ["alpha.example"], interval_minutes=0)


class TestMonitoringLog:
    def test_for_domain_sorted(self):
        log = MonitoringLog(interval_minutes=5)
        log.extend(
            [
                InstanceSnapshot(domain="a", minute=10, online=True),
                InstanceSnapshot(domain="a", minute=5, online=True),
                InstanceSnapshot(domain="b", minute=5, online=False),
            ]
        )
        assert [s.minute for s in log.for_domain("a")] == [5, 10]
        assert log.domains() == ["a", "b"]
        assert len(log) == 3
        assert log.probe_minutes() == [5, 10]


@pytest.fixture(scope="module")
def world():
    """``world(preset, seed)`` -> (columnar scenario, its object network), cached."""
    cache: dict = {}

    def build(preset: str, seed: int):
        if (preset, seed) not in cache:
            scenario = build_columnar_scenario(preset, seed=seed)
            cache[preset, seed] = (scenario, scenario.to_network())
        return cache[preset, seed]

    return build


def assert_matches_object_monitor(scenario, network, interval: int) -> None:
    expected = InstanceMonitor(SimulatedTransport(network), network.domains(), interval).run()
    got = monitor_scenario(scenario, interval)
    assert got.interval_minutes == interval
    assert got.snapshots == expected.snapshots
    # the grid covers every kind of probe answer
    assert any(not s.exists for s in got)
    assert any(s.exists and not s.online for s in got)
    assert any(s.online for s in got)


class TestColumnarMonitor:
    """``monitor_scenario`` is the object monitor over ``to_network()``, exactly."""

    @pytest.mark.parametrize("interval", [1440, 360, 97])
    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_tiny_grid(self, world, seed, interval):
        assert_matches_object_monitor(*world("tiny", seed), interval)

    @pytest.mark.slow
    def test_small(self):
        scenario = build_columnar_scenario("small", seed=42)
        assert_matches_object_monitor(scenario, scenario.to_network(), 1440)

    def test_rejects_nonpositive_interval(self, world):
        scenario, _ = world("tiny", 7)
        with pytest.raises(ConfigurationError):
            monitor_scenario(scenario, 0)
