"""The instance monitor: an offline reimplementation of mnm.social.

Every five minutes, mnm.social fetched ``/api/v1/instance`` from every
known instance and recorded the returned metadata together with whether
the instance was reachable.  :class:`InstanceMonitor` does exactly that
against the simulated transport, producing the snapshot stream the
instances dataset is built from.  :func:`monitor_scenario` derives the
same stream, snapshot for snapshot, straight from a
:class:`~repro.fediverse.columnar.ColumnarScenario`'s columns — the
monitor of every fault-free experiment run, where no transport (and no
object network) exists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, HTTPError, TransientCrawlError
from repro.crawler.http import SimulatedTransport
from repro.fediverse.entities import RegistrationPolicy
from repro.fediverse.instance import MINUTES_PER_WEEK
from repro.simtime import DEFAULT_PROBE_INTERVAL_MINUTES, MINUTES_PER_DAY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fediverse.columnar import ColumnarScenario

_log = logging.getLogger("repro.crawler.monitor")


@dataclass(frozen=True, slots=True)
class InstanceSnapshot:
    """One probe of one instance at one point in time."""

    domain: str
    minute: int
    online: bool
    user_count: int = 0
    toot_count: int = 0
    domain_count: int = 0
    registrations_open: bool | None = None
    logins_week: int = 0
    software: str = ""
    version: str = ""
    exists: bool = True

    @property
    def day(self) -> int:
        """Zero-based day index of the probe."""
        return self.minute // MINUTES_PER_DAY


@dataclass
class MonitoringLog:
    """The full snapshot stream produced by a monitoring run."""

    interval_minutes: int
    snapshots: list[InstanceSnapshot] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[InstanceSnapshot]:
        return iter(self.snapshots)

    def extend(self, snapshots: Iterable[InstanceSnapshot]) -> None:
        """Append snapshots to the log."""
        self.snapshots.extend(snapshots)

    def domains(self) -> list[str]:
        """Return every domain that appears in the log, sorted."""
        return sorted({snapshot.domain for snapshot in self.snapshots})

    def for_domain(self, domain: str) -> list[InstanceSnapshot]:
        """Return the snapshots of one domain in chronological order."""
        selected = [s for s in self.snapshots if s.domain == domain]
        selected.sort(key=lambda s: s.minute)
        return selected

    def probe_minutes(self) -> list[int]:
        """Return the distinct probe times, sorted."""
        return sorted({snapshot.minute for snapshot in self.snapshots})


class InstanceMonitor:
    """Polls the instance API of a list of domains on a fixed interval."""

    def __init__(
        self,
        transport: SimulatedTransport,
        domains: Iterable[str],
        interval_minutes: int = DEFAULT_PROBE_INTERVAL_MINUTES,
    ) -> None:
        if interval_minutes <= 0:
            raise ConfigurationError("the probe interval must be positive")
        self._transport = transport
        self.domains = sorted(set(domains))
        if not self.domains:
            raise ConfigurationError("the monitor needs at least one domain to probe")
        self.interval_minutes = interval_minutes

    def probe(self, domain: str, minute: int) -> InstanceSnapshot:
        """Probe a single instance once.

        Any failed request — a deterministic HTTP failure or a transient
        network error that survived whatever retry layer wraps the
        transport — records the instance as unreachable at this minute,
        exactly as a live uptime monitor would.
        """
        url = f"https://{domain}/api/v1/instance"
        try:
            response = self._transport.get(url, at_minute=minute)
        except HTTPError as error:
            return InstanceSnapshot(
                domain=domain,
                minute=minute,
                online=False,
                exists=error.status != 404,
            )
        except TransientCrawlError:
            return InstanceSnapshot(domain=domain, minute=minute, online=False)
        payload = response.payload
        stats = payload.get("stats", {})
        return InstanceSnapshot(
            domain=domain,
            minute=minute,
            online=True,
            user_count=int(stats.get("user_count", 0)),
            toot_count=int(stats.get("status_count", 0)),
            domain_count=int(stats.get("domain_count", 0)),
            registrations_open=bool(payload.get("registrations", False)),
            logins_week=int(payload.get("logins_week", 0)),
            software=str(payload.get("software", "")),
            version=str(payload.get("version", "")),
        )

    def poll(self, minute: int) -> list[InstanceSnapshot]:
        """Probe every monitored domain once at ``minute``."""
        return [self.probe(domain, minute) for domain in self.domains]

    def run(self, start_minute: int = 0, end_minute: int | None = None) -> MonitoringLog:
        """Poll every domain from ``start_minute`` to ``end_minute``.

        ``end_minute`` defaults to the end of the simulated observation
        window.  Returns the full snapshot stream.
        """
        clock = self._transport.network.clock
        end_minute = clock.window_minutes if end_minute is None else end_minute
        if end_minute <= start_minute:
            raise ConfigurationError("the monitoring window must have positive length")
        log = MonitoringLog(interval_minutes=self.interval_minutes)
        with obs.span(
            "crawl/monitor",
            domains=len(self.domains),
            interval_minutes=self.interval_minutes,
        ):
            for minute in clock.iter_ticks(
                self.interval_minutes, start_minute, end_minute
            ):
                log.extend(self.poll(minute))
        obs.count("repro_monitor_snapshots_total", len(log))
        _log.info(
            "monitoring done: %d snapshots of %d domains every %d minutes",
            len(log),
            len(self.domains),
            self.interval_minutes,
        )
        return log


def _counts_at(
    owner: np.ndarray, created: np.ndarray, n_instances: int, ticks: np.ndarray
) -> np.ndarray:
    """``(instance, tick)`` counts of rows created at or before each tick."""
    order = np.lexsort((created, owner))
    sorted_created = created[order]
    bounds = np.zeros(n_instances + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_instances), out=bounds[1:])
    counts = np.empty((n_instances, ticks.size), dtype=np.int64)
    for index in range(n_instances):
        mine = sorted_created[bounds[index] : bounds[index + 1]]
        counts[index] = np.searchsorted(mine, ticks, side="right")
    return counts


def monitor_scenario(
    scenario: "ColumnarScenario",
    interval_minutes: int = DEFAULT_PROBE_INTERVAL_MINUTES,
) -> MonitoringLog:
    """The monitoring log of ``scenario``, derived from its columns.

    Produces exactly what :meth:`InstanceMonitor.run` records over
    ``SimulatedTransport(scenario.to_network())`` with no faults: every
    domain (sorted) at every tick, answering ``404`` before the instance
    exists and ``503`` while :meth:`ColumnarScenario.reachable` says no.
    The counters of an answering instance come from the columns: users
    and local toots (boosts and private ones included) created by the
    tick, by binary search on sorted creation minutes; federated domains
    (remote instances followed or following, over the whole window —
    the instance API does not date its subscriptions); and distinct
    users logging in during the tick's week.
    """
    if interval_minutes <= 0:
        raise ConfigurationError("the probe interval must be positive")
    descriptors = scenario.descriptors
    n = len(descriptors)
    with obs.span("monitor/columnar", domains=n, interval_minutes=interval_minutes):
        ticks = np.arange(0, scenario.clock.window_minutes, interval_minutes, dtype=np.int64)
        inst = scenario.user_instance.astype(np.int64)
        users = _counts_at(inst, scenario.user_created, n, ticks)
        toots = _counts_at(inst[scenario.toot_author], scenario.toot_created, n, ticks)

        src, dst = inst[scenario.follow_src], inst[scenario.follow_dst]
        cross = src != dst
        pairs = np.unique(
            np.concatenate([src[cross] * n + dst[cross], dst[cross] * n + src[cross]])
        )
        domain_counts = np.bincount(pairs // n, minlength=n).tolist()

        weeks = scenario.login_minute.astype(np.int64) // MINUTES_PER_WEEK
        n_weeks = int(max(weeks.max(initial=0), ticks[-1] // MINUTES_PER_WEEK)) + 1
        logged_in = np.unique(weeks * scenario.n_users + scenario.login_user)
        weekly = np.bincount(
            inst[logged_in % scenario.n_users] * n_weeks + logged_in // scenario.n_users,
            minlength=n * n_weeks,
        ).reshape(n, n_weeks)
        logins = weekly[:, ticks // MINUTES_PER_WEEK]

        minutes = ticks.tolist()
        columns: list[list[InstanceSnapshot]] = []
        for index in sorted(range(n), key=lambda index: descriptors[index].domain):
            descriptor = descriptors[index]
            domain = descriptor.domain
            column = []
            for minute, user_count, toot_count, logins_week in zip(
                minutes, users[index].tolist(), toots[index].tolist(), logins[index].tolist()
            ):
                if descriptor.created_at > minute:
                    snapshot = InstanceSnapshot(domain, minute, online=False, exists=False)
                elif not scenario.reachable(descriptor, minute):
                    snapshot = InstanceSnapshot(domain, minute, online=False)
                else:
                    snapshot = InstanceSnapshot(
                        domain=domain,
                        minute=minute,
                        online=True,
                        user_count=user_count,
                        toot_count=toot_count,
                        domain_count=domain_counts[index],
                        registrations_open=descriptor.registration is RegistrationPolicy.OPEN,
                        logins_week=logins_week,
                        software=descriptor.software.value,
                        version=descriptor.version,
                    )
                column.append(snapshot)
            columns.append(column)
        log = MonitoringLog(interval_minutes=interval_minutes)
        # probe order: every domain at the first tick, then the next tick
        log.extend(snapshot for row in zip(*columns) for snapshot in row)
    obs.count("repro_monitor_snapshots_total", len(log))
    return log
