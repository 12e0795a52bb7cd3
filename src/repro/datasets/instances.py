"""The instances dataset: snapshot time series + hosting metadata.

This is the offline counterpart of the paper's primary dataset: fifteen
months of periodic instance-API snapshots (from mnm.social), joined with
Maxmind country/AS information and crt.sh certificate records.  The class
wraps a :class:`~repro.crawler.monitor.MonitoringLog` and exposes the
derived measures used throughout Section 4: per-instance user/toot
counts, registration policy splits, activity levels, downtime fractions,
outage intervals and hosting breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import DatasetError
from repro.crawler.monitor import InstanceSnapshot, MonitoringLog
from repro.simtime import MINUTES_PER_DAY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fediverse.certificates import CertificateRegistry
    from repro.fediverse.entities import InstanceDescriptor
    from repro.fediverse.geo import GeoDatabase


@dataclass(frozen=True, slots=True)
class InstanceMetadata:
    """Static per-instance metadata joined onto the snapshot series."""

    domain: str
    software: str = "mastodon"
    registration_open: bool = True
    categories: tuple[str, ...] = ()
    allowed_activities: tuple[str, ...] = ()
    prohibited_activities: tuple[str, ...] = ()
    allows_all_activities: bool = False
    country: str = ""
    asn: int = 0
    as_name: str = ""
    ip_address: str = ""
    operator: str = "unknown"
    certificate_authority: str = ""
    created_at: int = 0

    @property
    def is_tagged(self) -> bool:
        """Whether the instance declared at least one category."""
        return bool(self.categories)


@dataclass(frozen=True, slots=True)
class OutageInterval:
    """A continuous run of offline probes for one instance."""

    domain: str
    start_minute: int
    end_minute: int

    @property
    def duration_minutes(self) -> int:
        """Outage length in minutes."""
        return self.end_minute - self.start_minute

    @property
    def duration_days(self) -> float:
        """Outage length in fractional days."""
        return self.duration_minutes / MINUTES_PER_DAY


class InstancesDataset:
    """Snapshot series + metadata for a population of instances."""

    def __init__(
        self,
        log: MonitoringLog,
        metadata: Mapping[str, InstanceMetadata] | None = None,
    ) -> None:
        if len(log) == 0:
            raise DatasetError("cannot build an instances dataset from an empty log")
        self.log = log
        self.metadata: dict[str, InstanceMetadata] = dict(metadata or {})
        self._by_domain: dict[str, list[InstanceSnapshot]] = {}
        for snapshot in log:
            self._by_domain.setdefault(snapshot.domain, []).append(snapshot)
        for snapshots in self._by_domain.values():
            snapshots.sort(key=lambda s: s.minute)
        for domain in self._by_domain:
            self.metadata.setdefault(domain, InstanceMetadata(domain=domain))

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        log: MonitoringLog,
        descriptors: "Iterable[InstanceDescriptor]",
        geo: "GeoDatabase",
        certificates: "CertificateRegistry",
    ) -> "InstancesDataset":
        """Join a monitoring log with hosting/certificate metadata.

        This mirrors the paper's pipeline: the API snapshots provide the
        dynamic counters while Maxmind (here: the scenario's ``geo``
        database) and crt.sh (here: its ``certificates`` registry)
        provide country, AS and CA information for each instance
        descriptor.
        """
        metadata: dict[str, InstanceMetadata] = {}
        for descriptor in descriptors:
            as_name = ""
            if descriptor.asn and geo.has_autonomous_system(descriptor.asn):
                as_name = geo.autonomous_system(descriptor.asn).name
            authority = ""
            if descriptor.domain in certificates:
                authority = certificates.authority_of(descriptor.domain)
            policy = descriptor.activity_policy
            metadata[descriptor.domain] = InstanceMetadata(
                domain=descriptor.domain,
                software=descriptor.software.value,
                registration_open=descriptor.is_open,
                categories=tuple(category.value for category in descriptor.categories),
                allowed_activities=tuple(
                    sorted(a.value for a in policy.allowed) if policy else ()
                ),
                prohibited_activities=tuple(
                    sorted(a.value for a in policy.prohibited) if policy else ()
                ),
                allows_all_activities=bool(policy.allows_all) if policy else False,
                country=descriptor.country,
                asn=descriptor.asn,
                as_name=as_name,
                ip_address=descriptor.ip_address,
                operator=descriptor.operator.value,
                certificate_authority=authority,
                created_at=descriptor.created_at,
            )
        return cls(log=log, metadata=metadata)

    # -- basic accessors ---------------------------------------------------------

    def domains(self) -> list[str]:
        """Every monitored domain, sorted."""
        return sorted(self._by_domain)

    def __len__(self) -> int:
        return len(self._by_domain)

    def snapshots_for(self, domain: str) -> list[InstanceSnapshot]:
        """Chronological snapshots of one domain."""
        try:
            return list(self._by_domain[domain])
        except KeyError as exc:
            raise DatasetError(f"domain not in dataset: {domain!r}") from exc

    def metadata_for(self, domain: str) -> InstanceMetadata:
        """Metadata record of one domain."""
        try:
            return self.metadata[domain]
        except KeyError as exc:
            raise DatasetError(f"domain not in dataset: {domain!r}") from exc

    def existing_snapshots(self, domain: str) -> list[InstanceSnapshot]:
        """Snapshots taken after the instance first appeared.

        Probes answered with 404 before an instance was created are not
        outages; they are excluded from availability statistics.
        """
        snapshots = self.snapshots_for(domain)
        first_seen = next((i for i, s in enumerate(snapshots) if s.exists), None)
        if first_seen is None:
            return []
        return snapshots[first_seen:]

    # -- population counters --------------------------------------------------------

    def latest_online_snapshot(self, domain: str) -> InstanceSnapshot | None:
        """The most recent snapshot in which the instance answered."""
        for snapshot in reversed(self.snapshots_for(domain)):
            if snapshot.online:
                return snapshot
        return None

    def users_per_instance(self) -> dict[str, int]:
        """Latest observed user count per instance."""
        counts: dict[str, int] = {}
        for domain in self.domains():
            snapshot = self.latest_online_snapshot(domain)
            counts[domain] = snapshot.user_count if snapshot else 0
        return counts

    def toots_per_instance(self) -> dict[str, int]:
        """Latest observed toot count per instance."""
        counts: dict[str, int] = {}
        for domain in self.domains():
            snapshot = self.latest_online_snapshot(domain)
            counts[domain] = snapshot.toot_count if snapshot else 0
        return counts

    def total_users(self) -> int:
        """Latest total user count across every instance."""
        return sum(self.users_per_instance().values())

    def total_toots(self) -> int:
        """Latest total toot count across every instance."""
        return sum(self.toots_per_instance().values())

    def open_domains(self) -> list[str]:
        """Domains with open registrations."""
        return [d for d in self.domains() if self.metadata_for(d).registration_open]

    def closed_domains(self) -> list[str]:
        """Domains requiring an invitation to register."""
        return [d for d in self.domains() if not self.metadata_for(d).registration_open]

    def activity_level(self, domain: str, min_users: int = 10) -> float:
        """Max weekly fraction of the instance's users seen logging in (Fig. 2c).

        Snapshots taken while the instance still has fewer than
        ``min_users`` accounts are ignored (a brand-new instance where the
        only user logs in would otherwise always score 100%); if the
        instance never reaches ``min_users`` the threshold is waived.
        """
        best = 0.0
        best_small = 0.0
        reached_threshold = False
        for snapshot in self.snapshots_for(domain):
            if not snapshot.online or snapshot.user_count <= 0:
                continue
            level = min(1.0, snapshot.logins_week / snapshot.user_count)
            if snapshot.user_count >= min_users:
                reached_threshold = True
                best = max(best, level)
            else:
                best_small = max(best_small, level)
        return best if reached_threshold else best_small

    # -- growth (Fig. 1) --------------------------------------------------------------

    def growth_series(self) -> list[dict[str, int]]:
        """Instances/users/toots present at each probe time.

        Returns one row per probe minute with the number of instances that
        exist, the summed user count and the summed toot count — the three
        curves of Fig. 1.
        """
        series: list[dict[str, int]] = []
        last_counts: dict[str, tuple[int, int]] = {}
        by_minute: dict[int, list[InstanceSnapshot]] = {}
        for snapshot in self.log:
            by_minute.setdefault(snapshot.minute, []).append(snapshot)
        existing: set[str] = set()
        for minute in sorted(by_minute):
            for snapshot in by_minute[minute]:
                if snapshot.exists:
                    existing.add(snapshot.domain)
                if snapshot.online:
                    last_counts[snapshot.domain] = (snapshot.user_count, snapshot.toot_count)
            series.append(
                {
                    "minute": minute,
                    "instances": len(existing),
                    "users": sum(users for users, _ in last_counts.values()),
                    "toots": sum(toots for _, toots in last_counts.values()),
                }
            )
        return series

    # -- availability (Figs. 7, 8, 10) ---------------------------------------------------

    def downtime_fraction(self, domain: str) -> float:
        """Fraction of probes (after first appearance) that found the instance down."""
        snapshots = self.existing_snapshots(domain)
        if not snapshots:
            return 1.0
        down = sum(1 for s in snapshots if not s.online)
        return down / len(snapshots)

    def downtime_fractions(self) -> dict[str, float]:
        """Downtime fraction per instance."""
        return {domain: self.downtime_fraction(domain) for domain in self.domains()}

    def daily_downtime(self, domain: str) -> dict[int, float]:
        """Per-day downtime fraction for one instance (Fig. 8)."""
        per_day: dict[int, list[bool]] = {}
        for snapshot in self.existing_snapshots(domain):
            per_day.setdefault(snapshot.day, []).append(snapshot.online)
        return {
            day: 1.0 - (sum(flags) / len(flags))
            for day, flags in sorted(per_day.items())
            if flags
        }

    def outage_intervals(self, domain: str, drop_trailing: bool = True) -> list[OutageInterval]:
        """Continuous runs of offline probes for one instance (Fig. 10).

        With ``drop_trailing=True`` an outage still in progress at the end
        of the log is excluded, matching the paper's rule of only counting
        outages where the instance eventually came back.
        """
        snapshots = self.existing_snapshots(domain)
        intervals: list[OutageInterval] = []
        start: int | None = None
        last_minute: int | None = None
        for snapshot in snapshots:
            if not snapshot.online and start is None:
                start = snapshot.minute
            elif snapshot.online and start is not None:
                intervals.append(OutageInterval(domain, start, snapshot.minute))
                start = None
            last_minute = snapshot.minute
        if start is not None and not drop_trailing and last_minute is not None:
            intervals.append(OutageInterval(domain, start, last_minute + self.log.interval_minutes))
        return intervals

    # -- hosting (Fig. 5) ------------------------------------------------------------------

    def by_country(self) -> dict[str, list[str]]:
        """Domains grouped by hosting country."""
        groups: dict[str, list[str]] = {}
        for domain in self.domains():
            groups.setdefault(self.metadata_for(domain).country, []).append(domain)
        return groups

    def by_asn(self) -> dict[int, list[str]]:
        """Domains grouped by hosting AS."""
        groups: dict[int, list[str]] = {}
        for domain in self.domains():
            groups.setdefault(self.metadata_for(domain).asn, []).append(domain)
        return groups

    def as_name(self, asn: int) -> str:
        """Best-effort AS name for ``asn`` from the metadata records."""
        for metadata in self.metadata.values():
            if metadata.asn == asn and metadata.as_name:
                return metadata.as_name
        return f"AS{asn}"
