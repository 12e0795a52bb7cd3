"""The Fediverse network: the container tying every substrate together.

:class:`FediverseNetwork` owns the instance registry, the shared clock,
the geo database, the certificate registry, the availability schedule and
the federation router.  It is the single object the crawlers talk to
(through the simulated HTTP transport) and the single object the scenario
generator populates.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator

from repro.errors import SimulationError, UnknownInstanceError
from repro.fediverse.certificates import CertificateRegistry
from repro.fediverse.entities import (
    Follow,
    InstanceDescriptor,
    Toot,
    User,
    UserRef,
    Visibility,
)
from repro.fediverse.federation import FederationRouter
from repro.fediverse.geo import GeoDatabase
from repro.fediverse.instance import InstanceServer
from repro.fediverse.uptime import AvailabilitySchedule
from repro.simtime import SimClock


class FediverseNetwork:
    """A population of federated instances plus their shared infrastructure."""

    def __init__(
        self,
        clock: SimClock | None = None,
        geo: GeoDatabase | None = None,
        certificates: CertificateRegistry | None = None,
        availability: AvailabilitySchedule | None = None,
        record_activities: bool = False,
    ) -> None:
        self.clock = clock or SimClock()
        self.geo = geo or GeoDatabase()
        self.certificates = certificates or CertificateRegistry()
        self.availability = availability or AvailabilitySchedule(self.clock.window_minutes)
        self._instances: dict[str, InstanceServer] = {}
        self.federation = FederationRouter(self._instances, record_activities=record_activities)
        self._toot_ids = count(1)
        self._follow_edges: list[Follow] = []
        self._subscription_edges_cache: set[tuple[str, str]] | None = None

    # -- instance registry --------------------------------------------------

    def add_instance(self, descriptor: InstanceDescriptor) -> InstanceServer:
        """Create and register a new instance from its descriptor.

        If the descriptor carries hosting information (IP + ASN known to
        the geo database) the IP is registered for Maxmind-style lookups.
        """
        if descriptor.domain in self._instances:
            raise SimulationError(f"instance already exists: {descriptor.domain!r}")
        server = InstanceServer(descriptor)
        self._instances[descriptor.domain] = server
        self.geo.register_host(descriptor)
        return server

    def get_instance(self, domain: str) -> InstanceServer:
        """Return the instance registered under ``domain``."""
        try:
            return self._instances[domain]
        except KeyError as exc:
            raise UnknownInstanceError(domain) from exc

    def __contains__(self, domain: str) -> bool:
        return domain in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    def domains(self) -> list[str]:
        """Return every registered instance domain, sorted."""
        return sorted(self._instances)

    def instances(self) -> Iterator[InstanceServer]:
        """Iterate over every registered instance server."""
        return iter(self._instances.values())

    # -- availability -------------------------------------------------------

    def is_online(self, domain: str, minute: int | None = None) -> bool:
        """Return whether ``domain`` is reachable at ``minute`` (default: now)."""
        if domain not in self._instances:
            raise UnknownInstanceError(domain)
        minute = self.clock.now if minute is None else minute
        if self.certificates.is_lapsed(domain, minute):
            return False
        return self.availability.is_online(domain, minute)

    def online_domains(self, minute: int | None = None) -> list[str]:
        """Return the domains reachable at ``minute`` (default: now)."""
        return [domain for domain in self.domains() if self.is_online(domain, minute)]

    # -- user actions -------------------------------------------------------

    def register_user(
        self,
        domain: str,
        username: str,
        created_at: int | None = None,
        invited: bool = False,
    ) -> User:
        """Register a user on ``domain``."""
        created_at = self.clock.now if created_at is None else created_at
        return self.get_instance(domain).register_user(username, created_at, invited=invited)

    def follow(self, follower: UserRef, followed: UserRef, created_at: int | None = None) -> Follow:
        """Create a follow edge (local or federated)."""
        created_at = self.clock.now if created_at is None else created_at
        edge = self.federation.handle_follow(follower, followed, created_at)
        self._follow_edges.append(edge)
        self._subscription_edges_cache = None
        return edge

    def post_toot(
        self,
        author: UserRef,
        created_at: int | None = None,
        visibility: Visibility = Visibility.PUBLIC,
        hashtags: Iterable[str] = (),
        content_warning: bool = False,
        media_count: int = 0,
        deliver: bool = True,
    ) -> Toot:
        """Post a toot and (optionally) deliver it to federated subscribers."""
        created_at = self.clock.now if created_at is None else created_at
        instance = self.get_instance(author.domain)
        toot = instance.post_toot(
            username=author.username,
            toot_id=next(self._toot_ids),
            created_at=created_at,
            visibility=visibility,
            hashtags=hashtags,
            content_warning=content_warning,
            media_count=media_count,
        )
        if deliver and toot.is_public:
            self.federation.deliver_toot(toot)
        return toot

    def boost(self, booster: UserRef, original: Toot, created_at: int | None = None) -> Toot:
        """Boost (re-share) an existing toot from ``booster``'s account."""
        created_at = self.clock.now if created_at is None else created_at
        instance = self.get_instance(booster.domain)
        boost = instance.post_toot(
            username=booster.username,
            toot_id=next(self._toot_ids),
            created_at=created_at,
            visibility=Visibility.PUBLIC,
            boost_of=original.toot_id,
        )
        self.federation.deliver_toot(boost)
        return boost

    def record_login(self, user: UserRef, minute: int | None = None) -> None:
        """Record a login for activity-level statistics."""
        minute = self.clock.now if minute is None else minute
        self.get_instance(user.domain).record_login(user.username, minute)

    # -- graph and population views ------------------------------------------

    def follow_edges(self) -> list[Follow]:
        """Return every follow edge created through the network."""
        return list(self._follow_edges)

    def subscription_edges(self) -> set[tuple[str, str]]:
        """Return the instance-level federation edges ``(subscriber, publisher)``.

        The set is derived from every follow edge, so it is built once
        and cached; :meth:`follow` invalidates the cache.  Treat the
        returned set as read-only — it is shared across calls.
        """
        if self._subscription_edges_cache is None:
            self._subscription_edges_cache = self.federation.subscription_edges()
        return self._subscription_edges_cache

    def all_users(self) -> list[UserRef]:
        """Return every registered account as a :class:`UserRef`."""
        refs: list[UserRef] = []
        for instance in self._instances.values():
            refs.extend(user.ref for user in instance.users.values())
        return refs

    def total_users(self) -> int:
        """Total number of registered accounts across every instance."""
        return sum(len(instance.users) for instance in self._instances.values())

    def total_toots(self, public_only: bool = False) -> int:
        """Total number of locally-authored toots across every instance."""
        return sum(instance.local_toot_count(public_only) for instance in self._instances.values())

    def stats(self) -> dict[str, int]:
        """Return headline population counts (instances, users, toots, edges)."""
        return {
            "instances": len(self._instances),
            "users": self.total_users(),
            "toots": self.total_toots(),
            "public_toots": self.total_toots(public_only=True),
            "follow_edges": len(self._follow_edges),
            "federation_edges": len(self.subscription_edges()),
        }
