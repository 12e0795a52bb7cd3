"""Hosting metadata: countries, autonomous systems and IP geolocation.

The paper mapped every instance IP to its country and hosting AS with
Maxmind and used CAIDA AS Rank for AS metadata (Table 1).  This module is
the offline substitute: a small registry of well-known hosting ASes plus a
:class:`GeoDatabase` that records the IP → (country, AS) assignment made
by the scenario generator and answers Maxmind-style lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import ConfigurationError, DatasetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fediverse.entities import InstanceDescriptor


@dataclass(frozen=True, slots=True)
class AutonomousSystem:
    """Metadata about a hosting autonomous system.

    ``caida_rank`` and ``peers`` mirror the CAIDA AS Rank columns of
    Table 1 in the paper.
    """

    asn: int
    name: str
    country: str
    caida_rank: int = 0
    peers: int = 0

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ConfigurationError(f"ASN must be positive, got {self.asn}")
        if not self.name:
            raise ConfigurationError("AS name cannot be empty")


#: The hosting providers named in the paper (Figs. 5, 13; Tables 1, 2).
#: Ranks/peer counts follow Table 1 where given, otherwise representative values.
WELL_KNOWN_ASES: tuple[AutonomousSystem, ...] = (
    AutonomousSystem(asn=16509, name="Amazon.com, Inc.", country="US", caida_rank=28, peers=432),
    AutonomousSystem(asn=13335, name="Cloudflare, Inc.", country="US", caida_rank=12, peers=620),
    AutonomousSystem(asn=9370, name="SAKURA Internet Inc.", country="JP", caida_rank=2000, peers=10),
    AutonomousSystem(asn=16276, name="OVH SAS", country="FR", caida_rank=45, peers=310),
    AutonomousSystem(asn=14061, name="DigitalOcean, LLC", country="US", caida_rank=70, peers=280),
    AutonomousSystem(asn=12876, name="Online SAS (Scaleway)", country="FR", caida_rank=160, peers=210),
    AutonomousSystem(asn=24940, name="Hetzner Online GmbH", country="DE", caida_rank=95, peers=250),
    AutonomousSystem(asn=7506, name="GMO Internet, Inc.", country="JP", caida_rank=300, peers=90),
    AutonomousSystem(asn=20473, name="Choopa, LLC", country="US", caida_rank=143, peers=150),
    AutonomousSystem(asn=8075, name="Microsoft Corporation", country="US", caida_rank=2100, peers=257),
    AutonomousSystem(asn=12322, name="Free SAS", country="FR", caida_rank=3200, peers=63),
    AutonomousSystem(asn=2516, name="KDDI CORPORATION", country="JP", caida_rank=70, peers=123),
    AutonomousSystem(asn=9371, name="SAKURA Internet Inc. (2)", country="JP", caida_rank=2400, peers=3),
    AutonomousSystem(asn=15169, name="Google LLC", country="US", caida_rank=8, peers=700),
    AutonomousSystem(asn=2914, name="NTT Communications", country="JP", caida_rank=5, peers=900),
    AutonomousSystem(asn=63949, name="Linode, LLC", country="US", caida_rank=120, peers=200),
    AutonomousSystem(asn=197540, name="netcup GmbH", country="DE", caida_rank=800, peers=40),
    AutonomousSystem(asn=51167, name="Contabo GmbH", country="DE", caida_rank=900, peers=35),
    AutonomousSystem(asn=49981, name="WorldStream B.V.", country="NL", caida_rank=500, peers=60),
)


#: Hosting-provider labels per ASN.  A *hoster* is the failure domain of
#: a correlated outage (Tables 1-2): sibling ASNs operated by one
#: provider — e.g. both SAKURA networks — collapse into a single label,
#: so removing a hoster removes every instance across all of its ASes.
HOSTER_OF_ASN: dict[int, str] = {
    16509: "Amazon",
    13335: "Cloudflare",
    9370: "Sakura Internet",
    9371: "Sakura Internet",
    16276: "OVH",
    14061: "DigitalOcean",
    12876: "Scaleway",
    24940: "Hetzner",
    7506: "GMO Internet",
    20473: "Choopa",
    8075: "Microsoft",
    12322: "Free",
    2516: "KDDI",
    15169: "Google",
    2914: "NTT",
    63949: "Linode",
    197540: "netcup",
    51167: "Contabo",
    49981: "WorldStream",
}


def hoster_of_asn(asn: int | None, as_name: str | None = None) -> str:
    """Collapse an ASN to its hosting-provider label.

    Unknown ASNs fall back to the AS name (if given) or a synthetic
    ``AS<asn>`` label, so every instance lands in *some* failure domain
    — a provider outside the well-known registry is simply its own
    hoster.
    """
    if asn is not None and asn in HOSTER_OF_ASN:
        return HOSTER_OF_ASN[asn]
    if as_name:
        return as_name
    return f"AS{asn}" if asn is not None else "unknown"


#: Countries hosting instances, roughly ordered by the paper's Fig. 5.
DEFAULT_COUNTRIES: tuple[str, ...] = (
    "JP",
    "US",
    "FR",
    "DE",
    "NL",
    "GB",
    "CA",
    "ES",
    "IT",
    "BR",
    "KR",
    "RU",
    "SE",
    "CH",
    "AU",
)


@dataclass(frozen=True, slots=True)
class GeoRecord:
    """The result of looking an IP address up in the geo database."""

    ip_address: str
    country: str
    asn: int
    as_name: str


class GeoDatabase:
    """A Maxmind-like registry mapping IP addresses to country and AS.

    The scenario generator registers every instance IP here; crawler and
    analysis code then resolve IPs exactly as the paper resolved them with
    Maxmind/CAIDA.
    """

    def __init__(self, autonomous_systems: Iterable[AutonomousSystem] = WELL_KNOWN_ASES) -> None:
        self._ases: dict[int, AutonomousSystem] = {}
        for asys in autonomous_systems:
            self.add_autonomous_system(asys)
        self._records: dict[str, GeoRecord] = {}

    # -- autonomous systems -------------------------------------------------

    def add_autonomous_system(self, asys: AutonomousSystem) -> None:
        """Register an AS; re-registering the same ASN must be consistent."""
        existing = self._ases.get(asys.asn)
        if existing is not None and existing != asys:
            raise ConfigurationError(f"conflicting metadata for AS{asys.asn}")
        self._ases[asys.asn] = asys

    def autonomous_system(self, asn: int) -> AutonomousSystem:
        """Return the metadata for ``asn``."""
        try:
            return self._ases[asn]
        except KeyError as exc:
            raise DatasetError(f"unknown autonomous system: AS{asn}") from exc

    def autonomous_systems(self) -> Iterator[AutonomousSystem]:
        """Iterate over every registered AS."""
        return iter(self._ases.values())

    def has_autonomous_system(self, asn: int) -> bool:
        """Return whether ``asn`` is registered."""
        return asn in self._ases

    # -- IP records ---------------------------------------------------------

    def register(self, ip_address: str, country: str, asn: int) -> GeoRecord:
        """Record that ``ip_address`` is hosted in ``country`` on ``asn``."""
        if not ip_address:
            raise ConfigurationError("IP address cannot be empty")
        asys = self.autonomous_system(asn)
        record = GeoRecord(ip_address=ip_address, country=country, asn=asn, as_name=asys.name)
        self._records[ip_address] = record
        return record

    def register_host(self, descriptor: "InstanceDescriptor") -> None:
        """Register an instance's IP if its hosting AS is known.

        Instances without an IP, or on an AS this database does not
        know, stay unresolvable; an IP already registered keeps its
        first record.
        """
        if (
            descriptor.ip_address
            and descriptor.asn
            and self.has_autonomous_system(descriptor.asn)
            and descriptor.ip_address not in self
        ):
            self.register(descriptor.ip_address, descriptor.country, descriptor.asn)

    def lookup(self, ip_address: str) -> GeoRecord:
        """Return the :class:`GeoRecord` for ``ip_address``."""
        try:
            return self._records[ip_address]
        except KeyError as exc:
            raise DatasetError(f"IP address not in geo database: {ip_address}") from exc

    def country_of(self, ip_address: str) -> str:
        """Return the country code for ``ip_address``."""
        return self.lookup(ip_address).country

    def asn_of(self, ip_address: str) -> int:
        """Return the ASN for ``ip_address``."""
        return self.lookup(ip_address).asn

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, ip_address: str) -> bool:
        return ip_address in self._records


class IPAllocator:
    """Hands out unique synthetic IPv4 addresses, one block per AS.

    Instances co-located in the same AS share a /16 so that the addresses
    look plausibly clustered, which matters only cosmetically but keeps
    the "IPs" column of Table 1 meaningful.
    """

    def __init__(self) -> None:
        self._next_block = 1
        self._blocks: dict[int, int] = {}
        self._next_host: dict[int, int] = {}

    def allocate(self, asn: int) -> str:
        """Return a fresh IP address within the block assigned to ``asn``."""
        if asn not in self._blocks:
            self._blocks[asn] = self._next_block
            self._next_host[asn] = 1
            self._next_block += 1
        block = self._blocks[asn]
        host = self._next_host[asn]
        self._next_host[asn] = host + 1
        third_octet, fourth_octet = divmod(host, 256)
        if third_octet > 255:
            raise ConfigurationError(f"address block for AS{asn} exhausted")
        first = 10 + (block // 256) % 100
        second = block % 256
        return f"{first}.{second}.{third_octet}.{fourth_octet}"
