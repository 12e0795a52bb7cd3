"""Scenario configuration: the knobs of the synthetic fediverse and its presets.

Kept apart from the generator in :mod:`repro.fediverse.workload` so that
naming or validating a preset (the CLI's ``--preset`` choices) imports
only this module, not the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date
from typing import Callable

from repro.errors import ConfigurationError
from repro.simtime import MINUTES_PER_DAY, PAPER_START_DATE


@dataclass
class ScenarioConfig:
    """Parameters controlling the synthetic fediverse.

    The defaults produce a "small" scenario (a ~1/20th-scale fediverse)
    that regenerates every figure in a few seconds.  ``tiny()`` is used by
    the test-suite, ``medium()`` by the heavier benchmarks.
    """

    seed: int = 7
    label: str = "small"
    n_instances: int = 150
    total_users: int = 6_000
    mean_toots_per_user: float = 10.0
    window_days: int = 120
    start_date: date = PAPER_START_DATE

    # population shape
    open_fraction: float = 0.478
    pleroma_fraction: float = 0.031
    open_size_boost: float = 7.0
    instance_size_exponent: float = 1.75
    max_instance_user_share: float = 0.18
    closed_toot_multiplier: float = 2.0
    toots_per_user_sigma: float = 1.4

    # categories and activities
    tagged_fraction: float = 0.161

    # follower graph
    mean_follows_per_user: float = 9.0
    follow_degree_exponent: float = 2.25
    max_follows_per_user: int = 400
    user_attractiveness_exponent: float = 1.8
    same_instance_follow_prob: float = 0.35
    same_country_follow_prob: float = 0.22

    # toots
    toot_attractiveness_coupling: float = 0.5
    private_toot_fraction: float = 0.20
    content_warning_fraction: float = 0.10
    media_fraction: float = 0.12
    boost_fraction: float = 0.08
    hashtag_vocabulary: int = 200

    # crawlability
    crawl_blocked_fraction: float = 0.10

    # availability
    permanently_down_fraction: float = 0.213
    low_downtime_fraction: float = 0.50
    high_downtime_fraction: float = 0.11
    never_down_fraction: float = 0.02
    n_as_outage_ases: int = 6
    cert_lapse_fraction: float = 0.10
    mass_cert_expiry_fraction: float = 0.04

    # engagement
    closed_activity_beta: tuple[float, float] = (5.0, 1.7)
    open_activity_beta: tuple[float, float] = (2.5, 2.5)

    def __post_init__(self) -> None:
        if self.n_instances < 2:
            raise ConfigurationError("a scenario needs at least two instances")
        if self.total_users < self.n_instances:
            raise ConfigurationError("need at least one user per instance")
        if not 0.0 <= self.open_fraction <= 1.0:
            raise ConfigurationError("open_fraction must be a probability")
        if self.window_days <= 1:
            raise ConfigurationError("the observation window must exceed one day")
        if self.mean_toots_per_user <= 0:
            raise ConfigurationError("mean_toots_per_user must be positive")

    @property
    def window_minutes(self) -> int:
        """Observation window length in minutes."""
        return self.window_days * MINUTES_PER_DAY

    @property
    def total_toots_target(self) -> int:
        """Approximate number of toots the scenario aims to generate."""
        return int(self.total_users * self.mean_toots_per_user)

    @classmethod
    def tiny(cls, seed: int = 7) -> "ScenarioConfig":
        """A minimal scenario for unit tests (sub-second generation)."""
        return cls(
            seed=seed,
            label="tiny",
            n_instances=40,
            total_users=1_200,
            mean_toots_per_user=6.0,
            window_days=60,
            mean_follows_per_user=7.0,
        )

    @classmethod
    def small(cls, seed: int = 7) -> "ScenarioConfig":
        """The default benchmark scenario (a ~1/20th-scale fediverse)."""
        return cls(seed=seed, label="small")

    @classmethod
    def medium(cls, seed: int = 7) -> "ScenarioConfig":
        """A richer scenario for the heavier benchmarks."""
        return cls(
            seed=seed,
            label="medium",
            n_instances=400,
            total_users=20_000,
            mean_toots_per_user=12.0,
            window_days=240,
            mean_follows_per_user=11.0,
        )

    @classmethod
    def large(cls, seed: int = 7) -> "ScenarioConfig":
        """A 1M+-toot scenario for the sharded streaming engine.

        Built from :meth:`medium` via :meth:`scaled` (2× population),
        with the toot rate boosted on top and the instance count held
        near medium's: toots are the axis the availability engine scales
        along, while every extra instance lengthens every *other*
        instance's federated timeline — the crawl volume grows with
        instances × timeline length — and users drive the memory-hungry
        follower graph.  A paper-scale-pointing corpus therefore wants
        many toots over a moderately larger population.  Run it with
        ``--corpus``: arrays-backed placement maps past the engine's
        auto-shard threshold stream shard by shard, and the point of
        this preset is that evaluation no longer needs the whole corpus
        in memory at once.
        """
        return replace(
            cls.medium(seed=seed).scaled(2.0),
            label="large",
            n_instances=500,
            mean_toots_per_user=34.0,
        )

    @classmethod
    def xlarge(cls, seed: int = 7) -> "ScenarioConfig":
        """A 10M-toot scenario for the columnar streaming pipeline.

        Ten times medium's population at 50 toots/user: 200K users and a
        ~10M-toot corpus over 240 days.  Stream it to stores
        (:func:`build_columnar_scenario` / ``collect --columnar``): the
        columns fit in a few GiB of RSS, while materialising them as a
        :class:`FediverseNetwork` would need tens of GiB.
        """
        return replace(
            cls.medium(seed=seed).scaled(10.0),
            label="xlarge",
            n_instances=800,
            mean_toots_per_user=50.0,
        )

    def scaled(self, factor: float) -> "ScenarioConfig":
        """Return a copy with population sizes multiplied by ``factor``."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            label=f"{self.label}-x{factor:g}",
            n_instances=max(2, int(self.n_instances * factor)),
            total_users=max(2, int(self.total_users * factor)),
        )


#: Named preset registry, smallest first.
_PRESETS: dict[str, Callable[..., ScenarioConfig]] = {
    "tiny": ScenarioConfig.tiny,
    "small": ScenarioConfig.small,
    "medium": ScenarioConfig.medium,
    "large": ScenarioConfig.large,
    "xlarge": ScenarioConfig.xlarge,
}


def preset_names() -> tuple[str, ...]:
    """Every valid scenario preset name, smallest first."""
    return tuple(_PRESETS)


def scenario_config(preset: str, seed: int = 7) -> ScenarioConfig:
    """Resolve a preset name to its :class:`ScenarioConfig`.

    Unknown names raise :class:`~repro.errors.ConfigurationError` listing
    the valid presets rather than leaking a bare ``KeyError``.
    """
    try:
        factory = _PRESETS[preset]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scenario preset: {preset!r} "
            f"(valid presets: {', '.join(_PRESETS)})"
        ) from exc
    return factory(seed=seed)
