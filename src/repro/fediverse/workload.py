"""Synthetic fediverse scenario generation.

The paper measured the live Mastodon network; offline we synthesise a
population whose *distributions* match the ones the paper reports, so
that every downstream figure reproduces the published shape:

* users/toots per instance are heavily skewed (top 5% of instances hold
  ~90% of users, Section 4.1), with open instances much larger but closed
  instances more active per capita;
* ~16% of instances self-declare categories with the mix of Fig. 3
  (many tech/games/art instances; few adult instances with many users);
* hosting concentrates on a handful of countries (Fig. 5: JP/US/FR/DE/NL)
  and ASes (Amazon/Cloudflare/Sakura/OVH/DigitalOcean), with the largest
  instances disproportionately on the big clouds;
* the follower graph is power-law and exhibits country homophily
  (Fig. 6, Fig. 11);
* availability has a long tail of poorly administered instances, AS-wide
  outages and certificate-expiry outages (Figs. 7-10, Table 1).

Everything is driven by a single seeded :class:`numpy.random.Generator`
so scenarios are fully reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.fediverse.certificates import CERTIFICATE_AUTHORITIES, CertificateRegistry
from repro.fediverse.columnar import ColumnarScenario
from repro.fediverse.entities import (
    ActivityPolicy,
    ActivityType,
    Category,
    InstanceDescriptor,
    OperatorType,
    RegistrationPolicy,
    Software,
)
from repro.fediverse.geo import GeoDatabase, IPAllocator
from repro.fediverse.network import FediverseNetwork
from repro.fediverse.presets import ScenarioConfig, scenario_config
from repro.fediverse.uptime import ASOutageEvent, AvailabilitySchedule, Outage, OutageCause
from repro.simtime import MINUTES_PER_DAY, SimClock, TimeWindow
from repro.stats.distributions import sample_power_law

# ---------------------------------------------------------------------------
# Calibration tables (fractions taken from the paper's figures)
# ---------------------------------------------------------------------------

#: Probability that a *tagged* instance declares each category (Fig. 3,
#: instances bar).  Categories are not mutually exclusive.
CATEGORY_INSTANCE_WEIGHTS: dict[Category, float] = {
    Category.GENERIC: 0.517,
    Category.TECH: 0.552,
    Category.GAMES: 0.373,
    Category.ART: 0.3015,
    Category.ACTIVISM: 0.24,
    Category.MUSIC: 0.23,
    Category.ANIME: 0.246,
    Category.BOOKS: 0.19,
    Category.ACADEMIA: 0.17,
    Category.LGBT: 0.16,
    Category.JOURNALISM: 0.15,
    Category.FURRY: 0.13,
    Category.SPORTS: 0.13,
    Category.ADULT: 0.123,
    Category.POC: 0.07,
    Category.HUMOR: 0.06,
}

#: Relative user-attraction boost per category (Fig. 3, users bar).  Adult
#: instances are few but hold the most users; tech/journalism instances are
#: many but comparatively small.
CATEGORY_USER_BOOST: dict[Category, float] = {
    Category.ADULT: 9.0,
    Category.ANIME: 2.2,
    Category.GAMES: 1.8,
    Category.ART: 1.2,
    Category.MUSIC: 1.0,
    Category.GENERIC: 1.0,
    Category.ACTIVISM: 0.8,
    Category.LGBT: 0.8,
    Category.FURRY: 0.8,
    Category.SPORTS: 0.7,
    Category.BOOKS: 0.6,
    Category.ACADEMIA: 0.6,
    Category.HUMOR: 0.6,
    Category.POC: 0.6,
    Category.TECH: 0.45,
    Category.JOURNALISM: 0.25,
}

#: Share of instances hosted per country (Fig. 5, instances bar).
COUNTRY_INSTANCE_WEIGHTS: dict[str, float] = {
    "JP": 0.255,
    "US": 0.214,
    "FR": 0.16,
    "DE": 0.075,
    "NL": 0.045,
    "GB": 0.04,
    "CA": 0.03,
    "ES": 0.025,
    "IT": 0.025,
    "BR": 0.02,
    "KR": 0.02,
    "RU": 0.02,
    "SE": 0.02,
    "CH": 0.02,
    "AU": 0.031,
}

#: Relative user-attraction boost per country (JP hosts 25.5% of instances
#: but 41% of users; FR hosts 16% of instances but 9.2% of users).
COUNTRY_USER_BOOST: dict[str, float] = {
    "JP": 1.9,
    "US": 1.1,
    "FR": 0.5,
    "DE": 0.7,
    "NL": 0.7,
    "GB": 0.8,
    "CA": 0.8,
    "ES": 0.6,
    "IT": 0.6,
    "BR": 0.7,
    "KR": 0.9,
    "RU": 0.6,
    "SE": 0.6,
    "CH": 0.6,
    "AU": 0.7,
}

#: Per-country pools of hosting ASes (ASN -> weight) for ordinary instances.
COUNTRY_AS_POOLS: dict[str, list[tuple[int, float]]] = {
    "JP": [(9370, 0.42), (7506, 0.2), (2516, 0.12), (9371, 0.08), (2914, 0.08), (16509, 0.1)],
    "US": [(14061, 0.3), (16509, 0.2), (13335, 0.12), (20473, 0.12), (63949, 0.12), (15169, 0.07), (8075, 0.07)],
    "FR": [(16276, 0.5), (12876, 0.3), (12322, 0.2)],
    "DE": [(24940, 0.55), (197540, 0.25), (51167, 0.2)],
    "NL": [(49981, 0.6), (14061, 0.2), (16276, 0.2)],
}

#: Fallback AS pool for countries without a dedicated pool.
GENERIC_AS_POOL: list[tuple[int, float]] = [
    (16509, 0.25),
    (13335, 0.2),
    (14061, 0.2),
    (16276, 0.15),
    (24940, 0.1),
    (63949, 0.1),
]

#: AS pool used for the very largest instances: the paper finds the top
#: instances overwhelmingly on Amazon/Cloudflare/Sakura (Fig. 5, Table 2).
BIG_INSTANCE_AS_POOL: list[tuple[int, float]] = [
    (16509, 0.42),
    (13335, 0.3),
    (9370, 0.18),
    (16276, 0.1),
]

#: Country mix of the very largest instances (Table 2 is dominated by
#: Japanese flagships, with a US/FR tail).
TOP_INSTANCE_COUNTRY_WEIGHTS: dict[str, float] = {
    "JP": 0.55,
    "US": 0.25,
    "FR": 0.10,
    "DE": 0.05,
    "GB": 0.05,
}

#: Certificate-authority market share among instances (Fig. 9a).
CA_WEIGHTS: dict[str, float] = {
    "Let's Encrypt": 0.86,
    "COMODO": 0.06,
    "Amazon": 0.04,
    "CloudFlare": 0.025,
    "DigiCert": 0.015,
}

#: Who operates instances (Table 2's mix, extended to the long tail).
OPERATOR_WEIGHTS: dict[OperatorType, float] = {
    OperatorType.INDIVIDUAL: 0.70,
    OperatorType.CROWD_FUNDED: 0.12,
    OperatorType.COMPANY: 0.08,
    OperatorType.ASSOCIATION: 0.05,
    OperatorType.UNKNOWN: 0.05,
}

#: Probability that a tagged instance prohibits each activity (Fig. 4 left),
#: and probability that it explicitly allows it given it is not prohibited.
ACTIVITY_PROHIBIT_PROB: dict[ActivityType, float] = {
    ActivityType.SPAM: 0.76,
    ActivityType.PORNOGRAPHY_WITHOUT_NSFW: 0.66,
    ActivityType.NUDITY_WITHOUT_NSFW: 0.62,
    ActivityType.LINKS_TO_ILLEGAL_CONTENT: 0.70,
    ActivityType.ADVERTISING: 0.30,
    ActivityType.SPOILERS_WITHOUT_CW: 0.25,
    ActivityType.PORNOGRAPHY_WITH_NSFW: 0.30,
    ActivityType.NUDITY_WITH_NSFW: 0.28,
}

ACTIVITY_ALLOW_PROB: dict[ActivityType, float] = {
    ActivityType.SPAM: 0.24,
    ActivityType.PORNOGRAPHY_WITHOUT_NSFW: 0.3,
    ActivityType.NUDITY_WITHOUT_NSFW: 0.35,
    ActivityType.LINKS_TO_ILLEGAL_CONTENT: 0.2,
    ActivityType.ADVERTISING: 0.47,
    ActivityType.SPOILERS_WITHOUT_CW: 0.6,
    ActivityType.PORNOGRAPHY_WITH_NSFW: 0.65,
    ActivityType.NUDITY_WITH_NSFW: 0.7,
}

DOMAIN_PREFIXES: tuple[str, ...] = (
    "mastodon",
    "mstdn",
    "social",
    "toot",
    "pawoo",
    "fedi",
    "micro",
    "don",
    "niu",
    "queer",
    "photog",
    "otaku",
)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def _weighted_pick(cumulative: np.ndarray, base: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling inside segments of a global cumulative-sum.

    ``cumulative`` is the inclusive cumsum of the weights; a draw for a
    segment ``[base, base + total)`` lands on the index whose weight mass
    covers ``base + u * total``.
    """
    x = base + u * total
    picks = np.searchsorted(cumulative, x, side="right")
    return np.minimum(picks, cumulative.size - 1)


class ScenarioGenerator:
    """Draws a :class:`ColumnarScenario` from a :class:`ScenarioConfig`.

    Instance descriptors, hosting, availability and certificates are
    drawn per instance (they are small); users, follows, toots, boosts
    and logins are drawn as whole numpy columns.  One seeded RNG stream
    drives every draw, in that order.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self._ip_allocator = IPAllocator()

    # -- public entry point ---------------------------------------------------

    def generate(self) -> ColumnarScenario:
        """Generate the full scenario as columns."""
        cfg = self.config
        clock = SimClock(start_date=cfg.start_date, window_days=cfg.window_days)
        descriptors = self._build_descriptors()

        user_instance, user_created, attractiveness = self._users_columns(descriptors)
        follow_src, follow_dst = self._follow_columns(descriptors, user_instance, attractiveness)
        toots = self._toot_columns(descriptors, user_instance, user_created, attractiveness)
        login_user, login_minute = self._login_columns(descriptors, user_instance, user_created)

        availability = AvailabilitySchedule(cfg.window_minutes)
        self._generate_availability(availability, descriptors)
        certificates = CertificateRegistry()
        self._issue_certificates(certificates, descriptors)
        geo = GeoDatabase()
        for descriptor in descriptors:
            geo.register_host(descriptor)

        return ColumnarScenario(
            config=cfg,
            clock=clock,
            descriptors=descriptors,
            availability=availability,
            certificates=certificates,
            geo=geo,
            user_instance=user_instance,
            user_created=user_created,
            follow_src=follow_src,
            follow_dst=follow_dst,
            toot_author=toots["author"],
            toot_created=toots["created"],
            toot_private=toots["private"],
            toot_tag=toots["tag"],
            toot_cw=toots["cw"],
            toot_media=toots["media"],
            toot_boost_of=toots["boost_of"],
            login_user=login_user,
            login_minute=login_minute,
        )

    # -- instances ------------------------------------------------------------

    def _sample_weighted(self, table: dict, size: int | None = None):
        keys = list(table.keys())
        weights = np.asarray([table[k] for k in keys], dtype=float)
        weights = weights / weights.sum()
        picks = self.rng.choice(len(keys), size=size, p=weights)
        if size is None:
            return keys[int(picks)]
        return [keys[int(i)] for i in picks]

    def _instance_created_at(self, index: int) -> int:
        """Creation times follow the paper's growth curve (Fig. 1)."""
        window = self.config.window_minutes
        u = self.rng.random()
        if u < 0.40:
            return 0
        if u < 0.70:
            return int(self.rng.uniform(0, 0.25) * window)
        if u < 0.76:
            return int(self.rng.uniform(0.25, 0.70) * window)
        return int(self.rng.uniform(0.70, 0.98) * window)

    def _categories_for(self, tagged: bool) -> tuple[Category, ...]:
        if not tagged:
            return ()
        categories = [
            category
            for category, weight in CATEGORY_INSTANCE_WEIGHTS.items()
            if self.rng.random() < weight
        ]
        if not categories:
            categories = [Category.GENERIC]
        return tuple(categories)

    def _activity_policy_for(self, tagged: bool) -> ActivityPolicy | None:
        if not tagged:
            return None
        if self.rng.random() < 0.175:
            return ActivityPolicy.permissive()
        allowed: set[ActivityType] = set()
        prohibited: set[ActivityType] = set()
        for activity in ActivityType:
            if self.rng.random() < ACTIVITY_PROHIBIT_PROB[activity]:
                prohibited.add(activity)
            elif self.rng.random() < ACTIVITY_ALLOW_PROB[activity]:
                allowed.add(activity)
        return ActivityPolicy(allowed=frozenset(allowed), prohibited=frozenset(prohibited))

    def _domain_name(self, index: int, country: str) -> str:
        prefix = DOMAIN_PREFIXES[int(self.rng.integers(0, len(DOMAIN_PREFIXES)))]
        return f"{prefix}-{index:04d}.{country.lower()}.example"

    def _build_descriptors(self) -> list[InstanceDescriptor]:
        cfg = self.config
        countries = self._sample_weighted(COUNTRY_INSTANCE_WEIGHTS, size=cfg.n_instances)
        open_flags = [self.rng.random() < cfg.open_fraction for _ in range(cfg.n_instances)]
        tagged_flags = [self.rng.random() < cfg.tagged_fraction for _ in range(cfg.n_instances)]
        category_sets = [self._categories_for(tagged) for tagged in tagged_flags]
        base_sizes = sample_power_law(
            self.rng,
            cfg.n_instances,
            exponent=cfg.instance_size_exponent,
            minimum=1.0,
            maximum=float(cfg.n_instances) * 2.0,
        )

        def weight_of(index: int) -> float:
            category_boost = max(
                (CATEGORY_USER_BOOST[c] for c in category_sets[index]), default=1.0
            )
            return float(
                base_sizes[index]
                * (cfg.open_size_boost if open_flags[index] else 1.0)
                * COUNTRY_USER_BOOST.get(countries[index], 0.7)
                * category_boost
            )

        weights = np.asarray([weight_of(i) for i in range(cfg.n_instances)], dtype=float)

        # The flagship instances (pawoo.net, mstdn.jp, friends.nico, ...) are
        # overwhelmingly Japanese or US-hosted; pin the country mix of the
        # largest instances so Fig. 5's ordering is stable at small scale.
        n_big = max(1, int(0.08 * cfg.n_instances))
        big_indices = np.argsort(-weights)[:n_big]
        big_countries = self._sample_weighted(TOP_INSTANCE_COUNTRY_WEIGHTS, size=n_big)
        for position, index in enumerate(big_indices):
            countries[int(index)] = big_countries[position]
            weights[int(index)] = weight_of(int(index))

        # Mirror pawoo.net: one flagship instance is an adult/art community,
        # which is what makes the adult category tiny by instance count but
        # huge by user count (the Fig. 3 outlier).
        if len(big_indices) >= 2:
            adult_index = int(big_indices[1])
            tagged_flags[adult_index] = True
            category_sets[adult_index] = tuple(
                dict.fromkeys((Category.ADULT, Category.ART) + category_sets[adult_index])
            )
            weights[adult_index] = weight_of(adult_index)

        # Cap the share of any single instance so one draw from the heavy
        # tail cannot degenerate the whole scenario into a single giant.
        for _ in range(4):
            cap = cfg.max_instance_user_share * weights.sum()
            weights = np.minimum(weights, cap)

        self._popularity_weights = weights

        descriptors: list[InstanceDescriptor] = []
        for index in range(cfg.n_instances):
            descriptor = InstanceDescriptor(
                domain=self._domain_name(index, countries[index]),
                software=(
                    Software.PLEROMA
                    if self.rng.random() < cfg.pleroma_fraction
                    else Software.MASTODON
                ),
                registration=(
                    RegistrationPolicy.OPEN if open_flags[index] else RegistrationPolicy.CLOSED
                ),
                categories=category_sets[index],
                activity_policy=self._activity_policy_for(tagged_flags[index]),
                country=countries[index],
                asn=0,  # assigned below once sizes are known
                ip_address="",
                operator=self._sample_weighted(OPERATOR_WEIGHTS),
                created_at=self._instance_created_at(index),
                crawl_blocked=self.rng.random() < cfg.crawl_blocked_fraction,
                version="2.4.0" if self.rng.random() < 0.8 else "2.3.3",
            )
            descriptors.append(descriptor)

        self._assign_hosting(descriptors)
        return descriptors

    def _assign_hosting(self, descriptors: list[InstanceDescriptor]) -> None:
        """Assign ASes and IPs; the biggest instances land on the big clouds."""
        order = np.argsort(-self._popularity_weights)
        n_big = max(1, int(0.08 * len(descriptors)))
        big_indices = set(int(i) for i in order[:n_big])
        for index, descriptor in enumerate(descriptors):
            if index in big_indices:
                pool = BIG_INSTANCE_AS_POOL
            else:
                pool = COUNTRY_AS_POOLS.get(descriptor.country, GENERIC_AS_POOL)
            asns = [asn for asn, _ in pool]
            weights = np.asarray([w for _, w in pool], dtype=float)
            weights = weights / weights.sum()
            asn = int(self.rng.choice(asns, p=weights))
            descriptor.asn = asn
            descriptor.ip_address = self._ip_allocator.allocate(asn)

    # -- users ----------------------------------------------------------------

    def _users_columns(
        self, descriptors: list[InstanceDescriptor]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.config
        weights = self._popularity_weights / self._popularity_weights.sum()
        extra = cfg.total_users - cfg.n_instances
        allocation = np.ones(cfg.n_instances, dtype=np.int64)
        if extra > 0:
            allocation += self.rng.multinomial(extra, weights)

        attractiveness = sample_power_law(
            self.rng,
            cfg.total_users,
            exponent=cfg.user_attractiveness_exponent,
            minimum=1.0,
            maximum=max(10.0, cfg.total_users / 2.0),
        )
        user_instance = np.repeat(
            np.arange(cfg.n_instances, dtype=np.int32), allocation
        )
        instance_created = np.asarray([d.created_at for d in descriptors], dtype=np.int64)
        base = instance_created[user_instance]
        span = np.maximum(1, cfg.window_minutes - base)
        user_created = (
            base + self.rng.beta(1.3, 1.8, size=cfg.total_users) * span
        ).astype(np.int64)
        return user_instance, user_created, attractiveness

    # -- follower graph --------------------------------------------------------

    def _follow_columns(
        self,
        descriptors: list[InstanceDescriptor],
        user_instance: np.ndarray,
        attractiveness: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        n_users = user_instance.size
        n_instances = len(descriptors)

        # Per-user out-degrees drawn from a bounded power law, scaled to the
        # target mean (the bound keeps the sample mean stable at small scales).
        raw_degrees = sample_power_law(
            self.rng,
            n_users,
            exponent=cfg.follow_degree_exponent,
            minimum=1.0,
            maximum=float(cfg.max_follows_per_user),
        )
        scale = cfg.mean_follows_per_user / max(raw_degrees.mean(), 1e-9)
        degrees = np.minimum(
            np.maximum(1, np.round(raw_degrees * scale)).astype(np.int64),
            min(cfg.max_follows_per_user, n_users - 1),
        )

        owner = np.repeat(np.arange(n_users, dtype=np.int64), degrees)
        n_draws = owner.size

        # Users are contiguous per instance, so the instance-local pools are
        # segments of one global attractiveness cumsum.
        cumulative = np.cumsum(attractiveness)
        seg = np.zeros(n_instances + 1, dtype=np.int64)
        np.cumsum(np.bincount(user_instance, minlength=n_instances), out=seg[1:])
        seg_base = np.concatenate([[0.0], cumulative])[seg[:-1]]
        seg_total = np.add.reduceat(attractiveness, seg[:-1])
        instance_size = np.diff(seg)

        # Country pools are scattered, so order users by country once and
        # sample inside that ordering's segments.
        country_names = sorted({d.country for d in descriptors})
        country_index = {name: i for i, name in enumerate(country_names)}
        instance_country = np.asarray(
            [country_index[d.country] for d in descriptors], dtype=np.int64
        )
        user_country = instance_country[user_instance]
        country_order = np.argsort(user_country, kind="stable")
        country_cum = np.cumsum(attractiveness[country_order])
        country_sizes = np.bincount(user_country, minlength=len(country_names))
        cseg = np.zeros(len(country_names) + 1, dtype=np.int64)
        np.cumsum(country_sizes, out=cseg[1:])
        country_base = np.concatenate([[0.0], country_cum])[cseg[:-1]]
        country_total = np.empty(len(country_names))
        for c in range(len(country_names)):
            country_total[c] = country_cum[cseg[c + 1] - 1] - country_base[c] if country_sizes[c] else 0.0

        owner_instance = user_instance[owner].astype(np.int64)
        owner_country = user_country[owner]
        band = self.rng.random(n_draws)
        p_local, p_country = cfg.same_instance_follow_prob, cfg.same_country_follow_prob
        # Draws landing in a band whose pool is trivial (a single user)
        # fall through to the global pool.
        is_local = (band < p_local) & (instance_size[owner_instance] > 1)
        is_country = (
            ~is_local
            & (band >= p_local)
            & (band < p_local + p_country)
            & (country_sizes[owner_country] > 1)
        )
        is_global = ~is_local & ~is_country

        target = np.empty(n_draws, dtype=np.int64)
        if is_local.any():
            inst = owner_instance[is_local]
            target[is_local] = _weighted_pick(
                cumulative, seg_base[inst], seg_total[inst], self.rng.random(int(is_local.sum()))
            )
        if is_country.any():
            ctry = owner_country[is_country]
            picks = _weighted_pick(
                country_cum,
                country_base[ctry],
                country_total[ctry],
                self.rng.random(int(is_country.sum())),
            )
            target[is_country] = country_order[picks]
        if is_global.any():
            total = cumulative[-1]
            target[is_global] = _weighted_pick(
                cumulative,
                np.zeros(int(is_global.sum())),
                np.full(int(is_global.sum()), total),
                self.rng.random(int(is_global.sum())),
            )

        # Dedup per owner and drop self-follows; np.unique leaves the
        # edges owner-major, target-ascending.
        keep = owner != target
        keys = np.unique(owner[keep] * np.int64(n_users) + target[keep])
        follow_src = (keys // n_users).astype(np.int32)
        follow_dst = (keys % n_users).astype(np.int32)
        return follow_src, follow_dst

    # -- toots and boosts -------------------------------------------------------

    def _toot_columns(
        self,
        descriptors: list[InstanceDescriptor],
        user_instance: np.ndarray,
        user_created: np.ndarray,
        attractiveness: np.ndarray,
    ) -> dict[str, np.ndarray]:
        cfg = self.config
        n_users = user_instance.size
        closed = np.asarray(
            [d.registration is RegistrationPolicy.CLOSED for d in descriptors],
            dtype=bool,
        )
        raw = self.rng.lognormal(mean=0.0, sigma=cfg.toots_per_user_sigma, size=n_users)
        multipliers = np.where(closed[user_instance], cfg.closed_toot_multiplier, 1.0)
        # Couple volume to attractiveness: widely-followed accounts toot far
        # more, which is what makes small instances' federated timelines
        # dominated by remote content (Fig. 14) and concentrates toots on
        # the flagship instances (Section 4.1).
        raw = raw * multipliers * (attractiveness ** cfg.toot_attractiveness_coupling)
        scale = cfg.total_toots_target / max(raw.sum(), 1e-9)
        budgets = np.maximum(0, np.round(raw * scale)).astype(np.int64)

        window = cfg.window_minutes
        author0 = np.repeat(np.arange(n_users, dtype=np.int32), budgets)
        n_base = author0.size
        base = user_created[author0.astype(np.int64)]
        times = (
            base + self.rng.beta(1.6, 1.0, size=n_base) * np.maximum(1, window - base)
        ).astype(np.int64)
        order = np.lexsort((author0, times))  # posting order: (time, author)
        author = author0[order]
        created = times[order]

        private = self.rng.random(n_base) < cfg.private_toot_fraction
        has_tag = self.rng.random(n_base) < 0.3
        tag = np.where(
            has_tag,
            self.rng.integers(0, cfg.hashtag_vocabulary, size=n_base),
            -1,
        ).astype(np.int32)
        cw = self.rng.random(n_base) < cfg.content_warning_fraction
        media = (self.rng.random(n_base) < cfg.media_fraction).astype(np.int8)

        # Boosts: public base toots weighted by media + hashtags, boosted by
        # uniformly random users shortly after the original (or the booster's
        # own sign-up, whichever is later).
        public_rows = np.flatnonzero(~private)
        n_boosts = int(cfg.boost_fraction * public_rows.size)
        if n_boosts:
            boost_weights = (
                1.0 + media[public_rows].astype(np.float64) + (tag[public_rows] >= 0)
            )
            probs = boost_weights / boost_weights.sum()
            boosters = self.rng.integers(0, n_users, size=n_boosts)
            originals = public_rows[
                self.rng.choice(public_rows.size, size=n_boosts, p=probs)
            ]
            delay = self.rng.integers(1, MINUTES_PER_DAY * 3, size=n_boosts)
            boost_created = np.minimum(
                window - 1,
                np.maximum(created[originals] + 1, user_created[boosters]) + delay,
            ).astype(np.int64)
            author = np.concatenate([author, boosters.astype(np.int32)])
            created = np.concatenate([created, boost_created])
            private = np.concatenate([private, np.zeros(n_boosts, dtype=bool)])
            tag = np.concatenate([tag, np.full(n_boosts, -1, dtype=np.int32)])
            cw = np.concatenate([cw, np.zeros(n_boosts, dtype=bool)])
            media = np.concatenate([media, np.zeros(n_boosts, dtype=np.int8)])
            boost_of = np.concatenate(
                [np.zeros(n_base, dtype=np.int64), originals + 1]
            )
        else:
            boost_of = np.zeros(n_base, dtype=np.int64)

        return {
            "author": author,
            "created": created,
            "private": private,
            "tag": tag,
            "cw": cw,
            "media": media,
            "boost_of": boost_of,
        }

    # -- engagement -------------------------------------------------------------

    def _login_columns(
        self,
        descriptors: list[InstanceDescriptor],
        user_instance: np.ndarray,
        user_created: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        weeks = max(1, cfg.window_days // 7)
        seg = np.zeros(len(descriptors) + 1, dtype=np.int64)
        np.cumsum(np.bincount(user_instance, minlength=len(descriptors)), out=seg[1:])
        users_chunks: list[np.ndarray] = []
        minutes_chunks: list[np.ndarray] = []
        for index, descriptor in enumerate(descriptors):
            lo, hi = int(seg[index]), int(seg[index + 1])
            if hi <= lo:
                continue
            if descriptor.registration is RegistrationPolicy.CLOSED:
                a, b = cfg.closed_activity_beta
            else:
                a, b = cfg.open_activity_beta
            activity_level = float(self.rng.beta(a, b))
            local_created = user_created[lo:hi]
            for week in range(weeks):
                week_start = week * 7 * MINUTES_PER_DAY
                engaged = self.rng.random(hi - lo) < activity_level * self.rng.uniform(0.6, 0.9)
                chosen = engaged & (local_created <= week_start + 7 * MINUTES_PER_DAY)
                count = int(chosen.sum())
                if not count:
                    continue
                users_chunks.append((np.flatnonzero(chosen) + lo).astype(np.int32))
                minutes_chunks.append(
                    week_start + self.rng.integers(0, 7 * MINUTES_PER_DAY, size=count)
                )
        if not users_chunks:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
        return (
            np.concatenate(users_chunks),
            np.concatenate(minutes_chunks).astype(np.int64),
        )

    # -- availability ---------------------------------------------------------------

    def _downtime_target(self, size_rank_fraction: float = 0.5) -> float:
        """Draw a per-instance downtime fraction.

        ``size_rank_fraction`` is the instance's popularity rank as a
        fraction (0 = largest).  Availability is only weakly related to
        popularity (the paper finds a correlation of -0.04, with the very
        largest instances slightly worse than the upper-middle group), so
        the dependence here is deliberately mild.
        """
        cfg = self.config
        u = self.rng.random()
        if u < cfg.never_down_fraction:
            return 0.0
        if u < cfg.never_down_fraction + cfg.low_downtime_fraction:
            target = float(self.rng.uniform(0.001, 0.05))
        elif u < 1.0 - cfg.high_downtime_fraction:
            target = float(self.rng.uniform(0.05, 0.15))
        else:
            target = float(self.rng.uniform(0.5, 0.95))
        if size_rank_fraction > 0.7:
            target *= 1.3
        elif size_rank_fraction < 0.02:
            target *= 1.1
        elif size_rank_fraction < 0.3:
            target *= 0.8
        return min(target, 0.95)

    def _generate_availability(
        self, schedule: AvailabilitySchedule, descriptors: list[InstanceDescriptor]
    ) -> None:
        cfg = self.config
        window = cfg.window_minutes

        permanently_down = set(
            int(i)
            for i in self.rng.choice(
                len(descriptors),
                size=int(cfg.permanently_down_fraction * len(descriptors)),
                replace=False,
            )
        )
        size_order = np.argsort(-self._popularity_weights)
        size_rank_fraction = np.empty(len(descriptors), dtype=float)
        size_rank_fraction[size_order] = np.linspace(0.0, 1.0, len(descriptors))
        for index, descriptor in enumerate(descriptors):
            if index in permanently_down:
                from_minute = int(self.rng.uniform(0.3, 0.95) * window)
                schedule.mark_permanently_down(descriptor.domain, from_minute)
                continue
            target = self._downtime_target(float(size_rank_fraction[index]))
            if target <= 0:
                continue
            budget = target * window
            accumulated = 0.0
            guard = 0
            # Well-run instances fail in short bursts (hours); badly-run or
            # abandoned instances disappear for days at a time.
            if target > 0.5:
                median_minutes, sigma = 1.5 * MINUTES_PER_DAY, 1.0
            else:
                median_minutes, sigma = 150.0, 0.9
            while accumulated < budget and guard < 300:
                guard += 1
                duration = float(
                    np.clip(
                        self.rng.lognormal(mean=np.log(median_minutes), sigma=sigma),
                        5,
                        45 * MINUTES_PER_DAY,
                    )
                )
                duration = min(duration, budget - accumulated + 30)
                start = int(self.rng.uniform(0, max(1, window - duration)))
                end = int(min(window, start + duration))
                if end <= start:
                    continue
                schedule.add_outage(
                    Outage(
                        domain=descriptor.domain,
                        window=TimeWindow(start, end),
                        cause=OutageCause.INSTANCE,
                    )
                )
                accumulated += end - start

        self._generate_as_outages(schedule, descriptors)

    def _generate_as_outages(
        self, schedule: AvailabilitySchedule, descriptors: list[InstanceDescriptor]
    ) -> None:
        cfg = self.config
        window = cfg.window_minutes
        domains_by_asn: dict[int, list[str]] = {}
        for descriptor in descriptors:
            domains_by_asn.setdefault(descriptor.asn, []).append(descriptor.domain)
        # Prefer the failure-prone ASes named in Table 1 when they host instances.
        preferred = [9370, 20473, 8075, 12322, 2516, 9371]
        candidates = [asn for asn in preferred if len(domains_by_asn.get(asn, [])) >= 2]
        for asn, domains in sorted(domains_by_asn.items(), key=lambda kv: -len(kv[1])):
            if len(candidates) >= cfg.n_as_outage_ases:
                break
            if asn not in candidates and len(domains) >= 2:
                candidates.append(asn)
        for asn in candidates[: cfg.n_as_outage_ases]:
            n_events = int(self.rng.integers(1, 5))
            for _ in range(n_events):
                duration = int(self.rng.uniform(60, 24 * 60))
                start = int(self.rng.uniform(0, max(1, window - duration)))
                event = ASOutageEvent(
                    asn=asn,
                    window=TimeWindow(start, min(window, start + duration)),
                    domains=tuple(sorted(domains_by_asn[asn])),
                )
                schedule.add_as_event(event)

    # -- certificates -----------------------------------------------------------------

    def _issue_certificates(
        self, registry: CertificateRegistry, descriptors: list[InstanceDescriptor]
    ) -> None:
        cfg = self.config
        window = cfg.window_minutes
        mass_expiry_day = int(self.rng.uniform(0.5, 0.9) * cfg.window_days)
        n_mass = max(1, int(cfg.mass_cert_expiry_fraction * len(descriptors)))
        mass_indices = set(
            int(i) for i in self.rng.choice(len(descriptors), size=n_mass, replace=False)
        )

        for index, descriptor in enumerate(descriptors):
            authority = self._sample_weighted(CA_WEIGHTS)
            validity = CERTIFICATE_AUTHORITIES[authority]
            validity_minutes = validity * MINUTES_PER_DAY
            if index in mass_indices and authority == "Let's Encrypt":
                # Issue so that the certificate expires on the shared mass-expiry
                # day and the renewal arrives a day late (Fig. 9b's spike).
                issued_at = mass_expiry_day * MINUTES_PER_DAY - validity_minutes
                issued_at = max(0, issued_at)
                registry.issue(descriptor.domain, authority, issued_at, validity)
                renewal_at = issued_at + validity_minutes + MINUTES_PER_DAY
                if renewal_at < window:
                    registry.issue(descriptor.domain, authority, renewal_at, validity)
                continue

            issued_at = max(0, descriptor.created_at)
            registry.issue(descriptor.domain, authority, issued_at, validity)
            renew_at = issued_at + validity_minutes
            lapses = self.rng.random() < cfg.cert_lapse_fraction
            while renew_at < window:
                if lapses:
                    renew_at += int(self.rng.uniform(0.5, 4.0) * MINUTES_PER_DAY)
                    lapses = False
                registry.issue(descriptor.domain, authority, renew_at, validity)
                renew_at += validity_minutes



def build_columnar_scenario(preset: str = "small", seed: int = 7) -> ColumnarScenario:
    """Generate the named preset's scenario as a :class:`ColumnarScenario`.

    ``preset`` is one of ``"tiny"``, ``"small"``, ``"medium"``,
    ``"large"`` (the 1M+-toot corpus for sharded evaluation) or
    ``"xlarge"`` (10M toots; stream it to stores rather than
    materialising the network).
    """
    return ScenarioGenerator(scenario_config(preset, seed=seed)).generate()


def build_scenario(preset: str = "small", seed: int = 7) -> FediverseNetwork:
    """Build a ready-to-analyse fediverse using a named preset.

    The same population as :func:`build_columnar_scenario`, materialised
    as a :class:`FediverseNetwork` for the crawlers and the monitor.
    """
    return ScenarioGenerator(scenario_config(preset, seed=seed)).generate().to_network()
