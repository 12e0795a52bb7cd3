"""Paper-shape checks: each experiment points the way the paper reports.

Raman et al.'s findings are directional — a few instances and ASes hold
most users, most federated timelines are fed from elsewhere, replication
raises toot availability.  Each test here runs one registered experiment
(or one ablation) and asserts that direction on its scalars.  Every test
shares one context over the "small" synthetic fediverse (150 instances,
6K users, ~50K toots) at seed 42.

The monitor probes every two hours, not daily as the CLI does: daily
probes round every outage up to whole days, which pushes fig10's
"down for at least a day" share past its bound.  (The paper probed every
five minutes; two hours keeps outage detection meaningful while staying
fast at this scale.)

``tests/reporting/test_registry_integrity.py`` checks that every
runnable experiment except ``correlated`` — whose numbers the golden
failure-model suite pins exactly — has a check here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import replication, resilience
from repro.experiments import ExperimentContext
from repro.fediverse import ScenarioConfig, ScenarioGenerator
from repro.reporting import get_experiment
from repro.stats.distributions import pareto_share
from repro.stats.summary import gini_coefficient

#: Removal steps of the weighted-replication ablation.
STEPS = 40

#: Population scales of the scale-stability ablation.
SCALES = (0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def ctx():
    """The shared small-scale pipeline; its temporary stores go at teardown."""
    context = ExperimentContext(preset="small", seed=42, monitor_interval_minutes=2 * 60)
    yield context
    context.close()


def test_fig01_growth(ctx):
    """Fig. 1 — instances, users and toots over the observation window.

    Paper shape: all three curves grow; instances plateau mid-window and
    then grow again, while users/toots keep growing throughout.
    """
    result = get_experiment("fig1").run(ctx)

    assert result.scalar("final_users") >= result.scalar("initial_users")
    assert result.scalar("final_instances") >= result.scalar("initial_instances")
    assert result.scalar("final_users") > 0


def test_fig02_open_closed(ctx):
    """Fig. 2 — open vs closed registrations.

    Paper shape: open instances hold most users (mean 613 vs 87), but
    closed instances are more active per capita (186.7 vs 94.8 toots per
    user) and have more engaged users (median activity 75% vs 50%).
    """
    result = get_experiment("fig2").run(ctx)

    assert result.scalar("users_open_median") >= result.scalar("users_closed_median")
    # open instances hold the large majority of users
    assert result.scalar("open_user_share") > 0.5
    assert result.scalar("mean_users_open") > result.scalar("mean_users_closed")
    # closed instances are more active per capita (paper: 186.7 vs 94.8)
    assert result.scalar("toots_per_user_closed") > result.scalar("toots_per_user_open")
    # closed instances have more engaged users (paper: 75% vs 50%)
    assert result.scalar("activity_median_closed") >= result.scalar("activity_median_open")


def test_fig03_categories(ctx):
    """Fig. 3 — distribution of instances, toots and users across categories.

    Paper shape: tech/games/art dominate by number of instances; adult
    instances are few (12.3%) but attract the most users (61%).
    """
    result = get_experiment("fig3").run(ctx)

    if "adult_instance_share" in result.scalars and "tech_instance_share" in result.scalars:
        # the paper's outlier: few adult instances, disproportionate users
        assert result.scalar("adult_instance_share") < result.scalar("tech_instance_share")
        assert result.scalar("adult_user_share") > result.scalar("adult_instance_share")
    assert result.scalar("largest_instance_share") >= result.scalar("smallest_instance_share")
    # only a minority of instances self-declare categories (paper: 697/4328)
    assert result.scalar("instance_coverage") < 0.5


def test_fig04_activities(ctx):
    """Fig. 4 — prohibited and allowed activities across instances.

    Paper shape: spam is the most commonly prohibited activity (76% of
    tagged instances), followed by pornography and nudity without #NSFW;
    instances allowing advertising hold a disproportionate share of users
    and toots.
    """
    result = get_experiment("fig4").run(ctx)

    # spam is among the most prohibited activities
    assert result.scalar("spam_prohibit_rank") is not None
    assert result.scalar("spam_prohibit_rank") <= 3
    assert 0.0 < result.scalar("allow_all_share") < 0.6


def test_fig05_hosting(ctx):
    """Fig. 5 — top-5 hosting countries and ASes.

    Paper shape: Japan leads (25.5% of instances, 41% of users), followed
    by the US and France; the top ASes (Amazon, Cloudflare, Sakura, OVH,
    DigitalOcean) host a disproportionate share of users — the top three
    hold almost two thirds.
    """
    result = get_experiment("fig5").run(ctx)

    assert result.scalar("top_country") == "JP"
    # Japan attracts proportionally more users than instances (paper: 25.5% vs 41%)
    assert result.scalar("top_country_user_share") > result.scalar("top_country_instance_share")
    # the top AS hosts a much larger share of users than of instances
    assert result.scalar("top_as_user_share") > result.scalar("top_as_instance_share")
    assert result.scalar("top3_as_user_share") > 0.4


def test_fig06_country_federation(ctx):
    """Fig. 6 — federated subscription links between countries (Sankey data).

    Paper shape: federation is homophilous (~32% of links stay in-country)
    and the top five countries attract ~94% of all subscription links.
    """
    result = get_experiment("fig6").run(ctx)

    assert result.scalar("flow_count") >= 1, "expected at least one federation flow"
    assert 0.05 < result.scalar("same_country_share") <= 1.0
    assert result.scalar("top5_country_link_share") > 0.6


def test_fig07_downtime(ctx):
    """Fig. 7 — CDF of instance downtime and the users/toots made unavailable.

    Paper shape: about half of the instances have under 5% downtime, 4.5%
    are up more than 99.5% of the time, and a long tail of 11% is
    unreachable more than half of the time.  Failures hit instances
    across the whole popularity spectrum.
    """
    result = get_experiment("fig7").run(ctx)

    assert 0.2 < result.scalar("cdf_at_5pct_downtime") < 0.9
    assert 0.02 < result.scalar("share_above_50pct_downtime") < 0.3
    # popularity does not predict availability (paper correlation: -0.04)
    assert abs(result.scalar("popularity_downtime_correlation")) < 0.4
    # failures are not confined to tiny instances: the largest failing
    # instance is far bigger than the median one
    assert result.scalar("impact_toots_max") > 20 * max(1, result.scalar("impact_toots_p50"))


def test_fig08_downtime_bins(ctx):
    """Fig. 8 — per-day downtime binned by instance popularity, vs Twitter 2007.

    Paper shape: small instances (<10K toots) have the most downtime, the
    largest (>1M toots) are worse than the 100K-1M group, and even
    2007-era Twitter (mean daily downtime 1.25%) is more available than
    the average Mastodon instance (10.95%).
    """
    result = get_experiment("fig8").run(ctx)

    assert result.scalar("bin_count") >= 2
    # the smallest instances are not the most reliable group
    assert result.scalar("smallest_bin_mean_downtime") >= result.scalar("min_bin_mean_downtime")
    # Twitter 2007 was still more available than the average instance
    assert result.scalar("downtime_ratio") > 1.5


def test_fig09_certificates(ctx):
    """Fig. 9 — certificate authority footprint and expiry-driven outages.

    Paper shape: Let's Encrypt serves >85% of instances; its 90-day
    expiry policy causes correlated outages (worst day: 105 instances
    down at once); certificate expiries explain ~6.3% of observed outages.
    """
    result = get_experiment("fig9").run(ctx)

    assert result.scalar("lets_encrypt_share") > 0.6
    assert result.scalar("max_footprint_share") == result.scalar("lets_encrypt_share")
    # a correlated expiry spike exists (paper: 105 instances on one day)
    assert result.scalar("worst_expiry_day_count") >= 2
    assert 0.0 < result.scalar("certificate_outage_share") < 0.5


def test_fig10_outage_durations(ctx):
    """Fig. 10 — continuous outage durations and the users/toots they affect.

    Paper shape: almost every instance goes down at least once; a quarter
    of instances disappear for at least a day, 7% for over a month; 14%
    of users lose access to their instance for a whole day at least once.
    """
    result = get_experiment("fig10").run(ctx)

    assert result.scalar("share_down_at_least_once") > 0.7
    assert 0.05 < result.scalar("share_down_at_least_one_day") < 0.8
    assert result.scalar("affected_users") > 0


def test_fig11_degree(ctx):
    """Fig. 11 — out-degree CDFs of the follower, federation and Twitter graphs.

    Paper shape: all three graphs are heavy-tailed; the federation graph
    has a flatter (more uniform) degree distribution than the user-level
    graphs.
    """
    result = get_experiment("fig11").run(ctx)

    # heavy tails: the 99th percentile is far above the median for user graphs
    assert result.scalar("mastodon_users_p99_degree") > 4 * max(
        1.0, result.scalar("mastodon_users_median_degree")
    )
    assert result.scalar("twitter_users_p99_degree") > 4 * max(
        1.0, result.scalar("twitter_users_median_degree")
    )


def test_fig12_user_removal(ctx):
    """Fig. 12 — impact of removing the most-connected accounts from G(V,E).

    Paper shape: Mastodon's social graph is far more sensitive than
    Twitter's — removing the top 1% of accounts shrinks Mastodon's LCC
    from ~100% to 26% of users, while Twitter retains ~80% even after
    losing the top 10%.
    """
    result = get_experiment("fig12").run(ctx)

    assert result.scalar("mastodon_initial_lcc") > 0.9
    # the LCC shrinks and Mastodon degrades at least as fast as Twitter
    assert result.scalar("mastodon_lcc_drop") > 0.05
    assert result.scalar("mastodon_lcc_drop") >= result.scalar("twitter_lcc_drop") - 0.05


def test_fig13_instance_as_removal(ctx):
    """Fig. 13 — removing top instances / ASes from the federation graph GF.

    Paper shape: removing top instances degrades the LCC roughly linearly
    (much gentler than the social graph's collapse); removing whole ASes
    is far more damaging — five ASes take the LCC from 92% to roughly
    half, and ranking ASes by hosted users shatters GF into more
    components than ranking by hosted instances.
    """
    result = get_experiment("fig13").run(ctx)

    for criterion in ("users", "toots", "connections"):
        assert result.scalar(f"instance_{criterion}_monotonic")
        # instance removal degrades GF gradually, not catastrophically
        assert result.scalar(f"instance_{criterion}_lcc_after_5") > 0.5 * result.scalar(
            f"instance_{criterion}_initial_lcc"
        )

    assert result.scalar("as_by_instances_initial_lcc") > 0.85
    # removing 5 ASes cuts the LCC drastically (paper: 92% -> ~46%)
    assert result.scalar("as_by_instances_lcc_after_5") < 0.75 * result.scalar(
        "as_by_instances_initial_lcc"
    )
    # ranking by users creates at least as many components as ranking by instances
    assert result.scalar("as_by_users_components_after_5") >= result.scalar(
        "as_by_instances_components_after_5"
    ) - 2


def test_fig14_home_remote(ctx):
    """Fig. 14 — ratio of home toots to remote toots on federated timelines.

    Paper shape: 78% of instances generate under 10% of the toots on
    their own federated timeline and 5% generate none at all; the more
    toots an instance generates, the more often its content is replicated
    elsewhere (correlation 0.97) — a few "feeder" instances supply the
    whole network.
    """
    result = get_experiment("fig14").run(ctx)

    assert result.scalar("home_shares_sorted")
    assert result.scalar("share_under_10pct_home") > 0.3
    assert result.scalar("toots_vs_replication_correlation") > 0.5


def test_fig15_replication(ctx):
    """Fig. 15 — toot availability under instance/AS removal, with and
    without subscription-based replication.

    Paper shape: without replication, removing the top 10 instances (by
    toots) erases 62.69% of all toots and removing the top 10 ASes erases
    90.1%; replicating each toot to its followers' instances cuts those
    losses to 2.1% and 18.66% respectively.
    """
    result = get_experiment("fig15").run(ctx)

    no_rep_top10 = result.scalar("no_rep_top10_instances_by_toots")
    # removing the top 10 instances erases a large share of toots (paper: 62.69%)
    assert no_rep_top10 < 0.7
    # removing the top 10 ASes is even worse (paper: 90.1% lost)
    assert result.scalar("no_rep_top10_ases_by_users") <= no_rep_top10 + 0.05
    # replication recovers most of the availability lost to the top-10 removal
    s_rep_top10 = result.scalar("s_rep_top10_instances_by_toots")
    assert s_rep_top10 > no_rep_top10 + 0.2
    assert result.scalar("s_rep_top10_ases_by_users") >= s_rep_top10 - 0.6


def test_fig16_random_replication(ctx):
    """Fig. 16 — random replication vs subscription replication vs none.

    Paper shape: replicating each toot onto n random instances beats
    subscription-based replication for the same budget (after removing
    25 instances, S-Rep keeps 95% of toots available while a single
    random replica already keeps 99.2%); curves for n > 4 are
    indistinguishable from full availability.
    """
    result = get_experiment("fig16").run(ctx)

    def at25(strategy: str) -> float:
        return result.scalar(f"at25[{strategy}]")

    # ordering: no replication < subscription replication <= random replication
    assert at25("no-rep") < at25("s-rep")
    assert at25("n=1") >= at25("s-rep") - 0.05
    assert at25("n=4") >= at25("n=1") - 1e-9
    # high replica counts keep nearly everything available (paper: >99%)
    assert at25("n=7") > 0.95
    # weighting towards big instances concentrates replicas on exactly the
    # targets of the removal schedule, so it cannot beat uniform placement
    assert at25("n=2/weighted") <= at25("n=2") + 0.02


def test_table1_as_failures(ctx):
    """Table 1 — AS-wide failures detected from correlated instance outages.

    Paper shape: six ASes suffer at least one outage during which every
    hosted instance is simultaneously unreachable; the largest (Sakura)
    takes out ~97 instances and millions of toots at once.  (The runner
    uses a min-instances threshold of 3; the paper uses 8 at full
    4,328-instance scale.)
    """
    result = get_experiment("table1").run(ctx)

    assert result.scalar("failure_report_count") >= 1, (
        "expected at least one AS-wide failure (the scenario injects several)"
    )
    assert result.scalar("min_report_instances") >= result.scalar("min_instances_threshold")
    assert result.scalar("min_report_failures") >= 1
    # the worst AS failure takes down many instances and their content at once
    assert result.scalar("max_report_toots") > 0


def test_table2_top_instances(ctx):
    """Table 2 — the top instances by home-timeline toots.

    Paper shape: the top-10 instances are dominated by large Japanese
    deployments (mstdn.jp, friends.nico, pawoo.net), run by a mix of
    companies, individuals and crowd-funded operators, hosted on the big
    clouds, with very high degrees in both the user and federation graphs.
    """
    result = get_experiment("table2").run(ctx)

    assert result.scalar("row_count") == 10
    assert result.scalar("home_toots_sorted_desc")
    # the flagship instances have high federation degrees and real hosting metadata
    assert result.scalar("top_has_federation_degree")
    assert result.scalar("all_as_names_present")


def test_headline_concentration(ctx):
    """Section 4.1 headline concentration numbers.

    Paper shape: the top 5% of instances hold 90.6% of users and 94.8% of
    toots; 10% of instances host almost half of the users.
    """
    result = get_experiment("headline").run(ctx)

    assert result.scalar("top5pct_user_share") > 0.4
    assert result.scalar("top10pct_user_share") >= 0.5
    assert result.scalar("half_user_fraction") <= 0.10 + 0.05
    assert result.scalar("user_gini") > 0.6


def test_temporal_churn(ctx):
    """Temporal churn — availability through simulated time, per strategy.

    Paper context (§6.2, Fig. 10): Mastodon instances do not just die —
    4.7% of outages last under half an hour and most instances that
    disappear come back within days.  The ``churn`` runner bootstraps
    per-instance outage schedules from those empirical distributions and
    sweeps toot availability tick by tick, so replication's payoff shows
    up as a lifted *worst probed tick*, not just a lifted mean.
    """
    result = get_experiment("churn").run(ctx)

    mean_none = result.scalar("mean_availability[no-rep]")
    mean_srep = result.scalar("mean_availability[s-rep]")
    mean_rand = result.scalar("mean_availability[n=2]")
    # replication lifts the mean availability through churn
    assert mean_none < mean_srep < mean_rand
    # and lifts the floor: the worst probed tick improves strictly too
    assert (
        result.scalar("min_availability[no-rep]")
        < result.scalar("min_availability[s-rep]")
        < result.scalar("min_availability[n=2]")
    )
    # with 2 random replicas the worst tick still keeps the vast majority
    assert result.scalar("min_availability[n=2]") > 0.9


def test_ablation_weighted_replication(ctx):
    """Ablation — resource-weighted random replication.

    The paper notes that a practical deployment would "weight replication
    based on the resources available at the instance".  This ablation
    compares uniform random replication against capacity-weighted
    placement (replicas biased towards the largest instances) and shows
    the trade-off: weighting concentrates replicas on exactly the
    instances most likely to be targeted, so availability under targeted
    removal degrades back towards the subscription strategy.
    """
    data = ctx.data
    ranking = resilience.rank_instances(
        data.graphs.federation_graph,
        toots_per_instance=data.toots.toots_per_instance(),
        by="toots",
    )
    domains = data.instances.domains()
    capacity = {d: 1.0 + users for d, users in data.instances.users_per_instance().items()}

    uniform = replication.random_replication(data.toots, domains, 2, seed=3)
    weighted = replication.random_replication(data.toots, domains, 2, seed=3, weights=capacity)
    curves = {
        "uniform": replication.availability_under_instance_removal(uniform, ranking, steps=STEPS),
        "capacity-weighted": replication.availability_under_instance_removal(
            weighted, ranking, steps=STEPS
        ),
    }

    # weighting towards big instances cannot beat uniform placement under
    # targeted top-instance removal
    assert (
        replication.availability_at(curves["capacity-weighted"], 20)
        <= replication.availability_at(curves["uniform"], 20) + 0.02
    )


def test_ablation_scale_stability():
    """Ablation — shape stability across scenario scales.

    The reproduction runs at a reduced population scale; this ablation
    checks that the headline concentration metrics (the claims every
    other figure builds on) are stable as the synthetic population grows,
    i.e. that the reported shapes are not artefacts of one particular
    scale.
    """
    results = {}
    for scale in SCALES:
        config = ScenarioConfig.tiny(seed=17).scaled(scale)
        scenario = ScenarioGenerator(config).generate()
        users = np.bincount(scenario.user_instance, minlength=scenario.n_instances).tolist()
        results[scale] = {
            "top10_user_share": pareto_share(users, 0.10),
            "gini": gini_coefficient(users),
        }

    shares = [results[scale]["top10_user_share"] for scale in SCALES]
    ginis = [results[scale]["gini"] for scale in SCALES]
    # concentration is visible at every scale and grows (towards the paper's
    # 4,328-instance values) as the population grows — it is not an artefact
    # of one particular scenario size
    assert all(share > 0.15 for share in shares)
    assert all(g > 0.35 for g in ginis)
    assert shares == sorted(shares)
    assert ginis == sorted(ginis)
