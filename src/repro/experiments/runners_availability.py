"""Runners for the availability experiments (Figs. 7-10, Table 1).

Section 4.2's results: downtime distributions, popularity bins vs the
Twitter 2007 baseline, certificate-driven outages, continuous outage
durations and the AS-wide failure table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments.registry import register_runner
from repro.experiments.results import ExperimentResult, ResultSeries, ResultTable
from repro.reporting import format_percentage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.context import ExperimentContext

#: Minimum co-located instances for an AS-wide failure report (the paper
#: uses 8 at full 4,328-instance scale; 3 matches the benchmark scenarios).
TABLE1_MIN_INSTANCES = 3


@register_runner("fig7")
def run_fig7(ctx: ExperimentContext) -> ExperimentResult:
    import numpy as np

    from repro.core import availability

    cdf = availability.downtime_cdf(ctx.data.instances)
    headlines = availability.downtime_headlines(ctx.data.instances)
    impacts = availability.unavailability_impact(ctx.data.instances)
    correlation = availability.popularity_downtime_correlation(ctx.data.instances)
    users = [impact.users for impact in impacts]
    toots = [impact.toots for impact in impacts]
    xs, ys = cdf.series()
    return ExperimentResult.build(
        "fig7",
        "Instance downtime CDF",
        tables=[
            ResultTable.build(
                "Fig. 7 — downtime distribution",
                ["metric", "measured", "paper"],
                [
                    ["share with <5% downtime",
                     format_percentage(headlines["share_below_5pct_downtime"]), "~50%"],
                    ["share with >50% downtime",
                     format_percentage(headlines["share_above_50pct_downtime"]), "11%"],
                    ["mean downtime", format_percentage(headlines["mean_downtime"]), "10.95%"],
                    ["median downtime", format_percentage(headlines["median_downtime"]), "<5%"],
                ],
            ),
            ResultTable.build(
                "Fig. 7 — users/toots unavailable when a failing instance is down",
                ["quantity", "p50", "p95", "max"],
                [
                    ["users", int(np.percentile(users, 50)), int(np.percentile(users, 95)),
                     max(users)],
                    ["toots", int(np.percentile(toots, 50)), int(np.percentile(toots, 95)),
                     max(toots)],
                ],
            ),
        ],
        series=[
            ResultSeries.build("downtime_cdf", xs, ys,
                               x_label="downtime fraction", y_label="CDF"),
        ],
        scalars={
            "cdf_at_5pct_downtime": cdf.evaluate(0.05),
            "share_above_50pct_downtime": headlines["share_above_50pct_downtime"],
            "mean_downtime": headlines["mean_downtime"],
            "median_downtime": headlines["median_downtime"],
            "popularity_downtime_correlation": correlation,
            "impact_toots_p50": int(np.percentile(toots, 50)),
            "impact_toots_max": max(toots),
        },
    )


@register_runner("fig8")
def run_fig8(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core import availability

    edges = availability.scaled_toot_bins(ctx.data.instances)
    bins = availability.daily_downtime_by_popularity(ctx.data.instances, bin_edges=edges)
    comparison = availability.twitter_downtime_comparison(
        ctx.data.instances, ctx.twitter.daily_downtime
    )
    return ExperimentResult.build(
        "fig8",
        "Per-day downtime by instance popularity vs Twitter",
        tables=[
            ResultTable.build(
                "Fig. 8 — per-day downtime by toot-count bin (scaled bin edges)",
                ["bin (toots)", "instances", "mean", "median", "p75"],
                [
                    [bin_.label, bin_.instance_count, format_percentage(bin_.stats.mean),
                     format_percentage(bin_.stats.median), format_percentage(bin_.stats.q3)]
                    for bin_ in bins
                ],
            ),
            ResultTable.build(
                "Fig. 8 — Mastodon vs Twitter (2007) daily downtime",
                ["system", "mean daily downtime", "paper"],
                [
                    ["Mastodon", format_percentage(comparison["mastodon_mean_downtime"]),
                     "10.95%"],
                    ["Twitter 2007", format_percentage(comparison["twitter_mean_downtime"]),
                     "1.25%"],
                    ["ratio", round(comparison["ratio"], 2), "~8.8x"],
                ],
            ),
        ],
        scalars={
            "bin_count": len(bins),
            "smallest_bin_mean_downtime": bins[0].stats.mean,
            "min_bin_mean_downtime": min(bin_.stats.mean for bin_ in bins),
            "mastodon_mean_downtime": comparison["mastodon_mean_downtime"],
            "twitter_mean_downtime": comparison["twitter_mean_downtime"],
            "downtime_ratio": comparison["ratio"],
        },
    )


@register_runner("fig9")
def run_fig9(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core import availability

    footprint = availability.certificate_footprint(ctx.data.instances)
    window_days = ctx.scenario.clock.window_days
    expiry_series = availability.certificate_expiry_outages(ctx.scenario.certificates, window_days)
    outage_share = availability.certificate_outage_share(
        ctx.data.instances, ctx.scenario.certificates
    )
    worst_day = max(expiry_series, key=lambda day: expiry_series[day])
    busy_days = [(day, count) for day, count in expiry_series.items() if count > 0]
    return ExperimentResult.build(
        "fig9",
        "Certificate authorities and expiry outages",
        tables=[
            ResultTable.build(
                "Fig. 9(a) — certificate authority footprint",
                ["authority", "share of instances"],
                [[authority, format_percentage(share)] for authority, share in footprint.items()],
            ),
            ResultTable.build(
                "Fig. 9(b) — instances with a lapsed certificate per day (busy days)",
                ["day", "instances lapsed"],
                busy_days[:15],
            ),
        ],
        series=[
            ResultSeries.build(
                "lapsed_certificates",
                list(expiry_series.keys()),
                list(expiry_series.values()),
                x_label="day",
                y_label="instances lapsed",
            )
        ],
        scalars={
            "lets_encrypt_share": footprint["Let's Encrypt"],
            "max_footprint_share": max(footprint.values()),
            "worst_expiry_day": worst_day,
            "worst_expiry_day_count": expiry_series[worst_day],
            "certificate_outage_share": outage_share,
        },
    )


@register_runner("fig10")
def run_fig10(ctx: ExperimentContext) -> ExperimentResult:
    import numpy as np

    from repro.core import availability

    report = availability.outage_durations(ctx.data.instances, min_days=1.0)
    durations = report.durations_days
    return ExperimentResult.build(
        "fig10",
        "Continuous outage durations",
        tables=[
            ResultTable.build(
                "Fig. 10 — continuous outage durations",
                ["metric", "measured", "paper"],
                [
                    ["instances down at least once",
                     format_percentage(report.share_of_instances_down_at_least_once), "98%"],
                    ["instances down >= 1 day",
                     format_percentage(report.share_down_at_least_one_day), "~25%"],
                    ["longest outage (days)",
                     round(max(durations), 1) if durations else 0, ">30"],
                    ["median long outage (days)",
                     round(float(np.median(durations)), 1) if durations else 0, "-"],
                    ["users affected by >=1-day outages", report.affected_users, "-"],
                    ["toots affected by >=1-day outages", report.affected_toots, "-"],
                ],
            )
        ],
        scalars={
            "share_down_at_least_once": report.share_of_instances_down_at_least_once,
            "share_down_at_least_one_day": report.share_down_at_least_one_day,
            "longest_outage_days": max(durations) if durations else 0.0,
            "affected_users": report.affected_users,
            "affected_toots": report.affected_toots,
        },
    )


@register_runner("table1")
def run_table1(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core import availability

    reports = availability.detect_as_failures(
        ctx.data.instances, geo=ctx.scenario.geo, min_instances=TABLE1_MIN_INSTANCES
    )
    return ExperimentResult.build(
        "table1",
        "AS-wide failures",
        tables=[
            ResultTable.build(
                "Table 1 — AS failures (all co-located instances down simultaneously)",
                ["ASN", "Instances", "Failures", "IPs", "Users", "Toots",
                 "Org.", "Rank", "Peers"],
                [
                    [f"AS{r.asn}", r.instances, r.failures, r.ips, r.users, r.toots,
                     r.organisation, r.caida_rank, r.peers]
                    for r in reports
                ],
            )
        ],
        scalars={
            "failure_report_count": len(reports),
            "min_instances_threshold": TABLE1_MIN_INSTANCES,
            "min_report_instances": min((r.instances for r in reports), default=0),
            "min_report_failures": min((r.failures for r in reports), default=0),
            "max_report_toots": max((r.toots for r in reports), default=0),
        },
    )
