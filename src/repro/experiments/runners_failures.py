"""Runners for the correlated and temporal failure experiments.

Both are engine sweeps over the pluggable failure models of
:mod:`repro.engine.failures`: ``correlated`` removes whole hosting
providers and countries in ranked order (the paper's Tables 1-2 blast
radii), and ``churn`` probes availability through simulated time while
instances go down *and come back* on the empirical outage distributions
(Figs. 7-10).  The strategies mirror the fig15/16 family — no
replication, subscription replication, and a small random-replication
budget — so the two experiments answer the paper's question for
correlated and temporal failures: does replication still help?
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments.registry import register_runner
from repro.experiments.results import ExperimentResult, ResultSeries, ResultTable
from repro.reporting import format_percentage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sweep import StrategySpec
    from repro.experiments.context import ExperimentContext


def _strategies() -> list[StrategySpec]:
    """The strategy grid shared by both failure experiments."""
    from repro.engine.sweep import StrategySpec

    return [
        StrategySpec.none(),
        StrategySpec.subscription(),
        StrategySpec.random(2, name="n=2"),
    ]


def _curve_series(name: str, curve) -> ResultSeries:
    return ResultSeries.build(
        name,
        [point.removed for point in curve],
        [point.availability for point in curve],
        x_label="removed",
        y_label="availability",
    )


def _tick_series(name: str, curve) -> ResultSeries:
    return ResultSeries.build(
        name,
        [point.removed for point in curve],
        [point.availability for point in curve],
        x_label="tick",
        y_label="availability",
    )


@register_runner("correlated")
def run_correlated(ctx: ExperimentContext) -> ExperimentResult:
    failures = ctx.correlated_failures()
    result = ctx.sweep(_strategies(), failures)

    removals = (1, 2, 3, 5)
    tables = []
    for failure, label in zip(failures, ("hosters", "countries")):
        rows = [
            [row[0]] + [format_percentage(value) for value in row[1:]]
            for row in result.availability_rows(failure.name, removals)
        ]
        tables.append(
            ResultTable.build(
                f"Toot availability when removing top {label} (by hosted users)",
                ["strategy"] + [f"top {r} removed" for r in removals],
                rows,
            )
        )
    top_hosters = ctx.hoster_ranking()[:5]
    top_countries = ctx.country_ranking()[:5]
    tables.append(
        ResultTable.build(
            "Removal order (ranked by hosted users)",
            ["step", "hoster", "country"],
            [
                [i + 1, hoster, country]
                for i, (hoster, country) in enumerate(zip(top_hosters, top_countries))
            ],
        )
    )

    at1 = {failure.name: result.compare(failure.name, 1) for failure in failures}
    return ExperimentResult.build(
        "correlated",
        "Correlated hoster and country outages",
        tables=tables,
        series=[
            _curve_series(f"{strategy}/{failure.name}", result.curve(strategy, failure.name))
            for strategy in result.strategy_names
            for failure in failures
        ],
        scalars={
            **{
                f"top1_{failure.name}[{strategy}]": value
                for failure in failures
                for strategy, value in at1[failure.name].items()
            },
            "top_hoster": top_hosters[0],
            "top_country": top_countries[0],
        },
    )


@register_runner("churn")
def run_churn(ctx: ExperimentContext) -> ExperimentResult:
    import numpy as np

    failures = ctx.churn_failures()
    result = ctx.sweep(_strategies(), failures)

    def availability_values(strategy: str, failure_name: str) -> np.ndarray:
        # drop index 0: it is the no-outage baseline, not a probed tick
        curve = result.curve(strategy, failure_name)
        return np.asarray([point.availability for point in curve[1:]], dtype=np.float64)

    rows = []
    scalars: dict[str, object] = {"churn_ticks": ctx.churn_ticks}
    for strategy in result.strategy_names:
        per_seed = np.stack(
            [availability_values(strategy, failure.name) for failure in failures]
        )
        mean = float(per_seed.mean())
        worst = float(per_seed.min())
        rows.append([strategy, format_percentage(mean), format_percentage(worst)])
        scalars[f"mean_availability[{strategy}]"] = mean
        scalars[f"min_availability[{strategy}]"] = worst

    return ExperimentResult.build(
        "churn",
        "Availability under temporal churn",
        tables=[
            ResultTable.build(
                f"Availability across {ctx.churn_ticks} probe ticks "
                f"({len(failures)} sampled outage processes)",
                ["strategy", "mean availability", "worst tick"],
                rows,
            )
        ],
        series=[
            _tick_series(
                f"{strategy}/{failure.name}", result.curve(strategy, failure.name)
            )
            for strategy in result.strategy_names
            for failure in failures[:1]  # one representative seed per strategy
        ],
        scalars=scalars,
    )
