"""Golden-number pins for the correlated and temporal failure experiments.

Measured once on the seeded tiny scenario (``build_scenario("tiny",
seed=11)`` via the session ``datasets`` fixture, the same environment as
``tests/engine/test_golden_numbers.py``) and pinned exactly: the whole
correlated/temporal pipeline — hoster/country grouping, ranked group
removal, bootstrap churn sampling, tick discretisation, the mixed
cumulative/temporal schedule assembly, and the batched loss reduction —
is deterministic, so any drift in these numbers is an unintended
semantic change, not noise.  Re-measure and update deliberately if a
change is *meant* to alter them.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import ExperimentContext
from repro.reporting.experiments import get_experiment

EXACT = dict(rel=1e-12, abs=0.0)

# Measured on the seeded tiny scenario; update only on deliberate changes.
GOLDEN_CORRELATED = {
    "top1_hosters/by_users[no-rep]": 0.7555233611010503,
    "top1_hosters/by_users[s-rep]": 0.9090909090909091,
    "top1_hosters/by_users[n=2]": 0.9925751539297356,
    "top1_countries/by_users[no-rep]": 0.6095617529880478,
    "top1_countries/by_users[s-rep]": 0.7643969576240492,
    "top1_countries/by_users[n=2]": 0.9605215501629845,
}
GOLDEN_TOP_HOSTER = "OVH"
GOLDEN_TOP_COUNTRY = "JP"

GOLDEN_CHURN = {
    "mean_availability[no-rep]": 0.8466198337961285,
    "min_availability[no-rep]": 0.45182904744657737,
    "mean_availability[s-rep]": 0.9199489919111434,
    "min_availability[s-rep]": 0.7417602318000724,
    "mean_availability[n=2]": 0.9930039941245121,
    "min_availability[n=2]": 0.9489315465411083,
}


@pytest.fixture(scope="module")
def ctx(datasets) -> ExperimentContext:
    return ExperimentContext.from_datasets(datasets)


class TestCorrelatedGolden:
    def test_scalars_pinned(self, ctx):
        result = get_experiment("correlated").run(ctx)
        for key, expected in GOLDEN_CORRELATED.items():
            assert result.scalars[key] == pytest.approx(expected, **EXACT), key

    def test_removal_order_pinned(self, ctx):
        result = get_experiment("correlated").run(ctx)
        assert result.scalars["top_hoster"] == GOLDEN_TOP_HOSTER
        assert result.scalars["top_country"] == GOLDEN_TOP_COUNTRY

    def test_paper_direction_holds(self, ctx):
        """Replication recovers availability under correlated outages too."""
        result = get_experiment("correlated").run(ctx)
        for group in ("hosters", "countries"):
            none = result.scalars[f"top1_{group}/by_users[no-rep]"]
            srep = result.scalars[f"top1_{group}/by_users[s-rep]"]
            rand = result.scalars[f"top1_{group}/by_users[n=2]"]
            assert none < srep < rand


class TestChurnGolden:
    def test_scalars_pinned(self, ctx):
        result = get_experiment("churn").run(ctx)
        assert result.scalars["churn_ticks"] == 48
        for key, expected in GOLDEN_CHURN.items():
            assert result.scalars[key] == pytest.approx(expected, **EXACT), key

    def test_paper_direction_holds(self, ctx):
        """Replication keeps toots reachable through churn as well."""
        result = get_experiment("churn").run(ctx)
        assert (
            result.scalars["mean_availability[no-rep]"]
            < result.scalars["mean_availability[s-rep]"]
            < result.scalars["mean_availability[n=2]"]
        )
        # even the worst probed tick keeps most toots with 2 random replicas
        assert result.scalars["min_availability[n=2]"] > 0.9
