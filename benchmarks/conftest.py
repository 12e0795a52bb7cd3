"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures against
the *same* "small" synthetic fediverse (a ~1/20th-scale population), so
the scenario and the measurement pipeline are built once per session.
The per-figure benches are thin timing wrappers over the experiment
registry (``get_experiment(id).run(ctx)``): the ``ctx`` fixture wraps
the session-scoped pipeline in an
:class:`~repro.experiments.context.ExperimentContext`, the library-level
equivalent of what these fixtures do inside pytest.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the regenerated
tables/series next to the timing numbers.
"""

from __future__ import annotations

import pytest

from repro import CollectedDatasets, build_scenario, collect_datasets
from repro.datasets import TwitterBaselines
from repro.experiments import ExperimentContext

BENCH_SEED = 42


@pytest.fixture(scope="session")
def network():
    """The small benchmark fediverse (150 instances, 6K users, ~60K toots)."""
    return build_scenario("small", seed=BENCH_SEED)


@pytest.fixture(scope="session")
def data(network) -> CollectedDatasets:
    """The full measurement pipeline over the benchmark fediverse.

    The monitor probes every two hours (the paper probed every five
    minutes; two-hourly probing keeps the same relative resolution for
    outage detection while staying fast at benchmark scale).
    """
    return collect_datasets(network, monitor_interval_minutes=2 * 60)


@pytest.fixture(scope="session")
def twitter() -> TwitterBaselines:
    """Twitter comparison baselines (2007 uptime, 2011 follower graph)."""
    return TwitterBaselines.generate(days=300, n_users=4_000, seed=2007)


@pytest.fixture(scope="session")
def ctx(network, data) -> ExperimentContext:
    """The session pipeline wrapped as a shared experiment context.

    Placement maps, rankings and incidence matrices memoise here, so the
    replication benches share artefacts exactly as ``run --all`` does.
    The Twitter baselines are *not* pre-seeded: the context generates
    them lazily (same parameters as the ``twitter`` fixture), so benches
    that never compare against Twitter never pay for them.
    """
    return ExperimentContext.from_datasets(
        data,
        scenario=network,
        preset="small",
        seed=BENCH_SEED,
        monitor_interval_minutes=2 * 60,
    )


def emit(title: str, body: str) -> None:
    """Print a regenerated table/series block (visible with ``-s``)."""
    print(f"\n=== {title} ===\n{body}\n")
