"""Correlated & temporal failure models at scale (the PR 6 gate).

The new models in :mod:`repro.engine.failures` extend the engine's step
semantics — grouped correlated removals and non-monotone temporal
schedules — by *reusing* the additive loss-table fold rather than adding
a second evaluation path.  This benchmark drives them over a synthetic
400k-toot placement backend and gates three claims:

1. **identity** — degenerate configurations (one instance per step, zero
   recoveries; identity hoster grouping; AS-label grouping) reproduce
   the existing ``InstanceRemoval`` / ``ASRemoval`` curves bit for bit,
   on the monolithic AND the sharded streaming path;
2. **shard invariance** — stochastic temporal churn evaluates
   bit-identically sharded vs monolithic (ragged tail shard included);
3. **throughput** — the temporal sweep (one single-step schedule column
   per tick) sustains at least ``MIN_TOOT_TICKS_PER_SECOND`` toot-ticks
   per second through the streaming path.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_failure_models.py

or through the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_failure_models.py --benchmark-only -s
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import (
    ASRemoval,
    HosterRemoval,
    InstanceRemoval,
    ScheduledDowntime,
    ShardedIncidence,
    TemporalChurn,
    TootIncidence,
    availability_curves,
    temporal_removal_matrix,
)
from repro.engine.kernels import losses_per_step_batch
from repro.engine.sharding import streaming_losses

try:
    from benchmarks.bench_shard_scale import synthetic_arrays
except ImportError:  # run as a script: benchmarks/ itself is on sys.path
    from bench_shard_scale import synthetic_arrays

N_TOOTS = 400_000
N_DOMAINS = 300
SHARD_SIZE = 75_000  # 400k = 5 * 75k + 25k: ragged tail shard
DEGENERATE_STEPS = 64
CHURN_TICKS = 96
CHURN_SEED = 5

#: Throughput floor for the temporal sweep, in toot-ticks per second.
#: Deliberately conservative (shared CI runners); a healthy machine
#: clears it by an order of magnitude.
MIN_TOOT_TICKS_PER_SECOND = 2_000_000


def build_placements(n_toots: int = N_TOOTS):
    arrays, domains, asn_of = synthetic_arrays(n_toots=n_toots, n_domains=N_DOMAINS)
    from repro.core.replication import PlacementMap

    return PlacementMap(strategy=arrays.strategy, arrays=arrays), domains, asn_of


def build_churn(domains) -> TemporalChurn:
    rng = np.random.default_rng(CHURN_SEED)
    empirical = rng.lognormal(mean=-0.5, sigma=1.0, size=500)
    downtime = {d: float(f) for d, f in zip(domains, rng.uniform(0.02, 0.4, len(domains)))}
    return TemporalChurn(
        domains,
        empirical,
        downtime,
        steps=CHURN_TICKS,
        horizon_days=30.0,
        seed=CHURN_SEED,
        name="churn",
    )


def _curve(curves, name) -> np.ndarray:
    return np.asarray([p.availability for p in curves[name]], dtype=np.float64)


def monolithic_and_sharded(placements) -> tuple[TootIncidence, ShardedIncidence]:
    """The two engine inputs every identity check compares."""
    arrays = placements.arrays
    return TootIncidence.from_arrays(arrays), ShardedIncidence.from_arrays(arrays, SHARD_SIZE)


def check_degenerate_identity(placements, domains, asn_of) -> None:
    """Degenerate new-model configs == existing curves, both paths."""
    ranked = domains[:DEGENERATE_STEPS]
    as_ranking = sorted(set(asn_of.values()))[:16]
    models = [
        InstanceRemoval(ranked, steps=DEGENERATE_STEPS, name="inst"),
        HosterRemoval({d: d for d in ranked}, ranked, steps=DEGENERATE_STEPS, name="host"),
        ScheduledDowntime(
            {d: [(i + 1, DEGENERATE_STEPS + 1)] for i, d in enumerate(ranked)},
            steps=DEGENERATE_STEPS,
            name="sched",
        ),
        ASRemoval(asn_of, as_ranking, steps=len(as_ranking), name="as"),
        HosterRemoval(
            {d: f"AS{a}" for d, a in asn_of.items()},
            [f"AS{a}" for a in as_ranking],
            steps=len(as_ranking),
            name="as-grouped",
        ),
    ]
    monolithic, sharded = (
        availability_curves(target, models) for target in monolithic_and_sharded(placements)
    )
    for name in ("inst", "host", "sched", "as", "as-grouped"):
        assert np.array_equal(_curve(monolithic, name), _curve(sharded, name)), name
    assert np.array_equal(_curve(monolithic, "inst"), _curve(monolithic, "host"))
    assert np.array_equal(_curve(monolithic, "inst"), _curve(monolithic, "sched"))
    assert np.array_equal(_curve(monolithic, "as"), _curve(monolithic, "as-grouped"))


def check_churn_shard_invariance(placements, churn) -> None:
    monolithic, sharded = (
        availability_curves(target, [churn]) for target in monolithic_and_sharded(placements)
    )
    assert np.array_equal(_curve(monolithic, "churn"), _curve(sharded, "churn"))


def measure_temporal_throughput(placements, churn, rounds: int = 3) -> dict:
    """Best-of-``rounds`` wall time for the full temporal streaming sweep."""
    arrays = placements.arrays
    sharded = ShardedIncidence.from_arrays(arrays, SHARD_SIZE)
    incidence = TootIncidence.from_arrays(arrays)
    removal_matrix = temporal_removal_matrix(churn.down_matrix(sharded.lookup))
    steps = np.ones(removal_matrix.shape[1], dtype=np.int64)

    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        losses = streaming_losses(sharded, removal_matrix, steps)
        best = min(best, time.perf_counter() - start)
    expected = losses_per_step_batch(incidence.matrix, removal_matrix, steps)
    assert np.array_equal(losses, expected), "streamed temporal losses diverged"

    toot_ticks = arrays.n_toots * removal_matrix.shape[1]
    return {
        "ticks": int(removal_matrix.shape[1]),
        "sweep_seconds": best,
        "toot_ticks_per_second": toot_ticks / best,
    }


def _assert_gates(measured: dict) -> None:
    assert measured["toot_ticks_per_second"] >= MIN_TOOT_TICKS_PER_SECOND, (
        f"temporal sweep gate: {measured['toot_ticks_per_second']:,.0f} "
        f"toot-ticks/s < {MIN_TOOT_TICKS_PER_SECOND:,} required"
    )


def run_gates():
    placements, domains, asn_of = build_placements()
    churn = build_churn(domains)
    check_degenerate_identity(placements, domains, asn_of)
    check_churn_shard_invariance(placements, churn)
    return measure_temporal_throughput(placements, churn)


def test_failure_model_gates(benchmark):
    placements, domains, asn_of = build_placements()
    churn = build_churn(domains)
    check_degenerate_identity(placements, domains, asn_of)
    check_churn_shard_invariance(placements, churn)

    benchmark.pedantic(
        lambda: availability_curves(
            ShardedIncidence.from_arrays(placements.arrays, SHARD_SIZE), [churn]
        ),
        rounds=1,
        iterations=1,
    )
    measured = measure_temporal_throughput(placements, churn)

    from benchmarks.conftest import emit
    from repro.reporting import format_table

    emit(
        f"Failure models — {N_TOOTS:,} toots, {CHURN_TICKS} churn ticks, "
        f"shard={SHARD_SIZE:,}",
        format_table(
            ["measure", "value"],
            [
                ["degenerate identity (5 configs, both paths)", "bit-identical"],
                ["churn shard invariance", "bit-identical"],
                ["temporal sweep (s)", round(measured["sweep_seconds"], 3)],
                ["toot-ticks / second", f"{measured['toot_ticks_per_second']:,.0f}"],
            ],
        ),
    )
    _assert_gates(measured)


def main() -> None:
    measured = run_gates()
    print(f"failure-model gates: {N_TOOTS:,} toots x {CHURN_TICKS} churn ticks "
          f"(shard={SHARD_SIZE:,})")
    print("  identity            : degenerate hoster/country/temporal configs == "
          "InstanceRemoval/ASRemoval, monolithic and sharded")
    print("  shard invariance    : churn curves bit-identical sharded vs monolithic")
    print(f"  temporal sweep      : {measured['sweep_seconds']:.3f}s "
          f"({measured['toot_ticks_per_second']:,.0f} toot-ticks/s, "
          f"required >= {MIN_TOOT_TICKS_PER_SECOND:,})")
    _assert_gates(measured)

    try:
        from benchmarks.perf_log import record
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from perf_log import record

    path = record(
        "failure_models",
        {
            "n_toots": N_TOOTS,
            "n_domains": N_DOMAINS,
            "shard_size": SHARD_SIZE,
            "churn_ticks": CHURN_TICKS,
            "min_toot_ticks_per_second": MIN_TOOT_TICKS_PER_SECOND,
            "identity_degenerate": True,
            "churn_shard_invariant": True,
            **{key: round(value, 4) if isinstance(value, float) else value
               for key, value in measured.items()},
        },
    )
    print(f"  recorded            : {path}")


if __name__ == "__main__":
    main()
