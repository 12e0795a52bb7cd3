"""The sweep API: many (strategy, failure, seed) combinations in one call.

The expensive part of an availability experiment is the per-strategy
incidence matrix; every failure schedule after that is a cheap batched
reduction.  ``run_availability_sweep`` exploits exactly that: one
:class:`~repro.engine.incidence.TootIncidence` per placement strategy,
then one :func:`~repro.engine.kernels.kill_steps_batch` pass covering
every failure model.  Seeds are just more strategies
(:meth:`StrategySpec.random` embeds the seed in the spec), so a
(strategy × ranking × seed) grid is a single call that returns every
curve, ready for :mod:`repro.reporting`.

Incidence matrices are memoised per placement map
(:meth:`TootIncidence.from_placements`), so repeated
:func:`availability_curves` calls on the same :class:`PlacementMap` —
across sweeps, wrappers, or ad-hoc experiments — rebuild nothing.

Past a million toots the full incidence matrix itself becomes the
memory ceiling, so the evaluation path follows from the input alone: a
:class:`~repro.engine.incidence.TootIncidence` is reduced monolithically,
a :class:`~repro.engine.sharding.ShardedIncidence` is streamed shard by
shard (bit-identical curves, O(shard) peak memory), and a
:class:`PlacementMap` streams only when it is arrays-backed with at
least :data:`~repro.engine.sharding.AUTO_SHARD_THRESHOLD` toots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro import obs
from repro.errors import AnalysisError
from repro.engine.failures import FailureModel
from repro.engine.incidence import TootIncidence
from repro.engine.kernels import (
    availability_from_losses,
    losses_per_step_batch,
    temporal_availability_from_counts,
    temporal_removal_matrix,
)
from repro.engine.placement import PlacementArrays, PlacementMap
from repro.engine.sharding import (
    AUTO_SHARD_THRESHOLD,
    DEFAULT_SHARD_SIZE,
    ShardedIncidence,
    streaming_losses,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.replication import AvailabilityPoint


def _to_points(curve: np.ndarray) -> list[AvailabilityPoint]:
    from repro.core.replication import AvailabilityPoint

    return [
        AvailabilityPoint(removed=step, availability=float(value))
        for step, value in enumerate(curve)
    ]


def availability_curve(
    placements: PlacementMap | TootIncidence | ShardedIncidence,
    failure: FailureModel,
) -> list[AvailabilityPoint]:
    """One availability curve for one placement map and one failure model."""
    return availability_curves(placements, [failure])[failure.name]


def _resolve_sharding(
    placements: PlacementMap | TootIncidence | ShardedIncidence,
) -> ShardedIncidence | None:
    """The sharded view to stream over, or ``None`` for the monolithic path.

    A :class:`ShardedIncidence` streams as given and a
    :class:`TootIncidence` never streams.  A :class:`PlacementMap`
    streams only when it is arrays-backed with at least
    :data:`AUTO_SHARD_THRESHOLD` toots, never building the full
    incidence matrix.  Backends built from a columnar corpus carry their
    crawl shard boundaries (``PlacementArrays.source_bounds``) and
    stream over exactly those shards, so the on-disk layout and the
    evaluation working set line up; others stream in
    :data:`DEFAULT_SHARD_SIZE` shards.
    """
    if isinstance(placements, ShardedIncidence):
        return placements
    if isinstance(placements, TootIncidence):
        return None
    arrays = getattr(placements, "arrays", None)
    if arrays is None or arrays.n_toots < AUTO_SHARD_THRESHOLD:
        return None
    if arrays.source_bounds:
        return ShardedIncidence.from_arrays(arrays, bounds=arrays.source_bounds)
    return ShardedIncidence.from_arrays(arrays, DEFAULT_SHARD_SIZE)


def availability_curves(
    placements: PlacementMap | TootIncidence | ShardedIncidence,
    failures: Sequence[FailureModel],
) -> dict[str, list[AvailabilityPoint]]:
    """Curves for many failure models over one shared incidence matrix.

    The input picks the path (see :func:`_resolve_sharding`): streaming
    through :mod:`repro.engine.sharding` or one monolithic reduction.
    The curves are bit-identical either way.

    Cumulative models contribute one removal column each; temporal
    models (``failure.temporal``) contribute one single-step column per
    tick, built by :func:`~repro.engine.kernels.temporal_removal_matrix`.
    Both column kinds flow through the same batched loss reduction —
    monolithic or streaming-sharded — before being reassembled into
    cumulative curves and availability time series respectively.
    """
    if not failures:
        raise AnalysisError("need at least one failure model")
    names = [failure.name for failure in failures]
    if len(set(names)) != len(names):
        raise AnalysisError("failure models must have distinct names")
    sharded = _resolve_sharding(placements)
    if sharded is not None:
        target: ShardedIncidence | TootIncidence = sharded
    else:
        target = (
            placements
            if isinstance(placements, TootIncidence)
            else TootIncidence.from_placements(placements)
        )
    with obs.span(
        "engine/availability_curves",
        failures=len(failures),
        n_toots=target.n_toots,
        sharded=sharded is not None,
    ):
        lookup = target.lookup
        blocks: list[np.ndarray] = []
        col_steps: list[int] = []
        spans: list[tuple[FailureModel, int, int]] = []  # (model, first column, n columns)
        for failure in failures:
            start = len(col_steps)
            if failure.temporal:
                block = temporal_removal_matrix(failure.down_matrix(lookup))
                blocks.append(block)
                col_steps.extend([1] * block.shape[1])
            else:
                failure_steps = failure.effective_steps()
                blocks.append(
                    lookup.removal_vector(failure.removal_index(), failure_steps)[:, None]
                )
                col_steps.append(failure_steps)
            spans.append((failure, start, len(col_steps) - start))
        removal_matrix = np.concatenate(blocks, axis=1)
        steps = np.asarray(col_steps, dtype=np.int64)
        if sharded is not None:
            losses = streaming_losses(sharded, removal_matrix, steps)
            total = sharded.n_toots
        else:
            losses = losses_per_step_batch(target.matrix, removal_matrix, steps)
            total = target.n_toots
    curves: dict[str, list[AvailabilityPoint]] = {}
    for failure, start, n_cols in spans:
        if failure.temporal:
            curve = temporal_availability_from_counts(
                losses[start : start + n_cols, 1], total
            )
        else:
            curve = availability_from_losses(
                losses[start, : int(steps[start]) + 1], total
            )
        curves[failure.name] = _to_points(curve)
    return curves


# -- placement strategies as declarative specs -----------------------------------


@dataclass(frozen=True)
class StrategySpec:
    """A named recipe for building a :class:`PlacementMap`."""

    name: str
    kind: str  # "none" | "subscription" | "random"
    n_replicas: int = 0
    seed: int = 0
    weights: tuple[tuple[str, float], ...] | None = None

    @classmethod
    def none(cls, name: str = "no-rep") -> "StrategySpec":
        return cls(name=name, kind="none")

    @classmethod
    def subscription(cls, name: str = "s-rep") -> "StrategySpec":
        return cls(name=name, kind="subscription")

    @classmethod
    def random(
        cls,
        n_replicas: int,
        seed: int = 0,
        weights: Mapping[str, float] | None = None,
        name: str | None = None,
    ) -> "StrategySpec":
        if name is None:
            name = f"n={n_replicas}" if seed == 0 else f"n={n_replicas}/seed={seed}"
        frozen_weights = tuple(sorted(weights.items())) if weights is not None else None
        return cls(
            name=name, kind="random", n_replicas=n_replicas, seed=seed, weights=frozen_weights
        )

    def build(
        self,
        toots: "TootsDataset",
        graphs: "GraphDataset | None" = None,
        candidate_domains: Sequence[str] | None = None,
    ) -> PlacementMap:
        from repro.core.replication import (
            no_replication,
            random_replication,
            subscription_replication,
        )

        if self.kind == "none":
            return no_replication(toots)
        if self.kind == "subscription":
            if graphs is None:
                raise AnalysisError("subscription replication needs the graphs dataset")
            return subscription_replication(toots, graphs)
        if self.kind == "random":
            if candidate_domains is None:
                raise AnalysisError("random replication needs candidate domains")
            return random_replication(
                toots,
                candidate_domains,
                self.n_replicas,
                seed=self.seed,
                weights=dict(self.weights) if self.weights is not None else None,
            )
        raise AnalysisError(f"unknown placement strategy kind: {self.kind!r}")

    def build_from_corpus(
        self,
        store: "CorpusStore",
        graphs: "GraphDataset | GraphStore | None" = None,
        candidate_domains: Sequence[str] | None = None,
    ) -> PlacementMap:
        """Build the same placement map straight from a columnar corpus.

        Dispatches through :meth:`PlacementArrays.from_corpus
        <repro.engine.placement.PlacementArrays.from_corpus>`; the
        resulting map is bit-identical to :meth:`build` on the
        equivalent record-backed dataset, without materialising records.
        """
        arrays = PlacementArrays.from_corpus(
            store,
            self.kind,
            graphs=graphs,
            candidate_domains=candidate_domains,
            n_replicas=self.n_replicas,
            seed=self.seed,
            weights=dict(self.weights) if self.weights is not None else None,
        )
        return PlacementMap(strategy=arrays.strategy, arrays=arrays)


def random_strategy_grid(
    replica_counts: Sequence[int], seeds: Sequence[int] = (0,)
) -> list[StrategySpec]:
    """The (n_replicas × seed) grid as strategy specs."""
    return [
        StrategySpec.random(n_replicas=n, seed=seed)
        for n in replica_counts
        for seed in seeds
    ]


# -- the sweep itself ------------------------------------------------------------


@dataclass
class SweepResult:
    """Every curve of a sweep, keyed by (strategy name, failure name)."""

    curves: dict[tuple[str, str], list[AvailabilityPoint]]
    strategy_names: tuple[str, ...]
    failure_names: tuple[str, ...]
    placements: dict[str, PlacementMap] = field(default_factory=dict)

    def curve(self, strategy: str, failure: str) -> list[AvailabilityPoint]:
        try:
            return self.curves[(strategy, failure)]
        except KeyError as exc:
            raise AnalysisError(f"no curve for {strategy!r} under {failure!r}") from exc

    def compare(self, failure: str, removed: int) -> dict[str, float]:
        """Availability of every strategy after ``removed`` removals."""
        from repro.core.replication import availability_at

        return {
            strategy: availability_at(self.curve(strategy, failure), removed)
            for strategy in self.strategy_names
        }

    def availability_rows(
        self, failure: str, removals: Sequence[int]
    ) -> list[list[object]]:
        """One row per strategy: ``[name, avail@removals[0], ...]`` (raw floats)."""
        from repro.core.replication import availability_at

        return [
            [strategy]
            + [availability_at(self.curve(strategy, failure), r) for r in removals]
            for strategy in self.strategy_names
        ]


def run_availability_sweep(
    toots: "TootsDataset",
    strategies: Sequence[StrategySpec],
    failures: Sequence[FailureModel],
    *,
    graphs: "GraphDataset | None" = None,
    candidate_domains: Sequence[str] | None = None,
    keep_placements: bool = False,
) -> SweepResult:
    """Evaluate every (strategy, failure) combination in one call.

    Builds each strategy's placement map and incidence matrix once, then
    batch-evaluates all failure schedules against it.  Random strategies
    carry their own seeds, so a seed sweep is just more
    :class:`StrategySpec` entries.  Placement maps large enough to
    shard stream through the sharded engine (see
    :func:`availability_curves`) — same curves, bounded memory.
    """
    if not strategies:
        raise AnalysisError("need at least one placement strategy")
    names = [spec.name for spec in strategies]
    if len(set(names)) != len(names):
        raise AnalysisError("placement strategies must have distinct names")
    curves: dict[tuple[str, str], list[AvailabilityPoint]] = {}
    placements_by_name: dict[str, PlacementMap] = {}
    for spec in strategies:
        placements = spec.build(toots, graphs=graphs, candidate_domains=candidate_domains)
        if keep_placements:
            placements_by_name[spec.name] = placements
        strategy_curves = availability_curves(placements, failures)
        for failure_name, curve in strategy_curves.items():
            curves[(spec.name, failure_name)] = curve
    return SweepResult(
        curves=curves,
        strategy_names=tuple(names),
        failure_names=tuple(failure.name for failure in failures),
        placements=placements_by_name,
    )
