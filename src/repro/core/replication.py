"""Toot replication strategies and content availability (Figs. 15-16).

The paper asks how many toots survive instance or AS failures under three
placement strategies:

* **no replication** — every toot lives only on its home instance;
* **subscription replication** — a toot is also stored (and globally
  indexed) on every instance hosting a follower of its author, i.e. the
  instances that already receive it through federation;
* **random replication** — a toot is copied onto ``n`` random instances.

A toot is considered available as long as at least one instance holding a
copy is still up (the paper assumes a global index such as a DHT to find
replicas).

Placement construction and availability curves are both computed by the
sparse-matrix failure-simulation engine: the vectorised builders in
:mod:`repro.engine.placement` produce an integer-coded
:class:`~repro.engine.placement.PlacementArrays` backend (one batched
draw for every toot instead of one ``rng.choice`` per toot), the
placement map becomes a toot×instance CSR incidence matrix — memoised
per map, see :meth:`repro.engine.incidence.TootIncidence.from_placements`
— and each removal schedule is one batched reduction.  The pure-Python
loops are kept as the ``_*_python`` reference implementations the
differential suite checks the engine against.  Note the batched draw
consumes the RNG stream in a different order, so seeded *random*
placements legitimately differ from :func:`_random_replication_python`
toot-by-toot while staying deterministic per seed and distributionally
equivalent.  For parameter sweeps (many strategies × rankings × seeds)
use :func:`repro.engine.run_availability_sweep`, which reuses one
incidence matrix per strategy across every failure schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.engine.placement import PlacementMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.graphs import GraphDataset
    from repro.datasets.toots import TootsDataset


def no_replication(toots: TootsDataset) -> PlacementMap:
    """Each toot is stored only on its author's home instance."""
    from repro.engine.placement import build_no_replication

    arrays = build_no_replication(toots)
    return PlacementMap(strategy=arrays.strategy, arrays=arrays)


def subscription_replication(toots: TootsDataset, graphs: GraphDataset) -> PlacementMap:
    """Each toot is replicated to the instances hosting the author's followers.

    Dispatches to the vectorised builder (one pass over the follower
    graph, array expansion per toot); the original per-record loop is
    retained as :func:`_subscription_replication_python` and the
    differential suite holds the two to identical placements.
    """
    from repro.engine.placement import build_subscription_replication

    arrays = build_subscription_replication(toots, graphs)
    return PlacementMap(strategy=arrays.strategy, arrays=arrays)


def random_replication(
    toots: TootsDataset,
    candidate_domains: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
) -> PlacementMap:
    """Each toot is replicated onto ``n_replicas`` random instances.

    ``weights`` optionally biases the replica placement (e.g. towards
    instances with more storage capacity) — the resource-weighted variant
    discussed at the end of Section 5.2.  Placement is one batched draw
    for all toots (Gumbel top-k for the weighted case); see
    :func:`repro.engine.placement.build_random_replication`.  Seeded
    output is deterministic but differs from the retained
    :func:`_random_replication_python` loop, which consumes the RNG
    stream one toot at a time.
    """
    from repro.engine.placement import build_random_replication

    arrays = build_random_replication(
        toots, candidate_domains, n_replicas, seed=seed, weights=weights
    )
    return PlacementMap(strategy=arrays.strategy, arrays=arrays)


# -- retained pure-Python reference implementations ------------------------------


def _no_replication_python(toots: TootsDataset) -> PlacementMap:
    """The original dict comprehension — reference for the differential suite."""
    placements = {
        record.url: frozenset({record.author_domain}) for record in toots.records()
    }
    return PlacementMap(strategy="no-replication", placements=placements)


def _subscription_replication_python(
    toots: TootsDataset, graphs: GraphDataset
) -> PlacementMap:
    """The original per-record loop — reference for the differential suite."""
    follower_domains: dict[str, frozenset[str]] = {}
    follower_graph = graphs.follower_graph
    placements: dict[str, frozenset[str]] = {}
    for record in toots.records():
        author = record.account
        if author not in follower_domains:
            domains: set[str] = set()
            if follower_graph.has_node(author):
                for follower, _ in follower_graph.in_edges(author):
                    domain = follower_graph.nodes[follower].get("domain")
                    if domain:
                        domains.add(domain)
            follower_domains[author] = frozenset(domains)
        placements[record.url] = frozenset({record.author_domain}) | follower_domains[author]
    return PlacementMap(strategy="subscription-replication", placements=placements)


def _random_replication_python(
    toots: TootsDataset,
    candidate_domains: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
) -> PlacementMap:
    """The original one-``rng.choice``-per-toot loop — reference implementation.

    The statistical half of the differential suite holds the batched
    builder to the same replica-count distribution as this loop.
    """
    if n_replicas < 0:
        raise AnalysisError("the number of replicas cannot be negative")
    candidates = sorted(set(candidate_domains))
    if not candidates:
        raise AnalysisError("no candidate instances to replicate onto")
    rng = np.random.default_rng(seed)
    k = min(n_replicas, len(candidates))
    probabilities: np.ndarray | None = None
    if weights is not None:
        from repro.engine.placement import _normalised_log_weights

        # shares the vectorised path's validation (positive mass, enough
        # positive-weight candidates for k distinct picks)
        probabilities = np.exp(_normalised_log_weights(candidates, weights, k))

    placements: dict[str, frozenset[str]] = {}
    for record in toots.records():
        if k == 0:
            placements[record.url] = frozenset({record.author_domain})
            continue
        picks = rng.choice(len(candidates), size=k, replace=False, p=probabilities)
        replicas = {candidates[int(i)] for i in picks}
        placements[record.url] = frozenset({record.author_domain}) | replicas
    label = f"random-replication-n{n_replicas}"
    if weights is not None:
        label += "-weighted"
    return PlacementMap(strategy=label, placements=placements)


# -- availability under failures -------------------------------------------------


@dataclass(frozen=True, slots=True)
class AvailabilityPoint:
    """Toot availability after removing the top-N entities."""

    removed: int
    availability: float


def _availability_curve(
    placements: PlacementMap,
    removal_index: Mapping[str, int],
    steps: int,
) -> list[AvailabilityPoint]:
    """Compute the availability curve given per-domain removal steps.

    ``removal_index[d] = k`` means domain ``d`` disappears at step ``k``
    (1-based); domains absent from the mapping never disappear.  A toot
    becomes unavailable at the step when its *last* holding domain is
    removed.

    Dispatches to the vectorised engine kernels; the legacy loop lives on
    as :func:`_availability_curve_python` for differential testing.
    """
    from repro.engine.incidence import TootIncidence
    from repro.engine.kernels import availability_curve_array

    incidence = TootIncidence.from_placements(placements)
    curve = availability_curve_array(
        incidence.matrix, incidence.removal_vector(removal_index, steps), steps
    )
    return [
        AvailabilityPoint(removed=step, availability=float(value))
        for step, value in enumerate(curve)
    ]


def _availability_curve_python(
    placements: PlacementMap,
    removal_index: Mapping[str, int],
    steps: int,
) -> list[AvailabilityPoint]:
    """The original per-toot loop — the engine's reference implementation."""
    total = len(placements.placements)
    if total == 0:
        raise AnalysisError("the placement map is empty")
    losses_at_step = np.zeros(steps + 1, dtype=int)
    for holders in placements.placements.values():
        kill_step = 0
        for domain in holders:
            index = removal_index.get(domain)
            if index is None or index > steps:
                kill_step = None
                break
            kill_step = max(kill_step, index)
        if kill_step is not None and kill_step > 0:
            losses_at_step[kill_step] += 1
    curve: list[AvailabilityPoint] = []
    lost = 0
    for step in range(steps + 1):
        lost += int(losses_at_step[step])
        curve.append(AvailabilityPoint(removed=step, availability=1.0 - lost / total))
    return curve


def availability_under_instance_removal(
    placements: PlacementMap,
    instance_ranking: Sequence[str],
    steps: int = 100,
) -> list[AvailabilityPoint]:
    """Toot availability while removing the top-N instances (Figs. 15b/d, 16)."""
    from repro.engine.failures import InstanceRemoval
    from repro.engine.sweep import availability_curve

    return availability_curve(placements, InstanceRemoval(instance_ranking, steps=steps))


def availability_under_as_removal(
    placements: PlacementMap,
    asn_of_instance: Mapping[str, int],
    as_ranking: Sequence[int],
    steps: int = 25,
) -> list[AvailabilityPoint]:
    """Toot availability while removing the top-N ASes (Figs. 15a/c, 16)."""
    from repro.engine.failures import ASRemoval
    from repro.engine.sweep import availability_curve

    return availability_curve(placements, ASRemoval(asn_of_instance, as_ranking, steps=steps))


def availability_at(curve: Iterable[AvailabilityPoint], removed: int) -> float:
    """Availability after exactly ``removed`` removals (convenience accessor)."""
    if removed < 0:
        raise AnalysisError(
            f"the number of removed entities cannot be negative (got {removed})"
        )
    best = None
    empty = True
    for point in curve:
        empty = False
        if point.removed <= removed:
            best = point
    if best is None:
        if empty:
            raise AnalysisError("the availability curve is empty")
        raise AnalysisError(
            f"the availability curve has no point at or before removed={removed}"
        )
    return best.availability


def compare_strategies(
    curves: Mapping[str, Sequence[AvailabilityPoint]], removed: int
) -> dict[str, float]:
    """Availability of every strategy after ``removed`` removals (Fig. 16)."""
    return {name: availability_at(curve, removed) for name, curve in curves.items()}
