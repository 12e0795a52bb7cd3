"""The availability query service: build once, answer forever.

:class:`AvailabilityService` splits the batch pipeline's cost cleanly in
two.  The **one-time build** (per strategy: integer-coded placements
from the corpus columns, a :class:`~repro.engine.sharding.ShardedIncidence`
over the crawl's own shard bounds; per (strategy × failure): the dense
removal column and the full-corpus loss table via
:func:`~repro.engine.sharding.streaming_losses`) runs exactly once, on
first use or eagerly via :meth:`AvailabilityService.warm`.  **Per-query
cost** is then O(answer): full-corpus availability is a table lookup,
and per-user / per-instance queries assemble only the subset's CSR rows
(:meth:`~repro.engine.placement.PlacementArrays.rows_incidence`) before
one batched reduction over them.

Every number the service returns is bit-identical to the equivalent
batch sweep: the removal vectors come from the same
:class:`~repro.engine.incidence.DomainLookup` over the same per-strategy
domain universe, the loss fold is the same additive integer reduction,
and the curves are the same ``1 - cumsum(losses) / total``.  The
differential suite in ``tests/serve/`` holds the service to exact
equality against :func:`~repro.engine.sweep.availability_curves`.

Failure rankings are derived from the stores alone, mirroring the batch
pipeline's :func:`~repro.core.resilience.rank_instances` over the
federation graph:

* ``instances/by_toots`` — graph-store domains (federation node order)
  ranked by the corpus' home-toot counts: exactly the batch ranking.
* ``instances/by_connections`` — ranked by distinct cross-instance
  federation partners: exactly the batch federation-graph degree.
* ``instances/by_users`` — ranked by accounts observed in the follower
  graph.  The batch pipeline ranks by the *monitor's* registered-user
  counts, which no store records, so this ranking is the store-derivable
  analogue rather than an exact twin; exact-match claims are restricted
  to the other two.

AS-level schedules need the monitor's per-instance AS metadata (not in
any store) — register such models explicitly via :meth:`add_failure`.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.corpus import CorpusStore, GraphStore
from repro.engine.failures import FailureModel, InstanceRemoval
from repro.engine.incidence import DomainLookup
from repro.engine.kernels import availability_from_losses, losses_per_step_batch
from repro.engine.placement import PlacementArrays
from repro.engine.sharding import DEFAULT_SHARD_SIZE, ShardedIncidence, streaming_losses
from repro.engine.sweep import StrategySpec
from repro.errors import AnalysisError

#: Default removal-schedule length, matching the batch experiments'
#: ``INSTANCE_REMOVAL_STEPS`` (fig13/15/16 family).
DEFAULT_REMOVAL_STEPS = 50


def parse_strategy(text: str) -> StrategySpec:
    """A :class:`StrategySpec` from the query grammar.

    ``no-rep`` (aliases ``none``, ``no_rep``) and ``s-rep`` (aliases
    ``subscription``, ``s_rep``) name the deterministic strategies;
    ``n=K`` and ``n=K/seed=S`` name random replication.  The produced
    spec names round-trip: the batch sweeps' default names parse back to
    equivalent specs.
    """
    name = text.strip()
    if name in ("no-rep", "none", "no_rep"):
        return StrategySpec.none()
    if name in ("s-rep", "subscription", "s_rep"):
        return StrategySpec.subscription()
    if name.startswith("n="):
        body, _, seed_part = name.partition("/")
        try:
            n_replicas = int(body[2:])
            seed = 0
            if seed_part:
                if not seed_part.startswith("seed="):
                    raise ValueError(seed_part)
                seed = int(seed_part[5:])
        except ValueError:
            raise AnalysisError(f"unknown placement strategy: {text!r}") from None
        return StrategySpec.random(n_replicas, seed=seed)
    raise AnalysisError(f"unknown placement strategy: {text!r}")


class _StrategyState:
    """Everything built once per placement strategy."""

    def __init__(
        self, spec: StrategySpec, arrays: PlacementArrays, sharded: ShardedIncidence
    ) -> None:
        self.spec = spec
        self.arrays = arrays
        self.sharded = sharded
        #: failure name -> (failure object, dense removal column, steps).
        self.removals: dict[str, tuple[FailureModel, np.ndarray, int]] = {}
        #: failure name -> (failure object, full-corpus availability curve).
        self.curves: dict[str, tuple[FailureModel, np.ndarray]] = {}
        #: instance domain -> rows holding a copy (one corpus pass each).
        self.holder_rows: dict[str, np.ndarray] = {}


class AvailabilityService:
    """Interactive availability queries over mmap'd corpus/graph stores.

    Thread-safe: the one-time builds are serialised behind one lock
    (double-checked, so they run exactly once no matter how many threads
    race), and everything a query touches afterwards is read-only numpy
    — concurrent mixed queries are bit-identical to serial execution
    (``tests/serve/test_concurrency.py``).
    """

    def __init__(
        self,
        corpus_dir: str | Path,
        graph_dir: str | Path | None = None,
        *,
        mmap: bool = True,
        removal_steps: int = DEFAULT_REMOVAL_STEPS,
        candidates: Sequence[str] | None = None,
    ) -> None:
        self.corpus = CorpusStore(corpus_dir, mmap=mmap)
        self.graph = GraphStore(graph_dir, mmap=mmap) if graph_dir is not None else None
        self.mmap = bool(mmap)
        self.removal_steps = removal_steps
        #: Candidate targets for random replication.  The batch pipeline
        #: uses the monitor's instance list, which no store records; the
        #: default here is the corpus' full domain universe.  Pass the
        #: batch candidate set explicitly to reproduce seeded draws.
        self.candidates = (
            sorted(str(d) for d in self.corpus.domains.tolist())
            if candidates is None
            else list(candidates)
        )
        #: How many times each one-time build actually ran — the
        #: build-once guarantee, observable.
        self.build_counters: dict[str, int] = {
            "strategies_built": 0,
            "loss_tables_built": 0,
            "row_indexes_built": 0,
        }
        self._started = time.monotonic()
        self._lock = threading.RLock()
        self._failures: dict[str, FailureModel] | None = None
        self._states: dict[str, _StrategyState] = {}
        self._author_lookup: DomainLookup | None = None
        self._author_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._home_lookup: DomainLookup | None = None
        self._home_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._follow_index: tuple[np.ndarray, np.ndarray] | None = None

    # -- the failure registry --------------------------------------------------

    def _ranked_nodes(self) -> list[str]:
        """The instance universe in the batch pipeline's ranking order.

        With a graph store: the store's domain intern order, which equals
        the federation graph's node order (both are first-appearance over
        the same edge stream), so ``sorted(..., reverse=True)`` ties
        break identically to the batch ranking.  Without one: the
        corpus' authoring instances in manifest (sorted-domain) order.
        """
        if self.graph is not None:
            return [str(d) for d in self.graph.domains.tolist()]
        return list(self.corpus.home_toot_counts)

    def failures(self) -> dict[str, FailureModel]:
        """The registered failure models, keyed by name (built once)."""
        with self._lock:
            if self._failures is None:
                self._failures = self._build_failures()
            return self._failures

    def _build_failures(self) -> dict[str, FailureModel]:
        nodes = self._ranked_nodes()
        toots = self.corpus.home_toot_counts
        models = [
            InstanceRemoval(
                sorted(nodes, key=lambda d: toots.get(d, 0), reverse=True),
                steps=self.removal_steps,
                name="instances/by_toots",
            )
        ]
        if self.graph is not None:
            users = self.graph.users_per_instance()
            models.append(
                InstanceRemoval(
                    sorted(nodes, key=lambda d: users.get(d, 0), reverse=True),
                    steps=self.removal_steps,
                    name="instances/by_users",
                )
            )
            degree: dict[str, int] = {}
            for source, target in self.graph.federation_edge_counts():
                degree[source] = degree.get(source, 0) + 1
                degree[target] = degree.get(target, 0) + 1
            models.append(
                InstanceRemoval(
                    sorted(nodes, key=lambda d: degree.get(d, 0), reverse=True),
                    steps=self.removal_steps,
                    name="instances/by_connections",
                )
            )
        return {model.name: model for model in models}

    def add_failure(self, model: FailureModel) -> None:
        """Register an extra cumulative failure model under its name.

        Temporal models answer a different question (a time series, not
        a removal curve) and are rejected; replacing a name drops any
        loss tables cached for it.
        """
        if getattr(model, "temporal", False):
            raise AnalysisError(
                "temporal failure models have no per-k availability curve"
            )
        with self._lock:
            self.failures()[model.name] = model

    def failure(self, name: str) -> FailureModel:
        registry = self.failures()
        model = registry.get(name)
        if model is None:
            known = ", ".join(sorted(registry))
            raise AnalysisError(f"unknown failure model {name!r} (known: {known})")
        return model

    # -- one-time builds -------------------------------------------------------

    def state_for(self, strategy: str | StrategySpec) -> _StrategyState:
        """The built (arrays + sharded incidence) state of one strategy."""
        spec = parse_strategy(strategy) if isinstance(strategy, str) else strategy
        with self._lock:
            state = self._states.get(spec.name)
            if state is None:
                build_started = time.perf_counter()
                arrays = PlacementArrays.from_corpus(
                    self.corpus,
                    spec.kind,
                    graphs=self.graph,
                    candidate_domains=self.candidates,
                    n_replicas=spec.n_replicas,
                    seed=spec.seed,
                    weights=dict(spec.weights) if spec.weights is not None else None,
                )
                if arrays.source_bounds:
                    sharded = ShardedIncidence.from_arrays(
                        arrays, bounds=arrays.source_bounds
                    )
                else:
                    sharded = ShardedIncidence.from_arrays(arrays, DEFAULT_SHARD_SIZE)
                state = _StrategyState(spec, arrays, sharded)
                self._states[spec.name] = state
                self.build_counters["strategies_built"] += 1
                obs.metrics().observe(
                    "repro_serve_build_seconds",
                    time.perf_counter() - build_started,
                    kind="strategy",
                )
            return state

    def _removal_for(
        self, state: _StrategyState, failure: FailureModel
    ) -> tuple[np.ndarray, int]:
        """The dense ``(n_domains, 1)`` removal column of one failure.

        Cached per (strategy, failure *object*) — the domain universe is
        per-strategy, so the same schedule maps to different columns
        under different strategies.
        """
        with self._lock:
            entry = state.removals.get(failure.name)
            if entry is None or entry[0] is not failure:
                steps = failure.effective_steps()
                column = state.sharded.lookup.removal_vector(
                    failure.removal_index(), steps
                )[:, None]
                entry = (failure, column, steps)
                state.removals[failure.name] = entry
            return entry[1], entry[2]

    def curve(self, strategy: str | StrategySpec, failure_name: str) -> np.ndarray:
        """The full-corpus availability curve (built once per pair).

        Index ``k`` is the availability after ``k`` removals — the same
        floats :func:`~repro.engine.sweep.availability_curves` returns as
        :class:`AvailabilityPoint` lists, computed by the same streaming
        loss fold.
        """
        state = self.state_for(strategy)
        failure = self.failure(failure_name)
        with self._lock:
            entry = state.curves.get(failure.name)
            if entry is None or entry[0] is not failure:
                build_started = time.perf_counter()
                column, steps = self._removal_for(state, failure)
                losses = streaming_losses(
                    state.sharded, column, np.asarray([steps], dtype=np.int64)
                )
                curve = availability_from_losses(
                    losses[0, : steps + 1], state.sharded.n_toots
                )
                entry = (failure, curve)
                state.curves[failure.name] = entry
                self.build_counters["loss_tables_built"] += 1
                obs.metrics().observe(
                    "repro_serve_build_seconds",
                    time.perf_counter() - build_started,
                    kind="loss_table",
                )
            return entry[1]

    def warm(self, strategies: Sequence[str] | None = None) -> None:
        """Run every one-time build eagerly (default: all no-arg strategies)."""
        if strategies is None:
            strategies = ["no-rep", "s-rep"] if self.graph is not None else ["no-rep"]
        for strategy in strategies:
            for failure_name in list(self.failures()):
                self.curve(strategy, failure_name)
        self._rows_by_author()
        self._rows_by_home()
        if self.graph is not None:
            self._followed_index()

    # -- row indexes (who authored / is homed where) ---------------------------

    def _grouped_rows(self, column: str, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
        """``(order, indptr)`` grouping corpus rows by an integer column.

        ``order[indptr[g] : indptr[g + 1]]`` are the rows of group ``g``
        in ascending row order (the argsort is stable).
        """
        codes = self.corpus.column(column).astype(np.int64)
        order = np.argsort(codes, kind="stable").astype(np.int64)
        counts = np.bincount(codes, minlength=n_groups)
        indptr = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return order, indptr

    def _rows_by_author(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if self._author_rows is None:
                self._author_lookup = DomainLookup(
                    [str(a) for a in self.corpus.authors.tolist()]
                )
                self._author_rows = self._grouped_rows(
                    "author_code", self._author_lookup.n_domains
                )
                self.build_counters["row_indexes_built"] += 1
            return self._author_rows

    def _rows_by_home(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if self._home_rows is None:
                self._home_lookup = DomainLookup(
                    [str(d) for d in self.corpus.domains.tolist()]
                )
                self._home_rows = self._grouped_rows(
                    "home_code", self._home_lookup.n_domains
                )
                self.build_counters["row_indexes_built"] += 1
            return self._home_rows

    def _followed_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order-sorted followed codes, per-follower indptr)`` (built once)."""
        if self.graph is None:
            raise AnalysisError("timeline queries need a graph store (--graph)")
        with self._lock:
            if self._follow_index is None:
                followers: list[np.ndarray] = []
                followed: list[np.ndarray] = []
                for _, src, dst in self.graph.iter_edges():
                    followers.append(np.asarray(src, dtype=np.int64))
                    followed.append(np.asarray(dst, dtype=np.int64))
                if followers:
                    src_all = np.concatenate(followers)
                    dst_all = np.concatenate(followed)
                else:
                    src_all = np.empty(0, dtype=np.int64)
                    dst_all = np.empty(0, dtype=np.int64)
                order = np.argsort(src_all, kind="stable")
                counts = np.bincount(src_all, minlength=self.graph.n_nodes)
                indptr = np.zeros(self.graph.n_nodes + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
                self._follow_index = (dst_all[order], indptr)
                self.build_counters["row_indexes_built"] += 1
            return self._follow_index

    def rows_authored_by(self, user: str) -> np.ndarray:
        """Corpus rows of the toots ``user`` authored (ascending)."""
        order, indptr = self._rows_by_author()
        code = int(self._author_lookup.codes([user])[0])
        if code < 0:
            raise AnalysisError(f"unknown author {user!r}")
        return order[indptr[code] : indptr[code + 1]]

    def rows_homed_on(self, instance: str) -> np.ndarray:
        """Corpus rows of the toots homed on ``instance`` (ascending)."""
        order, indptr = self._rows_by_home()
        code = int(self._home_lookup.codes([instance])[0])
        if code < 0:
            raise AnalysisError(f"unknown instance {instance!r}")
        return order[indptr[code] : indptr[code + 1]]

    def rows_held_on(self, strategy: str | StrategySpec, instance: str) -> np.ndarray:
        """Rows with a copy on ``instance`` under ``strategy`` (cached)."""
        state = self.state_for(strategy)
        with self._lock:
            rows = state.holder_rows.get(instance)
            if rows is None:
                rows = state.sharded.rows_holding(instance)
                state.holder_rows[instance] = rows
            return rows

    def timeline_rows(self, user: str) -> np.ndarray:
        """Rows of ``user``'s timeline: own toots plus followed authors'."""
        if self.graph is None:
            raise AnalysisError("timeline queries need a graph store (--graph)")
        followed_codes, indptr = self._followed_index()
        node = self.graph.node_index().get(user)
        authors = [user]
        if node is not None:
            codes = np.unique(followed_codes[indptr[node] : indptr[node + 1]])
            if codes.size:
                authors.extend(str(h) for h in self.graph.handles[codes].tolist())
        order, author_indptr = self._rows_by_author()
        author_codes = self._author_lookup.codes(authors)
        parts = [
            order[author_indptr[code] : author_indptr[code + 1]]
            for code in author_codes.tolist()
            if code >= 0
        ]
        if not parts:
            raise AnalysisError(f"no toots in the timeline of {user!r}")
        rows = np.unique(np.concatenate(parts))
        return rows

    # -- queries ---------------------------------------------------------------

    @staticmethod
    def _at(curve: np.ndarray, k: int) -> float:
        """The curve value after ``k`` removals (clamped past the schedule)."""
        if k < 0:
            raise AnalysisError(
                f"the number of removed entities cannot be negative (got {k})"
            )
        return float(curve[min(k, curve.size - 1)])

    def _subset_curve(
        self, strategy: str | StrategySpec, rows: np.ndarray, failure_name: str
    ) -> np.ndarray:
        """The availability curve of a row subset (one batched reduction)."""
        state = self.state_for(strategy)
        failure = self.failure(failure_name)
        column, steps = self._removal_for(state, failure)
        subset = state.arrays.rows_incidence(rows)
        losses = losses_per_step_batch(
            subset, column, np.asarray([steps], dtype=np.int64)
        )
        return availability_from_losses(losses[0, : steps + 1], rows.size)

    def availability(
        self,
        *,
        user: str | None = None,
        instance: str | None = None,
        held_on: str | None = None,
        strategy: str | StrategySpec = "no-rep",
        failure: str = "instances/by_toots",
        k: int,
    ) -> dict[str, object]:
        """Availability after ``k`` removals, over a selectable toot subset.

        Exactly one of ``user`` (toots the user authored), ``instance``
        (toots homed there) or ``held_on`` (toots with a copy there,
        strategy-dependent) selects a subset; none of them selects the
        whole corpus — bit-identical to the batch sweep's curve at ``k``.
        """
        selectors = [s for s in (user, instance, held_on) if s is not None]
        if len(selectors) > 1:
            raise AnalysisError("pass at most one of user=, instance=, held_on=")
        spec = parse_strategy(strategy) if isinstance(strategy, str) else strategy
        if user is not None:
            rows = self.rows_authored_by(user)
            subject: dict[str, object] = {"user": user}
        elif instance is not None:
            rows = self.rows_homed_on(instance)
            subject = {"instance": instance}
        elif held_on is not None:
            rows = self.rows_held_on(spec, held_on)
            if rows.size == 0:
                raise AnalysisError(
                    f"no toot has a copy on {held_on!r} under {spec.name!r}"
                )
            subject = {"held_on": held_on}
        else:
            rows = None
            subject = {"scope": "corpus"}
        if rows is None:
            value = self._at(self.curve(spec, failure), k)
            n_toots = self.corpus.n_toots
        else:
            value = self._at(self._subset_curve(spec, rows, failure), k)
            n_toots = int(rows.size)
        return {
            **subject,
            "strategy": spec.name,
            "failure": failure,
            "k": int(k),
            "toots": n_toots,
            "availability": value,
        }

    def timeline_availability(
        self,
        user: str,
        *,
        strategy: str | StrategySpec = "no-rep",
        failure: str = "instances/by_toots",
        k: int,
    ) -> dict[str, object]:
        """Availability of ``user``'s home timeline after ``k`` removals."""
        spec = parse_strategy(strategy) if isinstance(strategy, str) else strategy
        rows = self.timeline_rows(user)
        value = self._at(self._subset_curve(spec, rows, failure), k)
        return {
            "user": user,
            "strategy": spec.name,
            "failure": failure,
            "k": int(k),
            "toots": int(rows.size),
            "availability": value,
        }

    def best_placement(
        self,
        *,
        home: str,
        n_replicas: int = 1,
        failure: str = "instances/by_toots",
    ) -> dict[str, object]:
        """The replica targets that keep a new toot alive the longest.

        Candidates are ranked survivors-first (domains the schedule never
        removes, name ascending), then latest-removed; the toot's kill
        step is ``None`` while any holder survives the whole schedule.
        """
        if n_replicas < 0:
            raise AnalysisError(
                f"the number of replicas cannot be negative (got {n_replicas})"
            )
        universe = sorted(str(d) for d in self.corpus.domains.tolist())
        if home not in set(universe):
            raise AnalysisError(f"unknown instance {home!r}")
        model = self.failure(failure)
        steps = model.effective_steps()
        removal = {
            domain: step
            for domain, step in model.removal_index().items()
            if step <= steps
        }

        def key(domain: str) -> tuple[int, int, str]:
            step = removal.get(domain)
            if step is None:
                return (0, 0, domain)
            return (1, -step, domain)

        replicas = sorted(
            (d for d in universe if d != home), key=key
        )[:n_replicas]
        holder_steps = [removal.get(d) for d in [home, *replicas]]
        if any(step is None for step in holder_steps):
            kill_step: int | None = None
        else:
            kill_step = max(holder_steps)
        return {
            "home": home,
            "failure": failure,
            "replicas": replicas,
            "kill_step": kill_step,
        }

    def uptime_seconds(self) -> float:
        """Seconds since the service object was constructed."""
        return round(time.monotonic() - self._started, 3)

    def meta(self) -> dict[str, object]:
        """Service shape: stores, sizes, warmed strategies, known failures.

        ``uptime_seconds`` is the one volatile key — strip it before
        comparing two meta answers for equality.
        """
        return {
            "corpus": str(self.corpus.path),
            "graph": str(self.graph.path) if self.graph is not None else None,
            "mmap": self.mmap,
            "n_toots": self.corpus.n_toots,
            "n_domains": int(self.corpus.domains.shape[0]),
            "strategies": sorted(self._states),
            "failures": sorted(self.failures()),
            "removal_steps": self.removal_steps,
            "build_counters": dict(self.build_counters),
            "uptime_seconds": self.uptime_seconds(),
        }

    def stats(self) -> dict[str, object]:
        """Observability snapshot: builds, uptime, and every live metric.

        The metric families come straight from the process-wide registry
        (:func:`repro.obs.metrics`), so per-endpoint HTTP latencies and
        build timings recorded by the transports show up here too.
        """
        return {
            "build_counters": dict(self.build_counters),
            "uptime_seconds": self.uptime_seconds(),
            "metrics": obs.metrics().snapshot(),
        }


#: Per-verb allowed query parameters (anything else is a typo).
_VERB_PARAMS: Mapping[str, frozenset[str]] = {
    "availability": frozenset({"user", "instance", "held_on", "strategy", "failure", "k"}),
    "timeline": frozenset({"user", "strategy", "failure", "k"}),
    "best_placement": frozenset({"home", "n_replicas", "failure"}),
    "meta": frozenset(),
    "stats": frozenset(),
}


def _int_param(params: Mapping[str, str], name: str) -> int:
    raw = params[name]
    try:
        return int(raw)
    except ValueError:
        raise AnalysisError(f"query parameter {name!r} must be an integer, got {raw!r}") from None


def handle_query(
    service: AvailabilityService, verb: str, params: Mapping[str, str]
) -> dict[str, object]:
    """Dispatch one (verb, string-parameters) query — the shared core of
    the HTTP and stdin transports.  Raises :class:`AnalysisError` /
    :class:`~repro.errors.DatasetError` on bad input; transports turn
    those into error payloads.
    """
    allowed = _VERB_PARAMS.get(verb)
    if allowed is None:
        known = ", ".join(sorted(_VERB_PARAMS))
        raise AnalysisError(f"unknown query verb {verb!r} (known: {known})")
    unknown = set(params) - allowed
    if unknown:
        raise AnalysisError(
            f"unknown parameters for {verb!r}: {', '.join(sorted(unknown))}"
        )
    if verb == "meta":
        return service.meta()
    if verb == "stats":
        return service.stats()
    if verb == "best_placement":
        if "home" not in params:
            raise AnalysisError("best_placement needs home=<instance>")
        return service.best_placement(
            home=params["home"],
            n_replicas=_int_param(params, "n_replicas") if "n_replicas" in params else 1,
            failure=params.get("failure", "instances/by_toots"),
        )
    if "k" not in params:
        raise AnalysisError(f"{verb} needs k=<removals>")
    common = {
        "strategy": params.get("strategy", "no-rep"),
        "failure": params.get("failure", "instances/by_toots"),
        "k": _int_param(params, "k"),
    }
    if verb == "timeline":
        if "user" not in params:
            raise AnalysisError("timeline needs user=<handle>")
        return service.timeline_availability(params["user"], **common)
    return service.availability(
        user=params.get("user"),
        instance=params.get("instance"),
        held_on=params.get("held_on"),
        **common,
    )
