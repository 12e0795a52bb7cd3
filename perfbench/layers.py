"""Per-layer busy time, counts and peak memory, recorded from outside ``src/``.

:func:`install` wraps the public entry points of each ``repro`` layer at
run time.  Every wrapped call records its *self* time (its duration minus
the wrapped calls nested inside it, on the same thread) under the layer
metric it belongs to, and the process high-water RSS while it ran.  No
file under ``src/`` is edited: the wrappers replace the module and class
attributes that name the original functions, in every loaded ``repro``
module, so code that imported a function by name calls the wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_CLEAR_REFS = Path("/proc/self/clear_refs")
_STATUS = Path("/proc/self/status")

#: The layers a wrapped call can belong to, in report order.
LAYERS = ("cli", "fediverse", "crawler", "datasets", "corpus", "engine", "experiments", "serve")


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current RSS (Linux ``clear_refs`` 5)."""
    try:
        _CLEAR_REFS.write_text("5")
    except OSError:
        pass  # without the reset, peaks read as the process-wide high-water mark


def peak_rss_mib() -> float:
    """This process's ``VmHWM`` (peak RSS since the last reset) in MiB."""
    for line in _STATUS.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class _Frame:
    __slots__ = ("metric", "child_s", "peak_mib")

    def __init__(self, metric: str) -> None:
        self.metric = metric
        self.child_s = 0.0
        self.peak_mib = 0.0


class LayerRecorder:
    """Accumulates self time, counts and peak memory per layer metric."""

    def __init__(self) -> None:
        self.busy_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_mib: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Folds each crawler transport's and experiment context's public
        #: counters in when the object dies, or at :meth:`finish`.
        self._folds: list[weakref.finalize] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def timed(
        self,
        metric: str,
        fn: Callable,
        on_result: Callable[["LayerRecorder", tuple, dict, Any, str | None], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped to book its self time under ``metric``.

        ``on_result(recorder, args, kwargs, result, parent)`` derives
        counts from the return value; ``parent`` is the metric of the
        wrapped call this one ran inside, or ``None``.
        """
        layer = metric.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1].metric if stack else None
            if stack:
                # the reset below would lose the caller's high-water mark
                stack[-1].peak_mib = max(stack[-1].peak_mib, peak_rss_mib())
            reset_peak_rss()
            frame = _Frame(metric)
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                frame.peak_mib = max(frame.peak_mib, peak_rss_mib())
                with self._lock:
                    self.busy_s[metric] += elapsed - frame.child_s
                    self.peak_mib[layer] = max(self.peak_mib[layer], frame.peak_mib)
                if stack:
                    stack[-1].child_s += elapsed
                    stack[-1].peak_mib = max(stack[-1].peak_mib, frame.peak_mib)
            if on_result is not None:
                on_result(self, args, kwargs, result, parent)
            return result

        return wrapper

    def track_transport(self, transport: Any) -> None:
        self._folds.append(weakref.finalize(transport, self._fold_transport, transport.stats))

    def track_context(self, ctx: Any) -> None:
        self._folds.append(weakref.finalize(ctx, self._fold_context, ctx.counters))

    def _fold_transport(self, stats: Any) -> None:
        self.count("crawler.requests", stats.requests)
        self.count("crawler.errors", stats.errors)

    def _fold_context(self, counters: dict[str, int]) -> None:
        self.count("experiments.build_scenario_calls", counters.get("build_scenario", 0))
        self.count("experiments.collect_calls", counters.get("collect_datasets", 0))

    def finish(self) -> dict[str, float]:
        """Fold the live objects' counters in and return every metric."""
        for fold in self._folds:
            fold()  # a no-op for objects already folded when they died
        out: dict[str, float] = {}
        out.update(self.busy_s)
        out.update(self.counts)
        for layer in LAYERS:
            out[f"mem.{layer}_peak_mib"] = self.peak_mib.get(layer, 0.0)
        return out


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute naming ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(rec: LayerRecorder, module: str, name: str, metric: str, on_result=None) -> None:
    original = getattr(importlib.import_module(module), name)
    _replace_everywhere(original, rec.timed(metric, original, on_result))


def _wrap_method(rec: LayerRecorder, cls: type, name: str, metric: str, on_result=None) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(rec.timed(metric, raw.__func__, on_result)))
    else:
        setattr(cls, name, rec.timed(metric, raw, on_result))


def _track_instances(cls: type, sink: Callable[[Any], None]) -> None:
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sink(self)

    cls.__init__ = __init__


# -- counts derived from return values ---------------------------------------


def _scenario_toots(rec, args, kwargs, network, parent) -> None:
    rec.count("fediverse.toots", network.total_toots())


def _columnar_toots(rec, args, kwargs, scenario, parent) -> None:
    rec.count("fediverse.toots", scenario.n_toots)


def _bytes_written(rec, args, kwargs, store, parent) -> None:
    rec.count("corpus.bytes_written", store.nbytes())


def _curves_done(rec, args, kwargs, curves, parent) -> None:
    placements = args[0] if args else kwargs["placements"]
    n_toots = getattr(placements, "n_toots", None)
    if n_toots is None:
        n_toots = len(placements)
    rec.count("engine.curves", len(curves))
    rec.count("engine.toot_steps", n_toots * sum(len(curve) for curve in curves.values()))


def _losses_done(rec, args, kwargs, losses, parent) -> None:
    if parent == "engine.sweep_s":
        return  # the enclosing availability_curves books this fold
    sharded, _, steps = args[:3]
    rec.count("engine.curves", len(steps))
    rec.count("engine.toot_steps", sharded.n_toots * int((steps + 1).sum()))


def install() -> LayerRecorder:
    """Wrap every layer's public entry points; return the recorder."""
    import repro
    import repro.cli
    import repro.core.resilience
    import repro.corpus
    import repro.crawler
    import repro.datasets
    import repro.engine.resilience
    import repro.engine.sharding
    import repro.engine.sweep
    import repro.experiments
    import repro.experiments.registry
    import repro.fediverse
    import repro.serve
    import repro.serve.http

    repro.experiments.registry._load_runner_modules()

    from repro.corpus import CorpusStore, CorpusWriter, GraphStore, GraphWriter
    from repro.crawler import FollowerGraphCrawler, InstanceMonitor, SimulatedTransport, TootCrawler
    from repro.datasets import GraphDataset, InstancesDataset, TootsDataset, TwitterBaselines
    from repro.engine.placement import PlacementArrays
    from repro.engine.sweep import StrategySpec
    from repro.experiments import ExperimentContext
    from repro.fediverse.columnar import ColumnarScenario
    from repro.serve import AvailabilityService

    rec = LayerRecorder()
    # fediverse: scenario generation, object and columnar
    _wrap_function(rec, "repro.fediverse", "build_scenario", "fediverse.scenario_s", _scenario_toots)
    _wrap_function(rec, "repro.fediverse", "build_columnar_scenario", "fediverse.columnar_s", _columnar_toots)
    _wrap_method(rec, ColumnarScenario, "write_corpus", "fediverse.columnar_s")
    _wrap_method(rec, ColumnarScenario, "write_graph", "fediverse.columnar_s")
    # crawler: the monitor and the two crawls
    _wrap_method(rec, InstanceMonitor, "run", "crawler.monitor_s")
    _wrap_method(rec, TootCrawler, "crawl", "crawler.toots_s")
    _wrap_method(rec, FollowerGraphCrawler, "crawl", "crawler.graph_s")
    _track_instances(SimulatedTransport, rec.track_transport)
    # datasets built from crawl output or stores
    _wrap_method(rec, InstancesDataset, "build", "datasets.build_s")
    _wrap_method(rec, TootsDataset, "from_crawl", "datasets.build_s")
    _wrap_method(rec, TootsDataset, "from_corpus", "datasets.build_s")
    _wrap_method(rec, GraphDataset, "from_crawl", "datasets.build_s")
    _wrap_method(rec, GraphDataset, "from_edges", "datasets.build_s")
    # corpus: store writes and opens
    _wrap_method(rec, CorpusWriter, "finalise", "corpus.write_s", _bytes_written)
    _wrap_method(rec, GraphWriter, "finalise", "corpus.write_s", _bytes_written)
    _wrap_method(rec, CorpusStore, "__init__", "corpus.open_s")
    _wrap_method(rec, GraphStore, "__init__", "corpus.open_s")
    # engine: placements, availability sweeps, graph removal sweeps
    _wrap_method(rec, StrategySpec, "build", "engine.placement_s")
    _wrap_method(rec, StrategySpec, "build_from_corpus", "engine.placement_s")
    _wrap_method(rec, PlacementArrays, "from_corpus", "engine.placement_s")
    _wrap_function(rec, "repro.engine.sweep", "availability_curves", "engine.sweep_s", _curves_done)
    _wrap_function(rec, "repro.engine.sharding", "streaming_losses", "engine.sweep_s", _losses_done)
    for name in ("user_removal_sweep_matrix", "ranked_removal_sweep_matrix", "as_removal_sweep_matrix"):
        _wrap_function(rec, "repro.engine.resilience", name, "engine.removal_s")
    # experiments: the runners' own work, the Twitter baselines, pipeline builds
    _wrap_function(rec, "repro.experiments", "run_experiment", "experiments.runner_self_s")
    _wrap_method(rec, TwitterBaselines, "generate", "experiments.twitter_s")
    _track_instances(ExperimentContext, rec.track_context)
    # serve: the one-time build and every query
    _wrap_method(rec, AvailabilityService, "__init__", "serve.setup_self_s")
    _wrap_method(rec, AvailabilityService, "warm", "serve.setup_self_s")
    _wrap_function(rec, "repro.serve.http", "handle_query", "serve.query_s")
    return rec
