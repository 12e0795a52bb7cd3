"""The executable experiment layer: one runner API for the whole evaluation.

The metadata registry (:mod:`repro.reporting.experiments`) names every
figure and table the paper reports; this package makes each entry
*executable*.  A runner is a callable ``run(ctx) -> ExperimentResult``
registered against its experiment id; :class:`ExperimentContext` builds
the shared pipeline (scenario, datasets, rankings, placements) lazily
and exactly once; :func:`run_experiments` evaluates any subset of the
paper over that shared context.  The CLI's ``run`` subcommand and every
``benchmarks/bench_*`` timing harness are thin wrappers over this API::

    from repro.experiments import run_experiments

    results = run_experiments(["fig15", "fig16"], preset="small", seed=42)
    print(results["fig16"].render_text())
    payload = results["fig16"].to_json_dict()   # round-trips via from_json_dict
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro._lazy import attach
from repro.errors import AnalysisError
from repro.reporting.experiments import EXPERIMENTS, get_experiment
from repro.experiments.registry import (
    Runner,
    has_runner,
    register_runner,
    runnable_ids,
    runner_for,
)
from repro.experiments.results import (
    RESULT_SCHEMA,
    ExperimentResult,
    ResultSeries,
    ResultTable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.context import ExperimentContext

# the context builds the whole pipeline; load it only when a run needs it
__getattr__, __dir__, _ = attach(__name__, {".context": ("ExperimentContext",)})

__all__ = [
    "RESULT_SCHEMA",
    "ExperimentContext",
    "ExperimentResult",
    "ResultSeries",
    "ResultTable",
    "Runner",
    "has_runner",
    "register_runner",
    "run_experiment",
    "run_experiments",
    "runnable_ids",
    "runner_for",
]


def run_experiment(experiment_id: str, ctx: ExperimentContext) -> ExperimentResult:
    """Run one experiment against ``ctx`` and stamp the run metadata.

    Under ``--trace`` the whole run sits inside an ``experiment/<id>``
    span and the context's per-phase seconds are stamped into the result
    metadata as ``phase_<name>_seconds``; without a tracer the metadata
    is exactly the untraced shape, so traced and untraced runs stay
    comparable after dropping the volatile timing keys.
    """
    experiment = get_experiment(experiment_id)
    runner = runner_for(experiment.experiment_id)
    with obs.span("experiment/" + experiment.experiment_id):
        started = time.perf_counter()
        result = runner(ctx)
        elapsed = time.perf_counter() - started
    metadata: dict[str, object] = {
        **ctx.run_metadata(),
        "elapsed_seconds": round(elapsed, 4),
    }
    if obs.tracing_enabled():
        for phase, seconds in sorted(ctx.phase_seconds.items()):
            metadata[f"phase_{phase}_seconds"] = round(seconds, 4)
    return result.with_metadata(metadata)


def run_experiments(
    experiment_ids: Sequence[str] | None = None,
    *,
    ctx: ExperimentContext | None = None,
    preset: str = "tiny",
    seed: int = 7,
    monitor_interval_minutes: int = 24 * 60,
) -> dict[str, ExperimentResult]:
    """Run a subset of the paper's experiments over one shared pipeline.

    ``experiment_ids`` defaults to every registered experiment (registry
    order).  All ids are validated before anything is built, so a typo
    fails fast instead of after a scenario generation.  Pass ``ctx`` to
    reuse an existing context (e.g. across successive calls); otherwise a
    fresh one is created from ``preset``/``seed`` and the shared
    artefacts are built at most once across the whole run.
    """
    if experiment_ids is None:
        ids = list(EXPERIMENTS)
    else:
        ids = list(experiment_ids)
    if not ids:
        raise AnalysisError("no experiments selected")
    for experiment_id in ids:
        get_experiment(experiment_id)  # raises AnalysisError on unknown ids
    seen = set()
    for experiment_id in ids:
        if experiment_id in seen:
            raise AnalysisError(f"duplicate experiment id: {experiment_id!r}")
        seen.add(experiment_id)
    if ctx is None:
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(
            preset=preset, seed=seed, monitor_interval_minutes=monitor_interval_minutes
        )
    return {
        experiment_id: run_experiment(experiment_id, ctx) for experiment_id in ids
    }
