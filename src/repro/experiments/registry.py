"""Runner registration: experiment ids -> executable runners.

The metadata registry (:data:`repro.reporting.experiments.EXPERIMENTS`)
names every table and figure; this module attaches the callable that
actually reproduces each one.  Runner modules register themselves with
the :func:`register_runner` decorator at import time, and
:func:`runner_for` is the single lookup the rest of the system
(``Experiment.run``, the CLI, the tests) goes through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import AnalysisError
from repro.reporting.experiments import EXPERIMENTS

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.context import ExperimentContext
    from repro.experiments.results import ExperimentResult

Runner = Callable[["ExperimentContext"], "ExperimentResult"]

_RUNNERS: dict[str, Runner] = {}


def register_runner(experiment_id: str) -> Callable[[Runner], Runner]:
    """Class the decorated callable as the runner for ``experiment_id``.

    The id must exist in the metadata registry and must not already have
    a runner — both constraints catch drift between the two registries
    at import time.
    """
    if experiment_id not in EXPERIMENTS:
        raise AnalysisError(
            f"cannot register a runner for unknown experiment {experiment_id!r}"
        )

    def decorator(runner: Runner) -> Runner:
        if experiment_id in _RUNNERS:
            raise AnalysisError(f"experiment {experiment_id!r} already has a runner")
        _RUNNERS[experiment_id] = runner
        return runner

    return decorator


def _load_runner_modules() -> None:
    """Import every runner module (idempotent; registration is import-time)."""
    from repro.experiments import (  # noqa: F401
        runners_availability,
        runners_failures,
        runners_population,
        runners_replication,
        runners_resilience,
    )


def runner_for(experiment_id: str) -> Runner:
    """The registered runner for ``experiment_id`` (loads runners lazily)."""
    _load_runner_modules()
    try:
        return _RUNNERS[experiment_id]
    except KeyError as exc:
        raise AnalysisError(
            f"experiment {experiment_id!r} has no registered runner"
        ) from exc


def has_runner(experiment_id: str) -> bool:
    """Whether ``experiment_id`` has an executable runner."""
    _load_runner_modules()
    return experiment_id in _RUNNERS


def runnable_ids() -> list[str]:
    """Every experiment id with a runner, in registry order."""
    _load_runner_modules()
    return [experiment_id for experiment_id in EXPERIMENTS if experiment_id in _RUNNERS]
