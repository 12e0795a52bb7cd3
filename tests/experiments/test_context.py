"""Tests for the shared experiment context and the full-registry run.

The last class is the acceptance check for the executable registry: a
single ``run_experiments`` call over every registered experiment on the
tiny preset, with the context counters proving the scenario and the
measurement pipeline were each built exactly once.
"""

from __future__ import annotations

import pytest

from repro.engine import StrategySpec
from repro.errors import AnalysisError
from repro.experiments import ExperimentContext, run_experiment, run_experiments
from repro.reporting.experiments import EXPERIMENTS


class TestLaziness:
    def test_nothing_is_built_up_front(self):
        ctx = ExperimentContext(preset="tiny", seed=3)
        assert ctx.counters["build_scenario"] == 0
        assert ctx.counters["collect_datasets"] == 0
        assert ctx.counters["twitter_baselines"] == 0

    def test_repeated_access_builds_once(self):
        with ExperimentContext(preset="tiny", seed=3) as ctx:
            first = ctx.data
            second = ctx.data
        assert first is second
        assert ctx.counters["build_scenario"] == 1
        assert ctx.counters["collect_datasets"] == 1

    def test_derived_artefacts_memoise(self):
        with ExperimentContext(preset="tiny", seed=3) as ctx:
            assert ctx.instance_ranking("toots") is ctx.instance_ranking("toots")
            assert ctx.standard_failures() is ctx.standard_failures()
            assert ctx.asn_of is ctx.asn_of

    def test_placements_memoise_per_spec(self):
        with ExperimentContext(preset="tiny", seed=3) as ctx:
            spec = StrategySpec.none()
            first = ctx.placements_for(spec)
            # an equal (not identical) spec hits the same cache entry
            second = ctx.placements_for(StrategySpec.none())
        assert first is second
        assert ctx.counters["placements_built"] == 1

    def test_close_removes_the_temporary_stores(self):
        with ExperimentContext(preset="tiny", seed=3) as ctx:
            stores = [ctx.data.corpus.path, ctx.data.graph_store.path]
            assert all((path / "manifest.json").exists() for path in stores)
        assert not any(path.exists() for path in stores)

    def test_sweep_rejects_duplicate_strategy_names(self, datasets):
        ctx = ExperimentContext.from_datasets(datasets, preset="tiny", seed=11)
        duplicated = [
            StrategySpec.random(2, seed=1, name="x"),
            StrategySpec.random(3, seed=2, name="x"),
        ]
        with pytest.raises(AnalysisError, match="distinct names"):
            ctx.sweep(duplicated, ctx.standard_failures())

    def test_sweep_rejects_empty_strategies(self, datasets):
        ctx = ExperimentContext.from_datasets(datasets, preset="tiny", seed=11)
        with pytest.raises(AnalysisError, match="at least one placement strategy"):
            ctx.sweep([], ctx.standard_failures())


class TestFromDatasets:
    def test_wraps_existing_pipeline_without_building(self, datasets):
        ctx = ExperimentContext.from_datasets(datasets, preset="tiny", seed=11)
        assert ctx.data is datasets
        assert ctx.scenario is datasets.network
        assert ctx.counters["build_scenario"] == 0
        assert ctx.counters["collect_datasets"] == 0

    def test_run_metadata_reflects_parameters(self, datasets):
        ctx = ExperimentContext.from_datasets(
            datasets, preset="tiny", seed=11, monitor_interval_minutes=12 * 60
        )
        metadata = ctx.run_metadata()
        assert metadata["preset"] == "tiny"
        assert metadata["seed"] == 11
        # records the interval the datasets were actually collected with
        assert metadata["monitor_interval_minutes"] == 12 * 60


class TestRunExperiments:
    def test_unknown_id_fails_fast(self):
        with pytest.raises(AnalysisError, match="unknown experiment"):
            run_experiments(["fig1", "fig99"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            run_experiments(["fig1", "fig1"])

    def test_empty_selection_rejected(self):
        with pytest.raises(AnalysisError, match="no experiments"):
            run_experiments([])

    def test_single_experiment_over_shared_fixture(self, datasets):
        ctx = ExperimentContext.from_datasets(datasets, preset="tiny", seed=11)
        result = run_experiment("fig14", ctx)
        assert result.experiment_id == "fig14"
        assert result.metadata["preset"] == "tiny"
        assert "elapsed_seconds" in result.metadata
        assert result.tables


class TestFullRegistryRun:
    """``run --all`` acceptance: every runner, one pipeline build."""

    @pytest.fixture(scope="class")
    def full_run(self):
        with ExperimentContext(preset="tiny", seed=7) as ctx:
            results = run_experiments(None, ctx=ctx)
        return ctx, results

    def test_every_registered_experiment_ran(self, full_run):
        _, results = full_run
        assert list(results) == list(EXPERIMENTS)

    def test_every_result_has_content(self, full_run):
        _, results = full_run
        for experiment_id, result in results.items():
            assert result.experiment_id == experiment_id
            assert len(result.tables) + len(result.series) >= 1, (
                f"{experiment_id} produced neither tables nor series"
            )
            assert result.scalars, f"{experiment_id} produced no headline scalars"

    def test_pipeline_built_exactly_once(self, full_run):
        ctx, _ = full_run
        assert ctx.counters["build_scenario"] == 1
        assert ctx.counters["collect_datasets"] == 1
        assert ctx.counters["twitter_baselines"] == 1

    def test_results_render_and_serialise(self, full_run):
        _, results = full_run
        for result in results.values():
            assert result.render_text()
            assert result.to_json()


class TestCurveCache:
    def test_repeated_sweep_evaluates_no_new_curves(self, datasets):
        ctx = ExperimentContext.from_datasets(datasets, preset="tiny", seed=11)
        strategies = [StrategySpec.none(), StrategySpec.subscription()]
        failures = ctx.standard_failures()
        first = ctx.sweep(strategies, failures)
        evaluated = ctx.counters["curves_evaluated"]
        assert evaluated == len(strategies) * len(failures)
        second = ctx.sweep(strategies, failures)
        assert ctx.counters["curves_evaluated"] == evaluated
        assert second.curves == first.curves

    def test_partial_overlap_only_evaluates_the_new_pairs(self, datasets):
        ctx = ExperimentContext.from_datasets(datasets, preset="tiny", seed=11)
        failures = ctx.standard_failures()
        ctx.sweep([StrategySpec.none()], failures[:2])
        evaluated = ctx.counters["curves_evaluated"]
        ctx.sweep([StrategySpec.none()], failures)
        assert ctx.counters["curves_evaluated"] == evaluated + len(failures) - 2

    def test_same_name_different_schedule_recomputes(self, datasets):
        from repro.engine import InstanceRemoval

        ctx = ExperimentContext.from_datasets(datasets, preset="tiny", seed=11)
        ranking = ctx.instance_ranking("toots")
        spec = StrategySpec.none()
        first_model = InstanceRemoval(ranking, steps=5, name="swap")
        first = ctx.sweep([spec], [first_model])
        evaluated = ctx.counters["curves_evaluated"]
        # same name, different object and schedule: the cached curve is stale
        second_model = InstanceRemoval(list(reversed(ranking)), steps=5, name="swap")
        second = ctx.sweep([spec], [second_model])
        assert ctx.counters["curves_evaluated"] == evaluated + 1
        assert second.curves != first.curves
        # the same *object* again hits the refreshed cache
        ctx.sweep([spec], [second_model])
        assert ctx.counters["curves_evaluated"] == evaluated + 1
