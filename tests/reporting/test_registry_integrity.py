"""Registry integrity: metadata, runners and shape checks stay in sync."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.experiments import has_runner, runnable_ids
from repro.reporting.experiments import EXPERIMENTS

SHAPE_CHECKS = Path(__file__).resolve().parents[1] / "experiments" / "test_paper_shape.py"


class TestShapeChecks:
    def test_every_runnable_experiment_has_a_shape_check(self):
        """Every runner but ``correlated`` is checked in ``test_paper_shape.py``.

        ``correlated`` is the one exception: ``GOLDEN_CORRELATED`` in
        ``tests/engine/test_golden_failure_models.py`` pins its numbers
        exactly.  A new experiment without a shape check fails here.
        """
        tree = ast.parse(SHAPE_CHECKS.read_text())
        checked = {
            node.args[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "get_experiment"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        }
        assert checked == set(runnable_ids()) - {"correlated"}


class TestRunners:
    def test_every_registry_entry_has_a_runner(self):
        missing = [
            experiment_id for experiment_id in EXPERIMENTS if not has_runner(experiment_id)
        ]
        assert not missing, f"registry entries without an executable runner: {missing}"

    def test_runnable_ids_preserve_registry_order(self):
        assert runnable_ids() == list(EXPERIMENTS)
