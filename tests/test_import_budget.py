"""Each entry point imports only the layers it runs.

Every test here starts a fresh interpreter, runs one entry point, and
checks which modules ended up in ``sys.modules``: asserting on the
import graph rather than on timings keeps the check deterministic while
still guarding start-up cost (scipy, networkx and the simulator make up
most of a cold ``repro-mastodon`` start).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.corpus
import repro.engine
import repro.experiments
import repro.fediverse
import repro.reporting

SRC = Path(__file__).resolve().parents[1] / "src"

#: Layers the cheap CLI paths (``--help``, ``experiments``) must not load.
CLI_FORBIDDEN = (
    "numpy",
    "scipy",
    "networkx",
    "repro.engine",
    "repro.crawler",
    "repro.datasets",
    "repro.core",
    "repro.fediverse.workload",
)


def loaded_modules(code: str) -> set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    script = (
        "import json, sys\n"
        f"{code}\n"
        "print('\\n' + json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    finished = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(json.loads(finished.stdout.strip().splitlines()[-1]))


def run_cli(*argv: str) -> str:
    """Code that runs ``python -m repro.cli ARGV`` the way ``-m`` does."""
    return (
        "import runpy\n"
        f"sys.argv = ['repro-mastodon', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )


def present(modules: set[str], forbidden: tuple[str, ...]) -> list[str]:
    return sorted(
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in forbidden)
    )


@pytest.mark.parametrize("argv", [("experiments",), ("--help",), ("run", "--help")])
def test_cheap_cli_paths_load_no_pipeline_layer(argv):
    modules = loaded_modules(run_cli(*argv))
    assert "repro.obs" in modules  # the CLI module ran (as ``__main__``)
    assert present(modules, CLI_FORBIDDEN) == []


def test_collect_columnar_loads_no_scipy_or_networkx(tmp_path):
    modules = loaded_modules(
        run_cli(
            "collect", "--columnar", "--preset", "tiny",
            "--corpus", str(tmp_path / "corpus"), "--graph", str(tmp_path / "graph"),
        )
    )
    assert (tmp_path / "corpus" / "manifest.json").exists()
    assert present(modules, ("scipy", "networkx")) == []
    assert present(modules, ("repro.engine", "repro.crawler", "repro.datasets", "repro.core")) == []


def test_serve_loads_no_simulator_crawler_or_graph_libraries():
    modules = loaded_modules("import repro.serve")
    forbidden = (
        "networkx",
        "scipy.sparse.csgraph",
        "repro.crawler",
        "repro.fediverse.workload",
        "repro.core",
        "repro.datasets",
    )
    assert present(modules, forbidden) == []
    assert {"repro.serve.service", "repro.engine.sweep", "repro.corpus.store"} <= modules


def test_package_import_loads_no_layer():
    modules = loaded_modules("import repro")
    assert present(modules, CLI_FORBIDDEN + ("repro.fediverse",)) == []


@pytest.mark.parametrize(
    "package",
    [repro, repro.engine, repro.corpus, repro.fediverse, repro.reporting, repro.experiments],
    ids=lambda package: package.__name__,
)
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.engine.no_such_name  # noqa: B018


def test_lazy_names_are_the_submodule_objects():
    from repro.engine import TootIncidence
    from repro.engine.incidence import TootIncidence as defined

    from repro import build_scenario
    from repro.fediverse.workload import build_scenario as generator

    assert TootIncidence is defined
    assert build_scenario is generator
