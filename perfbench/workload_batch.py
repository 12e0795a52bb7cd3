"""The batch workloads: ``figures`` (in memory) and ``stores`` (columnar stores).

Each repetition launches the real CLI as its own process with tracing
off.  In a traced run, untraced and traced repetitions alternate; the
traced ones run the same argv through ``traced.py``.
"""

from __future__ import annotations

import math
import shutil
import time
from pathlib import Path
from typing import Callable

from common import (
    Finished,
    Metric,
    Outcome,
    cli_command,
    median,
    process_layers,
    read_json,
    run_program,
    time_cli_startup,
    traced_command,
)

#: The experiments the ``stores`` workload runs over the stores it wrote:
#: the replication sweeps, the graph removal sweeps, correlated and
#: temporal failures.
STORES_EXPERIMENTS = ("fig15", "fig16", "fig12", "fig13", "correlated", "churn")


def all_experiment_ids() -> tuple[str, ...]:
    from repro.reporting import EXPERIMENTS

    return tuple(EXPERIMENTS)


# -- output checks -----------------------------------------------------------


def check_results(json_dir: Path, expected: tuple[str, ...], out: Outcome) -> None:
    """One operation per experiment: its result exists and is well formed.

    Every scalar is finite; every availability curve lies in [0, 1]; a
    removal curve never rises as more entities are removed; s-rep is at
    least no-rep at every point of every paired curve.
    """
    for experiment_id in expected:
        path = json_dir / f"{experiment_id}.json"
        if not path.exists():
            out.op("result", False, f"{experiment_id}: no result")
            continue
        problem = _result_problem(read_json(path))
        out.op("result", problem is None, f"{experiment_id}: {problem}")


def _result_problem(result: dict) -> str | None:
    for name, value in result["scalars"].items():
        if isinstance(value, float) and not math.isfinite(value):
            return f"scalar {name} = {value}"
    curves = {
        series["name"]: series
        for series in result["series"]
        if series["y_label"] == "availability"
    }
    for name, series in curves.items():
        ys = series["y"]
        if not ys or any(not (0.0 <= y <= 1.0) for y in ys):
            return f"curve {name} leaves [0, 1]"
        if series["x_label"] == "removed" and any(b > a for a, b in zip(ys, ys[1:])):
            return f"curve {name} rises as more are removed"
    for name, series in curves.items():
        if not name.startswith("no-rep"):
            continue
        paired = curves.get("s-rep" + name[len("no-rep"):])
        if paired is None:
            continue
        if len(paired["y"]) != len(series["y"]) or any(
            s < n for n, s in zip(series["y"], paired["y"])
        ):
            return f"s-rep below no-rep on {name}"
    return None


# -- repetitions -------------------------------------------------------------


class Repetitions:
    """Untraced (and, when tracing, traced) repetitions of one workload step."""

    def __init__(self) -> None:
        #: Untraced wall times per CLI invocation (``run_s``, ``collect_s``).
        self.walls: dict[str, list[float]] = {}
        self.op_walls: list[float] = []
        self.traced_op_walls: list[float] = []
        self.peaks: list[float] = []
        self.layer_runs: list[dict[str, float]] = []
        self.coverage: list[float] = []

    def record(self, name: str, finished: Finished, traced: bool) -> None:
        if not traced:
            self.walls.setdefault(name, []).append(finished.wall_s)


def _launch(
    args: list[str], work: Path, tag: str, traced: bool
) -> tuple[Finished, dict[str, float] | None]:
    if not traced:
        return run_program(cli_command(*args), work / f"{tag}.log"), None
    layers_file = work / f"{tag}.layers.json"
    finished = run_program(traced_command(layers_file, *args), work / f"{tag}.log")
    if not layers_file.exists():
        return finished, None
    return finished, process_layers(read_json(layers_file), finished)


def _merge_layers(parts: list[dict[str, float]]) -> dict[str, float]:
    merged: dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            if name.startswith("mem."):
                merged[name] = max(merged.get(name, 0.0), value)
            else:
                merged[name] = merged.get(name, 0.0) + value
    return merged


def _repeat(
    step: Callable[[int, bool], tuple[list[Finished], list[dict[str, float]]]],
    seconds: float,
    trace: bool,
    reps: Repetitions,
) -> None:
    """Run ``step`` until ``seconds`` have passed (at least once per mode)."""
    started = time.perf_counter()
    i = 0
    modes = (False, True) if trace else (False,)
    while True:
        for traced in modes:
            processes, layer_parts = step(i, traced)
            wall = sum(p.wall_s for p in processes)
            (reps.traced_op_walls if traced else reps.op_walls).append(wall)
            if not traced:
                reps.peaks.append(max(p.peak_rss_mib for p in processes))
            elif layer_parts:
                merged = _merge_layers(layer_parts)
                reps.layer_runs.append(merged)
                busy = sum(v for k, v in merged.items() if k.endswith("_s"))
                reps.coverage.append(busy / wall)
        i += 1
        if time.perf_counter() - started >= seconds:
            return


def _common_metrics(out: Outcome, setup: list[float], reps: Repetitions, unit_op: str) -> None:
    out.e2e["setup_s"] = Metric(median(setup), "s", len(setup))
    out.e2e["latency_p50_ms"] = Metric(1000.0 * median(reps.op_walls), "ms", len(reps.op_walls))
    out.e2e["peak_rss_mib"] = Metric(median(reps.peaks), "MiB", len(reps.peaks))
    out.notes.append(f"one operation = {unit_op}")
    out.notes.append("operation walls (s): " + " ".join(f"{w:.3f}" for w in reps.op_walls))


def _layer_metrics(out: Outcome, reps: Repetitions) -> None:
    if not reps.layer_runs:
        return
    names = sorted({name for run in reps.layer_runs for name in run})
    for name in names:
        values = [run.get(name, 0.0) for run in reps.layer_runs]
        out.layers[name] = Metric(median(values), _unit_of(name), len(values))
    out.layers["trace.coverage"] = Metric(median(reps.coverage), "ratio", len(reps.coverage))
    out.layers["trace.overhead_s"] = Metric(
        median(reps.traced_op_walls) - median(reps.op_walls), "s", len(reps.traced_op_walls)
    )


def _unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name == "corpus.bytes_written":
        return "B"
    return "count"


# -- the workloads -----------------------------------------------------------


def figures(work: Path, seed: int, seconds: float, trace: bool, preset: str) -> Outcome:
    """``run --all`` in memory: the paper reproduction end to end."""
    out = Outcome()
    setup, startups = time_cli_startup(work)
    for s in startups:
        out.op("startup", s.ok, f"experiments exited {s.returncode}: {s.tail(300)}")
    expected = all_experiment_ids()
    reps = Repetitions()

    def step(i: int, traced: bool):
        tag = f"figures-{i}-{'traced' if traced else 'timed'}"
        json_dir = work / tag
        args = ["run", "--all", "--preset", preset, "--seed", str(seed), "--json", str(json_dir)]
        finished, layers = _launch(args, work, tag, traced)
        reps.record("run_s", finished, traced)
        if out.op("process", finished.ok, f"run exited {finished.returncode}: {finished.tail(500)}"):
            check_results(json_dir, expected, out)
        shutil.rmtree(json_dir, ignore_errors=True)
        return [finished], [layers] if layers else []

    _repeat(step, seconds, trace, reps)
    _common_metrics(out, setup, reps, f"one 'run --all --preset {preset}' process")
    out.extra["run_s"] = Metric(median(reps.walls["run_s"]), "s", len(reps.walls["run_s"]))
    _layer_metrics(out, reps)
    if trace:
        out.layers["cli.run_s"] = out.extra["run_s"]
    return out


def stores(work: Path, seed: int, seconds: float, trace: bool, preset: str) -> Outcome:
    """``collect --columnar`` then ``run`` over the stores it wrote."""
    out = Outcome()
    setup, startups = time_cli_startup(work)
    for s in startups:
        out.op("startup", s.ok, f"experiments exited {s.returncode}: {s.tail(300)}")
    reps = Repetitions()
    bytes_per_toot: list[float] = []

    def step(i: int, traced: bool):
        tag = f"stores-{i}-{'traced' if traced else 'timed'}"
        corpus, graph, json_dir = work / f"{tag}-corpus", work / f"{tag}-graph", work / f"{tag}-json"
        scenario = ["--preset", preset, "--seed", str(seed)]
        processes: list[Finished] = []
        parts: list[dict[str, float]] = []
        collect, layers = _launch(
            ["collect", "--columnar", "--corpus", str(corpus), "--graph", str(graph), *scenario],
            work, f"{tag}-collect", traced,
        )
        processes.append(collect)
        parts += [layers] if layers else []
        reps.record("collect_s", collect, traced)
        if out.op("process", collect.ok, f"collect exited {collect.returncode}: {collect.tail(500)}"):
            n_toots = read_json(corpus / "manifest.json")["n_toots"]
            if out.op("store", n_toots > 0, "collect wrote an empty corpus"):
                on_disk = sum(
                    p.stat().st_size for d in (corpus, graph) for p in d.iterdir() if p.is_file()
                )
                bytes_per_toot.append(on_disk / n_toots)
            run, layers = _launch(
                ["run", *STORES_EXPERIMENTS, *scenario, "--corpus", str(corpus),
                 "--graph", str(graph), "--json", str(json_dir)],
                work, f"{tag}-run", traced,
            )
            processes.append(run)
            parts += [layers] if layers else []
            reps.record("run_s", run, traced)
            if out.op("process", run.ok, f"run exited {run.returncode}: {run.tail(500)}"):
                check_results(json_dir, STORES_EXPERIMENTS, out)
        for d in (corpus, graph, json_dir):
            shutil.rmtree(d, ignore_errors=True)
        return processes, parts

    _repeat(step, seconds, trace, reps)
    _common_metrics(out, setup, reps, f"one 'collect --columnar' + 'run' pair at --preset {preset}")
    for name in ("collect_s", "run_s"):
        walls = reps.walls.get(name, [])
        out.extra[name] = Metric(median(walls), "s", len(walls))
    out.extra["store_bytes_per_toot"] = Metric(median(bytes_per_toot), "B", len(bytes_per_toot))
    _layer_metrics(out, reps)
    if trace:
        out.layers["cli.collect_s"] = out.extra["collect_s"]
        out.layers["cli.run_s"] = out.extra["run_s"]
        out.layers["corpus.bytes_per_toot"] = out.extra["store_bytes_per_toot"]
    return out
