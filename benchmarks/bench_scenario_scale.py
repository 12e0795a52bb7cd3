"""Columnar scenario generation vs its object-network view.

:class:`~repro.fediverse.workload.ScenarioGenerator` draws the
population as whole numpy columns (a
:class:`~repro.fediverse.columnar.ColumnarScenario`);
:func:`~repro.fediverse.build_scenario` replays those columns into a
:class:`FediverseNetwork` of Python objects — one ``Toot`` dataclass per
toot, one ``UserRef`` per user, dict-of-list timelines — for the
in-memory crawl.  The columns serve ``Timeline.page``-shaped pages
lazily and stream to stores, so the ``xlarge`` preset (10M+ toots) fits
in a few hundred MiB.  This benchmark builds both at the same preset in
separate subprocesses and gates two claims:

1. **population agreement** — all six population stats (instances,
   users, toots, public toots, follow edges, federation edges) are
   exactly equal: both come from one draw;
2. **memory** — peak RSS of the generation phase (measured via the
   Linux ``/proc/self/clear_refs`` high-water-mark reset) is at least
   5× lower for the columns than for the network.

It also reports generation throughput (toots/sec) for both and, for the
columns, the streamed scenario→corpus+graph write rate.  Run
standalone::

    PYTHONPATH=src python benchmarks/bench_scenario_scale.py [--preset large]

The default preset is ``large`` (~1M unique toots; the network needs
GiBs of RAM).  Use ``--preset medium`` for a quicker, smaller-footprint
run of the same gates.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PRESET = "large"
SEED = 7
MIN_MEMORY_RATIO = 5.0
STATS = ("instances", "users", "toots", "public_toots", "follow_edges", "federation_edges")


# -- phase-scoped peak RSS ---------------------------------------------------------


def _vm_kib(field: str) -> int | None:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _reset_peak_rss() -> bool:
    """Reset the process RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


# -- the two phases (run in their own subprocesses) --------------------------------


def run_phase(phase: str, preset: str) -> dict:
    peak_scoped = _reset_peak_rss()
    baseline_kib = _vm_kib("VmRSS:") or 0
    measured: dict = {"phase": phase, "peak_is_phase_scoped": peak_scoped}

    if phase == "network":
        from repro.fediverse import build_scenario

        start = time.perf_counter()
        network = build_scenario(preset, seed=SEED)
        measured["generate_seconds"] = time.perf_counter() - start
        stats = network.stats()
        measured["stats"] = {key: int(stats[key]) for key in STATS}
        peak_kib = _vm_kib("VmHWM:") or 0
        measured["phase_peak_bytes"] = max(0, peak_kib - baseline_kib) * 1024
    else:
        from repro.corpus import CorpusWriter, GraphWriter
        from repro.fediverse import build_columnar_scenario

        start = time.perf_counter()
        scenario = build_columnar_scenario(preset, seed=SEED)
        measured["generate_seconds"] = time.perf_counter() - start
        stats = scenario.stats()
        measured["stats"] = {key: int(stats[key]) for key in STATS}
        # the gated phase is *generation*: snapshot its high-water mark
        # before the streaming write adds page-render buffers on top
        peak_kib = _vm_kib("VmHWM:") or 0
        measured["phase_peak_bytes"] = max(0, peak_kib - baseline_kib) * 1024

        # streamed scenario → corpus + graph, no object materialisation
        out_dir = Path(tempfile.mkdtemp(prefix="bench-scenario-"))
        minute = scenario.config.window_minutes - 1
        start = time.perf_counter()
        corpus_writer = CorpusWriter(out_dir / "corpus")
        scenario.write_corpus(corpus_writer, at_minute=minute)
        store = corpus_writer.finalise(crawl_minute=minute)
        graph_writer = GraphWriter(out_dir / "graph")
        scenario.write_graph(graph_writer, at_minute=minute)
        graph_store = graph_writer.finalise(crawl_minute=minute)
        measured["stream_seconds"] = time.perf_counter() - start
        measured["corpus_toots"] = store.n_toots
        measured["corpus_bytes"] = store.nbytes()
        measured["graph_edges"] = graph_store.n_edges
        measured["graph_bytes"] = graph_store.nbytes()
        shutil.rmtree(out_dir, ignore_errors=True)
        stream_peak_kib = _vm_kib("VmHWM:") or 0
        measured["stream_peak_bytes"] = max(0, stream_peak_kib - baseline_kib) * 1024
    return measured


# -- driver ------------------------------------------------------------------------


def _spawn(phase: str, preset: str) -> dict:
    command = [
        sys.executable, __file__, "--phase", phase, "--preset", preset,
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{phase} phase failed:\n{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


def run_comparison(preset: str = PRESET) -> dict:
    network = _spawn("network", preset)
    columnar = _spawn("columnar", preset)
    for key in STATS:
        assert network["stats"][key] == columnar["stats"][key], (
            f"{key} diverged: {network['stats'][key]} vs {columnar['stats'][key]}"
        )
    ratio = network["phase_peak_bytes"] / max(1, columnar["phase_peak_bytes"])
    return {
        "preset": preset,
        "n_toots": network["stats"]["toots"],
        "network_peak_bytes": network["phase_peak_bytes"],
        "columnar_peak_bytes": columnar["phase_peak_bytes"],
        "memory_ratio": ratio,
        "peak_is_phase_scoped": bool(
            network["peak_is_phase_scoped"] and columnar["peak_is_phase_scoped"]
        ),
        "network_generate_seconds": network["generate_seconds"],
        "columnar_generate_seconds": columnar["generate_seconds"],
        "network_toots_per_second": network["stats"]["toots"]
        / network["generate_seconds"],
        "columnar_toots_per_second": columnar["stats"]["toots"]
        / columnar["generate_seconds"],
        "stream_seconds": columnar["stream_seconds"],
        "stream_peak_bytes": columnar["stream_peak_bytes"],
        "stream_toots_per_second": columnar["corpus_toots"]
        / columnar["stream_seconds"],
        "corpus_toots": columnar["corpus_toots"],
        "corpus_bytes": columnar["corpus_bytes"],
        "graph_edges": columnar["graph_edges"],
        "graph_bytes": columnar["graph_bytes"],
    }


def _assert_gates(measured: dict, min_ratio: float = MIN_MEMORY_RATIO) -> None:
    if not measured["peak_is_phase_scoped"]:
        print("  memory gate          : SKIPPED (no /proc/self/clear_refs — "
              "phase-scoped peak RSS unavailable)")
        return
    assert measured["memory_ratio"] >= min_ratio, (
        f"scenario peak-RSS gate: {measured['memory_ratio']:.1f}x < "
        f"{min_ratio:.0f}x required"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default=PRESET)
    parser.add_argument("--phase", choices=("network", "columnar"), default=None)
    parser.add_argument(
        "--min-memory-ratio",
        type=float,
        default=MIN_MEMORY_RATIO,
        help=(
            "peak-RSS reduction the gate requires (default 5; the ratio is "
            "baseline-dominated below the large preset, so smaller smoke runs "
            "may lower it)"
        ),
    )
    args = parser.parse_args(argv)

    if args.phase is not None:
        print(json.dumps(run_phase(args.phase, args.preset)))
        return

    measured = run_comparison(args.preset)
    print(f"columnar scenario vs object network — '{measured['preset']}' preset, "
          f"{measured['n_toots']:,} toots")
    print("  population           : all six stats exact")
    print(f"  network peak         : {measured['network_peak_bytes'] / 2**20:8.1f} MiB "
          f"(generate {measured['network_generate_seconds']:.1f}s, "
          f"{measured['network_toots_per_second']:,.0f} toots/s)")
    print(f"  columnar peak        : {measured['columnar_peak_bytes'] / 2**20:8.1f} MiB "
          f"(generate {measured['columnar_generate_seconds']:.1f}s, "
          f"{measured['columnar_toots_per_second']:,.0f} toots/s)")
    print(f"  memory reduction     : {measured['memory_ratio']:8.1f}x "
          f"(required >= {args.min_memory_ratio:.0f}x)")
    print(f"  scenario → stores    : {measured['corpus_toots']:,} toots + "
          f"{measured['graph_edges']:,} edges in {measured['stream_seconds']:.1f}s "
          f"({measured['stream_toots_per_second']:,.0f} toots/s, "
          f"peak {measured['stream_peak_bytes'] / 2**20:.1f} MiB)")
    print(f"  stores on disk       : corpus {measured['corpus_bytes'] / 2**20:.1f} MiB, "
          f"graph {measured['graph_bytes'] / 2**20:.1f} MiB")
    _assert_gates(measured, args.min_memory_ratio)

    try:
        from benchmarks.perf_log import record
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from perf_log import record

    path = record(
        "scenario_scale",
        {
            "min_memory_ratio": args.min_memory_ratio,
            **{key: round(value, 4) if isinstance(value, float) else value
               for key, value in measured.items()},
        },
    )
    print(f"  recorded             : {path}")


if __name__ == "__main__":
    main()
