"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload stores  --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload serve   --seed 1 --seconds 20 --trace 0

Workloads (see ``NOTES.md`` for why each exists and what it bypasses):

* ``figures`` — ``repro-mastodon run --all`` in memory;
* ``stores``  — ``collect --columnar`` then ``run`` over the stores;
* ``serve``   — ``repro-mastodon serve`` under open-loop HTTP load.

``--trace 0`` launches the real CLI with tracing off and reports the
end-to-end metrics; ``--trace 1`` also runs every step through
``traced.py`` and reports the per-layer metrics.  Every line before the
last is for people: each metric with its unit and sample count, the
machine context and any failed check.  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every workload runs the ``tiny`` preset (see ``NOTES.md`` for why).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, MachineContext, Metric, Outcome  # noqa: E402

WORKLOADS = ("figures", "stores", "serve")
PRESET = "tiny"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_workload(name: str, work: Path, seed: int, seconds: float, trace: bool, preset: str) -> Outcome:
    if name == "serve":
        from workload_serve import serve

        return serve(work, seed, seconds, trace, preset)
    import workload_batch

    return getattr(workload_batch, name)(work, seed, seconds, trace, preset)


def _fmt(metric: Metric) -> str:
    return f"{metric.value:.6g} {metric.unit} (n={metric.samples})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = benchmark_spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    context = MachineContext()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        outcome = _run_workload(args.workload, work, args.seed, args.seconds, bool(args.trace), PRESET)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    sweep_s, steps = outcome.layers.get("engine.sweep_s"), outcome.layers.get("engine.toot_steps")
    if sweep_s is not None and steps is not None and sweep_s.value > 0:
        outcome.layers["engine.toot_steps_per_s"] = Metric(
            steps.value / sweep_s.value, "1/s", sweep_s.samples)
    reported = outcome.layers if args.trace else outcome.e2e
    # a layer the workload bypasses did no work: it reports zero
    metrics = {name: reported.get(name, Metric(0.0, unit, 0)) for name, unit in wanted.items()}
    problems = list(outcome.problems)
    if not args.trace:
        # an end-to-end metric is never 0: a missing or failed measurement is a failure
        problems += [
            f"{n} is {m.value}" for n, m in metrics.items() if not (math.isfinite(m.value) and m.value > 0)
        ]
    correct = outcome.failed == 0 and not problems and outcome.attempted > 0

    print(f"workload {args.workload} (preset {PRESET}, seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    for note in outcome.notes:
        print(f"  note: {note}")
    for name, metric in outcome.e2e.items():
        print(f"  end-to-end  {name:<28} {_fmt(metric)}")
    for name, metric in outcome.extra.items():
        print(f"  workload    {name:<28} {_fmt(metric)}")
    for name, metric in sorted(outcome.layers.items()):
        print(f"  layer       {name:<40} {_fmt(metric)}")
    print(f"  operations  attempted {outcome.attempted}, failed {outcome.failed}")
    print(f"  checks      {json.dumps(outcome.checks, sort_keys=True)}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(f"  machine     {json.dumps(context.finish(), sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m.value if math.isfinite(m.value) else 0.0, "unit": wanted[name]}
            for name, m in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
